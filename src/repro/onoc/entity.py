"""Event-driven optical network entities: the parts every backend shares.

:class:`OpticalEntity` puts the timing object and the backend's static
power / area / loss facts on top of the :class:`repro.net.NetworkBase`
plumbing (send validation, stats, the obs probe, the delivery funnel).
:class:`FifoChannelNetwork` adds the message-granularity
model the serpentine backends share: a granted transmission is a
contention-free circuit, so each FIFO channel (which one is the timing
object's ``resource`` key) serves its queue one message at a time.  A
writer on a token-arbitrated channel first waits for the token's travel
(the timing object's ``token_travel``, ``None`` where the writer owns the
channel — the idiom the vectorized engine reads too).

Per-message arithmetic comes from :mod:`repro.onoc.timing` — on a degraded
fabric that includes the timing object's ``penalty`` rule, the only form in
which a fault timeseries reaches an entity.  Its int calls answer plain
ints, so an entity hands them to the scheduler as they come.  The
scheduling here — event queue, FIFO deques — is the reference the
vectorized engine is checked against and shares nothing with it.
"""

from __future__ import annotations

from collections import deque

from repro.config import OnocConfig
from repro.engine import Simulator
from repro.net import Message, NetworkBase
from repro.onoc.devices import RingCensus, SerpentineLayout
from repro.onoc.timing import TIMINGS

# Stats-only flit equivalence so electrical/optical throughputs are
# comparable in the same units.
FLIT_BYTES_EQUIV = 16


class OpticalEntity(NetworkBase):
    """The timing object and the static facts every optical backend states.

    The static facts are what Tables 4-5 read off the class that
    ``OnocConfig.topology`` names, so the power and area models branch on
    no backend: :meth:`ring_census`, :meth:`worst_loss_db`,
    :meth:`laser_channels`, :meth:`waveguide_cm`, :attr:`power_label`, and
    the run-dependent :meth:`control_plane_pj`.
    """

    #: ``OnocConfig.topology`` name of the backend: selects the timing class
    #: and names the obs probe.  Set by each concrete network.
    topology: str

    #: Table 4 row label: ``optical_<power_label>_<nodes>n``.
    power_label: str

    def __init__(self, sim: Simulator, cfg: OnocConfig) -> None:
        super().__init__(sim, cfg.num_nodes, FLIT_BYTES_EQUIV, self.topology)
        self.cfg = cfg
        self.timing = TIMINGS[self.topology](cfg)

    @property
    def bits_transmitted(self) -> int:
        """Payload bits delivered (the power model's dynamic-energy count)."""
        return self.stats.bytes_delivered * 8

    # ------------------------------------------------------ static facts
    @classmethod
    def ring_census(cls, cfg: OnocConfig) -> RingCensus:
        """Microrings of the backend built for ``cfg`` (static power, area)."""
        raise NotImplementedError

    @classmethod
    def worst_loss_db(cls, cfg: OnocConfig) -> float:
        """Insertion loss of the backend's worst-case laser-to-detector path."""
        raise NotImplementedError

    @classmethod
    def laser_channels(cls, cfg: OnocConfig) -> int:
        """WDM channels the laser lights continuously."""
        raise NotImplementedError

    @classmethod
    def waveguide_cm(cls, cfg: OnocConfig) -> float:
        """Total data-waveguide length of the floorplan (area)."""
        raise NotImplementedError

    def control_plane_pj(self, ecfg) -> float:
        """Electrical control-plane energy of this run, priced by the
        :class:`~repro.power.electrical.ElectricalEnergyConfig` ``ecfg``."""
        return 0.0


class _Channel:
    """Serving state of one FIFO channel."""

    __slots__ = ("queue", "busy", "token_at")

    def __init__(self, key: int) -> None:
        self.queue: deque[Message] = deque()
        self.busy = False
        # Token-arbitrated channels only: the token parks at the last
        # writer; it starts at the reader, whose node is the channel key.
        self.token_at = key


class _Channels(dict):
    """Channels by resource key, created on first touch (an AWGR has n²
    lanes, most of them never used)."""

    def __missing__(self, key: int) -> _Channel:
        ch = self[key] = _Channel(key)
        return ch


class FifoChannelNetwork(OpticalEntity):
    """A serpentine backend: FIFO channels keyed by ``timing.resource``."""

    #: Each channel serves one message at a time in arrival order and
    #: propagation per (src, dst) pair is fixed, so same-pair messages
    #: deliver in injection order.
    in_order_channels = True

    @classmethod
    def laser_channels(cls, cfg: OnocConfig) -> int:
        """One WDM home channel per node, all lit continuously."""
        return cfg.num_nodes

    @classmethod
    def waveguide_cm(cls, cfg: OnocConfig) -> float:
        """The closed serpentine loop."""
        return SerpentineLayout(cfg).total_length_cm

    def __init__(self, sim: Simulator, cfg: OnocConfig) -> None:
        super().__init__(sim, cfg)
        self.layout = self.timing.layout
        self.channels = _Channels()

    def _inject(self, msg: Message) -> None:
        ch = self.channels[self.timing.resource(msg.src, msg.dst)]
        ch.queue.append(msg)
        if not ch.busy:
            self._serve_next(ch)

    def _serve_next(self, ch: _Channel) -> None:
        """Grant the channel to the next queued writer (FIFO)."""
        if not ch.queue:
            ch.busy = False
            return
        ch.busy = True
        msg = ch.queue.popleft()
        timing, sim = self.timing, self.sim
        src, dst = msg.src, msg.dst
        start = sim.now
        if timing.token_travel is not None:
            # The token travels from the last writer, which it then stays at.
            start += timing.token_travel(ch.token_at, src)
            ch.token_at = src
        ser = timing.serialization(msg.size_bytes)
        tail = timing.tail(src, dst)
        if timing.penalty is not None:
            occ_extra, lat_extra = timing.penalty(
                msg.inject_time, src, dst, ser)
            ser += int(occ_extra)       # degraded channel held longer
            tail += int(lat_extra)
        release = start + ser
        self.stats.queueing_delay.add(start - msg.inject_time)
        sim.schedule(release + tail, self._deliver, (msg,))
        sim.schedule(release, self._serve_next, (ch,))

    # ------------------------------------------------------------ queries
    def quiescent(self) -> bool:
        """True when no channel is busy or backlogged."""
        return self.stats.in_flight() == 0 and all(
            not ch.busy and not ch.queue for ch in self.channels.values()
        )
