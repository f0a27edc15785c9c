"""Event-driven optical network entities: the parts every backend shares.

:class:`OpticalEntity` is the :class:`repro.net.NetworkAdapter` boilerplate —
send validation, stats, the obs probe, the timing object and the delivery
funnel.  :class:`FifoChannelNetwork` adds the message-granularity
model the serpentine backends share: a granted transmission is a
contention-free circuit, so each FIFO channel (which one is the timing
object's ``resource`` key) serves its queue one message at a time and a
backend differs only in what a writer waits for before it may serialize
(:meth:`FifoChannelNetwork._acquire`).

Per-message arithmetic comes from :mod:`repro.onoc.timing` — on a degraded
fabric that includes the timing object's ``penalty`` rule, the only form in
which a fault timeseries reaches an entity; the scheduling
here — event queue, FIFO deques — is the reference the vectorized engine is
checked against and shares nothing with it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.config import OnocConfig
from repro.engine import Simulator
from repro.net import Message
from repro.obs.probes import net_probe
from repro.onoc.timing import TIMINGS
from repro.stats import LatencyRecorder, NetworkStats

# Stats-only flit equivalence so electrical/optical throughputs are
# comparable in the same units.
FLIT_BYTES_EQUIV = 16


class OpticalEntity:
    """State and adapter API common to all optical backends."""

    #: ``OnocConfig.topology`` name of the backend: selects the timing class
    #: and names the obs probe.  Set by each concrete network.
    topology: str

    def __init__(
        self,
        sim: Simulator,
        cfg: OnocConfig,
        keep_per_message_latency: bool = False,
    ) -> None:
        self.sim = sim
        self.cfg = cfg
        self.timing = TIMINGS[self.topology](cfg)
        self.stats = NetworkStats(
            latency=LatencyRecorder(keep_per_message=keep_per_message_latency)
        )
        self._delivery_handler: Optional[Callable[[Message], None]] = None
        # None unless repro.obs instrumentation was enabled at build time.
        self._probe = net_probe(self.topology)
        # Power-model counter.
        self.bits_transmitted = 0

    # ------------------------------------------------------ adapter API
    @property
    def num_nodes(self) -> int:
        return self.cfg.num_nodes

    def send(self, msg: Message) -> None:
        n = self.cfg.num_nodes
        if not (0 <= msg.src < n and 0 <= msg.dst < n):
            raise ValueError(f"message endpoints out of range: {msg}")
        if msg.src == msg.dst:
            raise ValueError(f"self-send not routed through the network: {msg}")
        msg.inject_time = self.sim.now
        self.stats.messages_sent += 1
        if self._probe is not None:
            self._probe.on_inject(self.sim.now, msg)
        self._inject(msg)

    def set_delivery_handler(self, fn: Callable[[Message], None]) -> None:
        self._delivery_handler = fn

    def _inject(self, msg: Message) -> None:
        """Start moving a validated, stamped message."""
        raise NotImplementedError

    # ---------------------------------------------------------- delivery
    def _deliver(self, msg: Message, hops: int = 1) -> None:
        msg.deliver_time = self.sim.now
        st = self.stats
        st.messages_delivered += 1
        st.bytes_delivered += msg.size_bytes
        st.flits_delivered += max(1, -(-msg.size_bytes // FLIT_BYTES_EQUIV))
        st.latency.record(msg.id, msg.latency)
        st.hop_count.add(hops)  # the serpentine is a single optical hop
        self.bits_transmitted += msg.size_bytes * 8
        if self._probe is not None:
            self._probe.on_deliver(self.sim.now, msg)
        if msg.on_delivery is not None:
            msg.on_delivery(msg)
        if self._delivery_handler is not None:
            self._delivery_handler(msg)


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

    def __init__(
        self,
        sim: Simulator,
        cfg: OnocConfig,
        keep_per_message_latency: bool = False,
    ) -> None:
        super().__init__(sim, cfg, keep_per_message_latency)
        self.layout = self.timing.layout
        self.channels = _Channels()

    def _inject(self, msg: Message) -> None:
        ch = self.channels[self.timing.resource(msg.src, msg.dst)]
        ch.queue.append(msg)
        if not ch.busy:
            self._serve_next(ch)

    def _acquire(self, ch: _Channel, msg: Message) -> int:
        """Cycles the head writer waits, once the channel is free, before it
        may serialize.  Zero where the writer owns the channel."""
        return 0

    def _serve_next(self, ch: _Channel) -> None:
        """Grant the channel to the next queued writer (FIFO)."""
        if not ch.queue:
            ch.busy = False
            return
        ch.busy = True
        msg = ch.queue.popleft()
        timing = self.timing
        start = self.sim.now + self._acquire(ch, msg)
        ser = timing.serialization(msg.size_bytes)
        tail = int(timing.tail(msg.src, msg.dst))
        if timing.penalty is not None:
            occ_extra, lat_extra = timing.penalty(
                msg.inject_time, msg.src, msg.dst, ser)
            ser += int(occ_extra)       # degraded channel held longer
            tail += int(lat_extra)
        release = start + ser
        self.stats.queueing_delay.add(start - msg.inject_time)
        self.sim.schedule(release + tail, self._deliver, (msg,))
        self.sim.schedule(release, self._serve_next, (ch,))

    # ------------------------------------------------------------ queries
    def quiescent(self) -> bool:
        """True when no channel is busy or backlogged."""
        return self.stats.in_flight() == 0 and all(
            not ch.busy and not ch.queue for ch in self.channels.values()
        )
