"""Circuit-switched optical mesh with an electrical control plane.

A message triggers a *path setup*: a control packet walks the XY route on a
narrow electrical network, reserving the directed optical link segment of
each hop (hold-and-wait, FIFO per segment).  XY-ordered acquisition of
directed links is deadlock-free by the same channel-dependency argument as
dimension-ordered wormhole routing.  When the walker reaches the destination
an ack returns over the control plane, the payload is streamed end-to-end
optically (E/O, serialization, propagation over the whole path, O/E), and the
segments are torn down after the tail passes.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.config import NocConfig, ONOC_CIRCUIT_MESH, OnocConfig
from repro.engine import Simulator
from repro.net import Message
from repro.noc.routing import route_port
from repro.noc.topology import Topology
from repro.onoc.devices import RingCensus, mesh_link_length_cm, mesh_ring_census
from repro.onoc.entity import OpticalEntity
from repro.onoc.loss import LossBudget


class _Segment:
    """One directed optical link segment with a FIFO wait queue."""

    __slots__ = ("holder", "waiters")

    def __init__(self) -> None:
        self.holder: Optional[int] = None           # circuit (walker) id
        self.waiters: deque["_SetupWalker"] = deque()


class _SetupWalker:
    """State of one in-flight path setup."""

    __slots__ = ("cid", "msg", "path", "idx", "held")

    def __init__(self, cid: int, msg: Message, path: list[tuple[int, int]]) -> None:
        self.cid = cid
        self.msg = msg
        self.path = path          # [(node, out_port), ...] along the XY route
        self.idx = 0              # next hop to reserve
        self.held: list[tuple[int, int]] = []


class CircuitSwitchedMesh(OpticalEntity):
    """Photonic circuit-switched mesh implementing the NetworkAdapter API."""

    topology = ONOC_CIRCUIT_MESH
    power_label = "circuit_mesh"

    #: Same-pair circuits can reorder: a teardown wakes one segment waiter,
    #: and if that waiter loses the same-cycle re-acquisition race to a
    #: third circuit it re-queues at the *back* of the segment FIFO — behind
    #: a same-pair circuit that arrived after it.
    in_order_channels = False

    def __init__(self, sim: Simulator, cfg: OnocConfig) -> None:
        super().__init__(sim, cfg)
        side = cfg.mesh_side
        # Reuse the electrical topology/routing machinery for the control
        # plane's XY walk; only wiring and port math are borrowed.
        self._ctl_cfg = NocConfig(width=side, height=side)
        self.topo = Topology(self._ctl_cfg)
        self.segments: dict[tuple[int, int], _Segment] = {}
        self.link_length_cm = self.timing.link_length_cm
        self._next_cid = 0
        # Power-model counters.
        self.setup_hops_total = 0
        self.circuits_completed = 0

    # ------------------------------------------------------ static facts
    @classmethod
    def ring_census(cls, cfg: OnocConfig) -> RingCensus:
        return mesh_ring_census(cfg.num_nodes, cfg.num_wavelengths)

    @classmethod
    def worst_loss_db(cls, cfg: OnocConfig) -> float:
        return LossBudget(cfg).mesh_worst_loss_db()

    @classmethod
    def laser_channels(cls, cfg: OnocConfig) -> int:
        """A single shared WDM source feeding the switched fabric."""
        return 1

    @classmethod
    def waveguide_cm(cls, cfg: OnocConfig) -> float:
        """Every link of the ``side x side`` mesh."""
        side = cfg.mesh_side
        return 2 * side * (side - 1) * mesh_link_length_cm(cfg)

    def control_plane_pj(self, ecfg) -> float:
        """One buffered, arbitrated control-router traversal plus one link
        per reserved setup hop."""
        per_setup_hop_pj = (
            ecfg.buffer_write_pj + ecfg.buffer_read_pj + ecfg.crossbar_pj
            + ecfg.arbitration_pj + ecfg.link_pj
        )
        return self.setup_hops_total * per_setup_hop_pj

    def _inject(self, msg: Message) -> None:
        walker = _SetupWalker(self._next_cid, msg, self._xy_path(msg.src, msg.dst))
        self._next_cid += 1
        # First control-plane hop: the setup flit leaves the source NI.
        self.sim.schedule(
            self.sim.now + self.cfg.setup_router_latency,
            self._advance,
            (walker,),
        )

    # ----------------------------------------------------------- routing
    def _xy_path(self, src: int, dst: int) -> list[tuple[int, int]]:
        """XY route as a list of (node, out_port) hops."""
        path: list[tuple[int, int]] = []
        cur = src
        while cur != dst:
            port = route_port(self.topo, cur, dst)
            path.append((cur, port))
            nb = self.topo.neighbor(cur, port)
            assert nb is not None, "XY routed off the mesh"
            cur = nb[0]
        return path

    def _segment(self, key: tuple[int, int]) -> _Segment:
        seg = self.segments.get(key)
        if seg is None:
            seg = _Segment()
            self.segments[key] = seg
        return seg

    # -------------------------------------------------------- setup walk
    def _advance(self, walker: _SetupWalker) -> None:
        """Try to reserve the next segment; block in its FIFO if held."""
        if walker.idx == len(walker.path):
            self._path_complete(walker)
            return
        key = walker.path[walker.idx]
        seg = self._segment(key)
        if seg.holder is None:
            seg.holder = walker.cid
            walker.held.append(key)
            walker.idx += 1
            self.setup_hops_total += 1
            self.sim.schedule(
                self.sim.now
                + self.cfg.setup_link_latency
                + self.cfg.setup_router_latency,
                self._advance,
                (walker,),
            )
        else:
            seg.waiters.append(walker)

    def _path_complete(self, walker: _SetupWalker) -> None:
        """Destination reached: ack back, stream payload, schedule teardown."""
        msg = walker.msg
        hops = len(walker.path)
        now = self.sim.now
        self.stats.queueing_delay.add(now - msg.inject_time)  # setup latency
        timing = self.timing
        ser = timing.serialization(msg.size_bytes)
        lat_extra = 0
        if timing.penalty is not None:
            occ_extra, lat_extra = timing.penalty(
                msg.inject_time, msg.src, msg.dst, ser)
            ser += int(occ_extra)       # degraded payload streams longer
            lat_extra = int(lat_extra)
        data_end = now + timing.stream_cycles(hops) + ser
        self.sim.schedule(data_end + lat_extra, self._deliver, (msg, hops))
        self.sim.schedule(
            data_end + self.cfg.teardown_latency, self._teardown, (walker,)
        )

    def _teardown(self, walker: _SetupWalker) -> None:
        """Release all held segments; wake the head waiter of each FIFO."""
        self.circuits_completed += 1
        now = self.sim.now
        for key in walker.held:
            seg = self.segments[key]
            assert seg.holder == walker.cid, "teardown of a stolen segment"
            seg.holder = None
            if seg.waiters:
                nxt = seg.waiters.popleft()
                # The waiter re-attempts this same segment now that it's free.
                self.sim.schedule(now, self._advance, (nxt,))
        walker.held.clear()

    # ------------------------------------------------------------ queries
    def quiescent(self) -> bool:
        """True when no circuit is held or pending."""
        return self.stats.in_flight() == 0 and all(
            seg.holder is None and not seg.waiters
            for seg in self.segments.values()
        )
