"""The electrical NoC: routers + links + NIs behind the NetworkAdapter API.

Orchestration: components (routers, NIs) that have work are kept in an
*active set*; a single network tick event per cycle reads the clock once and
runs ``cycle(now)`` on each active component in deterministic (sorted-key)
order, and reschedules itself only while anything remains active.

Flit and credit transfers do not cost a kernel event each.  A transfer is
appended to the *landing bucket* of the absolute cycle it lands on, and the
first transfer for a cycle schedules one ``_land(t)`` event with sub-tick
priority that applies the whole bucket in append order, so state landed by
time *t* is visible to the tick at *t*.  A bucket entry is ``(component,
port, vc, flit)``: a flit into a router's input buffer, a credit for a
router's output VC (``flit`` None), or a credit for an NI (``port`` None
too); ``_land`` applies each in place.  This is the per-transfer event
order exactly: a bucket's append order is the order the events would have
been scheduled in, every ``(port, vc)`` buffer has one upstream, credits are
counters, waking is idempotent, and every latency is >= 1 (config
validation), so a landing never targets its own cycle.  The one exception is
ejection: ``NetworkInterface.flit_eject`` keeps its own kernel event,
because ``flit_eject -> deliver -> msg.on_delivery`` re-enters the system
model and must keep its place among that model's same-cycle events.

Which router input a link feeds, and which output a credit returns to, is
wiring: it is resolved per ``(node, port)`` at construction
(``Router.links``), not asked of the topology per flit.
"""

from __future__ import annotations

from repro.config import NocConfig
from repro.engine import Simulator
from repro.net import Message, NetworkBase
from repro.noc.interface import NetworkInterface
from repro.noc.router import PRIO_TRANSFER, Router
from repro.noc.topology import LOCAL, Topology

# Event priority of the tick: transfers (PRIO_TRANSFER) land before it.
_PRIO_TICK = 10


class _Landing(dict):
    """Landing buckets: absolute cycle -> ``[(comp, port, vc, flit), ...]``
    in send order.  ``landing[t].append(entry)`` is the one way in: the
    first transfer for ``t`` creates its bucket and schedules ``_land(t)``."""

    __slots__ = ("net",)

    def __init__(self, net: "ElectricalNetwork") -> None:
        super().__init__()
        self.net = net

    def __missing__(self, t: int) -> list:
        bucket = self[t] = []
        net = self.net
        net.sim.schedule(t, net._land, (t,), priority=PRIO_TRANSFER)
        return bucket


class ElectricalNetwork(NetworkBase):
    """Cycle-level wormhole NoC implementing :class:`repro.net.NetworkAdapter`.

    Wormhole VC arbitration can interleave same-pair messages whose flights
    overlap, so delivery order is not guaranteed to match injection order
    (``in_order_channels`` stays False).
    """

    def __init__(self, sim: Simulator, cfg: NocConfig) -> None:
        super().__init__(sim, cfg.num_nodes, cfg.flit_bytes, "electrical")
        self.cfg = cfg
        self.topo = Topology(cfg)
        self.routers = [Router(n, cfg, self.topo, self) for n in range(cfg.num_nodes)]
        self.nis = [NetworkInterface(n, cfg, self) for n in range(cfg.num_nodes)]
        # Active set keyed by each component's ``key``: routers 0..N-1,
        # NIs N..2N-1.
        self._active: dict[int, object] = {}
        self._tick_scheduled = False
        self._in_tick = False
        # Per-directed-link flit counters for utilisation reports.
        self.link_flits: dict[tuple[int, int], int] = {}
        self._landing = _Landing(self)
        for r in self.routers:
            r.links[LOCAL] = (self.nis[r.node], None, None)
            for port in self.topo.output_ports(r.node):
                nbr, far_port = self.topo.neighbor(r.node, port)
                r.links[port] = (self.routers[nbr], far_port, (r.node, port))

    def _inject(self, msg: Message) -> None:
        """Queue ``msg`` at its source NI (source queueing included)."""
        self.nis[msg.src].enqueue(msg)

    # -------------------------------------------------------- tick engine
    def wake(self, comp: object) -> None:
        """Mark a component as having work; guarantees a tick will run."""
        self._active[comp.key] = comp  # type: ignore[attr-defined]
        if not self._tick_scheduled:
            self._tick_scheduled = True
            # A wake during the tick itself must target the *next* cycle.
            t = self.sim.now + 1 if self._in_tick else self.sim.now
            self.sim.schedule(t, self._tick, priority=_PRIO_TICK)

    def _tick(self) -> None:
        self._tick_scheduled = False
        self._in_tick = True
        now = self.sim.now
        try:
            # Swap first: a wake() made from inside a cycle() lands in the
            # set the next tick reads, beside this tick's survivors.
            active, self._active = self._active, {}
            for key in sorted(active):
                comp = active[key]
                if comp.cycle(now):  # type: ignore[attr-defined]
                    self._active[key] = comp
        finally:
            self._in_tick = False
        if self._active and not self._tick_scheduled:
            self._tick_scheduled = True
            self.sim.schedule(now + 1, self._tick, priority=_PRIO_TICK)

    # -------------------------------------------------- transfer plumbing
    def _land(self, t: int) -> None:
        """Apply the bucket of cycle ``t``, in place and in send order."""
        active = self._active
        depth = self.cfg.vc_depth
        ready = t + self.cfg.router_latency
        for comp, port, vc, flit in self._landing.pop(t):
            if flit is not None:        # a flit into router input (port, vc)
                ivc = comp.input_vcs[port][vc]
                flits = ivc.flits
                if len(flits) >= depth:
                    raise RuntimeError(
                        f"router {comp.node} input ({port},{vc}) overflow — "
                        "credit protocol violated"
                    )
                flit.ready_time = ready
                if not flits and ivc.out_vc is None:
                    comp._waiting += 1
                flits.append(flit)
                comp._buffered += 1
                comp._arrivals.append(ready)
                active[comp.key] = comp
            elif port is not None:      # a credit for router output (port, vc)
                credits = comp.credits[port]
                credits[vc] += 1
                if credits[vc] > comp._credit_cap[port]:
                    raise RuntimeError(
                        f"router {comp.node} credit overflow on ({port},{vc})"
                    )
                if comp._buffered:      # it can only unblock a buffered flit
                    active[comp.key] = comp
            else:                       # a credit for the NI's LOCAL VC
                credits = comp.credits
                credits[vc] += 1
                if credits[vc] > depth:
                    raise RuntimeError(f"NI {comp.node} credit overflow on vc {vc}")
                active[comp.key] = comp
        if active and not self._tick_scheduled:
            self._tick_scheduled = True
            self.sim.schedule(t, self._tick, priority=_PRIO_TICK)

    # ------------------------------------------------------------ delivery
    def deliver(self, msg: Message) -> None:
        """Tail flit reassembled at the destination NI."""
        self._deliver(msg, self.topo.min_hops(msg.src, msg.dst))

    # ------------------------------------------------------------- queries
    def quiescent(self) -> bool:
        """True when nothing is queued, buffered, landing or in flight, and
        every credit is back home."""
        nvcs = self.cfg.num_vcs
        home = [self.cfg.vc_depth] * nvcs
        return (
            self.stats.in_flight() == 0
            and not self._active
            and not self._landing
            and all(ni.backlog == 0 and ni.credits == home for ni in self.nis)
            and all(
                r.buffered_flits() == 0 and not r._arrivals
                and r.credits == [[cap] * nvcs for cap in r._credit_cap]
                for r in self.routers
            )
        )
