"""The electrical NoC: routers + links + NIs behind the NetworkAdapter API.

Orchestration: components (routers, NIs) that have work are kept in an
*active set*; a single network tick event per cycle runs ``cycle()`` on each
active component in deterministic (sorted-key) order and reschedules itself
only while anything remains active.

Flit and credit transfers do not cost a kernel event each.  A transfer is
appended to the *landing bucket* of the absolute cycle it lands on, and the
first transfer for a cycle schedules one ``_land(t)`` event with sub-tick
priority that delivers the whole bucket in append order, so state landed by
time *t* is visible to the tick at *t*.  This is the per-transfer event
order exactly: a bucket's append order is the order the events would have
been scheduled in, every ``(port, vc)`` buffer has one upstream, credits are
counters, ``wake`` is idempotent, and every latency is >= 1 (config
validation), so a landing never targets its own cycle.  The one exception is
ejection: ``NetworkInterface.flit_eject`` keeps its own kernel event,
because ``flit_eject -> deliver -> msg.on_delivery`` re-enters the system
model and must keep its place among that model's same-cycle events.

Which router input a link feeds, and which output a credit returns to, is
wiring: it is resolved per ``(node, port)`` at construction, not asked of
the topology per flit.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config import NocConfig
from repro.engine import Simulator
from repro.net import Message, NetworkBase
from repro.noc.flit import Flit
from repro.noc.interface import NetworkInterface
from repro.noc.router import Router
from repro.noc.topology import LOCAL, Topology

# Event priorities: transfers land before the tick evaluates the cycle.
_PRIO_TRANSFER = 0
_PRIO_TICK = 10


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
        # Landing buckets: absolute cycle -> [(fn, args), ...] in send order.
        self._landing: dict[int, list[tuple[Callable[..., None], tuple]]] = {}
        # Wiring: _links[node][port] is the far end of the link on that port
        # — (flit_arrive, credit_arrive, far_port, link_flits key), the
        # neighbouring router's two landing methods and the port it sees
        # this link on — or None for LOCAL and for a dead port.
        self._links: list[list[Optional[tuple]]] = []
        for node in range(cfg.num_nodes):
            row: list[Optional[tuple]] = [None] * self.topo.num_ports
            for port in self.topo.output_ports(node):
                nbr, far_port = self.topo.neighbor(node, port)
                far = self.routers[nbr]
                row[port] = (
                    far.flit_arrive, far.credit_arrive, far_port, (node, port)
                )
            self._links.append(row)

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
        try:
            # Swap first: a wake() made from inside a cycle() lands in the
            # set the next tick reads, beside this tick's survivors.
            active, self._active = self._active, {}
            for key in sorted(active):
                comp = active[key]
                if comp.cycle():  # type: ignore[attr-defined]
                    self._active[key] = comp
        finally:
            self._in_tick = False
        if self._active and not self._tick_scheduled:
            self._tick_scheduled = True
            self.sim.schedule(self.sim.now + 1, self._tick, priority=_PRIO_TICK)

    # -------------------------------------------------- transfer plumbing
    def _land_at(self, t: int, fn: Callable[..., None], args: tuple) -> None:
        """Deliver ``fn(*args)`` with the other transfers landing at ``t``."""
        bucket = self._landing.get(t)
        if bucket is None:
            self._landing[t] = [(fn, args)]
            self.sim.schedule(t, self._land, (t,), priority=_PRIO_TRANSFER)
        else:
            bucket.append((fn, args))

    def _land(self, t: int) -> None:
        for fn, args in self._landing.pop(t):
            fn(*args)

    def inject_flit(self, node: int, vc: int, flit: Flit) -> None:
        """NI -> router LOCAL input port, one link latency away."""
        self._land_at(
            self.sim.now + self.cfg.link_latency,
            self.routers[node].flit_arrive,
            (LOCAL, vc, flit),
        )

    def send_flit(self, node: int, out_port: int, out_vc: int, flit: Flit) -> None:
        """Router output -> downstream input buffer (or NI ejection)."""
        now = self.sim.now
        if out_port == LOCAL:
            self.sim.schedule(
                now + self.cfg.link_latency,
                self.nis[node].flit_eject,
                (flit,),
                priority=_PRIO_TRANSFER,
            )
            # The NI sink always has room; recycle the ejection credit so the
            # LOCAL output VC can be atomically re-allocated.
            self._land_at(
                now + self.cfg.credit_latency,
                self.routers[node].credit_arrive,
                (LOCAL, out_vc),
            )
        else:
            link = self._links[node][out_port]
            if link is None:
                raise RuntimeError(
                    f"router {node} routed out dead port {out_port} — routing bug"
                )
            flit_arrive, _, in_port, key = link
            self._land_at(
                now + self.cfg.link_latency, flit_arrive, (in_port, out_vc, flit)
            )
            self.link_flits[key] = self.link_flits.get(key, 0) + 1

    def return_credit(self, node: int, in_port: int, in_vc: int) -> None:
        """Input buffer slot at ``node`` freed: credit the upstream sender."""
        t = self.sim.now + self.cfg.credit_latency
        if in_port == LOCAL:
            self._land_at(t, self.nis[node].credit_arrive, (in_vc,))
        else:
            link = self._links[node][in_port]
            assert link is not None, "credit for a dead port"
            _, credit_arrive, out_port, _ = link
            self._land_at(t, credit_arrive, (out_port, in_vc))

    # ------------------------------------------------------------ delivery
    def deliver(self, msg: Message) -> None:
        """Tail flit reassembled at the destination NI."""
        self._deliver(msg, self.topo.min_hops(msg.src, msg.dst))

    # ------------------------------------------------------------- queries
    def quiescent(self) -> bool:
        """True when nothing is queued, buffered, or in flight."""
        return (
            self.stats.in_flight() == 0
            and not self._active
            and all(ni.backlog == 0 for ni in self.nis)
            and all(r.buffered_flits() == 0 for r in self.routers)
        )
