"""Input-queued virtual-channel wormhole router.

Pipeline model: a flit arriving at cycle *t* may traverse the switch at
``t + router_latency`` at the earliest (``ready_time``), which collapses the
classic BW/RC/VA/SA/ST stages into a fixed pipeline depth while preserving
1-flit/cycle/port streaming throughput.  Per cycle the router performs:

1. **VA** — head flits at the front of an input VC that hold a route but no
   output VC try to acquire one.  VC allocation is *atomic* (a downstream VC
   is granted only when empty, i.e. all credits present), so two packets
   never interleave in one buffer.
2. **SA/ST** — input VCs holding an output VC bid for the switch.  Separable
   allocation: at most one grant per input port and per output port per
   cycle, gated on downstream credit.  Granted flits depart on the link
   (arriving ``link_latency`` later) and a credit returns upstream
   ``credit_latency`` later.

Arbitration order: both walks visit ``n`` slots of the flattened input-VC
list starting at a priority pointer, and the pointer *moves during the
walk* — step ``i`` looks at slot ``(pointer + i) % n`` with the pointer's
current value.  VA advances it past every VC it serves, SA past the first
grant of the cycle, so after a success the remaining steps are re-based on
the new pointer: within one cycle some VCs are passed over and some are
looked at twice.  This is not a plain round-robin, and it is the order every
recorded timing depends on (``tests/golden/noc_digests.json``); keep it.

The router does nothing it can know is empty: ``_buffered`` counts the flits
in all input buffers (``cycle`` returns at once at 0, and a credit landing
on an empty router wakes nobody), ``_waiting`` counts the non-empty input
VCs that hold no output VC (the VA walk runs only when one exists).

Ready gate: every arrival's ``ready_time`` joins the ``_arrivals`` FIFO
(landings come in time order, so it is monotone), and each cycle moves
the ones that have come due into ``_ready``, the count of buffered flits
that have cleared the pipeline.  A grant needs ``flits[0].ready_time <=
now``, and a walk that grants nothing moves no pointer, so the SA walk runs
only while ``_ready`` is non-zero, and stops once the grants have taken
every ready flit: skipping what cannot grant changes nothing.  This is not
sleeping until a flit is ready: the router stays in the active set and VA
runs every cycle, and SA visits slots in the moving-pointer order, no
slot skipped.

A grant writes its transfers itself: the flit and the upstream credit are
appended to the network's landing bucket (``ElectricalNetwork._landing``)
through ``links``, the wiring resolved at construction, and an ejected
flit is handed to the NI's own kernel event.  The clock is handed down:
``cycle(now)`` reads no clock.  XY routes are resolved once per
destination (``_routes``); VA tries every output VC, lowest first.

Deadlock freedom: XY is dimension-ordered, safe with any VC count.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, TYPE_CHECKING

from repro.config import NocConfig
from repro.noc.flit import Flit
from repro.noc.routing import route_port
from repro.noc.topology import LOCAL, Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.network import ElectricalNetwork

# Effectively infinite credit pool for the ejection (LOCAL output) port: the
# NI reassembly buffer always sinks flits at link rate.
EJECT_CREDITS = 1 << 30

# Kernel priority of a transfer: it lands before the tick evaluates its cycle.
PRIO_TRANSFER = 0


class InputVC:
    """State of one (input port, VC) buffer."""

    __slots__ = ("port", "vc", "flits", "route_out", "out_vc")

    def __init__(self, port: int, vc: int) -> None:
        self.port = port
        self.vc = vc
        self.flits: deque[Flit] = deque()
        self.route_out: Optional[int] = None   # output port chosen by RC
        self.out_vc: Optional[int] = None      # output VC granted by VA


class Router:
    """One wormhole router; see module docstring for the cycle model."""

    __slots__ = (
        "node",
        "key",
        "cfg",
        "topo",
        "net",
        "input_vcs",
        "out_alloc",
        "credits",
        "links",
        "_credit_cap",
        "_va_rr",
        "_sa_rr",
        "_all_ivcs",
        "_buffered",
        "_waiting",
        "_arrivals",
        "_ready",
        "_routes",
        "_vcs",
        "flits_routed",
    )

    def __init__(
        self, node: int, cfg: NocConfig, topo: Topology, net: "ElectricalNetwork"
    ) -> None:
        self.node = node
        self.key = node                        # active-set key (NIs follow)
        self.cfg = cfg
        self.topo = topo
        self.net = net
        nports, nvcs = topo.num_ports, cfg.num_vcs
        self.input_vcs = [
            [InputVC(p, v) for v in range(nvcs)] for p in range(nports)
        ]
        # out_alloc[port][vc] -> (in_port, in_vc) currently owning that output VC
        self.out_alloc: list[list[Optional[tuple[int, int]]]] = [
            [None] * nvcs for _ in range(nports)
        ]
        # Full credit count of an output VC, per port.
        self._credit_cap = [cfg.vc_depth] * nports
        self._credit_cap[LOCAL] = EJECT_CREDITS
        self.credits = [[cap] * nvcs for cap in self._credit_cap]
        # links[port]: the far end of the link on that port — (router, the
        # port it sees this link on, link_flits key) — or (NI, None, None)
        # on LOCAL, None on a dead port.  Filled in by the network.
        self.links: list[Optional[tuple]] = [None] * nports
        self._va_rr = 0
        self._sa_rr = 0
        # Flattened, fixed slot order for the two arbitration walks.
        self._all_ivcs = [ivc for port_vcs in self.input_vcs for ivc in port_vcs]
        self._buffered = 0     # flits in all input buffers
        self._waiting = 0      # non-empty input VCs with out_vc is None
        self._arrivals: deque[int] = deque()   # ready times not yet come due
        self._ready = 0        # buffered flits that have cleared the pipeline
        self._routes: dict[int, int] = {}      # dst -> XY output port
        self._vcs = tuple(range(nvcs))         # VA's candidate order
        self.flits_routed = 0

    # ------------------------------------------------------------- routing
    def _route(self, dst: int) -> int:
        """Route computation: the XY output port toward ``dst``, resolved once."""
        port = self._routes.get(dst)
        if port is None:
            port = self._routes[dst] = route_port(self.topo, self.node, dst)
        return port

    # ----------------------------------------------------------- allocation
    def _try_vc_alloc(self, ivc: InputVC) -> bool:
        """Attempt VA for the packet at the head of ``ivc``."""
        if ivc.route_out is None:
            ivc.route_out = self._route(ivc.flits[0].packet.dst)
        out_port = ivc.route_out
        alloc, credits = self.out_alloc[out_port], self.credits[out_port]
        cap = self._credit_cap[out_port]
        for v in self._vcs:
            if alloc[v] is None and credits[v] == cap:
                alloc[v] = (ivc.port, ivc.vc)
                ivc.out_vc = v
                self._waiting -= 1
                return True
        return False

    # ------------------------------------------------------------ main loop
    def cycle(self, now: int) -> bool:
        """The clock edge at ``now``; returns True if work remains pending.

        Both walks follow the moving-pointer order of the module docstring.
        """
        if not self._buffered:
            return False
        arrivals = self._arrivals
        while arrivals and arrivals[0] <= now:
            arrivals.popleft()
            self._ready += 1
        ivcs = self._all_ivcs
        n = len(ivcs)

        # --- VC allocation -------------------------------------------------
        if self._waiting:
            rr = self._va_rr
            for i in range(n):
                ivc = ivcs[(rr + i) % n]
                if ivc.out_vc is None and ivc.flits and ivc.flits[0].is_head:
                    if self._try_vc_alloc(ivc):
                        rr = self._va_rr = (rr + i + 1) % n
                        if not self._waiting:
                            break

        # --- Switch allocation + traversal (gated on a ready flit) --------
        if not self._ready:
            return True
        used_in = used_out = 0      # bitmasks over input / output ports
        rr = self._sa_rr
        for i in range(n):
            ivc = ivcs[(rr + i) % n]
            out_vc = ivc.out_vc
            if out_vc is None or not ivc.flits:
                continue
            flit = ivc.flits[0]
            if flit.ready_time > now:
                continue
            out_port = ivc.route_out
            assert out_port is not None
            in_port = ivc.port
            if used_in >> in_port & 1 or used_out >> out_port & 1:
                continue
            credits = self.credits[out_port]
            if credits[out_vc] <= 0:
                continue
            if not used_in:     # the cycle's first grant moves the pointer
                rr = self._sa_rr = (rr + i + 1) % n
            used_in |= 1 << in_port
            used_out |= 1 << out_port

            # Grant: the flit leaves its buffer for the switch.
            ivc.flits.popleft()
            self._buffered -= 1
            self._ready -= 1
            credits[out_vc] -= 1
            self.flits_routed += 1
            if flit.is_tail:
                # Release the output VC; the input VC becomes ready for the
                # next packet's head, which may already be queued behind
                # this tail (the NI streams packets back to back into LOCAL).
                self.out_alloc[out_port][out_vc] = None
                ivc.route_out = ivc.out_vc = None
                if ivc.flits:
                    self._waiting += 1

            # Its transfers, in send order: the flit downstream (an ejected
            # one as the NI's own kernel event), then the credit upstream.
            net = self.net
            landing = net._landing
            link = self.links[out_port]
            if link is None:
                raise RuntimeError(f"router {self.node} routed out dead port "
                                   f"{out_port} — routing bug")
            far, far_port, key = link
            if key is None:
                net.sim.schedule(now + self.cfg.link_latency, far.flit_eject,
                                 (flit,), priority=PRIO_TRANSFER)
                # The NI sink always has room; recycle the ejection credit so
                # the LOCAL output VC can be atomically re-allocated.
                back = landing[now + self.cfg.credit_latency]
                back.append((self, LOCAL, out_vc, None))
            else:
                landing[now + self.cfg.link_latency].append(
                    (far, far_port, out_vc, flit))
                net.link_flits[key] = net.link_flits.get(key, 0) + 1
                back = landing[now + self.cfg.credit_latency]
            up, up_port, _ = self.links[in_port]
            back.append((up, up_port, ivc.vc, None))
            if not self._ready:     # the rest of the walk can grant nothing
                break

        return self._buffered > 0

    # ------------------------------------------------------------- queries
    def buffered_flits(self) -> int:
        """Total flits currently buffered (occupancy metric + test hook)."""
        return sum(len(ivc.flits) for ivc in self._all_ivcs)
