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

Deadlock freedom:

* mesh XY/YX — dimension-ordered, safe with any VC count;
* mesh adaptive — Duato: VCs >= 1 are fully adaptive (minimal), VC 0 is an
  escape channel restricted to the XY route;
* torus/ring — dateline: the VC space is split into two classes and a packet
  moves to class 1 when its path crosses a wrap-around link.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, TYPE_CHECKING

from repro.config import MESH, NocConfig, ROUTING_ADAPTIVE
from repro.noc.flit import Flit
from repro.noc.routing import crosses_dateline, productive_ports, route_port
from repro.noc.topology import LOCAL, Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.network import ElectricalNetwork

# Effectively infinite credit pool for the ejection (LOCAL output) port: the
# NI reassembly buffer always sinks flits at link rate.
EJECT_CREDITS = 1 << 30


class InputVC:
    """State of one (input port, VC) buffer."""

    __slots__ = ("port", "vc", "flits", "route_out", "out_vc")

    def __init__(self, port: int, vc: int) -> None:
        self.port = port
        self.vc = vc
        self.flits: deque[Flit] = deque()
        self.route_out: Optional[int] = None   # output port chosen by RC
        self.out_vc: Optional[int] = None      # output VC granted by VA

    def reset_packet_state(self) -> None:
        self.route_out = None
        self.out_vc = None


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
        "_credit_cap",
        "_va_rr",
        "_sa_rr",
        "_all_ivcs",
        "_buffered",
        "_waiting",
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
        self._va_rr = 0
        self._sa_rr = 0
        # Flattened, fixed slot order for the two arbitration walks.
        self._all_ivcs = [ivc for port_vcs in self.input_vcs for ivc in port_vcs]
        self._buffered = 0     # flits in all input buffers
        self._waiting = 0      # non-empty input VCs with out_vc is None
        self.flits_routed = 0

    # ------------------------------------------------------------ interface
    def flit_arrive(self, port: int, vc: int, flit: Flit) -> None:
        """A flit lands in input buffer (port, vc) as its link transfer lands."""
        ivc = self.input_vcs[port][vc]
        flits = ivc.flits
        if len(flits) >= self.cfg.vc_depth:
            raise RuntimeError(
                f"router {self.node} input ({port},{vc}) overflow — "
                "credit protocol violated"
            )
        flit.ready_time = self.net.sim.now + self.cfg.router_latency
        if not flits and ivc.out_vc is None:
            self._waiting += 1
        flits.append(flit)
        self._buffered += 1
        self.net.wake(self)

    def credit_arrive(self, port: int, vc: int) -> None:
        """A downstream buffer slot freed up on output (port, vc)."""
        credits = self.credits[port]
        credits[vc] += 1
        if credits[vc] > self._credit_cap[port]:
            raise RuntimeError(
                f"router {self.node} credit overflow on ({port},{vc})"
            )
        # A credit can only unblock a buffered flit.
        if self._buffered:
            self.net.wake(self)

    # ------------------------------------------------------------- VC rules
    def _vc_candidates(self, packet, out_port: int) -> list[int]:
        """Legal output VCs for ``packet`` leaving through ``out_port``."""
        nvcs = self.cfg.num_vcs
        if self.topo.kind != MESH:
            # Dateline classes: lower half = class 0, upper half = class 1.
            half = nvcs // 2
            cls = packet.vc_class or (
                1 if crosses_dateline(self.topo, self.node, out_port) else 0
            )
            return list(range(half, nvcs)) if cls else list(range(half))
        if self.cfg.routing == ROUTING_ADAPTIVE:
            escape = route_port(self.topo, self.cfg.routing, self.node, packet.dst)
            cands = list(range(1, nvcs))
            if out_port == escape:
                cands.append(0)
            return cands
        return list(range(nvcs))

    def _choose_route(self, ivc: InputVC, packet) -> int:
        """Route computation for the head flit of ``packet``."""
        if self.cfg.routing == ROUTING_ADAPTIVE and self.topo.kind == MESH:
            cands = productive_ports(self.topo, self.node, packet.dst)
            if not cands:
                return LOCAL
            if len(cands) == 1:
                return cands[0]
            # Pick the productive port with the most downstream credit on
            # adaptive VCs; ties break toward the lower port number.
            def credit_score(p: int) -> int:
                return sum(self.credits[p][1:])
            return max(cands, key=lambda p: (credit_score(p), -p))
        return route_port(self.topo, self.cfg.routing, self.node, packet.dst)

    # ----------------------------------------------------------- allocation
    def _try_vc_alloc(self, ivc: InputVC) -> bool:
        """Attempt VA for the packet at the head of ``ivc``."""
        head = ivc.flits[0]
        packet = head.packet
        if ivc.route_out is None:
            ivc.route_out = self._choose_route(ivc, packet)
        out_port = ivc.route_out
        for v in self._vc_candidates(packet, out_port):
            if (
                self.out_alloc[out_port][v] is None
                and self.credits[out_port][v] == self._credit_cap[out_port]
            ):
                self.out_alloc[out_port][v] = (ivc.port, ivc.vc)
                ivc.out_vc = v
                self._waiting -= 1
                return True
        # Adaptive fallback: if no adaptive VC anywhere, retry via escape
        # route next cycle by re-running route computation.
        if self.cfg.routing == ROUTING_ADAPTIVE and self.topo.kind == MESH:
            ivc.route_out = None
        return False

    # ------------------------------------------------------------ main loop
    def cycle(self) -> bool:
        """One clock edge; returns True if work remains pending.

        Both walks follow the moving-pointer order of the module docstring.
        """
        if not self._buffered:
            return False
        now = self.net.sim.now
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

        # --- Switch allocation + traversal --------------------------------
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
            if used_in >> ivc.port & 1 or used_out >> out_port & 1:
                continue
            if self.credits[out_port][out_vc] <= 0:
                continue
            self._traverse(ivc, flit, out_port, out_vc)
            if not used_in:     # the cycle's first grant moves the pointer
                rr = self._sa_rr = (rr + i + 1) % n
            used_in |= 1 << ivc.port
            used_out |= 1 << out_port

        return self._buffered > 0

    def _traverse(self, ivc: InputVC, flit: Flit, out_port: int, out_vc: int) -> None:
        """Move one granted flit through the switch onto the output link."""
        ivc.flits.popleft()
        self._buffered -= 1
        self.credits[out_port][out_vc] -= 1
        self.flits_routed += 1
        packet = flit.packet

        if flit.is_head and self.topo.kind != MESH:
            if crosses_dateline(self.topo, self.node, out_port):
                packet.vc_class = 1

        if flit.is_tail:
            # Release the output VC; the input VC becomes ready for the next
            # packet's head, which may already be queued behind this tail
            # (the NI streams packets back to back into LOCAL).
            self.out_alloc[out_port][out_vc] = None
            ivc.reset_packet_state()
            if ivc.flits:
                self._waiting += 1

        self.net.send_flit(self.node, out_port, out_vc, flit)
        self.net.return_credit(self.node, ivc.port, ivc.vc)

    # ------------------------------------------------------------- queries
    def buffered_flits(self) -> int:
        """Total flits currently buffered (occupancy metric + test hook)."""
        return sum(len(ivc.flits) for ivc in self._all_ivcs)
