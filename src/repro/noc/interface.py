"""Network interface (NI): message <-> packet <-> flit boundary.

The NI owns the source queue (so message latency includes source queueing,
the standard convention for load-latency curves), serialises one packet at a
time at one flit/cycle into its router's LOCAL input port under credit flow
control, and reassembles ejected flits back into messages.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, TYPE_CHECKING

from repro.config import NocConfig
from repro.net import Message
from repro.noc.flit import Flit, Packet
from repro.noc.topology import LOCAL

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.network import ElectricalNetwork


class NetworkInterface:
    """Injection/ejection endpoint at one node."""

    __slots__ = (
        "node",
        "key",
        "cfg",
        "net",
        "queue",
        "_flits",
        "_flit_idx",
        "_vc",
        "_msg",
        "credits",
        "_rx_count",
        "packets_injected",
    )

    def __init__(self, node: int, cfg: NocConfig, net: "ElectricalNetwork") -> None:
        self.node = node
        self.key = cfg.num_nodes + node        # active-set key (after routers)
        self.cfg = cfg
        self.net = net
        self.queue: deque[Message] = deque()
        self._flits: Optional[list[Flit]] = None   # current packet's flit train
        self._flit_idx = 0
        self._vc: Optional[int] = None
        self._msg: Optional[Message] = None
        # Credits for the router's LOCAL input port, one counter per VC.
        self.credits = [cfg.vc_depth] * cfg.num_vcs
        self._rx_count: dict[int, int] = {}        # packet id -> flits received
        self.packets_injected = 0

    # -------------------------------------------------------------- inject
    def enqueue(self, msg: Message) -> None:
        """Queue a message for injection (called by the network adapter)."""
        self.queue.append(msg)
        self.net.wake(self)

    def cycle(self, now: int) -> bool:
        """Inject up to one flit at ``now``; True if injection work remains.

        The flit lands in the router's LOCAL input one link latency later;
        the router's credit for it lands in ``credits`` through the bucket.
        """
        if self._flits is None:
            if not self.queue:
                return False
            self._start_packet(self.queue.popleft(), now)
        assert self._flits is not None and self._vc is not None
        if self.credits[self._vc] > 0:
            flit = self._flits[self._flit_idx]
            self.credits[self._vc] -= 1
            self.net._landing[now + self.cfg.link_latency].append(
                (self.net.routers[self.node], LOCAL, self._vc, flit))
            self._flit_idx += 1
            if self._flit_idx == len(self._flits):
                self._flits = None
                self._vc = None
                self._msg = None
        return bool(self.queue) or self._flits is not None

    def _start_packet(self, msg: Message, now: int) -> None:
        num_flits = self.cfg.flits_for_bytes(msg.size_bytes)
        packet = Packet(msg.src, msg.dst, num_flits, message=msg)
        packet.inject_time = now
        self.net.stats.queueing_delay.add(now - msg.inject_time)
        self._flits = packet.make_flits()
        self._flit_idx = 0
        # Deepest-credit VC first; ties break toward the lowest VC index.
        self._vc = max(range(self.cfg.num_vcs), key=lambda v: (self.credits[v], -v))
        self._msg = msg
        self.packets_injected += 1

    # --------------------------------------------------------------- eject
    def flit_eject(self, flit: Flit) -> None:
        """An ejected flit arrives from the router's LOCAL output."""
        packet = flit.packet
        got = self._rx_count.get(packet.id, 0) + 1
        if flit.is_tail:
            if got != packet.num_flits:
                raise RuntimeError(
                    f"NI {self.node}: tail of packet {packet.id} after "
                    f"{got}/{packet.num_flits} flits — wormhole order broken"
                )
            self._rx_count.pop(packet.id, None)
            msg = packet.message
            if msg is not None:
                self.net.deliver(msg)
        else:
            self._rx_count[packet.id] = got

    # ------------------------------------------------------------- queries
    @property
    def backlog(self) -> int:
        """Messages queued + the partially-injected packet (if any)."""
        return len(self.queue) + (1 if self._flits is not None else 0)
