"""Network-agnostic message and adapter interfaces.

The full-system model and the trace replayers are written against this thin
interface so that the *same* workload can run unchanged over the electrical
baseline NoC (:class:`repro.noc.network.ElectricalNetwork`) or either optical
network (:mod:`repro.onoc`).  This mirrors the paper's methodology: the
full-system front end is fixed and the interconnect back end is swapped.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.config import flit_count
from repro.stats import NetworkStats

# Message kinds used by the coherence protocol and the replayers.
MSG_REQ_READ = "req_read"
MSG_REQ_WRITE = "req_write"
MSG_RESP_DATA = "resp_data"
MSG_INV = "inv"
MSG_INV_ACK = "inv_ack"
MSG_WRITEBACK = "writeback"
MSG_MEM_READ = "mem_read"
MSG_MEM_RESP = "mem_resp"
MSG_BARRIER_ARRIVE = "barrier_arrive"
MSG_BARRIER_RELEASE = "barrier_release"
MSG_SYNTHETIC = "synthetic"

_msg_ids = itertools.count()


class Message:
    """One end-to-end network message (a packet at the NI boundary).

    ``inject_time``/``deliver_time`` are stamped by the network adapter; the
    trace-capture layer reads them to build trace records.
    """

    __slots__ = (
        "id",
        "src",
        "dst",
        "size_bytes",
        "kind",
        "payload",
        "inject_time",
        "deliver_time",
        "on_delivery",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        size_bytes: int,
        kind: str = MSG_SYNTHETIC,
        payload: Any = None,
        on_delivery: Optional[Callable[["Message"], None]] = None,
        msg_id: Optional[int] = None,
    ) -> None:
        if src < 0 or dst < 0:
            raise ValueError(f"negative endpoint: src={src} dst={dst}")
        if size_bytes < 1:
            raise ValueError(f"size_bytes must be >= 1, got {size_bytes}")
        self.id = next(_msg_ids) if msg_id is None else msg_id
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.kind = kind
        self.payload = payload
        self.inject_time: int = -1
        self.deliver_time: int = -1
        self.on_delivery = on_delivery

    @property
    def latency(self) -> int:
        """End-to-end latency; valid only after delivery."""
        if self.deliver_time < 0 or self.inject_time < 0:
            raise ValueError(f"message {self.id} not delivered yet")
        return self.deliver_time - self.inject_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Message(id={self.id}, {self.src}->{self.dst}, "
            f"{self.size_bytes}B, kind={self.kind!r})"
        )


class NetworkBase:
    """The :class:`NetworkAdapter` plumbing every backend shares.

    The endpoint refusals, the inject and deliver stamps,
    :class:`~repro.stats.NetworkStats`, the obs probe and the
    ``on_delivery`` -> delivery-handler funnel exist here once.  A backend
    moves a validated, stamped message in :meth:`_inject` and hands it back
    to :meth:`_deliver` when it arrives.  ``flit_bytes`` sizes the
    ``flits_delivered`` count; ``probe`` names the ``net.<probe>`` obs scope
    (``None``: the backend publishes none).
    """

    #: Whether same-(src, dst) messages always deliver in injection order.
    in_order_channels = False

    def __init__(self, sim, num_nodes: int, flit_bytes: int,
                 probe: Optional[str] = None) -> None:
        # Imported here: modules that only name message kinds load no obs.
        from repro.obs.probes import net_probe

        self.sim = sim
        self.num_nodes = num_nodes
        self.flit_bytes = flit_bytes
        self.stats = NetworkStats()
        self._delivery_handler: Optional[Callable[[Message], None]] = None
        # None unless repro.obs instrumentation was enabled at build time.
        self._probe = None if probe is None else net_probe(probe)

    def send(self, msg: Message) -> None:
        """Inject ``msg`` at the current simulated time."""
        n = self.num_nodes
        if not (0 <= msg.src < n and 0 <= msg.dst < n):
            raise ValueError(f"message endpoints out of range: {msg}")
        if msg.src == msg.dst:
            raise ValueError(f"self-send not routed through the network: {msg}")
        now = msg.inject_time = self.sim.now
        self.stats.messages_sent += 1
        if self._probe is not None:
            self._probe.on_inject(now, msg)
        self._inject(msg)

    def set_delivery_handler(self, fn: Callable[[Message], None]) -> None:
        """Register a global callback invoked at each delivery (after the
        message's own ``on_delivery``)."""
        self._delivery_handler = fn

    def _inject(self, msg: Message) -> None:
        """Start moving a validated, stamped message."""
        raise NotImplementedError

    def _count_delivery(self, msg: Message, hops: int) -> None:
        st = self.stats
        st.messages_delivered += 1
        st.bytes_delivered += msg.size_bytes
        st.flits_delivered += flit_count(msg.size_bytes, self.flit_bytes)
        st.latency.record(msg.id, msg.deliver_time - msg.inject_time)
        st.hop_count.add(hops)

    def _deliver(self, msg: Message, hops: int = 1) -> None:
        """``msg`` arrived after ``hops`` network hops: stamp, count, notify."""
        now = msg.deliver_time = self.sim.now
        self._count_delivery(msg, hops)
        if self._probe is not None:
            self._probe.on_deliver(now, msg)
        if msg.on_delivery is not None:
            msg.on_delivery(msg)
        if self._delivery_handler is not None:
            self._delivery_handler(msg)


@runtime_checkable
class NetworkAdapter(Protocol):
    """What the system model / replayers require of an interconnect."""

    stats: NetworkStats

    def send(self, msg: Message) -> None:
        """Inject ``msg`` at the current simulated time."""
        ...

    def set_delivery_handler(
        self, fn: Callable[[Message], None]
    ) -> None:
        """Register a global callback invoked at each delivery (after the
        message's own ``on_delivery``)."""
        ...

    @property
    def num_nodes(self) -> int:
        """Number of attached endpoints."""
        ...
