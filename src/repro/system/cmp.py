"""FullSystem: wires cores, caches, directory slices, memory controllers and
the barrier coordinator onto an interconnect.

The interconnect is any :class:`repro.net.NetworkAdapter`; same-node protocol
messages bypass it through a 1-cycle local path (an L1 talking to the L2
slice on its own tile does not cross the network).  An optional trace-capture
object observes every *network* message send and each core's completion —
that is the entire coupling between the full-system front end and the trace
model, mirroring the paper's architecture.
"""

from __future__ import annotations

import time as _walltime
from dataclasses import dataclass, field
from typing import Optional, Protocol

from repro.config import SystemConfig
from repro.engine import Simulator
from repro.net import (
    MSG_BARRIER_ARRIVE,
    MSG_BARRIER_RELEASE,
    MSG_INV,
    MSG_INV_ACK,
    MSG_MEM_READ,
    MSG_MEM_RESP,
    MSG_REQ_READ,
    MSG_REQ_WRITE,
    MSG_RESP_DATA,
    MSG_WRITEBACK,
    Message,
    NetworkAdapter,
)
from repro.system.barrier import BarrierCoordinator
from repro.system.core import Core
from repro.system.directory import HomeSlice
from repro.system.l1 import L1Controller
from repro.system.memctrl import MemController
from repro.system.ops import Program, check_barrier_consistency
from repro.system.protocol import (
    MSG_FETCH,
    MSG_FETCH_INV,
    ProtPayload,
    derive_cause,
    message_size,
)

LOCAL_DELIVERY_LATENCY = 1

_L1_KINDS = frozenset({MSG_RESP_DATA, MSG_INV, MSG_FETCH, MSG_FETCH_INV})
_HOME_KINDS = frozenset({MSG_REQ_READ, MSG_REQ_WRITE, MSG_INV_ACK,
                         MSG_WRITEBACK, MSG_MEM_RESP})


class CaptureHook(Protocol):
    """What FullSystem needs from a trace-capture object."""

    def on_network_send(self, msg: Message) -> None: ...

    def on_core_finish(self, node: int, finish_time: int,
                       cause: Optional[Message]) -> None: ...


@dataclass
class SystemResult:
    """Outcome of one execution-driven run."""

    exec_time_cycles: int
    per_core_finish: list[int]
    wall_clock_s: float
    l1_hits: int
    l1_misses: int
    mem_reads: int
    barriers: int
    messages: int
    avg_network_latency: float
    extra: dict = field(default_factory=dict)


class FullSystem:
    """Execution-driven CMP simulation over a pluggable interconnect."""

    def __init__(
        self,
        sim: Simulator,
        cfg: SystemConfig,
        network: NetworkAdapter,
        programs: list[Program],
        capture: Optional[CaptureHook] = None,
    ) -> None:
        if len(programs) != cfg.num_cores:
            raise ValueError(
                f"{len(programs)} programs for {cfg.num_cores} cores"
            )
        if network.num_nodes != cfg.num_cores:
            raise ValueError(
                f"network has {network.num_nodes} nodes for {cfg.num_cores} cores"
            )
        check_barrier_consistency(programs)
        self.sim = sim
        self.cfg = cfg
        self.network = network
        self.capture = capture
        self.l1s = [L1Controller(n, self) for n in range(cfg.num_cores)]
        self.homes = [HomeSlice(n, self) for n in range(cfg.num_cores)]
        self.cores = [Core(n, self, p) for n, p in enumerate(programs)]
        self.barrier = BarrierCoordinator(self)
        # Memory controllers at evenly spaced nodes.
        step = cfg.num_cores / cfg.num_mem_ctrls
        self.memctrl_nodes = sorted({int(i * step) for i in range(cfg.num_mem_ctrls)})
        self.memctrls = {n: MemController(n, self) for n in self.memctrl_nodes}
        self._finished = 0
        network.set_delivery_handler(self._dispatch)

    # ----------------------------------------------------------- placement
    def home_of(self, line: int) -> int:
        """Home node of a line (address-interleaved S-NUCA)."""
        return line % self.cfg.num_cores

    def memctrl_of(self, line: int) -> int:
        """Memory-controller node serving a line."""
        return self.memctrl_nodes[line % len(self.memctrl_nodes)]

    # ------------------------------------------------------------- sending
    def send_protocol(self, src: int, dst: int, kind: str,
                      payload: ProtPayload) -> None:
        """Send a protocol message, normalising its causal trigger."""
        payload.cause = derive_cause(payload.cause)
        msg = Message(src, dst, message_size(self.cfg, kind), kind, payload)
        if src == dst:
            payload.local = True
            msg.inject_time = self.sim.now
            self.sim.schedule_after(
                LOCAL_DELIVERY_LATENCY, self._deliver_local, (msg,)
            )
        else:
            self.network.send(msg)
            if self.capture is not None:
                self.capture.on_network_send(msg)

    def _deliver_local(self, msg: Message) -> None:
        msg.deliver_time = self.sim.now
        self._dispatch(msg)

    # ------------------------------------------------------------ dispatch
    def _dispatch(self, msg: Message) -> None:
        kind = msg.kind
        if kind in _L1_KINDS:
            self.l1s[msg.dst].handle(msg)
        elif kind in _HOME_KINDS:
            self.homes[msg.dst].handle(msg)
        elif kind == MSG_MEM_READ:
            ctrl = self.memctrls.get(msg.dst)
            if ctrl is None:
                raise RuntimeError(f"MEM_READ to non-controller node {msg.dst}")
            ctrl.handle(msg)
        elif kind == MSG_BARRIER_ARRIVE:
            self.barrier.handle(msg)
        elif kind == MSG_BARRIER_RELEASE:
            self.cores[msg.dst].handle(msg)
        else:
            raise ValueError(f"undispatchable message kind {kind!r}")

    # ------------------------------------------------------------- running
    def on_core_finished(self, core: Core) -> None:
        self._finished += 1
        if self.capture is not None:
            self.capture.on_core_finish(
                core.node, self.sim.now, core.last_cause
            )

    def run(self, max_cycles: Optional[int] = None) -> SystemResult:
        """Run to completion; raises on deadlock/timeout with diagnostics."""
        t0 = _walltime.perf_counter()
        for core in self.cores:
            core.start()
        self.sim.run(until=max_cycles)
        wall = _walltime.perf_counter() - t0
        if self._finished != self.cfg.num_cores:
            stuck = [c.node for c in self.cores if not c.finished]
            busy = {h.node: h.busy_lines() for h in self.homes if h.txns}
            raise RuntimeError(
                f"system did not finish: cores stuck {stuck}, "
                f"busy home lines {busy}, pending barriers "
                f"{self.barrier.pending}, t={self.sim.now}"
            )
        finishes = [c.finish_time for c in self.cores]
        assert all(f is not None for f in finishes)
        return SystemResult(
            exec_time_cycles=max(finishes),          # type: ignore[arg-type]
            per_core_finish=finishes,                # type: ignore[arg-type]
            wall_clock_s=wall,
            l1_hits=sum(l1.cache.hits for l1 in self.l1s),
            l1_misses=sum(l1.cache.misses for l1 in self.l1s),
            mem_reads=sum(h.mem_reads for h in self.homes),
            barriers=self.barrier.barriers_completed,
            messages=self.network.stats.messages_delivered,
            avg_network_latency=self.network.stats.latency.mean,
        )
