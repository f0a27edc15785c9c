"""Offline iterative self-correction (fixed-point refinement).

When the replayer cannot be coupled to the network simulator (the situation
that motivates an *offline* trace flow), self-correction can still be applied
iteratively:

    pass 0: replay the captured schedule unchanged (== naive replay);
    pass k+1: measure each message's latency in pass k, then rebuild the
              *entire timeline transitively* in causal order —
              ``inject(m) = deliver'(cause) + gap`` with
              ``deliver'(m) = inject(m) + latency_k(m)`` — and replay the
              new fixed schedule on a fresh network;
    stop when the predicted execution time changes by < tol.

    The transitive rebuild is what makes the iteration useful: corrections
    propagate through the whole dependency DAG in one pass, and subsequent
    passes only chase second-order congestion shifts (latencies measured
    under the old schedule vs. the corrected one).

The fixed point of this map coincides with the online
:class:`~repro.core.replay.SelfCorrectingReplayer` timeline whenever network
latencies are injection-time-monotone; the convergence history itself is the
paper-style "self-correction converges quickly" figure (Fig. 6).
"""

from __future__ import annotations

import time as _walltime
from dataclasses import dataclass

from repro.core.replay import (
    FixedScheduleReplayer,
    NetworkFactory,
    ReplayResult,
)
from repro.core.trace import Trace


@dataclass(frozen=True)
class IterationInfo:
    """One refinement pass."""

    iteration: int
    exec_time_estimate: int
    rel_change: float           # |est_k - est_{k-1}| / est_{k-1}; inf for k=0
    wall_clock_s: float


class IterativeRefiner:
    """Runs the fixed-point loop; see module docstring."""

    def __init__(
        self,
        trace: Trace,
        network_factory: NetworkFactory,
        max_iterations: int = 5,
        convergence_tol: float = 1e-3,
        damping: float = 0.5,
    ) -> None:
        """``damping`` blends each rebuilt schedule with the previous one
        (``t' = damping * t_new + (1 - damping) * t_old``).  1.0 is the pure
        update; barrier-heavy traces can oscillate undamped (a compressed
        schedule congests the network, stretching the next rebuild, and so
        on), so the default keeps a 0.5 step."""
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if convergence_tol <= 0:
            raise ValueError("convergence_tol must be > 0")
        if not 0.0 < damping <= 1.0:
            raise ValueError(f"damping must be in (0, 1], got {damping}")
        self.trace = trace
        self.network_factory = network_factory
        self.max_iterations = max_iterations
        self.convergence_tol = convergence_tol
        self.damping = damping
        self.history: list[IterationInfo] = []

    def _next_schedule(self, prev: ReplayResult) -> dict[int, int]:
        """Rebuild the full timeline from the previous pass's latencies.

        Records are walked in :meth:`Trace.causal_order` — every cause
        before its dependents, even where a zero-latency cause ties with a
        dependent's delivery and sorts after it — so corrected times
        propagate through arbitrarily deep chains in a single rebuild.
        """
        lat = {
            mid: prev.deliveries[mid] - prev.injections[mid]
            for mid in prev.deliveries
            if mid in prev.injections
        }
        schedule: dict[int, int] = {}
        deliver_new: dict[int, int] = {}
        for r in self.trace.causal_order():
            # A root, or a cause missing from the trace: the captured time.
            d = deliver_new.get(r.cause_id)
            inject = r.t_inject if d is None else d + r.gap
            schedule[r.msg_id] = inject
            deliver_new[r.msg_id] = inject + lat.get(r.msg_id, r.latency)
        return schedule

    def run(self) -> ReplayResult:
        """Iterate to convergence; returns the final pass's result with the
        convergence history attached in ``extra['history']``."""
        schedule = {r.msg_id: r.t_inject for r in self.trace.records}
        prev_estimate: int | None = None
        result: ReplayResult | None = None
        self.history = []
        for k in range(self.max_iterations):
            t0 = _walltime.perf_counter()
            sim, net = self.network_factory()
            result = FixedScheduleReplayer(
                self.trace, sim, net, schedule, mode="fixed_schedule").run()
            wall = _walltime.perf_counter() - t0
            est = result.exec_time_estimate
            rel = (
                float("inf") if prev_estimate is None or prev_estimate == 0
                else abs(est - prev_estimate) / prev_estimate
            )
            self.history.append(IterationInfo(k, est, rel, wall))
            if rel <= self.convergence_tol:
                break
            prev_estimate = est
            rebuilt = self._next_schedule(result)
            if self.damping >= 1.0:
                schedule = rebuilt
            else:
                a = self.damping
                schedule = {
                    mid: int(round(a * rebuilt[mid] + (1.0 - a) * schedule[mid]))
                    for mid in rebuilt
                }
        assert result is not None
        result.extra["history"] = self.history
        result.extra["iterations"] = len(self.history)
        result.mode = "iterative_self_correcting"
        return result
