"""Per-run statistics containers shared by both network simulators."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.stats.online import OnlineStats


class LatencyRecorder:
    """Records end-to-end message latency samples (count, mean, spread)."""

    __slots__ = ("stats",)

    def __init__(self) -> None:
        self.stats = OnlineStats()

    def record(self, msg_id: int, latency: int) -> None:
        """Record one delivered message's end-to-end latency (cycles)."""
        if latency < 0:
            raise ValueError(f"negative latency {latency} for message {msg_id}")
        self.stats.add(latency)

    @property
    def mean(self) -> float:
        return self.stats.mean

    @property
    def count(self) -> int:
        return self.stats.count


@dataclass
class NetworkStats:
    """Aggregate network-level counters for one simulation run."""

    messages_sent: int = 0
    messages_delivered: int = 0
    flits_delivered: int = 0
    bytes_delivered: int = 0
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    # per-hop / arbitration detail
    hop_count: OnlineStats = field(default_factory=OnlineStats)
    queueing_delay: OnlineStats = field(default_factory=OnlineStats)

    def in_flight(self) -> int:
        """Messages injected but not yet delivered."""
        return self.messages_sent - self.messages_delivered


@dataclass
class RunSummary:
    """Top-level result of one full simulation run."""

    label: str
    exec_time_cycles: int
    wall_clock_s: float
    network: NetworkStats
    extra: dict = field(default_factory=dict)

    def as_row(self) -> dict:
        """Flat dict suitable for table printing."""
        return {
            "label": self.label,
            "exec_time_cycles": self.exec_time_cycles,
            "wall_clock_s": round(self.wall_clock_s, 3),
            "messages": self.network.messages_delivered,
            "avg_latency": round(self.network.latency.mean, 2),
            **self.extra,
        }
