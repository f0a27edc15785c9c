"""Validated configuration dataclasses for every subsystem.

All experiment knobs live here so that a run is fully described by
``(config, seed)``.  Each config validates itself in ``__post_init__`` and
raises ``ConfigError`` with a precise message on bad input — simulator
components can then assume their config is consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any


class ConfigError(ValueError):
    """Raised when a configuration is inconsistent or out of range."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


# --------------------------------------------------------------------------
# Electrical NoC (the baseline simulator)
# --------------------------------------------------------------------------

MESH = "mesh"
ROUTING_XY = "xy"


@dataclass(frozen=True)
class NocConfig:
    """Cycle-level electrical wormhole NoC configuration.

    Defaults model the 2012-era baseline: a 4x4 mesh of 5-port
    input-queued wormhole routers, 2 VCs x 4-flit buffers, 16-byte flits,
    3-cycle router pipeline, 1-cycle links.  ``topology`` and ``routing``
    each have one legal value (the XY-wormhole mesh); they stay fields
    because every cache key encodes them.
    """

    topology: str = MESH
    width: int = 4
    height: int = 4
    num_vcs: int = 2
    vc_depth: int = 4
    flit_bytes: int = 16
    router_latency: int = 3
    link_latency: int = 1
    credit_latency: int = 1
    routing: str = ROUTING_XY
    clock_ghz: float = 2.0

    def __post_init__(self) -> None:
        _require(self.topology == MESH and self.routing == ROUTING_XY,
                 f"unsupported topology/routing {self.topology!r}/{self.routing!r}; "
                 f"the electrical NoC is the XY-wormhole mesh "
                 f"({MESH!r}/{ROUTING_XY!r})")
        _require(self.width >= 1 and self.height >= 1,
                 f"width/height must be >= 1, got {self.width}x{self.height}")
        _require(self.num_vcs >= 1, f"num_vcs must be >= 1, got {self.num_vcs}")
        _require(self.vc_depth >= 1, f"vc_depth must be >= 1, got {self.vc_depth}")
        _require(self.flit_bytes >= 1, f"flit_bytes must be >= 1, got {self.flit_bytes}")
        _require(self.router_latency >= 1, f"router_latency must be >= 1, got {self.router_latency}")
        _require(self.link_latency >= 1, f"link_latency must be >= 1, got {self.link_latency}")
        _require(self.credit_latency >= 1, f"credit_latency must be >= 1, got {self.credit_latency}")
        _require(self.clock_ghz > 0, f"clock_ghz must be > 0, got {self.clock_ghz}")

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def flits_for_bytes(self, size_bytes: int) -> int:
        """Number of flits a payload of ``size_bytes`` occupies (>= 1)."""
        return flit_count(size_bytes, self.flit_bytes)


def flit_count(size_bytes: int, flit_bytes: int) -> int:
    """``ceil(size_bytes / flit_bytes)``, at least 1, in integer arithmetic
    (a float quotient rounds from 2**53 bytes on): the one flit-count rule."""
    return max(1, -(-size_bytes // flit_bytes))


# --------------------------------------------------------------------------
# Optical NoC
# --------------------------------------------------------------------------

ONOC_CROSSBAR = "crossbar"          # Corona-style MWSR, token arbitration
ONOC_CIRCUIT_MESH = "circuit_mesh"  # circuit-switched, electrical control plane
ONOC_SWMR = "swmr_crossbar"         # Firefly-style SWMR, no write arbitration
ONOC_AWGR = "awgr"                  # passive wavelength-routed all-to-all
ONOC_TOPOLOGIES = (ONOC_CROSSBAR, ONOC_CIRCUIT_MESH, ONOC_SWMR, ONOC_AWGR)


@dataclass(frozen=True)
class PhotonicDeviceConfig:
    """Physical-layer constants (2012-era published defaults).

    Losses in dB, power in mW, distances in cm. Used by the loss-budget and
    laser-power models; changing them changes power numbers, not timing.
    """

    waveguide_loss_db_cm: float = 1.0
    coupler_loss_db: float = 1.0
    splitter_loss_db: float = 0.2
    ring_through_loss_db: float = 0.01
    ring_drop_loss_db: float = 0.5
    bend_loss_db: float = 0.005
    photodetector_loss_db: float = 0.1
    detector_sensitivity_dbm: float = -20.0
    power_margin_db: float = 3.0
    laser_efficiency: float = 0.3          # wall-plug
    ring_tuning_uw: float = 20.0           # static heater power per ring
    modulation_pj_bit: float = 0.05
    detection_pj_bit: float = 0.05
    group_velocity_cm_ns: float = 15.0     # ~c / n_g with n_g ~ 2

    def __post_init__(self) -> None:
        for name in ("waveguide_loss_db_cm", "coupler_loss_db", "splitter_loss_db",
                     "ring_through_loss_db", "ring_drop_loss_db", "bend_loss_db",
                     "photodetector_loss_db", "power_margin_db", "ring_tuning_uw",
                     "modulation_pj_bit", "detection_pj_bit"):
            _require(getattr(self, name) >= 0, f"{name} must be >= 0")
        _require(0 < self.laser_efficiency <= 1,
                 f"laser_efficiency must be in (0, 1], got {self.laser_efficiency}")
        _require(self.group_velocity_cm_ns > 0, "group_velocity_cm_ns must be > 0")


@dataclass(frozen=True)
class OnocConfig:
    """Optical NoC configuration.

    ``num_nodes`` optical endpoints; each data channel carries
    ``num_wavelengths`` WDM wavelengths at ``bitrate_gbps`` each.  The network
    clock is shared with the electrical simulator (``clock_ghz``) so latencies
    are comparable cycle-for-cycle.
    """

    topology: str = ONOC_CROSSBAR
    num_nodes: int = 16
    num_wavelengths: int = 64
    bitrate_gbps: float = 10.0
    clock_ghz: float = 2.0
    # Crossbar (MWSR + token) parameters.  The token is optical: its travel
    # time is dominated by waveguide propagation (computed from the layout);
    # this knob adds optional *electrical* per-node overhead (e.g. token
    # regeneration logic) on top.  0 = pure optical circulation (Corona).
    token_hop_cycles: int = 0
    # Circuit-switched mesh parameters
    setup_router_latency: int = 2      # control-plane per-hop setup latency (cycles)
    setup_link_latency: int = 1
    teardown_latency: int = 1
    # Physical floorplan
    chip_width_cm: float = 2.0
    chip_height_cm: float = 2.0
    devices: PhotonicDeviceConfig = field(default_factory=PhotonicDeviceConfig)
    # O/E + E/O conversion latency at the endpoints (cycles)
    conversion_cycles: int = 1

    def __post_init__(self) -> None:
        _require(self.topology in ONOC_TOPOLOGIES,
                 f"unknown optical topology {self.topology!r}; expected one of {ONOC_TOPOLOGIES}")
        _require(self.num_nodes >= 2, f"num_nodes must be >= 2, got {self.num_nodes}")
        _require(self.num_wavelengths >= 1,
                 f"num_wavelengths must be >= 1, got {self.num_wavelengths}")
        _require(self.bitrate_gbps > 0, f"bitrate_gbps must be > 0, got {self.bitrate_gbps}")
        _require(self.clock_ghz > 0, f"clock_ghz must be > 0, got {self.clock_ghz}")
        _require(self.token_hop_cycles >= 0, "token_hop_cycles must be >= 0")
        _require(self.setup_router_latency >= 1, "setup_router_latency must be >= 1")
        _require(self.setup_link_latency >= 1, "setup_link_latency must be >= 1")
        _require(self.teardown_latency >= 0, "teardown_latency must be >= 0")
        _require(self.chip_width_cm > 0 and self.chip_height_cm > 0,
                 "chip dimensions must be > 0")
        _require(self.conversion_cycles >= 0, "conversion_cycles must be >= 0")
        if self.topology == ONOC_CIRCUIT_MESH:
            side = int(round(math.sqrt(self.num_nodes)))
            _require(side * side == self.num_nodes,
                     f"circuit_mesh requires a square node count, got {self.num_nodes}")
        if self.topology == ONOC_AWGR:
            _require(self.num_wavelengths >= self.num_nodes - 1,
                     f"awgr needs >= num_nodes-1 wavelengths "
                     f"({self.num_nodes - 1}), got {self.num_wavelengths}")

    @property
    def mesh_side(self) -> int:
        """Side length for circuit_mesh layouts."""
        return int(round(math.sqrt(self.num_nodes)))

    @property
    def channel_gbps(self) -> float:
        """Aggregate per-channel bandwidth across all wavelengths."""
        return self.num_wavelengths * self.bitrate_gbps

    def serialization_cycles(self, size_bytes: int) -> int:
        """Cycles to serialize ``size_bytes`` onto one WDM channel (>= 1)."""
        bits = size_bytes * 8
        ns = bits / self.channel_gbps          # Gbps == bits/ns
        return max(1, math.ceil(ns * self.clock_ghz))

    def propagation_cycles(self, distance_cm: float) -> int:
        """Cycles for light to traverse ``distance_cm`` of waveguide."""
        ns = distance_cm / self.devices.group_velocity_cm_ns
        return max(1, math.ceil(ns * self.clock_ghz))


# --------------------------------------------------------------------------
# Full-system CMP substrate
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CacheConfig:
    """One cache level (sizes in bytes)."""

    size_bytes: int = 32 * 1024
    assoc: int = 4
    line_bytes: int = 64
    hit_latency: int = 2

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "size_bytes must be > 0")
        _require(self.assoc >= 1, "assoc must be >= 1")
        _require(self.line_bytes >= 1 and (self.line_bytes & (self.line_bytes - 1)) == 0,
                 f"line_bytes must be a power of two, got {self.line_bytes}")
        _require(self.size_bytes % (self.assoc * self.line_bytes) == 0,
                 "size must be divisible by assoc * line_bytes")
        _require(self.hit_latency >= 0, "hit_latency must be >= 0")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass(frozen=True)
class SystemConfig:
    """Chip multiprocessor model: cores + caches + directory + memory."""

    num_cores: int = 16
    l1: CacheConfig = field(default_factory=CacheConfig)
    l2_slice: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=256 * 1024, assoc=8, hit_latency=8)
    )
    mem_latency: int = 100
    num_mem_ctrls: int = 4
    # Message sizes (bytes): control and data (control + one cache line)
    ctrl_msg_bytes: int = 8
    data_msg_bytes: int = 72

    def __post_init__(self) -> None:
        _require(self.num_cores >= 1, f"num_cores must be >= 1, got {self.num_cores}")
        _require(self.mem_latency >= 1, "mem_latency must be >= 1")
        _require(self.num_mem_ctrls >= 1, "num_mem_ctrls must be >= 1")
        _require(self.num_mem_ctrls <= self.num_cores,
                 "num_mem_ctrls cannot exceed num_cores (controllers live at nodes)")
        _require(self.l1.line_bytes == self.l2_slice.line_bytes,
                 "L1 and L2 line sizes must match")
        _require(self.ctrl_msg_bytes >= 1, "ctrl_msg_bytes must be >= 1")
        _require(self.data_msg_bytes > self.ctrl_msg_bytes,
                 "data messages must be larger than control messages")


# --------------------------------------------------------------------------
# Trace model (the paper's contribution)
# --------------------------------------------------------------------------

TRACE_NAIVE = "naive"
TRACE_SELF_CORRECTING = "self_correcting"
TRACE_MODES = (TRACE_NAIVE, TRACE_SELF_CORRECTING)

# How the self-correcting replayer schedules *degraded* records — records
# whose dependency information is unusable (ablated by ``keep_dep_fraction``,
# stripped by a trace fault, or referencing msg_ids missing from the trace):
#
# * ``captured``      — fall back to the captured absolute timestamp (and
#   stall on missing triggers).  This re-anchors the schedule to the capture
#   network's timing and collapses accuracy toward naive replay at the first
#   dropped edge — kept as the historical baseline.
# * ``neighbor_gap``  — re-derive the dispatch gap from the nearest earlier
#   record on the same source node: the record injects at that neighbor's
#   *replayed* injection time plus the captured inter-send delta, keeping it
#   anchored to the node's corrected local timeline.
GAP_POLICY_CAPTURED = "captured"
GAP_POLICY_NEIGHBOR = "neighbor_gap"
GAP_POLICIES = (GAP_POLICY_CAPTURED, GAP_POLICY_NEIGHBOR)

# Which replay implementation executes the trace:
#
# * ``event``        — the reference discrete-event replayers
#   (:mod:`repro.core.replay`): one simulator event per message hop, works
#   against any backend including the electrical mesh, and is the only
#   engine for network-in-the-loop experiments.
# * ``generational`` — the vectorized engine (:mod:`repro.core.generational`):
#   solves the dependency DAG in one exact windowed sweep of NumPy array
#   batches against a closed-form FIFO model of the optical backends.  The
#   timing arithmetic (:mod:`repro.onoc.timing`) and the dependency plan
#   (:mod:`repro.core.plan` — which records are roots, dependents or
#   anchored) are shared with the event engine; only scheduling differs.
#   Orders of magnitude fewer Python dispatches; optical targets only, where
#   it accepts every ``TraceConfig`` the event engine does.  Its equivalence
#   contract with the event engine is specified in ``docs/TRACE_FORMAT.md``
#   and enforced by :mod:`repro.validate.engines`.
ENGINE_EVENT = "event"
ENGINE_GENERATIONAL = "generational"
REPLAY_ENGINES = (ENGINE_EVENT, ENGINE_GENERATIONAL)

# Mitigation policies for time-varying network degradation
# (:mod:`repro.resilience`).  Defined here — the bottom of the import
# graph — so ``TraceConfig`` can validate without importing the resilience
# package; :mod:`repro.resilience.policies` re-exports them with the
# policy semantics documented alongside the implementations.
MITIGATION_NONE = "none"
MITIGATION_DISABLE = "disable"
MITIGATION_REALLOCATE = "reallocate"
MITIGATIONS = (MITIGATION_NONE, MITIGATION_DISABLE, MITIGATION_REALLOCATE)


@dataclass(frozen=True)
class TraceConfig:
    """Replay behaviour of the trace model."""

    mode: str = TRACE_SELF_CORRECTING
    keep_dep_fraction: float = 1.0     # ablation: fraction of dependency edges kept
    dep_drop_seed: int = 12345
    degraded_gap_policy: str = GAP_POLICY_NEIGHBOR
    engine: str = ENGINE_EVENT
    # Time-varying degradation (repro.resilience): the fault timeseries as
    # plain (time, target, severity) tuples — empty means the stock,
    # byte-identical replay path — and the mitigation policy applied to it.
    fault_events: tuple = ()
    mitigation: str = MITIGATION_NONE

    def __post_init__(self) -> None:
        _require(self.mode in TRACE_MODES,
                 f"unknown trace mode {self.mode!r}; expected one of {TRACE_MODES}")
        _require(self.engine in REPLAY_ENGINES,
                 f"unknown replay engine {self.engine!r}; "
                 f"expected one of {REPLAY_ENGINES}")
        _require(0.0 <= self.keep_dep_fraction <= 1.0,
                 f"keep_dep_fraction must be in [0, 1], got {self.keep_dep_fraction}")
        _require(self.degraded_gap_policy in GAP_POLICIES,
                 f"unknown degraded_gap_policy {self.degraded_gap_policy!r}; "
                 f"expected one of {GAP_POLICIES}")
        # Normalize fault events to hashable plain tuples; full schema
        # validation happens when the resilience overlay parses them.
        events = tuple(
            (int(t), str(target), float(sev))
            for t, target, sev in self.fault_events)
        for t, _, sev in events:
            _require(t >= 0, f"fault event time must be >= 0, got {t}")
            _require(0.0 <= sev <= 1.0,
                     f"fault severity must be in [0, 1], got {sev}")
        object.__setattr__(self, "fault_events", events)
        _require(self.mitigation in MITIGATIONS,
                 f"unknown mitigation {self.mitigation!r}; "
                 f"expected one of {MITIGATIONS}")


# --------------------------------------------------------------------------
# Top-level experiment bundle
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one experiment: system + both networks (a
    replay takes its :class:`TraceConfig` as an argument)."""

    system: SystemConfig = field(default_factory=SystemConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    onoc: OnocConfig = field(default_factory=OnocConfig)
    seed: int = 42

    def __post_init__(self) -> None:
        _require(self.seed >= 0, "seed must be >= 0")
        _require(self.system.num_cores == self.noc.num_nodes,
                 f"system has {self.system.num_cores} cores but electrical NoC has "
                 f"{self.noc.num_nodes} nodes")
        _require(self.system.num_cores == self.onoc.num_nodes,
                 f"system has {self.system.num_cores} cores but optical NoC has "
                 f"{self.onoc.num_nodes} nodes")

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed)


def default_16core_config(**overrides: Any) -> ExperimentConfig:
    """The paper-style default: 16-core CMP, 4x4 electrical mesh baseline,
    16-node optical crossbar target."""
    base = ExperimentConfig()
    return replace(base, **overrides) if overrides else base
