"""Construction helpers shared by all experiments."""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.config import ExperimentConfig, NocConfig, OnocConfig, SystemConfig
from repro.core import Trace, TraceCapture
from repro.engine import Simulator
from repro.net import NetworkAdapter
from repro.noc import ElectricalNetwork
from repro.obs.probes import attach_kernel_probe
from repro.onoc import build_optical_network, topology_in_order_channels
from repro.system import FullSystem, SystemResult, build_workload

NetworkFactory = Callable[[], tuple[Simulator, NetworkAdapter]]


def backend_in_order_channels(name: str) -> bool:
    """Whether backend ``name`` ("electrical" or an optical topology)
    guarantees per-(src, dst) FIFO delivery.  Drives the strict form of the
    channel-monotonicity invariant in :mod:`repro.validate.invariants`."""
    if name == "electrical":
        return ElectricalNetwork.in_order_channels
    return topology_in_order_channels(name)

# Safety net for execution-driven runs; generously above any default-scale
# workload's real execution time.
MAX_EXEC_CYCLES = 50_000_000


def make_electrical(
    cfg: NocConfig, seed: int
) -> tuple[Simulator, ElectricalNetwork]:
    sim = Simulator(seed=seed)
    attach_kernel_probe(sim)        # no-op when obs is off
    return sim, ElectricalNetwork(sim, cfg)


def make_optical(cfg: OnocConfig, seed: int) -> tuple[Simulator, NetworkAdapter]:
    sim = Simulator(seed=seed)
    attach_kernel_probe(sim)
    return sim, build_optical_network(sim, cfg)


def electrical_factory(cfg: NocConfig, seed: int) -> NetworkFactory:
    """Factory of fresh (sim, electrical net) pairs — replay passes need a
    clean network per pass."""
    factory = lambda: make_electrical(cfg, seed)  # noqa: E731
    # The generational engine has no electrical model; replay_trace uses the
    # absence of an OnocConfig here to reject engine="generational" early.
    factory.onoc = None
    return factory


def optical_factory(cfg: OnocConfig, seed: int) -> NetworkFactory:
    """Factory of fresh (sim, optical net) pairs."""
    factory = lambda: make_optical(cfg, seed)  # noqa: E731
    # Advertise the target config so replay_trace(engine="generational") can
    # run the vectorized path without instantiating a live network.
    factory.onoc = cfg
    return factory


def experiment_from_params(
    cores: int = 16,
    seed: int = 7,
    wavelengths: int = 64,
    topology: Optional[str] = None,
    onoc: Optional[dict] = None,
    noc: Optional[dict] = None,
    system: Optional[dict] = None,
) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from flat scalar parameters.

    The shared front end for every declarative entry point — the CLI, the
    serve JSON operations, and :mod:`repro.exp` configs — so they all
    resolve the same parameters to the same (hence cache-key-identical)
    config.  The optional ``onoc`` / ``noc`` / ``system`` dicts override
    individual config fields and are validated by the config dataclasses
    themselves (a bad combination raises ``ConfigError``).
    """
    side = math.isqrt(cores)
    if side * side != cores:
        raise ValueError(f"cores must be a perfect square, got {cores}")
    onoc_kwargs: dict = {"num_nodes": cores, "num_wavelengths": wavelengths}
    if topology is not None:
        onoc_kwargs["topology"] = topology
    onoc_kwargs.update(onoc or {})
    noc_kwargs: dict = {"width": side, "height": side}
    noc_kwargs.update(noc or {})
    sys_kwargs: dict = {"num_cores": cores,
                        "num_mem_ctrls": max(1, cores // 4)}
    sys_kwargs.update(system or {})
    return ExperimentConfig(
        system=SystemConfig(**sys_kwargs),
        noc=NocConfig(**noc_kwargs),
        onoc=OnocConfig(**onoc_kwargs),
        seed=seed,
    )


def run_execution_driven(
    exp: ExperimentConfig,
    workload: str,
    target: str = "electrical",
    capture: bool = True,
    scale: float = 1.0,
) -> tuple[SystemResult, Optional[Trace], NetworkAdapter]:
    """Full-system run of ``workload`` on the chosen interconnect.

    ``target`` is ``"electrical"`` or ``"optical"``.  Returns the system
    result, the captured trace (None when ``capture=False``), and the network
    (for power accounting).
    """
    programs = build_workload(workload, exp.system.num_cores, exp.seed, scale)
    if target == "electrical":
        sim, net = make_electrical(exp.noc, exp.seed)
    elif target == "optical":
        sim, net = make_optical(exp.onoc, exp.seed)
    else:
        raise ValueError(f"target must be 'electrical' or 'optical', got {target!r}")
    cap = TraceCapture() if capture else None
    system = FullSystem(sim, exp.system, net, programs, capture=cap)
    result = system.run(max_cycles=MAX_EXEC_CYCLES)
    trace = None
    if cap is not None:
        trace = cap.finalize(meta={
            "workload": workload,
            "seed": exp.seed,
            "scale": scale,
            "capture_network": target,
            "num_cores": exp.system.num_cores,
        })
    return result, trace, net
