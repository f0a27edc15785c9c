"""repro — Self-Correction Trace Model: A Full-System Simulator for ONOC.

Reproduction of Zhang, He & Fan, IPDPSW 2012 (see DESIGN.md for scope and
the source-text caveat).  Public API tour:

>>> from repro import (
...     default_16core_config, run_execution_driven, replay_trace, TraceConfig,
... )
>>> exp = default_16core_config()
>>> _, trace, _ = run_execution_driven(exp, "fft", "electrical")  # capture
>>> # ... replay `trace` on the optical network, self-correcting:
>>> from repro.harness import optical_factory
>>> result = replay_trace(trace, optical_factory(exp.onoc, exp.seed),
...                       TraceConfig(mode="self_correcting"))

Layers (bottom-up): :mod:`repro.engine` (event kernel), :mod:`repro.noc`
(electrical baseline), :mod:`repro.onoc` (optical networks),
:mod:`repro.system` (full-system CMP), :mod:`repro.core` (the trace model),
:mod:`repro.traffic` / :mod:`repro.power` / :mod:`repro.stats`
(characterisation), :mod:`repro.harness` (per-figure experiment drivers).
"""

import importlib
import sys


def lazy_exports(package: str, table: dict[str, str]):
    """PEP 562 ``__getattr__`` / ``__dir__`` for a package of re-exports:
    ``table`` maps each public name to its defining module, imported on the
    name's first access (the name is then bound in the package).  Any other
    name raises ``AttributeError``, so ``from package import submodule``
    still falls back to importing the submodule."""

    def __getattr__(name: str):
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(table[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[package]).keys() | table.keys())

    return __getattr__, __dir__


__getattr__, __dir__ = lazy_exports(__name__, {
    "CacheConfig": "repro.config",
    "ConfigError": "repro.config",
    "ExperimentConfig": "repro.config",
    "NocConfig": "repro.config",
    "OnocConfig": "repro.config",
    "PhotonicDeviceConfig": "repro.config",
    "SystemConfig": "repro.config",
    "TraceConfig": "repro.config",
    "default_16core_config": "repro.config",
    "IterativeRefiner": "repro.core",
    "NaiveReplayer": "repro.core",
    "SelfCorrectingReplayer": "repro.core",
    "Trace": "repro.core",
    "TraceCapture": "repro.core",
    "compare_to_reference": "repro.core",
    "replay_trace": "repro.core",
    "Simulator": "repro.engine",
    "run_execution_driven": "repro.harness",
    "Message": "repro.net",
    "NetworkAdapter": "repro.net",
    "ElectricalNetwork": "repro.noc",
    "OpticalCrossbar": "repro.onoc",
    "CircuitSwitchedMesh": "repro.onoc",
    "build_optical_network": "repro.onoc",
    "FullSystem": "repro.system",
    "build_workload": "repro.system",
})

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "CircuitSwitchedMesh",
    "ConfigError",
    "ElectricalNetwork",
    "ExperimentConfig",
    "FullSystem",
    "IterativeRefiner",
    "Message",
    "NaiveReplayer",
    "NetworkAdapter",
    "NocConfig",
    "OnocConfig",
    "OpticalCrossbar",
    "PhotonicDeviceConfig",
    "SelfCorrectingReplayer",
    "Simulator",
    "SystemConfig",
    "Trace",
    "TraceCapture",
    "TraceConfig",
    "build_optical_network",
    "build_workload",
    "compare_to_reference",
    "default_16core_config",
    "replay_trace",
    "run_execution_driven",
    "__version__",
]
