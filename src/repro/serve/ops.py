"""Operation catalogue: what the simulation service will run.

The service never executes arbitrary callables off the wire — a request
names an operation *alias* which the server resolves through its registry
to a module-level function (the same ``module:qualname`` form
:class:`repro.harness.SweepTask` uses, so the resolved reference is part of
the content-addressed cache key and serve shares cache entries with batch
sweeps).  Servers can extend the registry at construction time
(``SimulationServer(operations={...})``); the defaults cover the
repository's experiment surface, derived from the one experiment registry
(:func:`repro.exp.catalog.serve_operations`).

Importing this module loads no simulator code: the registry holds dotted
refs, and the config builders are imported by the wrappers that call them.
A node and a fresh worker that runs ``echo`` therefore load only the
service plumbing; a worker imports a point's module with its first task.

JSON-friendly wrappers: CLI clients (``repro submit``) send plain-JSON
parameter objects, so for config-heavy entry points this module provides
``*_json`` wrappers that build the dataclasses server-side.  Python clients
can instead encode dataclasses directly with
:func:`repro.harness.encode_value` and call the underlying functions.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import Any

from repro.exp.catalog import serve_operations

#: Default alias -> dotted-reference registry: the service plumbing and the
#: JSON front ends below, plus every point function the experiment
#: catalogue registers (shared with SweepRunner-driven runs, so an
#: experiment config submits its tasks unchanged — same dotted refs, same
#: args, same content keys — and cache entries are interchangeable).
DEFAULT_OPERATIONS: dict[str, str] = {
    "echo": "repro.serve.ops:echo",
    "resolve_config": "repro.serve.ops:resolve_config",
    "scenario_json": "repro.serve.ops:run_scenario_json",
    "accuracy_json": "repro.serve.ops:accuracy_json",
    **serve_operations(),
}


def echo(value: Any = None, sleep_s: float = 0.0) -> Any:
    """Return ``value`` after an optional busy-less sleep.

    The service's loopback op: measures end-to-end request overhead
    (``benchmarks/bench_serve.py``) and gives tests a worker-occupying task
    with controllable duration.
    """
    if sleep_s:
        time.sleep(sleep_s)
    return value


def resolve_config(**params: Any) -> dict:
    """Validate a configuration and return it fully resolved, as plain JSON.

    Lets clients type-check an experiment before paying for simulation; an
    infeasible combination (e.g. an AWGR with fewer wavelengths than nodes)
    raises ``ConfigError`` in the worker, and the service relays the original
    traceback.
    """
    from repro.harness.builders import experiment_from_params as _experiment_from_params

    exp = _experiment_from_params(**params)
    return asdict(exp)


def run_scenario_json(params: dict, deep: bool = False) -> Any:
    """JSON-parameter front end for :func:`repro.validate.scenario.run_scenario`.

    ``params`` are :class:`repro.validate.Scenario` fields, e.g.
    ``{"workload": "fft", "cores": 16, "seed": 7, "scale": 0.25,
    "capture": "electrical", "target": "crossbar"}``.
    """
    from repro.validate.scenario import Scenario, run_scenario

    return run_scenario(Scenario(**params), deep=deep)


def accuracy_json(workload: str, scale: float = 1.0, **params: Any) -> Any:
    """JSON-parameter front end for the accuracy experiment."""
    from repro.harness.builders import experiment_from_params as _experiment_from_params
    from repro.harness.experiments import accuracy_experiment

    exp = _experiment_from_params(**params)
    return accuracy_experiment(exp, workload, scale=scale)
