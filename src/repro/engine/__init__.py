"""Discrete-event simulation kernel.

This package provides the minimal, deterministic discrete-event core that
every other subsystem (electrical NoC, optical NoC, CMP full-system model,
trace replayers) is built on:

* :class:`~repro.engine.events.EventQueue` — a binary heap of
  ``(time, priority, seq, fn, args)`` tuples with stable FIFO tie-breaking,
  so that equal timestamps are processed in schedule order, which makes
  whole-simulation results bit-reproducible for a fixed seed.
* :class:`~repro.engine.simulator.Simulator` — the one event loop, the
  simulated clock, and the scheduling API (``schedule`` /
  ``schedule_after`` / ``schedule_many``).
* :class:`~repro.engine.rng.RngFactory` — hierarchical deterministic random
  streams (one independent stream per component).

Simulated components are ordinary objects that hold the simulator they were
built with; the builders in :mod:`repro.harness` wire them explicitly.
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "EventQueue": "repro.engine.events",
    "RngFactory": "repro.engine.rng",
    "SimulationError": "repro.engine.simulator",
    "Simulator": "repro.engine.simulator",
})

__all__ = [
    "EventQueue",
    "RngFactory",
    "SimulationError",
    "Simulator",
]
