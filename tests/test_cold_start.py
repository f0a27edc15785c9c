"""Importing part of ``repro`` loads only what that part uses.

Package ``__init__``s bind their re-exports on first attribute access
(``repro.lazy_exports``), so a process pays for the subpackages its run
touches and no others.  The set-up checks run in fresh interpreters and
compare module sets, not timings.  ``tests/golden/public_names.json`` holds
every name each package resolved (and the module it came from) when the
packages still imported their whole subtree; every one must still resolve
to the same object.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
PUBLIC = json.loads((Path(__file__).parent / "golden" / "public_names.json")
                    .read_text())

#: ``benchmarks/pipeline``'s ``captured_event_16`` set-up imports.
SETUP_IMPORTS = ("from repro.config import default_16core_config; "
                 "from repro.harness.builders import optical_factory")

#: What a capture-and-replay set-up has no use for.
NOT_IN_SETUP = (
    "networkx", "repro.power", "repro.exp", "repro.serve", "repro.synth",
    "repro.validate", "repro.resilience", "repro.core.generational",
    "repro.core.tracebin", "repro.harness.experiments",
    "repro.harness.parallel", "concurrent.futures.process", "asyncio",
)


#: What building the CLI's argument parser has no use for: each command
#: imports its runtime when it runs.
NOT_IN_PARSER = (
    "repro.core", "repro.noc", "repro.onoc", "repro.system", "repro.exp",
    "repro.serve", "repro.validate", "repro.synth",
)


#: What a serve node, and a fresh worker that ran ``echo``, have no use
#: for: the registry holds dotted refs, so the simulator is imported by
#: the first task that runs it.
NOT_IN_SERVE_NODE = (
    "numpy", "repro.harness.builders", "repro.harness.experiments",
    "repro.system", "repro.noc", "repro.onoc", "repro.core",
    "repro.validate",
)

#: A fresh serve worker: the pool module, then its first task's callable.
WORKER_ECHO = ("import repro.serve.pool; "
               "from repro.harness.parallel import resolve_callable; "
               "resolve_callable('repro.serve.ops:echo')")

#: A node that canonicalised, then answered from its LRU, a plain
#: ``scenario_json`` submit: the walk decodes no untagged payload into a
#: class, so the scenario's parameters stay a dict.
NODE_SUBMIT = "exec(%r)" % """
import asyncio
from repro.serve import protocol as P
from repro.serve.server import SimulationServer

async def main():
    node = SimulationServer(port=0, workers=1)
    await node.start()
    params = {"workload": "fft", "cores": 16, "seed": 1, "scale": 0.25,
              "capture": "electrical", "target": "crossbar"}
    frame = P.submit_frame(1, "scenario_json", [params], {})
    key = node._canonical_task(frame).cache_key()
    node.lru.put(key, {"result": params, "obs": None})
    reader, writer = await asyncio.open_connection("127.0.0.1", node.port)
    writer.write(P.encode_frame(frame))
    await writer.drain()
    await reader.readline()
    done = P.decode_frame(await reader.readline())
    assert done["event"] == "done" and done["result"] == params, done
    writer.close()
    await node.aclose()

asyncio.run(main())
"""


def loaded_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter that ran ``code``."""
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys; {code}; print('\\n'.join(sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        text=True, check=True)
    return set(out.stdout.split())


def test_config_loads_no_sibling():
    repro_modules = {m for m in loaded_after("import repro.config")
                     if m == "repro" or m.startswith("repro.")}
    assert repro_modules == {"repro", "repro.config"}


def test_setup_import_set_stays_cold():
    loaded = loaded_after(SETUP_IMPORTS)
    assert "repro.harness.builders" in loaded
    assert sorted(set(NOT_IN_SETUP) & loaded) == []


def test_cli_parser_stays_cold():
    loaded = loaded_after("from repro.cli import make_parser; make_parser()")
    assert "repro.cli" in loaded
    assert sorted(set(NOT_IN_PARSER) & loaded) == []


@pytest.mark.parametrize(
    "code", ["import repro.serve.server", WORKER_ECHO, NODE_SUBMIT],
    ids=["node", "worker_echo", "node_submit"])
def test_serve_node_and_worker_stay_cold(code):
    loaded = loaded_after(code)
    assert "repro.serve.ops" in loaded
    assert sorted(set(NOT_IN_SERVE_NODE) & loaded) == []


@pytest.mark.parametrize("pkg", sorted(PUBLIC["packages"]))
def test_public_names_resolve_to_their_definitions(pkg):
    module = importlib.import_module(pkg)
    recorded = PUBLIC["packages"][pkg]
    assert module.__all__ == recorded["all"]
    for name, origin in recorded["names"].items():
        defining = importlib.import_module(origin)
        assert getattr(module, name) is getattr(defining, name), (pkg, name)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("pkg", sorted(PUBLIC["packages"]))
def test_public_names_resolve_from_cold(pkg):
    """Every name binds on first touch in a fresh interpreter: no import
    cycle depends on a sibling having been loaded first."""
    names = sorted(PUBLIC["packages"][pkg]["names"])
    loaded_after(f"import {pkg} as p; [getattr(p, n) for n in {names!r}]")


def test_unknown_name_is_an_attribute_error():
    core = importlib.import_module("repro.core")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        core.no_such_name


def test_star_import_binds_the_recorded_set():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC["star"]


def test_submodules_still_import_through_the_package():
    loaded_after("from repro import obs, replay_trace; "
                 "from repro.core import Trace, tracebin; "
                 "import repro.core.trace; "
                 "assert repro.core.trace.Trace is Trace; "
                 "assert obs.registry is not None")
