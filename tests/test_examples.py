"""Smoke tests: every example script must run cleanly end to end.

These execute the real scripts in subprocesses (same interpreter) so import
errors, stale APIs, or broken output formatting in examples fail CI rather
than the first user.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys


EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 300) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, (
        f"{name} failed:\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "self_correcting replay" in out
    assert "error" in out


def test_trace_inspection():
    out = run_example("trace_inspection.py", "prodcons")
    assert "Trace profile" in out
    assert "Line sharing classification" in out
    assert "round-trip exact" in out


def test_case_study_single_workload():
    out = run_example("case_study_onoc.py", "randshare")
    assert "speedup" in out
    assert "Energy over the run" in out


def test_design_space_exploration():
    out = run_example("design_space_exploration.py")
    assert "design point" in out
    assert "passive AWGR" in out
    assert "error_%" in out


def test_network_characterization():
    out = run_example("network_characterization.py", "transpose")
    assert "Load-latency under 'transpose' traffic" in out
    assert "optical circuit mesh" in out
    assert "Photonic physical layer" in out
