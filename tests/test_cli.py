"""CLI tests (direct main() invocation, captured stdout)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_experiment, main, make_parser
from repro.config import ONOC_TOPOLOGIES


def run_cli(capsys, *argv: str) -> str:
    rc = main(list(argv))
    assert rc == 0
    return capsys.readouterr().out


SMALL = ("--cores", "4", "--seed", "3", "--wavelengths", "16",
         "--scale", "0.5")


def test_info(capsys):
    out = run_cli(capsys, "info", *SMALL)
    assert "4-node crossbar" in out
    assert "2x2 mesh" in out


def test_cores_must_be_square():
    with pytest.raises(SystemExit):
        main(["info", "--cores", "6"])


def test_missing_subcommand_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_capture_writes_valid_trace(tmp_path, capsys):
    out_file = tmp_path / "t.json"
    out = run_cli(capsys, "capture", "--workload", "randshare",
                  "--out", str(out_file), *SMALL)
    assert "captured" in out
    payload = json.loads(out_file.read_text())
    assert payload["records"]
    assert payload["meta"]["workload"] == "randshare"


def test_replay_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "t.json"
    run_cli(capsys, "capture", "--workload", "randshare",
            "--out", str(out_file), *SMALL)
    out = run_cli(capsys, "replay", "--trace", str(out_file),
                  "--target", "crossbar", *SMALL)
    assert "predicted exec time" in out
    assert "0 unreplayed" in out


def test_replay_naive_mode(tmp_path, capsys):
    out_file = tmp_path / "t.json"
    run_cli(capsys, "capture", "--workload", "randshare",
            "--out", str(out_file), *SMALL)
    out = run_cli(capsys, "replay", "--trace", str(out_file),
                  "--mode", "naive", *SMALL)
    assert "mode=naive" in out


def test_replay_occupancy_hint_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--trace", str(tmp_path / "t.json"),
              "--occupancy-hint"])
    assert exc.value.code == 2


def test_accuracy_command(capsys):
    # The legacy spellings print the catalogue's rows (exp run <name>).
    out = run_cli(capsys, "accuracy", "--workload", "randshare", *SMALL)
    assert "experiment=accuracy" in out
    assert "randshare" in out and "gmean" in out
    assert "naive_err_%" in out and "selfcorr_err_%" in out


def test_casestudy_command(capsys):
    out = run_cli(capsys, "casestudy", "--workload", "prodcons", *SMALL)
    assert "experiment=case_study" in out
    assert "speedup_x" in out


def test_alias_shares_cache_with_exp_run(tmp_path, capsys):
    """``repro accuracy`` and ``repro exp run accuracy`` are one function:
    the same flags-as-parameters hit the same content keys."""
    cache = str(tmp_path / "cache")
    run_cli(capsys, "accuracy", "--workload", "lu", "--cache-dir", cache,
            *SMALL)
    out = run_cli(capsys, "exp", "run", "accuracy", "--cache-dir", cache,
                  "--set", 'workloads=["lu"]', "--set", "cores=4",
                  "--set", "seed=3", "--set", "wavelengths=16",
                  "--set", "scale=0.5")
    assert "tasks: 0 executed, 1 cached" in out


def test_alias_keeps_square_cores_message():
    with pytest.raises(SystemExit, match="perfect square"):
        main(["sweep", "--cores", "6"])


def test_sweep_command(capsys):
    out = run_cli(capsys, "sweep", "--network", "crossbar",
                  "--rates", "0.05", *SMALL)
    assert "avg_latency" in out


@pytest.mark.parametrize("network", ("electrical", *ONOC_TOPOLOGIES))
def test_every_backend_is_a_cli_choice(capsys, network):
    """The CLI's network lists are derived from ``ONOC_TOPOLOGIES``: every
    backend ``load_latency_point`` runs is sweepable and replayable."""
    args = make_parser().parse_args(
        ["replay", "--trace", "x.json", "--target", network])
    assert args.target == network
    out = run_cli(capsys, "sweep", "--network", network,
                  "--rates", "0.05", *SMALL)
    assert f"uniform | {network}" in out       # the catalogue's key columns
    assert "avg_latency" in out


def test_analyze_command(tmp_path, capsys):
    for fmt, name in (("json", "t.json"), ("binary", "t.rtrc")):
        out_file = tmp_path / name
        run_cli(capsys, "capture", "--workload", "randshare",
                "--format", fmt, "--out", str(out_file), *SMALL)
        out = run_cli(capsys, "analyze", "--trace", str(out_file))
        assert "dependency depth" in out
        assert "Line sharing" in out
        assert "workload=randshare" in out


# --------------------------------------------------------- trace utilities
def _capture_small(tmp_path, capsys):
    out_file = tmp_path / "t.json"
    run_cli(capsys, "capture", "--workload", "randshare",
            "--out", str(out_file), *SMALL)
    return out_file


def test_trace_convert_json_to_binary_and_back(tmp_path, capsys):
    from repro.core import Trace, tracebin

    src = _capture_small(tmp_path, capsys)
    out = run_cli(capsys, "trace", "convert", str(src))
    assert "-> " in out and ".rtrc" in out
    rtrc = src.with_suffix(".rtrc")
    assert tracebin.is_binary_trace(rtrc)

    back = tmp_path / "back.json"
    out = run_cli(capsys, "trace", "convert", str(rtrc),
                  "--to", "json", "--out", str(back))
    assert "json" in out
    # Lossless through the CLI: canonical JSON matches the original capture.
    assert (Trace.from_json(back.read_text()).to_json()
            == Trace.from_json(src.read_text()).to_json())


def test_trace_info_both_containers(tmp_path, capsys):
    src = _capture_small(tmp_path, capsys)
    run_cli(capsys, "trace", "convert", str(src))

    info_json = run_cli(capsys, "trace", "info", str(src))
    info_bin = run_cli(capsys, "trace", "info", str(src.with_suffix(".rtrc")))
    for out in (info_json, info_bin):
        assert "records" in out
        assert "meta.workload" in out and "randshare" in out
    assert "json" in info_json
    assert "binary" in info_bin


def test_replay_generational_engine_on_binary_trace(tmp_path, capsys):
    src = _capture_small(tmp_path, capsys)
    run_cli(capsys, "trace", "convert", str(src))
    out = run_cli(capsys, "replay",
                  "--trace", str(src.with_suffix(".rtrc")),
                  "--target", "crossbar", "--engine", "generational", *SMALL)
    assert "predicted exec time" in out
    assert "0 unreplayed" in out


def test_build_experiment_respects_flags():
    args = make_parser().parse_args(
        ["info", "--cores", "16", "--seed", "11", "--wavelengths", "32"])
    exp = build_experiment(args)
    assert exp.system.num_cores == 16
    assert exp.noc.width == exp.noc.height == 4
    assert exp.onoc.num_wavelengths == 32
    assert exp.seed == 11


# ------------------------------------------------------------- observability
def test_metrics_flag_prints_metrics_block(capsys):
    out = run_cli(capsys, "sweep", "--network", "crossbar",
                  "--rates", "0.05", "--metrics", *SMALL)
    assert "== metrics ==" in out
    assert "kernel.events_fired" in out
    assert "net.crossbar.injected" in out
    # The flag is per-invocation: instrumentation is off again afterwards.
    from repro import obs
    assert not obs.enabled()


def test_metrics_out_roundtrips_through_metrics_command(tmp_path, capsys):
    metrics_file = tmp_path / "m.json"
    run_cli(capsys, "casestudy", "--workload", "prodcons", "--metrics",
            "--metrics-out", str(metrics_file), *SMALL)
    payload = json.loads(metrics_file.read_text())
    assert payload["format"] == "repro-metrics-v1"
    out = run_cli(capsys, "metrics", str(metrics_file))
    assert "== metrics" in out
    assert "kernel.events_fired" in out


def test_trace_out_writes_chrome_trace(tmp_path, capsys):
    trace_file = tmp_path / "trace.json"
    out = run_cli(capsys, "casestudy", "--workload", "prodcons",
                  "--trace-out", str(trace_file), *SMALL)
    assert "wrote chrome trace" in out
    doc = json.loads(trace_file.read_text())
    events = doc["traceEvents"]
    assert events
    assert any(e.get("ph") == "i" for e in events)
    from repro import obs
    assert obs.timeline() is None          # tracer torn down after main()
