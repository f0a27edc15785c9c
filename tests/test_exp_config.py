"""repro.exp schema + config resolution tests.

Pins the declarative layer's validation contract: typed parameter specs,
``extend:`` chain semantics (root-first resolution, leaf wins), unknown-key
rejection at both the file and parameter level, and the canonical forms
(list -> tuple) that keep config-compiled tasks cache-identical to the
hand-written bench construction.
"""

from __future__ import annotations

import json

import pytest

from repro.exp import (
    ParamSchema,
    ParamSpec,
    SchemaError,
    config_hash,
    discover_configs,
    parse_set_override,
    resolve_config,
    specs,
)
from repro.exp.config import ConfigFileError, GateSpec, load_config_file


# ------------------------------------------------------------------ schema
def test_spec_rejects_unknown_kind():
    with pytest.raises(SchemaError, match="unknown kind"):
        ParamSpec("x", "complex")


def test_int_accepted_for_float_and_coerced():
    s = ParamSpec("scale", "float", 1.0)
    out = s.coerce(2)
    assert out == 2.0 and isinstance(out, float)


def test_bool_is_not_an_int():
    s = ParamSpec("cores", "int", 16)
    with pytest.raises(SchemaError, match="expects int"):
        s.coerce(True)


def test_bool_kind_rejects_int():
    s = ParamSpec("flag", "bool", False)
    with pytest.raises(SchemaError, match="expects bool"):
        s.coerce(1)


def test_list_canonicalized_to_tuple():
    s = ParamSpec("workloads", "list[str]", ("fft",))
    assert s.coerce(["fft", "lu"]) == ("fft", "lu")


def test_list_item_type_checked():
    s = ParamSpec("rates", "list[float]", ())
    with pytest.raises(SchemaError, match=r"'rates'\[1\] expects float"):
        s.coerce([0.1, "high"])


def test_choices_enforced():
    s = ParamSpec("engine", "str", "event", ("event", "vector"))
    assert s.coerce("vector") == "vector"
    with pytest.raises(SchemaError, match="must be one of"):
        s.coerce("warp")


def test_list_items_checked_against_choices():
    s = ParamSpec("workloads", "list[str]", ("fft",), ("fft", "lu"))
    assert s.coerce(["lu", "fft"]) == ("lu", "fft")
    with pytest.raises(SchemaError, match=r"'workloads'\[1\] must be one of"):
        s.coerce(["fft", "fftt"])


def test_list_refuses_a_repeated_item():
    s = ParamSpec("rates", "list[float]", ())
    with pytest.raises(SchemaError, match=r"parameter 'rates' repeats 0\.5"):
        s.coerce([0.5, 0.1, 0.5])
    with pytest.raises(SchemaError, match="repeats 1.0"):
        s.coerce([1, 1.0])


@pytest.mark.parametrize("experiment, overrides, refused", [
    ("accuracy", {"workloads": ["fft", "fftt"]}, "'fftt'"),
    ("resilience", {"mitigations": ["nope"]}, "'nope'"),
    ("load_latency", {"networks": ["electrical", "crossbra"]}, "'crossbra'"),
    ("scalability_synth", {"topologies": ["awg"]}, "'awg'"),
    ("ablation_deps", {"policies": ["interp"]}, "'interp'"),
    ("load_latency", {"labels": ["x", "x"]}, "'labels' repeats 'x'"),
])
def test_catalogue_list_parameters_refused_at_resolve(
        experiment, overrides, refused):
    """A typo or a repeated row name is refused before any task exists."""
    with pytest.raises(SchemaError, match=refused):
        resolve_config(experiment, overrides)


def test_schema_rejects_unknown_parameter():
    sch = specs(("cores", "int", 16), ("seed", "int", 7))
    with pytest.raises(SchemaError, match="unknown parameter"):
        sch.resolve({"coers": 8})


def test_schema_fills_defaults():
    sch = specs(("cores", "int", 16), ("seed", "int", 7))
    assert sch.resolve({"seed": 11}) == {"cores": 16, "seed": 11}


def test_duplicate_specs_rejected():
    with pytest.raises(SchemaError, match="duplicate"):
        ParamSchema((ParamSpec("a", "int"), ParamSpec("a", "int")))


# ------------------------------------------------- config files + extend:
def write_cfg(path, payload):
    path.write_text(json.dumps(payload))
    return path


def test_load_rejects_unknown_top_level_key(tmp_path):
    p = write_cfg(tmp_path / "c.json", {"experiment": "area", "params": {}})
    with pytest.raises(ConfigFileError, match="unknown top-level key"):
        load_config_file(p)


def test_extend_chain_leaf_wins_root_first(tmp_path):
    root = write_cfg(
        tmp_path / "root.json",
        {"experiment": "area", "parameters": {"cores": 4, "seed": 3}},
    )
    mid = write_cfg(
        tmp_path / "mid.json",
        {"extend": root.name, "parameters": {"seed": 11}},
    )
    leaf = write_cfg(
        tmp_path / "leaf.json",
        {"extend": mid.name, "name": "leafy", "parameters": {"seed": 23}},
    )
    cfg = resolve_config(leaf)
    # root supplied cores, the leaf-most seed override wins
    assert cfg.parameters["cores"] == 4
    assert cfg.parameters["seed"] == 23
    assert cfg.experiment == "area"
    assert cfg.name == "leafy"
    # chain recorded root-first, leaf-last
    assert [c.endswith(n) for c, n in
            zip(cfg.chain, ("root.json", "mid.json", "leaf.json"))] == [
        True, True, True]


def test_extend_cycle_detected(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_cfg(a, {"extend": "b.json", "experiment": "area"})
    write_cfg(b, {"extend": "a.json"})
    with pytest.raises(ConfigFileError, match="cycle"):
        resolve_config(a)


def test_experiment_required_somewhere_in_chain(tmp_path):
    p = write_cfg(tmp_path / "c.json", {"parameters": {"cores": 4}})
    with pytest.raises(ConfigFileError, match="experiment"):
        resolve_config(p)


def test_unknown_experiment_rejected(tmp_path):
    p = write_cfg(tmp_path / "c.json", {"experiment": "warp_field"})
    with pytest.raises(SchemaError, match="warp_field"):
        resolve_config(p)


def test_unknown_parameter_names_the_file(tmp_path):
    p = write_cfg(
        tmp_path / "c.json",
        {"experiment": "area", "parameters": {"coers": 8}},
    )
    with pytest.raises(SchemaError, match="unknown parameter"):
        resolve_config(p)


def test_parameter_type_validated_through_resolve(tmp_path):
    p = write_cfg(
        tmp_path / "c.json",
        {"experiment": "area", "parameters": {"cores": "sixteen"}},
    )
    with pytest.raises(SchemaError, match="expects int"):
        resolve_config(p)


def test_cli_overrides_beat_the_whole_chain(tmp_path):
    p = write_cfg(
        tmp_path / "c.json",
        {"experiment": "area", "parameters": {"seed": 3}},
    )
    cfg = resolve_config(p, {"seed": 99})
    assert cfg.parameters["seed"] == 99


def test_list_parameters_resolve_to_tuples(tmp_path):
    p = write_cfg(
        tmp_path / "c.json",
        {"experiment": "accuracy", "parameters": {"workloads": ["fft", "lu"]}},
    )
    cfg = resolve_config(p)
    assert cfg.parameters["workloads"] == ("fft", "lu")


def test_gate_merges_leaf_over_root(tmp_path):
    root = write_cfg(
        tmp_path / "root.json",
        {
            "experiment": "area",
            "gate": {"default_tolerance_pct": 1.0,
                     "tolerances": {"*.wall_clock_s": None}},
        },
    )
    leaf = write_cfg(
        tmp_path / "leaf.json",
        {"extend": root.name, "gate": {"default_tolerance_pct": 5.0}},
    )
    cfg = resolve_config(leaf)
    assert cfg.gate.default_tolerance_pct == 5.0
    assert cfg.gate.tolerance_for("x.wall_clock_s") is None
    assert cfg.gate.tolerance_for("fft.err") == 5.0


def test_config_hash_ignores_name_and_gate(tmp_path):
    a = write_cfg(
        tmp_path / "a.json",
        {"experiment": "area", "name": "one", "parameters": {"seed": 3}},
    )
    b = write_cfg(
        tmp_path / "b.json",
        {"experiment": "area", "name": "two", "parameters": {"seed": 3},
         "gate": {"default_tolerance_pct": 9.0}},
    )
    assert resolve_config(a).config_hash == resolve_config(b).config_hash


def test_config_hash_tracks_parameters():
    h1 = config_hash("area", {"seed": 3})
    h2 = config_hash("area", {"seed": 4})
    assert h1 != h2
    # tuples and lists hash identically (both canonical JSON lists)
    assert config_hash("x", {"w": ("fft",)}) == config_hash("x", {"w": ["fft"]})


def test_yaml_configs_load_when_pyyaml_present(tmp_path):
    pytest.importorskip("yaml")
    p = tmp_path / "c.yaml"
    p.write_text("experiment: area\nparameters:\n  seed: 5\n")
    cfg = resolve_config(p)
    assert cfg.parameters["seed"] == 5


def test_discover_configs_finds_checked_in_tree():
    found = discover_configs("benchmarks/experiments")
    names = {p.name for p in found}
    assert "fig4_accuracy.yaml" in names
    assert "area.yaml" in names  # base/ included


def test_parse_set_override_json_then_string():
    out = parse_set_override(
        ["scale=0.5", 'workloads=["fft"]', "engine=vector"])
    assert out == {"scale": 0.5, "workloads": ["fft"], "engine": "vector"}
    with pytest.raises(ConfigFileError, match="key=value"):
        parse_set_override(["scale"])
