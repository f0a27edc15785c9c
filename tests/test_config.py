"""Config validation tests."""

from __future__ import annotations

import pytest

from repro.config import (
    CacheConfig,
    ConfigError,
    ExperimentConfig,
    NocConfig,
    OnocConfig,
    PhotonicDeviceConfig,
    SystemConfig,
    TraceConfig,
    default_16core_config,
)


# ------------------------------------------------------------------- NoC
def test_noc_defaults_valid():
    cfg = NocConfig()
    assert cfg.num_nodes == 16


def test_noc_bad_topology():
    with pytest.raises(ConfigError, match="XY-wormhole mesh"):
        NocConfig(topology="hypercube")


@pytest.mark.parametrize("field,value", [
    ("topology", "torus"), ("topology", "ring"), ("topology", "Mesh"),
    ("routing", "yx"), ("routing", "adaptive"),
])
def test_noc_only_the_xy_mesh_is_legal(field, value):
    with pytest.raises(ConfigError, match="XY-wormhole mesh"):
        NocConfig(**{field: value})


def test_serve_resolve_config_refuses_a_non_mesh_noc():
    """A remote client's ``noc`` dict reaches ``NocConfig`` unfiltered."""
    from repro.serve.ops import resolve_config

    with pytest.raises(ConfigError, match="XY-wormhole mesh"):
        resolve_config(noc={"topology": "torus"})


def test_noc_bad_routing():
    with pytest.raises(ConfigError, match="XY-wormhole mesh"):
        NocConfig(routing="random_walk")


@pytest.mark.parametrize("field,value", [
    ("width", 0), ("num_vcs", 0), ("vc_depth", 0), ("flit_bytes", 0),
    ("router_latency", 0), ("link_latency", 0), ("clock_ghz", 0.0),
])
def test_noc_nonpositive_fields_rejected(field, value):
    with pytest.raises(ConfigError):
        NocConfig(**{field: value})


def test_flits_for_bytes():
    cfg = NocConfig(flit_bytes=16)
    assert cfg.flits_for_bytes(1) == 1
    assert cfg.flits_for_bytes(16) == 1
    assert cfg.flits_for_bytes(17) == 2
    assert cfg.flits_for_bytes(72) == 5


@pytest.mark.parametrize("size", [1, 16, 17, 2**53 - 1, 2**53, 2**53 + 1,
                                  2**60 + 3])
def test_one_flit_count_rule_at_any_size(size):
    """The NI's flit count and the delivery counter use one integer rule; a
    float quotient is off by one flit from 2**53 + 1 bytes on."""
    from repro.engine import Simulator
    from repro.net import Message, NetworkBase

    cfg = NocConfig(flit_bytes=16)
    assert cfg.flits_for_bytes(size) == max(1, (size + 15) // 16)
    net = NetworkBase(Simulator(), cfg.num_nodes, cfg.flit_bytes)
    msg = Message(0, 1, size)
    msg.inject_time, msg.deliver_time = 0, 1
    net._count_delivery(msg, 1)
    assert net.stats.flits_delivered == cfg.flits_for_bytes(size)


# ------------------------------------------------------------------ ONoC
def test_onoc_defaults_valid():
    cfg = OnocConfig()
    assert cfg.channel_gbps == 640.0


def test_onoc_bad_topology():
    with pytest.raises(ConfigError, match="unknown optical topology"):
        OnocConfig(topology="butterfly")


def test_onoc_circuit_mesh_requires_square():
    with pytest.raises(ConfigError, match="square"):
        OnocConfig(topology="circuit_mesh", num_nodes=12)


def test_onoc_serialization_cycles_monotone():
    cfg = OnocConfig()
    sizes = [8, 72, 256, 1024]
    cycles = [cfg.serialization_cycles(s) for s in sizes]
    assert cycles == sorted(cycles)
    assert cycles[0] >= 1


def test_onoc_propagation_positive():
    cfg = OnocConfig()
    assert cfg.propagation_cycles(0.001) >= 1
    assert cfg.propagation_cycles(10.0) > cfg.propagation_cycles(1.0)


def test_photonic_device_validation():
    with pytest.raises(ConfigError, match="laser_efficiency"):
        PhotonicDeviceConfig(laser_efficiency=0.0)
    with pytest.raises(ConfigError):
        PhotonicDeviceConfig(waveguide_loss_db_cm=-1.0)


# ----------------------------------------------------------------- Cache
def test_cache_line_must_be_power_of_two():
    with pytest.raises(ConfigError, match="power of two"):
        CacheConfig(line_bytes=48)


def test_cache_size_divisibility():
    with pytest.raises(ConfigError, match="divisible"):
        CacheConfig(size_bytes=1000, assoc=3, line_bytes=64)


def test_cache_num_sets():
    cfg = CacheConfig(size_bytes=32 * 1024, assoc=4, line_bytes=64)
    assert cfg.num_sets == 128


# ---------------------------------------------------------------- System
def test_system_defaults_valid():
    cfg = SystemConfig()
    assert cfg.num_cores == 16


def test_system_line_sizes_must_match():
    with pytest.raises(ConfigError, match="line sizes"):
        SystemConfig(l1=CacheConfig(line_bytes=32))


def test_system_memctrls_bounded_by_cores():
    with pytest.raises(ConfigError, match="cannot exceed"):
        SystemConfig(num_cores=2, num_mem_ctrls=4)


def test_system_data_bigger_than_ctrl():
    with pytest.raises(ConfigError, match="larger than control"):
        SystemConfig(ctrl_msg_bytes=72, data_msg_bytes=72)


# ----------------------------------------------------------------- Trace
def test_trace_mode_validation():
    with pytest.raises(ConfigError, match="unknown trace mode"):
        TraceConfig(mode="hybrid")


def test_trace_dep_fraction_range():
    with pytest.raises(ConfigError, match="keep_dep_fraction"):
        TraceConfig(keep_dep_fraction=1.5)
    TraceConfig(keep_dep_fraction=0.0)
    TraceConfig(keep_dep_fraction=1.0)


def test_trace_gap_policy_validation():
    # Two policies, both solved by either replay engine.
    with pytest.raises(ConfigError, match="unknown degraded_gap_policy"):
        TraceConfig(degraded_gap_policy="interp")


@pytest.mark.parametrize("build", [
    lambda: TraceConfig(awgr_occupancy_hint=True),
    lambda: ExperimentConfig(trace=TraceConfig()),
], ids=["trace-occupancy-hint", "experiment-trace"])
def test_removed_fields_are_refused(build):
    with pytest.raises(TypeError, match="unexpected keyword"):
        build()


# ------------------------------------------------------------ Experiment
def test_experiment_node_count_consistency():
    with pytest.raises(ConfigError, match="electrical NoC"):
        ExperimentConfig(system=SystemConfig(num_cores=4))


def test_default_config_consistent():
    exp = default_16core_config()
    assert exp.system.num_cores == exp.noc.num_nodes == exp.onoc.num_nodes


def test_with_seed():
    exp = default_16core_config().with_seed(123)
    assert exp.seed == 123


def test_configs_frozen():
    cfg = NocConfig()
    with pytest.raises(AttributeError):
        cfg.width = 8  # type: ignore[misc]
