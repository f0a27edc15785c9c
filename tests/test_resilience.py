"""The resilience subsystem: schema round-trips, generator determinism and
monotonicity, the empty-timeseries byte-identity contract on every backend,
policy penalty accounting, and the degraded engine differential.

The byte-identity pin is the subsystem's safety contract: a ``TraceConfig``
with no fault events must replay *exactly* like stock — same injections,
same deliveries, no resilience payload — on both engines and all four
optical backends, so the degradation hook provably costs nothing when off.
"""

from __future__ import annotations

import dataclasses
import hashlib
from bisect import bisect_right
import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import (
    ENGINE_EVENT,
    ENGINE_GENERATIONAL,
    MITIGATION_DISABLE,
    MITIGATION_NONE,
    MITIGATION_REALLOCATE,
    MITIGATIONS,
    NocConfig,
    OnocConfig,
    TRACE_NAIVE,
    TRACE_SELF_CORRECTING,
    TraceConfig,
)
from repro.core import tracebin
from repro.core.replay import replay_trace
from repro.core.trace import Trace
from repro.engine import Simulator
from repro.harness.builders import electrical_factory, optical_factory
from repro.onoc import HybridConfig, HybridNetwork
from repro.onoc.timing import timing_for
from repro.resilience import (
    DegradationOverlay,
    FaultEvent,
    FaultTimeseries,
    GENERATOR_FAMILIES,
    TimeseriesError,
    generate_timeseries,
    timeseries_for_trace,
)
from repro.resilience.policies import LEVEL_CAP_PM
from repro.validate.engines import (
    ENGINE_DEGRADE_FAMILY,
    ENGINE_DEGRADE_INTENSITY,
    compare_engines,
)
from repro.validate.golden import GOLDEN_SCENARIOS, _trace_path

GOLDEN_DIR = Path(__file__).parent / "golden"

ALL_FAMILIES = "+".join(sorted(GENERATOR_FAMILIES))


def _golden(scenario):
    trace = Trace.from_json(_trace_path(GOLDEN_DIR, scenario).read_text())
    onoc = OnocConfig(num_nodes=scenario.cores,
                      num_wavelengths=scenario.wavelengths,
                      topology=scenario.target)
    return trace, onoc


def _series_for(trace, scenario, intensity=0.9, family=ALL_FAMILIES):
    horizon = max((r.t_inject for r in trace.records), default=1)
    return generate_timeseries(family, seed=scenario.seed,
                               num_nodes=scenario.cores,
                               horizon=max(1, horizon), intensity=intensity)


# ---------------------------------------------------------------------------
# Schema / containers
# ---------------------------------------------------------------------------

class TestTimeseriesSchema:
    def test_sorted_and_canonical(self):
        a = FaultTimeseries([FaultEvent(5, "global", 0.5),
                             FaultEvent(1, "node:3", 0.2)])
        b = FaultTimeseries([FaultEvent(1, "node:3", 0.2),
                             FaultEvent(5, "global", 0.5)])
        assert a == b and hash(a) == hash(b)
        assert [e.time for e in a] == [1, 5]

    def test_duplicate_step_rejected(self):
        with pytest.raises(TimeseriesError, match="duplicate"):
            FaultTimeseries([FaultEvent(1, "global", 0.5),
                             FaultEvent(1, "global", 0.7)])

    @pytest.mark.parametrize("target", [
        "globe", "node:", "node:-1", "link:1", "link:2-2", "wl:x", "links:1-2",
    ])
    def test_bad_targets_rejected(self, target):
        with pytest.raises(TimeseriesError):
            FaultEvent(0, target, 0.5)

    @pytest.mark.parametrize("sev", [-0.1, 1.5])
    def test_severity_range(self, sev):
        with pytest.raises(TimeseriesError):
            FaultEvent(0, "global", sev)

    def test_csv_header_required(self):
        with pytest.raises(TimeseriesError, match="header"):
            FaultTimeseries.from_csv("1,global,0.5\n")

    def test_from_text_sniffs_container(self):
        s = generate_timeseries(ALL_FAMILIES, seed=3, num_nodes=8,
                                horizon=500, intensity=0.7)
        # CSV uses %g formatting, so severities round — the round-trip is a
        # serialization fixed point, not float-exact; JSON is exact.
        csv_rt = FaultTimeseries.from_text(s.to_csv())
        assert csv_rt.to_csv() == s.to_csv()
        assert [e.as_tuple()[:2] for e in csv_rt] == \
            [e.as_tuple()[:2] for e in s]
        assert FaultTimeseries.from_text(s.to_json()) == s


# hypothesis round-trip: parse -> serialize -> parse is the identity for
# every container, on arbitrary valid event sets.
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def timeseries(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    events, seen = [], set()
    for _ in range(n):
        t = draw(st.integers(min_value=0, max_value=10_000))
        kind = draw(st.sampled_from(("global", "node", "link", "wl")))
        if kind == "global":
            target = "global"
        elif kind == "link":
            src = draw(st.integers(min_value=0, max_value=15))
            dst = draw(st.integers(min_value=0, max_value=14))
            target = f"link:{src}-{dst if dst < src else dst + 1}"
        else:
            target = f"{kind}:{draw(st.integers(min_value=0, max_value=63))}"
        if (t, target) in seen:
            continue
        seen.add((t, target))
        sev = draw(st.floats(min_value=0.0, max_value=1.0,
                             allow_nan=False, width=32))
        events.append(FaultEvent(t, target, sev))
    return FaultTimeseries(events)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(series=timeseries())
    def test_csv_roundtrip(self, series):
        again = FaultTimeseries.from_csv(series.to_csv())
        # %g formatting may shorten severities; re-serialization must be a
        # fixed point even so.
        assert again.to_csv() == FaultTimeseries.from_csv(again.to_csv()).to_csv()
        assert [e.as_tuple()[:2] for e in again] == \
            [e.as_tuple()[:2] for e in series]

    @settings(max_examples=60, deadline=None)
    @given(series=timeseries())
    def test_json_roundtrip(self, series):
        assert FaultTimeseries.from_json(series.to_json()) == series

    @settings(max_examples=60, deadline=None)
    @given(series=timeseries())
    def test_tuple_roundtrip(self, series):
        assert FaultTimeseries.from_tuples(series.as_tuples()) == series


# ---------------------------------------------------------------------------
# One pricing rule, two call shapes
# ---------------------------------------------------------------------------

#: Epoch boundaries 100 / 200 / 300 on an 8-node crossbar: node 2 dead
#: (capped at ``LEVEL_CAP_PM``), link 0->1 past the disable threshold, link
#: 3->4 mildly degraded, everything restored at 300 except a faint global.
PRICING_SERIES = FaultTimeseries([
    FaultEvent(100, "node:2", 1.0),
    FaultEvent(100, "link:0-1", 0.8),
    FaultEvent(200, "link:3-4", 0.3),
    FaultEvent(200, "wl:5", 0.5),
    FaultEvent(300, "node:2", 0.0),
    FaultEvent(300, "link:0-1", 0.0),
    FaultEvent(300, "global", 0.05),
])
PRICING_OVERLAYS = {
    m: DegradationOverlay.build(
        PRICING_SERIES, timing_for(OnocConfig(num_nodes=8)), m)
    for m in MITIGATIONS}

_pricing_message = st.tuples(
    # Injection times on, next to and away from every epoch boundary.
    st.one_of(st.sampled_from([0, 99, 100, 101, 199, 200, 201, 299, 300]),
              st.integers(min_value=0, max_value=1000)),
    st.sampled_from([(0, 1), (2, 6), (5, 2), (3, 4), (6, 7), (1, 0)]),
    st.integers(min_value=1, max_value=5000),
)


class TestOnePricingRule:
    def test_tables_hold_every_edge_case(self):
        """The property below is only as strong as the tables it draws
        from: the cap, a zero stretch, a zero and a full echo, a retune."""
        none, disable, reallocate = (
            PRICING_OVERLAYS[m] for m in
            (MITIGATION_NONE, MITIGATION_DISABLE, MITIGATION_REALLOCATE))
        assert none.level_pm[1, 2, 6] == LEVEL_CAP_PM
        assert none._stretch_pm[1, 2, 6] == LEVEL_CAP_PM
        assert none._stretch_pm[1, 6, 7] == 0
        assert disable._echo_pm[1, 0, 1] == 1000
        assert disable._stretch_pm[1, 0, 1] == 0
        assert disable._lat_add[1, 0, 1] > 0
        assert disable._echo_pm[2, 3, 4] == 0 < disable._stretch_pm[2, 3, 4]
        assert reallocate._occ_add[1, 0, 1] > 0
        assert reallocate._occ_add[1, 6, 7] == 0

    @settings(max_examples=100, deadline=None)
    @given(mitigation=st.sampled_from(MITIGATIONS),
           msgs=st.lists(_pricing_message, min_size=1, max_size=30))
    def test_ints_and_arrays_price_alike(self, mitigation, msgs):
        """``price`` on int64 arrays, ``price`` on Python ints and the
        formula spelled out with ``bisect_right`` and ``//`` agree element
        for element."""
        ov = PRICING_OVERLAYS[mitigation]
        t, pairs, ser = zip(*msgs)
        src, dst = zip(*pairs)
        occ_v, lat_v = ov.price(*(np.asarray(col, dtype=np.int64)
                                  for col in (t, src, dst, ser)))
        for k, (ti, (s, d), n) in enumerate(msgs):
            e = bisect_right(ov.epoch_times, ti)
            stretch, echo, occ_add, lat_add = (
                int(tab[e, s, d]) for tab in
                (ov._stretch_pm, ov._echo_pm, ov._occ_add, ov._lat_add))
            want = (-(-n * 1000 // (1000 - stretch)) - n
                    + -(-n * echo // 1000) + occ_add, lat_add)
            occ, lat = ov.price(ti, s, d, n)
            assert (int(occ), int(lat)) == want
            assert (int(occ_v[k]), int(lat_v[k])) == want
            assert want[0] >= 0 and want[1] >= 0


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

class TestGenerators:
    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
    def test_seed_determinism(self, family):
        kw = dict(seed=42, num_nodes=16, horizon=5000, intensity=0.8)
        assert generate_timeseries(family, **kw) == \
            generate_timeseries(family, **kw)
        assert generate_timeseries(family, **kw) != generate_timeseries(
            family, **{**kw, "seed": 43})

    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
    def test_severity_monotone_in_intensity(self, family):
        kw = dict(seed=11, num_nodes=16, horizon=5000)
        prev = None
        for intensity in (0.2, 0.5, 0.8, 1.0):
            series = generate_timeseries(family, intensity=intensity, **kw)
            assert len(series) > 0
            if prev is not None:
                assert len(series) == len(prev)
                for lo, hi in zip(prev, series):
                    assert (lo.time, lo.target) == (hi.time, hi.target)
                    assert hi.severity >= lo.severity
            prev = series

    def test_combined_families_merge(self):
        kw = dict(seed=9, num_nodes=16, horizon=4000, intensity=0.6)
        combined = generate_timeseries(ALL_FAMILIES, **kw)
        kinds = {e.target.split(":")[0] for e in combined}
        # Thermal drift hits nodes, droop hits global, bursts hit links.
        assert {"node", "global", "link"} <= kinds

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown degradation family"):
            generate_timeseries("gamma_rays", seed=1, num_nodes=4, horizon=10)

    def test_trace_horizon_builds_no_records(self, tmp_path):
        """The horizon comes from the columns: a container-loaded trace
        keeps its record view unbuilt, and its weather equals that of the
        record-built twin."""
        scenario = GOLDEN_SCENARIOS[0]
        assert scenario.workload == "fft"
        twin, _ = _golden(scenario)
        path = tmp_path / "fft.rtrc"
        tracebin.write_file(twin, path)
        loaded = tracebin.load_trace(path)
        kw = dict(seed=scenario.seed, num_nodes=scenario.cores, intensity=0.7)
        series = timeseries_for_trace(ALL_FAMILIES, loaded, **kw)
        assert "records" not in vars(loaded)
        assert series == timeseries_for_trace(ALL_FAMILIES, twin, **kw)
        assert series == _series_for(twin, scenario, intensity=0.7)


# ---------------------------------------------------------------------------
# Empty timeseries == stock replay, byte for byte (both engines, 4 backends)
# ---------------------------------------------------------------------------

class TestByteIdentity:
    @pytest.mark.parametrize("scenario", GOLDEN_SCENARIOS,
                             ids=lambda s: s.target)
    @pytest.mark.parametrize("engine", (ENGINE_EVENT, ENGINE_GENERATIONAL))
    def test_empty_timeseries_is_stock(self, scenario, engine):
        trace, onoc = _golden(scenario)
        stock = replay_trace(trace, optical_factory(onoc, scenario.seed),
                             TraceConfig(engine=engine))
        empty = replay_trace(
            trace, optical_factory(onoc, scenario.seed),
            TraceConfig(engine=engine, fault_events=(),
                        mitigation=MITIGATION_DISABLE))
        assert stock.injections == empty.injections
        assert stock.deliveries == empty.deliveries
        assert stock.exec_time_estimate == empty.exec_time_estimate
        assert "resilience" not in stock.extra
        assert "resilience" not in empty.extra


# ---------------------------------------------------------------------------
# Degraded replay: penalties + engine equivalence
# ---------------------------------------------------------------------------

class TestDegradedReplay:
    def test_policies_produce_distinct_penalties(self):
        scenario = GOLDEN_SCENARIOS[0]          # fft -> crossbar
        trace, onoc = _golden(scenario)
        series = _series_for(trace, scenario, intensity=1.0)
        pens = {}
        for mitigation in MITIGATIONS:
            res = replay_trace(
                trace, optical_factory(onoc, scenario.seed),
                TraceConfig(fault_events=series.as_tuples(),
                            mitigation=mitigation))
            payload = res.extra["resilience"]
            assert payload["mitigation"] == mitigation
            assert payload["events"] == len(series)
            pen = payload["penalty"]
            assert pen["total_cycles"] > 0
            assert pen["messages_affected"] <= pen["messages_total"]
            pens[mitigation] = pen
        assert pens[MITIGATION_DISABLE]["total_cycles"] != \
            pens[MITIGATION_REALLOCATE]["total_cycles"]
        # The policies pay in their own currency.
        assert pens[MITIGATION_NONE]["detour_cycles"] == 0
        assert pens[MITIGATION_NONE]["retune_cycles"] == 0
        assert pens[MITIGATION_DISABLE]["detour_cycles"] > 0
        assert pens[MITIGATION_DISABLE]["retune_cycles"] == 0
        assert pens[MITIGATION_REALLOCATE]["retune_cycles"] > 0
        assert pens[MITIGATION_REALLOCATE]["detour_cycles"] == 0

    def test_penalty_curve_covers_epochs(self):
        scenario = GOLDEN_SCENARIOS[0]
        trace, onoc = _golden(scenario)
        series = _series_for(trace, scenario)
        res = replay_trace(
            trace, optical_factory(onoc, scenario.seed),
            TraceConfig(fault_events=series.as_tuples(),
                        mitigation=MITIGATION_NONE))
        curve = res.extra["resilience"]["curve"]
        # One row per epoch: the pristine prefix plus one per distinct
        # event time.
        times = sorted({e.time for e in series})
        assert [row["time"] for row in curve] == [0] + times
        assert curve[0]["level_max_pm"] == 0

    @pytest.mark.parametrize(
        "cell_idx,scenario", list(enumerate(GOLDEN_SCENARIOS)),
        ids=lambda v: v.target if hasattr(v, "target") else str(v))
    def test_degraded_engines_agree(self, cell_idx, scenario):
        trace, onoc = _golden(scenario)
        series = _series_for(trace, scenario,
                             intensity=ENGINE_DEGRADE_INTENSITY,
                             family=ENGINE_DEGRADE_FAMILY)
        mitigation = MITIGATIONS[cell_idx % len(MITIGATIONS)]
        cell = compare_engines(
            trace, onoc,
            TraceConfig(fault_events=series.as_tuples(),
                        mitigation=mitigation),
            scenario.seed, scenario=scenario.workload,
            faults=f"degrade/{mitigation}")
        assert cell.passed, cell.describe()

    def test_hybrid_accounts_only_its_optical_layer(self):
        """A hybrid degrades its optical sublayer only, so only the messages
        ``route_optical`` sends there are priced — and accounted.  (The
        payload used to be computed over every replayed record: 3894 total
        / 2211 affected against 1020 optical sends on fft@0.3.)"""
        scenario = GOLDEN_SCENARIOS[0]          # fft, 16 cores
        trace, onoc = _golden(scenario)
        series = _series_for(trace, scenario, family="thermal_drift")
        nets = []

        def hybrid_factory():
            sim = Simulator(seed=scenario.seed)
            nets.append(HybridNetwork(sim, HybridConfig(
                NocConfig(width=4, height=4), onoc, optical_threshold=4)))
            return sim, nets[-1]

        res = replay_trace(
            trace, hybrid_factory,
            TraceConfig(mode=TRACE_NAIVE, fault_events=series.as_tuples(),
                        mitigation=MITIGATION_NONE))
        net, = nets
        assert 0 < net.sent_optical < res.messages_replayed
        payload = res.extra["resilience"]
        pen = payload["penalty"]
        assert pen["messages_total"] == net.sent_optical
        assert 0 < pen["messages_affected"] <= net.sent_optical
        assert sum(row["messages"] for row in payload["curve"]) \
            == net.sent_optical

    def test_electrical_target_refuses_a_fault_timeseries(self):
        scenario = GOLDEN_SCENARIOS[0]
        trace, _ = _golden(scenario)
        series = _series_for(trace, scenario, family="thermal_drift")
        with pytest.raises(ValueError, match="optical \\(or hybrid\\) target"):
            replay_trace(
                trace,
                electrical_factory(NocConfig(width=4, height=4), 1),
                TraceConfig(fault_events=series.as_tuples()))

    def test_degraded_result_is_deterministic(self):
        scenario = GOLDEN_SCENARIOS[1]          # radix -> awgr
        trace, onoc = _golden(scenario)
        series = _series_for(trace, scenario)
        cfg = TraceConfig(fault_events=series.as_tuples(),
                          mitigation=MITIGATION_REALLOCATE)
        runs = [replay_trace(trace, optical_factory(onoc, scenario.seed),
                             dataclasses.replace(cfg))
                for _ in range(2)]
        assert runs[0].injections == runs[1].injections
        assert runs[0].deliveries == runs[1].deliveries
        assert runs[0].extra["resilience"] == runs[1].extra["resilience"]


# ---------------------------------------------------------------------------
# Degraded replay is byte-identical to the recorded schedule
# ---------------------------------------------------------------------------

#: sha256 per cell of ``_degraded_digest``.  Recorded at commit ff7ac75 (the
#: parent of the PR that moved degradation pricing onto the timing object),
#: before any ``src/`` edit; a refactor of the pricing path must reproduce
#: every one.  Re-record (only for an intended schedule or payload change)
#: with ``PYTHONPATH=src python tests/test_resilience.py``.
DIGESTS_FILE = GOLDEN_DIR / "degraded_digests.json"

DIGEST_CELLS = [
    (scenario, engine, mitigation, mode)
    for scenario in GOLDEN_SCENARIOS
    for engine in (ENGINE_EVENT, ENGINE_GENERATIONAL)
    for mitigation in MITIGATIONS
    for mode in (TRACE_NAIVE, TRACE_SELF_CORRECTING)]


def _cell_id(cell) -> str:
    scenario, engine, mitigation, mode = cell
    return f"{scenario.target}-{engine}-{mitigation}-{mode}"


def _degraded_digest(scenario, engine, mitigation, mode) -> str:
    """Canonical-JSON sha256 of everything a degraded replay decides: the
    schedule, the exec-time estimate and the resilience payload."""
    trace, onoc = _golden(scenario)
    series = _series_for(trace, scenario)
    horizon = max(r.t_inject for r in trace.records)
    # No generator emits wavelength faults; add two so the per-backend
    # lane-share rule is inside the pin.
    series = FaultTimeseries(list(series) + [
        FaultEvent(horizon // 3, "wl:0", 0.4),
        FaultEvent(horizon // 2, "wl:17", 0.6)])
    res = replay_trace(
        trace, optical_factory(onoc, scenario.seed),
        TraceConfig(mode=mode, engine=engine,
                    fault_events=series.as_tuples(), mitigation=mitigation))
    doc = [sorted(res.injections.items()), sorted(res.deliveries.items()),
           res.exec_time_estimate, res.extra["resilience"]]
    return hashlib.sha256(json.dumps(
        doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("cell", DIGEST_CELLS, ids=_cell_id)
def test_degraded_replay_matches_recorded_digest(cell):
    recorded = json.loads(DIGESTS_FILE.read_text())
    assert _degraded_digest(*cell) == recorded[_cell_id(cell)]


if __name__ == "__main__":
    DIGESTS_FILE.write_text(json.dumps(
        {_cell_id(c): _degraded_digest(*c) for c in DIGEST_CELLS},
        indent=1, sort_keys=True) + "\n")
