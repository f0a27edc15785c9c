"""The dependency plan (:mod:`repro.core.plan`), checked against hand-computed
classifications and structural properties — independent of either scheduler.

Both replay engines read this plan, so their differential can no longer
notice a wrong classification: these tests are what pins it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GAP_POLICY_CAPTURED, GAP_POLICY_NEIGHBOR
from repro.core import Trace, TraceRecord
from repro.core.plan import Columns, classify
from repro.core.trace import DEGRADED_RECORDS_META_KEY
from tests.test_properties_trace import traces

NODES = 4


def rec(mid, src, t_in, cause=-1, gap=None):
    dst = (src + 1) % NODES
    return TraceRecord(
        msg_id=mid, key=(src, dst, "synthetic", mid, 0), src=src, dst=dst,
        size_bytes=8, kind="synthetic", t_inject=t_in, t_deliver=t_in + 10,
        cause_id=cause, gap=(t_in if cause == -1 else gap))


def trace_of(*records, marked=None) -> Trace:
    meta = {} if marked is None else {DEGRADED_RECORDS_META_KEY: marked}
    return Trace(records=list(records), end_markers=[], exec_time=0,
                 meta=meta)


def plan_of(trace, policy, keep=1.0, seed=12345):
    return classify(trace, keep_dep_fraction=keep, dep_drop_seed=seed,
                    degraded_gap_policy=policy)


def view(plan) -> dict:
    """The plan in msg_ids (edges and roots in the plan's own order)."""
    ids = plan.cols.ids
    order = plan.root_order
    return dict(
        roots=ids[order].tolist(),
        root_times=plan.root_time[order].tolist(),
        dependent=ids[plan.dependent].tolist(),
        anchored=ids[plan.anchored].tolist(),
        degraded=ids[plan.degraded].tolist(),
        deliver=list(zip(ids[plan.d_parent].tolist(),
                         ids[plan.d_child].tolist(), plan.d_gap.tolist())),
        anchor=list(zip(ids[plan.a_parent].tolist(),
                        ids[plan.a_child].tolist(), plan.a_delta.tolist())),
        demoted=plan.demoted,
        dropped_deps=plan.dropped_deps,
        marked_degraded=plan.marked_degraded,
        missing_triggers=plan.missing_triggers,
        fallback_captured=plan.fallback_captured,
    )


# Two sends hang off root 0: record 1 follows it on node 0, record 2 is the
# first send of node 1 (captured order on node 1: 2 @20, then 3 @40).
FORK = (rec(0, 0, 0), rec(1, 0, 30, cause=0, gap=5),
        rec(2, 1, 20, cause=0, gap=9), rec(3, 1, 40))
# Record 1 names a trigger (99) the trace does not hold; 2 waits on 1.
LOST = (rec(0, 0, 0), rec(1, 0, 30, cause=99, gap=5),
        rec(2, 1, 50, cause=1, gap=2))
# 7 and 4 wait on each other (listed 7 first); 3 hangs off 4.
CYCLE = (rec(0, 0, 0), rec(7, 1, 20, cause=4, gap=0),
         rec(4, 2, 20, cause=7, gap=0), rec(3, 1, 40, cause=4, gap=10))
# 5 and 6 wait behind 4, whose trigger is missing: a diagnosable stall,
# not a cycle to demote.
TAINTED = (rec(0, 0, 0), rec(4, 1, 10, cause=99, gap=1),
           rec(5, 2, 20, cause=4, gap=0), rec(6, 3, 20, cause=5, gap=0))

# 9 and 8 wait on each other, 3 on itself; 5 -> 6 hang off the first cycle
# and 2 off the second, 4 behind 1, whose trigger (77) is missing.
TWO_CYCLES = (rec(0, 0, 0), rec(9, 1, 20, cause=8, gap=0),
              rec(8, 2, 20, cause=9, gap=0), rec(5, 3, 30, cause=9, gap=0),
              rec(6, 0, 30, cause=5, gap=0), rec(3, 1, 40, cause=3, gap=0),
              rec(2, 2, 50, cause=3, gap=0), rec(1, 3, 50, cause=77, gap=0),
              rec(4, 0, 60, cause=1, gap=0))

EMPTY = dict(dependent=[], anchored=[], degraded=[], deliver=[],
             anchor=[], demoted=[], dropped_deps=0, marked_degraded=0,
             missing_triggers=0, fallback_captured=0)

CASES = [
    pytest.param(
        trace_of(*FORK), GAP_POLICY_NEIGHBOR, 1.0,
        dict(roots=[0, 3], root_times=[0, 40], dependent=[1, 2],
             deliver=[(0, 1, 5), (0, 2, 9)]),
        id="intact"),
    pytest.param(
        trace_of(*FORK), GAP_POLICY_NEIGHBOR, 0.0,
        # 1 rides its node-0 predecessor 0; 2 has none on node 1 and falls
        # back to its captured timestamp, after the classification roots.
        dict(roots=[0, 3, 2], root_times=[0, 40, 20], anchored=[1],
             degraded=[1, 2], anchor=[(0, 1, 30)],
             dropped_deps=2, fallback_captured=1),
        id="ablated-neighbor_gap"),
    pytest.param(
        trace_of(rec(0, 0, 0), rec(5, 2, 50, cause=0, gap=1),
                 rec(2, 1, 20, cause=0, gap=1)), GAP_POLICY_NEIGHBOR, 0.0,
        # Fallback roots are seeded in captured (t_inject, msg_id) order,
        # not in records order.
        dict(roots=[0, 2, 5], root_times=[0, 20, 50], degraded=[5, 2],
             dropped_deps=2, fallback_captured=2),
        id="ablated-fallback-order"),
    pytest.param(
        trace_of(*FORK), GAP_POLICY_CAPTURED, 0.0,
        dict(roots=[0, 1, 2, 3], root_times=[0, 30, 20, 40],
             dropped_deps=2),
        id="ablated-captured"),
    pytest.param(
        trace_of(*FORK, marked=[3, 77]), GAP_POLICY_NEIGHBOR, 1.0,
        # Flagged root 3 anchors to 2, the send before it on node 1; the
        # flagged id 77 is not in the trace and counts for nothing.
        dict(roots=[0], root_times=[0], dependent=[1, 2], anchored=[3],
             degraded=[3], deliver=[(0, 1, 5), (0, 2, 9)], anchor=[(2, 3, 20)],
             marked_degraded=1),
        id="marked-root-anchored"),
    pytest.param(
        trace_of(*FORK, marked=[0]), GAP_POLICY_NEIGHBOR, 1.0,
        dict(roots=[3, 0], root_times=[40, 0], dependent=[1, 2],
             degraded=[0], deliver=[(0, 1, 5), (0, 2, 9)], marked_degraded=1,
             fallback_captured=1),
        id="marked-root-no-predecessor"),
    pytest.param(
        trace_of(*FORK, marked=[3]), GAP_POLICY_CAPTURED, 1.0,
        dict(roots=[0, 3], root_times=[0, 40], dependent=[1, 2],
             deliver=[(0, 1, 5), (0, 2, 9)], marked_degraded=1),
        id="marked-root-captured"),
    pytest.param(
        trace_of(*LOST), GAP_POLICY_CAPTURED, 1.0,
        # 1 stalls on the absent 99 and 2 behind it: both stay dependents,
        # 2's edge hanging off a parent that never fires.
        dict(roots=[0], root_times=[0], dependent=[1, 2],
             deliver=[(1, 2, 2)], missing_triggers=1),
        id="missing-trigger-captured"),
    pytest.param(
        trace_of(*LOST), GAP_POLICY_NEIGHBOR, 1.0,
        dict(roots=[0], root_times=[0], dependent=[2], anchored=[1],
             degraded=[1], deliver=[(1, 2, 2)],
             anchor=[(0, 1, 30)], missing_triggers=1),
        id="missing-trigger-neighbor_gap"),
    pytest.param(
        trace_of(*CYCLE), GAP_POLICY_NEIGHBOR, 1.0,
        # The cycle members become captured-timestamp roots, by msg_id;
        # their descendant 3 then fires off 4's delivery.
        dict(roots=[0, 4, 7], root_times=[0, 20, 20], dependent=[3],
             deliver=[(4, 3, 10)], demoted=[4, 7]),
        id="cycle-demoted"),
    pytest.param(
        trace_of(*TAINTED), GAP_POLICY_CAPTURED, 1.0,
        dict(roots=[0], root_times=[0], dependent=[4, 5, 6],
             deliver=[(4, 5, 0), (5, 6, 0)], missing_triggers=1),
        id="blocked-but-tainted"),
    pytest.param(
        trace_of(*TWO_CYCLES), GAP_POLICY_CAPTURED, 1.0,
        # Only the members of the 2-cycle and of the self-loop are demoted,
        # whichever record a pointer walk starts from.
        dict(roots=[0, 3, 8, 9], root_times=[0, 40, 20, 20],
             dependent=[5, 6, 2, 1, 4],
             deliver=[(9, 5, 0), (5, 6, 0), (3, 2, 0), (1, 4, 0)],
             demoted=[3, 8, 9], missing_triggers=1),
        id="cycles-demoted-tails-kept"),
    pytest.param(
        trace_of(rec(0, 0, 0), rec(1, 1, 0), rec(2, 2, 40, cause=1, gap=30),
                 rec(3, 3, 40, cause=0, gap=30),
                 rec(4, 0, 40, cause=1, gap=30)), GAP_POLICY_NEIGHBOR, 1.0,
        # Deliver edges come in records order of the child, whatever order
        # their causes come in: the order the event queue releases
        # same-time children in.
        dict(roots=[0, 1], root_times=[0, 0], dependent=[2, 3, 4],
             deliver=[(1, 2, 30), (0, 3, 30), (1, 4, 30)]),
        id="deliver-edges-in-child-order"),
]


@pytest.mark.parametrize("trace, policy, keep, expected", CASES)
def test_classification_table(trace, policy, keep, expected):
    assert view(plan_of(trace, policy, keep)) == {**EMPTY, **expected}


@pytest.mark.parametrize("seed", [7, 12345])
def test_ablation_draws_once_per_cause_bearing_record(seed):
    """One ``default_rng(seed).random()`` per cause-bearing record in
    records order; roots draw nothing."""
    records = [rec(0, 0, 0)]
    for i in range(1, 40):
        records.append(rec(i, i % NODES, 10 * i) if i % 3 == 0 else
                       rec(i, i % NODES, 10 * i, cause=i - 1, gap=0))
    trace = trace_of(*records)
    rng = np.random.default_rng(seed)
    dropped = [r.msg_id for r in records
               if r.cause_id != -1 and not rng.random() < 0.5]
    assert 0 < len(dropped) < 26
    plan = plan_of(trace, GAP_POLICY_CAPTURED, keep=0.5, seed=seed)
    assert plan.dropped_deps == len(dropped)
    assert view(plan)["roots"] == [
        r.msg_id for r in records
        if r.cause_id == -1 or r.msg_id in dropped]
    # No fraction to apply, no draw: nothing is dropped at 1.0.
    assert plan_of(trace, GAP_POLICY_CAPTURED, seed=seed).dropped_deps == 0


def test_columns_memo_follows_the_records():
    trace = trace_of(*FORK)
    cols = Columns.of(trace)
    assert Columns.of(trace) is cols
    trace.records[1] = rec(1, 0, 35, cause=0, gap=10)   # same list, same len
    edited = Columns.of(trace)
    assert edited is not cols and edited.t_inject.tolist() == [0, 35, 20, 40]
    trace.records = list(trace.records)                 # equal records: a hit
    assert Columns.of(trace) is edited
    trace.records.append(rec(9, 2, 90))
    assert Columns.of(trace).n == 5


# ------------------------------------------------------------- properties
@st.composite
def damaged(draw):
    """A generated trace with records deleted and ids flagged degraded, plus
    the scalars to classify it under."""
    trace = draw(traces())
    lost = draw(st.sets(st.sampled_from(trace.records), max_size=5))
    records = [r for r in trace.records if r not in lost]
    marked = draw(st.lists(st.integers(0, len(trace.records) + 2),
                           max_size=6))
    return (trace_of(*records, marked=marked),
            draw(st.sampled_from([GAP_POLICY_CAPTURED, GAP_POLICY_NEIGHBOR])),
            draw(st.sampled_from([1.0, 0.7, 0.3, 0.0])),
            draw(st.integers(0, 2**31)))


@given(damaged())
@settings(max_examples=150, deadline=None)
def test_plan_is_a_consistent_partition(case):
    trace, policy, keep, seed = case
    plan = plan_of(trace, policy, keep, seed)
    records, n = trace.records, len(trace.records)
    ids = {r.msg_id for r in records}

    # Exactly one of root / dependent / anchored, and the seeding order
    # lists each root once.
    assert (plan.root.astype(int) + plan.dependent + plan.anchored
            == np.ones(n, dtype=int)).all()
    assert sorted(plan.root_order.tolist()) == np.flatnonzero(
        plan.root).tolist()
    if policy == GAP_POLICY_CAPTURED:
        assert not plan.degraded.any()
    assert ((plan.degraded & ~plan.root) == plan.anchored).all()

    # Counts are sums over the records.
    rng = np.random.default_rng(seed)
    kept = [r.cause_id != -1 and (keep >= 1.0 or bool(rng.random() < keep))
            for r in records]
    assert plan.dropped_deps == sum(
        r.cause_id != -1 and not k for r, k in zip(records, kept))
    assert plan.missing_triggers == sum(
        k and r.cause_id != -1 and r.cause_id not in ids
        for r, k in zip(records, kept))
    assert plan.marked_degraded == len(
        ids & set(trace.meta[DEGRADED_RECORDS_META_KEY]))
    assert plan.fallback_captured == int((plan.degraded & plan.root).sum())
    assert plan.demoted == []           # generated traces are acyclic

    # Roots wait on nothing, any other record on at most one edge; every
    # deliver edge is the cause edge the child record names.
    in_edges = np.bincount(
        np.concatenate([plan.d_child, plan.a_child]), minlength=n)
    assert not in_edges[plan.root].any()
    assert (in_edges <= 1).all()
    assert plan.dependent[plan.d_child].all()
    assert plan.anchored[plan.a_child].all()
    for p, c, gap in zip(plan.d_parent.tolist(), plan.d_child.tolist(),
                         plan.d_gap.tolist()):
        child = records[c]
        assert (records[p].msg_id, gap) == (child.cause_id, child.gap)

    # An anchor is the send before its child on the same source node.
    for p, c, delta in zip(plan.a_parent.tolist(), plan.a_child.tolist(),
                           plan.a_delta.tolist()):
        anchor, child = records[p], records[c]
        assert anchor.src == child.src
        assert (anchor.t_inject, anchor.msg_id) < (child.t_inject,
                                                   child.msg_id)
        assert delta == child.t_inject - anchor.t_inject
        assert not any(
            r.src == child.src
            and (anchor.t_inject, anchor.msg_id) < (r.t_inject, r.msg_id)
            < (child.t_inject, child.msg_id) for r in records)
