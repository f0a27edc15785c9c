"""``_FifoModel.serve_batch`` against the FIFO rule it solves in closed form.

The model serves a batch in one carry-state pass — one cumsum of
occupancy, one segmented running maximum, the carried release entering at
each channel's first message — and hands the channel state to the next
batch.  The reference here walks the same messages one at a time in
``(inject, msg_id)`` order, with nothing but the scalar rule:

    start   = max(inject, last release of the message's channel)
    release = start + token travel (crossbar) + serialization + penalty
    deliver = release + tail + the penalty's delivery-only part

over 1–4 consecutive batches, on the three FIFO backends, pristine and
degraded.  Deliveries, the carried releases and the token parking must be
equal.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.generational import _NEG, _FifoModel, _segmented_cummax
from repro.onoc.timing import timing_for
from repro.resilience import DegradationOverlay, generate_timeseries
from repro.synth import synth_onoc

NODES = 8
FIFO = ("crossbar", "swmr_crossbar", "awgr")
HIGH = 1 << 61          # far injections: span x segments passes 2^62


@lru_cache(maxsize=None)
def _series():
    return generate_timeseries("thermal_drift+corruption_bursts", seed=3,
                               num_nodes=NODES, horizon=200, intensity=0.9)


def _timing(topology: str, degraded: bool):
    timing = timing_for(synth_onoc(topology, NODES))
    if degraded:
        DegradationOverlay.build(_series(), timing)
    return timing


def _reference(timing, src, dst, size, inject):
    """Deliveries, last release per channel and token parking, one message
    at a time in ``(inject, msg_id)`` order."""
    last = [0] * timing.num_resources
    token_at = list(range(NODES))
    deliver = [0] * len(src)
    for i in sorted(range(len(src)), key=lambda i: (inject[i], i)):
        s, d = src[i], dst[i]
        res = timing.resource(s, d)
        ser = timing.serialization(size[i])
        occ, lat = ser, 0
        if timing.token_travel is not None:
            occ += timing.token_travel(token_at[res], s)
            token_at[res] = s
        if timing.penalty is not None:
            occ_x, lat_x = timing.penalty(inject[i], s, d, ser)
            occ, lat = occ + int(occ_x), int(lat_x)
        last[res] = max(inject[i], last[res]) + occ
        deliver[i] = last[res] + timing.tail(s, d) + lat
    return deliver, last, token_at


def _check(topology, degraded, messages, cuts):
    """Serve ``messages`` — ``(src, dst, size, inject)`` — in the batches
    ``cuts`` splits their (inject, msg_id) order into, and compare."""
    src, dst, size, inject = (list(col) for col in zip(*messages))
    timing = _timing(topology, degraded)
    ref_deliver, ref_last, ref_token = _reference(
        timing, src, dst, size, inject)
    arrays = [np.asarray(col, dtype=np.int64)
              for col in (src, dst, size, inject)]
    model = _FifoModel(timing, np.arange(len(src), dtype=np.int64),
                       *arrays[:3])
    carry, token_at = model.begin()
    order = np.lexsort((np.arange(len(src)), arrays[3]))
    deliver = np.full(len(src), _NEG, dtype=np.int64)
    for b in np.split(order, sorted(cuts)):
        if len(b):
            model.serve_batch(b, arrays[3], deliver)
    assert deliver.tolist() == ref_deliver
    assert carry.tolist() == ref_last
    assert token_at.tolist() == ref_token


@st.composite
def fifo_cases(draw):
    topology = draw(st.sampled_from(FIFO))
    n = draw(st.integers(1, 40))
    far = draw(st.booleans())
    messages = []
    for _ in range(n):
        src = draw(st.integers(0, NODES - 1))
        dst = draw(st.integers(0, NODES - 2))
        t = draw(st.integers(0, 60))
        messages.append((src, dst + (dst >= src), draw(st.integers(1, 512)),
                         t + (HIGH if far and draw(st.booleans()) else 0)))
    cuts = draw(st.lists(st.integers(0, n), max_size=3))
    return topology, draw(st.booleans()), messages, cuts


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(fifo_cases())
def test_serve_batch_is_the_scalar_fifo(case):
    _check(*case)


def _spread(n: int):
    """``n`` messages, each on a channel of its own on every backend."""
    return [(i, (i + 1) % NODES, 64, 5 * (i % 3)) for i in range(n)]


def _one_channel(topology: str, n: int):
    """``n`` messages that all queue on one channel."""
    if topology == "crossbar":          # channel = destination
        return [(1 + i % (NODES - 1), 0, 64 + i, i // 3) for i in range(n)]
    return [(2, 5, 64 + i, i // 3) for i in range(n)]


@pytest.mark.parametrize("degraded", (False, True),
                         ids=("pristine", "degraded"))
@pytest.mark.parametrize("topology", FIFO)
def test_every_message_alone_and_every_message_on_one_channel(
        topology, degraded):
    _check(topology, degraded, _spread(NODES), [])
    _check(topology, degraded, _spread(NODES), [3, 5])
    _check(topology, degraded, _one_channel(topology, 30), [])
    _check(topology, degraded, _one_channel(topology, 30), [7, 7, 20])


@pytest.mark.parametrize("topology", FIFO)
def test_far_injections_take_the_per_segment_loop(topology):
    """Injections near 0 and near 2^61 on many channels: the band offsets
    of ``_segmented_cummax`` would overflow, so it takes its loop."""
    messages = [(i % NODES, (i + 1 + i // NODES) % NODES, 64,
                 i + (HIGH if i % 2 else 0)) for i in range(3 * NODES)]
    messages = [m for m in messages if m[0] != m[1]]
    x = np.array([m[3] for m in messages], dtype=np.int64)
    seg_start = np.ones(len(x), dtype=bool)
    span = int(x.max()) - int(x.min()) + 1
    assert span >= (1 << 62) // len(x)
    assert _segmented_cummax(x.copy(), seg_start).tolist() == x.tolist()
    _check(topology, False, messages, [])
    _check(topology, True, messages, [len(messages) // 2])
