"""``TraceCapture.finalize`` refuses a broken run the way it always has.

Each case feeds hand-stamped messages straight into a capture and pins the
exception type and text ``finalize`` raises.  The texts were recorded
before ``finalize`` stopped building every record twice; the message ids
are fixed so a refusal that names a message names the id the run gave it.
Two cases hold two faults each, in an order where the send order and the
injection order disagree: the first fault in send order is the one
reported.
"""

from __future__ import annotations

import pytest

from repro.core import TraceCapture
from repro.net import Message
from repro.system.protocol import ProtPayload


def msg(mid, src=0, dst=1, inject=0, deliver=10, cause=None):
    m = Message(src, dst, 64, "req_read", msg_id=mid,
                payload=ProtPayload(line=mid, cause=cause))
    m.inject_time, m.deliver_time = inject, deliver
    return m


def undelivered():
    return [msg(100, deliver=-1)]


def cause_late():
    a = msg(100, inject=0, deliver=20)
    return [a, msg(101, inject=5, deliver=30, cause=a)]


def self_addressed():
    return [msg(100, inject=0, deliver=10), msg(101, src=2, dst=2, inject=3)]


def delivered_early():
    return [msg(100, inject=10, deliver=4)]


def never_injected():
    return [msg(100, inject=-1, deliver=4)]


def bad_record_then_undelivered():
    return [msg(100, inject=9, src=1, dst=1), msg(101, inject=2, deliver=-1)]


def causality_then_bad_record():
    a = msg(100, inject=0, deliver=20)
    return [a, msg(101, inject=5, deliver=30, cause=a),
            msg(102, inject=1, src=3, dst=3)]


CASES = {
    "undelivered": (undelivered, RuntimeError, "was captured but never delivered"),
    "cause_late": (cause_late, RuntimeError,
                   "message 101 injected 15 cycles before its cause was "
                   "delivered — causality bug"),
    "self_addressed": (self_addressed, ValueError, "bad endpoints in record 101"),
    "delivered_early": (delivered_early, ValueError,
                        "record 100 delivered before injected"),
    "never_injected": (never_injected, ValueError,
                       "record 100 has negative gap -1"),
    "bad_record_then_undelivered": (bad_record_then_undelivered, ValueError,
                                    "bad endpoints in record 100"),
    "causality_then_bad_record": (causality_then_bad_record, RuntimeError,
                                  "message 101 injected 15 cycles before its "
                                  "cause was delivered — causality bug"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_finalize_refusal(case):
    build, exc_type, text = CASES[case]
    cap = TraceCapture()
    for m in build():
        cap.on_network_send(m)
    with pytest.raises(exc_type) as exc:
        cap.finalize()
    assert type(exc.value) is exc_type
    assert text in str(exc.value)


def test_end_marker_refusal_comes_after_the_records():
    """A core that finished before its last arrival is refused by the end
    marker — and only once every record has been checked."""
    cap = TraceCapture()
    a = msg(100, inject=0, deliver=20)
    cap.on_network_send(a)
    cap.on_core_finish(0, 5, a)
    with pytest.raises(ValueError, match="end marker for node 0: negative gap"):
        cap.finalize()
    cap.on_network_send(msg(101, src=1, dst=1, inject=30))
    with pytest.raises(ValueError, match="bad endpoints in record 101"):
        cap.finalize()


def test_finalize_numbers_records_in_injection_order():
    """Ids are canonicalised to 0..n-1 by (injection time, run id); causes
    and end markers follow the renumbering."""
    cap = TraceCapture()
    a = msg(500, inject=4, deliver=9)
    b = msg(300, src=1, dst=0, inject=4, deliver=8)
    c = msg(900, src=2, dst=3, inject=1, deliver=3)
    d = msg(700, src=1, dst=2, inject=12, deliver=20, cause=a)
    for m in (a, b, c, d):
        cap.on_network_send(m)
    cap.on_core_finish(1, 25, d)
    trace = cap.finalize()
    assert [(r.msg_id, r.src, r.dst, r.t_inject) for r in trace.records] == [
        (0, 2, 3, 1), (1, 1, 0, 4), (2, 0, 1, 4), (3, 1, 2, 12)]
    last = trace.records[3]
    assert (last.cause_id, last.gap) == (2, 3)
    assert [(m.node, m.cause_id, m.gap) for m in trace.end_markers] == [(1, 3, 5)]
