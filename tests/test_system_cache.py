"""CacheArray unit tests: lookup, LRU, eviction, pinning."""

from __future__ import annotations

import pytest

from repro.config import CacheConfig
from repro.system.cache import CacheArray, CacheLineState

S = CacheLineState.SHARED
M = CacheLineState.MODIFIED
INV = CacheLineState.INVALID


def tiny(assoc=2, sets=2):
    return CacheArray(CacheConfig(size_bytes=assoc * sets * 64, assoc=assoc,
                                  line_bytes=64, hit_latency=1))


def test_miss_then_hit():
    c = tiny()
    assert c.lookup(5) == INV
    assert c.misses == 1
    c.install(5, S)
    assert c.lookup(5) == S
    assert c.hits == 1


def test_peek_does_not_touch_counters():
    c = tiny()
    c.install(5, S)
    h, m = c.hits, c.misses
    assert c.peek(5) == S
    assert c.peek(7) == INV
    assert (c.hits, c.misses) == (h, m)


def test_install_into_free_way_no_eviction():
    c = tiny(assoc=2, sets=1)
    assert c.install(0, S) is None
    assert c.install(1, M) is None
    assert c.occupancy == 2


def test_lru_eviction_order():
    c = tiny(assoc=2, sets=1)
    c.install(0, S)
    c.install(1, S)
    c.lookup(0)                      # 0 is now MRU
    evicted = c.install(2, S)
    assert evicted == (1, S)         # LRU victim
    assert c.peek(1) == INV
    assert c.evictions == 1


def test_install_refresh_in_place():
    c = tiny(assoc=2, sets=1)
    c.install(0, S)
    assert c.install(0, M) is None   # state upgrade, no eviction
    assert c.peek(0) == M
    assert c.occupancy == 1


def test_set_state_and_invalidate():
    c = tiny()
    c.install(4, S)
    c.set_state(4, M)
    assert c.peek(4) == M
    assert c.invalidate(4) == M
    assert c.peek(4) == INV
    assert c.invalidate(4) == INV      # idempotent
    with pytest.raises(KeyError):
        c.set_state(4, S)


def test_set_state_invalid_drops_line():
    c = tiny()
    c.install(4, S)
    c.set_state(4, CacheLineState.INVALID)
    assert c.peek(4) == INV
    assert c.occupancy == 0


def test_install_invalid_state_rejected():
    c = tiny()
    with pytest.raises(ValueError):
        c.install(1, INV)


def test_victim_veto_picks_other_way():
    c = tiny(assoc=2, sets=1)
    c.install(0, M)
    c.install(1, S)
    c.lookup(0)  # 0 MRU, so 1 would be the LRU victim
    evicted = c.install(2, S, victim_ok=lambda line, st: line != 1)
    assert evicted == (0, M)         # veto forced the MRU way out


def test_all_ways_pinned_raises():
    c = tiny(assoc=2, sets=1)
    c.install(0, M)
    c.install(1, M)
    with pytest.raises(RuntimeError, match="pinned"):
        c.install(2, S, victim_ok=lambda line, st: False)


def test_sets_are_independent():
    c = tiny(assoc=1, sets=4)
    for line in range(4):            # each maps to its own set
        c.install(line, S)
    assert c.occupancy == 4
    assert c.install(4, S) == (0, S)  # conflicts only with line 0's set


def test_resident_lines_sorted():
    c = tiny(assoc=4, sets=4)
    for line in (9, 2, 7):
        c.install(line, S)
    assert c.resident_lines() == [2, 7, 9]


def test_negative_line_rejected():
    c = tiny()
    with pytest.raises(ValueError):
        c.lookup(-1)


# --- sets are built on first touch ---------------------------------------

def test_fresh_array_holds_no_lines():
    c = tiny(assoc=4, sets=64)
    assert not c._sets
    assert c.resident_lines() == [] and c.occupancy == 0


def test_never_addressed_set_answers_invalid():
    c = tiny(assoc=2, sets=4)
    c.install(1, S)                  # set 1 only
    assert c.peek(2) == INV
    assert (c.hits, c.misses) == (0, 0)
    assert c.lookup(3) == INV
    assert (c.hits, c.misses) == (0, 1)
    assert c.invalidate(0) == INV
    with pytest.raises(KeyError):
        c.set_state(4, M)
    assert c.resident_lines() == [1]


def test_fill_evict_refill_over_two_sets():
    """Victims and residents recorded on the eagerly built array: sets 1
    and 2 of 4 are used, sets 0 and 3 never addressed."""
    c = tiny(assoc=2, sets=4)
    victims = [c.install(line, st)
               for line, st in [(1, S), (5, M), (2, S), (6, S)]]
    c.lookup(1)                      # 1 becomes MRU of set 1
    victims.append(c.install(9, S))
    victims.append(c.install(10, M))
    c.invalidate(9)
    victims.append(c.install(13, S))   # the freed way, no victim
    victims.append(c.install(5, S))    # refill set 1
    victims.append(c.install(2, S))    # refill set 2
    assert victims == [None, None, None, None, (5, M), (2, S), None,
                       (1, S), (6, S)]
    assert c.resident_lines() == [2, 5, 10, 13]
    assert (c.occupancy, c.evictions, c.hits, c.misses) == (4, 4, 1, 0)
