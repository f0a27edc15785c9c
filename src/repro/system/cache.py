"""Set-associative cache array with LRU replacement and MSI line states."""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.config import CacheConfig


class CacheLineState(enum.IntEnum):
    """MSI stable states (the L2 data array only uses PRESENT/INVALID
    semantics and stores VALID)."""

    INVALID = 0
    SHARED = 1
    MODIFIED = 2
    VALID = 3


class _Line:
    __slots__ = ("tag", "state", "lru")

    def __init__(self) -> None:
        self.tag = -1
        self.state = CacheLineState.INVALID
        self.lru = 0


class CacheArray:
    """One cache structure addressed by *line index* (byte addr / line size).

    The array tracks tags and states only — simulated data values are never
    materialised (timing simulation does not need them).  A set's ways are
    built when the set is first addressed: a run touches a small part of a
    large array, and an untouched set is all-INVALID by definition.
    """

    def __init__(self, cfg: CacheConfig) -> None:
        self.cfg = cfg
        self.num_sets = cfg.num_sets
        self.assoc = cfg.assoc
        self._sets: dict[int, list[_Line]] = {}    # set index -> ways
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -------------------------------------------------------------- lookup
    def _set_of(self, line_index: int) -> list[_Line]:
        if line_index < 0:
            raise ValueError(f"negative line index {line_index}")
        index = line_index % self.num_sets
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = [_Line() for _ in range(self.assoc)]
        return ways

    def lookup(self, line_index: int) -> CacheLineState:
        """State of ``line_index`` (INVALID if absent); touches LRU on hit."""
        for way in self._set_of(line_index):
            if way.tag == line_index and way.state != CacheLineState.INVALID:
                self._tick += 1
                way.lru = self._tick
                self.hits += 1
                return way.state
        self.misses += 1
        return CacheLineState.INVALID

    def peek(self, line_index: int) -> CacheLineState:
        """State without touching LRU or hit/miss counters."""
        for way in self._set_of(line_index):
            if way.tag == line_index and way.state != CacheLineState.INVALID:
                return way.state
        return CacheLineState.INVALID

    # ------------------------------------------------------------- update
    def set_state(self, line_index: int, state: CacheLineState) -> None:
        """Change the state of a resident line (or drop it with INVALID)."""
        for way in self._set_of(line_index):
            if way.tag == line_index and way.state != CacheLineState.INVALID:
                way.state = state
                if state == CacheLineState.INVALID:
                    way.tag = -1
                return
        raise KeyError(f"line {line_index} not resident")

    def install(
        self,
        line_index: int,
        state: CacheLineState,
        victim_ok: Optional[Callable[[int, CacheLineState], bool]] = None,
    ) -> Optional[tuple[int, CacheLineState]]:
        """Insert a line, evicting LRU if the set is full.

        ``victim_ok(line, state)`` may veto candidate victims (the L2 slice
        uses it to pin lines with live directory state).  Returns the evicted
        ``(line_index, state)`` or None.  Raises ``RuntimeError`` if the set
        is full and every resident line is vetoed (caller should bypass
        allocation instead).
        """
        if state == CacheLineState.INVALID:
            raise ValueError("cannot install a line in INVALID state")
        ways = self._set_of(line_index)
        self._tick += 1
        # Refresh in place if already present.
        for way in ways:
            if way.tag == line_index and way.state != CacheLineState.INVALID:
                way.state = state
                way.lru = self._tick
                return None
        # Free way?
        for way in ways:
            if way.state == CacheLineState.INVALID:
                way.tag = line_index
                way.state = state
                way.lru = self._tick
                return None
        # Evict LRU among allowed victims.
        candidates = [
            w for w in ways if victim_ok is None or victim_ok(w.tag, w.state)
        ]
        if not candidates:
            raise RuntimeError(
                f"no evictable way for line {line_index} (all pinned)"
            )
        victim = min(candidates, key=lambda w: w.lru)
        evicted = (victim.tag, victim.state)
        self.evictions += 1
        victim.tag = line_index
        victim.state = state
        victim.lru = self._tick
        return evicted

    def invalidate(self, line_index: int) -> CacheLineState:
        """Drop a line if resident; returns its prior state."""
        for way in self._set_of(line_index):
            if way.tag == line_index and way.state != CacheLineState.INVALID:
                prior = way.state
                way.tag = -1
                way.state = CacheLineState.INVALID
                return prior
        return CacheLineState.INVALID

    # ------------------------------------------------------------ queries
    def resident_lines(self) -> list[int]:
        """All resident line indices (test/inspection hook)."""
        return sorted(
            w.tag
            for s in self._sets.values()
            for w in s
            if w.state != CacheLineState.INVALID
        )

    @property
    def occupancy(self) -> int:
        return sum(
            1
            for s in self._sets.values()
            for w in s
            if w.state != CacheLineState.INVALID
        )
