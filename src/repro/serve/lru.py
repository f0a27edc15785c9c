"""Hot in-memory LRU result cache — the fabric's first cache tier.

Sits in front of the on-disk :class:`repro.harness.ResultCache` inside
each serve node.  Entries are the *encoded* result payloads (the same
JSON-ready structures the disk tier stores), keyed by the content hash,
so promotion between tiers is a plain dict move — no re-encoding.

Bounded two ways: entry count and approximate payload bytes (measured at
insertion as the compact-JSON length of the encoded value).  Eviction is
least-recently-*used*: both hits and stores refresh recency.

That text is kept beside the value for :meth:`LRUCache.lookup`: each entry
is resident twice, and a cache full to ``max_bytes`` holds up to that much
text on top of the structures, which the bound does not count.

Single-threaded by design — it lives on the server's asyncio loop, like
the :class:`repro.serve.jobs.JobTable` — so there are no locks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional

from repro.serve import protocol as P

#: Default bounds: plenty for the dedup-heavy request mixes the fabric
#: sees, small enough to never matter next to worker-process memory.
DEFAULT_MAX_ENTRIES = 1024
DEFAULT_MAX_BYTES = 64 * 1024 * 1024


@dataclass
class LRUStats:
    """Monotonic counters, surfaced on the ``status`` op and ``/metrics``."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


class LRUCache:
    """Size- and byte-bounded LRU over encoded result payloads."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES,
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = LRUStats()
        self._entries: OrderedDict[str, tuple[Any, str]] = OrderedDict()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def bytes(self) -> int:
        return self._bytes

    # ------------------------------------------------------------- access
    def get(self, key: str) -> Optional[Any]:
        """The encoded payload under ``key`` (refreshing recency), or None.

        Payloads are never None (a job's encoded result is always a JSON
        structure), so None unambiguously means miss.
        """
        entry = self.lookup(key)
        return None if entry is None else entry[0]

    def lookup(self, key: str) -> Optional[tuple[Any, str]]:
        """:meth:`get`, paired with the compact JSON :meth:`put` measured."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: str, encoded: Any) -> None:
        """Insert/refresh ``key``; evicts LRU entries to stay in bounds.

        A payload larger than ``max_bytes`` on its own is simply not
        cached (the disk tier still has it).
        """
        text = P.dumps(encoded)
        if len(text) > self.max_bytes:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= len(old[1])
        self._entries[key] = (encoded, text)
        self._bytes += len(text)
        while (len(self._entries) > self.max_entries
               or self._bytes > self.max_bytes):
            _, (_, evicted) = self._entries.popitem(last=False)
            self._bytes -= len(evicted)
            self.stats.evictions += 1

    def clear(self) -> int:
        """Drop everything; returns the number of entries removed."""
        n = len(self._entries)
        self._entries.clear()
        self._bytes = 0
        return n
