"""Expiring key/value table behind every in-memory service table.

Every operation takes the caller's `now` and first drops each entry whose
expiry is at or before it, popping a min-heap of expiry times rather than
scanning.  One lock makes each operation atomic, insert-if-absent included.
"""

from __future__ import annotations

import heapq
import threading
from typing import Any, Optional


class ExpiringTable:
    def __init__(self) -> None:
        self._entries: dict[str, tuple[float, Any]] = {}
        self._heap: list[tuple[float, str]] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, key: str, value: Any, expires_at: float, now: float) -> bool:
        """Insert `key` unless it is live; True iff it was inserted."""
        with self._lock:
            self._evict(now)
            if key in self._entries:
                return False
            self._entries[key] = (expires_at, value)
            heapq.heappush(self._heap, (expires_at, key))
            return True

    def get(self, key: str, now: float) -> Optional[Any]:
        """The live value under `key`, else None."""
        with self._lock:
            self._evict(now)
            entry = self._entries.get(key)
        return None if entry is None else entry[1]

    def pop(self, key: str, now: float) -> Optional[Any]:
        """Remove and return the live value under `key`, else None."""
        with self._lock:
            self._evict(now)
            entry = self._entries.pop(key, None)
        return None if entry is None else entry[1]

    def _evict(self, now: float) -> None:
        while self._heap and self._heap[0][0] <= now:
            _, key = heapq.heappop(self._heap)
            entry = self._entries.get(key)
            # the key may have been popped and added again with a later expiry
            if entry is not None and entry[0] <= now:
                del self._entries[key]
