"""Expiring tables behind every in-memory service table.

Every operation takes the caller's `now` and first drops each entry whose
expiry is at or before it.  One lock makes each operation atomic,
insert-if-absent included.

Expiry order is kept the way ordered timer queues keep it (Varghese and
Lauck, "Hashed and Hierarchical Timing Wheels", SOSP 1987): a table has
one configured lifetime, so entries nearly always arrive in expiry order
and go on an insertion-order queue of keys and expiry objects.  Only an
entry that expires before the queue's tail goes on a min-heap.  A queue
head whose key is gone, or was added again, no longer holds its expiry
object under that key; it is dropped without a time check, so a consumed
entry at the head costs nothing until its old expiry.  Consumed entries
behind a live head are swept out once the queue outgrows twice the table.
"""

from __future__ import annotations

import heapq
import threading
from collections import deque
from typing import Any, Optional


class _ExpiringKeys:
    """Keys, each until its own expiry."""

    def __init__(self) -> None:
        self._expiry: dict[str, float] = {}
        self._queue_keys: deque[str] = deque()
        self._queue_expiry: deque[float] = deque()
        self._late: list[tuple[float, str]] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._expiry)

    def _insert(self, key: str, expires_at: float) -> bool:
        """Record `key` until `expires_at` unless it is live; True iff recorded."""
        if key in self._expiry:
            return False
        self._expiry[key] = expires_at
        if not self._queue_expiry or expires_at >= self._queue_expiry[-1]:
            self._queue_keys.append(key)
            self._queue_expiry.append(expires_at)
        else:
            heapq.heappush(self._late, (expires_at, key))
        return True

    def _drop(self, key: str) -> None:
        del self._expiry[key]

    def _evict(self, now: float) -> None:
        keys, stamps, expiry = self._queue_keys, self._queue_expiry, self._expiry
        while keys:
            stamp = stamps[0]
            if expiry.get(keys[0]) is stamp:
                if stamp > now:
                    break
                self._drop(keys[0])
            keys.popleft()
            stamps.popleft()
        if len(keys) > 2 * len(expiry) + 16:  # keep only the live entries
            live = [(k, s) for k, s in zip(keys, stamps) if expiry.get(k) is s]
            self._queue_keys = deque(k for k, _ in live)
            self._queue_expiry = deque(s for _, s in live)
        late = self._late
        while late and late[0][0] <= now:
            stamp, key = heapq.heappop(late)
            if expiry.get(key) is stamp:
                self._drop(key)


class ExpiringSet(_ExpiringKeys):
    """Keys alone, for tables that only ask whether a key is live."""

    def add(self, key: str, expires_at: float, now: float) -> bool:
        """Insert `key` unless it is live; True iff it was inserted."""
        with self._lock:
            self._evict(now)
            return self._insert(key, expires_at)

    def live(self, key: str, now: float) -> bool:
        with self._lock:
            self._evict(now)
            return key in self._expiry


class ExpiringTable(_ExpiringKeys):
    """A value under each key until the key expires."""

    def __init__(self) -> None:
        super().__init__()
        self._values: dict[str, Any] = {}

    def add(self, key: str, value: Any, expires_at: float, now: float) -> bool:
        """Insert `key` unless it is live; True iff it was inserted."""
        with self._lock:
            self._evict(now)
            if not self._insert(key, expires_at):
                return False
            self._values[key] = value
            return True

    def get(self, key: str, now: float) -> Optional[Any]:
        """The live value under `key`, else None."""
        with self._lock:
            self._evict(now)
            return self._values.get(key)

    def pop(self, key: str, now: float) -> Optional[Any]:
        """Remove and return the live value under `key`, else None."""
        with self._lock:
            self._evict(now)
            value = self._values.get(key)
            if key in self._expiry:
                self._drop(key)
            return value

    def _drop(self, key: str) -> None:
        del self._expiry[key]
        del self._values[key]
