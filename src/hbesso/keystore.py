"""File-backed key store: one `key-id<TAB>base64-key` entry per line.

Master and federation keys live here, separate from the identity
directory.
"""

from __future__ import annotations

import base64
import os
from random import Random
from typing import Iterable, Optional

from . import cipher
from .keyexchange import KEY_SIZE, rand_bytes


class KeyStoreError(Exception):
    pass


class KeyStore:
    def __init__(self, keys: Optional[dict[str, bytes]] = None):
        self._keys: dict[str, bytes] = dict(keys or {})
        for key_id, key in self._keys.items():
            _check_entry(key_id, key)
        # key id -> its expanded schedule, filled on first use
        self._schedules: dict[str, cipher.KeySchedule] = {}

    def get(self, key_id: str) -> bytes:
        try:
            return self._keys[key_id]
        except KeyError:
            raise KeyStoreError(f"key id {key_id!r} not in store") from None

    def schedule(self, key_id: str) -> cipher.KeySchedule:
        """The key's round-key schedule, expanded on first use and kept."""
        schedule = self._schedules.get(key_id)
        if schedule is None:
            schedule = self._schedules[key_id] = cipher.expand_key(self.get(key_id))
        return schedule

    def add(self, key_id: str, key: bytes) -> None:
        _check_entry(key_id, key)
        self._keys[key_id] = key
        self._schedules.pop(key_id, None)

    def generate(self, key_id: str, rng: Optional[Random] = None) -> bytes:
        key = rand_bytes(rng, KEY_SIZE)
        self.add(key_id, key)
        return key

    def key_ids(self) -> list[str]:
        return sorted(self._keys)

    def save(self, path: str) -> None:
        lines = (f"{k}\t{base64.b64encode(self._keys[k]).decode('ascii')}\n" for k in self.key_ids())
        replace_file(path, lines)

    @classmethod
    def load(cls, path: str) -> "KeyStore":
        keys: dict[str, bytes] = {}
        # split on newlines only: a key id may hold any other line break
        with open(path, encoding="utf-8", newline="\n") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    key_id, encoded = line.split("\t")
                    if key_id in keys:
                        raise ValueError(f"repeated key id {key_id!r}")
                    keys[key_id] = base64.b64decode(encoded, validate=True)
                    _check_entry(key_id, keys[key_id])
                except Exception as exc:
                    raise KeyStoreError(f"{path} line {lineno}: {exc}") from exc
        return cls(keys)


def _check_entry(key_id: str, key: bytes) -> None:
    if not key_id or any(c in key_id for c in "\t\n"):
        raise KeyStoreError(f"bad key id {key_id!r}")
    if len(key) != KEY_SIZE:
        raise KeyStoreError(f"key {key_id!r} must be {KEY_SIZE} octets")


def replace_file(path: str, lines: Iterable[str]) -> None:
    """Crash-safe snapshot: fsync a temp file, rename it over `path`, fsync the
    directory; the rename alone can leave an empty file (Pillai et al., OSDI 2014)."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_directory(path)


def fsync_directory(path: str) -> None:
    """Make the directory entry of `path` durable."""
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
