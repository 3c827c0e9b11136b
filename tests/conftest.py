import os
import random
import stat

import pytest

from hbesso.idp import IdentityProvider, IdpConfig
from hbesso.keystore import KeyStore
from hbesso.sp import ServiceProvider, SpConfig
from spawned_services import FED_KEY_ID, IDP_ENTITY, MASTER_KEY_ID, SP_ENTITY

# low KDF cost keeps the suite fast; the KDF itself is tested separately
TEST_KDF_ITERATIONS = 8


class FakeClock:
    def __init__(self, start: float = 1_700_000_000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def fake_clock():
    return FakeClock()


@pytest.fixture
def fsync_events(monkeypatch):
    """Calls to os.fsync, as ("file" or "dir", inode), and to os.replace, as
    ("replace", inode of the source), in the order they happen."""
    events = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        st = os.fstat(fd)
        events.append(("dir" if stat.S_ISDIR(st.st_mode) else "file", st.st_ino))
        fsync(fd)

    def recording_replace(src, dst):
        events.append(("replace", os.stat(src).st_ino))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    return events


def make_key_store(seed: int = 11) -> KeyStore:
    rng = random.Random(seed)
    store = KeyStore()
    store.generate(MASTER_KEY_ID, rng)
    store.generate(FED_KEY_ID, rng)
    return store


@pytest.fixture
def key_store():
    return make_key_store()


def make_idp(key_store, clock, directory_path=None, seed=21, **overrides) -> IdentityProvider:
    fields = dict(
        entity_id=IDP_ENTITY,
        master_key_id=MASTER_KEY_ID,
        federation_keys={SP_ENTITY: FED_KEY_ID},
        kdf_iterations=TEST_KDF_ITERATIONS,
        directory_path=directory_path,
    )
    fields.update(overrides)
    return IdentityProvider(IdpConfig(**fields), key_store, clock=clock, rng=random.Random(seed))


def make_sp(key_store, clock, seed=22, **overrides) -> ServiceProvider:
    config = SpConfig(
        entity_id=SP_ENTITY,
        acs_url="http://127.0.0.1:0/acs",
        idp_url="http://127.0.0.1:0",
        federation_key_id=FED_KEY_ID,
        **overrides,
    )
    return ServiceProvider(config, key_store, clock=clock, rng=random.Random(seed))


@pytest.fixture
def idp(key_store, fake_clock):
    return make_idp(key_store, fake_clock)


@pytest.fixture
def sp(key_store, fake_clock):
    return make_sp(key_store, fake_clock)
