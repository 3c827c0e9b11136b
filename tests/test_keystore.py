import random

import pytest

from conftest import make_key_store
from hbesso.idp import UserDirectory, persist_directory
from hbesso.keystore import KeyStore, KeyStoreError


def test_key_ids_with_other_line_breaks_round_trip(tmp_path):
    # only tab and newline are reserved; other line breaks stay inside a line
    path = str(tmp_path / "keys.tsv")
    store = KeyStore()
    rng = random.Random(3)
    for key_id in ("fed\rsp", "fed\x85sp", "fed\u2028sp"):
        store.generate(key_id, rng)
    store.save(path)
    loaded = KeyStore.load(path)
    assert loaded.key_ids() == store.key_ids()
    for key_id in store.key_ids():
        assert loaded.get(key_id) == store.get(key_id)


def test_repeated_key_id_aborts_load_naming_line(tmp_path):
    path = tmp_path / "keys.tsv"
    make_key_store().save(str(path))
    first, second = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(first + first + second, encoding="utf-8")
    with pytest.raises(KeyStoreError, match="line 2"):
        KeyStore.load(str(path))


@pytest.mark.parametrize(
    "write",
    [
        lambda path: make_key_store().save(path),
        lambda path: persist_directory(UserDirectory(), path),
    ],
    ids=["key-store", "directory"],
)
def test_snapshot_fsyncs_file_before_rename_and_directory_after(tmp_path, fsync_events, write):
    path = tmp_path / "snapshot.tsv"
    write(str(path))
    ino = path.stat().st_ino
    assert fsync_events == [("file", ino), ("replace", ino), ("dir", tmp_path.stat().st_ino)]
