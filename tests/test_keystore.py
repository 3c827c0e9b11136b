import random

import pytest

from conftest import MASTER_KEY_ID, make_key_store
from hbesso import cipher
from hbesso.agent import parse_suite, run_scenario
from hbesso.idp import UserDirectory, persist_directory
from hbesso.keystore import KeyStore, KeyStoreError
from live_services import start_pair


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


def test_short_key_aborts_load_naming_file_and_line(tmp_path):
    path = tmp_path / "keys.tsv"
    make_key_store().save(str(path))
    with path.open("a", encoding="utf-8") as fh:
        fh.write("k1\tAAAA\n")
    with pytest.raises(KeyStoreError) as exc:
        KeyStore.load(str(path))
    assert str(exc.value) == f"{path} line 3: key 'k1' must be 16 octets"


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


def test_schedule_is_expanded_once_and_replaced_by_add():
    store = make_key_store()
    schedule = store.schedule(MASTER_KEY_ID)
    assert schedule == cipher.expand_key(store.get(MASTER_KEY_ID))
    assert store.schedule(MASTER_KEY_ID) is schedule
    store.add(MASTER_KEY_ID, bytes(16))
    assert store.schedule(MASTER_KEY_ID) == cipher.expand_key(bytes(16)) != schedule
    with pytest.raises(KeyStoreError):
        store.schedule("absent")


def test_a_login_expands_only_the_per_user_keys(monkeypatch):
    # the client's PIN key and LTK and the IdP's copy of the LTK; the master
    # and federation keys come from the key store's schedules
    counts = {"expand_key": 0}
    expand_key = cipher.expand_key

    def counting(key):
        counts["expand_key"] += 1
        return expand_key(key)

    monkeypatch.setattr(cipher, "expand_key", counting)
    login = "gate\nsolve-challenge kim pin-k-5\npost-response\nfetch-resource\nend\n"
    live = start_pair()
    try:
        warm_up = parse_suite("scenario warm-up\nregister kim pin-k-5\n" + login)[0]
        assert run_scenario(warm_up, live.idp_url, live.sp_url).passed
        counts["expand_key"] = 0
        result = run_scenario(parse_suite("scenario login\n" + login)[0], live.idp_url, live.sp_url)
    finally:
        live.stop()
    assert result.passed, (result.aborted, result.outcomes)
    assert counts["expand_key"] == 3
