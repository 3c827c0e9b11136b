import base64
import os
import pathlib
import sys
import threading

import pytest

from conftest import FED_KEY_ID, IDP_ENTITY, SP_ENTITY, TEST_KDF_ITERATIONS, make_idp
from hbesso import idp as idp_mod
from hbesso import keyexchange as kx
from hbesso import saml
from hbesso.idp import (
    CorruptDirectoryError,
    UserDirectory,
    persist_directory,
)


def make_request(idp, sp_entity=SP_ENTITY):
    return saml.build_authn_request(sp_entity, "http://sp/acs", idp.clock())


def solve(idp, user, pin: bytes):
    ch, salt = idp.issue_challenge(user)
    ltk = kx.derive_long_term_key(pin, salt, idp.config.kdf_iterations)
    return ch, kx.answer_challenge(ltk, ch)


def test_register_then_authenticate(idp, key_store):
    idp.register_user("alice", b"246813")
    ch, tag = solve(idp, "alice", b"246813")
    response = idp.handle_sso("alice", ch.challenge_id, tag, make_request(idp))
    assertion = saml.decrypt_validate(
        response.encrypted_assertion,
        key_store.get(FED_KEY_ID),
        now=idp.clock(),
        skew=0,
        audience=SP_ENTITY,
    )
    assert assertion.subject == "alice"
    assert assertion.audience == SP_ENTITY
    assert assertion.issuer == IDP_ENTITY
    assert response.issuer == IDP_ENTITY


def test_duplicate_registration_leaves_directory_unchanged(idp):
    idp.register_user("alice", b"1111")
    before = len(idp.directory)
    with pytest.raises(saml.Reject) as exc:
        idp.register_user("alice", b"2222")
    assert (exc.value.status, exc.value.reason) == (409, idp_mod.DUPLICATE_USER)
    assert len(idp.directory) == before


def test_invalid_pins_rejected(idp):
    for pin in (b"", b"x" * 17):
        with pytest.raises(saml.Reject) as exc:
            idp.register_user("bob", pin)
        assert (exc.value.status, exc.value.reason) == (400, idp_mod.INVALID_PIN)
    assert idp.directory.get("bob") is None


def test_same_pin_users_get_distinct_blobs(idp):
    a = idp.register_user("alice", b"0000")
    b = idp.register_user("bob", b"0000")
    assert a.salt != b.salt
    assert kx.encode_payload(a.wrapped_ltk) != kx.encode_payload(b.wrapped_ltk)


def test_wrong_pin_yields_reject_auth(idp):
    idp.register_user("carol", b"13579")
    ch, _ = solve(idp, "carol", b"13579")
    wrong_ltk = kx.derive_long_term_key(b"99999", idp.directory.get("carol").salt, TEST_KDF_ITERATIONS)
    bad_tag = kx.answer_challenge(wrong_ltk, ch)
    with pytest.raises(saml.Reject) as exc:
        idp.handle_sso("carol", ch.challenge_id, bad_tag, make_request(idp))
    assert exc.value.reason == kx.REJECT_AUTH


def test_unfederated_sp_rejected(idp):
    idp.register_user("dave", b"2222")
    ch, tag = solve(idp, "dave", b"2222")
    with pytest.raises(saml.Reject) as exc:
        idp.handle_sso("dave", ch.challenge_id, tag, make_request(idp, "rogue.example"))
    assert exc.value.reason == idp_mod.UNKNOWN_SP
    # the challenge was not consumed by the config failure
    response = idp.handle_sso("dave", ch.challenge_id, tag, make_request(idp))
    assert response.in_response_to


def test_replayed_challenge_rejected(idp):
    idp.register_user("erin", b"3333")
    ch, tag = solve(idp, "erin", b"3333")
    idp.handle_sso("erin", ch.challenge_id, tag, make_request(idp))
    with pytest.raises(saml.Reject) as exc:
        idp.handle_sso("erin", ch.challenge_id, tag, make_request(idp))
    assert exc.value.reason == kx.REJECT_REPLAY


def test_expired_challenge_rejected(idp, fake_clock):
    idp.register_user("frank", b"4444")
    ch, tag = solve(idp, "frank", b"4444")
    fake_clock.advance(idp.config.challenge_expiry + 1)
    with pytest.raises(saml.Reject) as exc:
        idp.handle_sso("frank", ch.challenge_id, tag, make_request(idp))
    assert exc.value.reason == kx.REJECT_EXPIRED


def test_unknown_user_gets_dummy_challenge_then_reject_auth(idp):
    ch, salt = idp.issue_challenge("ghost")
    ch2, salt2 = idp.issue_challenge("ghost")
    assert salt == salt2  # stable dummy salt, no enumeration via salt churn
    assert ch.challenge_id != ch2.challenge_id
    ltk = kx.derive_long_term_key(b"1234", salt, TEST_KDF_ITERATIONS)
    tag = kx.answer_challenge(ltk, ch)
    with pytest.raises(saml.Reject) as exc:
        idp.handle_sso("ghost", ch.challenge_id, tag, make_request(idp))
    assert exc.value.reason == kx.REJECT_AUTH


def test_assertion_ids_unique_across_lifetime(idp, key_store):
    idp.register_user("gina", b"5555")
    seen = set()
    for _ in range(50):
        ch, tag = solve(idp, "gina", b"5555")
        response = idp.handle_sso("gina", ch.challenge_id, tag, make_request(idp))
        assertion = saml.decrypt_validate(
            response.encrypted_assertion,
            key_store.get(FED_KEY_ID),
            idp.clock(),
            0,
            SP_ENTITY,
        )
        assert assertion.id not in seen
        seen.add(assertion.id)


def test_persist_load_round_trip(tmp_path, key_store, fake_clock):
    path = tmp_path / "directory.tsv"
    idp = make_idp(key_store, fake_clock, directory_path=str(path), kdf_iterations=1)
    for i in range(100):
        idp.register_user(f"user{i:03d}", f"pin{i:03d}".encode())
    loaded = UserDirectory(str(path))
    assert len(loaded) == 100
    for record in idp.directory.records():
        other = loaded.get(record.user_id)
        assert other == record


def test_empty_directory_round_trip(tmp_path):
    path = tmp_path / "empty.tsv"
    persist_directory(UserDirectory(), str(path))
    assert path.read_bytes() == b""
    assert len(UserDirectory(str(path))) == 0


def test_corrupt_line_aborts_load_naming_line(tmp_path, key_store, fake_clock):
    path = tmp_path / "directory.tsv"
    idp = make_idp(key_store, fake_clock, directory_path=str(path), kdf_iterations=1)
    for name in ("alice", "bob", "carol"):
        idp.register_user(name, b"9751")
    lines = path.read_text().splitlines()
    lines[1] = "bob\tnot!base64\tnope\tnan"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptDirectoryError, match="line 2"):
        UserDirectory(str(path))


def test_second_idp_loads_the_directory_file(tmp_path, key_store, fake_clock):
    path = str(tmp_path / "directory.tsv")
    first = make_idp(key_store, fake_clock, directory_path=path, kdf_iterations=1)
    records = [first.register_user(name, b"9751") for name in ("alice", "bob", "carol")]
    second = make_idp(key_store, fake_clock, directory_path=path, seed=22, kdf_iterations=1)
    assert second.directory.records() == records
    with pytest.raises(saml.Reject) as exc:
        second.register_user("alice", b"2468")
    assert (exc.value.status, exc.value.reason) == (409, idp_mod.DUPLICATE_USER)
    second.register_user("dave", b"2468")
    assert [r.user_id for r in UserDirectory(path).records()] == ["alice", "bob", "carol", "dave"]


def test_concurrent_registrations_of_one_id_create_one_record(tmp_path, key_store, fake_clock):
    path = str(tmp_path / "directory.tsv")
    idp = make_idp(key_store, fake_clock, directory_path=path, kdf_iterations=1)
    barrier = threading.Barrier(8, timeout=10)
    records, refusals = [], []

    def register(i):
        barrier.wait()
        try:
            records.append(idp.register_user("alice", f"{1000 + i}".encode()))
        except saml.Reject as reject:
            refusals.append((reject.status, reject.reason))

    threads = [threading.Thread(target=register, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the check-then-add too
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(records) == 1
    assert refusals == [(409, idp_mod.DUPLICATE_USER)] * 7
    assert len(pathlib.Path(path).read_text(encoding="utf-8").splitlines()) == 1
    assert UserDirectory(path).records() == records


def test_a_registration_completes_while_another_runs_its_kdf(tmp_path, key_store, fake_clock, monkeypatch):
    path = str(tmp_path / "directory.tsv")
    idp = make_idp(key_store, fake_clock, directory_path=path)
    derive, entered, release = kx.derive_long_term_key, threading.Event(), threading.Event()

    def held_for_alice(pin, salt, iterations):
        if pin == b"1111":
            entered.set()
            release.wait(10)
        return derive(pin, salt, iterations)

    monkeypatch.setattr(kx, "derive_long_term_key", held_for_alice)
    alice, bob = [], []
    alice_thread = threading.Thread(target=lambda: alice.append(idp.register_user("alice", b"1111")))
    bob_thread = threading.Thread(target=lambda: bob.append(idp.register_user("bob", b"2222")))
    alice_thread.start()
    try:
        assert entered.wait(10)
        bob_thread.start()
        bob_thread.join(5)
        assert bob, "bob's registration waited for alice's KDF"
    finally:
        release.set()
        alice_thread.join(10)
        if bob_thread.is_alive():
            bob_thread.join(10)
    assert alice and UserDirectory(path).records() == bob + alice


def test_a_failed_append_leaves_no_line(tmp_path, key_store, fake_clock, monkeypatch):
    path = str(tmp_path / "directory.tsv")
    idp = make_idp(key_store, fake_clock, directory_path=path)
    bob = idp.register_user("bob", b"2222")
    fsync, failures = os.fsync, [OSError(5, "injected fsync failure")]

    def fails_once(fd):
        if failures:
            raise failures.pop()
        fsync(fd)

    monkeypatch.setattr(os, "fsync", fails_once)
    with pytest.raises(OSError, match="injected"):
        idp.register_user("alice", b"1111")
    assert idp.directory.get("alice") is None
    alice = idp.register_user("alice", b"1111")
    assert UserDirectory(path).records() == [bob, alice]


def test_user_id_with_other_line_breaks_reloads(tmp_path, key_store, fake_clock):
    # only tab and newline are reserved; other line breaks stay inside a record
    path = str(tmp_path / "directory.tsv")
    idp = make_idp(key_store, fake_clock, directory_path=path, kdf_iterations=1)
    records = [idp.register_user(name, b"9751") for name in ("a\rb", "c\x85d", "e\u2028f")]
    assert UserDirectory(path).records() == records


def test_torn_last_record_is_dropped_at_every_offset(tmp_path, key_store, fake_clock):
    path = tmp_path / "directory.tsv"
    idp = make_idp(key_store, fake_clock, directory_path=str(path), kdf_iterations=1)
    # a non-ASCII last id lets a cut fall inside a character
    last = [idp.register_user(name, b"9751") for name in ("alice", "bob", "zoë")][-1]
    data = path.read_bytes()
    head = data[: data.rindex(b"\n", 0, -1) + 1]
    for cut in range(len(head), len(data)):
        path.write_bytes(data[:cut])
        directory = UserDirectory(str(path))
        assert [r.user_id for r in directory.records()] == ["alice", "bob"]
        assert path.read_bytes() == head
        directory.add(last)
        assert path.read_bytes() == data


def test_repeated_user_line_aborts_load_naming_line(tmp_path, key_store, fake_clock):
    path = tmp_path / "directory.tsv"
    idp = make_idp(key_store, fake_clock, directory_path=str(path), kdf_iterations=1)
    idp.register_user("alice", b"9751")
    idp.register_user("bob", b"9751")
    first, second = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(first + first + second, encoding="utf-8")
    with pytest.raises(CorruptDirectoryError, match="line 2"):
        UserDirectory(str(path))


def test_only_the_add_that_creates_the_file_fsyncs_its_directory(
    tmp_path, key_store, fake_clock, fsync_events
):
    path = tmp_path / "directory.tsv"
    idp = make_idp(key_store, fake_clock, directory_path=str(path), kdf_iterations=1)
    idp.register_user("alice", b"9751")
    created = [("file", path.stat().st_ino), ("dir", tmp_path.stat().st_ino)]
    assert fsync_events == created
    idp.register_user("bob", b"9751")
    assert fsync_events == created + [("file", path.stat().st_ino)]


def test_persisted_files_contain_no_pin_or_ltk(tmp_path, key_store, fake_clock):
    path = tmp_path / "directory.tsv"
    idp = make_idp(key_store, fake_clock, directory_path=str(path))
    pin = b"hunter2-pin-alpha"[:16]
    record = idp.register_user("alice", pin)
    ltk = kx.derive_long_term_key(pin, record.salt, TEST_KDF_ITERATIONS)
    raw = path.read_bytes()
    assert pin not in raw
    assert ltk not in raw
    assert base64.b64encode(pin) not in raw
    assert base64.b64encode(ltk) not in raw


def test_registration_persisted_before_success(tmp_path, key_store, fake_clock):
    path = tmp_path / "directory.tsv"
    idp = make_idp(key_store, fake_clock, directory_path=str(path))
    idp.register_user("walter", b"8642")
    on_disk = UserDirectory(str(path))
    assert on_disk.get("walter") is not None


def test_challenge_document_round_trip(idp):
    idp.register_user("henry", b"6666")
    ch, salt = idp.issue_challenge("henry")
    doc = saml.challenge_document(ch, salt, idp.config.kdf_iterations)
    parsed, got_salt, iterations = saml.parse_challenge_document(doc, "henry")
    assert parsed.challenge_id == ch.challenge_id
    assert parsed.nonce == ch.nonce
    assert got_salt == salt
    assert iterations == idp.config.kdf_iterations
    # the parsed challenge is answerable
    ltk = kx.derive_long_term_key(b"6666", got_salt, iterations)
    tag = kx.answer_challenge(ltk, parsed)
    assert idp.challenges.verify(ltk, ch.challenge_id, "henry", tag) == kx.ACCEPT


CHALLENGE_FIELDS = {
    "id": ' id="c-1"',
    "expires-at": ' expires-at="2024-01-01T00:00:00Z"',
    "Nonce": "<Nonce>AAECAw==</Nonce>",
    "Salt": "<Salt>BAUGBw==</Salt>",
    "KdfIterations": "<KdfIterations>8</KdfIterations>",
}


def challenge_without(missing=None) -> bytes:
    attrs = "".join(v for k, v in CHALLENGE_FIELDS.items() if k != missing and v.startswith(" "))
    children = "".join(v for k, v in CHALLENGE_FIELDS.items() if k != missing and v.startswith("<"))
    return f"<Challenge{attrs}>{children}</Challenge>".encode()


def test_complete_challenge_document_parses():
    ch, salt, iterations = saml.parse_challenge_document(challenge_without(), "henry")
    assert (ch.challenge_id, ch.nonce, salt, iterations) == ("c-1", b"\0\1\2\3", b"\4\5\6\7", 8)


@pytest.mark.parametrize(
    "xml, fault",
    [
        (b"not xml", "not well-formed XML"),
        (b"<Challenge", "not well-formed XML"),
        (b'<!DOCTYPE Challenge [<!ENTITY e "x">]>' + challenge_without(), "DOCTYPE refused"),
        *((challenge_without(name), f"missing [a-z]+ '{name}'") for name in CHALLENGE_FIELDS),
    ],
    ids=["not xml", "<Challenge", "doctype", *(f"no-{name}" for name in CHALLENGE_FIELDS)],
)
def test_challenge_document_that_is_not_xml_is_a_value_error(xml, fault):
    with pytest.raises(ValueError, match=fault):
        saml.parse_challenge_document(xml, "henry")


def test_config_requires_resolvable_key_ids(key_store, fake_clock):
    from hbesso.idp import IdentityProvider, IdpConfig
    from hbesso.keystore import KeyStoreError

    config = IdpConfig(
        entity_id=IDP_ENTITY,
        master_key_id="missing-master",
        federation_keys={SP_ENTITY: FED_KEY_ID},
    )
    with pytest.raises(KeyStoreError):
        IdentityProvider(config, key_store, clock=fake_clock)


def test_directory_path_in_a_missing_directory_is_refused_at_start(tmp_path, key_store, fake_clock):
    path = tmp_path / "missing" / "idp-directory.tsv"
    with pytest.raises(ValueError) as exc:
        make_idp(key_store, fake_clock, directory_path=str(path))
    assert str(exc.value) == f"directory_path {path}: its directory does not exist"
    assert not path.parent.exists()


def test_challenge_table_bounded_including_unknown_sp_attempts(idp, fake_clock):
    # an unknown-sp reject returns before the challenge is verified, so only
    # expiry can drop it
    idp.register_user("iris", b"6666")
    for _ in range(20):
        ch, tag = solve(idp, "iris", b"6666")
        with pytest.raises(saml.Reject):
            idp.handle_sso("iris", ch.challenge_id, tag, make_request(idp, "rogue.example"))
        idp.issue_challenge("ghost")
    assert len(idp.challenges) == 40
    fake_clock.advance(2 * idp.config.challenge_expiry)
    idp.issue_challenge("iris")
    assert len(idp.challenges) == 1
