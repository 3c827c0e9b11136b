import random
import threading
from urllib.parse import parse_qs, urlsplit

import pytest

from conftest import FED_KEY_ID, IDP_ENTITY, SP_ENTITY
from hbesso import keyexchange as kx
from hbesso import saml
from hbesso import sp as sp_mod
from hbesso.sp import ReplayCache


def issue_response(key_store, sp, now, subject="alice", lifetime=300, audience=SP_ENTITY, in_response_to=None):
    """Forge the IdP side directly with the shared federation key."""
    if in_response_to is None:
        request, _ = sp.gate_resource()
        in_response_to = request.id
    assertion = saml.build_assertion(IDP_ENTITY, subject, audience, now, lifetime)
    ea = saml.encrypt_assertion(assertion, key_store.get(FED_KEY_ID), FED_KEY_ID)
    return saml.SsoResponse(in_response_to=in_response_to, issuer=IDP_ENTITY, encrypted_assertion=ea)


def test_gate_produces_pending_request_and_redirect(sp, fake_clock):
    request, redirect = sp.gate_resource()
    assert sp.pending.known(request.id, fake_clock())
    query = parse_qs(urlsplit(redirect).query)
    import base64

    parsed = saml.parse(base64.b64decode(query["SAMLRequest"][0]), saml.AuthnRequest)
    assert parsed == request
    assert parsed.sp_entity_id == SP_ENTITY


def test_gate_ids_are_distinct(sp):
    a, _ = sp.gate_resource()
    b, _ = sp.gate_resource()
    assert a.id != b.id


def test_honest_response_mints_session(sp, key_store, fake_clock):
    response = issue_response(key_store, sp, fake_clock())
    session = sp.consume_response(response)
    assert session.subject == "alice"
    body = sp.serve_resource(session.token)
    assert body is not None and "alice" in body


def test_replayed_response_rejected_second_time(sp, key_store, fake_clock):
    response = issue_response(key_store, sp, fake_clock())
    sp.consume_response(response)
    with pytest.raises(saml.Reject) as exc:
        sp.consume_response(response)
    assert exc.value.reason == sp_mod.REPLAYED


def test_unknown_request_rejected(sp, key_store, fake_clock):
    response = issue_response(key_store, sp, fake_clock(), in_response_to="feedfacefeedfacefeedfacefeedface")
    with pytest.raises(saml.Reject) as exc:
        sp.consume_response(response)
    assert exc.value.reason == sp_mod.UNKNOWN_REQUEST


def test_tampered_assertion_rejected(sp, key_store, fake_clock):
    response = issue_response(key_store, sp, fake_clock())
    sealed = response.encrypted_assertion
    mutated = bytearray(sealed.ciphertext)
    mutated[0] ^= 1
    broken = saml.SsoResponse(
        in_response_to=response.in_response_to,
        issuer=response.issuer,
        encrypted_assertion=kx.SealedPayload(sealed.nonce, bytes(mutated), sealed.tag, sealed.key_id),
    )
    with pytest.raises(saml.Reject) as exc:
        sp.consume_response(broken)
    assert exc.value.reason == saml.BAD_TAG


def test_wrong_audience_rejected(sp, key_store, fake_clock):
    response = issue_response(key_store, sp, fake_clock(), audience="other.example")
    with pytest.raises(saml.Reject) as exc:
        sp.consume_response(response)
    assert exc.value.reason == saml.WRONG_AUDIENCE


def test_expired_and_not_yet_valid(sp, key_store, fake_clock):
    response = issue_response(key_store, sp, fake_clock(), lifetime=60)
    fake_clock.advance(60 + sp.config.clock_skew + 1)
    with pytest.raises(saml.Reject) as exc:
        sp.consume_response(response)
    assert exc.value.reason == saml.EXPIRED

    future = issue_response(key_store, sp, fake_clock() + 3600)
    with pytest.raises(saml.Reject) as exc:
        sp.consume_response(future)
    assert exc.value.reason == saml.NOT_YET_VALID


def test_expired_wins_over_replayed(sp, key_store, fake_clock):
    # validation precedes the replay check, so a response that is both
    # replayed and expired reports expired
    response = issue_response(key_store, sp, fake_clock(), lifetime=60)
    sp.consume_response(response)
    fake_clock.advance(60 + sp.config.clock_skew + 1)
    with pytest.raises(saml.Reject) as exc:
        sp.consume_response(response)
    assert exc.value.reason == saml.EXPIRED


def test_replay_cache_only_holds_authenticated_ids(sp, key_store, fake_clock):
    bad = issue_response(key_store, sp, fake_clock(), audience="other.example")
    with pytest.raises(saml.Reject):
        sp.consume_response(bad)
    assert len(sp.replay_cache) == 0


def test_replay_cache_check_and_insert_semantics():
    cache = ReplayCache()
    assert cache.check_and_insert("a", expires_at=100.0, now=0.0)
    assert not cache.check_and_insert("a", expires_at=100.0, now=50.0)
    # entry expired: evicted, id admitted again (time window rejects upstream)
    assert cache.check_and_insert("a", expires_at=200.0, now=100.0)
    assert len(cache) == 1


def test_pending_requests_expire_and_are_evicted(sp, key_store, fake_clock):
    request, _ = sp.gate_resource()
    response = issue_response(key_store, sp, fake_clock(), in_response_to=request.id)
    fake_clock.advance(sp.config.pending_expiry + 1)
    with pytest.raises(saml.Reject) as exc:
        sp.consume_response(response)
    assert exc.value.reason == sp_mod.UNKNOWN_REQUEST
    assert len(sp.pending) == 0


def test_pending_table_bounded(sp, fake_clock):
    for _ in range(50):
        sp.gate_resource()
    fake_clock.advance(sp.config.pending_expiry + 1)
    sp.gate_resource()
    assert len(sp.pending) == 1


def test_session_expiry_and_forged_tokens(sp, key_store, fake_clock):
    response = issue_response(key_store, sp, fake_clock())
    session = sp.consume_response(response)
    assert sp.serve_resource(session.token)
    fake_clock.advance(sp.config.session_lifetime + 1)
    assert sp.serve_resource(session.token) is None

    rng = random.Random(0xF0)
    for _ in range(1000):
        assert sp.serve_resource(rng.randbytes(16).hex()) is None


def test_concurrent_consume_admits_at_most_one(sp, key_store, fake_clock):
    response = issue_response(key_store, sp, fake_clock())
    outcomes = []
    barrier = threading.Barrier(32)

    def attempt():
        barrier.wait()
        try:
            outcomes.append(sp.consume_response(response))
        except saml.Reject as exc:
            outcomes.append(exc.reason)

    threads = [threading.Thread(target=attempt) for _ in range(32)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    sessions = [o for o in outcomes if isinstance(o, sp_mod.ResourceSession)]
    assert len(sessions) == 1
    assert outcomes.count(sp_mod.REPLAYED) == 31


def test_session_table_bounded(sp, key_store, fake_clock):
    for _ in range(20):
        sp.consume_response(issue_response(key_store, sp, fake_clock()))
    assert len(sp.sessions) == 20
    fake_clock.advance(sp.config.session_lifetime)
    sp.consume_response(issue_response(key_store, sp, fake_clock()))
    assert len(sp.sessions) == 1
