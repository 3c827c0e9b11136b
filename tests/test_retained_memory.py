"""Bytes that in-process logins leave behind in the IdP and SP tables,
measured with tracemalloc under the lifetimes perfbench/services.py gives
both services, with nothing expiring during the run."""

import gc
import tracemalloc

from conftest import TEST_KDF_ITERATIONS, FakeClock, make_idp, make_key_store, make_sp
from hbesso import keyexchange as kx

LOGINS = 500
WARMUP = 100
# a login flow's p50 is a few milliseconds
STEP_S = 0.003


def service_pair(clock):
    key_store = make_key_store()
    idp = make_idp(key_store, clock, assertion_lifetime=120.0, challenge_expiry=60.0)
    sp = make_sp(key_store, clock, clock_skew=30.0, pending_expiry=600.0, session_lifetime=600.0)
    return idp, sp


def retained_per_call(step, calls: int) -> float:
    """Traced bytes still held after `calls` more calls of `step`, per call,
    once WARMUP calls have grown the tables past their first resizes."""
    tracemalloc.start()
    try:
        for _ in range(WARMUP):
            step()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(calls):
            step()
        gc.collect()
        return (tracemalloc.get_traced_memory()[0] - before) / calls
    finally:
        tracemalloc.stop()


def test_a_login_retains_at_most_700_bytes():
    # a challenge, a pending request id, a replay-cache id and a session;
    # the challenge is consumed, so only the SP's three entries stay
    clock = FakeClock()
    idp, sp = service_pair(clock)
    record = idp.register_user("alice", b"1234")
    ltk = kx.derive_long_term_key(b"1234", record.salt, TEST_KDF_ITERATIONS)

    def login():
        request, _ = sp.gate_resource()
        ch, _ = idp.issue_challenge("alice")
        response = idp.handle_sso("alice", ch.challenge_id, kx.answer_challenge(ltk, ch), request)
        assert sp.serve_resource(sp.consume_response(response).token) == "protected resource for alice\n"
        clock.advance(STEP_S)

    assert retained_per_call(login, LOGINS) <= 700
    assert (len(idp.challenges), len(sp.pending), len(sp.replay_cache), len(sp.sessions)) == (
        0,
        WARMUP + LOGINS,
        WARMUP + LOGINS,
        WARMUP + LOGINS,
    )


def test_an_unauthenticated_gate_retains_at_most_180_bytes():
    # one pending AuthnRequest id, held for pending_expiry
    clock = FakeClock()
    _, sp = service_pair(clock)

    def gate():
        sp.gate_resource()
        clock.advance(STEP_S)

    assert retained_per_call(gate, LOGINS) <= 180
    assert len(sp.pending) == WARMUP + LOGINS


def test_consumed_challenges_behind_an_unanswered_one_retain_at_most_40_bytes():
    # one unanswered challenge stays at the head of the IdP's expiry queue;
    # every later challenge is consumed and must not stay queued behind it
    clock = FakeClock()
    idp, _ = service_pair(clock)
    record = idp.register_user("alice", b"1234")
    ltk = kx.derive_long_term_key(b"1234", record.salt, TEST_KDF_ITERATIONS)
    idp.issue_challenge("alice")

    def answered_challenge():
        ch, _ = idp.issue_challenge("alice")
        assert idp.challenges.verify(ltk, ch.challenge_id, "alice", kx.answer_challenge(ltk, ch)) == kx.ACCEPT
        clock.advance(STEP_S)

    assert retained_per_call(answered_challenge, LOGINS) <= 40
    assert len(idp.challenges) == 1
