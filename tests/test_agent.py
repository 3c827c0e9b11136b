import hashlib
import os
import pathlib
import re
import resource
import socket
import threading
import time

import pytest

from hbesso import agent as agent_mod
from hbesso.agent import (
    Agent,
    Scenario,
    Step,
    SuiteParseError,
    parse_suite,
    run_scenario,
    run_suite,
    summarize,
    transcript_bytes,
)
from conftest import FakeClock
from live_services import start_pair

CANONICAL = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "canonical.txt"


@pytest.fixture(scope="module")
def pair():
    live = start_pair()
    yield live
    live.stop()


class StubOrigin:
    """A loopback origin that takes one connection at a time, reads one
    request from it, sends `reply` verbatim and closes it."""

    def __init__(self, reply: bytes):
        self.reply = reply
        self.accepted = 0
        self.closed = threading.Semaphore(0)  # released after each close
        self.stopping = threading.Event()
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        self.thread = threading.Thread(target=self.serve, daemon=True)
        self.thread.start()

    def serve(self) -> None:
        while not self.stopping.is_set():
            try:
                sock, _ = self.listener.accept()
            except socket.timeout:
                continue
            self.accepted += 1
            with sock:
                sock.settimeout(5)
                self.read_request(sock)
                sock.sendall(self.reply)
            self.closed.release()

    @staticmethod
    def read_request(sock: socket.socket) -> None:
        """Read the head and its Content-Length octets, or up to the peer's close."""
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(4096)
            if not chunk:
                return
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = re.search(rb"(?im)^content-length:\s*(\d+)", head)
        while length and len(body) < int(length.group(1)):
            chunk = sock.recv(4096)
            if not chunk:
                return
            body += chunk

    def __enter__(self) -> "StubOrigin":
        return self

    def __exit__(self, *exc) -> None:
        self.stopping.set()
        self.thread.join(5)
        self.listener.close()
        assert not self.thread.is_alive()


def test_parse_canonical_suite():
    scenarios = parse_suite(CANONICAL.read_text())
    assert [s.name for s in scenarios] == [
        "happy-path",
        "replayed-response",
        "tampered-assertion",
        "wrong-pin",
        "expired-assertion",
        "unknown-sp",
    ]
    happy = scenarios[0]
    assert [s.name for s in happy.steps] == [
        "register",
        "gate",
        "solve-challenge",
        "post-response",
        "fetch-resource",
    ]
    assert happy.steps[0].expect == "created"
    replay = scenarios[1]
    assert replay.steps[-1].expect == "replayed"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("register a b", "line 1: step outside scenario"),
        ("scenario s\nscenario t", "line 2"),
        ("scenario s\nfrobnicate\nend", "unknown step"),
        ("scenario s\nregister onlyuser\nend", "argument"),
        ("scenario s\ngate expect", "line 2"),
        ("scenario s\nflip-bit-in nonsense\nend", "flip-bit-in target"),
        ("scenario s\nskew-clock abc\nend", "line 2: skew-clock takes seconds"),
        ("scenario s\nskew-clock nan\nend", "line 2: skew-clock takes seconds"),
        ("scenario s\nskew-clock 1e9\nend", "line 2: skew-clock takes seconds"),
        ("scenario s\ngate", "never ended"),
        ("end", "end outside scenario"),
    ],
)
def test_parse_errors_name_lines(text, fragment):
    with pytest.raises(SuiteParseError, match=fragment):
        parse_suite(text)


def test_comments_and_blanks_ignored():
    scenarios = parse_suite("# header\n\nscenario s\ngate # trailing\nend\n")
    assert len(scenarios) == 1
    assert scenarios[0].steps[0].name == "gate"


def test_empty_suite_passes(tmp_path, pair):
    suite = tmp_path / "empty.txt"
    suite.write_text("# nothing here\n")
    results = run_suite(str(suite), pair.idp_url, pair.sp_url)
    text, exit_code = summarize(results)
    assert results == []
    assert exit_code == 0
    assert "0/0" in text


def test_canonical_suite_passes(pair):
    results = run_suite(str(CANONICAL), pair.idp_url, pair.sp_url)
    text, exit_code = summarize(results)
    assert exit_code == 0, text
    assert all(r.passed for r in results), text
    # the happy path ends with the resource naming the user
    happy = results[0]
    final = happy.transcript[-1]
    assert final["status"] == 200
    assert "alice" in final["body"]


def test_wrong_expectation_fails_suite(tmp_path, pair):
    suite = tmp_path / "wrong.txt"
    suite.write_text(
        "scenario impossible\n"
        "register zelda pin-z-9\n"
        "gate\n"
        "use-wrong-pin zelda bogus-pin expect ok\n"
        "end\n"
    )
    results = run_suite(str(suite), pair.idp_url, pair.sp_url)
    text, exit_code = summarize(results)
    assert exit_code == 1
    assert "expected 'ok', got 'reject-auth'" in text


def test_scenario_stops_at_first_mismatch(pair):
    scenario = Scenario(
        name="stops",
        steps=[
            Step("register", ("yuri", "pin-y-1"), "created", 1),
            Step("register", ("yuri", "pin-y-1"), "created", 2),  # duplicate
            Step("gate", (), "redirect", 3),
        ],
    )
    result = run_scenario(scenario, pair.idp_url, pair.sp_url)
    assert not result.passed
    assert len(result.outcomes) == 2
    assert result.outcomes[-1].actual == "duplicate-user"


def test_missing_artifact_aborts_with_step_named(pair):
    scenario = Scenario(name="premature", steps=[Step("post-response", (), "ok", 1)])
    result = run_scenario(scenario, pair.idp_url, pair.sp_url)
    assert not result.passed
    assert result.aborted is not None
    assert "post-response" in result.aborted


def test_network_failure_aborts_with_step_named():
    scenario = Scenario(name="dead", steps=[Step("gate", (), "redirect", 1)])
    result = run_scenario(scenario, "http://127.0.0.1:9", "http://127.0.0.1:9")
    assert not result.passed
    assert result.aborted is not None
    assert "network failure" in result.aborted


@pytest.mark.parametrize(
    "reply",
    [b"", b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort"],
    ids=["closed-without-reply", "body-shorter-than-content-length"],
)
def test_broken_answer_aborts_as_network_failure(reply):
    scenario = Scenario(name="broken", steps=[Step("gate", (), "redirect", 1)])
    with StubOrigin(reply) as origin:
        result = run_scenario(scenario, origin.url, origin.url)
    assert not result.passed
    assert result.aborted is not None
    assert "network failure" in result.aborted


@pytest.mark.parametrize("connection", [b"", b"Connection: close\r\n"], ids=["silent", "announced"])
def test_calls_survive_a_server_that_closes_each_connection(connection):
    # the origin closes every connection after one answer; without the
    # announcement the agent must notice the closed idle socket itself
    reply = b"HTTP/1.1 200 OK\r\n" + connection + b"Content-Length: 2\r\n\r\nhi"
    with StubOrigin(reply) as origin:
        agent = Agent(origin.url, origin.url)
        try:
            for _ in range(3):
                assert agent._call("gate", "GET", f"{origin.url}/resource").text == "hi"
                assert origin.closed.acquire(timeout=5)
        finally:
            agent.close()
        assert origin.accepted == 3


@pytest.mark.parametrize(
    "reply",
    [
        b"HTTP/1.1 2x0 OK\r\nContent-Length: 2\r\n\r\nhi",
        b"HTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi",
        b"HTTP/1.1 200 OK\r\nContent-Length: two\r\n\r\nhi",
        b"HTTP/1.1 200 OK\r\nContent-Length: \xb2\r\n\r\nhi",
        b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nhi",
        b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * (64 * 1024) + b"\r\nContent-Length: 2\r\n\r\nhi",
        b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * (64 * 1024),
        b"HTTP/1.1 200 OK\r\nContent-Length: 2",
    ],
    ids=[
        "status-not-a-number",
        "not-http",
        "length-not-a-number",
        "length-not-ascii",
        "length-missing",
        "head-over-64KiB",
        "head-over-64KiB-unended",
        "closed-inside-head",
    ],
)
def test_malformed_answer_aborts_as_network_failure_without_a_resend(reply):
    scenario = Scenario(name="malformed", steps=[Step("gate", (), "redirect", 1)])
    with StubOrigin(reply) as origin:
        result = run_scenario(scenario, origin.url, origin.url)
    assert not result.passed
    assert result.aborted is not None and "network failure" in result.aborted, result.aborted
    assert origin.accepted == 1


def test_reply_headers_are_read_in_any_case():
    reply = b"HTTP/1.1 302 Found\r\nlocation: /next\r\nCONTENT-LENGTH: 2\r\n\r\nhi"
    with StubOrigin(reply) as origin:
        agent = Agent(origin.url, origin.url)
        try:
            answer = agent._call("gate", "GET", f"{origin.url}/resource")
        finally:
            agent.close()
    assert (answer.status_code, answer.content, answer.text) == (302, b"hi", "hi")
    assert answer.headers.get("Location") == answer.headers.get("LOCATION") == "/next"
    assert agent.transcript[-1]["location"] == "/next"


HELD_DESCRIPTORS = 1100


@pytest.mark.skipif(
    resource.getrlimit(resource.RLIMIT_NOFILE)[0] < HELD_DESCRIPTORS + 200,
    reason="the descriptor limit is too low to push sockets past 1023",
)
def test_login_works_with_socket_descriptors_past_1023(pair):
    # select() refuses descriptors of 1024 and up; the idle-socket check must not
    held = [os.open(os.devnull, os.O_RDONLY) for _ in range(HELD_DESCRIPTORS)]
    try:
        scenario = parse_suite(
            "scenario fd\nregister fdtest pin-f-1\ngate\nsolve-challenge fdtest pin-f-1\n"
            "post-response\nfetch-resource\nend\n"
        )[0]
        result = run_scenario(scenario, pair.idp_url, pair.sp_url)
    finally:
        for fd in held:
            os.close(fd)
    assert result.passed, (result.aborted, result.outcomes)


def test_login_flow_opens_one_connection_per_service(pair, monkeypatch):
    opened = {"idp": 0, "sp": 0}
    for role, server in (("idp", pair.idp_server), ("sp", pair.sp_server)):
        def counting(request, client_address, role=role, original=server.process_request):
            opened[role] += 1
            return original(request, client_address)

        monkeypatch.setattr(server, "process_request", counting)
    scenario = parse_suite(
        "scenario one\nregister olga pin-o-2\ngate\nsolve-challenge olga pin-o-2\n"
        "post-response\nfetch-resource\nend\n"
    )[0]
    result = run_scenario(scenario, pair.idp_url, pair.sp_url)
    assert result.passed, (result.aborted, result.outcomes)
    assert opened == {"idp": 1, "sp": 1}


# "&" * 255, the largest legal id, makes a 105-block assertion: its seal at
# the IdP and open at the SP run the byte-sliced keystream path, below
# cipher._BULK_THRESHOLD
@pytest.mark.parametrize("user", ["a+b", "c%41", "d&x=1", "é-user", "用户", "a b", "&" * 255])
def test_user_id_with_query_characters_logs_in(pair, user):
    # each id must reach GET /challenge and the /register and /sso forms as
    # itself, not as "a b", "cA" or "d"
    scenario = Scenario(
        name="quoted",
        steps=[
            Step("register", (user, "pin-q-7"), "created", 1),
            Step("gate", (), "redirect", 2),
            Step("solve-challenge", (user, "pin-q-7"), "ok", 3),
            Step("post-response", (), "ok", 4),
            Step("fetch-resource", (), "ok", 5),
        ],
    )
    result = run_scenario(scenario, pair.idp_url, pair.sp_url)
    assert result.passed, (result.aborted, result.outcomes)


@pytest.mark.parametrize("user", ["josé", "名前"])
def test_transcript_bodies_decode_as_utf8(pair, user):
    scenario = parse_suite(
        f"scenario u\nregister {user} pin-u-8\ngate\nsolve-challenge {user} pin-u-8\n"
        "post-response\nfetch-resource\nend\n"
    )[0]
    result = run_scenario(scenario, pair.idp_url, pair.sp_url)
    assert result.passed, (result.aborted, result.outcomes)
    assert [e["body"] for e in result.transcript[-2:]] == [
        f"authenticated {user}",
        f"protected resource for {user}\n",
    ]


def test_parallel_run_passes():
    live = start_pair()
    try:
        results = run_suite(str(CANONICAL), live.idp_url, live.sp_url, parallel=True)
        text, exit_code = summarize(results)
        assert exit_code == 0, text
        assert {r.name for r in results} == {
            "happy-path",
            "replayed-response",
            "tampered-assertion",
            "wrong-pin",
            "expired-assertion",
            "unknown-sp",
        }
    finally:
        live.stop()


def test_parallel_run_caps_its_worker_threads(tmp_path, monkeypatch):
    # a suite's size must not set its thread count: 40 scenarios run on the
    # stdlib's default pool, at most 32 threads, and keep their order
    suite = tmp_path / "wide.txt"
    suite.write_text("".join(f"scenario s{i}\ngate\nend\n" for i in range(40)))
    threads = []

    def recording(scenario, idp_url, sp_url):
        threads.append(threading.current_thread())
        time.sleep(0.02)  # the scenarios overlap, so the pool grows to its cap
        return scenario.name

    monkeypatch.setattr(agent_mod, "run_scenario", recording)
    results = run_suite(str(suite), "http://127.0.0.1:9", "http://127.0.0.1:9", parallel=True)
    assert results == [f"s{i}" for i in range(40)]
    assert 1 < len(set(threads)) <= 32


def test_transcript_records_every_exchange(pair):
    scenario = parse_suite(
        "scenario t\nregister quinn pin-q-3\ngate\nsolve-challenge quinn pin-q-3\n"
        "post-response\nfetch-resource\nend\n"
    )[0]
    result = run_scenario(scenario, pair.idp_url, pair.sp_url)
    assert result.passed
    # register, gate, challenge, sso, acs, resource: six wire exchanges
    assert [e["target"].split("?")[0] for e in result.transcript] == [
        "/register",
        "/resource",
        "/challenge",
        "/sso",
        "/acs",
        "/resource",
    ]


def test_deterministic_transcripts_with_seed_and_clock():
    fixed_clock = lambda: 1_700_000_000.0
    suite_text = (
        "scenario det\nregister nadia pin-n-4\ngate\nsolve-challenge nadia pin-n-4\n"
        "post-response\nfetch-resource\nend\n"
    )
    scenario = parse_suite(suite_text)[0]

    first = start_pair(clock=fixed_clock, idp_seed=77, sp_seed=88)
    ports = (
        first.idp_server.server_address[1],
        first.sp_server.server_address[1],
    )
    try:
        run_a = run_scenario(scenario, first.idp_url, first.sp_url)
    finally:
        first.stop()

    second = start_pair(
        clock=fixed_clock, idp_seed=77, sp_seed=88, idp_port=ports[0], sp_port=ports[1]
    )
    try:
        run_b = run_scenario(scenario, second.idp_url, second.sp_url)
    finally:
        second.stop()

    assert run_a.passed and run_b.passed
    assert transcript_bytes(run_a) == transcript_bytes(run_b)


def test_canonical_transcripts_keep_their_bytes():
    # every status, body and Location the agent records, and through them the
    # XML, seal and MAC outputs of a seeded pair, feed this digest
    live = start_pair(clock=FakeClock(), idp_seed=77, sp_seed=88)
    try:
        live.sp.config.acs_url = "http://sp.example/acs"  # the SAMLRequest carries it
        results = run_suite(str(CANONICAL), live.idp_url, live.sp_url)
    finally:
        live.stop()
    text, exit_code = summarize(results)
    assert exit_code == 0, text
    data = b"".join(transcript_bytes(r) for r in results)
    assert len(data) == 18569
    assert hashlib.sha256(data).hexdigest() == "8ce25e7ed39d14472317053364fae79e60f1ca7aecf3c09e50a1094b5d6f04c7"


def test_default_expectations_cover_every_step():
    assert set(agent_mod.DEFAULT_EXPECT) == set(agent_mod.STEPS)
