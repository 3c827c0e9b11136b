"""Scripted user agent: executes SSO scenarios against live IdP and SP
endpoints, including adversarial variants, and records a complete wire
transcript.

Scenario files are line-oriented: one step per line with space-separated
arguments, grouped as `scenario NAME` ... `end`.  `#` starts a comment.
A step may end with `expect TOKEN` to override its default expected
outcome; a scenario fails on the first step whose actual outcome differs.

Steps:
  register USER PIN           POST /register
  gate                        GET /resource without a session; captures the
                              SAMLRequest from the redirect
  solve-challenge USER PIN    challenge round-trip, then POST /sso with the
                              captured request; captures the SAMLResponse
  use-wrong-pin USER PIN      solve-challenge under a deliberately wrong PIN
  post-response               POST the captured SAMLResponse to /acs
  replay-last-response        POST the same captured SAMLResponse again
  fetch-resource              GET /resource with the captured session token
  flip-bit-in TARGET          mutate a captured artifact in place; TARGET is
                              response.ciphertext or request.issuer
  skew-clock SECONDS          set the test-clock skew header for all
                              subsequent requests (services must run with
                              --test-clock)

The agent observes the services only through their wire interfaces.
"""

from __future__ import annotations

import base64
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional
from urllib.parse import urlsplit

from . import keyexchange as kx
from . import saml
from .httpbase import (
    MAX_DURATION, SKEW_HEADER, Connection, Headers, MalformedMessage, form_decode, form_encode, parse_skew,
    write_message,
)
from .sp import SESSION_HEADER

FLIP_TARGETS = ("response.ciphertext", "request.issuer")

class SuiteParseError(Exception):
    pass


class StepStateError(Exception):
    """A step referenced an artifact that was never captured."""


@dataclass(frozen=True)
class Step:
    name: str
    args: tuple[str, ...]
    expect: str
    line: int


@dataclass
class Scenario:
    name: str
    steps: list[Step] = field(default_factory=list)


@dataclass(frozen=True)
class Reply:
    """One HTTP answer, as the steps read it."""

    status_code: int
    headers: Headers
    content: bytes

    @property
    def text(self) -> str:
        # the services write UTF-8 bodies without a charset
        return self.content.decode("utf-8", errors="replace")


@dataclass
class StepOutcome:
    step: str
    args: tuple[str, ...]
    expected: str
    actual: str
    ok: bool
    line: int


@dataclass
class ScenarioResult:
    name: str
    passed: bool
    outcomes: list[StepOutcome]
    transcript: list[dict]
    aborted: Optional[str] = None


def parse_suite(text: str) -> list[Scenario]:
    """Parse a scenario file; errors name the offending line."""
    scenarios: list[Scenario] = []
    current: Optional[Scenario] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "scenario":
            if current is not None:
                raise SuiteParseError(f"line {lineno}: scenario inside scenario")
            if len(tokens) != 2:
                raise SuiteParseError(f"line {lineno}: scenario takes exactly one name")
            current = Scenario(name=tokens[1])
            continue
        if tokens[0] == "end":
            if current is None:
                raise SuiteParseError(f"line {lineno}: end outside scenario")
            scenarios.append(current)
            current = None
            continue
        if current is None:
            raise SuiteParseError(f"line {lineno}: step outside scenario")
        name, rest = tokens[0], tokens[1:]
        if name not in STEPS:
            raise SuiteParseError(f"line {lineno}: unknown step {name!r}")
        argc, expect, _ = STEPS[name]
        if "expect" in rest:
            idx = rest.index("expect")
            if idx != len(rest) - 2:
                raise SuiteParseError(f"line {lineno}: expect takes exactly one token")
            expect = rest[-1]
            rest = rest[:idx]
        if len(rest) != argc:
            raise SuiteParseError(f"line {lineno}: {name} takes {argc} argument(s), got {len(rest)}")
        if name == "flip-bit-in" and rest[0] not in FLIP_TARGETS:
            raise SuiteParseError(
                f"line {lineno}: flip-bit-in target must be one of {', '.join(FLIP_TARGETS)}"
            )
        if name == "skew-clock" and parse_skew(rest[0]) is None:
            raise SuiteParseError(f"line {lineno}: skew-clock takes seconds of magnitude at most {MAX_DURATION}")
        current.steps.append(Step(name=name, args=tuple(rest), expect=expect, line=lineno))
    if current is not None:
        raise SuiteParseError(f"scenario {current.name!r} is never ended")
    return scenarios


class Agent:
    """One scenario's worth of browser-shaped state."""

    def __init__(self, idp_url: str, sp_url: str):
        self.idp_url = idp_url.rstrip("/")
        self.sp_url = sp_url.rstrip("/")
        # netloc -> the one keep-alive connection to that origin
        self.connections: dict[str, Connection] = {}
        self.clock_skew = 0.0
        self.transcript: list[dict] = []
        self.request_b64: Optional[str] = None
        self.response_b64: Optional[str] = None
        self.session_token: Optional[str] = None

    def close(self) -> None:
        for connection in self.connections.values():
            connection.close()
        self.connections.clear()

    # -- wire layer ---------------------------------------------------

    def _connection(self, netloc: str) -> Connection:
        connection = self.connections.get(netloc)
        if connection is not None and connection.idle_closed():
            self._drop(netloc)
            connection = None
        if connection is None:
            connection = self.connections[netloc] = Connection(netloc)
        return connection

    def _drop(self, netloc: str) -> None:
        self.connections.pop(netloc).close()

    def _call(self, step: str, method: str, url: str, data: Optional[dict] = None,
              headers: Optional[dict] = None) -> Reply:
        split = urlsplit(url)
        target = split.path + (f"?{split.query}" if split.query else "")
        fields = {"Host": split.netloc}
        body = b""
        if data is not None:
            body = form_encode(data).encode("ascii")
            fields |= {"Content-Type": "application/x-www-form-urlencoded", "Content-Length": str(len(body))}
        fields |= headers or {}
        if self.clock_skew:
            fields[SKEW_HEADER] = repr(self.clock_skew)
        request = write_message(f"{method} {target} HTTP/1.1", fields, body)
        connection = self._connection(split.netloc)
        try:
            response = Reply(*connection.exchange(request))
        except BaseException:
            self._drop(split.netloc)  # never reuse a connection left mid-exchange
            raise
        if response.headers.get("Connection", "").lower() == "close":
            self._drop(split.netloc)
        entry = {
            "step": step,
            "method": method,
            "target": target,
            "fields": dict(sorted((data or {}).items())),
            "status": response.status_code,
            "body": response.text,
        }
        location = response.headers.get("Location")
        if location is not None:
            loc = urlsplit(location)
            entry["location"] = loc.path + (f"?{loc.query}" if loc.query else "")
        self.transcript.append(entry)
        return response

    # -- steps ----------------------------------------------------------

    def execute(self, step: Step) -> str:
        return STEPS[step.name][2](self, step)

    def _register(self, step: Step) -> str:
        user, pin = step.args
        r = self._call(step.name, "POST", f"{self.idp_url}/register", data={"user": user, "pin": pin})
        return "created" if r.status_code == 201 else r.text.strip() or str(r.status_code)

    def _gate(self, step: Step) -> str:
        r = self._call(step.name, "GET", f"{self.sp_url}/resource")
        if r.status_code != 302:
            return r.text.strip() or str(r.status_code)
        request_b64 = form_decode(urlsplit(r.headers.get("Location", "")).query).get("SAMLRequest")
        if not request_b64:
            raise StepStateError("redirect carries no SAMLRequest parameter")
        self.request_b64 = request_b64
        return "redirect"

    def _solve_challenge(self, step: Step) -> str:
        user, pin = step.args
        if self.request_b64 is None:
            raise StepStateError("no captured SAMLRequest; run gate first")
        r = self._call(step.name, "GET", f"{self.idp_url}/challenge?{form_encode({'user': user})}")
        if r.status_code != 200:
            return r.text.strip() or str(r.status_code)
        ch, salt, iterations = saml.parse_challenge_document(r.content, user)
        ltk = kx.derive_long_term_key(pin.encode("utf-8"), salt, iterations)
        tag = kx.answer_challenge(ltk, ch)
        r = self._call(
            step.name,
            "POST",
            f"{self.idp_url}/sso",
            data={
                "SAMLRequest": self.request_b64,
                "user": user,
                "challenge-id": ch.challenge_id,
                "answer": base64.b64encode(tag).decode("ascii"),
            },
        )
        if r.status_code != 200:
            return r.text.strip() or str(r.status_code)
        response_b64 = form_decode(r.text).get("SAMLResponse")
        if not response_b64:
            raise StepStateError("SSO success reply carries no SAMLResponse")
        self.response_b64 = response_b64
        return "ok"

    def _post_response(self, step: Step) -> str:
        if self.response_b64 is None:
            raise StepStateError("no captured SAMLResponse; run solve-challenge first")
        r = self._call(step.name, "POST", f"{self.sp_url}/acs", data={"SAMLResponse": self.response_b64})
        if r.status_code != 200:
            return r.text.strip() or str(r.status_code)
        token = r.headers.get(SESSION_HEADER)
        if not token:
            raise StepStateError("ACS success reply carries no session token")
        self.session_token = token
        return "ok"

    def _fetch_resource(self, step: Step) -> str:
        if self.session_token is None:
            raise StepStateError("no session token; run post-response first")
        r = self._call(
            step.name, "GET", f"{self.sp_url}/resource", headers={SESSION_HEADER: self.session_token}
        )
        return "ok" if r.status_code == 200 else r.text.strip() or str(r.status_code)

    def _flip_bit(self, step: Step) -> str:
        target = step.args[0]
        if target == "response.ciphertext":
            if self.response_b64 is None:
                raise StepStateError("no captured SAMLResponse to mutate")
            response = saml.decode_message(self.response_b64, saml.SsoResponse)
            sealed = response.encrypted_assertion
            mutated = bytearray(sealed.ciphertext)
            mutated[0] ^= 0x01
            broken = replace(response, encrypted_assertion=replace(sealed, ciphertext=bytes(mutated)))
            self.response_b64 = saml.encode_message(broken)
            return "ok"
        if target == "request.issuer":
            if self.request_b64 is None:
                raise StepStateError("no captured SAMLRequest to mutate")
            request = saml.decode_message(self.request_b64, saml.AuthnRequest)
            flipped = request.sp_entity_id[:-1] + chr(ord(request.sp_entity_id[-1]) ^ 0x01)
            forged = replace(request, sp_entity_id=flipped)
            self.request_b64 = saml.encode_message(forged)
            return "ok"
        raise StepStateError(f"unknown flip target {target!r}")

    def _skew_clock(self, step: Step) -> str:
        self.clock_skew = float(step.args[0])
        return "ok"


# step name -> (argument count, default expected outcome, Agent method)
STEPS = {
    "register": (2, "created", Agent._register),
    "gate": (0, "redirect", Agent._gate),
    "solve-challenge": (2, "ok", Agent._solve_challenge),
    "use-wrong-pin": (2, "reject-auth", Agent._solve_challenge),
    "post-response": (0, "ok", Agent._post_response),
    "replay-last-response": (0, "replayed", Agent._post_response),
    "fetch-resource": (0, "ok", Agent._fetch_resource),
    "flip-bit-in": (1, "ok", Agent._flip_bit),
    "skew-clock": (1, "ok", Agent._skew_clock),
}
DEFAULT_EXPECT = {name: expect for name, (_, expect, _) in STEPS.items()}


def run_scenario(scenario: Scenario, idp_url: str, sp_url: str) -> ScenarioResult:
    """Execute steps in order; stops at the first mismatched outcome."""
    agent = Agent(idp_url, sp_url)
    outcomes: list[StepOutcome] = []
    aborted = None
    passed = True
    try:
        for step in scenario.steps:
            try:
                actual = agent.execute(step)
            except (OSError, MalformedMessage) as exc:
                aborted = f"step {step.name} (line {step.line}): network failure: {exc}"
                passed = False
                break
            except (StepStateError, ValueError) as exc:
                aborted = f"step {step.name} (line {step.line}): {exc}"
                passed = False
                break
            ok = actual == step.expect
            outcomes.append(
                StepOutcome(step.name, step.args, step.expect, actual, ok, step.line)
            )
            if not ok:
                passed = False
                break
    finally:
        agent.close()
    return ScenarioResult(
        name=scenario.name,
        passed=passed,
        outcomes=outcomes,
        transcript=agent.transcript,
        aborted=aborted,
    )


def run_suite(
    path: str, idp_url: str, sp_url: str, parallel: bool = False
) -> list[ScenarioResult]:
    with open(path, encoding="utf-8") as fh:
        scenarios = parse_suite(fh.read())
    if parallel and len(scenarios) > 1:
        with ThreadPoolExecutor() as pool:
            futures = [
                pool.submit(run_scenario, s, idp_url, sp_url) for s in scenarios
            ]
            return [f.result() for f in futures]
    return [run_scenario(s, idp_url, sp_url) for s in scenarios]


def summarize(results: list[ScenarioResult]) -> tuple[str, int]:
    """One line per scenario plus a totals line; exit code 0 iff all passed."""
    lines = []
    for result in results:
        if result.passed:
            lines.append(f"PASS {result.name}")
            continue
        if result.aborted:
            lines.append(f"FAIL {result.name}: aborted: {result.aborted}")
        else:
            bad = next(o for o in result.outcomes if not o.ok)
            lines.append(
                f"FAIL {result.name}: step {bad.step} (line {bad.line}) "
                f"expected {bad.expected!r}, got {bad.actual!r}"
            )
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} scenarios passed")
    return "\n".join(lines), 0 if failed == 0 else 1


def transcript_bytes(result: ScenarioResult) -> bytes:
    """Canonical serialization of a scenario transcript."""
    return json.dumps(result.transcript, sort_keys=True, indent=1).encode("utf-8")
