import base64
import logging
import pathlib
import re
import socket
import statistics
import struct
import sys
import threading
import time
from urllib.parse import parse_qs, urlencode, urlsplit

import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hbesso import keyexchange as kx
from hbesso import saml
from hbesso.httpbase import MAX_BODY_BYTES, SKEW_HEADER, ServiceServer, form_decode, form_encode, parse_listen_address
from hbesso.idp import IdpHandler
from hbesso.saml import parse_challenge_document
from hbesso.sp import SESSION_HEADER, SpHandler
from live_services import start_pair, start_server


@pytest.fixture(scope="module")
def pair():
    live = start_pair()
    yield live
    live.stop()


def register(pair, user, pin):
    return requests.post(f"{pair.idp_url}/register", data={"user": user, "pin": pin}, timeout=5)


def sso_dance(pair, user, pin, request_b64=None, skew=None):
    """Manual wire flow; returns the final /acs response."""
    headers = {} if skew is None else {SKEW_HEADER: str(skew)}
    if request_b64 is None:
        gate = requests.get(f"{pair.sp_url}/resource", allow_redirects=False, timeout=5)
        assert gate.status_code == 302
        query = parse_qs(urlsplit(gate.headers["Location"]).query)
        request_b64 = query["SAMLRequest"][0]
    ch_resp = requests.get(f"{pair.idp_url}/challenge", params={"user": user}, timeout=5)
    assert ch_resp.status_code == 200
    ch, salt, iterations = parse_challenge_document(ch_resp.content, user)
    ltk = kx.derive_long_term_key(pin.encode(), salt, iterations)
    tag = kx.answer_challenge(ltk, ch)
    sso = requests.post(
        f"{pair.idp_url}/sso",
        data={
            "SAMLRequest": request_b64,
            "user": user,
            "challenge-id": ch.challenge_id,
            "answer": base64.b64encode(tag).decode(),
        },
        timeout=5,
    )
    if sso.status_code != 200:
        return sso
    response_b64 = parse_qs(sso.text)["SAMLResponse"][0]
    return requests.post(
        f"{pair.sp_url}/acs", data={"SAMLResponse": response_b64}, headers=headers, timeout=5
    )


def test_register_endpoint_statuses(pair):
    assert register(pair, "alice", "pin-alpha-1").status_code == 201
    dup = register(pair, "alice", "pin-alpha-1")
    assert dup.status_code == 409
    assert dup.text == "duplicate-user"
    bad = register(pair, "bob", "x" * 40)
    assert bad.status_code == 400
    assert bad.text == "invalid-pin"
    bad_user = register(pair, "bad\tuser", "pin-ok-1")
    assert bad_user.status_code == 400
    assert bad_user.text == "invalid-user"


def test_challenge_endpoint_shape(pair):
    register(pair, "carl", "pin-c-2")
    resp = requests.get(f"{pair.idp_url}/challenge", params={"user": "carl"}, timeout=5)
    assert resp.status_code == 200
    assert resp.headers["Content-Type"].startswith("application/xml")
    ch, salt, iterations = parse_challenge_document(resp.content, "carl")
    assert len(ch.nonce) == 16 and len(salt) == 16 and iterations >= 1
    # unknown users get the same shape
    ghost = requests.get(f"{pair.idp_url}/challenge", params={"user": "ghost"}, timeout=5)
    assert ghost.status_code == 200
    parse_challenge_document(ghost.content, "ghost")


def test_full_wire_flow(pair):
    register(pair, "dora", "pin-d-3")
    acs = sso_dance(pair, "dora", "pin-d-3")
    assert acs.status_code == 200
    token = acs.headers[SESSION_HEADER]
    resource = requests.get(
        f"{pair.sp_url}/resource", headers={SESSION_HEADER: token}, timeout=5
    )
    assert resource.status_code == 200
    assert "dora" in resource.text


def test_wrong_pin_rejected_on_the_wire(pair):
    register(pair, "ed", "pin-e-4")
    resp = sso_dance(pair, "ed", "wrong-pin")
    assert resp.status_code == 403
    assert resp.text == "reject-auth"


def test_unknown_user_rejected_as_auth_failure(pair):
    resp = sso_dance(pair, "nobody-here", "pin-x")
    assert resp.status_code == 403
    assert resp.text == "reject-auth"


def test_unknown_sp_rejected(pair):
    register(pair, "fay", "pin-f-5")
    forged = saml.build_authn_request("rogue.example", "http://x/acs", 1_700_000_000)
    request_b64 = base64.b64encode(saml.serialize(forged)).decode()
    resp = sso_dance(pair, "fay", "pin-f-5", request_b64=request_b64)
    assert resp.status_code == 403
    assert resp.text == "unknown-sp"


def test_malformed_saml_request_is_400(pair):
    resp = requests.post(
        f"{pair.idp_url}/sso",
        data={"SAMLRequest": "!!!", "user": "x", "challenge-id": "y", "answer": "zz"},
        timeout=5,
    )
    assert resp.status_code == 400
    assert resp.text == "malformed"


def test_replayed_response_rejected_on_the_wire(pair):
    register(pair, "gil", "pin-g-6")
    acs = sso_dance(pair, "gil", "pin-g-6")
    assert acs.status_code == 200
    # re-posting the exact same SAMLResponse must fail; capture it by
    # re-running the dance and replaying its payload
    gate = requests.get(f"{pair.sp_url}/resource", allow_redirects=False, timeout=5)
    request_b64 = parse_qs(urlsplit(gate.headers["Location"]).query)["SAMLRequest"][0]
    ch_resp = requests.get(f"{pair.idp_url}/challenge", params={"user": "gil"}, timeout=5)
    ch, salt, iterations = parse_challenge_document(ch_resp.content, "gil")
    ltk = kx.derive_long_term_key(b"pin-g-6", salt, iterations)
    sso = requests.post(
        f"{pair.idp_url}/sso",
        data={
            "SAMLRequest": request_b64,
            "user": "gil",
            "challenge-id": ch.challenge_id,
            "answer": base64.b64encode(kx.answer_challenge(ltk, ch)).decode(),
        },
        timeout=5,
    )
    response_b64 = parse_qs(sso.text)["SAMLResponse"][0]
    first = requests.post(f"{pair.sp_url}/acs", data={"SAMLResponse": response_b64}, timeout=5)
    second = requests.post(f"{pair.sp_url}/acs", data={"SAMLResponse": response_b64}, timeout=5)
    assert first.status_code == 200
    assert second.status_code == 403
    assert second.text == "replayed"


def test_malformed_acs_payload_is_403(pair):
    resp = requests.post(f"{pair.sp_url}/acs", data={"SAMLResponse": "@@@"}, timeout=5)
    assert resp.status_code == 403
    assert resp.text == "malformed"


def test_resource_without_session_redirects(pair):
    resp = requests.get(f"{pair.sp_url}/resource", allow_redirects=False, timeout=5)
    assert resp.status_code == 302
    assert "SAMLRequest=" in resp.headers["Location"]


def test_resource_with_bogus_token_is_401(pair):
    resp = requests.get(
        f"{pair.sp_url}/resource", headers={SESSION_HEADER: "ff" * 16}, timeout=5
    )
    assert resp.status_code == 401


def test_unknown_paths_are_404(pair):
    assert requests.get(f"{pair.idp_url}/nope", timeout=5).status_code == 404
    assert requests.post(f"{pair.sp_url}/nope", timeout=5).status_code == 404


@pytest.mark.parametrize(
    "service, method, path",
    [
        ("idp", "GET", "/nope"),
        ("sp", "POST", "/nope"),
        ("idp", "GET", "/register"),
        ("idp", "GET", "/sso"),
        ("idp", "POST", "/challenge"),
        ("sp", "GET", "/acs"),
        ("sp", "POST", "/resource"),
        ("sp", "POST", "/acs?x=1"),
        ("idp", "POST", "/register?x=1"),
    ],
)
def test_unrouted_requests_are_404(pair, service, method, path):
    url = getattr(pair, f"{service}_url") + path
    assert requests.request(method, url, allow_redirects=False, timeout=5).status_code == 404


@pytest.mark.parametrize("service, path", [("idp", "/register"), ("sp", "/acs")])
@pytest.mark.parametrize(
    "length, status",
    [("abc", 400), ("-1", 400), (str(MAX_BODY_BYTES + 1), 413), (None, 411)],
)
def test_bad_content_length_answered_before_any_read(pair, service, path, length, status):
    url = urlsplit(getattr(pair, f"{service}_url"))
    length_line = "" if length is None else f"Content-Length: {length}\r\n"
    head = f"POST {path} HTTP/1.1\r\nHost: {url.netloc}\r\n{length_line}\r\n"
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        sock.sendall(head.encode("ascii"))
        reply = b""
        while chunk := sock.recv(4096):  # the server must close, not wait for a body
            reply += chunk
    assert reply.split(b"\r\n", 1)[0].split(b" ")[1] == str(status).encode()
    assert b"Connection: close" in reply


@pytest.mark.parametrize(
    "service, target, status",
    [
        # urlsplit refuses this target ("Invalid IPv6 URL"), so it must not read the query
        ("idp", "http://[x/challenge?user=q", b"404"),
        ("sp", "http://[x/resource", b"404"),
        ("sp", "/resource?x=1#f", b"302"),
        # the query ends at "#": the user id is "q", not "q#f"
        ("idp", "/challenge?user=q#f", b"200"),
    ],
)
def test_a_get_target_is_routed_on_its_text_before_the_query(pair, service, target, status):
    url = urlsplit(getattr(pair, f"{service}_url"))
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        sock.sendall(f"GET {target} HTTP/1.1\r\nHost: {url.netloc}\r\n\r\n".encode("ascii"))
        assert read_response(sock).split(b" ", 2)[1] == status


def test_content_length_digits_are_counted_before_int_reads_them(pair):
    # int() refuses a string of more than 4,300 digits
    url = urlsplit(pair.sp_url)
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        sock.sendall(f"POST /acs HTTP/1.1\r\nHost: {url.netloc}\r\nContent-Length: {'9' * 5000}\r\n\r\n".encode())
        reply = read_response(sock)
    assert reply.startswith(b"HTTP/1.1 413 ") and b"\r\nConnection: close\r\n" in reply
    assert reply.endswith(b"\r\n\r\nbody too large")
    answers = []
    for length in ("0" * 4999 + "1", "1"):  # a padded length reads as its value
        with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
            sock.sendall(f"POST /acs HTTP/1.1\r\nHost: {url.netloc}\r\nContent-Length: {length}\r\n\r\nx".encode())
            reply = read_response(sock)
        answers.append((reply.split(b"\r\n", 1)[0], reply.partition(b"\r\n\r\n")[2]))
    assert answers[0] == answers[1] == (b"HTTP/1.1 403 Forbidden", b"malformed")


@pytest.mark.parametrize(
    "service, method, path, data",
    [
        ("sp", "GET", "/resource", None),
        ("idp", "GET", "/challenge?user=ghost", None),
        ("sp", "POST", "/acs", {"SAMLResponse": "@@@"}),
    ],
)
def test_keep_alive_responses_leave_at_once(pair, service, method, path, data):
    # a response held back for the client's delayed ACK costs ~40 ms on
    # loopback; one that leaves at once costs a few ms
    url = getattr(pair, f"{service}_url") + path
    with requests.Session() as session:
        session.request(method, url, data=data, allow_redirects=False, timeout=5)
        times = []
        for _ in range(10):
            start = time.perf_counter()
            resp = session.request(method, url, data=data, allow_redirects=False, timeout=5)
            times.append(time.perf_counter() - start)
            assert resp.status_code in (200, 302, 403)
    assert statistics.median(times) < 0.020


def recv_some(sock) -> bytes:
    chunk = sock.recv(4096)
    assert chunk, "server closed the connection mid-response"
    return chunk


def read_response(sock) -> bytes:
    """One response off a keep-alive socket: head, then Content-Length octets."""
    data = b""
    while b"\r\n\r\n" not in data:
        data += recv_some(sock)
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(re.search(rb"\r\nContent-Length: (\d+)\r\n", head + b"\r\n").group(1))
    while len(body) < length:
        body += recv_some(sock)
    return head + b"\r\n\r\n" + body[:length]


def test_response_bytes_keep_their_format(pair):
    url = urlsplit(pair.sp_url)
    host = f"Host: {url.netloc}\r\n"
    form = b"SAMLResponse=%40%40%40"
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        sock.sendall(f"GET /resource HTTP/1.1\r\n{host}\r\n".encode("ascii"))
        redirect = read_response(sock)
        sock.sendall(
            f"POST /acs HTTP/1.1\r\n{host}Content-Type: application/x-www-form-urlencoded\r\n"
            f"Content-Length: {len(form)}\r\n\r\n".encode("ascii") + form
        )
        reject = read_response(sock)
    # version_string() reads class attributes only
    server = re.escape(SpHandler.version_string(SpHandler).encode("ascii"))
    date = rb"Date: [^\r\n]+\r\n"
    location = re.search(rb"\r\nLocation: ([^\r\n]+)\r\n", redirect).group(1)
    assert location.startswith(pair.idp_url.encode("ascii") + b"/sso?SAMLRequest=")
    redirect_body = b"redirect to identity provider"
    assert re.fullmatch(
        rb"HTTP/1\.1 302 Found\r\nServer: " + server + rb"\r\n" + date
        + rb"Content-Type: text/plain\r\nContent-Length: %d\r\n" % len(redirect_body)
        + rb"Location: " + re.escape(location) + rb"\r\n\r\n" + re.escape(redirect_body),
        redirect,
    )
    assert re.fullmatch(
        rb"HTTP/1\.1 403 Forbidden\r\nServer: " + server + rb"\r\n" + date
        + rb"Content-Type: text/plain\r\nContent-Length: 9\r\n\r\nmalformed",
        reject,
    )


def test_expect_continue_gets_a_bare_interim_line(pair):
    url = urlsplit(pair.sp_url)
    form = b"SAMLResponse=%40%40%40"
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        sock.sendall(
            f"POST /acs HTTP/1.1\r\nHost: {url.netloc}\r\nExpect: 100-continue\r\n"
            f"Content-Length: {len(form)}\r\n\r\n".encode("ascii")
        )
        interim = sock.recv(64)
        sock.sendall(form)
        reject = read_response(sock)
    assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
    assert reject.startswith(b"HTTP/1.1 403 Forbidden\r\n") and reject.endswith(b"\r\n\r\nmalformed")


# nested internal entities: the Issuer would expand to 1,000 characters,
# but the XML reader refuses the DOCTYPE before expat reads it
DOCTYPE = b'<!DOCTYPE x [<!ENTITY e0 "xxxxxxxxxx">' + b"".join(
    b'<!ENTITY e%d "%s">' % (i, b"&e%d;" % (i - 1) * 10) for i in (1, 2)
) + b"]>"
DOCTYPE_REQUEST = base64.b64encode(
    DOCTYPE + b'<AuthnRequest ID="dtd-1" IssueInstant="2024-01-01T00:00:00Z"><Issuer>&e2;</Issuer>'
    b"<AssertionConsumerServiceURL>http://sp/acs</AssertionConsumerServiceURL></AuthnRequest>"
).decode()
DOCTYPE_RESPONSE = base64.b64encode(
    DOCTYPE + b'<Response InResponseTo="dtd-2"><Issuer>&e2;</Issuer><EncryptedAssertion>'
    + kx.encode_payload(kx.seal(bytes(16), bytes(kx.NONCE_SIZE), b"<Assertion/>", key_id="fed-1")).encode()
    + b"</EncryptedAssertion></Response>"
).decode()

# every refusal the route handlers raise and dispatch answers:
# (service, method, target, form, headers, status line, body)
REFUSALS = [
    ("idp", "GET", "/challenge", None, {}, "400 Bad Request", "missing user parameter"),
    ("idp", "GET", "/challenge?user=", None, {}, "400 Bad Request", "missing user parameter"),
    ("idp", "POST", "/register", {"user": "bad\tuser", "pin": "pin-ok-1"}, {}, "400 Bad Request", "invalid-user"),
    ("idp", "POST", "/register", {"user": "refused-pin", "pin": "x" * 40}, {}, "400 Bad Request", "invalid-pin"),
    (
        "idp", "POST", "/sso",
        {"SAMLRequest": "!!!", "user": "sso-user", "challenge-id": "sso-challenge", "answer": "zz"},
        {}, "400 Bad Request", "malformed",
    ),
    (
        "idp", "POST", "/sso",
        {"SAMLRequest": DOCTYPE_REQUEST, "user": "sso-user", "challenge-id": "sso-challenge", "answer": "AAAA"},
        {}, "400 Bad Request", "malformed",
    ),
    ("idp", "POST", "/register", {"user": "refused-twice", "pin": "pin-dup-1"}, {}, "409 Conflict", "duplicate-user"),
    ("sp", "GET", "/resource", None, {SESSION_HEADER: "ff" * 16}, "401 Unauthorized", "unauthorized"),
    ("sp", "POST", "/acs", {"SAMLResponse": "@@@"}, {}, "403 Forbidden", "malformed"),
    ("sp", "POST", "/acs", {"SAMLResponse": DOCTYPE_RESPONSE}, {}, "403 Forbidden", "malformed"),
    ("idp", "GET", "/nope?user=probe", None, {}, "404 Not Found", "not found"),
    ("sp", "POST", "/nope?x=probe", {"SAMLResponse": "@@@"}, {}, "404 Not Found", "not found"),
]
REFUSAL_IDS = [
    "challenge-no-user", "challenge-empty-user", "register-invalid-user", "register-invalid-pin",
    "sso-malformed", "sso-doctype", "register-duplicate-user", "resource-unauthorized", "acs-malformed",
    "acs-doctype", "idp-not-found", "sp-not-found",
]


def raw_exchange(pair, service, method, target, form, headers) -> bytes:
    """One request on a fresh socket; the response exactly as it arrived."""
    url = urlsplit(getattr(pair, f"{service}_url"))
    head = [f"{method} {target} HTTP/1.1", f"Host: {url.netloc}"]
    head += [f"{name}: {value}" for name, value in headers.items()]
    body = b""
    if method == "POST":
        body = urlencode(form).encode("ascii")
        head += ["Content-Type: application/x-www-form-urlencoded", f"Content-Length: {len(body)}"]
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        sock.sendall("\r\n".join(head).encode("ascii") + b"\r\n\r\n" + body)
        return read_response(sock)


@pytest.mark.parametrize("service, method, target, form, headers, status, body", REFUSALS, ids=REFUSAL_IDS)
def test_refusal_bytes_keep_their_format(pair, service, method, target, form, headers, status, body):
    register(pair, "refused-twice", "pin-dup-1")  # the duplicate-user case needs the id taken
    reply = raw_exchange(pair, service, method, target, form, headers)
    server = re.escape(SpHandler.version_string(SpHandler).encode("ascii"))
    assert re.fullmatch(
        rb"HTTP/1\.1 " + status.encode("ascii") + rb"\r\nServer: " + server + rb"\r\nDate: [^\r\n]+\r\n"
        + rb"Content-Type: text/plain\r\nContent-Length: %d\r\n\r\n" % len(body) + re.escape(body.encode("ascii")),
        reply,
    )


@pytest.mark.parametrize("service, method, target, form, headers, status, body", REFUSALS, ids=REFUSAL_IDS)
def test_each_refusal_is_logged_once(pair, caplog, service, method, target, form, headers, status, body):
    register(pair, "refused-twice", "pin-dup-1")
    caplog.set_level(logging.INFO, logger="hbesso.http")
    caplog.clear()
    raw_exchange(pair, service, method, target, form, headers)
    # dispatch logs before it answers, so the record is in once the reply is
    records = [r for r in caplog.records if r.name == "hbesso.http" and r.levelno == logging.INFO]
    assert len(records) == 1
    message = records[0].getMessage()
    assert message == f"{method} {target.split('?')[0]} rejected: {status.split()[0]} {body}"
    for secret in [*(form or {}).values(), *headers.values(), target.partition("?")[2]]:
        assert not secret or secret not in message


@pytest.mark.parametrize(
    "request_line, reply_start, access_line",
    [
        ("GET /challenge?user=log-secret-1 HTTP/1.1", b"HTTP/1.1 200 OK\r\n", "GET /challenge 200"),
        ("GET /challenge?user=log-secret-2 HTTP/1.1 junk", b"HTTP/1.1 400 Bad Request\r\n", "- - 400"),
        ("GET /challenge?user=log-secret-3 junk HTTP/1.1", b"HTTP/1.1 400 Bad Request\r\n", "- - 400"),
    ],
    ids=["challenge", "bad-version", "bad-syntax"],
)
def test_debug_log_keeps_queries_out(pair, caplog, request_line, reply_start, access_line):
    url = urlsplit(pair.idp_url)
    caplog.set_level(logging.DEBUG, logger="hbesso.http")
    caplog.clear()
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        sock.sendall(f"{request_line}\r\nHost: {url.netloc}\r\nConnection: close\r\n\r\n".encode("ascii"))
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    assert reply.startswith(reply_start)
    # the access line is logged before the reply leaves
    messages = [r.getMessage() for r in caplog.records if r.name == "hbesso.http"]
    assert messages == [f"127.0.0.1 {access_line}"]
    user = request_line.split("=")[1].split()[0]
    assert not any(user in message for message in messages)
    assert user.encode("ascii") not in reply


@pytest.mark.parametrize(
    "request_line, status, reason",
    [
        ("GET /challenge?user=q HTTP/1.1 junk", "400 Bad Request", "bad request"),
        ("GET /challenge?user=q junk HTTP/1.1", "400 Bad Request", "bad request"),
        ("POST /sso?user=q", "400 Bad Request", "bad request"),
        ("GET /challenge?user=q HTTP/2.0", "505 HTTP Version Not Supported", "http version not supported"),
        ("PUT /challenge?user=q HTTP/1.1", "501 Not Implemented", "not implemented"),
        ("HEAD /challenge?user=q HTTP/1.1", "501 Not Implemented", ""),
        ("GET /challenge?user=q HTTP/1.1\r\nNo-Colon", "400 Bad Request", "bad request"),
        ("GET /challenge?user=q HTTP/1.1\r\nX-Space : before-colon", "400 Bad Request", "bad request"),
        ("GET /challenge?user=q HTTP/1.1\r\nX-Folded: first\r\n continued", "400 Bad Request", "bad request"),
        (
            "GET /challenge?user=q HTTP/1.1\r\nX-Pad: " + "a" * (64 * 1024),
            "431 Request Header Fields Too Large", "request header fields too large",
        ),
    ],
    ids=[
        "bad-version", "bad-syntax", "http-09-post", "http-2", "unknown-method", "head",
        "header-without-colon", "space-before-colon", "obs-fold", "head-over-64KiB",
    ],
)
def test_base_class_refusals_are_plain_text(pair, request_line, status, reason):
    # the refusals the HTTP layer makes before any route runs take the shape
    # of dispatch's, close the connection and never quote the request
    url = urlsplit(pair.idp_url)
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        sock.sendall(f"{request_line}\r\nHost: {url.netloc}\r\n\r\n".encode("ascii"))
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    server = re.escape(SpHandler.version_string(SpHandler).encode("ascii"))
    assert re.fullmatch(
        rb"HTTP/1\.1 " + status.encode("ascii") + rb"\r\nServer: " + server + rb"\r\nDate: [^\r\n]+\r\n"
        + rb"Content-Type: text/plain\r\nContent-Length: %d\r\nConnection: close\r\n\r\n" % len(reason)
        + reason.encode("ascii"),
        reply,
    )


@pytest.mark.parametrize(
    "user, accepted",
    [("tab\tid", False), ("é" * 128, False), ("é" * 127 + "a", True)],
    ids=["tab", "256-octets", "255-octets"],
)
def test_one_user_id_rule_at_both_endpoints(pair, user, accepted):
    # "é" is two UTF-8 octets: 256 octets are refused, 255 accepted
    challenge = requests.get(f"{pair.idp_url}/challenge", params={"user": user}, timeout=5)
    registered = register(pair, user, "pin-u-1")
    if accepted:
        assert (challenge.status_code, registered.status_code) == (200, 201)
    else:
        assert (challenge.status_code, challenge.text) == (400, "invalid-user")
        assert (registered.status_code, registered.text) == (400, "invalid-user")


def test_http_09_request_gets_bare_body(pair):
    url = urlsplit(pair.idp_url)
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        sock.sendall(b"GET /challenge?user=ghost\r\n\r\n")
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    assert reply.startswith(b"<Challenge ")
    parse_challenge_document(reply, "ghost")


def test_a_head_with_bare_lf_line_ends_is_answered(pair):
    url = urlsplit(pair.idp_url)
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        sock.sendall(b"GET /challenge?user=ghost HTTP/1.1\nHost: x\nConnection: close\n\n")
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
    parse_challenge_document(reply.partition(b"\r\n\r\n")[2], "ghost")


def test_clock_skew_header_expires_assertion(pair):
    register(pair, "hana", "pin-h-7")
    resp = sso_dance(pair, "hana", "pin-h-7", skew=240)
    assert resp.status_code == 403
    assert resp.text == "expired"


def test_clock_skew_header_ignored_without_flag(key_store):
    live = start_pair(key_store=key_store, test_clock=False)
    try:
        register(live, "ivan", "pin-i-8")
        resp = sso_dance(live, "ivan", "pin-i-8", skew=240)
        assert resp.status_code == 200
    finally:
        live.stop()


@pytest.mark.parametrize(
    "skew", ["nan", "inf", "-inf", "1e12", "-1e12", "1e20", "-1e20", "end-of-9999"]
)
def test_non_finite_clock_skew_is_ignored(pair, skew):
    if skew == "end-of-9999":
        # "now" 30 s before 9999-12-31T23:59:59Z: the challenge expiry falls in year 10000
        skew = repr(253402300799 - time.time() - 30)
    resp = requests.get(
        f"{pair.idp_url}/challenge",
        params={"user": "ghost"},
        headers={SKEW_HEADER: skew},
        timeout=5,
    )
    assert resp.status_code == 200
    parse_challenge_document(resp.content, "ghost")
    gate = requests.get(
        f"{pair.sp_url}/resource", headers={SKEW_HEADER: skew}, allow_redirects=False, timeout=5
    )
    assert gate.status_code == 302


def test_parse_listen_address():
    assert parse_listen_address("127.0.0.1:8443") == ("127.0.0.1", 8443)
    with pytest.raises(ValueError):
        parse_listen_address("8443")
    with pytest.raises(ValueError):
        parse_listen_address("host:port")


# form fields weighted towards what the encoder must escape; empty included
form_text = st.one_of(st.text(), st.text(alphabet=st.sampled_from("+%&=/~ a.-_é用\U0001F600\x00\x7f"), max_size=12))


@settings(max_examples=300)
@given(fields=st.dictionaries(form_text, form_text, max_size=5))
def test_form_encode_is_urlencode(fields):
    assert form_encode(fields) == urlencode(fields)
    assert form_decode(form_encode(fields)) == fields


# -- handler threads ---------------------------------------------------------


def recording_pair():
    """A fresh pair whose SP records the thread that serves each connection:
    (pair, the Thread objects in serving order, a semaphore released as each
    connection ends).  The objects, not `get_ident()`: the OS reuses an
    ident once its thread has exited."""
    live = start_pair()
    threads, ended = [], threading.Semaphore(0)
    original = live.sp_server.process_request_thread

    def recording(request, client_address):
        threads.append(threading.current_thread())
        try:
            original(request, client_address)
        finally:
            ended.release()

    live.sp_server.process_request_thread = recording
    return live, threads, ended


@pytest.fixture
def served():
    live, threads, ended = recording_pair()
    yield live, threads, ended
    live.stop()


def gate_on(sock, url) -> bytes:
    sock.sendall(f"GET /resource HTTP/1.1\r\nHost: {url.netloc}\r\n\r\n".encode("ascii"))
    return read_response(sock)


def test_connections_one_after_another_share_a_handler_thread(served):
    live, threads, ended = served
    url = urlsplit(live.sp_url)
    for _ in range(2):
        with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
            assert gate_on(sock, url).startswith(b"HTTP/1.1 302 ")
        assert ended.acquire(timeout=5)
        time.sleep(0.05)  # the thread goes idle just after its connection ends
    assert len(threads) == 2 and threads[0] is threads[1]


def test_concurrent_connections_are_all_answered(served):
    live, threads, ended = served
    url = urlsplit(live.sp_url)
    socks = [socket.create_connection((url.hostname, url.port), timeout=5) for _ in range(8)]
    try:
        for sock in socks:  # every connection stays open, holding its thread
            sock.sendall(f"GET /resource HTTP/1.1\r\nHost: {url.netloc}\r\n\r\n".encode("ascii"))
        replies = [read_response(sock) for sock in socks]
    finally:
        for sock in socks:
            sock.close()
    assert all(reply.startswith(b"HTTP/1.1 302 ") for reply in replies)
    assert len(set(threads)) == 8


def test_server_close_ends_the_handler_threads():
    start = threading.active_count()
    live = start_pair()
    url = urlsplit(live.sp_url)
    socks = [socket.create_connection((url.hostname, url.port), timeout=5) for _ in range(4)]
    for sock in socks:
        assert gate_on(sock, url).startswith(b"HTTP/1.1 302 ")
    assert threading.active_count() >= start + 4
    for sock in socks:
        sock.close()
    live.stop()
    deadline = time.monotonic() + 5
    while threading.active_count() > start and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() == start


def test_handler_threads_survive_contention():
    # 8 clients open connection after connection while the interpreter
    # switches threads often: every request is answered, threads are reused,
    # and a hand-off lost or made twice would leave a thread behind or a
    # connection unanswered
    start = threading.active_count()
    live, threads, ended = recording_pair()
    url = urlsplit(live.sp_url)
    replies = []

    def client():
        for _ in range(10):
            with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
                replies.append(gate_on(sock, url))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=client) for _ in range(8)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
        for _ in range(len(threads)):
            ended.acquire(timeout=5)
        live.stop()
    assert not any(thread.is_alive() for thread in clients)
    assert len(replies) == 80 and all(reply.startswith(b"HTTP/1.1 302 ") for reply in replies)
    assert len(set(threads)) < 80
    deadline = time.monotonic() + 5
    while threading.active_count() > start and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() == start


class TwoIdleThreadsServer(ServiceServer):
    max_idle_threads = 2


def test_idle_handler_threads_are_capped(pair):
    server = TwoIdleThreadsServer(("127.0.0.1", 0), SpHandler, pair.sp)
    serving = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    serving.start()
    start = set(threading.enumerate())  # threads of other tests may end meanwhile

    def handler_threads() -> int:
        return sum(thread.is_alive() for thread in set(threading.enumerate()) - start)

    url = urlsplit(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        socks = [socket.create_connection((url.hostname, url.port), timeout=5) for _ in range(5)]
        try:
            for sock in socks:  # every connection stays open, holding its thread
                assert gate_on(sock, url).startswith(b"HTTP/1.1 302 ")
            assert handler_threads() == 5
        finally:
            for sock in socks:
                sock.close()
        deadline = time.monotonic() + 5
        while handler_threads() > 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert handler_threads() == 2
        with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
            assert gate_on(sock, url).startswith(b"HTTP/1.1 302 ")
        assert handler_threads() == 2
    finally:
        server.shutdown()
        server.server_close()
        serving.join(5)


def test_a_reset_connection_ends_quietly(served, capfd):
    live, threads, ended = served
    url = urlsplit(live.sp_url)
    sock = socket.create_connection((url.hostname, url.port), timeout=5)
    sock.sendall(f"GET /resource HTTP/1.1\r\nHost: {url.netloc}\r\n\r\n".encode("ascii"))
    assert sock.recv(1, socket.MSG_PEEK)  # the reply has arrived, unread
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()  # a reset, not a FIN
    assert ended.acquire(timeout=5)
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        assert gate_on(sock, url).startswith(b"HTTP/1.1 302 ")
    assert capfd.readouterr().err == ""


class FailingSpHandler(SpHandler):
    def fail(self, query: dict[str, str]) -> None:
        raise RuntimeError("route failed")

    routes = {**SpHandler.routes, ("GET", "/fail"): fail}


def test_an_unexpected_route_error_reaches_handle_error(pair):
    server = start_server(pair.sp, FailingSpHandler, 0, test_clock=False)
    errors = []
    server.handle_error = lambda request, client_address: errors.append(sys.exc_info()[0])
    url = urlsplit(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
            sock.sendall(f"GET /fail HTTP/1.1\r\nHost: {url.netloc}\r\n\r\n".encode("ascii"))
            assert sock.recv(1) == b""  # closed without a reply
        assert errors == [RuntimeError]
        with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
            assert gate_on(sock, url).startswith(b"HTTP/1.1 302 ")
    finally:
        server.shutdown()
        server.server_close()


# -- socket timeout ----------------------------------------------------------


class QuickTimeoutSpHandler(SpHandler):
    timeout = 0.5


def test_silent_or_half_sent_connections_are_closed_without_a_reply(pair, caplog):
    server = start_server(pair.sp, QuickTimeoutSpHandler, 0, test_clock=False)
    url = urlsplit(f"http://127.0.0.1:{server.server_address[1]}")
    sent = [
        b"",
        b"GET /resource HTTP/1.1\r\nHost: x\r\n",
        b"POST /acs HTTP/1.1\r\nHost: x\r\nContent-Type: application/x-www-form-urlencoded\r\n"
        b"Content-Length: 10\r\n\r\nSAM",
    ]
    try:
        with caplog.at_level(logging.INFO, logger="hbesso.http"):
            socks = [socket.create_connection((url.hostname, url.port), timeout=2) for _ in sent]
            try:
                for sock, data in zip(socks, sent):
                    sock.sendall(data)
                for sock in socks:  # EOF, no reply octet, before the 2 s socket timeout
                    assert sock.recv(1) == b""
            finally:
                for sock in socks:
                    sock.close()
        lines = [r.getMessage() for r in caplog.records if r.name == "hbesso.http"]
        assert lines == ["127.0.0.1 timed out, connection closed"] * 3
        with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
            assert gate_on(sock, url).startswith(b"HTTP/1.1 302 ")
    finally:
        server.shutdown()
        server.server_close()


def test_service_handlers_time_out_idle_sockets():
    assert 0 < IdpHandler.timeout <= 10 and 0 < SpHandler.timeout <= 10


# -- property: the request path ------------------------------------------------

PROTOCOL = (pathlib.Path(__file__).resolve().parent.parent / "docs" / "PROTOCOL.md").read_text(encoding="utf-8")
# every status docs/PROTOCOL.md gives an answer (100 is the interim line)
DOCUMENTED_STATUSES = {100, 200, 201, 302, 400, 401, 403, 404, 409, 411, 413, 431, 501, 505}

TOKEN_TEXT = st.text(st.characters(min_codepoint=0x21, max_codepoint=0xFF), max_size=12)
METHODS = st.sampled_from(["GET", "POST", "HEAD", "PUT", "get", "G\x7fT"]) | TOKEN_TEXT.filter(bool)
TARGETS = st.sampled_from([
    "/resource", "/challenge", "/acs", "/register", "/sso", "/", "*", "//resource", "/resource#f",
    "http://[x/resource", "http://idp/challenge?user=q", "/resource?x=1#f", "/challenge?user=",
    "/challenge?user=q#f", "/challenge?user=%ff%00", "/challenge?user=a&user=b", "/sso?SAMLRequest=%%",
]) | st.builds(lambda path, query: f"{path}?{query}", st.sampled_from(["/challenge", "/resource", "/x"]), TOKEN_TEXT)
VERSIONS = st.sampled_from(["HTTP/1.1", "HTTP/1.0", None, "HTTP/2.0", "HTTP/01.1", "HTTP/1", "HTTP/1.1 x", "http/1.1"])
HEADERS = st.lists(st.sampled_from([
    "Content-Length: 0", "Content-Length: 1", "Content-Length: 7", f"Content-Length: {'9' * 5000}",
    f"Content-Length: {'0' * 4999}1", "Content-Length: -1", "Content-Length: x", f"Content-Length: {MAX_BODY_BYTES + 1}",
    "Connection: close", "Connection: keep-alive", "Expect: 100-continue", "Transfer-Encoding: chunked",
    f"{SKEW_HEADER}: nan", f"{SKEW_HEADER}: 1e400", f"{SKEW_HEADER}: -240", f"{SESSION_HEADER}: x",
    "Content-Type: application/x-www-form-urlencoded", "Host: x", "No colon", " folded", "Bad name: x",
]), max_size=5)
BODIES = st.sampled_from([b"", b"x", b"user=u&pin=pin-ok-1", b"SAMLResponse=%40", b"SAMLRequest=PEE%2B"]) | st.binary(max_size=40)


def test_no_request_reaches_handle_error():
    # one connection per request; the write side closes after it, so a
    # server waiting for more octets reads EOF at once
    assert all(str(status) in PROTOCOL for status in DOCUMENTED_STATUSES)
    live = start_pair()
    errors = []
    for server in (live.idp_server, live.sp_server):
        server.handle_error = lambda request, client_address: errors.append(sys.exc_info()[1])

    # the two crash shapes the sampled tokens hold, each tried on every run
    @example("sp", "GET", "http://[x/resource", "HTTP/1.1", [], b"")
    @example("idp", "POST", "/register", "HTTP/1.1", [f"Content-Length: {'9' * 5000}"], b"")
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["idp", "sp"]), METHODS, TARGETS, VERSIONS, HEADERS, BODIES)
    def answer(service, method, target, version, headers, body):
        errors.clear()
        request_line = " ".join(word for word in (method, target, version) if word)
        head = "".join(f"{line}\r\n" for line in [request_line, *headers])
        address = getattr(live, f"{service}_server").server_address[:2]
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(f"{head}\r\n".encode("latin-1") + body)
            sock.shutdown(socket.SHUT_WR)
            reply = b""
            try:
                while chunk := sock.recv(65536):
                    reply += chunk
            except ConnectionResetError:  # a refusal closes with the body unread
                pass
        assert errors == []
        while reply.startswith(b"HTTP/"):
            assert int(reply[9:12]) in DOCUMENTED_STATUSES, reply[:40]
            head_end = reply.find(b"\r\n\r\n") + 4
            length = re.search(rb"\r\nContent-Length: (\d+)\r\n", reply[:head_end])
            reply = reply[head_end + (int(length[1]) if length else 0):]

    try:
        answer()
    finally:
        live.stop()
