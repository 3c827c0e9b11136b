"""Shared HTTP plumbing for the identity-provider and service-provider
services: a threading server that reuses its handler threads, the one
request path both run (route table, form/query decoding, test-only clock
skew, refusals answered and logged) and the one form encoder.

Services run with a base clock (injectable for tests).  When a server is
started with test_clock=True, an `X-Test-Clock-Skew: <seconds>` request
header shifts that request's notion of "now"; the header is ignored
otherwise.
"""

from __future__ import annotations

import logging
import queue
import string
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional
from urllib.parse import parse_qs, urlsplit

from . import saml

log = logging.getLogger("hbesso.http")

SKEW_HEADER = "X-Test-Clock-Skew"
# the largest test-clock skew and configured duration: a year of each keeps
# every table horizon inside the years a timestamp can name
MAX_DURATION = 366 * 86400
# far above the largest form a flow sends (a SAMLResponse of a few KiB)
MAX_BODY_BYTES = 64 * 1024


class SkewableClock:
    """Clock with a per-request (thread-local) offset on top of a base clock."""

    def __init__(self, base: Callable[[], float] = time.time):
        self.base = base
        self._local = threading.local()

    def __call__(self) -> float:
        return self.base() + getattr(self._local, "skew", 0.0)

    def set_skew(self, seconds: float) -> None:
        self._local.skew = seconds


# octet -> its form encoding, as urlencode writes it: unreserved octets as
# themselves, space as "+", every other octet as %XX
_UNRESERVED = frozenset(string.ascii_letters + string.digits + "_.-~")
_FORM_OCTETS = ["+" if o == 0x20 else chr(o) if chr(o) in _UNRESERVED else f"%{o:02X}" for o in range(256)]


def form_encode(fields: dict[str, str]) -> str:
    """`urllib.parse.urlencode(fields)`, by one table lookup per UTF-8 octet."""
    return "&".join(
        f"{name.encode().decode('latin-1').translate(_FORM_OCTETS)}"
        f"={value.encode().decode('latin-1').translate(_FORM_OCTETS)}"
        for name, value in fields.items()
    )


class ServiceServer(ThreadingHTTPServer):
    daemon_threads = True
    # replay-contract tests burst 32 concurrent submissions; the default
    # backlog of 5 drops connections under that load
    request_queue_size = 64

    def __init__(self, address, handler_cls, service, test_clock: bool = False):
        self.service = service
        self.test_clock = test_clock
        # handler threads waiting for a connection: (thread, its hand-off queue)
        self._idle: list[tuple[threading.Thread, queue.SimpleQueue]] = []
        self._idle_lock = threading.Lock()
        self._closed = False
        super().__init__(address, handler_cls)

    def process_request(self, request, client_address):
        """Hand the connection to the last handler thread that went idle;
        start a thread only when none is idle."""
        with self._idle_lock:
            handler = self._idle.pop() if self._idle else None
        if handler is None:
            handoff = queue.SimpleQueue()
            thread = threading.Thread(target=self._handle_connections, args=(handoff,), daemon=True)
            thread.start()
            handler = thread, handoff
        handler[1].put((request, client_address))

    def _handle_connections(self, handoff: queue.SimpleQueue) -> None:
        me = (threading.current_thread(), handoff)
        while (connection := handoff.get()) is not None:
            self.process_request_thread(*connection)
            with self._idle_lock:
                if self._closed:
                    return
                self._idle.append(me)

    def server_close(self):
        """Close the socket and end the idle handler threads; a busy one
        ends after its connection."""
        super().server_close()
        with self._idle_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for thread, handoff in idle:
            handoff.put(None)
            thread.join()


class ServiceHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: with Nagle on, a keep-alive response waits ~40 ms for the
    # client's delayed ACK before it leaves (RFC 896; RFC 1122 4.2.3.2)
    disable_nagle_algorithm = True
    # seconds one socket read or write may wait, so a client that sends
    # nothing, half a head or less body than its Content-Length, or idles
    # on a keep-alive connection, cannot hold a handler thread; on expiry
    # handle_one_request closes the connection without a reply
    timeout = 10.0
    # (method, path) -> handler method taking the query (GET) or form (POST)
    routes: dict[tuple[str, str], Callable[..., None]] = {}

    @property
    def service(self):
        return self.server.service

    def log_request(self, code, size=None):
        # the access line, at DEBUG: method, path before "?" and status, never
        # a query value; a request line that did not parse has neither
        path = self.path.split("?")[0] if self.command else "-"
        log.debug("%s %s %s %d", self.client_address[0], self.command or "-", path, code)

    def log_error(self, format, *args):
        # the base class calls this only when a socket read or write times
        # out (send_error below logs nothing); the line names no request content
        log.info("%s timed out, connection closed", self.client_address[0])

    def send_error(self, code, message=None, explain=None):
        # the base class's refusals (request line, headers, method) take the
        # shape of every other refusal: a status line even where the line
        # named no HTTP version, and a reason that never quotes the request
        self.request_version = self.protocol_version
        reason = "" if self.command == "HEAD" else self.responses[code][0].lower()
        self.respond(code, reason, headers={"Connection": "close"})

    def do_GET(self):
        self.dispatch(self.path.split("?")[0], self.query())

    def do_POST(self):
        # always drain the body (connections are reused); match the whole path
        self.dispatch(self.path, self.form())

    def dispatch(self, path: str, fields: dict[str, str]) -> None:
        self.apply_test_clock()
        try:
            route = self.routes.get((self.command, path))
            if route is None:
                raise saml.Reject("not found", 404)
            route(self, fields)
        except saml.Reject as reject:  # logged without any query or form value
            log.info("%s %s rejected: %d %s", self.command, path.split("?")[0], reject.status, reject.reason)
            self.respond(reject.status, reject.reason)

    def apply_test_clock(self) -> None:
        skew = 0.0
        if self.server.test_clock:
            try:
                skew = float(self.headers.get(SKEW_HEADER, 0.0))
            except ValueError:
                pass
            if not abs(skew) <= MAX_DURATION:  # nan and inf fail this too
                skew = 0.0
        self.service.clock.set_skew(skew)

    def query(self) -> dict[str, str]:
        parsed = parse_qs(urlsplit(self.path).query, keep_blank_values=True)
        return {k: v[0] for k, v in parsed.items()}

    def parse_request(self) -> bool:
        """Header checks before any handler runs.

        A POST without Content-Length gets 411, a Content-Length that is not
        a decimal number gets 400 and one over MAX_BODY_BYTES gets 413, all
        before any body read and on a closed connection, since the unread
        body cannot be skipped.
        """
        if not super().parse_request():
            return False
        if self.command == "POST" and "Content-Length" not in self.headers:
            self.respond(411, "length required", headers={"Connection": "close"})
            return False
        length = self.headers.get("Content-Length", "0").strip()
        if not (length.isascii() and length.isdigit()):
            self.respond(400, "bad content-length", headers={"Connection": "close"})
            return False
        if int(length) > MAX_BODY_BYTES:
            self.respond(413, "body too large", headers={"Connection": "close"})
            return False
        return True

    def form(self) -> dict[str, str]:
        length = int(self.headers.get("Content-Length", "0"))
        body = self.rfile.read(length).decode("utf-8", errors="replace")
        return {k: v[0] for k, v in parse_qs(body, keep_blank_values=True).items()}

    def respond(self, status: int, body: bytes | str = b"", content_type: str = "text/plain", headers: Optional[dict[str, str]] = None) -> None:
        if isinstance(body, str):
            body = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.request_version == "HTTP/0.9":  # no status line or headers
            self.wfile.write(body)
            return
        # status line, headers and body in one write
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()


def serve(service, handler_cls, listen: str, name: str, test_clock: bool = False) -> None:
    """Bind `listen` (host:port), announce it and serve on this thread until
    KeyboardInterrupt, then close the socket and return."""
    host, port = parse_listen_address(listen)
    server = ServiceServer((host, port), handler_cls, service, test_clock=test_clock)
    host, port = server.server_address[:2]
    print(f"{name} listening on {host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


def parse_listen_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"listen address must be host:port, got {address!r}")
    return host, int(port)
