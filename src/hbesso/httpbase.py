"""Shared HTTP plumbing for the identity-provider and service-provider
services and the agent: the one HTTP/1.1 codec both ends read and write
messages with, the agent's keep-alive client connection, a threading server
that reuses its handler threads, the one request path both services run
(route table, test-only clock skew, refusals answered and logged) and the
one form encoder and decoder.

Services run with a base clock (injectable for tests).  When a server is
started with test_clock=True, an `X-Test-Clock-Skew: <seconds>` request
header shifts that request's notion of "now"; the header is ignored
otherwise.
"""

from __future__ import annotations

import logging
import queue
import re
import select
import socket
import socketserver
import string
import sys
import threading
import time
from datetime import datetime, timezone
from http import HTTPStatus
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
# a message's start line and header lines; both ends send a few hundred octets
MAX_HEAD_BYTES = 64 * 1024
_HEAD_END = re.compile(rb"\r?\n\r?\n")  # a bare LF ends a line too (RFC 9112 2.2)
# a token (RFC 9110 5.1): no whitespace before the colon, no obs-fold line
_FIELD_NAME = re.compile(r"[-!#$%&'*+.^_`|~0-9A-Za-z]+")
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")
_PHRASES = {status.value: status.phrase for status in HTTPStatus}
_DAYS, _MONTHS = "Mon Tue Wed Thu Fri Sat Sun".split(), "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


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


def form_decode(text: str) -> dict[str, str]:
    """A query or form body's fields; a repeated name keeps its first value,
    and a blank value is kept."""
    return {name: values[0] for name, values in parse_qs(text, keep_blank_values=True).items()}


def write_message(start_line: str, fields: dict[str, str], body: bytes = b"") -> bytes:
    """A message's octets: start line, header fields in order, blank line, body."""
    head = "".join(f"{name}: {value}\r\n" for name, value in fields.items())
    return f"{start_line}\r\n{head}\r\n".encode("latin-1") + body


class MalformedMessage(Exception):
    """A head the codec refuses, or a reply head the agent cannot use."""


class Headers(dict):
    """Header fields keyed by lowercased name; `get` takes a name in any case."""

    def get(self, name: str, default=None):
        return super().get(name.lower(), default)


def parse_fields(lines: list[str]) -> Headers:
    """The header lines of a head; a repeated name keeps its first value."""
    headers = Headers()
    for line in lines:
        name, colon, value = line.partition(":")
        if not (colon and _FIELD_NAME.fullmatch(name)):
            raise MalformedMessage(f"malformed header line {line!r}")
        headers.setdefault(name.lower(), value.strip(" \t"))
    return headers


def is_decimal(text: str) -> bool:
    return text.isascii() and text.isdigit()


def parse_skew(text: str) -> Optional[float]:
    """A test-clock skew in seconds, or None unless `text` is a float of
    magnitude at most MAX_DURATION (nan and inf are not)."""
    try:
        return skew if abs(skew := float(text)) <= MAX_DURATION else None
    except ValueError:
        return None


def http_date(timestamp: float) -> str:
    """`email.utils.formatdate(timestamp, usegmt=True)`: an IMF-fixdate."""
    t = datetime.fromtimestamp(timestamp, timezone.utc)
    return f"{_DAYS[t.weekday()]}, {t.day:02d} {_MONTHS[t.month - 1]} {t.year:04d} {t.hour:02d}:{t.minute:02d}:{t.second:02d} GMT"


class MessageReader:
    """One socket's incoming HTTP/1.1 messages, read through its own buffer."""

    def __init__(self, sock: socket.socket):
        # TCP_NODELAY: with Nagle on, a keep-alive message waits ~40 ms for
        # the peer's delayed ACK before it leaves (RFC 896; RFC 1122 4.2.3.2)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.buffer = bytearray()

    def read_head(self) -> tuple[str, list[str]]:
        # a head end is at most 4 octets: search only where one can newly end
        searched = 0
        while not (end := _HEAD_END.search(self.buffer, max(0, searched - 3))) and len(self.buffer) <= MAX_HEAD_BYTES:
            searched = len(self.buffer)
            self._receive()
        if not end or end.start() > MAX_HEAD_BYTES:
            raise MalformedMessage(f"head over {MAX_HEAD_BYTES} octets")
        start_line, *lines = self.buffer[: end.start()].decode("iso-8859-1").replace("\r\n", "\n").split("\n")
        del self.buffer[: end.end()]
        return start_line, lines

    def read_body(self, length: int) -> bytes:
        while len(self.buffer) < length:
            self._receive()
        body = bytes(self.buffer[:length])
        del self.buffer[:length]
        return body

    def _receive(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed inside a message")
        self.buffer += chunk


class Connection:
    """One keep-alive socket to an origin.  A request leaves in one
    `sendall`; the reply's head and its Content-Length body are read through
    the connection's own buffer, and octets past the reply stay there."""

    def __init__(self, netloc: str):
        split = urlsplit(f"//{netloc}")
        self.sock = socket.create_connection((split.hostname, split.port or 80), timeout=10)
        # poll, unlike select, takes any descriptor number
        self.poller = select.poll()
        self.poller.register(self.sock, select.POLLIN)
        self.reader = MessageReader(self.sock)

    def idle_closed(self) -> bool:
        # an idle keep-alive socket is readable only once its peer has closed
        # it (a reply never carries more than its Content-Length)
        return bool(self.reader.buffer or self.poller.poll(0))

    def close(self) -> None:
        self.sock.close()

    def exchange(self, request: bytes) -> tuple[int, Headers, bytes]:
        self.sock.sendall(request)
        status_line, lines = self.reader.read_head()
        _, _, rest = status_line.partition(" ")
        if not (status_line.startswith("HTTP/") and is_decimal(rest[:3]) and rest[3:4] in ("", " ")):
            raise MalformedMessage(f"bad status line {status_line!r}")
        headers = parse_fields(lines)
        length = headers.get("Content-Length", "")
        if not is_decimal(length):
            raise MalformedMessage(f"reply without a usable Content-Length: {length!r}")
        return int(rest[:3]), headers, self.reader.read_body(int(length))


class ServiceServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    allow_reuse_address = True
    # replay-contract tests burst 32 concurrent submissions; the default
    # backlog of 5 drops connections under that load
    request_queue_size = 64
    # a thread that ends its connection while this many wait idle exits
    max_idle_threads = 16

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
                if self._closed or len(self._idle) >= self.max_idle_threads:
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


class ServiceHandler(socketserver.BaseRequestHandler):
    # seconds one socket read or write may wait, so no silent, half-sent or
    # idle client holds a thread; on expiry the connection closes unanswered
    timeout = 10.0
    # (method, path) -> handler method taking the query (GET) or form (POST)
    routes: dict[tuple[str, str], Callable[..., None]] = {}

    @property
    def service(self):
        return self.server.service

    def version_string(self) -> str:
        return "BaseHTTP/0.6 Python/" + sys.version.split()[0]  # as http.server wrote it

    def handle(self) -> None:
        """Answer requests until one closes the connection or the peer does."""
        self.request.settimeout(self.timeout)
        self.reader = MessageReader(self.request)
        try:
            while self.handle_one_request():
                pass
        except TimeoutError:  # the log line names no request content
            log.info("%s timed out, connection closed", self.client_address[0])
        except ConnectionError:
            pass  # no one is left to answer

    def handle_one_request(self) -> bool:
        """Answer one request, refusals in docs/PROTOCOL.md's order; True to keep the connection."""
        self.command = None
        try:
            start_line, lines = self.reader.read_head()
        except MalformedMessage:
            return self.refuse(431)
        words = start_line.split()
        version = (0, 9)
        if len(words) >= 3:
            if not (match := _VERSION.fullmatch(words[-1])):
                return self.refuse(400)
            version = int(match[1]), int(match[2])
            if version >= (2, 0):
                return self.refuse(505)
        if not 2 <= len(words) <= 3 or len(words) == 2 and words[0] != "GET":
            return self.refuse(400)
        self.request_version = words[2] if len(words) == 3 else "HTTP/0.9"
        self.command, path = words[:2]
        # a client reads "//host/..." as a URL without scheme: collapse it
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            self.headers = parse_fields(lines)
        except MalformedMessage:
            return self.refuse(400)
        length = self.headers.get("Content-Length")
        if length is None and self.command == "POST":
            return self.refuse(411, "length required")
        if not is_decimal(length := length or "0"):
            return self.refuse(400, "bad content-length")
        # past leading zeros, six digits are over the limit (and int() refuses 4,301)
        if len(length := length.lstrip("0") or "0") > 6 or int(length) > MAX_BODY_BYTES:
            return self.refuse(413, "body too large")
        if (method := getattr(self, f"do_{self.command}", None)) is None:
            return self.refuse(501)
        if version >= (1, 1) and self.headers.get("Expect", "").lower() == "100-continue":
            self.request.sendall(write_message("HTTP/1.1 100 Continue", {}))
        self.body = self.reader.read_body(int(length))
        method()
        connection = self.headers.get("Connection", "").lower()
        return version > (0, 9) and connection != "close" and (version >= (1, 1) or connection == "keep-alive")

    def refuse(self, status: int, reason: Optional[str] = None) -> bool:
        """Refuse before any route runs, and close; the reason never quotes the request."""
        self.request_version = "HTTP/1.1"
        if reason is None:
            reason = "" if self.command == "HEAD" else _PHRASES[status].lower()
        self.respond(status, reason, headers={"Connection": "close"})
        return False

    def do_GET(self):
        path, _, query = self.path.partition("?")
        self.dispatch(path, form_decode(query.partition("#")[0]))

    def do_POST(self):
        # match the whole path
        self.dispatch(self.path, form_decode(self.body.decode("utf-8", errors="replace")))

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
        skew = parse_skew(self.headers.get(SKEW_HEADER, "0")) if self.server.test_clock else None
        self.service.clock.set_skew(skew or 0.0)

    def respond(self, status: int, body: bytes | str = b"", content_type: str = "text/plain", headers: Optional[dict[str, str]] = None) -> None:
        if isinstance(body, str):
            body = body.encode("utf-8")
        # the access line, at DEBUG: method, path before "?" and status, never
        # a query value; a request line that did not parse has neither
        path = self.path.split("?")[0] if self.command else "-"
        log.debug("%s %s %s %d", self.client_address[0], self.command or "-", path, status)
        if self.request_version == "HTTP/0.9":  # no status line or headers
            self.request.sendall(body)
            return
        fields = {
            "Server": self.version_string(), "Date": http_date(time.time()),
            "Content-Type": content_type, "Content-Length": str(len(body)), **(headers or {}),
        }
        # status line, headers and body in one write
        self.request.sendall(write_message(f"HTTP/1.1 {status} {_PHRASES.get(status, '')}", fields, body))


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
