"""The HTTP/1.1 codec both ends share, against the standard library's own
header parser and date formatter."""

import email.utils
import http.client
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hbesso import httpbase
from hbesso.httpbase import MessageReader, http_date, parse_fields

TOKEN = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
# names the services read, so repeats (in other cases) come up often
KNOWN = ["content-length", "connection", "x-session", "x-test-clock-skew", "host", "expect"]


def mixed_case(name_and_bits):
    name, bits = name_and_bits
    return "".join(c.upper() if bits >> i & 1 else c.lower() for i, c in enumerate(name))


names = st.tuples(
    st.one_of(st.sampled_from(KNOWN), st.text(alphabet=TOKEN, min_size=1, max_size=8)),
    st.integers(0, 2**32),
).map(mixed_case)
# printable ISO-8859-1 with inner spaces; no whitespace at either end
values = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0xFF, blacklist_categories=("Cc",)),
    max_size=24,
).map(lambda value: value.strip(" "))


@settings(max_examples=300)
@given(fields=st.lists(st.tuples(names, values), max_size=12), probe=names)
def test_parse_fields_reads_as_http_client(fields, probe):
    lines = [f"{name}: {value}" for name, value in fields]
    ours = parse_fields(lines)
    head = ("".join(f"{line}\r\n" for line in lines) + "\r\n").encode("iso-8859-1")
    theirs = http.client.parse_headers(io.BytesIO(head))
    for name in [*(name for name, _ in fields), probe, probe.swapcase()]:
        assert ours.get(name) == theirs.get(name)


@settings(max_examples=300)
@given(t=st.one_of(st.integers(0, 253402300799), st.floats(0, 253402300799)))
@example(t=0.9999997)  # rounds to the next second at microseconds
@example(t=1_700_000_000.9999998)
def test_http_date_is_formatdate(t):
    assert http_date(t) == email.utils.formatdate(t, usegmt=True)


class TrickleSocket:
    """A socket that hands out its octets one per `recv`."""

    def __init__(self, data: bytes):
        self.data = memoryview(data)

    def setsockopt(self, *args) -> None:
        pass

    def recv(self, size: int) -> bytes:
        chunk, self.data = bytes(self.data[:1]), self.data[1:]
        return chunk


class CountingSearch:
    """`_HEAD_END` that counts the octets each search covers and fails once
    they pass a budget, so a quadratic reader fails fast."""

    def __init__(self, budget: int):
        self.pattern = httpbase._HEAD_END
        self.budget = budget
        self.searched = 0

    def search(self, buffer, pos=0):
        self.searched += len(buffer) - pos
        assert self.searched <= self.budget, "head search is not linear"
        return self.pattern.search(buffer, pos)


@pytest.mark.parametrize("end", [b"\r\n\r\n", b"\n\n", b"\r\n\n", b"\n\r\n"])
def test_a_head_sent_one_octet_per_recv_is_searched_once(monkeypatch, end):
    lines = [f"X-Filler-{i}: {'v' * 40}".encode("ascii") for i in range(1100)]
    head = b"GET / HTTP/1.1" + b"".join(b"\r\n" + line for line in lines)
    assert len(head) < httpbase.MAX_HEAD_BYTES
    counting = CountingSearch(budget=8 * len(head))
    monkeypatch.setattr(httpbase, "_HEAD_END", counting)
    reader = MessageReader(TrickleSocket(head + end + b"body"))
    start_line, read_lines = reader.read_head()
    assert start_line == "GET / HTTP/1.1"
    assert read_lines == [line.decode("ascii") for line in lines]
    assert reader.read_body(4) == b"body"
