import base64
import random
import re
import time
import xml.etree.ElementTree as ET
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbesso import keyexchange as kx
from hbesso import saml

FED_KEY = bytes(range(16))
NOW = 1_700_000_000

names = st.text(
    alphabet=st.characters(whitelist_categories=("L", "Nd"), max_codepoint=0x2FF),
    min_size=1,
    max_size=20,
)


def make_assertion(**overrides):
    fields = dict(
        id="ab" * 16,
        issuer="idp.example",
        subject="alice",
        issue_instant=NOW,
        not_before=NOW,
        not_on_or_after=NOW + 300,
        audience="sp.example",
    )
    fields.update(overrides)
    return saml.Assertion(**fields)


def test_build_assertion_window_arithmetic():
    a = saml.build_assertion("idp", "alice", "sp", now=NOW, lifetime=300)
    assert a.not_on_or_after - a.not_before == 300
    assert a.issue_instant == NOW
    assert a.authn_method == "PIN-PAD"


def test_build_assertion_ids_are_fresh():
    a = saml.build_assertion("idp", "alice", "sp", NOW, 300)
    b = saml.build_assertion("idp", "alice", "sp", NOW, 300)
    assert a.id != b.id
    assert len(a.id) == 32


def test_build_assertion_rejects_nonpositive_lifetime():
    for lifetime in (0, -5):
        with pytest.raises(ValueError):
            saml.build_assertion("idp", "alice", "sp", NOW, lifetime)


def test_assertion_invariant_enforced():
    with pytest.raises(ValueError):
        make_assertion(not_before=NOW + 1)
    with pytest.raises(ValueError):
        make_assertion(not_on_or_after=NOW)


def test_audience_lands_in_conditions_element():
    xml = saml.serialize(make_assertion(audience="the-audience"))
    assert b"<AudienceRestriction><Audience>the-audience</Audience>" in xml


@settings(max_examples=100)
@given(names, names, names, st.integers(0, 2**31), st.integers(1, 10**6))
def test_assertion_round_trip(issuer, subject, audience, now, lifetime):
    a = saml.build_assertion(issuer, subject, audience, now, lifetime)
    assert saml.parse(saml.serialize(a), saml.Assertion) == a


def test_authn_request_round_trip():
    req = saml.build_authn_request("sp.example", "http://sp/acs", NOW)
    parsed = saml.parse(saml.serialize(req), saml.AuthnRequest)
    assert parsed == req


def test_sso_response_round_trip():
    ea = saml.encrypt_assertion(make_assertion(), FED_KEY, "fed-1")
    resp = saml.SsoResponse(in_response_to="req-1", issuer="idp.example", encrypted_assertion=ea)
    assert saml.parse(saml.serialize(resp), saml.SsoResponse) == resp


def test_parser_tolerates_element_order():
    a = make_assertion()
    shuffled = (
        '<Assertion IssueInstant="{ii}" ID="{id}">'
        "<AuthnStatement AuthnMethod=\"PIN-PAD\" />"
        '<Conditions NotOnOrAfter="{na}" NotBefore="{nb}">'
        "<AudienceRestriction><Audience>sp.example</Audience></AudienceRestriction>"
        "</Conditions>"
        "<Subject><NameID>alice</NameID></Subject>"
        "<Issuer>idp.example</Issuer>"
        "</Assertion>"
    ).format(
        ii=saml.format_timestamp(a.issue_instant),
        id=a.id,
        nb=saml.format_timestamp(a.not_before),
        na=saml.format_timestamp(a.not_on_or_after),
    )
    assert saml.parse(shuffled.encode(), saml.Assertion) == a


def test_truncated_document_is_malformed_only():
    xml = saml.serialize(make_assertion())
    with pytest.raises(saml.MalformedXml):
        saml.parse(xml[: len(xml) // 2], saml.Assertion)


def test_distinct_parse_errors():
    with pytest.raises(saml.MalformedXml, match="expected root element 'AuthnRequest', got 'Banana'"):
        saml.parse(b"<Banana/>", saml.AuthnRequest)
    with pytest.raises(saml.MalformedXml, match="missing element 'AssertionConsumerServiceURL'"):
        saml.parse(
            b'<AuthnRequest ID="x" IssueInstant="2024-01-01T00:00:00Z"><Issuer>sp</Issuer></AuthnRequest>',
            saml.AuthnRequest,
        )
    with pytest.raises(saml.MalformedXml, match="unparseable timestamp 'yesterday'"):
        saml.parse(
            b'<AuthnRequest ID="x" IssueInstant="yesterday"><Issuer>sp</Issuer>'
            b"<AssertionConsumerServiceURL>u</AssertionConsumerServiceURL></AuthnRequest>",
            saml.AuthnRequest,
        )
    with pytest.raises(saml.MalformedXml, match="not well-formed XML"):
        saml.parse(b"<Assertion ID=", saml.Assertion)


@pytest.mark.parametrize("kind", [saml.Assertion, saml.AuthnRequest, saml.SsoResponse])
def test_doctype_is_refused_before_any_expansion(kind):
    # three levels of 40 references: 8,000,000 characters if expanded
    dtd = b'<!DOCTYPE x [<!ENTITY e0 "%s">' % (b"x" * 125) + b"".join(
        b'<!ENTITY e%d "%s">' % (i, b"&e%d;" % (i - 1) * 40) for i in (1, 2, 3)
    ) + b"]>"
    root = {saml.Assertion: b"Assertion", saml.AuthnRequest: b"AuthnRequest", saml.SsoResponse: b"Response"}[kind]
    with pytest.raises(saml.MalformedXml, match="DOCTYPE refused"):
        saml.parse(dtd + b"<%s><Issuer>&e3;</Issuer></%s>" % (root, root), kind)


def test_a_doctype_stops_the_parse():
    # ElementTree's parser spends tens of ms or more on this 579-octet
    # document (expat expands up to its amplification limit) even after its
    # target refused the DOCTYPE; the reader stops where the DOCTYPE starts
    dtd = b'<!DOCTYPE x [<!ENTITY e0 "xxxxxxxxxx">' + b"".join(
        b'<!ENTITY e%d "%s">' % (i, b"&e%d;" % (i - 1) * 10) for i in range(1, 10)
    ) + b"]>"
    start = time.thread_time()
    with pytest.raises(saml.MalformedXml, match="DOCTYPE refused"):
        saml.parse(dtd + b"<Assertion><Issuer>&e9;</Issuer></Assertion>", saml.Assertion)
    assert time.thread_time() - start < 0.005


def test_timestamps_survive_round_trip_to_one_second():
    for ts in (0, 1, NOW, 2**31 - 1):
        assert saml.parse_timestamp(saml.format_timestamp(ts)) == ts
    assert saml.format_timestamp(NOW + 0.9) == saml.format_timestamp(NOW)


TIMESTAMP_FORM = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")


def strptime_timestamp(text: str):
    """The reader's former parse: the timestamp, or None where strptime refuses."""
    try:
        dt = datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ")
    except ValueError:
        return None
    return int(dt.replace(tzinfo=timezone.utc).timestamp())


# fields in and just past their ranges, written zero-padded (the one form
# read), unpadded and space-padded; and written forms with one octet changed
# to nothing, a space, a sign, a lower-case separator, a non-ASCII digit
# (which strptime's \d takes) or two digits
timestamp_fields = st.tuples(
    st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32),
    st.integers(0, 24), st.integers(0, 60), st.integers(0, 61),
)
written_timestamps = timestamp_fields.map(lambda f: "%04d-%02d-%02dT%02d:%02d:%02dZ" % f)


def edit_octet(text: str, at: int, octets: str) -> str:
    return text[:at] + octets + text[at + 1 :]


near_timestamps = st.one_of(
    st.integers(0, 253402300799).map(saml.format_timestamp),
    written_timestamps,
    timestamp_fields.map(lambda f: "%d-%d-%dT%d:%d:%dZ" % f),
    timestamp_fields.map(lambda f: "%4d-%2d-%2dT%2d:%2d:%2dZ" % f),
    st.builds(
        edit_octet, written_timestamps, st.integers(0, 19),
        st.sampled_from(["", " ", "+", "t", "z", "\u0663", "\uff13", "00"]),
    ),
)


@settings(max_examples=500)
@given(text=st.one_of(near_timestamps, st.text(max_size=24)))
def test_parse_timestamp_reads_exactly_the_written_form(text):
    expect = strptime_timestamp(text) if TIMESTAMP_FORM.fullmatch(text) else None
    if expect is None:
        with pytest.raises(saml.MalformedXml, match="unparseable timestamp"):
            saml.parse_timestamp(text)
    else:
        assert saml.parse_timestamp(text) == expect


@pytest.mark.parametrize(
    "text",
    [
        "2024-1-05T06:07:08Z",
        "2024-01- 5T06:07:08Z",
        "2024-01-05T6:07:08Z",
        "2024-01-05T06:07:\u0668Z",
        "\uff12\uff10\uff12\uff14-01-05T06:07:08Z",
        "2024-01-05t06:07:08z",
    ],
)
def test_parse_timestamp_refuses_forms_strptime_took(text):
    assert strptime_timestamp(text) is not None
    with pytest.raises(saml.MalformedXml, match="unparseable timestamp"):
        saml.parse_timestamp(text)


@given(st.integers(0, 253402300799))
def test_parse_timestamp_inverts_format_timestamp(ts):
    assert saml.parse_timestamp(saml.format_timestamp(ts)) == ts


def test_serialize_is_injective_on_distinct_fields():
    seen = set()
    rng = random.Random(3)
    for _ in range(100):
        a = make_assertion(
            id=rng.randbytes(16).hex(),
            subject=f"user{rng.randrange(10)}",
            not_on_or_after=NOW + rng.randrange(1, 1000),
        )
        xml = saml.serialize(a)
        assert xml not in seen
        seen.add(xml)


def test_encrypt_decrypt_validate_round_trip():
    a = make_assertion()
    ea = saml.encrypt_assertion(a, FED_KEY, "fed-1")
    assert ea.key_id == "fed-1"
    out = saml.decrypt_validate(ea, FED_KEY, now=NOW + 10, skew=0, audience="sp.example")
    assert out == a


def test_validate_boundary_is_half_open():
    a = make_assertion()
    ea = saml.encrypt_assertion(a, FED_KEY, "fed-1")
    with pytest.raises(saml.Reject) as exc:
        saml.decrypt_validate(ea, FED_KEY, now=a.not_on_or_after, skew=0, audience="sp.example")
    assert exc.value.reason == saml.EXPIRED
    # one second earlier is still inside the window
    assert saml.decrypt_validate(ea, FED_KEY, a.not_on_or_after - 1, 0, "sp.example") == a


def test_validate_reject_reasons_in_check_order():
    a = make_assertion()
    ea = saml.encrypt_assertion(a, FED_KEY, "fed-1")

    wrong_key = saml.decrypt_validate
    with pytest.raises(saml.Reject) as exc:
        wrong_key(ea, bytes(16), NOW, 0, "sp.example")
    assert exc.value.reason == saml.BAD_TAG

    # valid seal of a non-assertion document -> malformed
    sealed = kx.seal(FED_KEY, b"\x01" * 12, b"<Banana/>", key_id="fed-1")
    with pytest.raises(saml.Reject) as exc:
        saml.decrypt_validate(sealed, FED_KEY, NOW, 0, "sp.example")
    assert exc.value.reason == saml.MALFORMED

    with pytest.raises(saml.Reject) as exc:
        saml.decrypt_validate(ea, FED_KEY, NOW, 0, "other.example")
    assert exc.value.reason == saml.WRONG_AUDIENCE

    with pytest.raises(saml.Reject) as exc:
        saml.decrypt_validate(ea, FED_KEY, NOW - 100, 0, "sp.example")
    assert exc.value.reason == saml.NOT_YET_VALID

    with pytest.raises(saml.Reject) as exc:
        saml.decrypt_validate(ea, FED_KEY, NOW + 400, 0, "sp.example")
    assert exc.value.reason == saml.EXPIRED


def test_skew_loosens_both_window_edges():
    a = make_assertion()
    ea = saml.encrypt_assertion(a, FED_KEY, "fed-1")
    assert saml.decrypt_validate(ea, FED_KEY, NOW - 20, 30, "sp.example") == a
    assert saml.decrypt_validate(ea, FED_KEY, NOW + 320, 30, "sp.example") == a


def test_tampered_ciphertext_rejected_1000_trials():
    rng = random.Random(0x7A3)
    a = make_assertion()
    ea = saml.encrypt_assertion(a, FED_KEY, "fed-1")
    ct = ea.ciphertext
    for _ in range(1000):
        bit = rng.randrange(len(ct) * 8)
        mutated = bytearray(ct)
        mutated[bit // 8] ^= 1 << (bit % 8)
        broken = kx.SealedPayload(ea.nonce, bytes(mutated), ea.tag, ea.key_id)
        with pytest.raises(saml.Reject) as exc:
            saml.decrypt_validate(broken, FED_KEY, NOW, 0, "sp.example")
        assert exc.value.reason == saml.BAD_TAG


# -- the writer against ElementTree ------------------------------------------


def reference_serialize(msg) -> bytes:
    """The ElementTree builder `saml.serialize` replaced: the reference its
    output must match byte for byte."""
    fmt = saml.format_timestamp
    if isinstance(msg, saml.Assertion):
        root = ET.Element("Assertion", ID=msg.id, IssueInstant=fmt(msg.issue_instant))
        ET.SubElement(root, "Issuer").text = msg.issuer
        subject = ET.SubElement(root, "Subject")
        ET.SubElement(subject, "NameID").text = msg.subject
        conditions = ET.SubElement(
            root, "Conditions", NotBefore=fmt(msg.not_before), NotOnOrAfter=fmt(msg.not_on_or_after)
        )
        restriction = ET.SubElement(conditions, "AudienceRestriction")
        ET.SubElement(restriction, "Audience").text = msg.audience
        ET.SubElement(root, "AuthnStatement", AuthnMethod=msg.authn_method)
    elif isinstance(msg, saml.AuthnRequest):
        root = ET.Element("AuthnRequest", ID=msg.id, IssueInstant=fmt(msg.issue_instant))
        ET.SubElement(root, "Issuer").text = msg.sp_entity_id
        ET.SubElement(root, "AssertionConsumerServiceURL").text = msg.acs_url
    else:
        root = ET.Element("Response", InResponseTo=msg.in_response_to)
        ET.SubElement(root, "Issuer").text = msg.issuer
        ET.SubElement(root, "EncryptedAssertion").text = kx.encode_payload(msg.encrypted_assertion)
    return ET.tostring(root, encoding="utf-8")


def reference_challenge_document(ch, salt: bytes, kdf_iterations: int) -> bytes:
    root = ET.Element("Challenge", id=ch.challenge_id, **{"expires-at": saml.format_timestamp(ch.expires_at)})
    ET.SubElement(root, "Nonce").text = base64.b64encode(ch.nonce).decode("ascii")
    ET.SubElement(root, "Salt").text = base64.b64encode(salt).decode("ascii")
    ET.SubElement(root, "KdfIterations").text = str(kdf_iterations)
    return ET.tostring(root, encoding="utf-8")


# arbitrary text, weighted towards what the writer escapes; empty included
field_text = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from('&<>"\r\n\t \'aé用\U0001F600\ud800'), max_size=12),
)
instants = st.integers(min_value=0, max_value=2**31 - 2)


@settings(max_examples=200)
@given(
    texts=st.lists(field_text, min_size=6, max_size=6),
    instant=instants,
    lifetime=st.integers(min_value=1, max_value=10**6),
    payload=st.builds(
        kx.SealedPayload,
        nonce=st.binary(min_size=kx.NONCE_SIZE, max_size=kx.NONCE_SIZE),
        ciphertext=st.binary(max_size=64),
        tag=st.binary(min_size=16, max_size=16),
        key_id=st.text(max_size=20),
    ),
    kdf_iterations=st.integers(min_value=1, max_value=10**9),
)
def test_writer_matches_elementtree_byte_for_byte(texts, instant, lifetime, payload, kdf_iterations):
    ident, issuer, subject, audience, method, url = texts
    messages = [
        saml.Assertion(ident, issuer, subject, instant, instant, instant + lifetime, audience, method),
        saml.AuthnRequest(id=ident, sp_entity_id=issuer, acs_url=url, issue_instant=instant),
        saml.SsoResponse(in_response_to=ident, issuer=issuer, encrypted_assertion=payload),
    ]
    for msg in messages:
        assert saml.serialize(msg) == reference_serialize(msg)
    ch = kx.Challenge(challenge_id=ident, user_id=subject, nonce=payload.nonce, expires_at=instant + 0.5)
    salt = payload.tag
    assert saml.challenge_document(ch, salt, kdf_iterations) == reference_challenge_document(ch, salt, kdf_iterations)
