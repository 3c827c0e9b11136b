"""The XML dialect of the SSO flows: assertions, authentication requests,
SSO responses and the IdP's challenge document, with canonical XML
serialization and sealed-assertion protection.  No other module reads or
writes XML.

The dialect covers exactly what the SSO flows exercise:

  Assertion{Issuer, Subject/NameID, Conditions{NotBefore, NotOnOrAfter,
  AudienceRestriction/Audience}, AuthnStatement}, AuthnRequest, Response,
  Challenge{Nonce, Salt, KdfIterations}.

Serialization is canonical (fixed element order, UTF-8, no insignificant
whitespace, RFC 3339 UTC timestamps at whole-second precision); the reader
is order-tolerant, refuses any DOCTYPE and reports every fault as
MalformedXml.  Assertions are integrity-protected by the sealed payload's
MAC rather than an XML signature.
"""

from __future__ import annotations

import base64
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from datetime import datetime, timezone
from random import Random
from typing import Optional, Union
from xml.parsers import expat

from . import keyexchange as kx
from .keyexchange import Challenge, SealedPayload

AUTHN_METHOD = "PIN-PAD"


class MalformedXml(ValueError):
    """A document of the dialect that cannot be read; the message names the fault."""


# decrypt_validate reject reasons, in check order
BAD_TAG = "bad-tag"
MALFORMED = "malformed"
WRONG_AUDIENCE = "wrong-audience"
EXPIRED = "expired"
NOT_YET_VALID = "not-yet-valid"


class Reject(Exception):
    """A refused request in either service: `reason` names the failed check
    and is the response body, `status` the HTTP status it is answered with."""

    def __init__(self, reason: str, status: int = 403):
        super().__init__(reason)
        self.reason = reason
        self.status = status


def format_timestamp(ts: float) -> str:
    return datetime.fromtimestamp(int(ts), tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# the one form format_timestamp writes: 20 ASCII octets, every field zero-padded
_TIMESTAMP = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})Z")


def parse_timestamp(text: str) -> int:
    """Read a timestamp of exactly the form format_timestamp writes; the
    datetime constructor refuses a field out of range."""
    fields = _TIMESTAMP.fullmatch(text)
    try:
        if fields is None:
            raise ValueError("not YYYY-MM-DDTHH:MM:SSZ")
        dt = datetime(*map(int, fields.groups()), tzinfo=timezone.utc)
    except ValueError as exc:
        raise MalformedXml(f"unparseable timestamp {text!r}") from exc
    return int(dt.timestamp())


@dataclass(frozen=True)
class Assertion:
    """IdP statement that `subject` authenticated, bounded in time and audience."""

    id: str
    issuer: str
    subject: str
    issue_instant: int
    not_before: int
    not_on_or_after: int
    audience: str
    authn_method: str = AUTHN_METHOD

    def __post_init__(self) -> None:
        if not (self.not_before <= self.issue_instant < self.not_on_or_after):
            raise ValueError("assertion validity window is inconsistent")


@dataclass(frozen=True)
class AuthnRequest:
    id: str
    sp_entity_id: str
    acs_url: str
    issue_instant: int


@dataclass(frozen=True)
class SsoResponse:
    in_response_to: str
    issuer: str
    encrypted_assertion: SealedPayload


Message = Union[Assertion, AuthnRequest, SsoResponse]
_ROOT_TAGS = {Assertion: "Assertion", AuthnRequest: "AuthnRequest", SsoResponse: "Response"}


def build_assertion(
    issuer: str,
    subject: str,
    audience: str,
    now: float,
    lifetime: float,
    rng: Optional[Random] = None,
) -> Assertion:
    """Mint a fresh assertion valid for [now, now + lifetime)."""
    if lifetime <= 0:
        raise ValueError("assertion lifetime must be positive")
    instant = int(now)
    return Assertion(
        id=kx.fresh_id(rng),
        issuer=issuer,
        subject=subject,
        issue_instant=instant,
        not_before=instant,
        not_on_or_after=instant + int(lifetime),
        audience=audience,
    )


def build_authn_request(sp_entity_id: str, acs_url: str, now: float, rng: Optional[Random] = None) -> AuthnRequest:
    return AuthnRequest(
        id=kx.fresh_id(rng), sp_entity_id=sp_entity_id, acs_url=acs_url, issue_instant=int(now)
    )


def serialize(msg: Message) -> bytes:
    """Canonical XML octets for any of the three message kinds."""
    if isinstance(msg, Assertion):
        xml = (
            f'<Assertion ID="{_attr_value(msg.id)}" IssueInstant="{format_timestamp(msg.issue_instant)}">'
            f"{_element('Issuer', msg.issuer)}<Subject>{_element('NameID', msg.subject)}</Subject>"
            f'<Conditions NotBefore="{format_timestamp(msg.not_before)}"'
            f' NotOnOrAfter="{format_timestamp(msg.not_on_or_after)}">'
            f"<AudienceRestriction>{_element('Audience', msg.audience)}</AudienceRestriction></Conditions>"
            f'<AuthnStatement AuthnMethod="{_attr_value(msg.authn_method)}" /></Assertion>'
        )
    elif isinstance(msg, AuthnRequest):
        xml = (
            f'<AuthnRequest ID="{_attr_value(msg.id)}" IssueInstant="{format_timestamp(msg.issue_instant)}">'
            f"{_element('Issuer', msg.sp_entity_id)}{_element('AssertionConsumerServiceURL', msg.acs_url)}"
            "</AuthnRequest>"
        )
    elif isinstance(msg, SsoResponse):
        xml = (
            f'<Response InResponseTo="{_attr_value(msg.in_response_to)}">{_element("Issuer", msg.issuer)}'
            f"{_element('EncryptedAssertion', kx.encode_payload(msg.encrypted_assertion))}</Response>"
        )
    else:
        raise TypeError(f"cannot serialize {type(msg).__name__}")
    return xml.encode("utf-8", "xmlcharrefreplace")


# The writer follows ElementTree's serializer: these escapes, `<Tag />` for
# an element without text, and character references for what UTF-8 cannot
# encode.
def _element(tag: str, text: str) -> str:
    if not text:
        return f"<{tag} />"
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f"<{tag}>{text}</{tag}>"


def _attr_value(text: str) -> str:
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    return text.replace("\r", "&#13;").replace("\n", "&#10;").replace("\t", "&#09;")


def encode_message(msg: Message) -> str:
    """The wire form of a message: base64 of its canonical XML."""
    return base64.b64encode(serialize(msg)).decode("ascii")


def parse(xml: bytes, kind: type) -> Message:
    """Parse a `kind` message (Assertion, AuthnRequest or SsoResponse);
    element order is tolerated.  Raises MalformedXml; never returns a
    partially populated message."""
    root = _read_xml(xml, _ROOT_TAGS[kind])
    try:
        if kind is Assertion:
            conditions = _child(root, "Conditions")
            return Assertion(
                id=_attr(root, "ID"),
                issuer=_text(_child(root, "Issuer")),
                subject=_text(_child(_child(root, "Subject"), "NameID")),
                issue_instant=parse_timestamp(_attr(root, "IssueInstant")),
                not_before=parse_timestamp(_attr(conditions, "NotBefore")),
                not_on_or_after=parse_timestamp(_attr(conditions, "NotOnOrAfter")),
                audience=_text(_child(_child(conditions, "AudienceRestriction"), "Audience")),
                authn_method=_attr(_child(root, "AuthnStatement"), "AuthnMethod"),
            )
        if kind is AuthnRequest:
            return AuthnRequest(
                id=_attr(root, "ID"),
                sp_entity_id=_text(_child(root, "Issuer")),
                acs_url=_text(_child(root, "AssertionConsumerServiceURL")),
                issue_instant=parse_timestamp(_attr(root, "IssueInstant")),
            )
        return SsoResponse(
            in_response_to=_attr(root, "InResponseTo"),
            issuer=_text(_child(root, "Issuer")),
            encrypted_assertion=kx.decode_payload(_text(_child(root, "EncryptedAssertion"))),
        )
    except ValueError as exc:  # a missing field, a bad timestamp or payload
        raise MalformedXml(str(exc)) from None


def decode_message(b64: str, kind: type) -> Message:
    """Inverse of :func:`encode_message` for a `kind` message; raises
    MalformedXml on any failure."""
    try:
        xml = base64.b64decode(b64, validate=True)
    except ValueError as exc:
        raise MalformedXml(f"not valid base64: {exc}") from None
    return parse(xml, kind)


def challenge_document(ch: Challenge, salt: bytes, kdf_iterations: int) -> bytes:
    """The IdP's `GET /challenge` reply."""
    xml = (
        f'<Challenge id="{_attr_value(ch.challenge_id)}" expires-at="{format_timestamp(ch.expires_at)}">'
        f"{_element('Nonce', base64.b64encode(ch.nonce).decode('ascii'))}"
        f"{_element('Salt', base64.b64encode(salt).decode('ascii'))}"
        f"{_element('KdfIterations', str(kdf_iterations))}</Challenge>"
    )
    return xml.encode("utf-8", "xmlcharrefreplace")


def parse_challenge_document(xml: bytes, user_id: str) -> tuple[Challenge, bytes, int]:
    """Client-side decode of the challenge document: (challenge, salt, KDF
    iterations), the challenge bound to the user id it will be answered
    for.  Raises MalformedXml, also for a missing field."""
    root = _read_xml(xml, "Challenge")
    try:
        challenge = Challenge(
            challenge_id=_attr(root, "id"),
            user_id=user_id,
            nonce=base64.b64decode(_text(_child(root, "Nonce")), validate=True),
            expires_at=parse_timestamp(_attr(root, "expires-at")),
        )
        salt = base64.b64decode(_text(_child(root, "Salt")), validate=True)
        return challenge, salt, int(_text(_child(root, "KdfIterations")))
    except ValueError as exc:
        raise MalformedXml(str(exc)) from None


def _read_xml(xml: bytes, tag: str) -> ET.Element:
    """The one XML reader: the root of a well-formed `tag` document, built
    in one expat pass.  The pass stops where a DOCTYPE starts, before expat
    reads its internal subset: no document of the dialect has one, and
    expat would expand its internal entities (the "billion laughs").
    ElementTree's own parser expands them to the end of the document even
    after its target has refused the DOCTYPE.
    """
    builder = ET.TreeBuilder()
    # namespaced names read "uri}name", so none matches a tag of the dialect
    parser = expat.ParserCreate(namespace_separator="}")
    parser.StartDoctypeDeclHandler = _refuse_doctype
    parser.StartElementHandler, parser.EndElementHandler = builder.start, builder.end
    parser.CharacterDataHandler = builder.data
    try:
        parser.Parse(xml, True)
    except expat.ExpatError as exc:
        raise MalformedXml(f"not well-formed XML: {exc}") from None
    root = builder.close()
    if root.tag != tag:
        raise MalformedXml(f"expected root element {tag!r}, got {root.tag!r}")
    return root


def _refuse_doctype(*_) -> None:
    raise MalformedXml("DOCTYPE refused")


def _child(parent: ET.Element, tag: str) -> ET.Element:
    found = parent.find(tag)
    if found is None:
        raise MalformedXml(f"missing element {tag!r} under {parent.tag!r}")
    return found


def _attr(element: ET.Element, name: str) -> str:
    value = element.get(name)
    if value is None:
        raise MalformedXml(f"missing attribute {name!r} on {element.tag!r}")
    return value


def _text(element: ET.Element) -> str:
    return element.text or ""


def encrypt_assertion(
    assertion: Assertion,
    federation_key: kx.SealKey,
    key_id: str,
    rng: Optional[Random] = None,
) -> SealedPayload:
    """Seal the canonical assertion XML under the shared federation key."""
    return kx.seal(federation_key, kx.fresh_nonce(rng), serialize(assertion), key_id=key_id)


def decrypt_validate(
    sealed: SealedPayload,
    federation_key: kx.SealKey,
    now: float,
    skew: float,
    audience: str,
) -> Assertion:
    """Open and validate a sealed assertion.

    Check order is fixed and observable via the reject reason: tag, then
    parseability, then audience, then the half-open validity window
    [not_before - skew, not_on_or_after + skew).
    """
    try:
        plaintext = kx.open_sealed(federation_key, sealed)
    except kx.SealRejected:
        raise Reject(BAD_TAG) from None
    try:
        assertion = parse(plaintext, Assertion)
    except MalformedXml:
        raise Reject(MALFORMED) from None
    if assertion.audience != audience:
        raise Reject(WRONG_AUDIENCE)
    if now < assertion.not_before - skew:
        raise Reject(NOT_YET_VALID)
    if now >= assertion.not_on_or_after + skew:
        raise Reject(EXPIRED)
    return assertion
