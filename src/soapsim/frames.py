"""Wire formats: the negotiation information element, the two EAPOL-carried
key-agreement messages, EAPOL-Key frames, and simplified 802.11 management
and data frames for the simulated network.

This module is the one owner of every octet layout: the EAPOL header and the
EAPOL-Key fixed body are each one `struct.Struct`, and the MAC-header
addresses and frame kinds are read only here. What an agreement signature
covers, in both the nonce-extended and the strict layout, is
`handshake.signed_payload`.

Every encoder returns exact octet strings and every parser either returns a
dataclass or raises MalformedFrameError; callers decide whether a malformed
frame is dropped silently or counted.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

# Information element ids. 251 carries the ECDH group negotiation payload;
# 252 carries an optional ECDSA signature over the management frame when the
# frame-signing mitigation is enabled. Both ride in the ordinary tagged
# element area, so receivers that do not know them skip them by length.
ELEMENT_ID_SOAP = 251
ELEMENT_ID_MGMT_SIGNATURE = 252
ELEMENT_ID_SSID = 0

MAC_HEADER_OCTETS = 24
# Address 1 (receiver) and address 2 (transmitter) of the MAC header.
_DST_MAC = slice(4, 10)
_SRC_MAC = slice(10, 16)
LLC_SNAP_HEADER = bytes.fromhex("AAAA03000000888E")
# Where a data frame's EAPOL packet starts: after the MAC and LLC/SNAP headers.
_EAPOL_OFFSET = MAC_HEADER_OCTETS + len(LLC_SNAP_HEADER)
BROADCAST_MAC = b"\xff" * 6

# The EAPOL header: protocol version, packet type, body length.
_EAPOL_HEADER = struct.Struct(">BBH")
EAPOL_VERSION = 2
EAPOL_TYPE_KEY = 3
# The key-agreement messages use a reserved placeholder in both EAPOL header
# octets to stay distinguishable from every deployed EAPOL packet type.
AGREEMENT_PROTOCOL_VERSION = 0xFF
AGREEMENT_PACKET_TYPE = 0xFF

SESSION_NONCE_OCTETS = 8

KEY_DESCRIPTOR_RSN = 2
KEY_INFO_HMAC_SHA1_AES = 0x0002
KEY_INFO_PAIRWISE = 0x0008
KEY_INFO_INSTALL = 0x0040
KEY_INFO_ACK = 0x0080
KEY_INFO_MIC = 0x0100
KEY_INFO_SECURE = 0x0200
KEY_NONCE_OCTETS = 32
KEY_MIC_OCTETS = 16
# The EAPOL-Key fixed body in wire order, as (EapolKeyFrame field, struct
# format); the key data length and then the key data follow it.
_KEY_BODY_FIELDS = (
    ("descriptor_type", "B"), ("key_info", "H"), ("key_length", "H"),
    ("replay_counter", "Q"), ("key_nonce", f"{KEY_NONCE_OCTETS}s"), ("key_iv", "16s"),
    ("key_rsc", "8s"), ("key_id", "8s"), ("key_mic", f"{KEY_MIC_OCTETS}s"),
)
_EAPOL_KEY_BODY = struct.Struct(">" + "".join(f for _, f in _KEY_BODY_FIELDS) + "H")
# Each fixed-body field's name, size in octets and whether it is an octet string.
_KEY_BODY_SIZES = [(n, struct.calcsize(f), f.endswith("s")) for n, f in _KEY_BODY_FIELDS]
EAPOL_KEY_BODY_OCTETS = _EAPOL_KEY_BODY.size
# The most key data whose body length still fits the EAPOL header's field.
_MAX_KEY_DATA_OCTETS = 0xFFFF - EAPOL_KEY_BODY_OCTETS


class FrameError(ValueError):
    """Base class for encode and parse failures."""


class MalformedFrameError(FrameError):
    """Octet string cannot be parsed as the expected frame."""


class OversizeElementError(FrameError):
    """Element payload would not fit the one-octet length field."""


# ---------------------------------------------------------------------------
# Negotiation information element
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SoapIe:
    """Group-list advertisement plus the sender's x-only ECDSA public key."""

    group_ids: tuple[int, ...]
    ecdsa_public_x: bytes

    @property
    def group_count(self) -> int:
        return len(self.group_ids)

    @property
    def key_size_octets(self) -> int:
        return len(self.ecdsa_public_x)


def encode_soap_ie(ie: SoapIe) -> bytes:
    m = ie.group_count
    s = ie.key_size_octets
    if m < 1:
        raise FrameError("advertisement must list at least one group")
    if any(not 0 <= gid <= 255 for gid in ie.group_ids):
        raise FrameError("group ids must fit one octet")
    if not 1 <= s <= 255:
        raise FrameError("key size must fit one octet")
    length = 2 + m + s
    if length > 255:
        raise OversizeElementError(f"element payload of {length} octets exceeds 255")
    return bytes([ELEMENT_ID_SOAP, length, m, *ie.group_ids, s]) + ie.ecdsa_public_x


def parse_soap_ie(data: bytes) -> SoapIe:
    if len(data) < 2:
        raise MalformedFrameError("element shorter than its header")
    if data[0] != ELEMENT_ID_SOAP:
        raise MalformedFrameError(f"element id {data[0]} is not {ELEMENT_ID_SOAP}")
    length = data[1]
    if len(data) != 2 + length:
        raise MalformedFrameError("element length field disagrees with data")
    if length < 2:
        raise MalformedFrameError("element payload too short for any group list")
    m = data[2]
    if m < 1:
        raise MalformedFrameError("empty group list")
    if length < 2 + m:
        raise MalformedFrameError("group list runs past the element")
    s = data[3 + m]
    if length != 2 + m + s:
        raise MalformedFrameError("key size field disagrees with element length")
    return SoapIe(tuple(data[3 : 3 + m]), bytes(data[4 + m :]))


# ---------------------------------------------------------------------------
# Key-agreement messages (EAPOL variant)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SoapMessage:
    """One signed ephemeral-key message; identical layout both directions.

    ecdh_public is x || y and signature is r || s, all coordinates at the
    negotiated group's fixed width. session_nonce, when present, rides as a
    trailer after the length-covered body so strict-layout parsers still see
    a packet whose header length matches.
    """

    ecdh_public: bytes
    signature: bytes
    session_nonce: bytes | None = None


def encode_soap_message(msg: SoapMessage) -> bytes:
    if len(msg.ecdh_public) % 2 or len(msg.signature) % 2:
        raise FrameError("key and signature must each be a coordinate pair")
    if not msg.ecdh_public or not msg.signature:
        raise FrameError("key and signature must be non-empty")
    if msg.session_nonce is not None and len(msg.session_nonce) != SESSION_NONCE_OCTETS:
        raise FrameError(f"session nonce must be {SESSION_NONCE_OCTETS} octets")
    body = msg.ecdh_public + msg.signature
    packet = (
        _EAPOL_HEADER.pack(AGREEMENT_PROTOCOL_VERSION, AGREEMENT_PACKET_TYPE, len(body))
        + body
    )
    if msg.session_nonce is not None:
        packet += msg.session_nonce
    return packet


def _read_eapol_header(data: bytes) -> tuple[int, int, int, bytes]:
    """(version, packet type, body length field, octets after the header)."""
    if len(data) < _EAPOL_HEADER.size:
        raise MalformedFrameError("packet shorter than the EAPOL header")
    return (*_EAPOL_HEADER.unpack_from(data), bytes(data[_EAPOL_HEADER.size :]))


def parse_soap_message(data: bytes, key_octets: int, signature_octets: int) -> SoapMessage:
    """Parse an EAPOL packet into a key-agreement message.

    A message parses only under the widths its receiver negotiated: key_octets
    for the ECDH group's coordinates and signature_octets for the curve the
    peer signs on, which may differ.
    """
    version, packet_type, body_length, rest = _read_eapol_header(data)
    if version != AGREEMENT_PROTOCOL_VERSION or packet_type != AGREEMENT_PACKET_TYPE:
        raise MalformedFrameError("not a key-agreement packet")
    if len(rest) == body_length:
        nonce = None
    elif len(rest) == body_length + SESSION_NONCE_OCTETS:
        nonce = rest[body_length:]
    else:
        raise MalformedFrameError("body length field disagrees with data")
    split = 2 * key_octets
    if body_length != split + 2 * signature_octets:
        raise MalformedFrameError(
            f"body of {body_length} octets does not fit the negotiated widths"
        )
    return SoapMessage(rest[:split], rest[split:body_length], nonce)


# ---------------------------------------------------------------------------
# EAPOL-Key frames (4-Way Handshake)
# ---------------------------------------------------------------------------


@dataclass
class EapolKeyFrame:
    key_info: int
    replay_counter: int
    key_nonce: bytes
    key_length: int = 16
    key_iv: bytes = bytes(16)
    key_rsc: bytes = bytes(8)
    key_id: bytes = bytes(8)
    key_mic: bytes = bytes(KEY_MIC_OCTETS)
    key_data: bytes = b""
    descriptor_type: int = KEY_DESCRIPTOR_RSN
    version: int = EAPOL_VERSION  # as received: the MIC covers it

    @property
    def has_mic(self) -> bool:
        return bool(self.key_info & KEY_INFO_MIC)


def encode_eapol_key_frame(frame: EapolKeyFrame) -> bytes:
    values = [getattr(frame, name) for name, _, _ in _KEY_BODY_SIZES]
    # A struct `s` field pads or truncates silently, and an integer outside
    # its field raises struct.error, so each field is checked before packing.
    for (name, octets, is_string), value in zip(_KEY_BODY_SIZES, values):
        if is_string:
            if len(value) != octets:
                raise FrameError(f"{name.replace('_', ' ')} must be {octets} octets")
        elif not 0 <= value < 1 << 8 * octets:
            label = name.replace("_", " ")
            raise FrameError(f"{label} {value} is outside [0, {1 << 8 * octets})")
    if len(frame.key_data) > _MAX_KEY_DATA_OCTETS:
        raise FrameError(f"key data must be at most {_MAX_KEY_DATA_OCTETS} octets")
    if frame.version not in (1, EAPOL_VERSION):
        raise FrameError(f"EAPOL version {frame.version} is neither 1 nor {EAPOL_VERSION}")
    body = _EAPOL_KEY_BODY.pack(*values, len(frame.key_data)) + frame.key_data
    return _EAPOL_HEADER.pack(frame.version, EAPOL_TYPE_KEY, len(body)) + body


def parse_eapol_key_frame(data: bytes) -> EapolKeyFrame:
    version, packet_type, body_length, body = _read_eapol_header(data)
    if packet_type != EAPOL_TYPE_KEY or version not in (1, EAPOL_VERSION):
        raise MalformedFrameError("not an EAPOL-Key packet")
    if len(body) != body_length or body_length < EAPOL_KEY_BODY_OCTETS:
        raise MalformedFrameError("body length field disagrees with data")
    *values, key_data_length = _EAPOL_KEY_BODY.unpack_from(body)
    key_data = body[EAPOL_KEY_BODY_OCTETS:]
    if len(key_data) != key_data_length:
        raise MalformedFrameError("key data length field disagrees with data")
    fields = {name: value for (name, _), value in zip(_KEY_BODY_FIELDS, values)}
    return EapolKeyFrame(**fields, key_data=key_data, version=version)


# ---------------------------------------------------------------------------
# Management frames
# ---------------------------------------------------------------------------


class FrameSubtype(IntEnum):
    ASSOC_REQUEST = 0
    PROBE_REQUEST = 4
    PROBE_RESPONSE = 5
    BEACON = 8
    DISASSOC = 10


# Fixed (pre-element) body per subtype: timestamp/interval/capability for
# beacon-like frames, capability/listen-interval for association requests,
# a reason code for disassociation.
_FIXED_BODY = {
    FrameSubtype.ASSOC_REQUEST: struct.pack("<HH", 0x0431, 10),
    FrameSubtype.PROBE_REQUEST: b"",
    FrameSubtype.PROBE_RESPONSE: struct.pack("<QHH", 0, 100, 0x0431),
    FrameSubtype.BEACON: struct.pack("<QHH", 0, 100, 0x0431),
    FrameSubtype.DISASSOC: struct.pack("<H", 8),
}


@dataclass(frozen=True)
class ManagementFrame:
    subtype: FrameSubtype
    src_mac: bytes
    dst_mac: bytes
    elements: tuple = ()
    signature: bytes | None = None


def _mac_header(frame_control: bytes, dst: bytes, src: bytes, bssid: bytes) -> bytes:
    if not (len(dst) == len(src) == len(bssid) == 6):
        raise FrameError("mac addresses must be 6 octets")
    return frame_control + b"\x00\x00" + dst + src + bssid + b"\x00\x00"


def wire_src_mac(wire: bytes) -> bytes:
    """The transmitter address of a frame's MAC header, read without a parse."""
    return bytes(wire[_SRC_MAC])


def wire_dst_mac(wire: bytes) -> bytes:
    """The receiver address of a frame's MAC header, read without a parse."""
    return bytes(wire[_DST_MAC])


def encode_management_frame(frame: ManagementFrame) -> bytes:
    frame_control = bytes([(frame.subtype << 4) & 0xF0, 0x00])
    out = _mac_header(frame_control, frame.dst_mac, frame.src_mac, frame.src_mac)
    out += _FIXED_BODY[frame.subtype]
    elements = list(frame.elements)
    if frame.signature is not None:
        elements.append((ELEMENT_ID_MGMT_SIGNATURE, frame.signature))
    for eid, payload in elements:
        if len(payload) > 255:
            raise OversizeElementError(f"element {eid} payload exceeds 255 octets")
        out += bytes([eid, len(payload)]) + payload
    return out


def iter_elements(data: bytes):
    """Walk a tagged-element area; raises on a truncated trailing element."""
    offset = 0
    while offset < len(data):
        if offset + 2 > len(data):
            raise MalformedFrameError("truncated element header")
        eid, length = data[offset], data[offset + 1]
        offset += 2
        if offset + length > len(data):
            raise MalformedFrameError("truncated element payload")
        yield eid, bytes(data[offset : offset + length])
        offset += length


def parse_management_frame(data: bytes) -> ManagementFrame:
    if len(data) < MAC_HEADER_OCTETS:
        raise MalformedFrameError("frame shorter than a MAC header")
    if data[0] & 0x0C:
        raise MalformedFrameError("not a management frame")
    try:
        subtype = FrameSubtype(data[0] >> 4)
    except ValueError:
        raise MalformedFrameError(f"unsupported management subtype {data[0] >> 4}") from None
    body = data[MAC_HEADER_OCTETS:]
    fixed = _FIXED_BODY[subtype]
    if len(body) < len(fixed):
        raise MalformedFrameError("frame shorter than its fixed body")
    elements = []
    signature = None
    for eid, payload in iter_elements(body[len(fixed) :]):
        if signature is not None:
            raise MalformedFrameError("element after the signature")
        if eid == ELEMENT_ID_MGMT_SIGNATURE:
            signature = payload
        else:
            elements.append((eid, payload))
    return ManagementFrame(
        subtype, wire_src_mac(data), wire_dst_mac(data), tuple(elements), signature
    )


def signed_octets(wire: bytes, signature: bytes) -> bytes:
    """The received octets that `signature`, on the management frame `wire`,
    covers: all before its signature element, which the parse holds last."""
    return wire[: len(wire) - 2 - len(signature)]


def find_element(frame: ManagementFrame, eid: int) -> bytes | None:
    for element_id, payload in frame.elements:
        if element_id == eid:
            return payload
    return None


def soap_ie_element(ie: SoapIe) -> tuple:
    """The IE as an (id, payload) pair for a management frame's element list."""
    return (ELEMENT_ID_SOAP, encode_soap_ie(ie)[2:])


def soap_ie_from_frame(frame: ManagementFrame) -> SoapIe | None:
    """Extract and parse the negotiation element, None when absent."""
    payload = find_element(frame, ELEMENT_ID_SOAP)
    if payload is None:
        return None
    return parse_soap_ie(bytes([ELEMENT_ID_SOAP, len(payload)]) + payload)


# ---------------------------------------------------------------------------
# Data frames (EAPOL carrier)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataFrame:
    """Minimal data frame whose payload is one EAPOL packet."""

    src_mac: bytes
    dst_mac: bytes
    payload: bytes
    from_ds: bool = False


def encode_data_frame(frame: DataFrame) -> bytes:
    frame_control = bytes([0x08, 0x02 if frame.from_ds else 0x01])
    bssid = frame.src_mac if frame.from_ds else frame.dst_mac
    header = _mac_header(frame_control, frame.dst_mac, frame.src_mac, bssid)
    return header + LLC_SNAP_HEADER + frame.payload


def parse_data_frame(data: bytes) -> DataFrame:
    if len(data) < _EAPOL_OFFSET:
        raise MalformedFrameError("frame shorter than its headers")
    if data[0] & 0x0C != 0x08:
        raise MalformedFrameError("not a data frame")
    llc = data[MAC_HEADER_OCTETS:_EAPOL_OFFSET]
    if llc != LLC_SNAP_HEADER:
        raise MalformedFrameError("payload is not EAPOL over LLC/SNAP")
    return DataFrame(
        src_mac=wire_src_mac(data),
        dst_mac=wire_dst_mac(data),
        payload=bytes(data[_EAPOL_OFFSET:]),
        from_ds=bool(data[1] & 0x02),
    )


# ---------------------------------------------------------------------------
# Frame kinds
# ---------------------------------------------------------------------------

# The kinds of frame SOAP puts on the air, as `frame_kind` reads them.
FRAME_KINDS = frozenset({"beacon", "assoc-request", "disassoc", "agreement", "eapol-key"})
# The kinds carried over EAPOL in a data frame; the rest are management frames.
EAPOL_KINDS = frozenset({"agreement", "eapol-key"})

_MANAGEMENT_KINDS = {
    FrameSubtype.BEACON: "beacon",
    FrameSubtype.ASSOC_REQUEST: "assoc-request",
    FrameSubtype.DISASSOC: "disassoc",
}


def frame_kind(wire: bytes) -> str | None:
    """The one of FRAME_KINDS that `wire` carries, or None. A peek, not a
    parse: the frame-control octet and, in a data frame, the two EAPOL header
    octets after the LLC/SNAP header. A frame of a kind may still not parse."""
    frame_type = wire[0] & 0x0C if wire else None
    if frame_type == 0x00:
        return _MANAGEMENT_KINDS.get(wire[0] >> 4)
    if frame_type != 0x08:
        return None
    eapol = wire[_EAPOL_OFFSET : _EAPOL_OFFSET + 2]
    if eapol == bytes([AGREEMENT_PROTOCOL_VERSION, AGREEMENT_PACKET_TYPE]):
        return "agreement"
    return "eapol-key" if eapol[1:] == bytes([EAPOL_TYPE_KEY]) else None


# ---------------------------------------------------------------------------
# Sizes and dumps
# ---------------------------------------------------------------------------


def frame_wire_size(obj) -> int:
    """Full transmitted size in octets, MAC and LLC/SNAP headers included."""
    if isinstance(obj, SoapMessage):
        return _EAPOL_OFFSET + len(encode_soap_message(obj))
    if isinstance(obj, EapolKeyFrame):
        return _EAPOL_OFFSET + len(encode_eapol_key_frame(obj))
    if isinstance(obj, ManagementFrame):
        return len(encode_management_frame(obj))
    raise TypeError(f"no wire size for {type(obj).__name__}")


def hexdump(data: bytes) -> str:
    lines = []
    for offset in range(0, len(data), 16):
        chunk = data[offset : offset + 16]
        lines.append(f"{offset:04x}: {' '.join(f'{b:02x}' for b in chunk)}")
    return "\n".join(lines)
