"""Wire codecs: elements, agreement messages, EAPOL-Key, management frames."""

from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soapsim.crypto import known_group_ids, registry_lookup
from soapsim.frames import (
    BROADCAST_MAC,
    EAPOL_KEY_BODY_OCTETS,
    EAPOL_KINDS,
    ELEMENT_ID_MGMT_SIGNATURE,
    ELEMENT_ID_SOAP,
    ELEMENT_ID_SSID,
    DataFrame,
    EapolKeyFrame,
    FrameError,
    FRAME_KINDS,
    FrameSubtype,
    LLC_SNAP_HEADER,
    MAC_HEADER_OCTETS,
    MalformedFrameError,
    ManagementFrame,
    OversizeElementError,
    SoapIe,
    SoapMessage,
    encode_data_frame,
    encode_eapol_key_frame,
    encode_management_frame,
    encode_soap_ie,
    encode_soap_message,
    find_element,
    frame_kind,
    frame_wire_size,
    hexdump,
    management_signing_input,
    parse_data_frame,
    parse_eapol_key_frame,
    parse_management_frame,
    parse_soap_ie,
    parse_soap_message,
    soap_ie_element,
    soap_ie_from_frame,
)
from soapsim.fourway import KEY_DATA_M3, KEY_INFO_M1, KEY_INFO_M3
from soapsim.scenarios import builtin
from soapsim.simnet import Transmission, run_scenario

MAC_A = bytes.fromhex("020000000001")
MAC_B = bytes.fromhex("020000000002")


class TestSoapIeGolden:
    """The advertisement element's documented sizes."""

    def test_single_group_default_curve_is_33_octets(self):
        ie = SoapIe((26,), bytes(28))
        assert len(encode_soap_ie(ie)) == 33

    def test_second_group_adds_one_octet(self):
        assert len(encode_soap_ie(SoapIe((26, 19), bytes(28)))) == 34

    def test_size_formula_every_group(self):
        for gid in known_group_ids():
            s = registry_lookup(gid).key_size_octets
            for m in range(1, 6):
                ie = SoapIe(tuple([gid] * m), bytes(s))
                assert len(encode_soap_ie(ie)) == 2 + 2 + m + s

    def test_known_layout(self):
        wire = encode_soap_ie(SoapIe((26,), b"\xaa" * 28))
        assert wire[0] == ELEMENT_ID_SOAP
        assert wire[1] == 31          # payload length
        assert wire[2] == 1           # group count
        assert wire[3] == 26          # the one group id
        assert wire[4] == 28          # key size
        assert wire[5:] == b"\xaa" * 28


class TestSoapIeCodec:
    """Round trips and malformed-input rejection."""

    @given(
        groups=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=8),
        key=st.binary(min_size=1, max_size=80),
    )
    def test_round_trip(self, groups, key):
        ie = SoapIe(tuple(groups), key)
        assert parse_soap_ie(encode_soap_ie(ie)) == ie

    def test_empty_group_list_rejected_on_encode(self):
        with pytest.raises(FrameError):
            encode_soap_ie(SoapIe((), bytes(28)))

    def test_oversize_element_rejected(self):
        with pytest.raises(OversizeElementError):
            encode_soap_ie(SoapIe(tuple([26] * 200), bytes(60)))

    @pytest.mark.parametrize(
        "ie, message",
        [
            (SoapIe((26, 256), bytes(28)), "group ids must fit one octet"),
            (SoapIe((-1,), bytes(28)), "group ids must fit one octet"),
            (SoapIe((26,), b""), "key size must fit one octet"),
            (SoapIe((26,), bytes(256)), "key size must fit one octet"),
        ],
    )
    def test_field_past_one_octet_rejected_on_encode(self, ie, message):
        with pytest.raises(FrameError, match=message):
            encode_soap_ie(ie)

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"\xfb",
            bytes([250, 31, 1, 26, 28]) + bytes(28),   # wrong element id
            bytes([251, 30, 1, 26, 28]) + bytes(28),   # length disagrees
            bytes([251, 31, 0, 26, 28]) + bytes(28),   # zero groups
            bytes([251, 31, 1, 26, 29]) + bytes(28),   # key size disagrees
            bytes([251, 3, 5, 1, 2]),                  # group list past element
        ],
    )
    def test_malformed_rejected(self, data):
        with pytest.raises(MalformedFrameError):
            parse_soap_ie(data)


class TestSoapMessageCodec:
    """Signed-key packets, with and without the session-nonce trailer."""

    @pytest.mark.parametrize(
        "msg, message",
        [
            (SoapMessage(bytes(55), bytes(56)), "each be a coordinate pair"),
            (SoapMessage(bytes(56), bytes(57)), "each be a coordinate pair"),
            (SoapMessage(b"", bytes(56)), "must be non-empty"),
            (SoapMessage(bytes(56), bytes(56), bytes(7)), "session nonce must be 8 octets"),
        ],
    )
    def test_bad_message_rejected_on_encode(self, msg, message):
        with pytest.raises(FrameError, match=message):
            encode_soap_message(msg)

    def test_strict_wire_size_default_curve(self):
        msg = SoapMessage(bytes(56), bytes(56))
        assert len(encode_soap_message(msg)) == 116
        assert frame_wire_size(msg) == 148

    def test_wire_size_formula_every_group(self):
        for gid in known_group_ids():
            s = registry_lookup(gid).key_size_octets
            msg = SoapMessage(bytes(2 * s), bytes(2 * s))
            assert frame_wire_size(msg) == 36 + 4 * s
            with_nonce = SoapMessage(bytes(2 * s), bytes(2 * s), bytes(8))
            assert frame_wire_size(with_nonce) == 44 + 4 * s

    @given(s=st.sampled_from([28, 32, 48, 66]), nonce=st.booleans())
    def test_round_trip(self, s, nonce):
        msg = SoapMessage(
            bytes(range(256))[: 2 * s] + bytes(max(0, 2 * s - 256)),
            b"\x55" * (2 * s),
            bytes(8) if nonce else None,
        )
        assert parse_soap_message(encode_soap_message(msg)) == msg

    def test_nonce_excluded_from_length_field(self):
        plain = encode_soap_message(SoapMessage(bytes(56), bytes(56)))
        extended = encode_soap_message(SoapMessage(bytes(56), bytes(56), b"\x01" * 8))
        assert plain[:4] == extended[:4]
        assert extended[-8:] == b"\x01" * 8

    def test_width_hints_split_uneven_halves(self):
        # key on one curve, signature on another
        msg = SoapMessage(b"\x01" * 64, b"\x02" * 96)
        wire = encode_soap_message(msg)
        parsed = parse_soap_message(wire, key_octets=32, signature_octets=48)
        assert parsed == msg

    def test_no_hints_assumes_equal_halves(self):
        # without negotiated widths the parser can only split down the middle
        msg = SoapMessage(b"\x01" * 64, b"\x02" * 96)
        parsed = parse_soap_message(encode_soap_message(msg))
        assert parsed != msg
        assert len(parsed.ecdh_public) == len(parsed.signature) == 80

    def test_no_hints_rejects_odd_body(self):
        wire = bytearray(encode_soap_message(SoapMessage(bytes(56), bytes(56))))
        wire[3] += 2  # body length no longer divisible by four
        with pytest.raises(MalformedFrameError):
            parse_soap_message(bytes(wire[:-6]))

    def test_hint_mismatch_rejected(self):
        wire = encode_soap_message(SoapMessage(bytes(56), bytes(56)))
        with pytest.raises(MalformedFrameError):
            parse_soap_message(wire, key_octets=32)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda w: w[:3],                      # shorter than header
            lambda w: b"\x00" + w[1:],            # wrong version
            lambda w: w[:1] + b"\x00" + w[2:],    # wrong packet type
            lambda w: w + b"\x00",                # stray trailing octet
            lambda w: w[:-1],                     # truncated body
        ],
    )
    def test_malformed_rejected(self, mutate):
        wire = encode_soap_message(SoapMessage(bytes(56), bytes(56)))
        with pytest.raises(MalformedFrameError):
            parse_soap_message(mutate(wire))


class TestEapolKeyCodec:
    """The 95-octet key-descriptor body plus key data."""

    def test_wire_sizes(self):
        plain = EapolKeyFrame(key_info=KEY_INFO_M1, replay_counter=1, key_nonce=bytes(32))
        assert len(encode_eapol_key_frame(plain)) == 99
        assert frame_wire_size(plain) == 131
        m3 = EapolKeyFrame(
            key_info=KEY_INFO_M3, replay_counter=2, key_nonce=bytes(32),
            key_mic=b"\x11" * 16, key_data=KEY_DATA_M3,
        )
        assert frame_wire_size(m3) == 195

    @given(
        key_info=st.integers(min_value=0, max_value=0xFFFF),
        counter=st.integers(min_value=0, max_value=2**64 - 1),
        nonce=st.binary(min_size=32, max_size=32),
        key_length=st.integers(min_value=0, max_value=0xFFFF),
        iv=st.binary(min_size=16, max_size=16),
        rsc=st.binary(min_size=8, max_size=8),
        key_id=st.binary(min_size=8, max_size=8),
        mic=st.binary(min_size=16, max_size=16),
        key_data=st.binary(max_size=80),
        descriptor_type=st.integers(min_value=0, max_value=0xFF),
    )
    def test_round_trip(
        self, key_info, counter, nonce, key_length, iv, rsc, key_id, mic, key_data,
        descriptor_type,
    ):
        frame = EapolKeyFrame(
            key_info=key_info, replay_counter=counter, key_nonce=nonce,
            key_length=key_length, key_iv=iv, key_rsc=rsc, key_id=key_id,
            key_mic=mic, key_data=key_data, descriptor_type=descriptor_type,
        )
        assert parse_eapol_key_frame(encode_eapol_key_frame(frame)) == frame

    def test_known_answer(self):
        # Every field distinct and nonzero, so a layout that moves or swaps
        # two fields of one width fails here though it round-trips.
        frame = EapolKeyFrame(
            key_info=0x010A, replay_counter=0x0102030405060708,
            key_nonce=bytes(range(0x40, 0x60)), key_length=0x0020,
            key_iv=bytes(range(0x10, 0x20)), key_rsc=bytes(range(0x21, 0x29)),
            key_id=bytes(range(0x31, 0x39)), key_mic=bytes(range(0x70, 0x80)),
            key_data=b"\xdd\xee", descriptor_type=0xFE,
        )
        wire = bytes.fromhex(
            "02" "03" "0061"  # EAPOL version 2, type Key, body length 97
            "fe" "010a" "0020"  # descriptor type, key info, key length
            "0102030405060708"  # replay counter
            "404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f"
            "101112131415161718191a1b1c1d1e1f"  # key IV
            "2122232425262728"  # key RSC
            "3132333435363738"  # key id
            "707172737475767778797a7b7c7d7e7f"  # key MIC
            "0002" "ddee"  # key data length, key data
        )
        assert encode_eapol_key_frame(frame) == wire
        assert parse_eapol_key_frame(wire) == frame

    @pytest.mark.parametrize(
        "field, octets, message",
        [
            ("key_nonce", 31, "key nonce must be 32 octets"),
            ("key_iv", 15, "key iv must be 16 octets"),
            ("key_rsc", 9, "key rsc must be 8 octets"),
            ("key_id", 7, "key id must be 8 octets"),
            ("key_mic", 17, "key mic must be 16 octets"),
        ],
    )
    def test_wrong_width_field_rejected(self, field, octets, message):
        frame = EapolKeyFrame(key_info=KEY_INFO_M1, replay_counter=0, key_nonce=bytes(32))
        setattr(frame, field, bytes(octets))
        with pytest.raises(FrameError, match=message):
            encode_eapol_key_frame(frame)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("key_info", 0x10000, "key info 65536 is outside"),
            ("key_length", -1, "key length -1 is outside"),
            ("descriptor_type", 256, "descriptor type 256 is outside"),
            ("replay_counter", 2**64, f"replay counter {2**64} is outside"),
            ("key_data", bytes(65536), "key data must be at most 65440 octets"),
        ],
        ids=["key_info", "key_length", "descriptor_type", "replay_counter", "key_data"],
    )
    def test_out_of_range_field_rejected(self, field, value, message):
        frame = EapolKeyFrame(key_info=KEY_INFO_M1, replay_counter=0, key_nonce=bytes(32))
        setattr(frame, field, value)
        with pytest.raises(FrameError, match=message):
            encode_eapol_key_frame(frame)

    def test_longest_key_data_round_trips(self):
        frame = EapolKeyFrame(
            key_info=KEY_INFO_M1, replay_counter=2**64 - 1, key_nonce=bytes(32),
            key_data=bytes(65440),
        )
        wire = encode_eapol_key_frame(frame)
        assert len(wire) == 4 + 0xFFFF
        assert parse_eapol_key_frame(wire) == frame
        frame.key_data += b"\x00"
        with pytest.raises(FrameError, match="key data must be at most 65440 octets"):
            encode_eapol_key_frame(frame)

    def test_body_length_validated(self):
        wire = encode_eapol_key_frame(
            EapolKeyFrame(key_info=KEY_INFO_M1, replay_counter=0, key_nonce=bytes(32))
        )
        with pytest.raises(MalformedFrameError):
            parse_eapol_key_frame(wire[:-1])
        with pytest.raises(MalformedFrameError):
            parse_eapol_key_frame(wire + b"\x00")


class TestManagementFrames:
    """Beacons, association, disassociation, and the signature element."""

    def beacon(self, elements=(), signature=None):
        return ManagementFrame(
            FrameSubtype.BEACON, MAC_A, BROADCAST_MAC, tuple(elements), signature
        )

    def test_round_trip(self):
        frame = self.beacon([(ELEMENT_ID_SSID, b"publicnet"), (7, b"\x01\x02")])
        assert parse_management_frame(encode_management_frame(frame)) == frame

    def test_round_trip_all_subtypes(self):
        for subtype in FrameSubtype:
            frame = ManagementFrame(subtype, MAC_A, MAC_B, ((ELEMENT_ID_SSID, b"x"),))
            parsed = parse_management_frame(encode_management_frame(frame))
            assert parsed.subtype is subtype
            assert parsed.src_mac == MAC_A
            assert parsed.dst_mac == MAC_B

    def test_signature_rides_last_element(self):
        frame = self.beacon([(0, b"net")], signature=b"\xab" * 56)
        wire = encode_management_frame(frame)
        parsed = parse_management_frame(wire)
        assert parsed.signature == b"\xab" * 56
        assert parsed.elements == ((0, b"net"),)
        # signature element sits after every other element
        assert wire[-58] == ELEMENT_ID_MGMT_SIGNATURE

    def test_signing_input_excludes_signature(self):
        bare = self.beacon([(0, b"net")])
        signed = self.beacon([(0, b"net")], signature=b"\xab" * 56)
        assert management_signing_input(signed) == encode_management_frame(bare)
        assert management_signing_input(signed) != encode_management_frame(signed)

    @pytest.mark.parametrize(
        "src, elements, error",
        [
            (MAC_A[:5], (), "mac addresses must be 6 octets"),
            (MAC_A, ((7, bytes(256)),), "element 7 payload exceeds 255 octets"),
        ],
    )
    def test_unencodable_frame_rejected(self, src, elements, error):
        with pytest.raises(FrameError, match=error):
            encode_management_frame(
                ManagementFrame(FrameSubtype.BEACON, src, BROADCAST_MAC, elements)
            )

    def test_truncated_element_area_raises(self):
        frame = self.beacon([(0, b"net")])
        wire = encode_management_frame(frame)
        with pytest.raises(MalformedFrameError):
            parse_management_frame(wire[:-1])

    def test_non_management_rejected(self):
        wire = bytearray(encode_management_frame(self.beacon()))
        wire[0] |= 0x08  # data-frame type bits
        with pytest.raises(MalformedFrameError):
            parse_management_frame(bytes(wire))

    def test_find_element(self):
        frame = self.beacon([(0, b"net"), (7, b"\x01")])
        assert find_element(frame, 7) == b"\x01"
        assert find_element(frame, 8) is None


class TestLegacyTransparency:
    """A receiver that has never heard of element 251 is unaffected by it."""

    def soap_beacon(self):
        ie = SoapIe((26,), bytes(28))
        return ManagementFrame(
            FrameSubtype.BEACON,
            MAC_A,
            BROADCAST_MAC,
            ((ELEMENT_ID_SSID, b"publicnet"), (1, bytes(8)), soap_ie_element(ie)),
        )

    def stripped(self, frame):
        kept = tuple(e for e in frame.elements if e[0] != ELEMENT_ID_SOAP)
        return ManagementFrame(frame.subtype, frame.src_mac, frame.dst_mac, kept)

    def test_unaware_parser_sees_identical_recognized_elements(self):
        legacy_ids = {ELEMENT_ID_SSID, 1}
        with_ie = parse_management_frame(
            encode_management_frame(self.soap_beacon())
        ).elements
        without = parse_management_frame(
            encode_management_frame(self.stripped(self.soap_beacon()))
        ).elements
        rec_a = [e for e in with_ie if e[0] in legacy_ids]
        rec_b = [e for e in without if e[0] in legacy_ids]
        assert rec_a == rec_b
        assert len(with_ie) - len(rec_a) == len(without) - len(rec_b) + 1

    def test_stripping_element_changes_exactly_its_size(self):
        with_ie = encode_management_frame(self.soap_beacon())
        without = encode_management_frame(self.stripped(self.soap_beacon()))
        assert len(with_ie) - len(without) == 33

    def test_soap_ie_from_frame(self):
        frame = parse_management_frame(encode_management_frame(self.soap_beacon()))
        ie = soap_ie_from_frame(frame)
        assert ie == SoapIe((26,), bytes(28))
        assert soap_ie_from_frame(self.stripped(frame)) is None

    @given(
        extra=st.lists(
            st.tuples(
                st.integers(min_value=2, max_value=250), st.binary(max_size=20)
            ),
            max_size=4,
        )
    )
    def test_unknown_elements_never_error(self, extra):
        frame = ManagementFrame(
            FrameSubtype.BEACON,
            MAC_A,
            BROADCAST_MAC,
            ((ELEMENT_ID_SSID, b"net"), *extra),
        )
        parsed = parse_management_frame(encode_management_frame(frame))
        recognized = [e for e in parsed.elements if e[0] == ELEMENT_ID_SSID]
        assert recognized == [(ELEMENT_ID_SSID, b"net")]


class TestDataFrames:
    """LLC/SNAP-wrapped EAPOL carrier frames."""

    def test_round_trip(self):
        frame = DataFrame(MAC_A, MAC_B, b"\x01\x02\x03")
        assert parse_data_frame(encode_data_frame(frame)) == frame

    def test_llc_snap_header_present(self):
        wire = encode_data_frame(DataFrame(MAC_A, MAC_B, b"payload"))
        assert wire[MAC_HEADER_OCTETS : MAC_HEADER_OCTETS + 8] == LLC_SNAP_HEADER

    def test_wrong_llc_rejected(self):
        wire = bytearray(encode_data_frame(DataFrame(MAC_A, MAC_B, b"p")))
        wire[MAC_HEADER_OCTETS] ^= 0xFF
        with pytest.raises(MalformedFrameError):
            parse_data_frame(bytes(wire))

    def test_macs_recovered(self):
        parsed = parse_data_frame(encode_data_frame(DataFrame(MAC_A, MAC_B, b"p")))
        assert parsed.src_mac == MAC_A
        assert parsed.dst_mac == MAC_B


def _mgmt_wire(subtype) -> bytes:
    return encode_management_frame(ManagementFrame(subtype, MAC_A, MAC_B))


def _data_wire(payload: bytes) -> bytes:
    return encode_data_frame(DataFrame(MAC_A, MAC_B, payload))


class TestFrameKind:
    """`frame_kind` reads the kind from the headers, without a parse."""

    def test_the_five_kinds(self):
        key = encode_eapol_key_frame(
            EapolKeyFrame(key_info=KEY_INFO_M1, replay_counter=0, key_nonce=bytes(32))
        )
        agreement = encode_soap_message(SoapMessage(bytes(56), bytes(56)))
        kinds = {
            _mgmt_wire(FrameSubtype.BEACON): "beacon",
            _mgmt_wire(FrameSubtype.ASSOC_REQUEST): "assoc-request",
            _mgmt_wire(FrameSubtype.DISASSOC): "disassoc",
            _data_wire(agreement): "agreement",
            _data_wire(key): "eapol-key",
        }
        assert {wire: frame_kind(wire) for wire in kinds} == kinds
        assert set(kinds.values()) == FRAME_KINDS

    def test_data_frame_that_is_not_agreement_or_key(self):
        # EAPOL-Start (version 2, packet type 1), then no EAPOL header at all
        assert frame_kind(_data_wire(b"\x02\x01\x00\x00")) is None
        assert frame_kind(_data_wire(b"")) is None

    def test_management_subtype_of_no_kind(self):
        probe = _mgmt_wire(FrameSubtype.PROBE_REQUEST)
        assert frame_kind(probe) is None
        # subtype 13 (action) is one the codec does not support
        action = bytes([13 << 4]) + probe[1:]
        with pytest.raises(MalformedFrameError, match="unsupported management subtype"):
            parse_management_frame(action)
        assert frame_kind(action) is None

    def test_peek_is_not_a_parse(self):
        truncated = _mgmt_wire(FrameSubtype.BEACON)[:10]
        with pytest.raises(MalformedFrameError):
            parse_management_frame(truncated)
        assert frame_kind(truncated) == "beacon"
        # a control frame, and no frame at all
        assert frame_kind(bytes([0x04]) + bytes(23)) is None
        assert frame_kind(b"") is None


class TestWireSizeDispatch:
    """frame_wire_size agrees with the encoders for every frame family."""

    def test_management(self):
        frame = ManagementFrame(
            FrameSubtype.BEACON, MAC_A, BROADCAST_MAC, ((0, b"ssid"),)
        )
        assert frame_wire_size(frame) == len(encode_management_frame(frame))

    def test_agreement_message_counts_headers(self):
        msg = SoapMessage(bytes(56), bytes(56))
        assert frame_wire_size(msg) == len(encode_soap_message(msg)) + 32

    def test_eapol_key_counts_headers(self):
        frame = EapolKeyFrame(key_info=KEY_INFO_M1, replay_counter=0, key_nonce=bytes(32))
        assert frame_wire_size(frame) == len(encode_eapol_key_frame(frame)) + 32

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            frame_wire_size(object())


class TestHexdump:
    """Sixteen octets per line with running offsets."""

    def test_layout(self):
        lines = hexdump(bytes(range(20))).splitlines()
        assert lines[0].startswith("0000: 00 01")
        assert lines[1].startswith("0010: 10 11")
        assert len(lines) == 2

    def test_empty(self):
        assert hexdump(b"") == ""


def _builtin_sources():
    """The distinct frames that a few builtins put on the air at seed 1, and
    the EAPOL packet or SOAP element each carries, by what they are."""
    wires = set()
    for name in ("benign", "benign-strict", "legacy-client", "hijack-mitm",
                 "hijack-disassoc-mitigated", "inject-unmitigated"):
        records = run_scenario(builtin(name), 1).records
        wires |= {bytes.fromhex(r["hex"]) for r in records if r["event"] == "tx"}
    sources = {}
    for wire in sorted(wires):
        kind = frame_kind(wire)
        sources.setdefault(kind, []).append(wire)
        if kind in EAPOL_KINDS:
            sources.setdefault(f"{kind} packet", []).append(parse_data_frame(wire).payload)
        else:
            payload = find_element(parse_management_frame(wire), ELEMENT_ID_SOAP)
            if payload is not None:
                element = bytes([ELEMENT_ID_SOAP, len(payload)]) + payload
                sources.setdefault("soap element", []).append(element)
    return sources


SOURCES = _builtin_sources()
_GROUP_WIDTHS = sorted({registry_lookup(g).key_size_octets for g in known_group_ids()})
# Every parser a receiver may hand octets to, with each width hint it may pass.
PARSERS = (
    lambda data: soap_ie_from_frame(parse_management_frame(data)),
    parse_data_frame,
    parse_soap_ie,
    parse_soap_message,
    *(partial(parse_soap_message, key_octets=key, signature_octets=signature)
      for key in _GROUP_WIDTHS for signature in _GROUP_WIDTHS),
    parse_eapol_key_frame,
)

# For each malformed branch that no well-formed run reaches, a mutation of a
# builtin source that reaches it: (source, truncated length, overwrites).
REACHING = {
    "element payload too short for any group list": ("soap element", 2, [(1, 0)]),
    "body cannot split into key and signature": ("agreement packet", 4, [(2, 0), (3, 0)]),
    "not an EAPOL-Key packet": ("agreement packet", None, []),
    "key data length field disagrees with data": (
        "eapol-key packet", None, [(4 + EAPOL_KEY_BODY_OCTETS - 2, 0xFF)],
    ),
    # one octet past the beacon's 12-octet fixed body
    "truncated element header": ("beacon", MAC_HEADER_OCTETS + 13, []),
    "frame shorter than its fixed body": ("beacon", MAC_HEADER_OCTETS + 1, []),
    "frame shorter than its headers": ("agreement", MAC_HEADER_OCTETS, []),
    "not a data frame": ("beacon", None, []),
}


def mutate(source: bytes, cut, overwrites) -> bytes:
    """`source` cut to `cut` octets, then each (offset, value) written at
    offset modulo the length."""
    data = bytearray(source[:cut])
    for offset, value in overwrites:
        if data:
            data[offset % len(data)] = value
    return bytes(data)


def parse_everywhere(data: bytes) -> set:
    """Hand `data` to every parser; the reasons of the MalformedFrameErrors
    raised. Any other exception propagates."""
    reasons = set()
    for parse in PARSERS:
        try:
            parse(data)
        except MalformedFrameError as exc:
            reasons.add(str(exc))
    return reasons


def reaching_examples(test):
    for label, cut, overwrites in REACHING.values():
        test = example(source=SOURCES[label][0], cut=cut, overwrites=overwrites)(test)
    return test


class TestMutatedFrames:
    """Truncated and overwritten builtin frames either parse or raise
    MalformedFrameError, in every parser and in the receivers' one parse."""

    def test_the_sources_cover_every_kind(self):
        assert set(SOURCES) >= FRAME_KINDS | {
            "agreement packet", "eapol-key packet", "soap element"
        }

    @pytest.mark.parametrize("reason", sorted(REACHING))
    def test_a_pinned_mutation_reaches_the_branch(self, reason):
        label, cut, overwrites = REACHING[reason]
        assert reason in parse_everywhere(mutate(SOURCES[label][0], cut, overwrites))

    @settings(max_examples=1000)
    @reaching_examples
    @given(
        source=st.sampled_from([data for group in SOURCES.values() for data in group]),
        cut=st.none() | st.integers(0, 300),
        overwrites=st.lists(st.tuples(st.integers(0, 299), st.integers(0, 255)), max_size=4),
    )
    def test_a_mutated_frame_parses_or_is_malformed(self, source, cut, overwrites):
        data = mutate(source, cut, overwrites)
        parse_everywhere(data)
        frame = Transmission("ap1", data).frame
        assert isinstance(frame, (ManagementFrame, DataFrame, MalformedFrameError))
