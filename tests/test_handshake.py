"""The two signed key-agreement messages between client and AP sessions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from soapsim.crypto import (
    PSK_OCTETS,
    SeededRng,
    ecdsa_sign,
    known_group_ids,
    registry_lookup,
)
from soapsim.frames import SoapMessage, encode_soap_message, parse_soap_message
from soapsim.handshake import (
    TAG_MESSAGE1,
    TAG_MESSAGE2,
    ApSession,
    ClientSession,
    Phase,
    Role,
    make_identity,
    run_exchange,
    signed_payload,
)
from soapsim.negotiation import advertisement_ie

AP_MAC = bytes.fromhex("020000000001")
CLIENT_MAC = bytes.fromhex("020000000002")
ROGUE_MAC = bytes.fromhex("0200000000ee")


def make_pair(seed=0, ap_groups=(26,), client_groups=(26,), strict=False, **client_kw):
    rng = SeededRng(seed, b"handshake-test")
    ap_id = make_identity(AP_MAC, Role.AP, ap_groups, rng.child(b"ap-id"))
    cl_id = make_identity(CLIENT_MAC, Role.CLIENT, client_groups, rng.child(b"cl-id"))
    client = ClientSession(cl_id, rng.child(b"client"), strict_frames=strict, **client_kw)
    ap = ApSession(ap_id, rng.child(b"ap"), CLIENT_MAC, strict_frames=strict)
    return ap_id, cl_id, ap, client


def widths(session):
    """The widths a receiver parses an agreement message under, as a station does."""
    return session.group.key_size_octets, session.peer_signer[0].key_size_octets


def off_curve(msg, signer, tag, sender_mac, receiver_mac):
    """`msg` with its ECDH point moved off the curve, re-signed under `signer`
    so that the signature check passes and the point check decides."""
    bad_public = bytearray(msg.ecdh_public)
    bad_public[-1] ^= 0x01
    payload = signed_payload(
        tag, sender_mac, receiver_mac, 26, msg.session_nonce, bytes(bad_public)
    )
    return SoapMessage(bytes(bad_public), ecdsa_sign(signer, payload), msg.session_nonce)


def run_flow(ap_id, ap, client, groups=(26,)):
    adv = advertisement_ie(ap_id.ecdsa, groups)
    response, event = client.on_advertisement(adv, ap_id.mac)
    assert event == "respond", event
    client.mark_associated()
    assert ap.on_response_element(response) == "ok"
    msg1 = ap.build_message1()
    msg2, event = client.on_message1(msg1, ap_id.mac)
    assert event == "agreed", event
    assert ap.on_message2(msg2, CLIENT_MAC) == "agreed"
    return msg1, msg2


class TestHappyPath:
    """Both sides end with the same fresh secret."""

    def test_psk_agreed_both_sides(self):
        ap_id, _, ap, client = make_pair()
        run_flow(ap_id, ap, client)
        assert ap.phase is Phase.PSK_AGREED
        assert client.phase is Phase.PSK_AGREED
        assert ap.psk == client.psk
        assert len(ap.psk) == PSK_OCTETS

    def test_every_group(self):
        for gid in known_group_ids():
            ap_id, _, ap, client = make_pair(
                seed=gid, ap_groups=(gid,), client_groups=(gid,)
            )
            run_flow(ap_id, ap, client, groups=(gid,))
            assert ap.psk == client.psk

    def test_strict_frames_mode(self):
        ap_id, _, ap, client = make_pair(strict=True)
        msg1, msg2 = run_flow(ap_id, ap, client)
        assert msg1.session_nonce is None
        assert msg2.session_nonce is None
        assert ap.psk == client.psk

    def test_messages_survive_the_wire(self):
        ap_id, _, ap, client = make_pair()
        adv = advertisement_ie(ap_id.ecdsa, (26,))
        response, _ = client.on_advertisement(adv, ap_id.mac)
        client.mark_associated()
        ap.on_response_element(response)
        msg1 = parse_soap_message(encode_soap_message(ap.build_message1()), *widths(client))
        msg2, event = client.on_message1(msg1, ap_id.mac)
        assert event == "agreed"
        msg2 = parse_soap_message(encode_soap_message(msg2), *widths(ap))
        assert ap.on_message2(msg2, CLIENT_MAC) == "agreed"

    def test_heterogeneous_signer_curves(self):
        # AP identity key on P-521, negotiated ECDH group P-384
        ap_id, _, ap, client = make_pair(
            ap_groups=(26, 19, 20, 21), client_groups=(19, 20)
        )
        run_flow(ap_id, ap, client, groups=(26, 19, 20, 21))
        assert client.group.group_id == 20
        assert ap.group.group_id == 20
        assert ap.identity.ecdsa.group.group_id == 21
        assert ap.psk == client.psk

    def test_fresh_runs_fresh_secrets(self):
        secrets = set()
        for seed in range(10):
            ap_id, _, ap, client = make_pair(seed=seed)
            run_flow(ap_id, ap, client)
            secrets.add(bytes(ap.psk))
        assert len(secrets) == 10

    def test_ephemeral_dropped_after_agreement(self):
        ap_id, _, ap, client = make_pair()
        run_flow(ap_id, ap, client)
        assert ap._ephemeral is None
        assert client._ephemeral is None


class TestNegotiationEdges:
    """Advertisement handling: fallback, pinning, signer problems."""

    def test_disjoint_groups_fall_back(self):
        ap_id, _, ap, client = make_pair(ap_groups=(26,), client_groups=(19,))
        adv = advertisement_ie(ap_id.ecdsa, (26,))
        response, event = client.on_advertisement(adv, ap_id.mac)
        assert response is None
        assert event == "fallback"

    def test_pinned_key_match_proceeds(self):
        ap_id, _, ap, client = make_pair()
        pin = (ap_id.ecdsa.group, ap_id.ecdsa.public_point)
        _, _, _, pinned_client = make_pair(pinned_ap_key=pin)
        adv = advertisement_ie(ap_id.ecdsa, (26,))
        _, event = pinned_client.on_advertisement(adv, ap_id.mac)
        assert event == "respond"

    def test_pinned_key_mismatch_discards(self):
        ap_id, _, _, _ = make_pair()
        rogue_id = make_identity(ROGUE_MAC, Role.AP, (26,), SeededRng(b"rogue"))
        pin = (ap_id.ecdsa.group, ap_id.ecdsa.public_point)
        _, _, _, client = make_pair(pinned_ap_key=pin)
        adv = advertisement_ie(rogue_id.ecdsa, (26,))
        response, event = client.on_advertisement(adv, ROGUE_MAC)
        assert response is None
        assert event == "pinned-mismatch"
        assert client.phase is Phase.IDLE

    def test_second_advertisement_ignored(self):
        ap_id, _, ap, client = make_pair()
        adv = advertisement_ie(ap_id.ecdsa, (26,))
        client.on_advertisement(adv, ap_id.mac)
        _, event = client.on_advertisement(adv, ap_id.mac)
        assert event == "phase"

    def test_undecodable_signer_key(self):
        ap_id, _, _, client = make_pair()
        adv = advertisement_ie(ap_id.ecdsa, (26,))
        broken = type(adv)(adv.group_ids, bytes(30))  # width maps to no curve
        _, event = client.on_advertisement(broken, ap_id.mac)
        assert event == "bad-signer"

    def test_identity_needs_a_registered_group(self):
        with pytest.raises(ValueError, match="at least one registered group"):
            make_identity(AP_MAC, Role.AP, (999,), SeededRng(0, b"identity-test"))


class TestMessage1Handling:
    """Client-side checks on the AP's signed ephemeral key."""

    def ready_client(self, **kw):
        ap_id, cl_id, ap, client = make_pair(**kw)
        adv = advertisement_ie(ap_id.ecdsa, (26,))
        response, _ = client.on_advertisement(adv, ap_id.mac)
        client.mark_associated()
        ap.on_response_element(response)
        return ap_id, ap, client

    def assert_answered_as_by_twin(self, client, msg1):
        """A refused message draws nothing: after one, `client` answers the
        genuine `msg1` with the Message 2 of a twin, built alike from the
        same seed, that never saw the refused message."""
        _, _, twin = self.ready_client()
        reply, event = client.on_message1(msg1, AP_MAC)
        assert event == "agreed"
        assert (reply, event) == twin.on_message1(msg1, AP_MAC)

    def test_bad_signature_rejected(self):
        ap_id, ap, client = self.ready_client()
        msg1 = ap.build_message1()
        tampered = SoapMessage(
            msg1.ecdh_public,
            bytes(len(msg1.signature)),
            msg1.session_nonce,
        )
        reply, event = client.on_message1(tampered, ap_id.mac)
        assert reply is None
        assert event == "signature"
        assert client.phase is Phase.AWAIT_MSG1  # still waiting for a good one
        self.assert_answered_as_by_twin(client, msg1)

    def test_wrong_source_rejected(self):
        ap_id, ap, client = self.ready_client()
        msg1 = ap.build_message1()
        reply, event = client.on_message1(msg1, ROGUE_MAC)
        assert reply is None
        assert event == "phase"

    def test_missing_nonce_rejected(self):
        ap_id, ap, client = self.ready_client()
        msg1 = ap.build_message1()
        stripped = SoapMessage(msg1.ecdh_public, msg1.signature, None)
        _, event = client.on_message1(stripped, ap_id.mac)
        assert event == "malformed"

    def test_replayed_nonce_rejected(self):
        ap_id, ap, client = self.ready_client()
        seen = client.seen_nonces
        msg1 = ap.build_message1()
        client.on_message1(msg1, ap_id.mac)

        # fresh client session in the same station keeps the nonce cache
        rng = SeededRng(b"second-session")
        second = ClientSession(client.identity, rng, seen_nonces=seen)
        adv = advertisement_ie(ap_id.ecdsa, (26,))
        second.on_advertisement(adv, ap_id.mac)
        second.mark_associated()
        reply, event = second.on_message1(msg1, ap_id.mac)
        assert reply is None
        assert event == "replay"

    def test_duplicate_after_agreement_discarded(self):
        ap_id, ap, client = self.ready_client()
        msg1 = ap.build_message1()
        client.on_message1(msg1, ap_id.mac)
        reply, event = client.on_message1(msg1, ap_id.mac)
        assert reply is None
        assert event == "duplicate"

    def test_off_curve_public_rejected(self):
        ap_id, ap, client = self.ready_client()
        msg1 = ap.build_message1()
        forged = off_curve(msg1, ap_id.ecdsa, TAG_MESSAGE1, AP_MAC, CLIENT_MAC)
        reply, event = client.on_message1(forged, ap_id.mac)
        assert reply is None
        assert event == "point"
        self.assert_answered_as_by_twin(client, msg1)


class TestMessage2Handling:
    """AP-side checks on the client's reply."""

    def agreed_pair(self, **kw):
        ap_id, cl_id, ap, client = make_pair(**kw)
        adv = advertisement_ie(ap_id.ecdsa, (26,))
        response, _ = client.on_advertisement(adv, ap_id.mac)
        client.mark_associated()
        ap.on_response_element(response)
        msg1 = ap.build_message1()
        msg2, _ = client.on_message1(msg1, ap_id.mac)
        return ap_id, ap, client, msg1, msg2

    def test_wrong_nonce_echo_rejected(self):
        ap_id, ap, client, msg1, msg2 = self.agreed_pair()
        wrong = SoapMessage(msg2.ecdh_public, msg2.signature, bytes(8))
        assert ap.on_message2(wrong, CLIENT_MAC) == "replay"
        assert ap.phase is Phase.AWAIT_MSG2

    def test_bad_signature_rejected(self):
        ap_id, ap, client, msg1, msg2 = self.agreed_pair()
        forged = SoapMessage(msg2.ecdh_public, bytes(len(msg2.signature)), msg2.session_nonce)
        assert ap.on_message2(forged, CLIENT_MAC) == "signature"
        assert ap.on_message2(msg2, CLIENT_MAC) == "agreed"
        assert ap.psk == client.psk

    def test_off_curve_public_rejected(self):
        ap_id, ap, client, msg1, msg2 = self.agreed_pair()
        forged = off_curve(msg2, client.identity.ecdsa, TAG_MESSAGE2, CLIENT_MAC, AP_MAC)
        assert ap.on_message2(forged, CLIENT_MAC) == "point"
        assert ap.phase is Phase.AWAIT_MSG2
        assert ap.on_message2(msg2, CLIENT_MAC) == "agreed"
        assert ap.psk == client.psk

    def test_wrong_source_rejected(self):
        ap_id, ap, client, msg1, msg2 = self.agreed_pair()
        assert ap.on_message2(msg2, ROGUE_MAC) == "phase"

    def test_duplicate_after_agreement(self):
        ap_id, ap, client, msg1, msg2 = self.agreed_pair()
        assert ap.on_message2(msg2, CLIENT_MAC) == "agreed"
        assert ap.on_message2(msg2, CLIENT_MAC) == "duplicate"

    def test_group_not_offered_aborts(self):
        # client claims a group the AP never advertised
        ap_id, cl_id, ap, client = make_pair(
            ap_groups=(26,), client_groups=(26, 19)
        )
        rogue_response = advertisement_ie(cl_id.ecdsa, (19,))
        assert ap.on_response_element(rogue_response) == "ok"
        assert ap.build_message1() is None
        assert ap.phase is Phase.ABORTED
        assert ap.abort_reason == "group-not-offered"

    def test_response_element_of_two_groups_malformed(self):
        ap_id, cl_id, ap, client = make_pair(client_groups=(26, 19))
        two_groups = advertisement_ie(cl_id.ecdsa, (26, 19))
        assert ap.on_response_element(two_groups) == "malformed"
        assert ap.peer_signer is None


class TestMitmSubstitution:
    """A rewritten Message 1 cannot steer the client onto an attacker key."""

    def test_substituted_ephemeral_fails_signature(self):
        ap_id, cl_id, ap, client = make_pair()
        adv = advertisement_ie(ap_id.ecdsa, (26,))
        response, _ = client.on_advertisement(adv, ap_id.mac)
        client.mark_associated()
        ap.on_response_element(response)
        msg1 = ap.build_message1()

        # attacker swaps in an ephemeral key it controls, reusing the nonce
        from soapsim.crypto import ecdh_generate, point_to_octets

        group = registry_lookup(26)
        attacker = ecdh_generate(group, SeededRng(b"attacker"))
        substituted = SoapMessage(
            point_to_octets(group, attacker.public_point),
            msg1.signature,
            msg1.session_nonce,
        )
        reply, event = client.on_message1(substituted, ap_id.mac)
        assert reply is None
        assert event == "signature"
        assert client.psk is None

    def test_attacker_signed_substitution_fails_without_identity_key(self):
        ap_id, cl_id, ap, client = make_pair()
        adv = advertisement_ie(ap_id.ecdsa, (26,))
        response, _ = client.on_advertisement(adv, ap_id.mac)
        client.mark_associated()
        ap.on_response_element(response)
        msg1 = ap.build_message1()

        # attacker signs its own key under its own identity
        rogue = make_identity(AP_MAC, Role.AP, (26,), SeededRng(b"rogue-id"))
        rogue_ap = ApSession(rogue, SeededRng(b"rogue-rng"), CLIENT_MAC)
        rogue_ap.on_response_element(response)
        rogue_msg = rogue_ap.build_message1()
        reply, event = client.on_message1(rogue_msg, ap_id.mac)
        assert reply is None
        assert event == "signature"


class TestSignedPayload:
    """The transcript binding covered by each signature."""

    def test_payload_layout(self):
        payload = signed_payload(b"\x01", AP_MAC, CLIENT_MAC, 26, b"\x07" * 8, b"\xaa" * 4)
        assert payload == b"\x01" + AP_MAC + CLIENT_MAC + b"\x1a" + b"\x07" * 8 + b"\xaa" * 4

    def test_strict_payload_is_the_key_alone(self):
        assert signed_payload(b"\x01", AP_MAC, CLIENT_MAC, 26, None, b"\xaa" * 4) == b"\xaa" * 4

    @given(tag=st.sampled_from([b"\x01", b"\x02"]), gid=st.sampled_from([19, 20, 21, 26]))
    def test_payload_injective_in_tag_and_group(self, tag, gid):
        base = signed_payload(b"\x01", AP_MAC, CLIENT_MAC, 26, bytes(8), b"\xbb" * 8)
        other = signed_payload(tag, AP_MAC, CLIENT_MAC, gid, bytes(8), b"\xbb" * 8)
        assert (base == other) == (tag == b"\x01" and gid == 26)


class TestRunExchange:
    """The in-memory driver, from the advertisement through the 4-Way Handshake."""

    def test_failed_step_names_step_and_event(self):
        rng = SeededRng(0, b"exchange-test")
        ap_id = make_identity(AP_MAC, Role.AP, (19,), rng.child(b"ap-id"))
        cl_id = make_identity(CLIENT_MAC, Role.CLIENT, (26,), rng.child(b"cl-id"))
        with pytest.raises(ValueError, match="advertisement failed: fallback"):
            run_exchange(ap_id, cl_id, rng.child(b"run"))
