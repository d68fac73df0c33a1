"""PTK derivation and the four-message key-confirmation exchange.

The frozen hex constants below come from a straight-line reference
implementation kept in scripts/ptk_oracle.py; rerun it to regenerate them.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from soapsim import fourway
from soapsim.crypto import SeededRng
from soapsim.frames import EapolKeyFrame
from soapsim.fourway import (
    KEY_DATA_M3,
    KEY_INFO_M1,
    KEY_INFO_M2,
    KEY_INFO_M3,
    KEY_INFO_M4,
    Authenticator,
    FourwayState,
    Supplicant,
    compute_mic,
    derive_ptk,
    prf384,
    run_fourway,
)

AP_MAC = bytes.fromhex("020000000001")
CLIENT_MAC = bytes.fromhex("020000000002")

ORACLE_PMK = bytes.fromhex(
    "0dc0d6eb90555ed6419756b9a15ec3e3207b536bc0a4dc917f0f18de136ee24d"
)
ORACLE_ANONCE = bytes(range(32))
ORACLE_SNONCE = bytes(range(32, 64))
ORACLE_KCK = "eb94daee2ecf652ce99eb825a8ca35bf"
ORACLE_KEK = "2589c81eee3c990cee6cc990d5221e60"
ORACLE_TK = "be545c465d9805ee4ebdd49033b726df"
ORACLE_M2_MIC = "e809b9356d8b358d3454d041baa10bd4"


def make_pair(pmk=None, seed=b"fourway"):
    pmk = pmk if pmk is not None else ORACLE_PMK
    rng = SeededRng(seed)
    auth = Authenticator(pmk, AP_MAC, CLIENT_MAC, rng.child(b"auth"))
    supp = Supplicant(pmk, AP_MAC, CLIENT_MAC, rng.child(b"supp"))
    return auth, supp


class TestDerivePtk:
    """384-bit pairwise key expansion."""

    def test_frozen_reference_vector(self):
        keys = derive_ptk(ORACLE_PMK, AP_MAC, CLIENT_MAC, ORACLE_ANONCE, ORACLE_SNONCE)
        assert keys.kck.hex() == ORACLE_KCK
        assert keys.kek.hex() == ORACLE_KEK
        assert keys.tk.hex() == ORACLE_TK

    def test_key_widths(self):
        keys = derive_ptk(ORACLE_PMK, AP_MAC, CLIENT_MAC, ORACLE_ANONCE, ORACLE_SNONCE)
        assert (len(keys.kck), len(keys.kek), len(keys.tk)) == (16, 16, 16)

    def test_symmetric_in_macs_and_nonces(self):
        # min/max canonicalization makes both sides derive identical keys
        a = derive_ptk(ORACLE_PMK, AP_MAC, CLIENT_MAC, ORACLE_ANONCE, ORACLE_SNONCE)
        b = derive_ptk(ORACLE_PMK, CLIENT_MAC, AP_MAC, ORACLE_SNONCE, ORACLE_ANONCE)
        assert a == b

    @given(pmk=st.binary(min_size=32, max_size=32))
    def test_distinct_pmk_distinct_ptk(self, pmk):
        base = derive_ptk(ORACLE_PMK, AP_MAC, CLIENT_MAC, ORACLE_ANONCE, ORACLE_SNONCE)
        other = derive_ptk(pmk, AP_MAC, CLIENT_MAC, ORACLE_ANONCE, ORACLE_SNONCE)
        assert (base == other) == (pmk == ORACLE_PMK)

    def test_prf384_output_width(self):
        assert len(prf384(b"\x00" * 32, b"label", b"data")) == 48


class TestMicKat:
    """Frame integrity code over the serialized zero-MIC frame."""

    def test_frozen_m2_mic(self):
        keys = derive_ptk(ORACLE_PMK, AP_MAC, CLIENT_MAC, ORACLE_ANONCE, ORACLE_SNONCE)
        m2 = EapolKeyFrame(
            key_info=KEY_INFO_M2, replay_counter=1, key_nonce=ORACLE_SNONCE
        )
        assert compute_mic(keys.kck, m2).hex() == ORACLE_M2_MIC

    def test_mic_field_not_covered(self):
        keys = derive_ptk(ORACLE_PMK, AP_MAC, CLIENT_MAC, ORACLE_ANONCE, ORACLE_SNONCE)
        m2 = EapolKeyFrame(
            key_info=KEY_INFO_M2, replay_counter=1, key_nonce=ORACLE_SNONCE
        )
        from dataclasses import replace

        with_mic = replace(m2, key_mic=b"\xff" * 16)
        assert compute_mic(keys.kck, m2) == compute_mic(keys.kck, with_mic)

    def test_eapol_version_covered(self):
        # a Message 2 received as version 1 verifies under its own version only
        auth, supp = make_pair()
        m2 = supp.on_frame(auth.start())[0]
        v1 = replace(m2, version=1)
        assert compute_mic(supp.keys.kck, v1) != m2.key_mic
        assert auth.on_frame(v1) == (None, "mic-mismatch")


class TestHappyPath:
    """M1 through M4, both machines finishing established."""

    def test_both_established(self):
        auth, supp = make_pair()
        frames = run_fourway(auth, supp)
        assert [f.key_info for f in frames] == [
            KEY_INFO_M1, KEY_INFO_M2, KEY_INFO_M3, KEY_INFO_M4
        ]
        assert auth.state is FourwayState.ESTABLISHED
        assert supp.state is FourwayState.ESTABLISHED
        assert auth.keys == supp.keys

    def test_message_sequence(self):
        auth, supp = make_pair()
        m1 = auth.start()
        assert m1.key_info == KEY_INFO_M1 and m1.replay_counter == 1
        m2, event = supp.on_frame(m1)
        assert event == "m1-accepted" and m2.key_info == KEY_INFO_M2
        m3, event = auth.on_frame(m2)
        assert event == "m2-verified" and m3.key_info == KEY_INFO_M3
        assert m3.key_data == KEY_DATA_M3 and len(m3.key_data) == 64
        m4, event = supp.on_frame(m3)
        assert event == "established" and m4.key_info == KEY_INFO_M4
        _, event = auth.on_frame(m4)
        assert event == "established"

    def test_counters_monotonic(self):
        auth, supp = make_pair()
        m1 = auth.start()
        m2, _ = supp.on_frame(m1)
        m3, _ = auth.on_frame(m2)
        assert m3.replay_counter == m1.replay_counter + 1
        m4, _ = supp.on_frame(m3)
        assert m4.replay_counter == m3.replay_counter

    def test_distinct_seeds_distinct_ptks(self):
        results = set()
        for i in range(5):
            auth, supp = make_pair(seed=b"seed-%d" % i)
            run_fourway(auth, supp)
            results.add(auth.keys.tk)
        assert len(results) == 5


class TestPmkMismatch:
    """A wrong pairwise master key can never finish the exchange."""

    def test_authenticator_fails_on_m2(self):
        auth, _ = make_pair()
        _, supp = make_pair(pmk=bytes(32))
        assert len(run_fourway(auth, supp)) == 2
        assert auth.state is FourwayState.FAILED
        assert auth.fail_reason == "mic-mismatch"
        assert supp.state is not FourwayState.ESTABLISHED

    @settings(max_examples=25)
    @given(flip=st.integers(min_value=0, max_value=255))
    def test_any_single_bit_pmk_flip_fails(self, flip):
        bad = bytearray(ORACLE_PMK)
        bad[flip // 8] ^= 1 << (flip % 8)
        auth, _ = make_pair(pmk=bytes(bad))
        _, supp = make_pair()
        run_fourway(auth, supp)
        assert auth.state is FourwayState.FAILED
        assert FourwayState.ESTABLISHED not in (auth.state, supp.state)

    def test_tampered_m4_fails_authenticator(self):
        auth, supp = make_pair()
        m2, _ = supp.on_frame(auth.start())
        m3, _ = auth.on_frame(m2)
        m4, _ = supp.on_frame(m3)
        reply, event = auth.on_frame(replace(m4, key_nonce=b"\x01" + m4.key_nonce[1:]))
        assert (reply, event) == (None, "mic-mismatch")
        assert auth.state is FourwayState.FAILED
        assert auth.fail_reason == "mic-mismatch"

    def test_tampered_m3_fails_supplicant(self):
        auth, supp = make_pair()
        m1 = auth.start()
        m2, _ = supp.on_frame(m1)
        m3, _ = auth.on_frame(m2)
        tampered = replace(m3, key_data=b"\x01" + bytes(63))
        reply, event = supp.on_frame(tampered)
        assert reply is None
        assert event == "mic-mismatch"
        assert supp.state is FourwayState.FAILED


class TestReplayHandling:
    """Replay counters gate every acceptance path."""

    def test_replayed_m1_discarded(self):
        auth, supp = make_pair()
        m1 = auth.start()
        supp.on_frame(m1)
        reply, event = supp.on_frame(m1)
        assert reply is None
        assert event == "replay"

    def test_stale_m2_discarded_by_authenticator(self):
        auth, supp = make_pair()
        m1 = auth.start()
        m2, _ = supp.on_frame(m1)
        retrans = auth.retransmit()  # bumps the expected echo
        assert retrans.replay_counter == m1.replay_counter + 1
        reply, event = auth.on_frame(m2)
        assert reply is None
        assert event == "replay"

    def test_m2_for_retransmitted_m1_accepted(self):
        auth, supp = make_pair()
        m1 = auth.start()
        supp.on_frame(m1)
        retrans = auth.retransmit()
        m2, event = supp.on_frame(retrans)
        assert event == "m1-accepted"
        reply, event = auth.on_frame(m2)
        assert event == "m2-verified"

    def test_snonce_stable_across_m1_retransmits(self):
        auth, supp = make_pair()
        m1 = auth.start()
        m2_first, _ = supp.on_frame(m1)
        m2_again, _ = supp.on_frame(auth.retransmit())
        assert m2_first.key_nonce == m2_again.key_nonce

    def test_replayed_m3_after_establishment_discarded(self):
        auth, supp = make_pair()
        m1 = auth.start()
        m2, _ = supp.on_frame(m1)
        m3, _ = auth.on_frame(m2)
        supp.on_frame(m3)
        reply, event = supp.on_frame(m3)
        assert reply is None
        assert event == "replay"

    def test_retransmit_only_while_waiting(self):
        auth, supp = make_pair()
        run_fourway(auth, supp)
        assert auth.retransmit() is None


class TestLostMessage4:
    """An Established supplicant answers a resent Message 3 with a fresh
    Message 4 under the keys it installed (IEEE 802.11-2016 12.7.6.4), so one
    lost Message 4 costs one resend, and no key is installed twice."""

    def established_after_lost_m4(self):
        auth, supp = make_pair()
        m2, _ = supp.on_frame(auth.start())
        m3, _ = auth.on_frame(m2)
        lost, event = supp.on_frame(m3)
        assert event == "established"
        return auth, supp, m3, lost

    def test_resent_m3_gets_a_fresh_m4_under_the_installed_keys(self, monkeypatch):
        auth, supp, _, lost = self.established_after_lost_m4()
        keys = supp.keys
        derived = []
        monkeypatch.setattr(
            fourway, "derive_ptk", lambda *args: derived.append(args) or derive_ptk(*args)
        )
        resent = auth.retransmit()
        m4, event = supp.on_frame(resent)
        assert event == "m4-resent"
        assert m4.key_info == KEY_INFO_M4
        assert m4.replay_counter == resent.replay_counter > lost.replay_counter
        assert m4.key_mic == compute_mic(keys.kck, m4)
        assert supp.keys is keys and not derived
        assert supp.state is FourwayState.ESTABLISHED
        assert auth.on_frame(m4) == (None, "established")

    def test_stale_m3_is_not_answered(self):
        auth, supp, m3, _ = self.established_after_lost_m4()
        resent = auth.retransmit()
        supp.on_frame(resent)
        for stale in (m3, resent):
            assert supp.on_frame(stale) == (None, "replay")
        assert supp.state is FourwayState.ESTABLISHED

    def test_forged_m3_leaves_the_supplicant_established(self):
        auth, supp, _, _ = self.established_after_lost_m4()
        keys = supp.keys
        forged = replace(auth.retransmit(), key_mic=bytes(16))
        assert supp.on_frame(forged) == (None, "unexpected")
        assert supp.state is FourwayState.ESTABLISHED
        assert supp.keys is keys


class TestStateSafety:
    """Out-of-order frames never advance or crash a machine."""

    def test_m3_before_m1_ignored(self):
        _, supp = make_pair()
        m3 = EapolKeyFrame(
            key_info=KEY_INFO_M3, replay_counter=1, key_nonce=bytes(32),
            key_mic=b"\x01" * 16, key_data=KEY_DATA_M3,
        )
        reply, event = supp.on_frame(m3)
        assert reply is None
        assert event == "unexpected"
        assert supp.state is FourwayState.IDLE

    def test_m2_in_idle_ignored(self):
        auth, _ = make_pair()
        auth.replay_counter = 0
        m2 = EapolKeyFrame(
            key_info=KEY_INFO_M2, replay_counter=0, key_nonce=bytes(32),
            key_mic=b"\x01" * 16,
        )
        reply, event = auth.on_frame(m2)
        assert reply is None
        assert event == "unexpected"

    def test_lossy_channel_with_retransmit_recovers(self):
        auth, supp = make_pair()
        dropped = {"count": 0}

        def channel(sender, frame):
            # drop the first copy of message 1 only
            if sender == "ap" and frame.key_info == KEY_INFO_M1 and dropped["count"] == 0:
                dropped["count"] += 1
                return []
            return [frame]

        m1 = auth.start()
        assert channel("ap", m1) == []
        retrans = auth.retransmit()
        m2, _ = supp.on_frame(retrans)
        m3, _ = auth.on_frame(m2)
        m4, _ = supp.on_frame(m3)
        auth.on_frame(m4)
        assert auth.state is FourwayState.ESTABLISHED
        assert supp.state is FourwayState.ESTABLISHED
