"""Radio simulation under a next-event clock: stations, adversaries, and
transcripts."""

import dataclasses
import itertools
import json
import re
from collections import Counter, OrderedDict
from dataclasses import replace
from enum import IntEnum
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soapsim import crypto, handshake, scenarios, simnet
from soapsim.fourway import KEY_INFO_M1, KEY_INFO_M3, KEY_INFO_M4
from soapsim.frames import (
    BROADCAST_MAC,
    EapolKeyFrame,
    FrameSubtype,
    MalformedFrameError,
    ManagementFrame,
    encode_data_frame,
    encode_management_frame,
    encode_soap_message,
    frame_kind,
    parse_data_frame,
    parse_eapol_key_frame,
    parse_management_frame,
    parse_soap_message,
    signed_octets,
    wire_dst_mac,
)
from soapsim.scenarios import (
    BUILTIN_NAMES,
    SUITE_PLAN,
    builtin,
    evaluate_expectations,
    load_script,
    script_to_dict,
)
from soapsim.simnet import (
    ADVERSARY_FIELD_READERS,
    REASONS,
    RECORD_KEYS,
    AdversaryConfig,
    ApStation,
    Mitigations,
    ScenarioScript,
    ScheduleAction,
    Simulation,
    StationConfig,
    Transcript,
    Transmission,
    eavesdropper_view,
    format_mac,
    parse_mac,
    run_scenario,
)

AP_MAC = "02:00:00:00:00:01"
CLIENT_MAC = "02:00:00:00:00:02"
LEGACY_PSK = "2b7e151628aed2a6abf7158809cf4f3c762e7160f38b4da56a784d9045190cfe"


def pair(**kw):
    ap = StationConfig("ap1", "ap", AP_MAC, ssid="publicnet", **kw.pop("ap_kw", {}))
    client = StationConfig(
        "client1", "client", CLIENT_MAC, ssid="publicnet", **kw.pop("client_kw", {})
    )
    assert not kw
    return [ap, client]


def script(name="t", max_ticks=600, **kw):
    stations = kw.pop("stations", None) or pair(
        ap_kw=kw.pop("ap_kw", {}), client_kw=kw.pop("client_kw", {})
    )
    return ScenarioScript(name=name, stations=stations, max_ticks=max_ticks, **kw)


def events(transcript, event, station=None):
    return [
        r
        for r in transcript.records
        if r["event"] == event and (station is None or r.get("station") == station)
    ]


def tx_frames(transcript, kind=None):
    return [
        r
        for r in transcript.records
        if r["event"] == "tx" and (kind is None or r["frame"] == kind)
    ]


class TestMacCodec:
    """Colon-hex MAC parsing."""

    def test_round_trip(self):
        assert format_mac(parse_mac(AP_MAC)) == AP_MAC

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_mac("02:00:00:00:00")
        with pytest.raises(ValueError):
            parse_mac("02:00:00:00:00:zz")


class TestDeterminism:
    """One seed, one byte stream."""

    def test_same_seed_identical_transcripts(self):
        a = run_scenario(script(), 42).to_json()
        b = run_scenario(script(), 42).to_json()
        assert a == b

    def test_different_seeds_different_secrets(self):
        a = run_scenario(script(), 1)
        b = run_scenario(script(), 2)
        assert a.secrets["ap1"]["psks"] != b.secrets["ap1"]["psks"]

    def test_identity_seed_fixes_station_keys(self):
        # identity keys live outside the per-run seed; run seeds vary only
        # the ephemeral draws
        a = run_scenario(script(), 1)
        b = run_scenario(script(), 2)
        beacon_a = next(r for r in tx_frames(a, "beacon"))
        beacon_b = next(r for r in tx_frames(b, "beacon"))
        assert beacon_a["hex"] == beacon_b["hex"]


class TestBenignAgreement:
    """The full advertisement-to-established flow with no adversary."""

    def run(self):
        return run_scenario(script(), 0)

    def test_both_sides_established(self):
        t = self.run()
        assert t.summaries["client1"]["state"] == "established"
        assert t.summaries["client1"]["mode"] == "soap"
        assert t.summaries["client1"]["peer"] == "ap1"
        assert t.summaries["ap1"]["sessions"]["client1"]["established"] is True

    def test_same_psk_and_kck(self):
        t = self.run()
        assert t.secrets["ap1"]["psks"] == t.secrets["client1"]["psks"]
        assert t.secrets["ap1"]["kcks"] == t.secrets["client1"]["kcks"]
        assert len(t.secrets["ap1"]["psks"]) == 1

    def test_frame_counts(self):
        t = self.run()
        assert len(tx_frames(t, "agreement")) == 2
        assert len(tx_frames(t, "eapol-key")) == 4
        assert len(tx_frames(t, "assoc-request")) == 1

    def test_agreement_wire_sizes(self):
        t = self.run()
        sizes = {r["size"] for r in tx_frames(t, "agreement")}
        assert sizes == {156}  # 148 strict, plus the 8-octet session nonce

    def test_strict_frames_drop_nonce(self):
        t = run_scenario(script(strict_frames=True), 0)
        sizes = {r["size"] for r in tx_frames(t, "agreement")}
        assert sizes == {148}
        assert t.summaries["client1"]["state"] == "established"

    def test_no_secret_octets_on_wire(self):
        view = eavesdropper_view(self.run())
        assert view["psk_octets_on_wire"] == 0
        assert view["kck_octets_on_wire"] == 0
        assert view["adversary_knows_legit_psk"] is False

    def test_transcript_json_parses(self):
        data = json.loads(self.run().to_json())
        assert data["scenario"] == "t"
        assert any(r["event"] == "tx" for r in data["records"])


class TestMultigroup:
    """Negotiation picks the strongest common curve."""

    def test_group_20_wins(self):
        t = run_scenario(
            script(
                ap_kw={"groups": (26, 19, 20, 21)}, client_kw={"groups": (19, 20)}
            ),
            0,
        )
        outcomes = events(t, "negotiation", "client1")
        assert outcomes and outcomes[-1]["outcome"] == "group-20"
        assert t.summaries["client1"]["state"] == "established"

    def test_heterogeneous_widths_on_wire(self):
        # AP signs on P-521 while the ECDH group is P-384
        t = run_scenario(
            script(
                ap_kw={"groups": (26, 19, 20, 21)}, client_kw={"groups": (19, 20)}
            ),
            0,
        )
        ap_msg, client_msg = tx_frames(t, "agreement")
        # AP message: 2*48 key + 2*66 signature + headers; client signs P-384
        assert ap_msg["size"] != client_msg["size"]
        assert t.secrets["ap1"]["psks"] == t.secrets["client1"]["psks"]


class TestLegacyModes:
    """Stations without the agreement extension still key up."""

    def test_unaware_client_runs_legacy(self):
        t = run_scenario(
            script(
                ap_kw={"legacy_psk": LEGACY_PSK},
                client_kw={"soap_aware": False, "legacy_psk": LEGACY_PSK},
            ),
            0,
        )
        assert t.summaries["client1"]["state"] == "established"
        assert t.summaries["client1"]["mode"] == "legacy"
        assert tx_frames(t, "agreement") == []

    def test_unaware_ap_forces_fallback(self):
        t = run_scenario(
            script(
                ap_kw={"soap_aware": False, "legacy_psk": LEGACY_PSK},
                client_kw={"legacy_psk": LEGACY_PSK},
            ),
            0,
        )
        assert t.summaries["client1"]["mode"] == "legacy"
        assert t.summaries["client1"]["state"] == "established"

    def test_disjoint_groups_fall_back(self):
        t = run_scenario(
            script(
                ap_kw={"groups": (26,), "legacy_psk": LEGACY_PSK},
                client_kw={"groups": (19,), "legacy_psk": LEGACY_PSK},
            ),
            0,
        )
        assert t.summaries["client1"]["fallback"] is True
        assert t.summaries["client1"]["state"] == "established"

    def test_force_legacy_flag(self):
        t = run_scenario(
            script(
                ap_kw={"legacy_psk": LEGACY_PSK},
                client_kw={"legacy_psk": LEGACY_PSK, "force_legacy": True},
            ),
            0,
        )
        assert t.summaries["client1"]["mode"] == "legacy"
        assert t.summaries["client1"]["fallback"] is True

    def test_psk_mismatch_fails_at_the_ap(self):
        # the AP finds M2's MIC wrong, fails the session and resends nothing;
        # the client times out waiting for M3 and latches again
        t = run_checked(
            script(
                max_ticks=1000,
                ap_kw={"soap_aware": False, "legacy_psk": "11" * 32},
                client_kw={"soap_aware": False, "legacy_psk": "22" * 32},
            ),
            seed=1,
        )
        failed = ticks_of(
            t, "transition", station="ap1", scope="session", to="failed", reason="mic-mismatch"
        )
        assert failed == [4, 504]
        assert ticks_of(t, "retransmit") == []
        assert ticks_of(t, "transition", station="client1", reason="timeout") == [452, 952]
        assert ticks_of(t, "transition", station="client1", to="fourway") == [1, 501]
        assert t.summaries["ap1"]["sessions"]["client1"]["fourway"] == "failed"

    def test_legacy_beacons_still_carry_element(self):
        # the aware AP advertises; the unaware client just skips element 251
        t = run_scenario(
            script(
                ap_kw={"legacy_psk": LEGACY_PSK},
                client_kw={"soap_aware": False, "legacy_psk": LEGACY_PSK},
            ),
            0,
        )
        beacon = tx_frames(t, "beacon")[0]
        assert "fb" in beacon["hex"]  # element id 251 present somewhere
        assert t.summaries["client1"]["state"] == "established"


class TestScheduledResets:
    """Each reconnection draws a brand-new pairwise secret."""

    def test_five_distinct_psks(self):
        resets = [ScheduleAction(t, "client1", "reset") for t in (400, 800, 1200, 1600)]
        t = run_scenario(script(max_ticks=2200, schedule=resets), 0)
        client_psks = t.secrets["client1"]["psks"]
        assert len(client_psks) == 5
        assert len(set(client_psks)) == 5
        assert t.secrets["ap1"]["psks"] == client_psks

    def test_disassoc_clears_ap_session(self):
        resets = [ScheduleAction(400, "client1", "reset")]
        t = run_scenario(script(max_ticks=1000, schedule=resets), 0)
        assert len(tx_frames(t, "disassoc")) == 1
        assert t.summaries["ap1"]["sessions"]["client1"]["established"] is True


def adversary_script(capabilities, max_ticks=900, mitigations=None, stations=None, **adv_kw):
    adv = AdversaryConfig(capabilities=tuple(capabilities), **adv_kw)
    return ScenarioScript(
        name="adv-test",
        stations=stations or pair(),
        adversary=adv,
        mitigations=mitigations or Mitigations(),
        max_ticks=max_ticks,
    )


class TestEavesdropAndReplay:
    """Passive capture yields nothing; replayed bursts change nothing."""

    def test_eavesdrop_learns_no_psk(self):
        t = run_scenario(adversary_script(["eavesdrop"]), 0)
        view = eavesdropper_view(t)
        assert t.summaries["client1"]["state"] == "established"
        assert view["adversary_knows_legit_psk"] is False
        assert view["psk_octets_on_wire"] == 0

    def test_replay_burst_all_discarded(self):
        t = run_scenario(
            adversary_script(["replay"], replay_at=1000, max_ticks=1400), 0
        )
        assert t.summaries["client1"]["state"] == "established"
        assert len(t.secrets["client1"]["psks"]) == 1
        replayed = events(t, "replay-burst")
        assert replayed
        late_transitions = [
            r for r in events(t, "transition") if r["tick"] > 1000
        ]
        assert late_transitions == []
        late_discards = [r for r in events(t, "discard") if r["tick"] > 1000]
        assert len(late_discards) >= 3

    def test_replay_burst_into_a_fresh_fourway(self):
        # client1 rescans at 300 and is in its second 4-Way when the burst
        # lands: the replayed session-1 Message 3 reaches its Supplicant in
        # sent-m2, which fails and rescans, and ap1 discards stale EAPOL-Key
        # frames for a peer it no longer runs a 4-Way with
        benign = replace(
            builtin("benign"), max_ticks=1500,
            schedule=[ScheduleAction(300, "client1")],
            adversary=AdversaryConfig(capabilities=("replay",), replay_at=305),
        )
        t = run_checked(benign, 1)
        assert ticks_of(t, "replay-burst") == [305]
        client = [
            (r["tick"], r["scope"], r["to"], r.get("reason"))
            for r in events(t, "transition", "client1") if r["tick"] == 306
        ]
        assert client[:2] == [
            (306, "fourway", "failed", "mic-mismatch"),
            (306, "station", "scanning", "fourway-failed"),
        ]
        assert ticks_of(t, "discard", station="ap1", reason="phase") == [306, 306]
        assert ticks_of(t, "transition", station="client1", to="established") == [7, 807]
        assert ticks_of(t, "transition", station="ap1", to="established") == [8, 808]
        for end in ("client1", "ap1"):
            assert len(t.secrets[end]["kcks"]) == 2
        assert t.secrets["client1"]["kcks"][-1] == t.secrets["ap1"]["kcks"][-1]

    def test_delete_intercept_is_dos_only(self):
        t = run_scenario(
            adversary_script(["delete-intercept"], max_ticks=1200), 0
        )
        assert t.summaries["client1"]["state"] != "established"
        assert t.summaries["ap1"]["sessions"] == {} or not any(
            s["established"] for s in t.summaries["ap1"]["sessions"].values()
        )
        assert events(t, "deleted")
        assert eavesdropper_view(t)["adversary_knows_legit_psk"] is False


class TestInjection:
    """A rogue advertising a key it cannot sign under."""

    def rogue_kw(self):
        return dict(
            ssid="publicnet",
            beacon_period=25,
            advertise_bogus_key=True,
        )

    def test_unmitigated_denies_service(self):
        stations = pair(ap_kw={"beacon_offset": 50})
        t = run_scenario(
            adversary_script(
                ["inject"], stations=stations, max_ticks=3000, **self.rogue_kw()
            ),
            0,
        )
        assert t.summaries["client1"]["state"] != "established"
        assert t.secrets["client1"]["psks"] == []
        sig_discards = [
            r for r in events(t, "discard", "client1") if r.get("reason") == "signature"
        ]
        assert len(sig_discards) >= 3

    def test_blacklist_restores_service(self):
        stations = pair(ap_kw={"beacon_offset": 50})
        t = run_scenario(
            adversary_script(
                ["inject"],
                stations=stations,
                max_ticks=3000,
                mitigations=Mitigations(blacklist_threshold=3),
                **self.rogue_kw(),
            ),
            0,
        )
        assert t.summaries["client1"]["state"] == "established"
        assert t.summaries["client1"]["peer"] == "ap1"
        assert "adversary" in t.summaries["client1"]["blocked"]
        assert events(t, "blacklisted", "client1")
        blocked_after = [r for r in events(t, "blocked", "client1")]
        assert blocked_after  # the rogue kept talking and was ignored


class TestMasquerade:
    """A rogue with a self-consistent key set."""

    def test_unmitigated_client_keys_with_rogue(self):
        stations = pair(ap_kw={"beacon_offset": 50})
        t = run_scenario(
            adversary_script(
                ["masquerade"],
                stations=stations,
                ssid="publicnet",
                beacon_period=25,
            ),
            0,
        )
        assert t.summaries["client1"]["state"] == "established"
        assert t.summaries["client1"]["peer"] == "adversary"
        assert eavesdropper_view(t)["adversary_knows_legit_psk"] is True
        assert t.summaries["ap1"]["sessions"] == {} or not any(
            s["established"] for s in t.summaries["ap1"]["sessions"].values()
        )

    def test_pinned_key_defeats_rogue(self):
        stations = pair(ap_kw={"beacon_offset": 50})
        stations[1].pin_ap = "ap1"
        t = run_scenario(
            adversary_script(
                ["masquerade"],
                stations=stations,
                ssid="publicnet",
                beacon_period=25,
            ),
            0,
        )
        assert t.summaries["client1"]["state"] == "established"
        assert t.summaries["client1"]["peer"] == "ap1"
        mismatches = [
            r
            for r in events(t, "discard", "client1")
            if r.get("reason") == "pinned-mismatch"
        ]
        assert mismatches
        assert eavesdropper_view(t)["adversary_knows_legit_psk"] is False


# A value for each optional adversary field that differs from its default.
UNREAD_VALUES = {
    "replay_at": 5,
    "disassoc_at": 5,
    "target_ap": "ap1",
    "target_client": "client1",
    "ssid": "elsewhere",
    "groups": (19, 20),
    "beacon_period": 7,
    "beacon_offset": 3,
    "advertise_bogus_key": True,
}
ADVERSARY_BUILTINS = [name for name in BUILTIN_NAMES if builtin(name).adversary is not None]


class TestAdversaryFields:
    """The field-reader table is what the simulator reads: setting a field
    that none of the listed capabilities reads changes no transcript, and the
    rogue AP takes its fields as given."""

    @pytest.mark.parametrize("name", ADVERSARY_BUILTINS)
    def test_unread_fields_leave_the_transcript_unchanged(self, name):
        # built directly, as the loader rejects these fields
        script = builtin(name)
        caps = set(script.adversary.capabilities)
        unread = {k: v for k, v in UNREAD_VALUES.items() if not caps & ADVERSARY_FIELD_READERS[k]}
        assert set(UNREAD_VALUES) == set(ADVERSARY_FIELD_READERS) and unread
        noisy = replace(script, adversary=replace(script.adversary, **unread))
        assert run_scenario(noisy, 1).to_json() == run_scenario(script, 1).to_json()

    def test_empty_ssid_masquerade_keys_with_the_rogue(self):
        data = script_to_dict(builtin("masquerade-unmitigated"))
        for record in (*data["stations"], data["adversary"]):
            record["ssid"] = ""
        script = load_script(json.dumps(data))
        t = run_scenario(script, 1)
        assert t.summaries["client1"]["peer"] == "adversary"
        assert all(result.ok for result in evaluate_expectations(script, t))


class TestHijack:
    """Forged teardown and in-flight message substitution."""

    def test_forged_disassoc_halts_client(self):
        t = run_scenario(
            adversary_script(["disassoc-inject"], disassoc_at=600, max_ticks=900), 0
        )
        assert t.summaries["client1"]["state"] == "halted"

    def test_forged_disassoc_reaches_the_named_client(self):
        second = StationConfig("client2", "client", "02:00:00:00:00:03", ssid="publicnet")
        t = run_checked(adversary_script(
            ["disassoc-inject"], stations=pair() + [second], target_client="client2",
            disassoc_at=600, max_ticks=900,
        ))
        forged = [r for r in tx_frames(t, "disassoc") if r["origin"] == "adversary"]
        assert [(r["src"], r["dst"]) for r in forged] == [(AP_MAC, second.mac)]
        assert t.summaries["client2"]["state"] == "halted"
        assert t.summaries["client1"]["state"] == "established"

    def test_signed_management_frames_block_forgery(self):
        t = run_scenario(
            adversary_script(
                ["disassoc-inject"],
                disassoc_at=600,
                max_ticks=900,
                mitigations=Mitigations(sign_management_frames=True),
            ),
            0,
        )
        assert t.summaries["client1"]["state"] == "established"
        mgmt_discards = [
            r for r in events(t, "discard", "client1") if r.get("context") == "mgmt"
        ]
        assert mgmt_discards

    def test_mitm_substitution_never_completes(self):
        t = run_scenario(
            adversary_script(["mitm-substitute"], max_ticks=1500), 0
        )
        assert t.summaries["client1"]["state"] != "established"
        assert t.secrets["client1"]["psks"] == []
        assert t.secrets["ap1"]["psks"] == []
        assert events(t, "mitm-substituted")
        assert eavesdropper_view(t)["adversary_knows_legit_psk"] is False

    def test_mitm_substitution_under_strict_frames(self):
        # Strict Message 1 carries no nonce, so the adversary signs its key alone.
        script = replace(
            adversary_script(["mitm-substitute"], max_ticks=1500), strict_frames=True
        )
        t = run_checked(script, 0)
        assert not [r for r in events(t, "transition", "client1") if r["to"] == "established"]
        assert events(t, "mitm-substituted")
        discards = events(t, "discard", "client1")
        assert discards and {(r["reason"], r["context"]) for r in discards} == {
            ("signature", "agreement-msg1")
        }
        substitutes = [r for r in tx_frames(t, "agreement") if r["origin"] == "adversary"]
        assert substitutes and {r["size"] for r in substitutes} == {148}
        assert t.secrets["client1"]["psks"] == []
        assert t.secrets["ap1"]["psks"] == []

    def test_mitm_against_an_ap_on_a_wider_curve(self):
        # ap1 signs on P-256 and the flow runs on P-224; the adversary signs
        # its substitute on the curve of the key client1 latched from ap1's
        # beacon, so the substitute parses and fails its signature check
        mitm = builtin("hijack-mitm")
        mitm = replace(mitm, stations=[
            replace(cfg, groups=(26, 19)) if cfg.station_id == "ap1" else cfg
            for cfg in mitm.stations
        ])
        t = run_checked(mitm, 1)
        substitutes = [r for r in tx_frames(t, "agreement") if r["origin"] == "adversary"]
        # a P-224 ephemeral key and a P-256 signature: 16 octets over hijack-mitm's
        assert substitutes and {r["size"] for r in substitutes} == {164}
        discards = events(t, "discard", "client1")
        assert {(r["reason"], r["context"], r["src"]) for r in discards} == {
            ("signature", "agreement-msg1", "02:00:00:00:00:01")
        }
        assert [r["tick"] for r in discards] == ticks_of(t, "mitm-substituted")
        assert [r["tick"] for r in discards][:4] == [3, 103, 203, 303]
        assert ticks_of(t, "transition", station="client1", to="established") == []
        assert t.secrets["client1"]["psks"] == []
        assert eavesdropper_view(t)["adversary_knows_legit_psk"] is False


class TestLeakDetector:
    """The wire scan actually fires when a secret is broadcast."""

    def test_debug_leak_is_detected(self):
        t = run_scenario(script(ap_kw={"debug_leak_psk": True}, max_ticks=700), 0)
        assert t.summaries["client1"]["state"] == "established"
        view = eavesdropper_view(t)
        # the leaking beacon is one transmission sent six times, and every
        # time it went on air counts
        psk = bytes.fromhex(t.secrets["ap1"]["psks"][0])
        leaking = [r for r in tx_frames(t) if psk in bytes.fromhex(r["hex"])]
        assert len(leaking) == 6
        assert {r["hex"] for r in leaking} == {leaking[0]["hex"]}
        assert view["psk_octets_on_wire"] == len(leaking)
        assert view["frames_observed"] == len(tx_frames(t))
        assert view["adversary_knows_legit_psk"] is True


class DroppingSimulation(Simulation):
    """Loses the chosen non-beacon transmissions, numbered from 0 in the order
    they are first handed out, as a lossy link would."""

    def __init__(self, script, seed, drops):
        super().__init__(script, seed)
        self.drops = drops
        self.sent = 0

    def _deliver(self, tick, t, in_flight):
        if t.kind != "beacon":
            self.sent += 1
            if self.sent - 1 in self.drops:
                return
        super()._deliver(tick, t, in_flight)


class DeafClientSimulation(Simulation):
    """Loses every frame addressed to client1; broadcast beacons still reach
    it."""

    def _deliver(self, tick, t, in_flight):
        if wire_dst_mac(t.wire) != parse_mac(CLIENT_MAC):
            super()._deliver(tick, t, in_flight)


class MuteSupplicantSimulation(Simulation):
    """Loses every EAPOL-Key frame that client1 sends."""

    def _deliver(self, tick, t, in_flight):
        if (t.kind, t.origin) != ("eapol-key", "client1"):
            super()._deliver(tick, t, in_flight)


class CorruptingSimulation(Simulation):
    """XORs `mask` into octet `offset` of the first transmission of `target`,
    a (kind, origin), as it goes on air, as a corrupting link would; so the
    adversary meets the corrupt frame too, and the rest go out intact. It
    notes the size of the first transmission of each (kind, origin), and,
    each time the corrupt frame does not parse, the stations it is handed to
    and the discards they record."""

    def __init__(self, script, seed, target=None, offset=0, mask=0xFF):
        super().__init__(script, seed)
        self.target, self.offset, self.mask = target, offset, mask
        self.sizes = {}
        self.corrupt = None
        self.handed = []

    def _transmit(self, tick, t, in_flight):
        key = (t.kind, t.origin)
        if key not in self.sizes:
            self.sizes[key] = len(t.wire)
            if key == self.target:
                wire = bytearray(t.wire)
                wire[self.offset] ^= self.mask
                t = self.corrupt = Transmission(t.origin, bytes(wire))
        super()._transmit(tick, t, in_flight)

    def _deliver(self, tick, t, in_flight):
        if t is not self.corrupt or not isinstance(t.frame, MalformedFrameError):
            return super()._deliver(tick, t, in_flight)
        stations = [
            s.cfg.station_id for s in self._addressees(t)
            if s.mac != t.src_mac and t.src_mac not in s.blocked
        ]
        records = len(self.transcript.records)
        super()._deliver(tick, t, in_flight)
        discards = [
            (r["station"], r["reason"])
            for r in self.transcript.records[records:] if r["event"] == "discard"
        ]
        self.handed.append((stations, discards))


class TestCorruptFrames:
    """No octet crashes a run. Each octet in turn, of the first transmission
    of each non-beacon (kind, origin), is XORed with 0xFF as it goes on air:
    each station handed a corrupt frame that does not parse discards it as
    malformed, and no PSK or KCK octet goes on air."""

    # every octet of benign's frames; every fifth of a MITM's and of a run
    # under signed management frames
    @pytest.mark.parametrize(
        "name, stride", [("benign", 1), ("hijack-mitm", 5), ("hijack-disassoc-mitigated", 5)]
    )
    def test_no_octet_crashes_a_run(self, name, stride):
        plain = CorruptingSimulation(builtin(name), 1)
        plain.run()
        unparsed = 0
        for target, size in plain.sizes.items():
            if target[0] == "beacon":
                continue
            for offset in range(0, size, stride):
                sim = CorruptingSimulation(builtin(name), 1, target, offset)
                view = eavesdropper_view(sim.run())
                assert view["psk_octets_on_wire"] == view["kck_octets_on_wire"] == 0
                for stations, discards in sim.handed:
                    assert discards == [(s, "malformed") for s in stations], (target, offset)
                    unparsed += bool(stations)
        assert unparsed


class TestMalformedElement:
    """A SOAP element that does not parse makes its whole frame malformed:
    each receiver discards it, and the run goes on."""

    def test_bad_group_count_in_a_beacon_is_a_malformed_discard(self):
        # octet 49 is the element's group count, 1: 240 groups run past it
        t = CorruptingSimulation(builtin("benign"), 1, ("beacon", "ap1"), 49, 1 ^ 240).run()
        assert [(r["tick"], r["reason"], r["detail"]) for r in events(t, "discard")] == [
            (1, "malformed", "group list runs past the element")
        ]
        # the next beacon is intact, and the pair keys from it
        assert ticks_of(t, "negotiation", station="client1") == [101]
        assert ticks_of(t, "transition", station="client1", to="established") == [107]
        assert ticks_of(t, "transition", station="ap1", to="established") == [108]


class TestCoveredOctets:
    """A management frame's signature covers the frame as sent, and an
    EAPOL-Key MIC covers the EAPOL version: either altered in flight fails
    its check."""

    # the BSSID, the sequence control, the beacon interval and the capability,
    # none of which the parse of a beacon keeps
    @pytest.mark.parametrize("offset", [16, 22, 32, 34])
    def test_altered_signed_beacon_is_a_signature_discard(self, offset):
        beacon = ("beacon", "ap1")
        sim = CorruptingSimulation(builtin("hijack-disassoc-mitigated"), 1, beacon, offset, 1)
        t = sim.run()
        assert parse_management_frame(sim.corrupt.wire).signature is not None
        assert [(r["tick"], r["reason"], r["context"]) for r in events(t, "discard")][:1] == [
            (1, "signature", "mgmt")
        ]
        # client1 latches the next beacon, which is intact
        assert ticks_of(t, "negotiation", station="client1") == [101]
        assert ticks_of(t, "transition", station="client1", to="established") == [107]

    def test_altered_eapol_version_fails_the_mic(self):
        # octet 32 is the EAPOL version of client1's 4-Way Message 2: 2 becomes 1
        sim = CorruptingSimulation(builtin("benign"), 1, ("eapol-key", "client1"), 32, 3)
        t = sim.run()
        assert sim.corrupt.wire[32] == 1
        parse_eapol_key_frame(parse_data_frame(sim.corrupt.wire).payload)  # it parses
        assert ticks_of(t, "transition", station="ap1", scope="session") == [2, 6, 502, 508]
        assert ticks_of(t, "transition", station="ap1", reason="mic-mismatch") == [6]
        assert ticks_of(t, "transition", station="ap1", to="established") == [508]


class TestEapolKeyReceive:
    """The one EAPOL-Key receive step, as each role takes it: the records,
    the reply and the KCK of every outcome. In benign under seed 1, ap1 sends
    4-Way Messages 1 and 3 at ticks 4 and 6, and client1 Messages 2 and 4 at
    5 and 7; a run stopped at a tick leaves that tick's frames undelivered."""

    @staticmethod
    def stopped(max_ticks):
        """benign stopped at `max_ticks`: the simulation, its transcript and
        the last EAPOL-Key frame sent, as a Transmission and as parsed."""
        sim = Simulation(replace(builtin("benign"), max_ticks=max_ticks), 1)
        t = sim.run()
        last = tx_frames(t, "eapol-key")[-1]
        sent = Transmission(last["origin"], bytes.fromhex(last["hex"]))
        return sim, t, sent, parse_eapol_key_frame(parse_data_frame(sent.wire).payload)

    @staticmethod
    def received(station, tick, t, frame):
        """Hand `frame` to `station`: its replies, as parsed key frames, and
        the records it wrote, without their station."""
        count = len(t.records)
        replies = station.on_frame(tick, frame)
        keys = [parse_eapol_key_frame(parse_data_frame(r.wire).payload) for r in replies]
        return keys, [{k: v for k, v in r.items() if k != "station"} for r in t.records[count:]]

    def test_client_established_records_the_kck(self):
        sim, t, m3, _ = self.stopped(7)
        client = sim.by_id["client1"]
        replies, records = self.received(client, 7, t, m3)
        assert [r.key_info for r in replies] == [KEY_INFO_M4]
        assert records == [
            {"tick": 7, "event": "transition", "scope": "station", "to": "established"}
        ]
        assert client.kck_history == [client.supplicant.keys.kck]

    def test_client_answers_a_resent_message3_once_established(self):
        sim, t, m3, _ = self.stopped(7)
        client, ap = sim.by_id["client1"], sim.by_id["ap1"]
        client.on_frame(7, m3)
        resent = ap._out_key(client.mac, ap.peers[client.mac].auth.retransmit())
        replies, records = self.received(client, 8, t, resent)
        assert [(r.key_info, r.replay_counter) for r in replies] == [(KEY_INFO_M4, 3)]
        assert records == []
        assert len(client.kck_history) == 1

    def test_client_discards_a_replayed_and_an_unexpected_frame(self):
        sim, t, m3, _ = self.stopped(7)
        client, ap = sim.by_id["client1"], sim.by_id["ap1"]
        client.on_frame(7, m3)
        # the same Message 3 again, then a Message 1 under a fresh counter
        fresh = EapolKeyFrame(key_info=KEY_INFO_M1, replay_counter=9, key_nonce=bytes(32))
        for frame, reason in ((m3, "replay"), (ap._out_key(client.mac, fresh), "unexpected")):
            replies, records = self.received(client, 8, t, frame)
            assert replies == []
            assert records == [{"tick": 8, "event": "discard", "reason": reason}]
        assert len(client.kck_history) == 1
        assert client.state == "established"

    def test_client_mic_failure_restarts_the_scan(self):
        sim, t, _, m3 = self.stopped(7)
        client, ap = sim.by_id["client1"], sim.by_id["ap1"]
        forged = ap._out_key(client.mac, replace(m3, key_mic=bytes(16)))
        replies, records = self.received(client, 7, t, forged)
        assert replies == []
        assert records == [
            {"tick": 7, "event": "transition", "scope": "fourway", "to": "failed",
             "reason": "mic-mismatch"},
            {"tick": 7, "event": "transition", "scope": "station", "to": "scanning",
             "reason": "fourway-failed"},
        ]
        assert client.kck_history == []
        assert client.supplicant is None

    def test_ap_message2_rearms_the_peer(self):
        sim, t, m2, _ = self.stopped(6)
        ap = sim.by_id["ap1"]
        peer = ap.peers[parse_mac(CLIENT_MAC)]
        replies, records = self.received(ap, 6, t, m2)
        assert [r.key_info for r in replies] == [KEY_INFO_M3]
        assert records == []
        assert (peer.attempts, peer.deadline) == (0, 6 + simnet.RETRY_TIMEOUT_TICKS)

    def test_ap_established_records_the_kck(self):
        sim, t, m4, _ = self.stopped(8)
        ap = sim.by_id["ap1"]
        peer = ap.peers[parse_mac(CLIENT_MAC)]
        assert not peer.established
        replies, records = self.received(ap, 8, t, m4)
        assert replies == []
        assert records == [{
            "tick": 8, "event": "transition", "scope": "session", "to": "established",
            "peer": CLIENT_MAC,
        }]
        assert ap.kck_history == [peer.auth.keys.kck]
        assert peer.established and peer.deadline is None

    def test_ap_discards_a_replayed_and_an_unexpected_frame(self):
        sim, t, m4, _ = self.stopped(8)
        ap = sim.by_id["ap1"]
        ap.on_frame(8, m4)
        # Message 2, under an old counter, then the same Message 4 again
        m2 = [r for r in tx_frames(t, "eapol-key") if r["origin"] == "client1"][0]
        m2 = Transmission("client1", bytes.fromhex(m2["hex"]))
        for frame, reason in ((m2, "replay"), (m4, "unexpected")):
            replies, records = self.received(ap, 9, t, frame)
            assert replies == []
            assert records == [{"tick": 9, "event": "discard", "reason": reason}]
        assert len(ap.kck_history) == 1

    def test_ap_mic_failure_fails_the_session(self):
        sim, t, _, m4 = self.stopped(8)
        ap, client = sim.by_id["ap1"], sim.by_id["client1"]
        peer = ap.peers[client.mac]
        forged = client._out_key(ap.mac, replace(m4, key_mic=bytes(16)))
        replies, records = self.received(ap, 8, t, forged)
        assert replies == []
        assert records == [{
            "tick": 8, "event": "transition", "scope": "session", "to": "failed",
            "peer": CLIENT_MAC, "reason": "mic-mismatch",
        }]
        assert ap.kck_history == []
        assert not peer.established and peer.deadline is None


class TestLostFrames:
    """A lost frame never splits a pair: once one end is Established, the
    other gets there too, under the same KCK, and no KCK is installed twice."""

    def test_no_drop_schedule_splits_the_pair(self):
        benign = replace(builtin("benign"), max_ticks=3000)
        schedules = [
            set(drops) for k in (1, 2) for drops in itertools.combinations(range(10), k)
        ]
        assert len(schedules) == 55
        for drops in schedules:
            t = DroppingSimulation(benign, 1, drops).run()
            client = t.summaries["client1"]["state"] == "established"
            ap = t.summaries["ap1"]["sessions"].get("client1", {}).get("established")
            assert client == bool(ap), drops
            for end, sessions in (("client1", "soap"), ("ap1", "session")):
                kcks = t.secrets[end]["kcks"]
                assert len(set(kcks)) == len(kcks) <= len(t.secrets[end]["psks"]), drops
                established = ticks_of(t, "transition", station=end, to="established")
                assert len(established) == len(kcks), (drops, end)
            if client:
                assert t.secrets["client1"]["kcks"][-1] == t.secrets["ap1"]["kcks"][-1]

    def test_lost_m4_costs_one_resend(self):
        # frame 6 is Message 4, sent at tick 7: ap1 resends Message 3 at 106
        # and the client, still Established, answers it under the installed keys
        benign = replace(builtin("benign"), max_ticks=3000)
        t = DroppingSimulation(benign, 1, {6}).run()
        sent = [(r["tick"], r["frame"]) for r in tx_frames(t) if r["frame"] != "beacon"]
        assert sent[6:] == [(7, "eapol-key"), (106, "eapol-key"), (107, "eapol-key")]
        assert ticks_of(t, "retransmit", station="ap1") == [106]
        assert ticks_of(t, "transition", station="client1", to="established") == [7]
        assert t.summaries["ap1"]["sessions"]["client1"]["established"]

    def test_lost_m2_costs_one_resend(self):
        # frame 2 is agreement Message 2, sent at tick 3: ap1 resends Message 1
        # at 102 and the client, in fourway, resends the same Message 2 at 103,
        # with no second ECDH session
        benign = replace(builtin("benign"), max_ticks=3000)
        t = DroppingSimulation(benign, 1, {2}).run()
        sent = [(r["tick"], r["frame"], r["origin"]) for r in tx_frames(t, "agreement")]
        assert sent == [
            (2, "agreement", "ap1"), (3, "agreement", "client1"),
            (102, "agreement", "ap1"), (103, "agreement", "client1"),
        ]
        message1 = [r["hex"] for r in tx_frames(t, "agreement") if r["origin"] == "ap1"]
        assert message1[0] == message1[1]
        message2 = [r["hex"] for r in tx_frames(t, "agreement") if r["origin"] == "client1"]
        assert message2[0] == message2[1]
        assert ticks_of(t, "retransmit", station="ap1") == [102]
        assert ticks_of(t, "transition", station="client1", to="established") == [107]
        assert ticks_of(t, "transition", station="ap1", to="established") == [108]
        assert ticks_of(t, "negotiation") == [1]
        assert events(t, "discard") == []
        assert len(t.secrets["client1"]["psks"]) == len(t.secrets["ap1"]["psks"]) == 1
        assert t.secrets["client1"]["kcks"] == t.secrets["ap1"]["kcks"]

    def test_the_ap_gives_up_before_the_client(self):
        # a rule that keeps an AP from restarting a live session for a
        # repeated association request relies on this order: the AP drops a
        # peer that never answers before that client stops waiting for it
        gives_up_after = simnet.RETRY_TIMEOUT_TICKS * (simnet.MAX_RETRANSMISSIONS + 1)
        assert gives_up_after < simnet.CLIENT_AWAIT_TIMEOUT_TICKS
        t = DeafClientSimulation(replace(builtin("benign"), max_ticks=500), 1).run()
        [request] = [r["tick"] for r in tx_frames(t, "assoc-request")]
        message1 = tx_frames(t, "agreement")
        assert [r["origin"] for r in message1] == ["ap1"] * (simnet.MAX_RETRANSMISSIONS + 1)
        [gave_up] = ticks_of(t, "transition", station="ap1", to="aborted", reason="timeout")
        [timed_out] = ticks_of(t, "transition", station="client1", reason="timeout")
        assert gave_up == message1[0]["tick"] + gives_up_after
        assert timed_out == request + simnet.CLIENT_AWAIT_TIMEOUT_TICKS + 1
        assert gave_up < timed_out

    def test_a_late_message2_rearms_no_finished_peer(self):
        # client1's 4-Way Message 2 is lost each time: ap1 resends Message 1
        # at 104, 204 and 304, then gives up on the peer at 404
        sim = MuteSupplicantSimulation(replace(builtin("benign"), max_ticks=420), 1)
        t = sim.run()
        assert ticks_of(t, "retransmit", station="ap1") == [104, 204, 304]
        assert ticks_of(t, "transition", station="ap1", to="aborted") == [404]
        # the last Message 2 arrives late: ap1 answers it with Message 3, yet
        # stays done with the peer, so it next acts at its beacon at 600
        last = [r for r in tx_frames(t, "eapol-key") if r["origin"] == "client1"][-1]
        in_flight = []
        late = Transmission("client1", bytes.fromhex(last["hex"]))
        Simulation._deliver(sim, 420, late, in_flight)
        [reply] = in_flight
        assert (reply.origin, reply.kind) == ("ap1", "eapol-key")
        key_frame = parse_eapol_key_frame(parse_data_frame(reply.wire).payload)
        assert key_frame.key_info == KEY_INFO_M3
        assert sim.by_id["ap1"]._next_deadline(501) == 600

    @staticmethod
    def waiting_in_fourway():
        """benign with Message 2 lost, stopped at tick 50: the transcript and
        client1, which waits in fourway for a resent Message 1."""
        sim = DroppingSimulation(replace(builtin("benign"), max_ticks=50), 1, {2})
        t = sim.run()
        client = sim.by_id["client1"]
        assert client.state == "fourway"
        return t, client

    @pytest.mark.parametrize("field", ["ecdh_public", "signature"])
    def test_altered_message1_in_fourway_is_discarded(self, field):
        t, client = self.waiting_in_fourway()
        message1 = next(r for r in tx_frames(t, "agreement") if r["origin"] == "ap1")
        resent = Transmission("ap1", bytes.fromhex(message1["hex"]))
        [again] = client.on_frame(50, resent)
        assert again.wire.hex() == tx_frames(t, "agreement")[1]["hex"]
        frame = parse_data_frame(resent.wire)
        msg = parse_soap_message(
            frame.payload,
            key_octets=client.session.group.key_size_octets,
            signature_octets=client.session.peer_signer[0].key_size_octets,
        )
        value = getattr(msg, field)
        altered = replace(msg, **{field: bytes([value[0] ^ 1]) + value[1:]})
        assert msg.session_nonce is not None
        wire = encode_data_frame(replace(frame, payload=encode_soap_message(altered)))
        records = len(t.records)
        assert client.on_frame(50, Transmission("ap1", wire)) == []
        assert t.records[records:] == [{
            "tick": 50, "event": "discard", "station": "client1", "reason": "phase",
            "src": AP_MAC,
        }]

    def test_restart_forgets_the_answered_message1(self):
        _, client = self.waiting_in_fourway()
        assert len(client.answered) == 1
        client.reset(50)
        assert client.answered == {}


class TestTranscriptWriter:
    """`Transcript.note` writes only the declared records: every event but
    `tx`, with its declared keys and reasons."""

    @pytest.mark.parametrize(
        "event, detail, message",
        [
            ("bogus", {}, "undeclared event 'bogus'"),
            ("blocked", {"src": "x", "reason": "phase"},
             "undeclared keys for a 'blocked' record: ['reason']"),
            ("tx", {}, "undeclared keys for a 'tx' record: ['station']"),
            ("discard", {"reason": "bogus"}, "undeclared reason 'bogus' for 'discard'"),
            ("transition", {"scope": "station", "to": "scanning", "reason": "phase"},
             "undeclared reason 'phase' for 'transition'"),
        ],
        ids=["event", "key", "tx", "discard-reason", "transition-reason"],
    )
    def test_undeclared_record_raises(self, event, detail, message):
        t = Transcript("t", 0)
        with pytest.raises(ValueError, match=re.escape(message)):
            t.note(0, event, "client1", **detail)
        assert t.records == []

    def test_every_declared_record_is_written(self):
        t = Transcript("t", 0)
        for event, keys in RECORD_KEYS.items():
            if event == "tx":
                continue
            detail = dict.fromkeys(keys - {"tick", "event", "station"}, 1)
            for reason in sorted(REASONS.get(event, ())):
                t.note(0, event, "client1", **{**detail, "reason": reason})
            detail.pop("reason", None)
            t.note(0, event, "client1", **detail)
        assert {r["event"] for r in t.records} == set(RECORD_KEYS) - {"tx"}
        assert len(t.records) == len(RECORD_KEYS) - 1 + sum(map(len, REASONS.values()))


class Level(IntEnum):
    LOW = -3


class Name(str):
    pass


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


# any character, lone surrogates included: the control, non-ASCII and non-BMP
# ones are escaped
ANY_TEXT = st.text(st.characters(blacklist_categories=()))
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**128)
    | st.integers(max_value=-(2**128))
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 1e-7, 1e16, 5e-324, 1.7976931348623157e308])
    | ANY_TEXT
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(ANY_TEXT, inner, max_size=4),
    max_leaves=30,
)


class TestRenderJson:
    """`simnet._render_json`, the one renderer of the transcript, the attack
    suite's report and the CLI's JSON, writes what
    `json.dumps(value, sort_keys=True, indent=2)` writes, and raises outside
    its domain."""

    @settings(max_examples=400)
    @given(JSON_VALUES)
    @example({"a": [], "b": {}, "c": [[], {}, ()], "d": {"e": {"f": []}}})
    @example(["\x00\x1f\x7f", "\u00e9\u2028", "\U0001f600", "\ud800", {"\U0001f600": "\n"}])
    @example([-1, 0, 2**128, -(2**128) - 1, 10**400])
    @example([-0.0, 0.0, 1e-7, 1e16, 1.5, -2.5e-300, 1e22])
    @example([True, False, None, {"t": True, "f": False, "n": None}])
    @example([Name("str"), Level.LOW, OrderedDict([("b", 1), ("a", Name("x"))]), Counter("abca")])
    def test_equals_json_dumps(self, value):
        assert simnet._render_json(value) == canonical(value)

    @pytest.mark.parametrize(
        "value, error",
        [
            (b"octets", TypeError),
            ({1, 2}, TypeError),
            ({1: "int key"}, TypeError),
            ({"a": 1, 2: "b"}, TypeError),
            ({"nested": [object()]}, TypeError),
            (float("nan"), ValueError),
            ([float("inf")], ValueError),
            ({"x": -float("inf")}, ValueError),
        ],
        ids=["bytes", "set", "int-key", "mixed-keys", "object", "nan", "inf", "-inf"],
    )
    def test_outside_the_domain_raises(self, value, error):
        with pytest.raises(error):
            simnet._render_json(value)


class TestTxRecordRendering:
    """A `tx` record renders its transmission's fields once per indent, then
    its own tick: the transcript is still json.dumps's text."""

    def test_tick_sorts_last(self):
        assert max(RECORD_KEYS["tx"]) == "tick"

    def test_records_of_one_transmission(self):
        first = next(r for r in run_scenario(builtin("benign"), 1).records if r["event"] == "tx")
        sent = Transmission(first["origin"], bytes.fromhex(first["hex"]))
        t = Transcript("s", 0)
        t.tx(3, sent)
        t.tx(10, sent)
        assert t.records == [{"tick": tick, "event": "tx", **sent.record} for tick in (3, 10)]
        assert all(r.transmission is sent for r in t.records)
        assert simnet._render_json(t.records) == canonical(t.records)

    # campus: resent beacons and a scripted reset; hijack-mitm: the
    # adversary's substitute Message 1 is a transmission of its own
    @pytest.mark.parametrize("name", BUILTIN_NAMES + ("campus",))
    def test_transcript_equals_json_dumps(self, name):
        transcript = run_scenario(campus() if name == "campus" else builtin(name), 1)
        records = transcript.records
        parts = {
            "scenario": transcript.scenario,
            "seed": transcript.seed,
            "records": records,
            "summaries": transcript.summaries,
            "secrets": transcript.secrets,
        }
        assert transcript.to_json() == canonical(parts)
        assert transcript.to_json() == canonical(parts)
        # indents the first render cached no text at
        assert simnet._render_json(records) == canonical(records)
        assert simnet._render_json({"r": {"r": records}}) == canonical({"r": {"r": records}})
        if name == "hijack-mitm":
            assert any(r.get("origin") == simnet.ADVERSARY_ID for r in records)


class FixedStepSimulation(Simulation):
    """Reference clock: steps every tick, ticks every actor (the rogue AP, the
    adversary and every station) at it and hands every frame to every
    addressee, found by a scan of every receiver, as a fixed-step loop
    would."""

    def _next_due(self, tick):
        return tick

    def _ticking(self, tick):
        return list(self._due)

    def _addressees(self, t):
        return [s for s in self.receivers if t.dst_mac in (BROADCAST_MAC, s.mac)]


def run_checked(script, seed=0):
    """Run under the next-event clock and require the fixed-step transcript."""
    transcript = run_scenario(script, seed)
    assert transcript.to_json() == FixedStepSimulation(script, seed).run().to_json()
    return transcript


def ticks_of(transcript, event, **where):
    return [
        r["tick"]
        for r in transcript.records
        if r["event"] == event and all(r.get(k) == v for k, v in where.items())
    ]


def assert_idle_before(transcript, tick):
    # nothing was recorded on the previous tick, so no frame was in flight and
    # the clock had to jump to `tick`
    assert not any(r["tick"] == tick - 1 for r in transcript.records), tick


def beacons_at(tick, period, offset):
    """The per-tick beacon test a fixed-step loop applies."""
    return tick >= offset and (tick - offset) % period == 0


@st.composite
def random_scripts(draw):
    """A script of 1-2 APs, 1-4 clients, an optional adversary, resets and
    mitigations, and a run seed."""
    max_ticks = draw(st.integers(min_value=1, max_value=1000))
    tick = st.integers(min_value=0, max_value=max_ticks + 50)
    aps = draw(st.integers(min_value=1, max_value=2))
    clients = draw(st.integers(min_value=1, max_value=4))

    def link():
        # an unaware client and an AP without a legacy PSK stall until the
        # client's await timeout, as does an AP that advertises a key it
        # cannot sign under
        return {
            "soap_aware": draw(st.booleans()),
            "legacy_psk": draw(st.sampled_from([None, LEGACY_PSK])),
        }

    stations = [
        StationConfig(
            f"ap{k}", "ap", f"02:00:00:00:00:{k:02x}",
            beacon_period=draw(st.integers(min_value=20, max_value=150)),
            beacon_offset=draw(st.integers(min_value=0, max_value=200)),
            advertise_bogus_key=draw(st.booleans()),
            debug_leak_psk=draw(st.booleans()),
            **link(),
        )
        for k in range(1, aps + 1)
    ] + [
        StationConfig(f"client{i}", "client", f"02:00:00:00:01:{i:02x}", **link())
        for i in range(1, clients + 1)
    ]
    caps = draw(
        st.sets(
            st.sampled_from(
                ["eavesdrop", "replay", "delete-intercept", "mitm-substitute",
                 "disassoc-inject", "masquerade", "inject"]
            ),
            max_size=3,
        )
    )
    adversary = None
    if caps:
        # only the fields the capabilities read, as a loaded script has
        fields = {
            "beacon_period": st.integers(min_value=20, max_value=150),
            "beacon_offset": st.integers(min_value=0, max_value=200),
            "replay_at": tick,
            "disassoc_at": tick,
        }
        adversary = AdversaryConfig(
            capabilities=tuple(sorted(caps)),
            advertise_bogus_key="inject" in caps,
            **{
                key: draw(values)
                for key, values in fields.items()
                if caps & ADVERSARY_FIELD_READERS[key]
            },
        )
    client_ids = st.sampled_from([f"client{i}" for i in range(1, clients + 1)])
    resets = [
        ScheduleAction(t, station, "reset")
        for t, station in draw(st.lists(st.tuples(tick, client_ids), max_size=3))
    ]
    mitigations = Mitigations(
        blacklist_threshold=draw(st.sampled_from([None, 2])),
        sign_management_frames=draw(st.booleans()),
    )
    script = ScenarioScript(
        "prop", stations, adversary=adversary, mitigations=mitigations,
        schedule=resets, max_ticks=max_ticks,
    )
    return script, draw(st.integers(min_value=0, max_value=2**32))


def stalled_link():
    """An unaware client latches onto an AP that has no legacy PSK, waits,
    and times out at tick 452: only a due tick set when it latched wakes it."""
    return script(max_ticks=700, client_kw={"soap_aware": False, "legacy_psk": LEGACY_PSK})


def signed_beacons_after_latch():
    """Signed beacons from an AP whose advertised key does not match its
    signatures: the client linked to the other AP still checks, and
    discards, each one."""
    stations = [
        StationConfig("ap1", "ap", AP_MAC, beacon_offset=0),
        StationConfig("ap2", "ap", "02:00:00:00:00:03", beacon_offset=50,
                      advertise_bogus_key=True),
        StationConfig("client1", "client", CLIENT_MAC),
    ]
    return ScenarioScript(
        "signed-after-latch", stations, max_ticks=300,
        mitigations=Mitigations(sign_management_frames=True),
    )


def beacon_beside_reply():
    """ap2 beacons at tick 1, as the client's association request to ap1 goes
    out: one frame in flight is handed to a station, the other to none."""
    stations = [
        StationConfig("ap1", "ap", AP_MAC, beacon_offset=0),
        StationConfig("ap2", "ap", "02:00:00:00:00:03", beacon_offset=1),
        StationConfig("client1", "client", CLIENT_MAC),
    ]
    return ScenarioScript("beacon-beside-reply", stations, max_ticks=300)


class TestNextEventClock:
    """The clock jumps over idle ticks and lands on every deadline."""

    @given(
        period=st.integers(min_value=1, max_value=300),
        offset=st.integers(min_value=0, max_value=600),
        tick=st.integers(min_value=0, max_value=2000),
    )
    def test_beacon_due_matches_brute_force(self, period, offset, tick):
        cfg = StationConfig("ap1", "ap", AP_MAC, beacon_period=period, beacon_offset=offset)
        expected = next(
            t for t in range(tick, tick + period + offset + 1)
            if beacons_at(t, period, offset)
        )
        assert ApStation._beacon_due(SimpleNamespace(cfg=cfg), tick) == expected

    def test_ap_retransmit_deadline(self):
        # msg1 leaves at tick 2 and is deleted; the AP retries every 100 ticks
        t = run_checked(adversary_script(["delete-intercept"], max_ticks=700))
        assert ticks_of(t, "retransmit", station="ap1") == [102, 202, 302, 602]
        assert ticks_of(t, "transition", station="ap1", to="aborted") == [402]
        for tick in (102, 202, 302, 402, 602):
            assert_idle_before(t, tick)

    @pytest.mark.parametrize(
        "disassoc_at,resends,fourway", [(3, 104, "await-m2"), (5, 106, "await-m4")]
    )
    def test_fourway_retransmit_deadline(self, disassoc_at, resends, fourway):
        # the forged disassociation halts the client before 4-Way M1 (tick 3)
        # or M3 (tick 5) reaches it; the AP resends that frame, then gives up
        hijack = builtin("hijack-disassoc-unmitigated")
        t = run_checked(
            replace(hijack, adversary=replace(hijack.adversary, disassoc_at=disassoc_at)),
            seed=1,
        )
        assert ticks_of(t, "retransmit", station="ap1") == [resends, resends + 100, resends + 200]
        assert ticks_of(t, "transition", station="ap1", to="aborted") == [resends + 300]
        assert t.summaries["ap1"]["sessions"]["client1"]["fourway"] == fourway
        assert t.summaries["client1"]["state"] == "halted"

    def test_client_await_timeout(self):
        # the client latched at tick 1 and never hears msg1
        t = run_checked(adversary_script(["delete-intercept"], max_ticks=700))
        assert ticks_of(t, "transition", station="client1", reason="timeout") == [452]
        assert_idle_before(t, 452)

    def test_scheduled_reset(self):
        resets = [ScheduleAction(250, "client1", "reset")]
        t = run_checked(script(max_ticks=400, schedule=resets))
        assert ticks_of(t, "transition", reason="scripted-reset") == [250]
        assert [r["tick"] for r in tx_frames(t, "disassoc")] == [250]
        assert_idle_before(t, 250)

    def test_schedule_runs_by_tick_then_in_script_order(self):
        # a script built in Python skips the schema, which refuses a negative
        # tick: actions outside the run never run and hold up none inside it
        stations = [
            *pair(), StationConfig("client2", "client", "02:00:00:00:00:03", ssid="publicnet"),
        ]
        resets = [
            ScheduleAction(-1, "client1"), ScheduleAction(250, "client2"),
            ScheduleAction(200, "client1"), ScheduleAction(250, "client1"),
            ScheduleAction(400, "client2"),
        ]
        t = run_checked(script(max_ticks=400, stations=stations, schedule=resets))
        assert [
            (r["tick"], r["station"]) for r in events(t, "transition")
            if r.get("reason") == "scripted-reset"
        ] == [(200, "client1"), (250, "client2"), (250, "client1")]

    def test_adversary_replay_at(self):
        t = run_checked(adversary_script(["replay"], replay_at=1050, max_ticks=1100))
        assert ticks_of(t, "replay-burst") == [1050]
        assert_idle_before(t, 1050)

    def test_deadline_before_the_first_tick_fires_at_zero(self):
        t = run_checked(adversary_script(["replay"], replay_at=-5, max_ticks=50))
        assert ticks_of(t, "replay-burst") == [0]

    def test_adversary_disassoc_at(self):
        t = run_checked(
            adversary_script(["disassoc-inject"], disassoc_at=650, max_ticks=700)
        )
        assert [r["tick"] for r in tx_frames(t, "disassoc")] == [650]
        assert ticks_of(t, "transition", to="halted") == [651]
        assert_idle_before(t, 650)

    def test_rogue_ap_beacons(self):
        t = run_checked(
            adversary_script(
                ["masquerade"], ssid="publicnet", beacon_period=40, beacon_offset=13,
                max_ticks=300,
            )
        )
        rogue = [r["tick"] for r in tx_frames(t, "beacon") if r["origin"] == "adversary"]
        assert rogue == list(range(13, 300, 40))
        assert_idle_before(t, 93)

    @pytest.mark.parametrize(
        "max_ticks,beacons", [(200, [0, 100]), (201, [0, 100, 200]), (250, [0, 100, 200])]
    )
    def test_max_ticks_inside_a_gap(self, max_ticks, beacons):
        t = run_checked(script(max_ticks=max_ticks))
        assert [r["tick"] for r in tx_frames(t, "beacon")] == beacons
        assert t.summaries["client1"]["state"] == "established"

    # About one random script in seven stalls a client long enough, or
    # signs beacons a linked client still checks, for a skipped tick or a
    # skipped delivery to show; the examples pin one of each, and a tick
    # whose frames in flight are handed to some stations and to none.
    @settings(max_examples=150)
    @example(case=(stalled_link(), 0))
    @example(case=(signed_beacons_after_latch(), 0))
    @example(case=(beacon_beside_reply(), 0))
    @given(case=random_scripts())
    def test_random_scripts_match_fixed_step(self, case):
        run_checked(*case)


class TestBeaconCache:
    """An AP builds its beacon once per content, not once per beacon, and
    every beacon of one content shares one parse."""

    def count_beacon_work(self, monkeypatch, run_script):
        """The beacon frames built, the beacon wires parsed, and the transcript."""
        built = []
        encode = simnet.encode_management_frame

        def counting(frame):
            if frame.subtype is simnet.FrameSubtype.BEACON:
                built.append(frame)
            return encode(frame)

        monkeypatch.setattr(simnet, "encode_management_frame", counting)
        parsed = record_calls(monkeypatch, "parse_management_frame")
        t = run_scenario(run_script, 0)
        return built, [a[0].hex() for a in parsed if frame_kind(a[0]) == "beacon"], t

    def test_signed_beacon_built_once(self, monkeypatch):
        signs = record_calls(monkeypatch, "ecdsa_sign")
        built, parsed, t = self.count_beacon_work(
            monkeypatch,
            script(mitigations=Mitigations(sign_management_frames=True)),
        )
        beacons = tx_frames(t, "beacon")
        assert len(beacons) == 6
        # one signature, over the octets every beacon sent carries before it
        [(_, message)] = [a for a in signs if frame_kind(a[1]) == "beacon"]
        wire = bytes.fromhex(beacons[0]["hex"])
        assert built[-1].signature is not None
        assert message == signed_octets(wire, built[-1].signature)
        assert len({r["hex"] for r in beacons}) == 1
        assert parsed == [beacons[0]["hex"]]

    def test_leaked_psk_rebuilds_beacon(self, monkeypatch):
        built, parsed, t = self.count_beacon_work(
            monkeypatch, script(ap_kw={"debug_leak_psk": True}, max_ticks=700)
        )
        psk = t.secrets["ap1"]["psks"][0]
        beacons = tx_frames(t, "beacon")
        assert len(built) == 2
        assert psk not in beacons[0]["hex"]
        assert all(psk in r["hex"] for r in beacons[1:])
        assert parsed == [beacons[0]["hex"], beacons[1]["hex"]]


def crowd(clients=4, max_ticks=500, **mitigations):
    """One AP and `clients` clients under signed management frames."""
    stations = [StationConfig("ap1", "ap", AP_MAC)] + [
        StationConfig(f"client{i}", "client", f"02:00:00:00:01:{i:02x}")
        for i in range(1, clients + 1)
    ]
    return ScenarioScript(
        "crowd-test", stations, max_ticks=max_ticks,
        mitigations=Mitigations(sign_management_frames=True, **mitigations),
    )


def record_calls(monkeypatch, *names):
    """Record, in one list, the arguments of every call made through simnet's
    bindings of `names`."""
    calls = []

    def recording(real):
        def call(*args):
            calls.append(args)
            return real(*args)

        return call

    for name in names:
        monkeypatch.setattr(simnet, name, recording(getattr(simnet, name)))
    return calls


def without_resends(records):
    """The tx `records` less each resend: a station sends each beacon content
    and each agreement message as one transmission, however often it goes on
    air, and a resend repeats its octets. Each adversary frame is new."""
    seen = set()
    kept = []
    for r in records:
        if r["frame"] in ("beacon", "agreement") and r["origin"] != "adversary":
            if r["hex"] in seen:
                continue
            seen.add(r["hex"])
        kept.append(r)
    return kept


class TestParseAndVerifyOnce:
    """Each transmission is parsed once, however often it is delivered, and
    each distinct signed management frame is verified once: later checks of
    it are hits in crypto's verdict memo."""

    def test_one_verify_per_distinct_input(self, monkeypatch, fresh_memos, real_verifies):
        calls = record_calls(monkeypatch, "ecdsa_verify")
        sim = Simulation(crowd(clients=6), 0)
        t = sim.run()
        beacons = len(tx_frames(t, "beacon"))
        assert all(s["state"] == "established" for s in t.summaries.values()
                   if s["role"] == "client")
        distinct = {(group.group_id, *rest) for group, *rest in calls}
        real = [(key, ok) for key, ok in real_verifies if key in distinct]
        assert len(real) == len(distinct) == len({key for key, _ in real})
        # every client checks every beacon, but the beacon octets never change
        assert beacons == 5
        assert len(real) < beacons * 6 < len(calls)
        assert all(ok for _, ok in real)

    def test_one_parse_per_delivered_transmission(self, monkeypatch):
        parsed = record_calls(monkeypatch, "parse_management_frame", "parse_data_frame")
        script = crowd(clients=5)
        t = run_scenario(script, 0)
        # a frame sent at tick n is delivered at n + 1, inside the run or not,
        # and frames are delivered in the order they were sent
        delivered = [r for r in tx_frames(t) if r["tick"] + 1 < script.max_ticks]
        distinct = without_resends(delivered)
        assert [args[0].hex() for args in parsed] == [r["hex"] for r in distinct]
        # the signed beacon never changes, so every beacon shares the first
        # one's parse; each of the five clients receives every beacon
        beacons = len(tx_frames(t, "beacon"))
        receptions = sum(5 if r["frame"] == "beacon" else 1 for r in delivered)
        assert beacons == 5
        assert len(parsed) == len(delivered) - beacons + 1 < receptions

    def test_adversary_shares_the_parse(self, monkeypatch):
        parsed = record_calls(monkeypatch, "parse_management_frame", "parse_data_frame")
        script = adversary_script(["mitm-substitute"], max_ticks=1500)
        t = run_scenario(script, 0)
        assert events(t, "mitm-substituted")
        # the adversary reads each association request and each Message 1 it
        # replaces; a substitute is sent, and delivered, at the tick of the
        # delivery it replaces
        delivered = [
            r for r in tx_frames(t)
            if r["tick"] + 1 < script.max_ticks or r["origin"] == "adversary"
        ]
        distinct = without_resends(delivered)
        assert Counter(args[0].hex() for args in parsed) == Counter(
            r["hex"] for r in distinct
        )
        # one beacon content, beaconed every 100 ticks, and each Message 1
        # resent on ap1's timer as the transmission first sent
        resends = ticks_of(t, "retransmit", station="ap1")
        assert resends == [102, 202, 302, 602, 702, 802, 1102, 1202, 1302]
        beacon_repeats = script.max_ticks // 100 - 1
        assert len(distinct) == len(delivered) - beacon_repeats - len(resends)

    def test_rogue_ap_shares_the_memo(self, monkeypatch, fresh_memos, real_verifies):
        calls = record_calls(monkeypatch, "ecdsa_verify")
        sim = Simulation(
            adversary_script(
                ["masquerade"], ssid="publicnet",
                mitigations=Mitigations(sign_management_frames=True),
            ),
            0,
        )
        sim.run()
        # no station, rogue AP or simulation keeps a memo of its own
        actors = [sim, sim.adversary, sim.adversary.rogue, *sim.stations]
        assert not any(hasattr(actor, "verify_memo") for actor in actors)
        distinct = {(group.group_id, *rest) for group, *rest in calls}
        real = [key for key, _ in real_verifies if key in distinct]
        assert sorted(real, key=repr) == sorted(distinct, key=repr)
        assert len(real) < len(calls)

    def test_malformed_broadcast_discarded_by_every_receiver(self, monkeypatch):
        good = ApStation._beacon

        def truncated(self):
            t = good(self)
            return simnet.Transmission(t.origin, t.wire[:-1])

        monkeypatch.setattr(ApStation, "_beacon", truncated)
        parsed = record_calls(monkeypatch, "parse_management_frame")
        t = run_scenario(crowd(clients=3, max_ticks=150), 0)
        with pytest.raises(MalformedFrameError) as err:
            parse_management_frame(bytes.fromhex(tx_frames(t, "beacon")[0]["hex"]))
        discards = events(t, "discard")
        assert [(r["tick"], r["station"]) for r in discards] == [
            (tick, f"client{i}") for tick in (1, 101) for i in (1, 2, 3)
        ]
        assert {r["reason"] for r in discards} == {"malformed"}
        assert {r["detail"] for r in discards} == {str(err.value)}
        assert len(parsed) == 2

    def test_tampered_signature_rejected_by_every_receiver(
        self, monkeypatch, fresh_memos, real_verifies
    ):
        good = ApStation._beacon
        sent = []

        def tampering(self):
            t = good(self)
            sent.append(t)
            if len(sent) == 1:
                return t
            # the signature element is the last: flip the last octet of s
            return simnet.Transmission(t.origin, t.wire[:-1] + bytes([t.wire[-1] ^ 1]))

        monkeypatch.setattr(ApStation, "_beacon", tampering)
        calls = real_verifies
        sim = Simulation(crowd(clients=3, max_ticks=450, blacklist_threshold=3), 0)
        t = sim.run()
        beacons = tx_frames(t, "beacon")
        assert len(beacons) == 5
        assert len({r["hex"] for r in beacons[1:]}) == 1
        ap = sim.by_id["ap1"]
        tampered = parse_management_frame(bytes.fromhex(beacons[1]["hex"]))
        key = (26, ap.identity.ecdsa.public_point)
        message = signed_octets(bytes.fromhex(beacons[1]["hex"]), tampered.signature)
        assert (key + (message, tampered.signature), False) in calls
        # one verify of the good beacon and one of the tampered one, which
        # signs the same elements, however many receptions
        assert len([a for a, _ in calls if a[2] == message]) == 2
        for i in (1, 2, 3):
            client = sim.by_id[f"client{i}"]
            mine = events(t, "discard", f"client{i}")
            assert [(r["tick"], r["reason"], r["context"]) for r in mine] == [
                (tick, "signature", "mgmt") for tick in (101, 201, 301)
            ]
            assert client.fail_counts[ap.mac] == 3
            assert client.blocked == {ap.mac}
            assert ticks_of(t, "blocked", station=f"client{i}") == [401]


def memo_leaves(value):
    """Every int and octet string held in `value`, through tuples, lists,
    mappings (keys too) and dataclasses."""
    if isinstance(value, (bytes, int)):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from memo_leaves(item)
    elif isinstance(value, dict):
        for item in value.items():
            yield from memo_leaves(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from memo_leaves(getattr(value, f.name))


class TestProcessMemos:
    """Verdicts, signatures and scripted identities are remembered once per
    process; what a run writes does not depend on what they hold.

    No test may call `run_attack_suite` while it has soapsim monkeypatched:
    the suite's workers are forked once and keep what they inherited, so they
    would not see the patch, or would keep it for the rest of the session."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_transcripts_same_with_memos_cold_and_warm(self, name, fresh_memos):
        cold = {}
        for seed in (1, 12, 77):
            fresh_memos()
            cold[seed] = run_scenario(builtin(name), seed).to_json()
        # warm: each run finds what the runs before it left in the memos
        for seed in (77, 12, 1, 1):
            assert run_scenario(builtin(name), seed).to_json() == cold[seed]

    def test_no_ephemeral_secret_in_any_memo(self, monkeypatch, fresh_memos):
        # the suite's rows at seed 1, run here, where the patches below see them
        scalars, psks = set(), set()
        generate, agree = crypto.ecdh_generate, crypto.ecdh_agree

        def generating(group, rng):
            pair = generate(group, rng)
            scalars.add(pair.private_scalar)
            return pair

        def agreeing(own, peer):
            psk = agree(own, peer)
            psks.add(bytes(psk))
            return psk

        for module in (crypto, handshake, simnet):
            for name, fn in (("ecdh_generate", generating), ("ecdh_agree", agreeing)):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, fn)
        assert all(
            check.ok
            for _, variants in SUITE_PLAN
            for _, name, _ in variants
            for check in scenarios._suite_row_checks(name, 1)[0]
        )
        memos = [crypto._key_memo, crypto._decode_memo, crypto._verdict_memo,
                 crypto._signature_memo, simnet._identities]
        assert all(memos)
        assert scalars and psks
        leaves = list(memo_leaves(memos))
        assert not scalars.intersection(v for v in leaves if isinstance(v, int))
        octets = [v for v in leaves if isinstance(v, bytes)]
        assert not any(psk in v for psk in psks for v in octets)

    def test_identities_are_frozen_and_shared(self, fresh_memos):
        first = Simulation(builtin("benign"), 1)
        again = Simulation(builtin("benign"), 2)
        for a, b in zip(first.stations, again.stations):
            assert a.identity is b.identity
            with pytest.raises(dataclasses.FrozenInstanceError):
                a.identity.mac = bytes(6)
            with pytest.raises(dataclasses.FrozenInstanceError):
                a.identity.ecdsa.private_scalar = 1


def campus(signed=False):
    """Four APs on distinct SSIDs, four clients (one per SSID) and one
    scripted reset over 3000 ticks: perfbench's campus-idle op, scaled down."""
    stations = [
        StationConfig(
            f"ap{k}", "ap", f"02:00:00:00:00:{k + 1:02x}", ssid=f"campus-{k}",
            beacon_offset=offset,
        )
        for k, offset in enumerate((17, 3, 88, 45))
    ] + [
        StationConfig(f"client{i}", "client", f"02:00:00:00:01:{i:02x}", ssid=f"campus-{i}")
        for i in range(4)
    ]
    return ScenarioScript(
        "campus-test", stations, schedule=[ScheduleAction(1130, "client2")],
        max_ticks=3000, mitigations=Mitigations(sign_management_frames=signed),
    )


def unheard_beacons(transcript):
    """(tick, origin) of each beacon that no one hears in an unsigned run
    without blocked lists: no client is scanning when it is delivered at the
    next tick, so none is at the end of the tick it is sent in."""
    clients = [s for s, summary in transcript.summaries.items() if summary["role"] == "client"]
    moves = [
        (r["tick"], r["station"], r["to"])
        for r in events(transcript, "transition") if r["scope"] == "station"
    ]

    def scanning(tick):
        state = dict.fromkeys(clients, "scanning")
        state.update((station, to) for at, station, to in moves if at <= tick)
        return "scanning" in state.values()

    return [
        (r["tick"], r["origin"]) for r in tx_frames(transcript, "beacon")
        if not scanning(r["tick"])
    ]


def record_stepped(monkeypatch, kind=Simulation):
    """The ticks a `kind` clock steps, in order."""
    stepped = []
    ticking = kind._ticking
    monkeypatch.setattr(
        kind, "_ticking", lambda self, tick: stepped.append(tick) or ticking(self, tick)
    )
    return stepped


def against_fixed_step(script, calls):
    """The `calls` recorded by a next-event run of `script` and by the
    reference run, which must write the same transcript."""
    transcript = run_scenario(script, 0).to_json()
    stepped = calls[:]
    calls.clear()
    assert FixedStepSimulation(script, 0).run().to_json() == transcript
    return stepped, calls[:]


class TestDueTicksAndDelivery:
    """An actor (a station, the rogue AP or the adversary) ticks only when a
    deadline of its own is due, and an unsigned beacon reaches only the
    stations that can act on it."""

    def record_ticks(self, monkeypatch):
        """(tick, actor, whether one of its deadlines is reached) of every
        on_tick call; the actor is a station id, `rogue` or `adversary`."""
        calls = []

        def recording(real):
            def on_tick(self, tick):
                deadline = self._next_deadline(tick)
                reached = deadline is not None and deadline <= tick
                if isinstance(self, simnet.Adversary):
                    actor = "adversary"
                else:
                    actor = self.cfg.station_id.replace("adversary", "rogue")
                calls.append((tick, actor, reached))
                return real(self, tick)

            return on_tick

        for kind in (simnet.ClientStation, ApStation, simnet.Adversary):
            monkeypatch.setattr(kind, "on_tick", recording(kind.on_tick))
        return calls

    def test_on_tick_only_when_a_deadline_is_reached(self, monkeypatch):
        stepped, reference = against_fixed_step(campus(), self.record_ticks(monkeypatch))
        assert len(reference) == 3000 * 8
        due = [(tick, station) for tick, station, reached in reference if reached]
        # 30 beacons from each AP; no client waits long enough to time out
        assert len(due) == 4 * 30
        # a beacon no one hears is written without its AP's on_tick
        unheard = set(unheard_beacons(run_scenario(campus(), 0)))
        assert [(tick, station) for tick, station, _ in stepped] == [
            call for call in due if call not in unheard
        ]
        assert all(reached for *_, reached in stepped)
        # the four beacons the scanning clients hear at the start, and the
        # two heard by client2 after its reset at tick 1130
        assert [tick for tick, *_ in stepped] == [3, 17, 45, 88, 1145, 1188]

    def test_adversary_and_rogue_tick_only_when_due(self, monkeypatch):
        attack = adversary_script(
            ["masquerade", "replay", "disassoc-inject"],
            stations=pair(ap_kw={"beacon_offset": 50}),
            ssid="publicnet", beacon_period=25, replay_at=700, disassoc_at=800,
            max_ticks=1000,
        )
        stepped, reference = against_fixed_step(attack, self.record_ticks(monkeypatch))
        # the reference ticks the rogue AP, the adversary and both stations
        # at every tick, in that order
        assert len(reference) == 1000 * 4
        order = [actor for _, actor, _ in reference[:4]]
        assert order == ["rogue", "adversary", "ap1", "client1"]
        due = [(tick, actor) for tick, actor, reached in reference if reached]
        assert [(tick, actor) for tick, actor, _ in stepped] == due
        assert all(reached for *_, reached in stepped)
        assert [tick for tick, actor, _ in stepped if actor == "adversary"] == [700, 800]
        # the rogue AP's beacons; the client keys with it and it never resends
        assert [tick for tick, actor, _ in stepped if actor == "rogue"] == list(
            range(0, 1000, 25)
        )

    def record_frames(self, monkeypatch):
        """(tick, receiver, frame kind, receiver state) of every on_frame call."""
        calls = []
        on_frame = simnet.Station.on_frame

        def recording(self, tick, t):
            calls.append((tick, self.cfg.station_id, t.kind, self.state))
            return on_frame(self, tick, t)

        monkeypatch.setattr(simnet.Station, "on_frame", recording)
        return calls

    def test_unicast_reaches_every_receiver_of_its_mac(self, monkeypatch):
        # a rogue AP that shares ap1's MAC hears what is sent to ap1, after it
        sim = Simulation(adversary_script(["masquerade"], ssid="publicnet", mac=AP_MAC), 0)
        heard = []
        monkeypatch.setattr(
            simnet.Station, "on_frame", lambda self, tick, t: heard.append(self) or []
        )
        client, ap1, rogue = sim.by_id["client1"], sim.by_id["ap1"], sim.adversary.rogue
        for dst, receivers in (
            (AP_MAC, [ap1, rogue]),
            ("02:00:00:00:00:77", []),
            (format_mac(BROADCAST_MAC), [ap1, rogue]),
        ):
            heard.clear()
            frame = ManagementFrame(FrameSubtype.DISASSOC, client.mac, parse_mac(dst))
            t = simnet.Transmission("client1", encode_management_frame(frame))
            sim._deliver(5, t, [])
            assert heard == receivers

    def test_unsigned_beacons_reach_only_scanning_clients(self, monkeypatch):
        stepped, reference = against_fixed_step(campus(), self.record_frames(monkeypatch))
        assert stepped == [
            call for call in reference if call[2] != "beacon" or call[3] == "scanning"
        ]
        # a scanning client hears every AP until the beacon of its SSID
        beacons = [call for call in stepped if call[2] == "beacon"]
        assert {station for _, station, *_ in beacons} == {f"client{i}" for i in range(4)}
        assert {state for *_, state in beacons} == {"scanning"}
        assert (len(stepped), len(reference)) == (48, 876)

    def test_signed_beacons_reach_every_station(self, monkeypatch):
        calls = self.record_frames(monkeypatch)
        stepped, reference = against_fixed_step(campus(signed=True), calls)
        assert stepped == reference
        t = run_scenario(campus(signed=True), 0)
        delivered = [r for r in tx_frames(t, "beacon") if r["tick"] + 1 < 3000]
        assert len([call for call in stepped if call[2] == "beacon"]) == 7 * len(delivered)


def aps_only(max_ticks=1000):
    """Two APs and no other station: no one hears a beacon."""
    aps = [
        StationConfig("ap1", "ap", AP_MAC, beacon_offset=17),
        StationConfig("ap2", "ap", "02:00:00:00:00:03", beacon_period=40, beacon_offset=5),
    ]
    return ScenarioScript("aps-only", aps, max_ticks=max_ticks)


class TestIdleBeacons:
    """A beacon resent to stations it cannot change costs its record only: it
    is handed to the listeners (the scanning clients and the stations that
    block a sender), and every resend shares one set of record fields. A
    station that is not scanning still gets the beacons it must record."""

    def test_resends_share_one_record(self):
        t = run_scenario(campus(), 0)
        beacons = [r for r in tx_frames(t, "beacon") if r["origin"] == "ap0"]
        assert len(beacons) == 30
        assert all(r["hex"] is beacons[0]["hex"] for r in beacons)
        assert [r["tick"] for r in beacons] == list(range(17, 3000, 100))
        assert list(beacons[0]) == [
            "tick", "event", "origin", "frame", "src", "dst", "size", "hex"
        ]

    def test_unheard_beacons_step_no_tick(self, monkeypatch):
        # no station is handed an AP-only script's beacons, so the clock
        # writes each one without stepping a tick
        stepped = record_stepped(monkeypatch)
        t = run_checked(aps_only())
        beacons = [r["tick"] for r in tx_frames(t, "beacon")]
        assert len(beacons) == 10 + 25
        assert stepped == []

    def blacklist_script(self):
        """The client blacklists the rogue, then keys with ap1."""
        return adversary_script(
            ["inject"], stations=pair(ap_kw={"beacon_offset": 50}), max_ticks=3000,
            mitigations=Mitigations(blacklist_threshold=3), ssid="publicnet",
            beacon_period=25, advertise_bogus_key=True,
        )

    def test_blocked_sender_still_noted(self):
        # Established, the client still notes every rogue beacon as blocked
        t = run_checked(self.blacklist_script())
        established = ticks_of(t, "transition", station="client1", to="established")
        assert established and t.summaries["client1"]["state"] == "established"
        rogue_beacons = [
            r["tick"] + 1 for r in tx_frames(t, "beacon")
            if r["origin"] == "adversary" and r["tick"] >= established[0]
        ]
        assert len(rogue_beacons) == 109
        assert set(rogue_beacons) <= set(ticks_of(t, "blocked", station="client1"))

    def test_listener_handed_beacons_it_cannot_act_on(self, monkeypatch):
        # blocking the rogue makes the client a listener, so it is handed
        # ap1's unsigned beacons too: Established, it answers and records
        # nothing for them
        handed = []
        on_frame = simnet.Station.on_frame

        def recording(self, tick, t):
            records = len(self.transcript.records)
            replies = on_frame(self, tick, t)
            if (self.cfg.station_id, t.origin, t.kind) == ("client1", "ap1", "beacon"):
                handed.append((tick, self.state, replies, self.transcript.records[records:]))
            return replies

        monkeypatch.setattr(simnet.Station, "on_frame", recording)
        stepped, reference = against_fixed_step(self.blacklist_script(), handed)
        t = run_scenario(self.blacklist_script(), 0)
        established = ticks_of(t, "transition", station="client1", to="established")[0]
        ap_beacons = [
            r["tick"] + 1 for r in tx_frames(t, "beacon")
            if r["origin"] == "ap1" and r["tick"] >= established and r["tick"] + 1 < 3000
        ]
        assert len(ap_beacons) == 27
        late = [call for call in stepped if call[0] > established]
        assert [tick for tick, *_ in late] == ap_beacons
        assert all(call[1:] == ("established", [], []) for call in late)
        assert late == [call for call in reference if call[0] > established]

    def test_malformed_beacon_reaches_every_station(self):
        # no script sends a malformed beacon: hand one, after the run, to
        # stations that are all past scanning
        discards = []
        for kind in (Simulation, FixedStepSimulation):
            sim = kind(campus(), 0)
            t = sim.run()
            assert {s["state"] for s in t.summaries.values()} == {"ready", "established"}
            beacon = sim.by_id["ap0"]._beacon()
            malformed = simnet.Transmission("ap0", beacon.wire[:-1])
            assert malformed.kind == "beacon"
            assert isinstance(malformed.frame, MalformedFrameError)
            first = len(t.records)
            sim._deliver(3000, malformed, [])
            discards.append(t.records[first:])
        assert discards[0] == discards[1]
        assert [(r["station"], r["reason"]) for r in discards[0]] == [
            (station, "malformed")
            for station in ("ap1", "ap2", "ap3", "client0", "client1", "client2", "client3")
        ]


class TestUnheardStretches:
    """A stretch in which APs only beacon and no one hears a beacon is written
    without a stepped tick. It ends at the first tick at which anything else
    can act, and writes what stepped ticks would."""

    def test_cut_by_a_scheduled_reset(self, monkeypatch):
        stepped = record_stepped(monkeypatch)
        t = run_checked(script(max_ticks=400, schedule=[ScheduleAction(250, "client1")]))
        # Established at tick 8, the client hears no beacon until its reset
        # at 250 sends it scanning; it keys again off the beacon at 300
        assert ticks_of(t, "transition", station="client1", reason="scripted-reset") == [250]
        assert [r["tick"] for r in tx_frames(t, "beacon")] == [0, 100, 200, 300]
        assert stepped == [*range(9), 250, 251, *range(300, 309)]

    def test_cut_by_a_client_give_up(self, monkeypatch):
        stepped = record_stepped(monkeypatch)
        t = run_checked(stalled_link())
        # the beacons at 100-400 go out while the client waits, unheard
        assert ticks_of(t, "transition", station="client1", reason="timeout") == [452]
        assert [r["tick"] for r in tx_frames(t, "beacon")] == list(range(0, 700, 100))
        assert stepped == [0, 1, 2, 452, 500, 501, 502]

    def test_cut_by_a_retransmit_deadline(self, monkeypatch):
        # the client cannot verify Message 1 under the key the AP advertises,
        # so the AP resends it two ticks after each beacon, then gives up
        stepped = record_stepped(monkeypatch)
        t = run_checked(script(ap_kw={"advertise_bogus_key": True}, max_ticks=700))
        assert ticks_of(t, "retransmit", station="ap1") == [102, 202, 302, 602]
        assert ticks_of(t, "transition", station="ap1", to="aborted") == [402]
        assert [r["tick"] for r in tx_frames(t, "beacon")] == list(range(0, 700, 100))
        assert stepped == [
            0, 1, 2, 3, 102, 103, 202, 203, 302, 303, 402, 452, 500, 501, 502, 503, 602, 603
        ]

    @pytest.mark.parametrize("max_ticks", [965, 966, 1000])
    def test_max_ticks_mid_period(self, monkeypatch, max_ticks):
        # ap2 beacons at 965; the run ends at it, just past it, or mid-period
        stepped = record_stepped(monkeypatch)
        t = run_checked(aps_only(max_ticks))
        beacons = [(r["tick"], r["origin"]) for r in tx_frames(t, "beacon")]
        assert beacons[-1] == ((965, "ap2") if max_ticks > 965 else (925, "ap2"))
        assert stepped == []

    def test_same_tick_beacons_in_script_order(self, monkeypatch):
        # ap2 comes first in the script but after ap1 by MAC and by id
        stations = [
            StationConfig("ap2", "ap", "02:00:00:00:00:03", beacon_period=50, beacon_offset=5),
            StationConfig("ap1", "ap", AP_MAC, beacon_offset=5),
        ]
        stepped = record_stepped(monkeypatch)
        t = run_checked(ScenarioScript("same-tick", stations, max_ticks=400))
        beacons = [(r["tick"], r["origin"]) for r in tx_frames(t, "beacon")]
        assert beacons[:3] == [(5, "ap2"), (5, "ap1"), (55, "ap2")]
        assert len(beacons) == 8 + 4
        assert stepped == []

    def test_blocking_ap_is_a_listener(self, monkeypatch):
        # ap2 blocks ap1, so it is handed and notes ap1's every beacon, also
        # once the client is Established: the clock steps each one
        stations = [*pair(), StationConfig("ap2", "ap", "02:00:00:00:00:03", beacon_offset=50)]
        stepped = record_stepped(monkeypatch)
        transcripts = []
        for kind in (Simulation, FixedStepSimulation):
            sim = kind(script(max_ticks=500, stations=stations), 0)
            ap2 = sim.by_id["ap2"]
            ap2.blocked.add(sim.by_id["ap1"].mac)
            sim._refresh(ap2, 0)
            transcripts.append(sim.run())
        assert transcripts[0].to_json() == transcripts[1].to_json()
        t = transcripts[0]
        assert t.summaries["client1"]["state"] == "established"
        ap1_beacons = [r["tick"] for r in tx_frames(t, "beacon") if r["origin"] == "ap1"]
        assert ticks_of(t, "blocked", station="ap2") == [tick + 1 for tick in ap1_beacons]
        # every beacon is handed to ap2, if only to be dropped as its own
        beacons = [r["tick"] for r in tx_frames(t, "beacon")]
        assert stepped == [*range(9), *(at + d for at in beacons[1:] for d in (0, 1))]

    def test_leaked_psk_beacon_rebuilt_in_a_stretch(self, monkeypatch):
        # the first beacon after agreement carries the PSK: it is built for
        # the stretch that writes it
        stepped = record_stepped(monkeypatch)
        t = run_checked(script(ap_kw={"debug_leak_psk": True}, max_ticks=450))
        psk = t.secrets["ap1"]["psks"][0]
        beacons = tx_frames(t, "beacon")
        assert [r["tick"] for r in beacons] == [0, 100, 200, 300, 400]
        assert psk not in beacons[0]["hex"]
        assert all(psk in r["hex"] for r in beacons[1:])
        assert stepped == list(range(9))

    def test_reference_steps_every_tick(self, monkeypatch):
        stepped = record_stepped(monkeypatch, FixedStepSimulation)
        FixedStepSimulation(aps_only(), 0).run()
        assert stepped == list(range(1000))
