"""Scenario schema, expectation checks, builtins, and the attack suite."""

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from soapsim.crypto import REGISTRY
from soapsim.scenarios import (
    ADVERSARY_FIELD_READERS,
    BUILTIN_NAMES,
    CheckResult,
    KNOWN_CAPABILITIES,
    KNOWN_CHECKS,
    MAX_TICKS,
    SUITE_PLAN,
    ScenarioError,
    SuiteReport,
    SuiteRowResult,
    builtin,
    evaluate_check,
    evaluate_expectations,
    load_script,
    run_attack_suite,
    script_from_dict,
    script_to_dict,
)
from soapsim.frames import FRAME_KINDS
from soapsim.simnet import (
    AP_STATES,
    CLIENT_STATES,
    EVENTS,
    REASONS,
    RECORD_KEYS,
    STATION_STATES,
    AdversaryConfig,
    Mitigations,
    ScenarioScript,
    ScheduleAction,
    StationConfig,
    parse_mac,
    run_scenario,
)

AP = {"station_id": "ap1", "role": "ap", "mac": "02:00:00:00:00:01"}
CLIENT = {"station_id": "client1", "role": "client", "mac": "02:00:00:00:00:02"}


# A value, other than the default, for each optional adversary field.
ADVERSARY_FIELDS = {
    "ssid": "rogue",
    "groups": [19],
    "beacon_period": 30,
    "beacon_offset": 3,
    "advertise_bogus_key": True,
    "replay_at": 5,
    "disassoc_at": 5,
    "target_ap": "ap1",
    "target_client": "client1",
}


def minimal(**extra):
    data = {"name": "t", "stations": [dict(AP), dict(CLIENT)]}
    data.update(extra)
    return data


def rejected(data, fragment):
    with pytest.raises(ScenarioError) as err:
        script_from_dict(data)
    assert fragment in str(err.value), str(err.value)


class TestSchemaAccepts:
    """Well-formed scripts parse into runnable scenario objects."""

    @pytest.mark.parametrize("key", sorted(ADVERSARY_FIELDS))
    def test_adversary_field_under_each_capability_that_reads_it(self, key):
        for capability in ADVERSARY_FIELD_READERS[key]:
            data = minimal(adversary={"capabilities": [capability], key: ADVERSARY_FIELDS[key]})
            script = script_from_dict(data)
            assert script_to_dict(script)["adversary"] == data["adversary"]

    def test_minimal_script(self):
        script = script_from_dict(minimal())
        assert script.name == "t"
        assert len(script.stations) == 2
        assert script.max_ticks == 3000
        assert script.adversary is None

    def test_full_station_options(self):
        station = dict(
            AP,
            ssid="net",
            groups=[26, 19],
            soap_aware=True,
            legacy_psk="00" * 32,
            beacon_period=50,
            beacon_offset=3,
        )
        script = script_from_dict({"name": "t", "stations": [station]})
        assert script.stations[0].groups == (26, 19)

    def test_load_script_json_text(self):
        script = load_script(json.dumps(minimal()))
        assert script.name == "t"

    def test_schedule_action_defaults_to_reset(self):
        data = minimal(schedule=[{"tick": 5, "station": "client1"}])
        script = script_from_dict(data)
        assert script.schedule == [ScheduleAction(5, "client1", "reset")]
        assert script_to_dict(script)["schedule"] == data["schedule"]
        spelled = minimal(schedule=[{"tick": 5, "station": "client1", "action": "reset"}])
        assert script_from_dict(spelled) == script


# One script per int field, each with a JSON boolean where the int belongs.
BOOL_IN_INT = [
    (minimal(max_ticks=True), "script.max_ticks"),
    (minimal(identity_seed=False), "script.identity_seed"),
    (
        {"name": "t", "stations": [dict(AP, beacon_period=True)]},
        "script.stations[0].beacon_period",
    ),
    (
        {"name": "t", "stations": [dict(AP, beacon_offset=False)]},
        "script.stations[0].beacon_offset",
    ),
    (
        {"name": "t", "stations": [dict(AP, groups=[26, True])]},
        "script.stations[0].groups",
    ),
    (
        minimal(adversary={"capabilities": ["replay"], "replay_at": True}),
        "script.adversary.replay_at",
    ),
    (
        minimal(adversary={"disassoc_at": True}),
        "script.adversary.disassoc_at",
    ),
    (minimal(adversary={"beacon_period": True}), "script.adversary.beacon_period"),
    (minimal(adversary={"beacon_offset": True}), "script.adversary.beacon_offset"),
    (minimal(adversary={"groups": [True]}), "script.adversary.groups"),
    (
        minimal(mitigations={"blacklist_threshold": True}),
        "script.mitigations.blacklist_threshold",
    ),
    (
        minimal(schedule=[{"tick": True, "station": "ap1", "action": "reset"}]),
        "script.schedule[0].tick",
    ),
]


class TestSchemaRejects:
    """Each malformed script is refused with the offending location."""

    def test_top_level_not_object(self):
        rejected([], "script: top level")

    def test_unknown_top_level_key(self):
        rejected(minimal(bogus=1), "unknown keys: ['bogus']")

    def test_missing_name(self):
        rejected({"stations": [dict(AP)]}, "missing required key 'name'")

    def test_name_wrong_type(self):
        rejected(minimal(name=7), "script.name: expected")

    def test_no_stations(self):
        rejected({"name": "t", "stations": []}, "at least one station")

    def test_station_missing_mac(self):
        bad = {"station_id": "x", "role": "ap"}
        rejected({"name": "t", "stations": [bad]}, "stations[0]: missing required key 'mac'")

    def test_station_bad_role(self):
        rejected(
            {"name": "t", "stations": [dict(AP, role="router")]},
            "stations[0].role",
        )

    def test_station_bad_mac(self):
        rejected(
            {"name": "t", "stations": [dict(AP, mac="nope")]},
            "stations[0].mac",
        )

    def test_station_unknown_key(self):
        rejected(
            {"name": "t", "stations": [dict(AP, antenna=3)]},
            "unknown keys: ['antenna']",
        )

    def test_legacy_psk_not_hex(self):
        rejected(
            {"name": "t", "stations": [dict(AP, legacy_psk="zz")]},
            "legacy_psk: not hex",
        )

    def test_legacy_psk_wrong_length(self):
        rejected(
            {"name": "t", "stations": [dict(AP, legacy_psk="00" * 16)]},
            "must be 32 octets",
        )

    def test_empty_groups(self):
        rejected(
            {"name": "t", "stations": [dict(AP, groups=[])]},
            "non-empty list of integers",
        )

    def test_unregistered_group(self):
        rejected(
            {"name": "t", "stations": [dict(AP, groups=[26, 99])]},
            "unregistered group id 99",
        )

    def test_duplicate_station_id(self):
        dup = dict(CLIENT, station_id="ap1", mac="02:00:00:00:00:03")
        rejected({"name": "t", "stations": [dict(AP), dup]}, "duplicate station_id")

    def test_duplicate_mac(self):
        dup = dict(CLIENT, mac=AP["mac"])
        rejected({"name": "t", "stations": [dict(AP), dup]}, "duplicate mac")

    def test_pin_ap_unknown_station(self):
        rejected(
            {"name": "t", "stations": [dict(AP), dict(CLIENT, pin_ap="ghost")]},
            "pin_ap: unknown station 'ghost'",
        )

    @pytest.mark.parametrize("target", ["client1", "client2"])
    def test_pin_ap_must_name_an_ap(self, target):
        other = dict(CLIENT, station_id="client2", mac="02:00:00:00:00:03")
        rejected(
            {"name": "t", "stations": [dict(AP), dict(CLIENT, pin_ap=target), other]},
            f"script.stations[1].pin_ap: {target!r} is not an AP",
        )

    def test_pin_ap_only_on_a_client(self):
        rejected(
            {"name": "t", "stations": [dict(AP, pin_ap="ap1"), dict(CLIENT)]},
            "script.stations[0].pin_ap: only a client may pin an AP",
        )

    def test_station_id_adversary_is_reserved(self):
        rejected(
            {"name": "t", "stations": [dict(AP, station_id="adversary"), dict(CLIENT)]},
            "script.stations: station_id 'adversary' is reserved",
        )

    def test_adversary_unknown_capability(self):
        rejected(
            minimal(adversary={"capabilities": ["teleport"]}),
            "capabilities: unknown: ['teleport']",
        )

    def test_adversary_unknown_target(self):
        rejected(
            minimal(adversary={"capabilities": ["disassoc-inject"], "target_ap": "ghost"}),
            "target_ap: unknown station 'ghost'",
        )

    @pytest.mark.parametrize(
        "key,target,role",
        [("target_ap", "client1", "an AP"), ("target_client", "ap1", "a client")],
    )
    def test_adversary_target_of_the_wrong_role(self, key, target, role):
        rejected(
            minimal(adversary={"capabilities": ["disassoc-inject"], key: target}),
            f"script.adversary.{key}: {target!r} is not {role}",
        )

    @pytest.mark.parametrize(
        "capabilities,key",
        [
            (["eavesdrop"], "disassoc_at"),
            (["eavesdrop"], "target_ap"),
            (["eavesdrop", "replay"], "target_client"),
            (["disassoc-inject"], "replay_at"),
            (["mitm-substitute"], "disassoc_at"),
            (["masquerade"], "target_ap"),
            (["delete-intercept"], "groups"),
            (["replay"], "ssid"),
            (["disassoc-inject", "mitm-substitute"], "beacon_period"),
            ([], "beacon_offset"),
            (["eavesdrop"], "advertise_bogus_key"),
        ],
    )
    def test_adversary_field_no_capability_reads(self, capabilities, key):
        rejected(
            minimal(adversary={"capabilities": capabilities, key: ADVERSARY_FIELDS[key]}),
            f"script.adversary.{key}: read only under",
        )

    def test_unread_disassociation_is_named(self):
        adversary = {
            "capabilities": ["eavesdrop"],
            "target_ap": "ap1",
            "target_client": "client1",
            "disassoc_at": 5,
        }
        rejected(
            minimal(adversary=adversary),
            "script.adversary.disassoc_at: read only under disassoc-inject; none is listed",
        )
        del adversary["disassoc_at"]
        rejected(
            minimal(adversary=adversary),
            "script.adversary.target_ap: read only under disassoc-inject, mitm-substitute",
        )

    def test_blacklist_threshold_below_one(self):
        rejected(
            minimal(mitigations={"blacklist_threshold": 0}),
            "blacklist_threshold: must be >= 1",
        )

    def test_schedule_missing_key(self):
        # tick and station are required; action defaults to "reset"
        rejected(
            minimal(schedule=[{"tick": 5, "action": "reset"}]),
            "schedule[0]: missing required key 'station'",
        )

    def test_schedule_unknown_station(self):
        rejected(
            minimal(schedule=[{"tick": 5, "station": "ghost", "action": "reset"}]),
            "schedule[0].station",
        )

    def test_schedule_unknown_action(self):
        rejected(
            minimal(schedule=[{"tick": 5, "station": "ap1", "action": "explode"}]),
            "only 'reset' is defined",
        )

    def test_schedule_negative_tick(self):
        rejected(
            minimal(schedule=[{"tick": -1, "station": "ap1", "action": "reset"}]),
            "tick: must be >= 0",
        )

    def test_schedule_reset_of_an_ap(self):
        rejected(
            minimal(schedule=[{"tick": 300, "station": "ap1", "action": "reset"}]),
            "script.schedule[0].station: 'ap1' is not a client",
        )

    def test_expectation_unknown_check(self):
        rejected(
            minimal(expectations=[{"check": "psychic"}]),
            "unknown check 'psychic'",
        )

    def test_expectation_not_object(self):
        rejected(minimal(expectations=["nope"]), "expectations[0]: must be an object")

    def test_max_ticks_zero(self):
        rejected(minimal(max_ticks=0), "max_ticks: must be >= 1")

    @pytest.mark.parametrize("ticks", [MAX_TICKS + 1, 10**10])
    def test_max_ticks_above_the_bound(self, ticks):
        # only loaded: a run at the bound would take minutes and much memory
        rejected(minimal(max_ticks=ticks), f"script.max_ticks: must be <= {MAX_TICKS}")

    @pytest.mark.parametrize(
        "data,path", BOOL_IN_INT, ids=[path for _, path in BOOL_IN_INT]
    )
    def test_bool_in_int_field(self, data, path):
        # bool subclasses int in Python; JSON true must not read as 1
        rejected(data, f"{path}: ")

    @pytest.mark.parametrize("period", [0, -5])
    def test_station_beacon_period_below_one(self, period):
        rejected(
            {"name": "t", "stations": [dict(AP), dict(CLIENT, beacon_period=period)]},
            "script.stations[1].beacon_period: must be >= 1",
        )

    def test_station_beacon_offset_negative(self):
        rejected(
            {"name": "t", "stations": [dict(AP, beacon_offset=-1)]},
            "script.stations[0].beacon_offset: must be >= 0",
        )

    def test_adversary_empty_groups(self):
        rejected(
            minimal(adversary={"capabilities": ["masquerade"], "groups": []}),
            "script.adversary.groups: must be a non-empty list of integers",
        )

    def test_adversary_beacon_period_below_one(self):
        rejected(
            minimal(adversary={"capabilities": ["masquerade"], "beacon_period": 0}),
            "script.adversary.beacon_period: must be >= 1",
        )

    def test_adversary_beacon_offset_negative(self):
        rejected(
            minimal(adversary={"capabilities": ["inject"], "beacon_offset": -3}),
            "script.adversary.beacon_offset: must be >= 0",
        )

    def test_load_script_bad_json(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_script("{nope")

    @pytest.mark.parametrize(
        "mac",
        [
            "002:00:00:00:00:01",
            "0x2:00:00:00:00:01",
            " 2:00:00:00:00:01",
            "+2:00:00:00:00:01",
            "2:00:00:00:00:01",
            "02:00:00:00:00:01\n",
            "02-00-00-00-00-01",
            "02:00:00:00:00:0g",
            "٠٢:00:00:00:00:01",  # Arabic-Indic digits, which int() reads
        ],
    )
    def test_mac_must_be_six_two_digit_octets(self, mac):
        rejected(
            {"name": "t", "stations": [dict(AP, mac=mac)]},
            "script.stations[0].mac: bad mac",
        )

    @pytest.mark.parametrize(
        "first,second",
        [
            ("02:00:00:00:00:0a", "02:00:00:00:00:0A"),
            ("0A:BC:DE:F0:12:34", "0a:bc:de:f0:12:34"),
        ],
    )
    def test_duplicate_mac_compares_octets(self, first, second):
        rejected(
            {"name": "t", "stations": [dict(AP, mac=first), dict(CLIENT, mac=second)]},
            "script.stations: duplicate mac",
        )

    @pytest.mark.parametrize("mac", ["zz", "02:00:00:00:00", "002:00:00:00:00:ee"])
    def test_adversary_mac_checked_at_load(self, mac):
        rejected(
            minimal(adversary={"capabilities": ["masquerade"], "mac": mac}),
            "script.adversary.mac: bad mac",
        )

    @pytest.mark.parametrize(
        "station_mac,adversary",
        [
            ("02:00:00:00:00:0a", {"mac": "02:00:00:00:00:0a"}),
            ("02:00:00:00:00:0a", {"mac": "02:00:00:00:00:0A"}),
            (AdversaryConfig.mac, {}),  # the default
        ],
    )
    def test_adversary_mac_must_not_repeat_a_station(self, station_mac, adversary):
        rejected(
            minimal(
                stations=[dict(AP), dict(CLIENT, mac=station_mac)],
                adversary={"capabilities": ["masquerade"], **adversary},
            ),
            "script.adversary.mac: repeats the mac of a station",
        )

    @pytest.mark.parametrize("groups", [[99], [26, 99], [0]])
    def test_adversary_groups_must_be_registered(self, groups):
        rejected(
            minimal(adversary={"capabilities": ["masquerade"], "groups": groups}),
            "script.adversary.groups: unregistered group id",
        )

    @pytest.mark.parametrize("key", ["replay_at", "disassoc_at"])
    @pytest.mark.parametrize("tick", [-1, -5])
    def test_adversary_tick_negative(self, key, tick):
        rejected(
            minimal(adversary={"capabilities": ["replay", "disassoc-inject"], key: tick}),
            f"script.adversary.{key}: must be >= 0",
        )

    @pytest.mark.parametrize(
        "ssid,fragment",
        [
            ("x" * 33, "must be at most 32 octets of UTF-8, got 33"),
            ("€" * 11, "must be at most 32 octets of UTF-8, got 33"),
            ("x" * 300, "must be at most 32 octets of UTF-8, got 300"),
            ("\ud800", "not encodable as UTF-8"),
        ],
        ids=["33-ascii", "11-euro-signs", "300-ascii", "lone-surrogate"],
    )
    @pytest.mark.parametrize("owner", ["station", "adversary"])
    def test_ssid_over_32_octets(self, owner, ssid, fragment):
        if owner == "station":
            data = {"name": "t", "stations": [dict(AP, ssid=ssid)]}
            where = "script.stations[0].ssid"
        else:
            data = minimal(adversary={"capabilities": ["masquerade"], "ssid": ssid})
            where = "script.adversary.ssid"
        rejected(data, f"{where}: {fragment}")


class TestRadioFieldsAtTheLimit:
    """What the MAC and SSID checks accept still runs to Established."""

    @pytest.mark.parametrize("ssid", ["x" * 32, "é" * 16])
    def test_32_octet_ssid_establishes(self, ssid):
        stations = [dict(AP, ssid=ssid), dict(CLIENT, ssid=ssid, mac="02:00:00:00:00:0A")]
        t = run_scenario(
            script_from_dict({"name": "t", "stations": stations, "max_ticks": 200}), 0
        )
        assert t.summaries["client1"]["state"] == "established"
        assert t.summaries["client1"]["mac"] == "02:00:00:00:00:0a"


# A valid expectation of each kind, next to AP and CLIENT.
VALID_CHECKS = {
    "station-state": {"station": "client1", "equals": "established"},
    "station-mode": {"station": "client1", "equals": "soap"},
    "station-peer": {"station": "client1", "equals": "ap1"},
    "psk-count": {"station": "client1", "equals": 1},
    "psk-distinct": {"station": "client1"},
    "psk-match": {"a": "ap1", "b": "client1"},
    "no-psk-on-wire": {},
    "frame-count": {"frame": "agreement", "origin": "ap1", "equals": 2},
    "event-count": {"event": "negotiation", "at_least": 1},
    "blocked-contains": {"station": "client1", "equals": "adversary"},
    "fallback": {"station": "client1", "equals": False},
    "adversary-knows-psk": {"equals": False},
    "ap-session-established": {"station": "ap1", "client": "client1", "equals": True},
    "no-transitions-after": {"tick": 10},
    "psk-on-wire-hits": {"equals": 0},
}
# Keys of the examples above that a check may leave out.
OPTIONAL_KEYS = {("event-count", "event"), ("frame-count", "origin")}
STATION_KEYS = ("station", "a", "b", "client", "origin")


DROP = object()  # a change that removes the key


def with_check(kind, **changes):
    check = {"check": kind, **VALID_CHECKS[kind], **changes}
    return minimal(expectations=[{k: v for k, v in check.items() if v is not DROP}])


def wrong_type(value):
    """A JSON value of another type; a boolean where an int belongs."""
    if isinstance(value, bool):
        return "yes"
    return True if isinstance(value, int) else 7


class TestExpectationSchema:
    """Every expectation is checked against its kind's keys at load."""

    def test_every_kind_has_an_example(self):
        assert set(VALID_CHECKS) == KNOWN_CHECKS

    @pytest.mark.parametrize("kind", sorted(VALID_CHECKS))
    def test_example_loads(self, kind):
        script = script_from_dict(with_check(kind))
        assert script.expectations == [{"check": kind, **VALID_CHECKS[kind]}]

    @pytest.mark.parametrize("kind", sorted(VALID_CHECKS))
    def test_unknown_key(self, kind):
        rejected(with_check(kind, bogus=1), "script.expectations[0]: unknown keys: ['bogus']")

    @pytest.mark.parametrize(
        "kind,key",
        [
            (kind, key)
            for kind, example in sorted(VALID_CHECKS.items())
            for key in example
            if (kind, key) not in OPTIONAL_KEYS
        ],
    )
    def test_missing_required_key_or_bound(self, kind, key):
        # a bound is reported as the choice of all three
        with pytest.raises(ScenarioError) as err:
            script_from_dict(with_check(kind, **{key: DROP}))
        assert str(err.value).startswith("script.expectations[0]: missing required key")
        assert repr(key) in str(err.value)

    @pytest.mark.parametrize(
        "kind,key",
        [(kind, key) for kind, example in sorted(VALID_CHECKS.items()) for key in example],
    )
    def test_wrong_type(self, kind, key):
        bad = wrong_type(VALID_CHECKS[kind][key])
        rejected(
            with_check(kind, **{key: bad}), f"script.expectations[0].{key}: expected"
        )

    @pytest.mark.parametrize(
        "kind,key",
        [
            (kind, key)
            for kind, example in sorted(VALID_CHECKS.items())
            for key in example
            if key in STATION_KEYS
        ],
    )
    def test_unknown_station(self, kind, key):
        rejected(
            with_check(kind, **{key: "ghost"}),
            f"script.expectations[0].{key}: unknown station 'ghost'",
        )

    def test_event_count_may_filter_by_the_adversary(self):
        script = script_from_dict(with_check("event-count", station="adversary"))
        assert script.expectations[0]["station"] == "adversary"

    def test_only_event_count_may_name_the_adversary(self):
        rejected(
            with_check("station-state", station="adversary"),
            "script.expectations[0].station: unknown station 'adversary'",
        )

    @pytest.mark.parametrize(
        "check,fragment",
        [
            ({"check": "frame-count", "frame": "agreement", "equal": 5},
             "script.expectations[0]: unknown keys: ['equal']"),
            ({"check": "psk-count", "station": "client1"},
             "script.expectations[0]: missing required key 'equals' or 'at_least'"),
            ({"check": "event-count", "event": "discard", "at_lest": 99},
             "script.expectations[0]: unknown keys: ['at_lest']"),
            ({"check": "no-psk-on-wire", "station": "client1"},
             "script.expectations[0]: unknown keys: ['station']"),
            ({"check": "frame-count", "frame": "agreement", "equals": "2"},
             "script.expectations[0].equals: expected int, got str"),
            ({"check": ["station-state"]},
             "script.expectations[0].check: unknown check ['station-state']"),
        ],
        ids=["typo-equal", "no-bound", "typo-at-lest", "stray-key", "string-bound",
             "unhashable-kind"],
    )
    def test_cases_that_once_passed_silently(self, check, fragment):
        rejected(minimal(expectations=[check]), fragment)

    def test_state_or_peer_may_be_null(self):
        script = script_from_dict(
            minimal(expectations=[{"check": "station-peer", "station": "client1",
                                   "equals": None}])
        )
        assert script.expectations[0]["equals"] is None


class TestClosedVocabularies:
    """A frame kind, event or station state an expectation compares against
    is one the simulator emits, and a check that reads a client's or an AP's
    summary names a station of that role."""

    @pytest.mark.parametrize(
        "check,fragment",
        [
            ({"check": "frame-count", "frame": "agreemnt", "equals": 0},
             "script.expectations[0].frame: unknown frame kind 'agreemnt'"),
            ({"check": "event-count", "event": "discrad", "at_most": 0},
             "script.expectations[0].event: unknown event 'discrad'"),
            ({"check": "station-state", "station": "client1", "not_equals": "establshed"},
             "script.expectations[0].not_equals: unknown station state 'establshed'"),
            ({"check": "station-state", "station": "ap1", "equals": "Ready"},
             "script.expectations[0].equals: unknown station state 'Ready'"),
        ],
        ids=["frame", "event", "not-equals-state", "equals-state"],
    )
    def test_unknown_word(self, check, fragment):
        rejected(minimal(expectations=[check]), fragment)

    @pytest.mark.parametrize(
        "check,fragment",
        [
            ({"check": "ap-session-established", "station": "client1", "client": "ap1",
              "equals": False},
             "script.expectations[0].station: 'client1' is not an AP"),
            ({"check": "ap-session-established", "station": "ap1", "client": "ap1",
              "equals": False},
             "script.expectations[0].client: 'ap1' is not a client"),
            ({"check": "station-mode", "station": "ap1", "equals": None},
             "script.expectations[0].station: 'ap1' is not a client"),
            ({"check": "station-peer", "station": "ap1", "equals": None},
             "script.expectations[0].station: 'ap1' is not a client"),
            ({"check": "fallback", "station": "ap1", "equals": False},
             "script.expectations[0].station: 'ap1' is not a client"),
            ({"check": "station-state", "station": "client1", "not_equals": "ready"},
             "script.expectations[0].not_equals: 'ready' is not a state of a client"),
            ({"check": "station-state", "station": "ap1", "not_equals": "halted"},
             "script.expectations[0].not_equals: 'halted' is not a state of an AP"),
        ],
        ids=["session-on-client", "session-client-is-ap", "mode", "peer", "fallback",
             "client-state", "ap-state"],
    )
    def test_wrong_role(self, check, fragment):
        rejected(minimal(expectations=[check]), fragment)

    def test_second_expectation_is_named(self):
        checks = [{"check": "no-psk-on-wire"},
                  {"check": "frame-count", "frame": "agreemnt", "equals": 0}]
        rejected(minimal(expectations=checks), "script.expectations[1].frame:")

    def test_every_declared_word_loads(self):
        checks = [{"check": "frame-count", "frame": f, "equals": 0} for f in FRAME_KINDS]
        checks += [{"check": "event-count", "event": e, "equals": 0} for e in EVENTS]
        checks += [{"check": "station-state", "station": "client1", "not_equals": s}
                   for s in CLIENT_STATES]
        checks += [{"check": "station-state", "station": "ap1", "equals": s}
                   for s in AP_STATES]
        assert len(script_from_dict(minimal(expectations=checks)).expectations) == len(
            checks
        )

    @pytest.mark.parametrize(
        "check,fragment",
        [
            ({"check": "event-count", "event": "discard", "where": {"reason": "signatur"},
              "at_most": 0},
             "script.expectations[0].where: unknown reason 'signatur'"),
            ({"check": "event-count", "station": "client1", "where": {"rason": "x"},
              "equals": 0},
             "script.expectations[0].where: unknown keys for any record: ['rason']"),
            ({"check": "event-count", "event": "negotiation", "where": {"reason": "timeout"},
              "equals": 0},
             "script.expectations[0].where: unknown keys for a 'negotiation' record: "
             "['reason']"),
            ({"check": "event-count", "event": "transition", "where": {"reason": "signature"},
              "equals": 0},
             "script.expectations[0].where: unknown reason 'signature'"),
            ({"check": "event-count", "where": {"reason": ["phase"]}, "equals": 0},
             "script.expectations[0].where: unknown reason ['phase']"),
            ({"check": "event-count", "where": ["reason"], "equals": 0},
             "script.expectations[0].where: expected dict, got list"),
        ],
        ids=["discard-reason", "unknown-key", "key-of-other-event", "transition-reason",
             "reason-not-a-string", "not-an-object"],
    )
    def test_unknown_where(self, check, fragment):
        rejected(minimal(expectations=[check]), fragment)

    def test_every_declared_where_loads(self):
        checks = [{"check": "event-count", "event": e, "where": {k: 0}, "equals": 0}
                  for e, keys in RECORD_KEYS.items() for k in keys - {"reason"}]
        checks += [{"check": "event-count", "event": e, "where": {"reason": r}, "equals": 0}
                   for e, reasons in REASONS.items() for r in reasons]
        checks += [{"check": "event-count", "where": {"reason": "timeout", "src": "x"},
                    "equals": 0}]
        assert len(script_from_dict(minimal(expectations=checks)).expectations) == len(
            checks
        )

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_runs_stay_inside_the_sets(self, name):
        t = run_scenario(builtin(name), 1)
        assert {r["event"] for r in t.records} <= EVENTS
        for r in t.records:
            assert set(r) <= RECORD_KEYS[r["event"]], r
            if "reason" in r:
                assert r["reason"] in REASONS[r["event"]], r
        assert {r["frame"] for r in t.records if r["event"] == "tx"} <= FRAME_KINDS
        states = {r["to"] for r in t.records if r.get("scope") == "station"}
        states |= {s["state"] for k, s in t.summaries.items() if k != "adversary"}
        assert states <= STATION_STATES


MACS = st.binary(min_size=6, max_size=6).map(lambda b: ":".join(f"{x:02X}" for x in b))
SSIDS = st.text("aZ9-é€", max_size=10)
GROUPS = st.lists(st.sampled_from(sorted(REGISTRY)), min_size=1, max_size=4).map(tuple)
TICKS = st.integers(0, 5000)


@st.composite
def station_configs(draw, station_id, role, index, aps):
    return StationConfig(
        station_id=station_id,
        role=role,
        mac=f"02:00:00:00:{index // 256:02x}:{index % 256:02X}",
        ssid=draw(SSIDS),
        groups=draw(GROUPS),
        soap_aware=draw(st.booleans()),
        legacy_psk=draw(st.none() | st.binary(min_size=32, max_size=32).map(bytes.hex)),
        force_legacy=draw(st.booleans()),
        pin_ap=draw(st.none() | st.sampled_from(aps)) if role == "client" else None,
        beacon_period=draw(st.integers(1, 500)),
        beacon_offset=draw(st.integers(0, 500)),
        debug_leak_psk=draw(st.booleans()),
        advertise_bogus_key=draw(st.booleans()),
    )


@st.composite
def expectations(draw, aps, clients):
    ids = st.sampled_from(aps + clients)
    client_ids = st.sampled_from(clients)

    def states(station):
        return st.sampled_from(sorted(CLIENT_STATES if station in clients else AP_STATES))

    bounds = st.dictionaries(
        st.sampled_from(["equals", "at_least", "at_most"]), TICKS, min_size=1
    )
    text = st.text("abc-", min_size=1, max_size=6)

    def where_objects(event):
        """Up to two keys of `event`'s records (of any record when None)."""
        events = [event] if event is not None else sorted(EVENTS)
        values = {key: text | TICKS for key in set().union(*(RECORD_KEYS[e] for e in events))}
        reasons = set().union(*(REASONS.get(e, ()) for e in events))
        if reasons:
            values["reason"] = st.sampled_from(sorted(reasons))
        return st.lists(st.sampled_from(sorted(values)), max_size=2, unique=True).flatmap(
            lambda keys: st.fixed_dictionaries({key: values[key] for key in keys})
        )
    examples = {
        "station-state": ids.flatmap(lambda station: st.fixed_dictionaries(
            {"station": st.just(station)},
            optional={"equals": states(station), "not_equals": states(station)},
        )).filter(lambda c: "equals" in c or "not_equals" in c),
        "station-mode": st.fixed_dictionaries(
            {"station": client_ids, "equals": st.none() | text}
        ),
        "station-peer": st.fixed_dictionaries(
            {"station": client_ids, "equals": st.none() | text}
        ),
        "psk-count": st.fixed_dictionaries({"station": ids}),
        "psk-distinct": st.fixed_dictionaries({"station": ids}),
        "psk-match": st.fixed_dictionaries({"a": ids, "b": ids}),
        "no-psk-on-wire": st.just({}),
        "frame-count": st.fixed_dictionaries(
            {"frame": st.sampled_from(sorted(FRAME_KINDS))},
            optional={"origin": ids | st.just("adversary"), "after_tick": TICKS},
        ),
        "event-count": st.fixed_dictionaries(
            {},
            optional={
                "event": st.sampled_from(sorted(EVENTS)),
                "station": ids | st.just("adversary"),
                "after_tick": TICKS,
            },
        ).flatmap(lambda check: st.fixed_dictionaries(
            {key: st.just(value) for key, value in check.items()},
            optional={"where": where_objects(check.get("event"))},
        )),
        "blocked-contains": st.fixed_dictionaries({"station": ids, "equals": text}),
        "fallback": st.fixed_dictionaries({"station": client_ids, "equals": st.booleans()}),
        "adversary-knows-psk": st.fixed_dictionaries({"equals": st.booleans()}),
        "ap-session-established": st.fixed_dictionaries(
            {"station": st.sampled_from(aps), "client": st.sampled_from(clients),
             "equals": st.booleans()}
        ),
        "no-transitions-after": st.fixed_dictionaries({"tick": TICKS}),
        "psk-on-wire-hits": st.just({}),
    }
    assert set(examples) == KNOWN_CHECKS
    counts = {"psk-count", "frame-count", "event-count", "psk-on-wire-hits"}
    return [
        {"check": kind, **draw(example), **(draw(bounds) if kind in counts else {})}
        for kind, example in examples.items()
    ]


@st.composite
def adversary_configs(draw, aps, clients):
    """An adversary that sets only fields its capabilities read."""
    capabilities = draw(st.lists(st.sampled_from(sorted(KNOWN_CAPABILITIES)), unique=True))
    optional = {
        "ssid": st.none() | SSIDS,
        "groups": GROUPS,
        "beacon_period": st.integers(1, 500),
        "beacon_offset": st.integers(0, 500),
        "advertise_bogus_key": st.booleans(),
        "replay_at": st.none() | TICKS,
        "disassoc_at": st.none() | TICKS,
        "target_ap": st.none() | st.sampled_from(aps),
        "target_client": st.none() | st.sampled_from(clients),
    }
    assert set(optional) == set(ADVERSARY_FIELD_READERS)
    read = {
        key: draw(values)
        for key, values in optional.items()
        if ADVERSARY_FIELD_READERS[key] & set(capabilities)
    }
    return AdversaryConfig(capabilities=tuple(capabilities), mac=draw(MACS), **read)


@st.composite
def valid_scripts(draw):
    aps = [f"ap{i}" for i in range(draw(st.integers(1, 2)))]
    clients = [f"client{i}" for i in range(draw(st.integers(1, 2)))]
    stations = [
        draw(station_configs(sid, "ap" if sid in aps else "client", i, aps))
        for i, sid in enumerate(aps + clients)
    ]
    adversary = draw(st.none() | adversary_configs(aps, clients))
    if adversary is not None:
        assume(parse_mac(adversary.mac) not in {parse_mac(s.mac) for s in stations})
    return ScenarioScript(
        name=draw(st.text(max_size=8)),
        stations=stations,
        adversary=adversary,
        mitigations=Mitigations(
            blacklist_threshold=draw(st.none() | st.integers(1, 10)),
            sign_management_frames=draw(st.booleans()),
        ),
        schedule=draw(st.lists(st.builds(
            ScheduleAction, tick=TICKS, station=st.sampled_from(clients),
            action=st.just("reset"),
        ), max_size=3)),
        expectations=draw(expectations(aps, clients)),
        max_ticks=draw(st.integers(1, MAX_TICKS)),
        identity_seed=draw(st.integers(-(2**40), 2**40)),
        strict_frames=draw(st.booleans()),
    )


class TestDerivedSchema:
    """The loader and the dumper follow the record fields."""

    @settings(max_examples=60)
    @given(valid_scripts())
    def test_round_trip_through_json(self, script):
        assert script_from_dict(json.loads(json.dumps(script_to_dict(script)))) == script

    def test_defaults_are_left_out(self):
        assert script_to_dict(script_from_dict(minimal())) == minimal()

    def test_tuples_dump_as_lists(self):
        data = script_to_dict(builtin("eavesdrop"))
        assert data["adversary"] == {"capabilities": ["eavesdrop"]}


class TestDictRoundTrip:
    """Serialization reaches a fixpoint and preserves behavior."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_to_dict_fixpoint(self, name):
        original = script_to_dict(builtin(name))
        recovered = script_to_dict(script_from_dict(json.loads(json.dumps(original))))
        assert recovered == original

    @pytest.mark.parametrize("name", ["benign", "inject-mitigated", "ephemeral"])
    def test_round_trip_preserves_transcript(self, name):
        script = builtin(name)
        clone = script_from_dict(script_to_dict(script))
        assert run_scenario(clone, 5).to_json() == run_scenario(script, 5).to_json()


@pytest.fixture(scope="module")
def benign_transcript():
    return run_scenario(builtin("benign"), 3)


class TestEvaluateCheck:
    """Each check kind reads the right part of a transcript."""

    def test_station_state_equals(self, benign_transcript):
        r = evaluate_check(
            {"check": "station-state", "station": "client1", "equals": "established"},
            benign_transcript,
        )
        assert r.ok and "established" in r.detail

    def test_station_state_not_equals(self, benign_transcript):
        r = evaluate_check(
            {"check": "station-state", "station": "client1", "not_equals": "halted"},
            benign_transcript,
        )
        assert r.ok

    def test_station_state_failure(self, benign_transcript):
        r = evaluate_check(
            {"check": "station-state", "station": "client1", "equals": "halted"},
            benign_transcript,
        )
        assert not r.ok

    def test_station_mode_and_peer(self, benign_transcript):
        assert evaluate_check(
            {"check": "station-mode", "station": "client1", "equals": "soap"},
            benign_transcript,
        ).ok
        assert evaluate_check(
            {"check": "station-peer", "station": "client1", "equals": "ap1"},
            benign_transcript,
        ).ok

    def test_psk_count_bounds(self, benign_transcript):
        check = {"check": "psk-count", "station": "client1"}
        assert evaluate_check({**check, "equals": 1}, benign_transcript).ok
        assert evaluate_check({**check, "at_least": 1}, benign_transcript).ok
        assert evaluate_check({**check, "at_most": 1}, benign_transcript).ok
        miss = evaluate_check({**check, "equals": 9}, benign_transcript)
        assert not miss.ok and "count 1 != 9" in miss.detail

    def test_psk_distinct_and_match(self, benign_transcript):
        assert evaluate_check(
            {"check": "psk-distinct", "station": "client1"}, benign_transcript
        ).ok
        assert evaluate_check(
            {"check": "psk-match", "a": "ap1", "b": "client1"}, benign_transcript
        ).ok

    def test_no_psk_on_wire(self, benign_transcript):
        assert evaluate_check({"check": "no-psk-on-wire"}, benign_transcript).ok

    def test_frame_count_with_origin(self, benign_transcript):
        r = evaluate_check(
            {"check": "frame-count", "frame": "agreement", "equals": 2},
            benign_transcript,
        )
        assert r.ok and r.detail == "count 2"
        assert evaluate_check(
            {
                "check": "frame-count",
                "frame": "agreement",
                "origin": "adversary",
                "equals": 0,
            },
            benign_transcript,
        ).ok

    def test_frame_count_counts_only_transmissions(self):
        # the adversary's "deleted" records carry a frame kind too
        t = run_scenario(builtin("delete-intercept"), 3)
        sent = [r for r in t.records if r["event"] == "tx" and r["frame"] == "agreement"]
        assert any(r["event"] == "deleted" for r in t.records)
        r = evaluate_check(
            {"check": "frame-count", "frame": "agreement", "equals": len(sent)}, t
        )
        assert r.ok and r.detail == f"count {len(sent)}"

    def test_event_count_filters(self, benign_transcript):
        r = evaluate_check(
            {"check": "event-count", "event": "negotiation", "station": "client1",
             "at_least": 1},
            benign_transcript,
        )
        assert r.ok
        assert evaluate_check(
            {"check": "event-count", "event": "negotiation", "after_tick": 10**6,
             "equals": 0},
            benign_transcript,
        ).ok
        assert evaluate_check(
            {"check": "event-count", "event": "negotiation",
             "where": {"outcome": "group-26"}, "at_least": 1},
            benign_transcript,
        ).ok

    def test_blocked_contains_failure(self, benign_transcript):
        r = evaluate_check(
            {"check": "blocked-contains", "station": "client1", "equals": "adversary"},
            benign_transcript,
        )
        assert not r.ok and "blocked=[]" in r.detail

    def test_fallback_and_adversary_knowledge(self, benign_transcript):
        assert evaluate_check(
            {"check": "fallback", "station": "client1", "equals": False},
            benign_transcript,
        ).ok
        assert evaluate_check(
            {"check": "adversary-knows-psk", "equals": False}, benign_transcript
        ).ok

    def test_ap_session_established(self, benign_transcript):
        assert evaluate_check(
            {"check": "ap-session-established", "station": "ap1", "client": "client1",
             "equals": True},
            benign_transcript,
        ).ok

    def test_no_transitions_after(self, benign_transcript):
        assert evaluate_check(
            {"check": "no-transitions-after", "tick": 10**6}, benign_transcript
        ).ok
        early = evaluate_check(
            {"check": "no-transitions-after", "tick": 0}, benign_transcript
        )
        assert not early.ok

    def test_psk_on_wire_hits(self, benign_transcript):
        assert evaluate_check(
            {"check": "psk-on-wire-hits", "equals": 0}, benign_transcript
        ).ok

    def test_unknown_kind_fails_closed(self, benign_transcript):
        r = evaluate_check({"check": "psychic"}, benign_transcript)
        assert not r.ok and "unknown check kind" in r.detail

    @pytest.mark.parametrize("kind", [["station-state"], None])
    def test_kind_that_is_not_a_string_fails_closed(self, benign_transcript, kind):
        r = evaluate_check({"check": kind}, benign_transcript)
        assert not r.ok and "unknown check kind" in r.detail

    def test_missing_key_fails_closed(self, benign_transcript):
        r = evaluate_check({"check": "station-state"}, benign_transcript)
        assert not r.ok and "missing key" in r.detail

    @pytest.mark.parametrize(
        "check",
        [
            {"check": "psk-count", "station": "client1"},
            {"check": "station-state", "station": "client1"},
            {"check": "psk-on-wire-hits"},
        ],
    )
    def test_missing_bound_fails_closed(self, benign_transcript, check):
        r = evaluate_check(check, benign_transcript)
        assert not r.ok and "missing key" in r.detail

    def test_state_equals_and_not_equals_both_hold(self, benign_transcript):
        check = {"check": "station-state", "station": "client1", "equals": "established"}
        assert evaluate_check({**check, "not_equals": "halted"}, benign_transcript).ok
        assert not evaluate_check(
            {**check, "not_equals": "established"}, benign_transcript
        ).ok

    def test_evaluate_expectations_runs_all(self, benign_transcript):
        script = builtin("benign")
        results = evaluate_expectations(script, benign_transcript)
        assert len(results) == len(script.expectations)
        assert all(r.ok for r in results)


class TestBuiltins:
    """The named scenario library."""

    def test_names_sorted_and_known(self):
        assert list(BUILTIN_NAMES) == sorted(BUILTIN_NAMES)
        for expected in (
            "benign",
            "benign-strict",
            "ephemeral",
            "eavesdrop",
            "replay-attack",
            "inject-unmitigated",
            "inject-mitigated",
            "masquerade-unmitigated",
            "masquerade-mitigated",
            "hijack-disassoc-unmitigated",
            "hijack-disassoc-mitigated",
            "hijack-mitm",
            "delete-intercept",
            "leak-selftest",
        ):
            assert expected in BUILTIN_NAMES

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ScenarioError) as err:
            builtin("nope")
        assert "nope" in str(err.value)
        assert "benign" in str(err.value)

    def test_each_call_returns_fresh_script(self):
        a = builtin("benign")
        b = builtin("benign")
        assert a is not b
        a.expectations.append({"check": "fallback"})
        assert len(builtin("benign").expectations) == len(b.expectations)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_every_builtin_meets_its_expectations(self, name):
        script = builtin(name)
        assert script.expectations
        results = evaluate_expectations(script, run_scenario(script, 11))
        failures = [r for r in results if not r.ok]
        assert failures == []


class TestSuitePlan:
    """Threat rows, variants, and verdict vocabulary."""

    def test_shape(self):
        rows = [row for row, _ in SUITE_PLAN]
        assert rows == [
            "ephemeral-psk",
            "key-strength",
            "eavesdropping",
            "replay",
            "delete-intercept",
            "injection",
            "masquerade",
            "hijack",
        ]
        variants = [v for _, vs in SUITE_PLAN for v in vs]
        assert len(variants) == 12

    def test_verdict_vocabulary(self):
        verdicts = {verdict for _, vs in SUITE_PLAN for (_, _, verdict) in vs}
        assert verdicts == {"secure", "vulnerable", "mitigated"}

    def test_scenarios_resolve(self):
        for _, vs in SUITE_PLAN:
            for _, scenario, _ in vs:
                assert scenario is None or scenario in BUILTIN_NAMES

    def test_capability_and_check_vocabularies_are_closed(self):
        for name in BUILTIN_NAMES:
            script = builtin(name)
            if script.adversary is not None:
                assert set(script.adversary.capabilities) <= KNOWN_CAPABILITIES
            assert {c["check"] for c in script.expectations} <= KNOWN_CHECKS


@pytest.fixture(scope="module")
def report():
    return run_attack_suite(7)


class TestSuiteRun:
    """End-to-end suite execution and report rendering."""

    def test_all_rows_pass(self, report):
        assert report.passed
        assert [r.verdict for r in report.rows] == [
            verdict for _, vs in SUITE_PLAN for (_, _, verdict) in vs
        ]

    def test_text_rendering(self, report):
        text = report.to_text()
        assert "attack suite (seed 7)" in text
        assert "threat" in text and "verdict" in text
        assert "overall: pass" in text
        assert "FAIL" not in text

    def test_text_deterministic(self, report):
        assert run_attack_suite(7).to_text() == report.to_text()

    def test_json_rendering(self, report):
        data = json.loads(report.to_json())
        assert data["passed"] is True
        assert data["seed"] == 7
        assert len(data["rows"]) == 12
        assert all(row["checks"] for row in data["rows"])

    def test_failed_row_renders_detail(self):
        bad = SuiteRowResult(
            row="injection",
            variant="unmitigated",
            scenario="inject-unmitigated",
            verdict="vulnerable",
            ok=False,
            checks=[CheckResult("station-state client1", False, "state=ready")],
        )
        text = SuiteReport(seed=1, rows=[bad]).to_text()
        assert "FAIL" in text
        assert "failed: station-state client1 (state=ready)" in text
        assert "overall: FAIL" in text
