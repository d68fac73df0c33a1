"""Scenario scripts: a JSON schema with strict validation, an expectation
evaluator over run transcripts, a library of built-in scenarios, and the
attack suite that walks the whole threat table."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .crypto import REGISTRY
from .simnet import (
    AdversaryConfig,
    Mitigations,
    ScenarioScript,
    ScheduleAction,
    StationConfig,
    Transcript,
    eavesdropper_view,
    parse_mac,
    run_scenario,
)

KNOWN_CAPABILITIES = frozenset(
    {
        "eavesdrop",
        "replay",
        "inject",
        "masquerade",
        "mitm-substitute",
        "delete-intercept",
        "disassoc-inject",
    }
)

KNOWN_CHECKS = frozenset(
    {
        "station-state",
        "station-mode",
        "station-peer",
        "psk-count",
        "psk-distinct",
        "psk-match",
        "no-psk-on-wire",
        "frame-count",
        "event-count",
        "blocked-contains",
        "fallback",
        "adversary-knows-psk",
        "ap-session-established",
        "no-transitions-after",
        "psk-on-wire-hits",
    }
)


MAX_SSID_OCTETS = 32  # the 802.11 limit


class ScenarioError(ValueError):
    """Script rejected: message carries the offending location."""


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ScenarioError(f"{where}: {message}")


def _is_int(value) -> bool:
    """True for a JSON integer; a JSON boolean is not one, though bool is an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _take(d: dict, where: str, allowed: dict) -> dict:
    """Pop known keys with type checks; reject anything left over."""
    out = {}
    for key, kinds in allowed.items():
        if key in d:
            value = d.pop(key)
            if kinds is not None:
                _require(
                    _is_int(value) if kinds is int else isinstance(value, kinds),
                    f"{where}.{key}",
                    f"expected {kinds if isinstance(kinds, type) else 'one of several types'},"
                    f" got {type(value).__name__}",
                )
            out[key] = value
    _require(not d, where, f"unknown keys: {sorted(d)}")
    return out


def _check_radio(got: dict, where: str) -> None:
    """The fields a station and the adversary share: MAC, SSID, groups and
    beacon timing."""
    if "mac" in got:
        try:
            parse_mac(got["mac"])
        except ValueError as exc:
            raise ScenarioError(f"{where}.mac: {exc}") from None
    if "ssid" in got:
        try:
            octets = len(got["ssid"].encode())
        except UnicodeEncodeError:
            raise ScenarioError(f"{where}.ssid: not encodable as UTF-8") from None
        _require(
            octets <= MAX_SSID_OCTETS,
            f"{where}.ssid",
            f"must be at most {MAX_SSID_OCTETS} octets of UTF-8, got {octets}",
        )
    if "groups" in got:
        _require(
            all(_is_int(g) for g in got["groups"]) and got["groups"],
            f"{where}.groups",
            "must be a non-empty list of integers",
        )
        for gid in got["groups"]:
            _require(gid in REGISTRY, f"{where}.groups", f"unregistered group id {gid}")
        got["groups"] = tuple(got["groups"])
    _require(
        got.get("beacon_period", 1) >= 1, f"{where}.beacon_period", "must be >= 1"
    )
    _require(
        got.get("beacon_offset", 0) >= 0, f"{where}.beacon_offset", "must be >= 0"
    )


def _station_from_dict(d: dict, where: str) -> StationConfig:
    _require(isinstance(d, dict), where, "station must be an object")
    d = dict(d)
    got = _take(
        d,
        where,
        {
            "station_id": str,
            "role": str,
            "mac": str,
            "ssid": str,
            "groups": list,
            "soap_aware": bool,
            "legacy_psk": str,
            "force_legacy": bool,
            "pin_ap": str,
            "beacon_period": int,
            "beacon_offset": int,
            "debug_leak_psk": bool,
            "advertise_bogus_key": bool,
        },
    )
    for key in ("station_id", "role", "mac"):
        _require(key in got, where, f"missing required key {key!r}")
    _require(got["role"] in ("client", "ap"), f"{where}.role", "must be 'client' or 'ap'")
    _check_radio(got, where)
    if "legacy_psk" in got:
        try:
            raw = bytes.fromhex(got["legacy_psk"])
        except ValueError:
            raise ScenarioError(f"{where}.legacy_psk: not hex") from None
        _require(len(raw) == 32, f"{where}.legacy_psk", "must be 32 octets of hex")
    return StationConfig(**got)


def _adversary_from_dict(d: dict, where: str) -> AdversaryConfig:
    _require(isinstance(d, dict), where, "adversary must be an object")
    d = dict(d)
    got = _take(
        d,
        where,
        {
            "capabilities": list,
            "mac": str,
            "ssid": str,
            "groups": list,
            "beacon_period": int,
            "beacon_offset": int,
            "advertise_bogus_key": bool,
            "replay_at": int,
            "disassoc_at": int,
            "target_ap": str,
            "target_client": str,
        },
    )
    caps = got.get("capabilities", [])
    unknown = set(caps) - KNOWN_CAPABILITIES
    _require(not unknown, f"{where}.capabilities", f"unknown: {sorted(unknown)}")
    got["capabilities"] = tuple(caps)
    _check_radio(got, where)
    for key in ("replay_at", "disassoc_at"):
        _require(got.get(key, 0) >= 0, f"{where}.{key}", "must be >= 0")
    return AdversaryConfig(**got)


def script_from_dict(data: dict) -> ScenarioScript:
    _require(isinstance(data, dict), "script", "top level must be an object")
    data = dict(data)
    got = _take(
        data,
        "script",
        {
            "name": str,
            "stations": list,
            "adversary": dict,
            "mitigations": dict,
            "schedule": list,
            "expectations": list,
            "max_ticks": int,
            "identity_seed": int,
            "strict_frames": bool,
        },
    )
    _require("name" in got, "script", "missing required key 'name'")
    _require(
        bool(got.get("stations")), "script.stations", "at least one station required"
    )
    stations = [
        _station_from_dict(s, f"script.stations[{i}]")
        for i, s in enumerate(got["stations"])
    ]
    ids = [s.station_id for s in stations]
    _require(len(ids) == len(set(ids)), "script.stations", "duplicate station_id")
    macs = [parse_mac(s.mac) for s in stations]
    _require(len(macs) == len(set(macs)), "script.stations", "duplicate mac")
    for i, s in enumerate(stations):
        if s.pin_ap is not None:
            _require(
                s.pin_ap in ids,
                f"script.stations[{i}].pin_ap",
                f"unknown station {s.pin_ap!r}",
            )

    adversary = None
    if "adversary" in got:
        adversary = _adversary_from_dict(got["adversary"], "script.adversary")
        for key in ("target_ap", "target_client"):
            ref = getattr(adversary, key)
            _require(
                ref is None or ref in ids,
                f"script.adversary.{key}",
                f"unknown station {ref!r}",
            )

    mitigations = Mitigations()
    if "mitigations" in got:
        m = _take(
            dict(got["mitigations"]),
            "script.mitigations",
            {"blacklist_threshold": int, "sign_management_frames": bool},
        )
        threshold = m.get("blacklist_threshold")
        _require(
            threshold is None or threshold >= 1,
            "script.mitigations.blacklist_threshold",
            "must be >= 1",
        )
        mitigations = Mitigations(
            blacklist_threshold=threshold,
            sign_management_frames=m.get("sign_management_frames", False),
        )

    schedule = []
    for i, entry in enumerate(got.get("schedule", [])):
        where = f"script.schedule[{i}]"
        e = _take(dict(entry), where, {"tick": int, "station": str, "action": str})
        for key in ("tick", "station", "action"):
            _require(key in e, where, f"missing required key {key!r}")
        _require(e["tick"] >= 0, f"{where}.tick", "must be >= 0")
        _require(e["station"] in ids, f"{where}.station", f"unknown station")
        _require(e["action"] == "reset", f"{where}.action", "only 'reset' is defined")
        schedule.append(ScheduleAction(e["tick"], e["station"], e["action"]))

    expectations = got.get("expectations", [])
    for i, check in enumerate(expectations):
        where = f"script.expectations[{i}]"
        _require(isinstance(check, dict), where, "must be an object")
        _require("check" in check, where, "missing required key 'check'")
        _require(
            check["check"] in KNOWN_CHECKS,
            f"{where}.check",
            f"unknown check {check['check']!r}",
        )

    max_ticks = got.get("max_ticks", 3000)
    _require(max_ticks >= 1, "script.max_ticks", "must be >= 1")

    return ScenarioScript(
        name=got["name"],
        stations=stations,
        adversary=adversary,
        mitigations=mitigations,
        schedule=schedule,
        expectations=list(expectations),
        max_ticks=max_ticks,
        identity_seed=got.get("identity_seed", 0),
        strict_frames=got.get("strict_frames", False),
    )


def script_to_dict(script: ScenarioScript) -> dict:
    def clean(d: dict) -> dict:
        return {k: v for k, v in d.items() if v is not None}

    out: dict = {
        "name": script.name,
        "max_ticks": script.max_ticks,
        "identity_seed": script.identity_seed,
        "strict_frames": script.strict_frames,
        "stations": [],
        "expectations": script.expectations,
    }
    for s in script.stations:
        out["stations"].append(
            clean(
                {
                    "station_id": s.station_id,
                    "role": s.role,
                    "mac": s.mac,
                    "ssid": s.ssid,
                    "groups": list(s.groups),
                    "soap_aware": s.soap_aware,
                    "legacy_psk": s.legacy_psk,
                    "force_legacy": s.force_legacy or None,
                    "pin_ap": s.pin_ap,
                    "beacon_period": s.beacon_period,
                    "beacon_offset": s.beacon_offset,
                    "debug_leak_psk": s.debug_leak_psk or None,
                    "advertise_bogus_key": s.advertise_bogus_key or None,
                }
            )
        )
    if script.adversary is not None:
        a = script.adversary
        out["adversary"] = clean(
            {
                "capabilities": list(a.capabilities),
                "mac": a.mac,
                "ssid": a.ssid,
                "groups": list(a.groups),
                "beacon_period": a.beacon_period,
                "beacon_offset": a.beacon_offset,
                "advertise_bogus_key": a.advertise_bogus_key or None,
                "replay_at": a.replay_at,
                "disassoc_at": a.disassoc_at,
                "target_ap": a.target_ap,
                "target_client": a.target_client,
            }
        )
    if script.mitigations.blacklist_threshold is not None or (
        script.mitigations.sign_management_frames
    ):
        out["mitigations"] = clean(
            {
                "blacklist_threshold": script.mitigations.blacklist_threshold,
                "sign_management_frames": script.mitigations.sign_management_frames
                or None,
            }
        )
    if script.schedule:
        out["schedule"] = [
            {"tick": a.tick, "station": a.station, "action": a.action}
            for a in script.schedule
        ]
    return out


def load_script(text: str) -> ScenarioScript:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"script: not valid JSON ({exc})") from None
    return script_from_dict(data)


# ---------------------------------------------------------------------------
# Expectation evaluation
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _records(transcript: Transcript, check: dict):
    for r in transcript.records:
        if r["event"] != check.get("event", r["event"]):
            continue
        if "station" in check and r.get("station") != check["station"]:
            continue
        if "after_tick" in check and r["tick"] <= check["after_tick"]:
            continue
        where = check.get("where", {})
        if any(r.get(k) != v for k, v in where.items()):
            continue
        yield r


def _count_ok(check: dict, count: int) -> tuple[bool, str]:
    if "equals" in check and count != check["equals"]:
        return False, f"count {count} != {check['equals']}"
    if "at_least" in check and count < check["at_least"]:
        return False, f"count {count} < {check['at_least']}"
    if "at_most" in check and count > check["at_most"]:
        return False, f"count {count} > {check['at_most']}"
    return True, f"count {count}"


def evaluate_check(check: dict, transcript: Transcript) -> CheckResult:
    kind = check["check"]
    name = " ".join(
        str(v) for v in (kind, check.get("station"), check.get("frame"), check.get("event"))
        if v
    )
    summaries = transcript.summaries
    try:
        if kind == "station-state":
            state = summaries[check["station"]]["state"]
            if "equals" in check:
                ok = state == check["equals"]
            else:
                ok = state != check["not_equals"]
            return CheckResult(name, ok, f"state={state}")
        if kind == "station-mode":
            mode = summaries[check["station"]].get("mode")
            return CheckResult(name, mode == check["equals"], f"mode={mode}")
        if kind == "station-peer":
            peer = summaries[check["station"]].get("peer")
            return CheckResult(name, peer == check["equals"], f"peer={peer}")
        if kind == "psk-count":
            count = summaries[check["station"]]["psk_count"]
            ok, detail = _count_ok(check, count)
            return CheckResult(name, ok, detail)
        if kind == "psk-distinct":
            psks = transcript.secrets[check["station"]]["psks"]
            ok = len(psks) == len(set(psks))
            return CheckResult(name, ok, f"{len(set(psks))} distinct of {len(psks)}")
        if kind == "psk-match":
            a = transcript.secrets[check["a"]]["psks"]
            b = transcript.secrets[check["b"]]["psks"]
            ok = bool(a) and bool(b) and a[-1] == b[-1]
            return CheckResult(name, ok, "last PSKs equal" if ok else "mismatch or missing")
        if kind == "no-psk-on-wire":
            view = eavesdropper_view(transcript)
            ok = view["psk_octets_on_wire"] == 0 and view["kck_octets_on_wire"] == 0
            return CheckResult(name, ok, f"psk hits {view['psk_octets_on_wire']}")
        if kind == "frame-count":
            count = sum(
                1
                for r in transcript.records
                if r["event"] == "tx" and r["frame"] == check["frame"]
                and r.get("origin") == check.get("origin", r.get("origin"))
                and ("after_tick" not in check or r["tick"] > check["after_tick"])
            )
            ok, detail = _count_ok(check, count)
            return CheckResult(name, ok, detail)
        if kind == "event-count":
            count = sum(1 for _ in _records(transcript, check))
            ok, detail = _count_ok(check, count)
            return CheckResult(name, ok, detail)
        if kind == "blocked-contains":
            blocked = summaries[check["station"]]["blocked"]
            ok = check["equals"] in blocked
            return CheckResult(name, ok, f"blocked={blocked}")
        if kind == "fallback":
            got = summaries[check["station"]].get("fallback")
            return CheckResult(name, got == check["equals"], f"fallback={got}")
        if kind == "adversary-knows-psk":
            view = eavesdropper_view(transcript)
            got = view["adversary_knows_legit_psk"]
            return CheckResult(name, got == check["equals"], f"knows={got}")
        if kind == "ap-session-established":
            sessions = summaries[check["station"]]["sessions"]
            got = bool(sessions.get(check["client"], {}).get("established"))
            return CheckResult(name, got == check["equals"], f"established={got}")
        if kind == "no-transitions-after":
            count = sum(
                1
                for r in transcript.records
                if r["event"] == "transition" and r["tick"] > check["tick"]
            )
            return CheckResult(name, count == 0, f"{count} transitions")
        if kind == "psk-on-wire-hits":
            view = eavesdropper_view(transcript)
            ok, detail = _count_ok(check, view["psk_octets_on_wire"])
            return CheckResult(name, ok, detail)
    except KeyError as exc:
        return CheckResult(name, False, f"missing key {exc} in check or transcript")
    return CheckResult(name, False, f"unknown check kind {kind!r}")


def evaluate_expectations(
    script: ScenarioScript, transcript: Transcript
) -> list[CheckResult]:
    return [evaluate_check(check, transcript) for check in script.expectations]


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------

_AP_MAC = "02:00:00:00:00:01"
_CLIENT_MAC = "02:00:00:00:00:02"
_SSID = "publicnet"
_LEGACY_PSK = "2b7e151628aed2a6abf7158809cf4f3c762e7160f38b4da56a784d9045190cfe"


def _pair(ap_groups=(26,), client_groups=(26,), **kw):
    ap = StationConfig(
        "ap1", "ap", _AP_MAC, ssid=_SSID, groups=tuple(ap_groups),
        beacon_offset=kw.pop("ap_beacon_offset", 0),
    )
    client = StationConfig(
        "client1", "client", _CLIENT_MAC, ssid=_SSID, groups=tuple(client_groups)
    )
    for key, value in kw.pop("ap_kw", {}).items():
        setattr(ap, key, value)
    for key, value in kw.pop("client_kw", {}).items():
        setattr(client, key, value)
    assert not kw, kw
    return [ap, client]


_ESTABLISHED_PAIR = [
    {"check": "station-state", "station": "client1", "equals": "established"},
    {"check": "ap-session-established", "station": "ap1", "client": "client1",
     "equals": True},
    {"check": "psk-match", "a": "ap1", "b": "client1"},
    {"check": "no-psk-on-wire"},
]


def _benign(name="benign", strict=False):
    return ScenarioScript(
        name=name,
        stations=_pair(),
        max_ticks=600,
        strict_frames=strict,
        expectations=_ESTABLISHED_PAIR
        + [
            {"check": "station-mode", "station": "client1", "equals": "soap"},
            {"check": "frame-count", "frame": "agreement", "equals": 2},
            {"check": "frame-count", "frame": "eapol-key", "equals": 4},
            {"check": "station-peer", "station": "client1", "equals": "ap1"},
        ],
    )


def _benign_multigroup():
    return ScenarioScript(
        name="benign-multigroup",
        stations=_pair(ap_groups=(26, 19, 20, 21), client_groups=(19, 20)),
        max_ticks=600,
        expectations=_ESTABLISHED_PAIR
        + [
            {"check": "event-count", "event": "negotiation",
             "where": {"outcome": "group-20"}, "at_least": 1},
        ],
    )


def _legacy(name, ap_aware, client_aware, force=False, expect_fallback=False):
    stations = _pair(
        ap_kw={"soap_aware": ap_aware, "legacy_psk": _LEGACY_PSK},
        client_kw={
            "soap_aware": client_aware,
            "legacy_psk": _LEGACY_PSK,
            "force_legacy": force,
        },
    )
    return ScenarioScript(
        name=name,
        stations=stations,
        max_ticks=600,
        expectations=[
            {"check": "station-state", "station": "client1", "equals": "established"},
            {"check": "station-mode", "station": "client1", "equals": "legacy"},
            {"check": "frame-count", "frame": "agreement", "equals": 0},
            {"check": "frame-count", "frame": "eapol-key", "equals": 4},
            {"check": "fallback", "station": "client1", "equals": expect_fallback},
            {"check": "no-psk-on-wire"},
        ],
    )


def _fallback_disjoint():
    script = _legacy("fallback-disjoint", True, True, expect_fallback=True)
    script.stations[0].groups = (26,)
    script.stations[1].groups = (19,)
    return script


def _ephemeral():
    resets = [ScheduleAction(t, "client1", "reset") for t in (400, 800, 1200, 1600)]
    return ScenarioScript(
        name="ephemeral",
        stations=_pair(),
        schedule=resets,
        max_ticks=2200,
        expectations=[
            {"check": "station-state", "station": "client1", "equals": "established"},
            {"check": "psk-count", "station": "client1", "equals": 5},
            {"check": "psk-count", "station": "ap1", "equals": 5},
            {"check": "psk-distinct", "station": "client1"},
            {"check": "psk-distinct", "station": "ap1"},
            {"check": "psk-match", "a": "ap1", "b": "client1"},
            {"check": "no-psk-on-wire"},
        ],
    )


def _eavesdrop():
    return ScenarioScript(
        name="eavesdrop",
        stations=_pair(),
        adversary=AdversaryConfig(capabilities=("eavesdrop",)),
        max_ticks=600,
        expectations=_ESTABLISHED_PAIR
        + [
            {"check": "adversary-knows-psk", "equals": False},
            {"check": "frame-count", "frame": "agreement", "equals": 2},
        ],
    )


def _replay_attack():
    return ScenarioScript(
        name="replay-attack",
        stations=_pair(),
        adversary=AdversaryConfig(capabilities=("replay",), replay_at=1000),
        max_ticks=1400,
        expectations=_ESTABLISHED_PAIR
        + [
            {"check": "psk-count", "station": "client1", "equals": 1},
            {"check": "psk-count", "station": "ap1", "equals": 1},
            {"check": "no-transitions-after", "tick": 1000},
            {"check": "event-count", "event": "discard", "after_tick": 1000,
             "at_least": 3},
            {"check": "adversary-knows-psk", "equals": False},
        ],
    )


def _delete_intercept():
    return ScenarioScript(
        name="delete-intercept",
        stations=_pair(),
        adversary=AdversaryConfig(capabilities=("delete-intercept",)),
        max_ticks=1200,
        expectations=[
            {"check": "station-state", "station": "client1",
             "not_equals": "established"},
            {"check": "ap-session-established", "station": "ap1",
             "client": "client1", "equals": False},
            {"check": "event-count", "event": "deleted", "at_least": 1},
            {"check": "psk-count", "station": "client1", "equals": 0},
            {"check": "adversary-knows-psk", "equals": False},
        ],
    )


def _inject(mitigated: bool):
    name = "inject-mitigated" if mitigated else "inject-unmitigated"
    script = ScenarioScript(
        name=name,
        stations=_pair(ap_beacon_offset=50),
        adversary=AdversaryConfig(
            capabilities=("inject",),
            ssid=_SSID,
            beacon_period=25,
            advertise_bogus_key=True,
        ),
        mitigations=Mitigations(blacklist_threshold=3 if mitigated else None),
        max_ticks=3000,
    )
    if mitigated:
        script.expectations = _ESTABLISHED_PAIR + [
            {"check": "station-peer", "station": "client1", "equals": "ap1"},
            {"check": "blocked-contains", "station": "client1", "equals": "adversary"},
            {"check": "event-count", "event": "blacklisted", "at_least": 1},
        ]
    else:
        script.expectations = [
            {"check": "ap-session-established", "station": "ap1",
             "client": "client1", "equals": False},
            {"check": "psk-count", "station": "client1", "equals": 0},
            {"check": "event-count", "event": "discard",
             "where": {"reason": "signature"}, "at_least": 3},
            {"check": "adversary-knows-psk", "equals": False},
        ]
    return script


def _masquerade(mitigated: bool):
    name = "masquerade-mitigated" if mitigated else "masquerade-unmitigated"
    stations = _pair(ap_beacon_offset=50)
    if mitigated:
        stations[1].pin_ap = "ap1"
    script = ScenarioScript(
        name=name,
        stations=stations,
        adversary=AdversaryConfig(
            capabilities=("masquerade",), ssid=_SSID, beacon_period=25
        ),
        max_ticks=900,
    )
    if mitigated:
        script.expectations = _ESTABLISHED_PAIR + [
            {"check": "station-peer", "station": "client1", "equals": "ap1"},
            {"check": "adversary-knows-psk", "equals": False},
            {"check": "event-count", "event": "discard",
             "where": {"reason": "pinned-mismatch"}, "at_least": 1},
        ]
    else:
        script.expectations = [
            {"check": "station-state", "station": "client1", "equals": "established"},
            {"check": "station-peer", "station": "client1", "equals": "adversary"},
            {"check": "adversary-knows-psk", "equals": True},
            {"check": "ap-session-established", "station": "ap1",
             "client": "client1", "equals": False},
        ]
    return script


def _hijack_disassoc(mitigated: bool):
    name = "hijack-disassoc-mitigated" if mitigated else "hijack-disassoc-unmitigated"
    script = ScenarioScript(
        name=name,
        stations=_pair(),
        adversary=AdversaryConfig(capabilities=("disassoc-inject",), disassoc_at=600),
        mitigations=Mitigations(sign_management_frames=mitigated),
        max_ticks=900,
    )
    if mitigated:
        script.expectations = _ESTABLISHED_PAIR + [
            {"check": "event-count", "event": "discard",
             "where": {"context": "mgmt"}, "at_least": 1},
        ]
    else:
        script.expectations = [
            {"check": "station-state", "station": "client1", "equals": "halted"},
            {"check": "frame-count", "frame": "disassoc", "origin": "adversary",
             "equals": 1},
        ]
    return script


def _hijack_mitm():
    return ScenarioScript(
        name="hijack-mitm",
        stations=_pair(),
        adversary=AdversaryConfig(capabilities=("mitm-substitute",)),
        max_ticks=1500,
        expectations=[
            {"check": "station-state", "station": "client1",
             "not_equals": "established"},
            {"check": "ap-session-established", "station": "ap1",
             "client": "client1", "equals": False},
            {"check": "psk-count", "station": "client1", "equals": 0},
            {"check": "psk-count", "station": "ap1", "equals": 0},
            {"check": "event-count", "event": "mitm-substituted", "at_least": 1},
            {"check": "adversary-knows-psk", "equals": False},
        ],
    )


def _leak_selftest():
    return ScenarioScript(
        name="leak-selftest",
        stations=_pair(ap_kw={"debug_leak_psk": True}),
        max_ticks=700,
        expectations=[
            {"check": "station-state", "station": "client1", "equals": "established"},
            {"check": "psk-on-wire-hits", "at_least": 1},
        ],
    )


_BUILTIN_BUILDERS = {
    "benign": lambda: _benign(),
    "benign-strict": lambda: _benign("benign-strict", strict=True),
    "benign-multigroup": _benign_multigroup,
    "legacy-client": lambda: _legacy("legacy-client", True, False),
    "legacy-ap": lambda: _legacy("legacy-ap", False, True),
    "force-legacy": lambda: _legacy("force-legacy", True, True, force=True,
                                    expect_fallback=True),
    "fallback-disjoint": _fallback_disjoint,
    "ephemeral": _ephemeral,
    "eavesdrop": _eavesdrop,
    "replay-attack": _replay_attack,
    "delete-intercept": _delete_intercept,
    "inject-unmitigated": lambda: _inject(False),
    "inject-mitigated": lambda: _inject(True),
    "masquerade-unmitigated": lambda: _masquerade(False),
    "masquerade-mitigated": lambda: _masquerade(True),
    "hijack-disassoc-unmitigated": lambda: _hijack_disassoc(False),
    "hijack-disassoc-mitigated": lambda: _hijack_disassoc(True),
    "hijack-mitm": _hijack_mitm,
    "leak-selftest": _leak_selftest,
}

BUILTIN_NAMES = tuple(sorted(_BUILTIN_BUILDERS))


def builtin(name: str) -> ScenarioScript:
    try:
        builder = _BUILTIN_BUILDERS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown builtin scenario {name!r}; known: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return builder()


# ---------------------------------------------------------------------------
# Attack suite
# ---------------------------------------------------------------------------

SUITE_PLAN = (
    ("ephemeral-psk", (("protocol", "ephemeral", "secure"),)),
    ("key-strength", (("registry", None, "secure"),)),
    ("eavesdropping", (("passive", "eavesdrop", "secure"),)),
    ("replay", (("protocol", "replay-attack", "secure"),)),
    ("delete-intercept", (("dos-only", "delete-intercept", "secure"),)),
    (
        "injection",
        (
            ("unmitigated", "inject-unmitigated", "vulnerable"),
            ("blacklist", "inject-mitigated", "mitigated"),
        ),
    ),
    (
        "masquerade",
        (
            ("unmitigated", "masquerade-unmitigated", "vulnerable"),
            ("pinned-key", "masquerade-mitigated", "mitigated"),
        ),
    ),
    (
        "hijack",
        (
            ("disassoc-unmitigated", "hijack-disassoc-unmitigated", "vulnerable"),
            ("key-agreement-mitm", "hijack-mitm", "mitigated"),
            ("signed-mgmt", "hijack-disassoc-mitigated", "mitigated"),
        ),
    ),
)


@dataclass
class SuiteRowResult:
    row: str
    variant: str
    scenario: str | None
    verdict: str
    ok: bool
    checks: list = field(default_factory=list)


@dataclass
class SuiteReport:
    seed: int
    rows: list

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_text(self) -> str:
        lines = [
            f"attack suite (seed {self.seed})",
            f"{'threat':<18} {'variant':<22} {'verdict':<12} result",
            "-" * 62,
        ]
        for r in self.rows:
            lines.append(
                f"{r.row:<18} {r.variant:<22} {r.verdict:<12} "
                f"{'pass' if r.ok else 'FAIL'}"
            )
            if not r.ok:
                for c in r.checks:
                    if not c.ok:
                        lines.append(f"    failed: {c.name} ({c.detail})")
        lines.append("-" * 62)
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "passed": self.passed,
                "rows": [
                    {
                        "row": r.row,
                        "variant": r.variant,
                        "scenario": r.scenario,
                        "verdict": r.verdict,
                        "ok": r.ok,
                        "checks": [
                            {"name": c.name, "ok": c.ok, "detail": c.detail}
                            for c in r.checks
                        ],
                    }
                    for r in self.rows
                ],
            },
            sort_keys=True,
            indent=2,
        )


def _key_strength_checks() -> list[CheckResult]:
    weakest = min(g.key_size_octets for g in REGISTRY.values())
    return [
        CheckResult(
            "registry minimum key size",
            weakest * 8 >= 224,
            f"weakest registered curve is {weakest * 8}-bit",
        )
    ]


def run_attack_suite(seed: int) -> SuiteReport:
    rows = []
    for row_name, variants in SUITE_PLAN:
        for label, scenario_name, verdict in variants:
            if scenario_name is None:
                checks = _key_strength_checks()
            else:
                script = builtin(scenario_name)
                transcript = run_scenario(script, seed)
                checks = evaluate_expectations(script, transcript)
            rows.append(
                SuiteRowResult(
                    row=row_name,
                    variant=label,
                    scenario=scenario_name,
                    verdict=verdict,
                    ok=all(c.ok for c in checks),
                    checks=checks,
                )
            )
    return SuiteReport(seed, rows)
