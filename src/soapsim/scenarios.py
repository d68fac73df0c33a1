"""Scenario scripts: a JSON schema with strict validation, an expectation
evaluator over run transcripts, a library of built-in scenarios, and the
attack suite that walks the whole threat table.

The suite's rows are independent runs, so they run on a pool of worker
processes, one per CPU the process may run on, forked on the first suite
and kept for the life of the process. Rows are handed out longest first, by
the time each took in the last suite, and assembled in plan order, so the
report is identical to a serial run's. The pool pays for itself in a
process that runs the suite more than once, where its workers' keys, comb
tables and memos are already warm; a single run costs about what a serial
one did."""

from __future__ import annotations

import json
import os
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from math import inf
from typing import Callable, NamedTuple

from .crypto import REGISTRY
from .frames import BROADCAST_MAC, FRAME_KINDS
from .simnet import (
    ADVERSARY_FIELD_READERS,
    ADVERSARY_ID,
    AP_STATES,
    CLIENT_STATES,
    EVENTS,
    KNOWN_CAPABILITIES,
    REASONS,
    RECORD_KEYS,
    STATION_STATES,
    AdversaryConfig,
    Mitigations,
    ScenarioScript,
    ScheduleAction,
    StationConfig,
    Transcript,
    _render_json,
    eavesdropper_view,
    parse_mac,
    run_scenario,
)

MAX_SSID_OCTETS = 32  # the 802.11 limit
# A busy run costs time and transcript in proportion to its ticks; the
# builtins need at most 3000.
MAX_TICKS = 10**7


class ScenarioError(ValueError):
    """Script rejected: message carries the offending location."""


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ScenarioError(f"{where}: {message}")


def _is_int(value) -> bool:
    """True for a JSON integer; a JSON boolean is not one, though bool is an int."""
    return isinstance(value, int) and not isinstance(value, bool)


_ROLE_NAMES = {"client": "a client", "ap": "an AP"}
_ROLE_STATES = {"client": CLIENT_STATES, "ap": AP_STATES}


@dataclass(frozen=True)
class _Station:
    """JSON type of a key that names a script station, of ``role`` when it
    is set, or one of the ``extra`` names: every station reference in a
    script is checked through it."""

    role: str | None = None
    extra: tuple = ()
    json_type = str

    def problem(self, value: str, check: dict, roles: dict) -> str | None:
        if value in self.extra:
            return None
        if value not in roles:
            return f"unknown station {value!r}"
        if self.role is not None and roles[value] != self.role:
            return f"{value!r} is not {_ROLE_NAMES[self.role]}"
        return None


@dataclass(frozen=True)
class _Word:
    """JSON type of an expectation key whose value is one of ``words``."""

    noun: str
    words: frozenset
    json_type = str

    def problem(self, value: str, check: dict, roles: dict) -> str | None:
        if value in self.words:
            return None
        return f"unknown {self.noun} {value!r}; known: {', '.join(sorted(self.words))}"


@dataclass(frozen=True)
class _State(_Word):
    """JSON type of a state of the role of the station the check names."""

    def problem(self, value: str, check: dict, roles: dict) -> str | None:
        role = roles[check["station"]]
        if value in self.words and value not in _ROLE_STATES[role]:
            return f"{value!r} is not a state of {_ROLE_NAMES[role]}"
        return super().problem(value, check, roles)


@dataclass(frozen=True)
class _Where:
    """JSON type of an event-count's ``where``: an object of record keys of
    the check's event (of any event when it names none), whose ``reason``,
    if any, is one declared for that event."""

    json_type = dict

    def problem(self, value: dict, check: dict, roles: dict) -> str | None:
        event = check.get("event")
        events = [event] if event is not None else sorted(RECORD_KEYS)
        unknown = sorted(set(value) - set().union(*(RECORD_KEYS[e] for e in events)))
        if unknown:
            records = f"a {event!r} record" if event is not None else "any record"
            return f"unknown keys for {records}: {unknown}"
        reason = value.get("reason")
        reasons = set().union(*(REASONS.get(e, ()) for e in events))
        if "reason" in value and not (isinstance(reason, str) and reason in reasons):
            return f"unknown reason {reason!r}; known: {', '.join(sorted(reasons))}"
        return None


# The expectation key types whose values are checked against a closed set.
_CLOSED = (_Station, _Word, _Where)


def _has_type(value, kind) -> bool:
    if kind is int:
        return _is_int(value)
    return isinstance(value, kind.json_type if isinstance(kind, _CLOSED) else kind)


def _type_name(kind) -> str:
    if isinstance(kind, _CLOSED):
        return kind.json_type.__name__
    kinds = kind if isinstance(kind, tuple) else (kind,)
    return " or ".join("null" if k is type(None) else k.__name__ for k in kinds)


def _take(d, where: str, types: dict, required=()) -> dict:
    """Check an object's keys against ``types`` (key -> JSON type) and
    ``required``; return a copy."""
    _require(isinstance(d, dict), where, "must be an object")
    for key, kind in types.items():
        if key in d:
            _require(
                _has_type(d[key], kind),
                f"{where}.{key}",
                f"expected {_type_name(kind)}, got {type(d[key]).__name__}",
            )
    unknown = sorted(set(d) - set(types))
    _require(not unknown, where, f"unknown keys: {unknown}")
    for key in required:
        _require(key in d, where, f"missing required key {key!r}")
    return dict(d)


# The JSON type of each record field annotation; a tuple is a JSON list.
_JSON_TYPES = {"str": str, "int": int, "bool": bool, "tuple": list, "list": list,
               "AdversaryConfig": dict, "Mitigations": dict}
# The least value of each int field that has one.
_MINIMUM = {"beacon_period": 1, "beacon_offset": 0, "replay_at": 0, "disassoc_at": 0,
            "tick": 0, "blacklist_threshold": 1, "max_ticks": 1}


def _record(cls, d, where: str) -> dict:
    """The fields of dataclass ``cls`` found in ``d``, checked against their
    annotations and `_MINIMUM`, with tuples as tuples. A field without a
    default is required."""
    fs = fields(cls)
    got = _take(
        d,
        where,
        {f.name: _JSON_TYPES[f.type.removesuffix(" | None")] for f in fs},
        [f.name for f in fs if f.default is MISSING and f.default_factory is MISSING],
    )
    for f in fs:
        if f.name in _MINIMUM and f.name in got:
            least = _MINIMUM[f.name]
            _require(got[f.name] >= least, f"{where}.{f.name}", f"must be >= {least}")
        if f.type == "tuple" and f.name in got:
            got[f.name] = tuple(got[f.name])
    return got


def _check_radio(got: dict, where: str) -> None:
    """The fields a station and the adversary share: MAC, SSID and groups."""
    if "mac" in got:
        try:
            mac = parse_mac(got["mac"])
        except ValueError as exc:
            raise ScenarioError(f"{where}.mac: {exc}") from None
        _require(mac != BROADCAST_MAC, f"{where}.mac", "is the broadcast address")
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


def _station_from_dict(d, where: str) -> StationConfig:
    got = _record(StationConfig, d, where)
    _require(got["role"] in ("client", "ap"), f"{where}.role", "must be 'client' or 'ap'")
    _check_radio(got, where)
    if "legacy_psk" in got:
        try:
            raw = bytes.fromhex(got["legacy_psk"])
        except ValueError:
            raise ScenarioError(f"{where}.legacy_psk: not hex") from None
        _require(len(raw) == 32, f"{where}.legacy_psk", "must be 32 octets of hex")
    return StationConfig(**got)


def _adversary_from_dict(d, where: str, roles: dict) -> AdversaryConfig:
    got = _record(AdversaryConfig, d, where)
    unknown = [
        c
        for c in got.get("capabilities", ())
        if not isinstance(c, str) or c not in KNOWN_CAPABILITIES
    ]
    _require(not unknown, f"{where}.capabilities", f"unknown: {unknown}")
    _check_radio(got, where)
    for key, role in (("target_ap", "ap"), ("target_client", "client")):
        if got.get(key) is not None:
            problem = _Station(role).problem(got[key], {}, roles)
            _require(problem is None, f"{where}.{key}", problem)
    capabilities = set(got.get("capabilities", ()))
    for key, readers in ADVERSARY_FIELD_READERS.items():
        _require(
            key not in got or capabilities & readers,
            f"{where}.{key}",
            f"read only under {', '.join(sorted(readers))}; none is listed",
        )
    return AdversaryConfig(**got)


def _schedule_from_dict(d, where: str, roles: dict) -> ScheduleAction:
    got = _record(ScheduleAction, d, where)
    action = got.get("action", "reset")
    _require(action == "reset", f"{where}.action", "only 'reset' is defined")
    problem = _Station("client").problem(got["station"], {}, roles)
    _require(problem is None, f"{where}.station", problem)
    return ScheduleAction(**got)


def _expectation_from_dict(check, where: str, roles: dict) -> dict:
    _require(isinstance(check, dict), where, "must be an object")
    _require("check" in check, where, "missing required key 'check'")
    kind = check["check"]
    _require(
        isinstance(kind, str) and kind in _CHECKS,
        f"{where}.check",
        f"unknown check {kind!r}",
    )
    spec = _CHECKS[kind]
    _take(check, where, spec.types)
    gap = spec.missing(check)
    _require(gap is None, where, f"missing required key {gap}")
    for key, kind in spec.types.items():
        if isinstance(kind, _CLOSED) and key in check:
            problem = kind.problem(check[key], check, roles)
            _require(problem is None, f"{where}.{key}", problem)
    return check


def script_from_dict(data: dict) -> ScenarioScript:
    _require(isinstance(data, dict), "script", "top level must be an object")
    got = _record(ScenarioScript, data, "script")
    _require(bool(got["stations"]), "script.stations", "at least one station required")
    stations = got["stations"] = [
        _station_from_dict(s, f"script.stations[{i}]")
        for i, s in enumerate(got["stations"])
    ]
    roles = {s.station_id: s.role for s in stations}
    _require(len(roles) == len(stations), "script.stations", "duplicate station_id")
    _require(
        ADVERSARY_ID not in roles,
        "script.stations",
        f"station_id {ADVERSARY_ID!r} is reserved for the adversary",
    )
    macs = {parse_mac(s.mac) for s in stations}
    _require(len(macs) == len(stations), "script.stations", "duplicate mac")
    for i, s in enumerate(stations):
        if s.pin_ap is not None:
            where = f"script.stations[{i}].pin_ap"
            _require(s.role == "client", where, "only a client may pin an AP")
            problem = _Station("ap").problem(s.pin_ap, {}, roles)
            _require(problem is None, where, problem)

    if "adversary" in got:
        adversary = got["adversary"] = _adversary_from_dict(
            got["adversary"], "script.adversary", roles
        )
        _require(
            parse_mac(adversary.mac) not in macs,
            "script.adversary.mac",
            "repeats the mac of a station",
        )
    if "mitigations" in got:
        got["mitigations"] = Mitigations(
            **_record(Mitigations, got["mitigations"], "script.mitigations")
        )
    got["schedule"] = [
        _schedule_from_dict(e, f"script.schedule[{i}]", roles)
        for i, e in enumerate(got.get("schedule", []))
    ]
    got["expectations"] = [
        _expectation_from_dict(c, f"script.expectations[{i}]", roles)
        for i, c in enumerate(got.get("expectations", []))
    ]
    _require(
        got.get("max_ticks", 1) <= MAX_TICKS, "script.max_ticks", f"must be <= {MAX_TICKS}"
    )
    return ScenarioScript(**got)


def _to_json(value):
    """A record as JSON: the fields that differ from their defaults, with
    nested records as objects and tuples as lists."""
    if is_dataclass(value):
        out = {}
        for f in fields(value):
            v = getattr(value, f.name)
            default = f.default if f.default_factory is MISSING else f.default_factory()
            if v != default:
                out[f.name] = _to_json(v)
        return out
    if isinstance(value, (list, tuple)):
        return [_to_json(v) for v in value]
    return value


def script_to_dict(script: ScenarioScript) -> dict:
    return _to_json(script)


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


def _count_records(check: dict, t: Transcript) -> int:
    """How many records come after the check's ``after_tick`` and match its
    ``event``, ``station``, ``frame``, ``origin`` and ``where`` fields."""
    match = [(k, check[k]) for k in ("event", "station", "frame", "origin") if k in check]
    match += check.get("where", {}).items()
    after = check.get("after_tick", -1)
    return sum(
        1 for r in t.records if r["tick"] > after and all(r.get(k) == v for k, v in match)
    )


def _count_ok(check: dict, count: int) -> tuple[bool, str]:
    if "equals" in check and count != check["equals"]:
        return False, f"count {count} != {check['equals']}"
    if "at_least" in check and count < check["at_least"]:
        return False, f"count {count} < {check['at_least']}"
    if "at_most" in check and count > check["at_most"]:
        return False, f"count {count} > {check['at_most']}"
    return True, f"count {count}"


def _compare(label: str, observe):
    """The evaluator that compares what ``observe`` reads with the check's
    ``equals``, or ``not_equals``."""

    def evaluate(check, t):
        got = observe(check, t)
        ok = got == check.get("equals", got)
        if "not_equals" in check:
            ok = ok and got != check["not_equals"]
        return ok, f"{label}={got}"

    return evaluate


def _counted(observe):
    """The evaluator that holds the count ``observe`` reads to the bounds."""
    return lambda check, t: _count_ok(check, observe(check, t))


def _summary(key: str):
    return lambda check, t: t.summaries[check["station"]].get(key)


def _view(key: str):
    return lambda check, t: eavesdropper_view(t)[key]


def _ap_session_established(check, t):
    sessions = t.summaries[check["station"]]["sessions"]
    return bool(sessions.get(check["client"], {}).get("established"))


def _psk_distinct(check, t):
    psks = t.secrets[check["station"]]["psks"]
    return len(psks) == len(set(psks)), f"{len(set(psks))} distinct of {len(psks)}"


def _psk_match(check, t):
    a = t.secrets[check["a"]]["psks"]
    b = t.secrets[check["b"]]["psks"]
    ok = bool(a) and bool(b) and a[-1] == b[-1]
    return ok, "last PSKs equal" if ok else "mismatch or missing"


def _no_psk_on_wire(check, t):
    view = eavesdropper_view(t)
    ok = view["psk_octets_on_wire"] == 0 and view["kck_octets_on_wire"] == 0
    return ok, f"psk hits {view['psk_octets_on_wire']}"


def _blocked_contains(check, t):
    blocked = t.summaries[check["station"]]["blocked"]
    return check["equals"] in blocked, f"blocked={blocked}"


def _no_transitions_after(check, t):
    count = _count_records({"event": "transition", "after_tick": check["tick"]}, t)
    return count == 0, f"{count} transitions"


class _Check(NamedTuple):
    """An expectation kind: its evaluator, (check, transcript) -> (ok, detail),
    and the JSON types of the keys it requires, of the keys it may have and
    of the keys of which it requires at least one."""

    evaluate: Callable
    required: dict
    optional: dict = {}
    one_of: dict = {}

    @property
    def types(self) -> dict:
        return {"check": str, **self.required, **self.optional, **self.one_of}

    def missing(self, check: dict) -> str | None:
        """The first required key, or choice of keys, absent from ``check``."""
        for key in self.required:
            if key not in check:
                return repr(key)
        if self.one_of and not any(key in check for key in self.one_of):
            return " or ".join(map(repr, self.one_of))
        return None


_STATION = {"station": _Station()}
# The summary keys "mode", "peer" and "fallback" are a client's, and
# "sessions" is an AP's, so a check that reads one names a station of that role.
_CLIENT = {"station": _Station("client")}
_STATE = _State("station state", STATION_STATES)
_STR_OR_NULL = (str, type(None))
_BOUNDS = {"equals": int, "at_least": int, "at_most": int}

_CHECKS = {
    "station-state": _Check(
        _compare("state", _summary("state")),
        _STATION,
        one_of={"equals": _STATE, "not_equals": _STATE},
    ),
    "station-mode": _Check(
        _compare("mode", _summary("mode")), {**_CLIENT, "equals": _STR_OR_NULL}
    ),
    "station-peer": _Check(
        _compare("peer", _summary("peer")), {**_CLIENT, "equals": _STR_OR_NULL}
    ),
    "fallback": _Check(
        _compare("fallback", _summary("fallback")), {**_CLIENT, "equals": bool}
    ),
    "adversary-knows-psk": _Check(
        _compare("knows", _view("adversary_knows_legit_psk")), {"equals": bool}
    ),
    "ap-session-established": _Check(
        _compare("established", _ap_session_established),
        {"station": _Station("ap"), "client": _Station("client"), "equals": bool},
    ),
    "psk-count": _Check(_counted(_summary("psk_count")), _STATION, one_of=_BOUNDS),
    "frame-count": _Check(
        _counted(lambda check, t: _count_records({**check, "event": "tx"}, t)),
        {"frame": _Word("frame kind", FRAME_KINDS)},
        # the adversary transmits frames too, so origin may name it
        {"origin": _Station(extra=(ADVERSARY_ID,)), "after_tick": int},
        _BOUNDS,
    ),
    "event-count": _Check(
        _counted(_count_records),
        {},
        # station filters records, so it may name the adversary too
        {"event": _Word("event", EVENTS),
         "station": _Station(extra=(ADVERSARY_ID,)), "after_tick": int,
         "where": _Where()},
        _BOUNDS,
    ),
    "psk-on-wire-hits": _Check(_counted(_view("psk_octets_on_wire")), {}, one_of=_BOUNDS),
    "psk-distinct": _Check(_psk_distinct, _STATION),
    "psk-match": _Check(_psk_match, {"a": _Station(), "b": _Station()}),
    "no-psk-on-wire": _Check(_no_psk_on_wire, {}),
    "blocked-contains": _Check(_blocked_contains, {**_STATION, "equals": str}),
    "no-transitions-after": _Check(_no_transitions_after, {"tick": int}),
}

KNOWN_CHECKS = frozenset(_CHECKS)


def evaluate_check(check: dict, transcript: Transcript) -> CheckResult:
    kind = check.get("check")
    name = " ".join(
        str(v) for v in (kind, check.get("station"), check.get("frame"), check.get("event"))
        if v
    )
    spec = _CHECKS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        return CheckResult(name, False, f"unknown check kind {kind!r}")
    gap = spec.missing(check)
    if gap is not None:
        return CheckResult(name, False, f"missing key {gap} in check")
    try:
        ok, detail = spec.evaluate(check, transcript)
    except KeyError as exc:
        return CheckResult(name, False, f"missing key {exc} in check or transcript")
    return CheckResult(name, ok, detail)


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


def _pair(ap_kw={}, client_kw={}):
    return [
        StationConfig("ap1", "ap", _AP_MAC, ssid=_SSID, **ap_kw),
        StationConfig("client1", "client", _CLIENT_MAC, ssid=_SSID, **client_kw),
    ]


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
        stations=_pair({"groups": (26, 19, 20, 21)}, {"groups": (19, 20)}),
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
    resets = [ScheduleAction(t, "client1") for t in (400, 800, 1200, 1600)]
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
        stations=_pair({"beacon_offset": 50}),
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
    stations = _pair({"beacon_offset": 50})
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


_CROWD_CLIENTS = 30


def _crowd():
    """One AP and many clients under signed management frames: every client
    hears the same signed beacons, so it is the many-station workload."""
    clients = [
        StationConfig(f"client{i:02d}", "client", f"02:00:00:00:01:{i:02x}", ssid=_SSID)
        for i in range(1, _CROWD_CLIENTS + 1)
    ]
    return ScenarioScript(
        name="crowd",
        stations=[StationConfig("ap1", "ap", _AP_MAC, ssid=_SSID), *clients],
        mitigations=Mitigations(sign_management_frames=True),
        max_ticks=3000,
        expectations=[
            check
            for c in clients
            for check in (
                {"check": "station-state", "station": c.station_id,
                 "equals": "established"},
                {"check": "ap-session-established", "station": "ap1",
                 "client": c.station_id, "equals": True},
            )
        ]
        + [
            {"check": "frame-count", "frame": "agreement", "equals": 2 * _CROWD_CLIENTS},
            {"check": "event-count", "event": "discard", "equals": 0},
            {"check": "no-psk-on-wire"},
        ],
    )


_BUILTIN_BUILDERS = {
    "benign": lambda: _benign(),
    "benign-strict": lambda: _benign("benign-strict", strict=True),
    "benign-multigroup": _benign_multigroup,
    "crowd": _crowd,
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
        return _render_json(
            {
                "seed": self.seed,
                "passed": self.passed,
                "rows": [asdict(r) for r in self.rows],
            }
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


def _suite_row_checks(scenario_name: str | None, seed: int):
    """What a pool worker runs: the checks of one suite row, and the seconds
    it took to make them."""
    start = time.perf_counter()
    if scenario_name is None:
        checks = _key_strength_checks()
    else:
        script = builtin(scenario_name)
        checks = evaluate_expectations(script, run_scenario(script, seed))
    return checks, time.perf_counter() - start


def _exit_with_caller() -> None:
    """Pool initializer: end the worker once the process that forked it is
    gone, even one that was killed and never shut the pool down."""
    import threading
    from multiprocessing import parent_process
    from multiprocessing.connection import wait

    sentinel = parent_process().sentinel

    def exit_once_orphaned():
        wait([sentinel])
        os._exit(1)

    threading.Thread(target=exit_once_orphaned, daemon=True).start()


# The suite's worker pool, made by the first suite. Its workers are forked
# then, before the pool starts its own threads, and keep what they
# inherited: a test that patches soapsim must not run the suite, or the
# patch outlives it in the workers. Forking is safe only while the caller
# runs no threads of its own, which Python 3.12 checks and warns of.
_pool = None

# The seconds each row took in the last suite that finished, by scenario
# name. The next suite hands its rows out longest first (Graham's LPT rule),
# so that no worker is left running a long row while the others idle; a row
# with no record counts as longest. It outlives the pool.
_row_seconds: dict[str | None, float] = {}


def _suite_pool():
    """The suite's ProcessPoolExecutor. The pool's modules are imported when
    it is made, so that importing soapsim costs no more than it did."""
    global _pool
    if _pool is None:
        import atexit
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))  # the CPUs this process may run on
        else:
            cpus = os.cpu_count() or 1
        rows = sum(len(variants) for _, variants in SUITE_PLAN)
        _pool = ProcessPoolExecutor(
            min(cpus, rows),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_exit_with_caller,
        )
        atexit.register(_close_pool)
    return _pool


def _close_pool() -> None:
    """Shut the pool down and drop it, so a later suite forks a new one."""
    global _pool
    if _pool is not None:
        _pool.shutdown()
        _pool = None


def run_attack_suite(seed: int) -> SuiteReport:
    from concurrent.futures import wait
    from concurrent.futures.process import BrokenProcessPool

    plan = [
        (row_name, label, scenario_name, verdict)
        for row_name, variants in SUITE_PLAN
        for label, scenario_name, verdict in variants
    ]
    names = [scenario_name for _, _, scenario_name, _ in plan]
    pool = _suite_pool()
    futures = {}
    try:
        for name in sorted(names, key=lambda n: _row_seconds.get(n, inf), reverse=True):
            futures[name] = pool.submit(_suite_row_checks, name, seed)
        timed = [futures[name].result() for name in names]
    except BaseException as error:
        # cancel the rows no worker has started and let the started ones
        # finish, so that no row of this suite runs after it has failed
        for future in futures.values():
            future.cancel()
        wait(futures.values())
        if isinstance(error, BrokenProcessPool):
            _close_pool()
        raise
    for name, (_, seconds) in zip(names, timed):
        _row_seconds[name] = seconds
    return SuiteReport(seed, [
        SuiteRowResult(row, label, name, verdict, all(c.ok for c in row_checks), row_checks)
        for (row, label, name, verdict), (row_checks, _) in zip(plan, timed)
    ])
