"""Deterministic discrete-event radio: stations, an optional adversary, and
a clock that delivers every transmitted frame one tick later.

`Station` holds what both ends share: admission, blacklisting, frame output,
one ``on_frame`` that dispatches each delivered frame, and two receive steps.
One takes an EAPOL-Key frame: it parses it, hands it to the role's 4-Way
machine, sends the reply, records the KCK once Established, and discards a
replayed or unexpected frame. The other accounts for a signed agreement
message: its failure, or the agreed PSK and its ``psk-agreed`` transition.
Each role adds only its phase check and what an outcome means to it. The
subclasses are `ClientStation` and `ApStation`; an AP keeps an `ApPeer` per
client, and a rogue AP is an `ApStation` that hears frames after the
stations. The actors are what has timers: the stations, the rogue AP and the
adversary. Beside `Adversary` stand its id, its capabilities and the config
fields each one reads; the scenario loader checks against them, and the rogue
AP is built from them.

A management frame's signature covers the frame's octets as sent, up to its
signature element, which must be the last: a receiver verifies the octets it
received, never a re-encoding of its parse, which keeps only the subtype, the
two addresses and the elements.

Each transmission's work is done once. Its kind is read from its octets, and
it is parsed once, by its first reader (the adversary, or the first receiver
that admits its sender); every later reader gets the same frozen record (or
the same parse error), and its ``tx`` record fields are made once. Each of
its ``tx`` records (a `TxRecord`) keeps the transmission, so the transcript's
JSON renders those fields once per transmission, and a later record costs
only its tick. A station resends an unchanged frame as the transmission that
first carried it (an AP its beacon, one per content, and an unanswered
agreement Message 1; a client its Message 2), so such a frame is parsed, and
its hex written and rendered, once however often it is sent, and the leak
scan (`eavesdropper_view`) searches each distinct frame once. Verdicts and
signatures (``crypto``) and scripted identities (``_identities``) are
remembered per process, so a signed beacon heard by many clients is verified
once while it is recent. Everything a failed check does to a receiver (its
discard, its failure count, its blacklist) stays per receiver.

Time advances by next-event jumps. While a frame in flight has an addressee,
or there is an adversary to meet it, the clock steps one tick at a time;
otherwise it jumps straight to the earliest tick at which something can act:
a beacon, an AP retry deadline, a client await timeout, an adversary action,
a scheduled action, or the end of the run. Every timer is held as the tick at
which it fires, or None when nothing is armed: a client's give-up tick, each
AP peer's retry deadline, the adversary's burst and disassociation ticks, and
the head of the tick-sorted schedule. Each actor's ``_next_deadline``, the
first tick at which its ``on_tick`` acts, reads the fields ``on_tick`` reads,
so the two cannot disagree. The clock keeps it as the actor's due tick and
recomputes it after the actor ticks, handles a frame or is reset, the only
calls that move its timers. At a stepped tick only the actors whose due tick
has come run ``on_tick``. Likewise a frame is handed only to the addressees
that can act on it, and ``Simulation._addressees`` alone chooses them, for
delivery and for the clock: an unsigned, well-formed beacon goes only to the
listeners, the scanning clients and the stations that block a sender (and
note its beacons). The clock updates the listeners when a station acts, so
such a beacon costs no scan of the stations. Where nothing is in flight, there
is no adversary and no one is handed the APs' beacons, the clock steps no tick
until something else can act (a client, an AP peer's timer, the schedule or
the end of the run): it writes each beacon of that stretch, by tick and then
in script order, in one pass. A skipped tick, or a skipped ``on_tick`` or
``on_frame`` call, is one that would have emitted nothing, recorded nothing,
changed no state and drawn no randomness, so skipping it changes no output.
A beacon written without its AP's ``on_tick`` is all that call would have
done, and delivering it would have done nothing, so its ``tx`` record is its
only output. An AP encodes (and, under the signing mitigation, signs)
its beacon once and rebuilds it only when the content changes; RFC 6979
signatures are deterministic, so the octets are the same.

Record keys are declared once, in `RECORD_KEYS` and `REASONS`, and enforced
at write time: every record but a ``tx`` is written by `Transcript.note`,
which raises ValueError for an undeclared event, key or reason, and a
station's records name it through its one ``_note``.

Determinism contract: all randomness flows from one run seed through
namespaced SeededRng children, station identity keys flow from a separate
identity seed, actors tick in a fixed order each tick (the rogue AP, the
adversary, then stations in script order), and in-flight frames are
delivered in transmission order. Two runs with the same script and seeds produce
byte-identical transcripts.
"""

from __future__ import annotations

import re
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite

from . import negotiation
from .crypto import (
    DEFAULT_GROUP_ID,
    EcGroup,
    KeyPair,
    SeededRng,
    _recall,
    ecdsa_generate,
    ecdsa_sign,
    ecdsa_verify,
    group_for_key_size,
    registry_lookup,
)
from .fourway import Authenticator, FourwayState, Supplicant
from .frames import (
    BROADCAST_MAC,
    EAPOL_KINDS,
    ELEMENT_ID_SSID,
    DataFrame,
    FrameSubtype,
    MalformedFrameError,
    ManagementFrame,
    SoapIe,
    encode_data_frame,
    encode_eapol_key_frame,
    encode_management_frame,
    encode_soap_message,
    find_element,
    frame_kind,
    parse_data_frame,
    parse_eapol_key_frame,
    parse_management_frame,
    parse_soap_message,
    signed_octets,
    soap_ie_element,
    soap_ie_from_frame,
    wire_dst_mac,
    wire_src_mac,
)
from .handshake import (
    TAG_MESSAGE1,
    ApSession,
    ClientSession,
    Phase,
    Role,
    StationIdentity,
    make_identity,
    signed_message,
)

RETRY_TIMEOUT_TICKS = 100
MAX_RETRANSMISSIONS = 3
CLIENT_AWAIT_TIMEOUT_TICKS = 450
DEFAULT_MAX_TICKS = 3000
ELEMENT_ID_DEBUG_LEAK = 221
_MAC = re.compile(r"[0-9A-Fa-f]{2}(:[0-9A-Fa-f]{2}){5}")


def parse_mac(text: str) -> bytes:
    """Six colon-separated octets of exactly two hex digits each."""
    if not _MAC.fullmatch(text):
        raise ValueError(f"bad mac {text!r}")
    return bytes.fromhex(text.replace(":", ""))


def format_mac(mac: bytes) -> str:
    return mac.hex(":")


@dataclass
class Mitigations:
    blacklist_threshold: int | None = None
    sign_management_frames: bool = False


@dataclass
class StationConfig:
    station_id: str
    role: str  # "client" | "ap"
    mac: str
    ssid: str = "simnet"
    groups: tuple = (DEFAULT_GROUP_ID,)
    soap_aware: bool = True
    legacy_psk: str | None = None  # hex, 32 octets
    force_legacy: bool = False
    pin_ap: str | None = None  # station id whose signing key the client pins
    beacon_period: int = 100
    beacon_offset: int = 0
    debug_leak_psk: bool = False
    # Advertise a key the station cannot sign under (wrong-key injection).
    advertise_bogus_key: bool = False


@dataclass
class AdversaryConfig:
    capabilities: tuple = ()
    mac: str = "02:00:00:00:00:ee"
    ssid: str = "simnet"
    groups: tuple = (DEFAULT_GROUP_ID,)
    beacon_period: int = 25
    beacon_offset: int = 0
    advertise_bogus_key: bool = False
    replay_at: int | None = None
    disassoc_at: int | None = None
    target_ap: str | None = None
    target_client: str | None = None


@dataclass
class ScheduleAction:
    tick: int
    station: str
    action: str = "reset"  # the one action: the client restarts its scan


@dataclass
class ScenarioScript:
    name: str
    stations: list
    adversary: AdversaryConfig | None = None
    mitigations: Mitigations = field(default_factory=Mitigations)
    schedule: list = field(default_factory=list)
    expectations: list = field(default_factory=list)
    max_ticks: int = DEFAULT_MAX_TICKS
    identity_seed: int = 0
    strict_frames: bool = False


@dataclass
class Transmission:
    """One frame on the air. Its kind is read from the octets; its parse, its
    signing input and its `tx` record fields are made on first use and shared
    by every reader and every resend of the transmission."""

    origin: str  # station id or ADVERSARY_ID
    wire: bytes
    # The SOAP element of a management frame, None when it carries none. The
    # parse in `frame` sets it, so it is read only once `frame` has parsed.
    soap_ie: SoapIe | None = field(default=None, init=False, repr=False, compare=False)
    # The rendered text of its `tx` records up to their tick's value, by
    # indent: what `_render_tx` cut from the first one it rendered there.
    rendered: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def kind(self) -> str | None:
        """The one of FRAME_KINDS the octets carry, read without a parse."""
        return frame_kind(self.wire)

    @cached_property
    def frame(self):
        """The frame the octets carry, or the MalformedFrameError its parse
        raised. A management frame's SOAP element is parsed with it, so a bad
        element makes the whole frame malformed."""
        try:
            if self.kind in EAPOL_KINDS:
                return parse_data_frame(self.wire)
            frame = parse_management_frame(self.wire)
            self.soap_ie = soap_ie_from_frame(frame)
            return frame
        except MalformedFrameError as exc:
            return exc

    @cached_property
    def src_mac(self) -> bytes:
        return wire_src_mac(self.wire)

    @cached_property
    def dst_mac(self) -> bytes:
        return wire_dst_mac(self.wire)

    @cached_property
    def record(self) -> dict:
        """The fields of a `tx` record that the transmission alone decides."""
        return {
            "origin": self.origin,
            "frame": self.kind,
            "src": format_mac(self.src_mac),
            "dst": format_mac(self.dst_mac),
            "size": len(self.wire),
            "hex": self.wire.hex(),
        }


# The keys of every transcript record, by its event: what `Transcript.tx`
# writes, and every event that stations and the adversary note.
# `Transcript.note` refuses a record outside them.
_NOTED = frozenset({"tick", "event", "station"})
RECORD_KEYS = {
    "tx": frozenset({"tick", "event", "origin", "frame", "src", "dst", "size", "hex"}),
    "transition": _NOTED | {"scope", "to", "reason", "session", "peer", "mode"},
    "discard": _NOTED | {"reason", "detail", "src", "context"},
    "blocked": _NOTED | {"src"},
    "blacklisted": _NOTED | {"src"},
    "negotiation": _NOTED | {"outcome"},
    "note": _NOTED | {"detail"},
    "retransmit": _NOTED | {"peer"},
    "client-disassociated": _NOTED | {"src"},
    "deleted": _NOTED | {"frame", "src"},
    "mitm-substituted": _NOTED,
    "replay-burst": _NOTED | {"frames"},
}
EVENTS = frozenset(RECORD_KEYS)
# The `reason` of the records that carry one, by event: why a station
# discarded a frame, and why a station or session left its course.
REASONS = {
    "discard": frozenset({
        "malformed", "phase", "duplicate", "replay", "unexpected", "signature",
        "bad-signer", "pinned-mismatch", "point",
    }),
    "transition": frozenset({
        "timeout", "blacklisted", "disassociated", "fourway-failed",
        "scripted-reset", "mic-mismatch", "group-not-offered",
    }),
}


def _render_json(value, newline: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte.

    The domain is dicts with str keys, lists, tuples, str, int, finite float,
    bool and None; anything else raises TypeError, and a NaN or infinity
    ValueError. json.dumps cannot use CPython's C encoder once it indents: its
    pure-Python one yields every token as a chunk of its own. This joins each
    dict or list in one ``str.join`` and quotes strings with the C quoter.
    One record type is rendered from a cache: a `TxRecord`, whose fields but
    its tick are rendered once per transmission and indent (`_render_tx`).
    """
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, int):
        return "true" if value is True else "false" if value is False else int.__repr__(value)
    if isinstance(value, dict):
        if isinstance(value, TxRecord):
            return _render_tx(value, newline)
        return _render_dict(value, newline)
    if isinstance(value, (list, tuple)):
        return _render_list(value, newline)
    if value is None:
        return "null"
    if isinstance(value, float):
        if not isfinite(value):
            raise ValueError(f"{value!r} has no JSON rendering")
        return float.__repr__(value)
    raise TypeError(f"a {type(value).__name__} has no JSON rendering")


def _render_list(value, newline: str) -> str:
    inner = newline + "  "
    return _enclose("[]", [_render_json(v, inner) for v in value], inner, newline)


def _render_dict(value: dict, newline: str) -> str:
    inner = newline + "  "
    # the C quoter raises TypeError for a key that is not a str
    items = [_quote(k) + ": " + _render_json(v, inner) for k, v in sorted(value.items())]
    return _enclose("{}", items, inner, newline)


def _render_tx(record: TxRecord, newline: str) -> str:
    """What `_render_dict` renders for `record`. Its tick sorts last, so the
    text up to the tick's value is the same for every record of its
    transmission at this indent: it is cut from the first one rendered."""
    heads = record.transmission.rendered
    head = heads.get(newline)
    if head is None:
        text = _render_dict(record, newline)
        heads[newline] = text[: text.rfind(": ") + 2]
        return text
    return f"{head}{int.__repr__(record['tick'])}{newline}}}"


def _enclose(brackets: str, items: list, inner: str, newline: str) -> str:
    if not items:
        return brackets
    # the brackets join the end items, so the joined text is never copied
    items[0] = brackets[0] + inner + items[0]
    items[-1] += newline + brackets[1]
    return ("," + inner).join(items)


class TxRecord(dict):
    """A ``tx`` record: the dict every reader reads, which also keeps the
    transmission it records. Every record of one transmission holds the same
    fields but its tick, so `_render_json` renders those fields once. A
    written record is never changed."""

    __slots__ = ("transmission",)


class Transcript:
    """Append-only run record with a deterministic JSON rendering."""

    def __init__(self, scenario: str, seed: int):
        self.scenario = scenario
        self.seed = seed
        self.records: list[dict] = []
        self.summaries: dict = {}
        self.secrets: dict = {}

    def tx(self, tick: int, t: Transmission) -> None:
        record = TxRecord({"tick": tick, "event": "tx", **t.record})
        record.transmission = t
        self.records.append(record)

    def note(self, tick: int, event: str, station: str, **detail) -> None:
        """Append a record of `event`, whose keys must lie in RECORD_KEYS and
        whose reason, if any, in REASONS; else raise ValueError."""
        record = {"tick": tick, "event": event, "station": station, **detail}
        if event not in RECORD_KEYS:
            raise ValueError(f"undeclared event {event!r}")
        undeclared = sorted(record.keys() - RECORD_KEYS[event])
        if undeclared:
            raise ValueError(f"undeclared keys for a {event!r} record: {undeclared}")
        if "reason" in record and record["reason"] not in REASONS[event]:
            raise ValueError(f"undeclared reason {record['reason']!r} for {event!r}")
        self.records.append(record)

    def to_json(self) -> str:
        return _render_json(
            {
                "scenario": self.scenario,
                "seed": self.seed,
                "records": self.records,
                "summaries": self.summaries,
                "secrets": self.secrets,
            }
        )


# ---------------------------------------------------------------------------
# Stations
# ---------------------------------------------------------------------------


# The `state` of a station summary, by role.
CLIENT_STATES = frozenset({"scanning", "soap", "fourway", "established", "halted"})
AP_STATES = frozenset({"ready"})
STATION_STATES = CLIENT_STATES | AP_STATES


class Station:
    """What both ends of a link share: admission (the blocked list and the
    management-frame signature check), signature-failure blacklisting, frame
    output, one dispatch path for delivered frames, and the receive steps. A
    subclass handles `_on_mgmt` and `_on_agreement`, hands `_on_eapol_key`
    its 4-Way machine in `_fourway`, and acts on its outcome."""

    from_ds = False  # the DS bit of the data frames this station sends

    def __init__(
        self,
        cfg: StationConfig,
        identity,
        rng: SeededRng,
        mitigations: Mitigations,
        transcript: Transcript,
        strict_frames: bool,
    ):
        self.cfg = cfg
        self.identity = identity
        self.rng = rng
        self.mitigations = mitigations
        self.transcript = transcript
        self.strict_frames = strict_frames
        self.mac = identity.mac
        self.session_counter = 0
        self.psk_history: list[bytes] = []
        self.kck_history: list[bytes] = []
        self.fail_counts: dict[bytes, int] = {}
        self.blocked: set[bytes] = set()
        self.known_keys: dict[bytes, tuple] = {}  # mac -> (group, point)

    # -- common helpers ----------------------------------------------------

    def _note(self, tick: int, event: str, **detail) -> None:
        self.transcript.note(tick, event, self.cfg.station_id, **detail)

    def _discard(self, tick: int, reason: str, **detail) -> None:
        self._note(tick, "discard", reason=reason, **detail)

    def _transition(self, tick: int, scope: str, to: str, **detail) -> None:
        self._note(tick, "transition", scope=scope, to=to, **detail)

    def _parse(self, tick: int, parser, *args):
        """`parser(*args)`, or None once a malformed frame is discarded."""
        try:
            return parser(*args)
        except MalformedFrameError as exc:
            self._discard(tick, "malformed", detail=str(exc))
            return None

    def _parse_agreement(self, tick: int, session, payload: bytes):
        widths = (session.group.key_size_octets, session.peer_signer[0].key_size_octets)
        return self._parse(tick, parse_soap_message, payload, *widths)

    def _agreed(self, tick: int, src: bytes, soap, event: str, context: str, **detail):
        """Account for the outcome of agreement session `soap` on a signed
        message from `src`: the PSK it agreed, recorded with the role's
        `detail`, or None once the failure is recorded."""
        if event == "signature":
            self._sig_failure(tick, src, context)
            return None
        if event != "agreed":
            self._discard(tick, event, src=format_mac(src))
            return None
        self.fail_counts[src] = 0
        psk = bytes(soap.psk)
        self.psk_history.append(psk)
        self._transition(tick, "soap", "psk-agreed", **detail)
        return psk

    def _ssid_matches(self, frame: ManagementFrame) -> bool:
        ssid = find_element(frame, ELEMENT_ID_SSID)
        return ssid is not None and ssid.decode(errors="replace") == self.cfg.ssid

    def _out_mgmt(self, frame: ManagementFrame) -> Transmission:
        if self.mitigations.sign_management_frames:
            # an unsigned frame encodes to the octets that signed_octets covers
            signature = ecdsa_sign(self.identity.ecdsa, encode_management_frame(frame))
            frame = replace(frame, signature=signature)
        return Transmission(self.cfg.station_id, encode_management_frame(frame))

    def _out_eapol(self, dst: bytes, packet: bytes) -> Transmission:
        frame = DataFrame(self.mac, dst, packet, from_ds=self.from_ds)
        return Transmission(self.cfg.station_id, encode_data_frame(frame))

    def _out_key(self, dst: bytes, key_frame) -> Transmission:
        return self._out_eapol(dst, encode_eapol_key_frame(key_frame))

    def _sig_failure(self, tick: int, mac: bytes, context: str) -> None:
        self._discard(tick, "signature", context=context, src=format_mac(mac))
        threshold = self.mitigations.blacklist_threshold
        if threshold is None:
            return
        count = self.fail_counts.get(mac, 0) + 1
        self.fail_counts[mac] = count
        if count >= threshold and mac not in self.blocked:
            self.blocked.add(mac)
            self._note(tick, "blacklisted", src=format_mac(mac))
            self._on_blacklisted(tick, mac)

    def _on_blacklisted(self, tick: int, mac: bytes) -> None:
        """Called once, when `mac` joins the blocked list."""

    def _mgmt_signature_ok(self, tick: int, t: Transmission) -> bool:
        """Admission under the signing mitigation: a frame must verify under
        its sender's known key, else, when signed, under the key it advertises."""
        if not self.mitigations.sign_management_frames:
            return True
        frame = t.frame
        known = signer = self.known_keys.get(frame.src_mac)
        if known is None:
            if frame.signature is None or t.soap_ie is None:
                return True
            try:
                signer = negotiation.resolve_signer(t.soap_ie)
            except ValueError:
                return False
        if frame.signature is None or not ecdsa_verify(
            *signer, signed_octets(t.wire, frame.signature), frame.signature
        ):
            self._sig_failure(tick, frame.src_mac, "mgmt")
            return False
        if known is not None:
            self.fail_counts[frame.src_mac] = 0
        return True

    # -- frame dispatch ----------------------------------------------------

    def _blocks(self, tick: int, src: bytes) -> bool:
        """Whether `src` is on the blocked list; a blocked frame is noted and
        goes no further."""
        if src not in self.blocked:
            return False
        self._note(tick, "blocked", src=format_mac(src))
        return True

    def on_frame(self, tick: int, t: Transmission) -> list[Transmission]:
        """Handle `t`, delivered from an admitted sender. The simulation's
        addressees decide who receives a frame: a unicast frame reaches only
        the receivers of its destination MAC."""
        frame = t.frame
        if isinstance(frame, MalformedFrameError):
            self._discard(tick, "malformed", detail=str(frame))
            return []
        if t.kind in EAPOL_KINDS:
            if t.kind == "agreement":
                return self._on_agreement(tick, frame)
            return self._on_eapol_key(tick, frame)
        if not self._mgmt_signature_ok(tick, t):
            return []
        return self._on_mgmt(tick, frame, t.soap_ie)

    def _on_eapol_key(self, tick: int, frame: DataFrame) -> list[Transmission]:
        """Hand an EAPOL-Key frame to the role's 4-Way machine for its sender,
        send the reply, record the KCK once Established, discard a replayed
        or unexpected frame, and let the role act on the outcome."""
        src = frame.src_mac
        machine = self._fourway(src)
        if machine is None:
            self._discard(tick, "phase")
            return []
        key_frame = self._parse(tick, parse_eapol_key_frame, frame.payload)
        if key_frame is None:
            return []
        reply, event = machine.on_frame(key_frame)
        if event in ("replay", "unexpected"):
            self._discard(tick, event)
        elif event == "established":
            self.kck_history.append(machine.keys.kck)
        self._fourway_outcome(tick, src, event)
        return [] if reply is None else [self._out_key(src, reply)]

    # -- summaries ---------------------------------------------------------

    def summary(self, mac_names: dict) -> dict:
        return {
            "role": self.cfg.role,
            "mac": format_mac(self.mac),
            "psk_count": len(self.psk_history),
            "blocked": sorted(mac_names.get(m, format_mac(m)) for m in self.blocked),
            "state": self.state,
        }

    def secrets(self) -> dict:
        return {
            "psks": [p.hex() for p in self.psk_history],
            "kcks": [k.hex() for k in self.kck_history],
        }


class ClientStation(Station):
    """A client. It latches onto the first beacon of its SSID, answers the
    advertised key in its association request, signs agreement message 2 and
    runs the 4-Way Handshake as supplicant, or falls back to its legacy PSK."""

    def __init__(self, *args):
        super().__init__(*args)
        self.state = "scanning"
        self.seen_nonces: set = set()
        self.pinned_ap_key = None  # (group, point), set by the simulation for pin_ap
        self.session: ClientSession | None = None
        self.supplicant: Supplicant | None = None
        self.ap_mac: bytes | None = None
        # The tick the client gives up waiting at, while it waits in soap or
        # fourway: set by `_enter`, as every state change goes through it.
        self.give_up_at: int | None = None
        self.fallback_recorded = False
        self.mode: str | None = None  # "soap" | "legacy" once latched
        # The Message 2 sent, by the (source MAC, payload) of the Message 1 it
        # answered: at most one entry, kept until the client restarts.
        self.answered: dict[tuple, Transmission] = {}

    def _enter(self, tick: int, state: str, **detail) -> None:
        self.state = state
        waiting = state in ("soap", "fourway")
        self.give_up_at = tick + CLIENT_AWAIT_TIMEOUT_TICKS + 1 if waiting else None
        self._transition(tick, "station", state, **detail)

    def _restart(self, tick: int, reason: str) -> None:
        self.session = self.supplicant = self.ap_mac = self.mode = None
        self.answered.clear()
        self._enter(tick, "scanning", reason=reason)

    def _on_blacklisted(self, tick: int, mac: bytes) -> None:
        if self.session is not None and self.session.peer_mac == mac:
            self._restart(tick, "blacklisted")

    # -- timers ------------------------------------------------------------

    def _next_deadline(self, tick: int) -> int | None:
        """The first tick at which on_tick acts: a waiting client gives up."""
        return self.give_up_at

    def on_tick(self, tick: int) -> list[Transmission]:
        if self.give_up_at is not None and tick >= self.give_up_at:
            self._restart(tick, "timeout")
        return []

    # -- received frames ---------------------------------------------------

    def _on_mgmt(
        self, tick: int, frame: ManagementFrame, ie: SoapIe | None
    ) -> list[Transmission]:
        if frame.subtype is FrameSubtype.DISASSOC:
            if self.ap_mac == frame.src_mac and self.state in ("fourway", "established"):
                self.session = self.supplicant = None
                self._enter(tick, "halted", reason="disassociated")
            return []
        if (
            frame.subtype is not FrameSubtype.BEACON
            or self.state != "scanning"
            or not self._ssid_matches(frame)
        ):
            return []
        if self.cfg.soap_aware and ie is not None and not self.cfg.force_legacy:
            return self._latch_soap(tick, frame, ie)
        return self._latch_legacy(tick, frame)

    def _assoc_request(self, ap_mac: bytes, *elements) -> Transmission:
        ssid = (ELEMENT_ID_SSID, self.cfg.ssid.encode())
        assoc = ManagementFrame(
            FrameSubtype.ASSOC_REQUEST, self.mac, ap_mac, (ssid, *elements)
        )
        return self._out_mgmt(assoc)

    def _latch_soap(self, tick, frame, ie) -> list[Transmission]:
        self.session_counter += 1
        session = ClientSession(
            self.identity,
            self.rng.child(f"session{self.session_counter}"),
            strict_frames=self.strict_frames,
            pinned_ap_key=self.pinned_ap_key,
            seen_nonces=self.seen_nonces,
        )
        response, event = session.on_advertisement(ie, frame.src_mac)
        if event == "fallback":
            self.fallback_recorded = True
            self._note(tick, "negotiation", outcome="wpa-psk-fallback")
            return self._latch_legacy(tick, frame)
        if event != "respond":
            self._discard(tick, event, src=format_mac(frame.src_mac))
            return []
        self.session = session
        self.ap_mac = frame.src_mac
        self.mode = "soap"
        self._note(tick, "negotiation", outcome=f"group-{session.group.group_id}")
        self.known_keys[frame.src_mac] = session.peer_signer
        session.mark_associated()
        self._enter(tick, "soap")
        return [self._assoc_request(frame.src_mac, soap_ie_element(response))]

    def _latch_legacy(self, tick, frame) -> list[Transmission]:
        if self.cfg.legacy_psk is None:
            self._note(tick, "note", detail="no legacy psk configured")
            return []
        if self.cfg.force_legacy:
            self.fallback_recorded = True
        self.ap_mac = frame.src_mac
        self.mode = "legacy"
        self._enter(tick, "fourway", mode="legacy")
        return [self._assoc_request(frame.src_mac)]

    def _on_agreement(self, tick, frame: DataFrame) -> list[Transmission]:
        src = frame.src_mac
        sent = self.answered.get((src, frame.payload))
        if sent is not None and self.state == "fourway":
            return [sent]  # a resent Message 1: its Message 2 was lost
        if self.session is None or self.state != "soap":
            self._discard(tick, "phase", src=format_mac(src))
            return []
        msg = self._parse_agreement(tick, self.session, frame.payload)
        if msg is None:
            return []
        reply, event = self.session.on_message1(msg, src)
        detail = {"session": self.session_counter}
        psk = self._agreed(tick, src, self.session, event, "agreement-msg1", **detail)
        if psk is None:
            return []
        self.supplicant = Supplicant(
            psk, src, self.mac, self.rng.child(f"supp{self.session_counter}")
        )
        self._enter(tick, "fourway")
        sent = self._out_eapol(src, encode_soap_message(reply))
        self.answered[src, frame.payload] = sent
        return [sent]

    def _fourway(self, src: bytes) -> Supplicant | None:
        """The supplicant for the latched AP; its first key frame starts a legacy one."""
        if src != self.ap_mac:
            return None
        if self.supplicant is None and self.mode == "legacy" and self.state == "fourway":
            self.session_counter += 1
            self.supplicant = Supplicant(
                bytes.fromhex(self.cfg.legacy_psk), self.ap_mac, self.mac,
                self.rng.child(f"supp{self.session_counter}"),
            )
        return self.supplicant

    def _fourway_outcome(self, tick: int, src: bytes, event: str) -> None:
        if event == "established":
            self._enter(tick, "established")
        elif event == "mic-mismatch":
            self._transition(tick, "fourway", "failed", reason="mic-mismatch")
            self._restart(tick, "fourway-failed")

    # -- scheduled resets and summaries ------------------------------------

    def reset(self, tick: int) -> list[Transmission]:
        """A scheduled reset: disassociate from the AP, if any, and rescan."""
        out = []
        if self.ap_mac is not None:
            disassoc = ManagementFrame(FrameSubtype.DISASSOC, self.mac, self.ap_mac)
            out.append(self._out_mgmt(disassoc))
        self._restart(tick, "scripted-reset")
        return out

    def summary(self, mac_names: dict) -> dict:
        return {
            **super().summary(mac_names),
            "mode": self.mode,
            "peer": mac_names.get(self.ap_mac, format_mac(self.ap_mac))
            if self.ap_mac
            else None,
            "soap_phase": self.session.phase.value if self.session else None,
            "abort_reason": self.session.abort_reason if self.session else None,
            "fallback": self.fallback_recorded,
            "fourway": self.supplicant.state.value if self.supplicant else None,
        }


@dataclass
class ApPeer:
    """An AP's record of one client: the agreement session (None for a legacy
    client) and the Message 1 it sent, then the 4-Way authenticator, and the
    retransmission timer of whichever of the two is running."""

    # The tick at which the AP retransmits to, or gives up on, the peer; None
    # once the AP is done with it (Established, a MIC failure, or given up).
    deadline: int | None = None
    soap: ApSession | None = None
    message1: Transmission | None = None
    auth: Authenticator | None = None
    attempts: int = 0

    @property
    def established(self) -> bool:
        return self.auth is not None and self.auth.state is FourwayState.ESTABLISHED

    def summary(self) -> dict:
        return {
            "soap_phase": self.soap.phase.value if self.soap else None,
            "abort_reason": self.soap.abort_reason if self.soap else None,
            "established": self.established,
            "fourway": self.auth.state.value if self.auth else None,
        }


class ApStation(Station):
    """An access point. It beacons its advertisement, answers each client's
    association request with signed agreement message 1, runs the 4-Way
    Handshake as authenticator, and retransmits to each peer on its timer."""

    from_ds = True
    state = "ready"

    def __init__(self, *args):
        super().__init__(*args)
        self.peers: dict[bytes, ApPeer] = {}
        self.decoy_ecdsa = (
            ecdsa_generate(self.identity.ecdsa.group, self.rng.child("decoy"))
            if self.cfg.advertise_bogus_key
            else None
        )
        # The beacon on the air and the leaked PSK it carries, if any.
        self._beacon_tx: Transmission | None = None
        self._beacon_leak: bytes | None = None

    # -- timers ------------------------------------------------------------

    def _next_deadline(self, tick: int) -> int:
        """The first tick from `tick` on at which on_tick acts: the next beacon
        or a peer's retry deadline, whichever comes first."""
        retry = self._retry_due()
        due = self._beacon_due(tick)
        return due if retry is None else min(due, retry)

    def _retry_due(self) -> int | None:
        """The earliest peer retry deadline, None while no peer's timer runs."""
        return min(
            (p.deadline for p in self.peers.values() if p.deadline is not None), default=None
        )

    def _beacon_due(self, tick: int) -> int:
        """The first beacon tick at or after `tick`."""
        offset = self.cfg.beacon_offset
        if tick <= offset:
            return offset
        return tick + (offset - tick) % self.cfg.beacon_period

    def _beacon(self) -> Transmission:
        """The beacon to send: one Transmission per content, so its parse is
        shared by every beacon that carries it."""
        leak = self.psk_history[-1] if self.cfg.debug_leak_psk and self.psk_history else None
        if self._beacon_tx is None or leak != self._beacon_leak:
            elements = [(ELEMENT_ID_SSID, self.cfg.ssid.encode())]
            if self.cfg.soap_aware:
                advertised_key = self.decoy_ecdsa or self.identity.ecdsa
                elements.append(
                    soap_ie_element(
                        negotiation.advertisement_ie(
                            advertised_key, self.identity.group_ids
                        )
                    )
                )
            if leak is not None:
                elements.append((ELEMENT_ID_DEBUG_LEAK, leak))
            frame = ManagementFrame(
                FrameSubtype.BEACON, self.mac, BROADCAST_MAC, tuple(elements)
            )
            self._beacon_tx = self._out_mgmt(frame)
            self._beacon_leak = leak
        return self._beacon_tx

    def on_tick(self, tick: int) -> list[Transmission]:
        out = [self._beacon()] if self._beacon_due(tick) == tick else []
        for mac, peer in self.peers.items():
            if peer.deadline is None or tick < peer.deadline:
                continue
            if peer.attempts >= MAX_RETRANSMISSIONS:
                peer.deadline = None
                if peer.soap is not None and peer.soap.phase is Phase.AWAIT_MSG2:
                    peer.soap.abort("timeout")
                self._transition(
                    tick, "session", "aborted", peer=format_mac(mac), reason="timeout"
                )
                continue
            peer.attempts += 1
            peer.deadline = tick + RETRY_TIMEOUT_TICKS
            self._note(tick, "retransmit", peer=format_mac(mac))
            if peer.auth is None:  # Message 1, as the transmission first sent
                out.append(peer.message1)
            else:  # a 4-Way resend takes a new replay counter
                out.append(self._out_key(mac, peer.auth.retransmit()))
        return out

    # -- received frames ---------------------------------------------------

    def _on_mgmt(
        self, tick: int, frame: ManagementFrame, ie: SoapIe | None
    ) -> list[Transmission]:
        mac = frame.src_mac
        if frame.subtype is FrameSubtype.DISASSOC:
            if self.peers.pop(mac, None) is not None:
                self._note(tick, "client-disassociated", src=format_mac(mac))
            return []
        if frame.subtype is not FrameSubtype.ASSOC_REQUEST or not self._ssid_matches(
            frame
        ):
            return []
        if mac in self.peers and self.peers[mac].established:
            self._discard(
                tick, "replay", detail="association from established client",
                src=format_mac(mac),
            )
            return []
        if self.cfg.soap_aware and ie is not None:
            return self._start_soap(tick, mac, ie)
        if self.cfg.legacy_psk is None:
            self._note(tick, "note", detail="no legacy psk configured")
            return []
        self.session_counter += 1
        self.peers[mac] = peer = ApPeer()
        self._transition(tick, "session", "fourway", peer=format_mac(mac), mode="legacy")
        return [self._start_fourway(tick, mac, peer, bytes.fromhex(self.cfg.legacy_psk))]

    def _start_soap(self, tick: int, mac: bytes, ie) -> list[Transmission]:
        self.session_counter += 1
        session = ApSession(
            self.identity,
            self.rng.child(f"session{self.session_counter}"),
            mac,
            strict_frames=self.strict_frames,
        )
        event = session.on_response_element(ie)
        if event != "ok":
            self._discard(tick, event, src=format_mac(mac))
            return []
        msg = session.build_message1()
        if msg is None:
            self._transition(
                tick, "session", "aborted", peer=format_mac(mac), reason=session.abort_reason
            )
            return []
        self.known_keys[mac] = session.peer_signer
        message1 = self._out_eapol(mac, encode_soap_message(msg))
        self.peers[mac] = ApPeer(tick + RETRY_TIMEOUT_TICKS, soap=session, message1=message1)
        self._transition(tick, "session", "await-msg2", peer=format_mac(mac))
        return [message1]

    def _start_fourway(self, tick: int, mac: bytes, peer: ApPeer, psk) -> Transmission:
        """Start the 4-Way Handshake with `mac` over `psk`, as authenticator."""
        peer.auth = Authenticator(
            psk, self.mac, mac, self.rng.child(f"auth{self.session_counter}")
        )
        peer.attempts = 0
        peer.deadline = tick + RETRY_TIMEOUT_TICKS
        return self._out_key(mac, peer.auth.start())

    def _on_agreement(self, tick, frame: DataFrame) -> list[Transmission]:
        mac = frame.src_mac
        peer = self.peers.get(mac)
        if peer is None or peer.soap is None:
            self._discard(tick, "phase")
            return []
        msg = self._parse_agreement(tick, peer.soap, frame.payload)
        if msg is None:
            return []
        event = peer.soap.on_message2(msg, mac)
        detail = {"peer": format_mac(mac)}
        psk = self._agreed(tick, mac, peer.soap, event, "agreement-msg2", **detail)
        if psk is None:
            return []
        return [self._start_fourway(tick, mac, peer, psk)]

    def _fourway(self, src: bytes) -> Authenticator | None:
        """The authenticator for a key frame from `src`, once it has one."""
        peer = self.peers.get(src)
        return None if peer is None else peer.auth

    def _fourway_outcome(self, tick: int, src: bytes, event: str) -> None:
        peer = self.peers[src]
        if event == "m2-verified" and peer.deadline is not None:
            peer.attempts = 0  # a reply re-arms no finished peer
            peer.deadline = tick + RETRY_TIMEOUT_TICKS
        elif event == "established":
            peer.deadline = None
            self._transition(tick, "session", "established", peer=format_mac(src))
        elif event == "mic-mismatch":
            peer.deadline = None
            self._transition(tick, "session", "failed", peer=format_mac(src), reason=event)

    def summary(self, mac_names: dict) -> dict:
        sessions = {
            mac_names.get(mac, format_mac(mac)): peer.summary()
            for mac, peer in self.peers.items()
        }
        return {**super().summary(mac_names), "sessions": sessions}


# ---------------------------------------------------------------------------
# Adversary
# ---------------------------------------------------------------------------

# The adversary's origin, station and summary key in the transcript, and its
# rogue AP's station id; no script station may take it.
ADVERSARY_ID = "adversary"
KNOWN_CAPABILITIES = frozenset({
    "eavesdrop", "replay", "inject", "masquerade", "mitm-substitute",
    "delete-intercept", "disassoc-inject",
})
# The capabilities that raise a rogue AP, and the AdversaryConfig fields it
# takes as its StationConfig fields; the rest are a station's defaults.
ROGUE_CAPABILITIES = frozenset({"masquerade", "inject"})
ROGUE_FIELDS = ("ssid", "groups", "beacon_period", "beacon_offset", "advertise_bogus_key")
# The capabilities under which Adversary reads each optional AdversaryConfig
# field; `capabilities` and `mac` are read under all of them.
ADVERSARY_FIELD_READERS = {
    "replay_at": frozenset({"eavesdrop", "replay"}),
    "disassoc_at": frozenset({"disassoc-inject"}),
    **dict.fromkeys(
        ("target_ap", "target_client"), frozenset({"disassoc-inject", "mitm-substitute"})
    ),
    **dict.fromkeys(ROGUE_FIELDS, ROGUE_CAPABILITIES),
}


class Adversary:
    """Channel-level attacker. Capabilities compose: passive capture, frame
    replay, rogue advertisement (with a consistent or a bogus key), in-path
    substitution of agreement messages, data-frame deletion, and spoofed
    disassociation. The rogue AP, when there is one, receives frames and ticks
    like any station."""

    def __init__(
        self,
        cfg: AdversaryConfig,
        rng: SeededRng,
        transcript: Transcript,
        strict_frames: bool,
        target_ap_mac: bytes | None,
        target_client_mac: bytes | None,
    ):
        self.cfg = cfg
        self.caps = set(cfg.capabilities)
        self.mac = parse_mac(cfg.mac)
        self.rng = rng
        self.transcript = transcript
        self.target_ap_mac = target_ap_mac
        self.target_client_mac = target_client_mac
        self.captured: list[bytes] = []
        # The ticks of the replay burst and the forged disassociation, each
        # None once sent or when the adversary lacks what it needs.
        self.replay_due = cfg.replay_at if "replay" in self.caps else None
        self.disassoc_due = (
            cfg.disassoc_at
            if "disassoc-inject" in self.caps
            and target_ap_mac is not None
            and target_client_mac is not None
            else None
        )
        self.flow_groups: dict[bytes, int] = {}
        # The curve of the key each AP advertises in its beacons: the key a
        # client latches, and so the curve a substitute must be signed on.
        self.signer_groups: dict[bytes, EcGroup] = {}
        self._substitutions = 0
        # The substitution signers by curve; but for the rogue AP's, each is
        # made on first use.
        self._signers: dict[EcGroup, KeyPair] = {}
        self.rogue: ApStation | None = None
        if self.caps & ROGUE_CAPABILITIES:
            rogue_cfg = StationConfig(
                ADVERSARY_ID, "ap", cfg.mac, **{f: getattr(cfg, f) for f in ROGUE_FIELDS}
            )
            identity = make_identity(
                self.mac, Role.AP, rogue_cfg.groups, rng.child("rogue-id")
            )
            self.rogue = ApStation(
                rogue_cfg,
                identity,
                rng.child("rogue-run"),
                Mitigations(),
                transcript,
                strict_frames,
            )
            self._signers[identity.ecdsa.group] = identity.ecdsa

    def intercept(self, tick: int, t: Transmission) -> list[Transmission]:
        """What reaches the stations of `t`, a frame in flight: `t` itself, a
        substitute (recorded as sent), or nothing. A legitimate frame is first
        captured and its flow's group noted."""
        if t.origin == ADVERSARY_ID:
            return [t]
        self._observe(tick, t)
        if "delete-intercept" in self.caps and t.kind in EAPOL_KINDS:
            self.transcript.note(
                tick, "deleted", ADVERSARY_ID, frame=t.kind, src=format_mac(t.src_mac)
            )
            return []
        if (
            "mitm-substitute" in self.caps
            and t.kind == "agreement"
            and t.src_mac == self.target_ap_mac
            and t.dst_mac == self.target_client_mac
        ):
            substitute = self._substitute_message1(t)
            if substitute is not None:
                self.transcript.note(tick, "mitm-substituted", ADVERSARY_ID)
                self.transcript.tx(tick, substitute)
                return [substitute]
        return [t]

    def _observe(self, tick: int, t: Transmission) -> None:
        if self.caps & {"eavesdrop", "replay"}:
            if self.cfg.replay_at is None or tick < self.cfg.replay_at:
                self.captured.append(t.wire)
        if (
            "mitm-substitute" in self.caps
            and t.kind in ("assoc-request", "beacon")
            and not isinstance(t.frame, MalformedFrameError)
            and t.soap_ie is not None
        ):
            if t.kind == "beacon":
                signer_group = group_for_key_size(t.soap_ie.key_size_octets)
                if signer_group is not None:
                    self.signer_groups[t.src_mac] = signer_group
            else:
                self.flow_groups[t.src_mac] = t.soap_ie.group_ids[0]

    def _substitute_message1(self, t: Transmission) -> Transmission | None:
        if isinstance(t.frame, MalformedFrameError):
            return None
        # the widths the substitute is built with, and the target parses under
        group = registry_lookup(self.flow_groups.get(t.dst_mac, DEFAULT_GROUP_ID))
        signer_group = self.signer_groups.get(t.src_mac, group)
        try:
            original = parse_soap_message(
                t.frame.payload, group.key_size_octets, signer_group.key_size_octets
            )
        except MalformedFrameError:
            return None
        signer = self._signers.get(signer_group)
        if signer is None:
            signer = self._signers[signer_group] = ecdsa_generate(
                signer_group, self.rng.child("mitm-signer")
            )
        self._substitutions += 1
        _, fake = signed_message(
            signer, group, self.rng.child(f"mitm{self._substitutions}"), TAG_MESSAGE1,
            t.src_mac, t.dst_mac, original.session_nonce,
        )
        wire = encode_data_frame(
            DataFrame(t.src_mac, t.dst_mac, encode_soap_message(fake), from_ds=True)
        )
        return Transmission(ADVERSARY_ID, wire)

    def _next_deadline(self, tick: int) -> int | None:
        """The first tick at which on_tick acts, as for a station."""
        deadlines = (self.replay_due, self.disassoc_due)
        return min((d for d in deadlines if d is not None), default=None)

    def on_tick(self, tick: int) -> list[Transmission]:
        out: list[Transmission] = []
        if self.replay_due is not None and tick >= self.replay_due:
            self.replay_due = None
            self.transcript.note(
                tick, "replay-burst", ADVERSARY_ID, frames=len(self.captured)
            )
            out.extend(Transmission(ADVERSARY_ID, wire) for wire in self.captured)
        if self.disassoc_due is not None and tick >= self.disassoc_due:
            self.disassoc_due = None
            forged = ManagementFrame(
                FrameSubtype.DISASSOC, self.target_ap_mac, self.target_client_mac
            )
            out.append(Transmission(ADVERSARY_ID, encode_management_frame(forged)))
        return out

    def summary(self, mac_names: dict) -> dict:
        summary = {"captured_frames": len(self.captured), "capabilities": sorted(self.caps)}
        if self.rogue is not None:
            summary["rogue"] = self.rogue.summary(mac_names)
        return summary

    def secrets(self) -> dict:
        return self.rogue.secrets() if self.rogue is not None else {"psks": [], "kcks": []}


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


class Simulation:
    """Builds stations from a script and runs them under a next-event clock."""

    def __init__(self, script: ScenarioScript, seed: int):
        self.script = script
        self.transcript = Transcript(script.name, seed)
        run_rng = SeededRng(seed, b"run")
        identities = {
            cfg.station_id: _identity(script.identity_seed, cfg) for cfg in script.stations
        }
        self.stations: list[Station] = []
        self.by_id: dict[str, Station] = {}
        for cfg in script.stations:
            kind = ClientStation if cfg.role == "client" else ApStation
            station = kind(
                cfg,
                identities[cfg.station_id],
                run_rng.child(f"st:{cfg.station_id}"),
                script.mitigations,
                self.transcript,
                script.strict_frames,
            )
            if cfg.pin_ap is not None:
                pinned = identities[cfg.pin_ap]
                station.pinned_ap_key = station.known_keys[pinned.mac] = (
                    pinned.ecdsa.group, pinned.ecdsa.public_point
                )
            self.stations.append(station)
            self.by_id[cfg.station_id] = station

        self.adversary: Adversary | None = None
        if script.adversary is not None:
            cfg = script.adversary
            self.adversary = Adversary(
                cfg,
                run_rng.child(ADVERSARY_ID),
                self.transcript,
                script.strict_frames,
                self._target(cfg.target_ap, ApStation),
                self._target(cfg.target_client, ClientStation),
            )

        # Every frame goes to the stations in script order, then the rogue AP;
        # a unicast frame to its MAC's receivers (the rogue may share a MAC).
        rogue = [self.adversary.rogue] if self.adversary and self.adversary.rogue else []
        self.receivers = self.stations + rogue
        self._by_mac: dict[bytes, list[Station]] = {}
        for station in self.receivers:
            self._by_mac.setdefault(station.mac, []).append(station)
        # The listeners, by receiver position: the receivers an unsigned beacon
        # can reach, which are the scanning clients and the stations that
        # block a sender (and note its beacons). Kept by `_refresh`.
        self._position = {station: i for i, station in enumerate(self.receivers)}
        self._listeners: dict[int, Station] = {}
        self._aps = [s for s in self.stations if isinstance(s, ApStation)]

        # Each actor's due tick: the earliest tick at which its on_tick can act
        # (max_ticks when it has no timer running). Actors tick in this order:
        # the rogue AP, the adversary, then the stations in script order.
        adversary = [self.adversary] if self.adversary else []
        self._due = dict.fromkeys(rogue + adversary + self.stations, 0)
        for actor in self._due:
            self._refresh(actor, 0)

        # The scheduled actions still to run, by tick and then in script order;
        # the head is the next. Only the ticks of the run are ever stepped.
        self._schedule = deque(sorted(
            (a for a in script.schedule if 0 <= a.tick < script.max_ticks),
            key=lambda a: a.tick,
        ))

        self.mac_names = {s.mac: s.cfg.station_id for s in self.receivers}

    def _target(self, station_id: str | None, kind: type) -> bytes | None:
        """The MAC of the named station, else of the first station of `kind`."""
        if station_id is not None:
            return self.by_id[station_id].mac
        return next((s.mac for s in self.stations if isinstance(s, kind)), None)

    def _transmit(self, tick: int, t: Transmission, in_flight: list) -> None:
        self.transcript.tx(tick, t)
        in_flight.append(t)

    def _refresh(self, actor: Station | Adversary, tick: int) -> None:
        """Recompute the due tick of `actor` from `tick` on, and whether it is a
        listener, after it acted: only acting changes a station's state or
        its blocked list."""
        deadline = actor._next_deadline(tick)
        self._due[actor] = self.script.max_ticks if deadline is None else deadline
        i = self._position.get(actor)
        if i is None:
            return
        if actor.state == "scanning" or actor.blocked:
            self._listeners[i] = actor
        else:
            self._listeners.pop(i, None)

    def _ticking(self, tick: int) -> list[Station | Adversary]:
        """The actors whose on_tick runs at `tick`, in tick order: those whose
        due tick it has reached."""
        return [actor for actor, due in self._due.items() if due <= tick]

    def _addressees(self, t: Transmission) -> list[Station]:
        """The stations `t` is handed to, in receiver order: the receivers of
        its destination MAC; for an unsigned, well-formed broadcast beacon,
        the listeners, as no other station can act on it or record it; else
        every receiver. The listeners are copied, as delivery changes them."""
        dst = t.dst_mac
        if dst != BROADCAST_MAC:
            return self._by_mac.get(dst, [])
        if (
            t.kind == "beacon"
            and not self.script.mitigations.sign_management_frames
            and not isinstance(t.frame, MalformedFrameError)
        ):
            return [self._listeners[i] for i in sorted(self._listeners)]
        return self.receivers

    def _deliver(self, tick: int, t: Transmission, in_flight: list) -> None:
        """Hand `t` to its addressees but its sender. Its parse is made once,
        by its first reader, and shared by the rest."""
        src = t.src_mac
        for station in self._addressees(t):
            if station.mac == src or station._blocks(tick, src):
                continue
            for reply in station.on_frame(tick, t):
                self._transmit(tick, reply, in_flight)
            self._refresh(station, tick)

    def _write_unheard_beacons(self, tick: int) -> int:
        """Write the AP beacons of the stretch from `tick` in which APs only
        beacon and no one is handed a beacon, and return the stretch end, or
        `tick` when there is no such stretch. It ends at the earliest of the
        schedule head, max_ticks, every client's due tick and every AP peer's
        retry deadline, so no station acts in it: each AP's beacon and the
        listeners stay as they are, and one `_addressees` call per beacon
        decides for the whole stretch. The beacons are written as stepped
        ticks would write them, by tick and then in script order, and none is
        delivered."""
        if self.adversary is not None or self._listeners:
            return tick  # every beacon is handed to a listener
        end = self._schedule[0].tick if self._schedule else self.script.max_ticks
        for station in self.stations:
            due = station._retry_due() if isinstance(station, ApStation) else self._due[station]
            if due is not None and due < end:
                end = due
        first = {ap: ap._beacon_due(tick) for ap in self._aps}
        beaconing = [ap for ap in self._aps if first[ap] < end]
        beacons = [ap._beacon() for ap in beaconing]
        if not beacons or any(map(self._addressees, beacons)):
            return tick
        writes = sorted(
            (at, i)
            for i, ap in enumerate(beaconing)
            for at in range(first[ap], end, ap.cfg.beacon_period)
        )
        dropped: list[Transmission] = []
        for at, i in writes:
            self._transmit(at, beacons[i], dropped)
        for ap in beaconing:
            self._refresh(ap, end)
        return end

    def _next_due(self, tick: int) -> int:
        """The earliest tick >= `tick` at which anything acts, or max_ticks."""
        due = [self.script.max_ticks, *self._due.values()]
        if self._schedule:
            due.append(self._schedule[0].tick)
        # a deadline already passed means on_tick acts at `tick` itself
        return max(tick, min(due))

    def run(self) -> Transcript:
        in_flight: list[Transmission] = []
        tick = self._next_due(0)
        while tick < self.script.max_ticks:
            if not in_flight:
                end = self._write_unheard_beacons(tick)
                if end > tick:
                    tick = self._next_due(end)
                    continue
            deliveries, in_flight = in_flight, []
            for t in deliveries:
                passed = self.adversary.intercept(tick, t) if self.adversary else [t]
                for item in passed:
                    self._deliver(tick, item, in_flight)
            for actor in self._ticking(tick):
                for t in actor.on_tick(tick):
                    self._transmit(tick, t, in_flight)
                self._refresh(actor, tick + 1)
            while self._schedule and self._schedule[0].tick == tick:
                station = self.by_id[self._schedule.popleft().station]
                for t in station.reset(tick):
                    self._transmit(tick, t, in_flight)
                self._refresh(station, tick + 1)
            # frames no adversary meets and no one is handed change nothing: they
            # are dropped, and the clock jumps as if none were in flight to the
            # next tick at which anything acts; from there, beacons no one is
            # handed cost their records and no stepped tick
            if not (self.adversary or any(map(self._addressees, in_flight))):
                in_flight = []
            tick = tick + 1 if in_flight else self._next_due(tick + 1)
        adversary = {ADVERSARY_ID: self.adversary} if self.adversary else {}
        for name, reporter in {**self.by_id, **adversary}.items():
            self.transcript.summaries[name] = reporter.summary(self.mac_names)
            self.transcript.secrets[name] = reporter.secrets()
        return self.transcript


# Scripted identities, long-lived and frozen, so every simulation may share them.
_identities: OrderedDict = OrderedDict()


def _identity(identity_seed: int, cfg: StationConfig) -> StationIdentity:
    """A scripted station's identity, derived once per process."""
    key = (identity_seed, cfg.station_id, cfg.mac, cfg.role, tuple(cfg.groups))
    role = Role.CLIENT if cfg.role == "client" else Role.AP
    rng = SeededRng(identity_seed, b"identities")
    return _recall(_identities, key, lambda: make_identity(
        parse_mac(cfg.mac), role, cfg.groups, rng.child(f"id:{cfg.station_id}")
    ))


def run_scenario(script: ScenarioScript, seed: int) -> Transcript:
    return Simulation(script, seed).run()


def eavesdropper_view(transcript: Transcript) -> dict:
    """What a passive observer of the whole run learned about the secrets.

    Scans every transmitted frame for the raw octets of each station's PSKs
    and KCKs, counting a hit once per time the frame went on air; each
    distinct frame is decoded and searched once. The count must be zero for
    any run without the deliberate debug leak; the adversary only knows a
    legitimate station's PSK if it was itself an endpoint of that session."""
    on_air = Counter(r["hex"] for r in transcript.records if r["event"] == "tx")
    frames = {bytes.fromhex(wire): sent for wire, sent in on_air.items()}
    legit_psks: set[bytes] = set()
    legit_kcks: set[bytes] = set()
    for station_id, entry in transcript.secrets.items():
        if station_id == ADVERSARY_ID:
            continue
        legit_psks.update(bytes.fromhex(p) for p in entry["psks"])
        legit_kcks.update(bytes.fromhex(k) for k in entry["kcks"])
    psk_hits = sum(sent for f, sent in frames.items() for p in legit_psks if p in f)
    kck_hits = sum(sent for f, sent in frames.items() for k in legit_kcks if k in f)
    adversary_psks = {
        bytes.fromhex(p)
        for p in transcript.secrets.get(ADVERSARY_ID, {}).get("psks", ())
    }
    knows = bool(adversary_psks & legit_psks) or psk_hits > 0
    return {
        "frames_observed": on_air.total(),
        "legit_psk_count": len(legit_psks),
        "psk_octets_on_wire": psk_hits,
        "kck_octets_on_wire": kck_hits,
        "adversary_knows_legit_psk": knows,
    }
