"""The benchmark's workloads: inputs made from a seed, the op, and its checks.

Each workload object is built once from the workload seed (the set-up the
benchmark times) and then runs ``op(op_seed)`` in a closed loop. ``check``
looks at an op's output outside the timed region and returns the problems it
found, an empty list when the output is correct; ``digest`` is the SHA-256
that must repeat for a repeat of the same op seed, traced or not.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

from soapsim import crypto, frames, negotiation, scenarios, simnet
from soapsim.fourway import Authenticator, FourwayState, Supplicant
from soapsim.handshake import ApSession, ClientSession, Phase, Role, make_identity

HERE = Path(__file__).resolve().parent
RECORDS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))

_AP_MAC = bytes.fromhex("020000000001")
_CLIENT_MAC = bytes.fromhex("020000000002")
_SSID = b"perfbench"


def _group(name: str) -> crypto.EcGroup:
    for group in crypto.REGISTRY.values():
        if group.name == name:
            return group
    raise KeyError(name)


def _sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return h.hexdigest()


def _secrets_on_air(wires, secrets) -> int:
    return sum(1 for wire in wires for secret in secrets if secret in wire)


# ---------------------------------------------------------------------------
# handshake-mix
# ---------------------------------------------------------------------------


@dataclass
class Session:
    curve: str
    ap: ApSession
    client: ClientSession
    auth: Authenticator
    supp: Supplicant
    wires: list


def _air(wires: list, wire: bytes) -> bytes:
    wires.append(wire)
    return wire


def _mgmt(wires, subtype, src, dst, elements):
    wire = frames.encode_management_frame(frames.ManagementFrame(subtype, src, dst, elements))
    return frames.parse_management_frame(_air(wires, wire))


def _data(wires, src, dst, payload, from_ds):
    wire = frames.encode_data_frame(frames.DataFrame(src, dst, payload, from_ds=from_ds))
    return frames.parse_data_frame(_air(wires, wire))


def _eapol(wires, src, dst, key_frame, from_ds):
    data = _data(wires, src, dst, frames.encode_eapol_key_frame(key_frame), from_ds)
    return frames.parse_eapol_key_frame(data.payload)


def run_session(ap_id, cl_id, rng: crypto.SeededRng) -> Session:
    """One SOAP session, every message encoded and parsed back on the way."""
    group = crypto.registry_lookup(ap_id.group_ids[0])
    wires: list = []
    ssid = (frames.ELEMENT_ID_SSID, _SSID)
    adv = negotiation.advertisement_ie(ap_id.ecdsa, ap_id.group_ids)
    beacon = _mgmt(
        wires, frames.FrameSubtype.BEACON, ap_id.mac, frames.BROADCAST_MAC,
        (ssid, frames.soap_ie_element(adv)),
    )
    client = ClientSession(cl_id, rng.child("client"))
    response, _ = client.on_advertisement(frames.soap_ie_from_frame(beacon), beacon.src_mac)
    assoc = _mgmt(
        wires, frames.FrameSubtype.ASSOC_REQUEST, cl_id.mac, ap_id.mac,
        (ssid, frames.soap_ie_element(response)),
    )
    client.mark_associated()
    ap = ApSession(ap_id, rng.child("ap"), assoc.src_mac)
    ap.on_response_element(frames.soap_ie_from_frame(assoc))
    msg1 = _data(wires, ap_id.mac, cl_id.mac, frames.encode_soap_message(ap.build_message1()), True)
    widths = dict(key_octets=group.key_size_octets, signature_octets=group.key_size_octets)
    msg2, _ = client.on_message1(frames.parse_soap_message(msg1.payload, **widths), msg1.src_mac)
    msg2 = _data(wires, cl_id.mac, ap_id.mac, frames.encode_soap_message(msg2), False)
    ap.on_message2(frames.parse_soap_message(msg2.payload, **widths), msg2.src_mac)

    auth = Authenticator(bytes(ap.psk), ap_id.mac, cl_id.mac, rng.child("auth"))
    supp = Supplicant(bytes(client.psk), ap_id.mac, cl_id.mac, rng.child("supp"))
    k1 = _eapol(wires, ap_id.mac, cl_id.mac, auth.start(), True)
    k2, _ = supp.on_frame(k1)
    k3, _ = auth.on_frame(_eapol(wires, cl_id.mac, ap_id.mac, k2, False))
    k4, _ = supp.on_frame(_eapol(wires, ap_id.mac, cl_id.mac, k3, True))
    auth.on_frame(_eapol(wires, cl_id.mac, ap_id.mac, k4, False))
    return Session(group.name, ap, client, auth, supp, wires)


class HandshakeMix:
    name = "handshake-mix"
    simulates = False

    def __init__(self, seed: int, size: dict):
        rng = crypto.SeededRng(seed, b"perfbench/handshake-mix/identities")
        self.pairs = []
        for curve in size["curves"]:
            gid = (_group(curve).group_id,)
            self.pairs.append((
                curve,
                make_identity(_AP_MAC, Role.AP, gid, rng.child(f"ap/{curve}")),
                make_identity(_CLIENT_MAC, Role.CLIENT, gid, rng.child(f"client/{curve}")),
            ))

    def op(self, seed: int) -> list[Session]:
        rng = crypto.SeededRng(seed, b"perfbench/handshake-mix/sessions")
        return [run_session(ap, cl, rng.child(curve)) for curve, ap, cl in self.pairs]

    def check(self, sessions) -> list[str]:
        problems = []
        for s in sessions:
            where = f"{s.curve}:"
            if s.ap.phase is not Phase.PSK_AGREED or s.client.phase is not Phase.PSK_AGREED:
                problems.append(f"{where} agreement ended {s.ap.phase}/{s.client.phase}")
                continue
            if bytes(s.ap.psk) != bytes(s.client.psk):
                problems.append(f"{where} PSKs differ")
            if s.auth.state is not FourwayState.ESTABLISHED or (
                s.supp.state is not FourwayState.ESTABLISHED
            ):
                problems.append(f"{where} 4-Way ended {s.auth.state}/{s.supp.state}")
                continue
            if s.auth.keys != s.supp.keys:
                problems.append(f"{where} PTKs differ")
            if _secrets_on_air(s.wires, (bytes(s.ap.psk), s.auth.keys.kck)):
                problems.append(f"{where} PSK or KCK octets on air")
        return problems

    def digest(self, sessions) -> str:
        parts = []
        for s in sessions:
            parts.extend(s.wires)
            parts.append(bytes(s.ap.psk or b""))
            if s.auth.keys is not None:
                parts.extend((s.auth.keys.kck, s.auth.keys.kek, s.auth.keys.tk))
        return _sha256(*parts)


# ---------------------------------------------------------------------------
# Independent ECDH oracle for a sample of handshake-mix PSKs
# ---------------------------------------------------------------------------


def _oracle():
    """(source name, mul) where mul(k, point or None for G, group) is k*point
    computed outside soapsim, as (x, y) or, for a peer point under
    ``cryptography``'s ECDH, as (x, None).

    Uses the ``cryptography`` package when it is installed, else the textbook
    oracle in tests/oracle_ec.py.
    """
    try:
        from cryptography.hazmat.primitives.asymmetric import ec
    except ImportError:
        path = HERE.parent / "tests" / "oracle_ec.py"
        spec = importlib.util.spec_from_file_location("perfbench_oracle_ec", path)
        oracle = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracle)

        def mul(k, point, group):
            base = point if point is not None else group.generator
            return oracle.affine_mul(group.field_p, group.curve_a, k, base)

        return "tests/oracle_ec.py", mul

    curves = {"P-224": ec.SECP224R1, "P-256": ec.SECP256R1,
              "P-384": ec.SECP384R1, "P-521": ec.SECP521R1}

    def mul(k, point, group):
        curve = curves[group.name]()
        key = ec.derive_private_key(k, curve)
        if point is None:
            numbers = key.public_key().public_numbers()
            return numbers.x, numbers.y
        peer = ec.EllipticCurvePublicNumbers(point[0], point[1], curve).public_key()
        x = int.from_bytes(key.exchange(ec.ECDH(), peer), "big")
        return x, None

    return "cryptography", mul


def cross_check(sessions, ephemerals) -> tuple[str, list[str]]:
    """Check each session's keys against the oracle.

    ``ephemerals`` are the ECDH key pairs ``ecdh_generate`` returned during
    the op, in call order: the AP's (Message 1) then the client's (Message 2)
    for each session.
    """
    source, mul = _oracle()
    problems = []
    if len(ephemerals) != 2 * len(sessions):
        return source, [f"expected {2 * len(sessions)} ephemeral keys, saw {len(ephemerals)}"]
    for s, ap_kp, cl_kp in zip(sessions, ephemerals[0::2], ephemerals[1::2]):
        group = ap_kp.group
        for who, kp in (("AP", ap_kp), ("client", cl_kp)):
            if mul(kp.private_scalar, None, group) != kp.public_point:
                problems.append(f"{s.curve}: {who} public key differs from the oracle's k*G")
        x, _ = mul(cl_kp.private_scalar, ap_kp.public_point, group)
        psk = hashlib.sha256(x.to_bytes(group.key_size_octets, "big")).digest()
        if psk != bytes(s.client.psk):
            problems.append(f"{s.curve}: PSK differs from the oracle's ECDH")
    return source, problems


# ---------------------------------------------------------------------------
# attack-suite
# ---------------------------------------------------------------------------


@dataclass
class SuiteOutput:
    report: scenarios.SuiteReport
    text: str


class AttackSuite:
    name = "attack-suite"
    simulates = True

    def __init__(self, seed: int, size: dict):
        self.expected = [
            (row, label, verdict)
            for row, variants in scenarios.SUITE_PLAN
            for label, _, verdict in variants
        ]

    def op(self, seed: int) -> SuiteOutput:
        report = scenarios.run_attack_suite(seed)
        return SuiteOutput(report, report.to_json())

    def check(self, out: SuiteOutput) -> list[str]:
        got = [(r.row, r.variant, r.verdict) for r in out.report.rows]
        problems = []
        if got != self.expected:
            problems.append(f"suite rows {got} differ from SUITE_PLAN")
        failed = [f"{r.row}/{r.variant}" for r in out.report.rows if not r.ok]
        if failed:
            problems.append(f"suite rows failed: {failed}")
        if json.loads(out.text)["passed"] is not True:
            problems.append("JSON report does not say passed")
        return problems

    def digest(self, out: SuiteOutput) -> str:
        return _sha256(out.text.encode())


# ---------------------------------------------------------------------------
# crowd-signed and campus-idle
# ---------------------------------------------------------------------------


def _macs(rng: random.Random, count: int) -> list[str]:
    """Distinct locally administered unicast MACs."""
    seen: set = set()
    while len(seen) < count:
        seen.add("02:" + ":".join(f"{rng.randrange(256):02x}" for _ in range(5)))
    macs = sorted(seen)
    rng.shuffle(macs)
    return macs


def crowd_script(seed: int, size: dict) -> simnet.ScenarioScript:
    rng = random.Random(seed)
    macs = _macs(rng, 1 + size["clients"])
    stations = [{
        "station_id": "ap", "role": "ap", "mac": macs[0], "ssid": "crowd",
        "beacon_offset": rng.randrange(100),
    }]
    stations += [
        {"station_id": f"client{i}", "role": "client", "mac": mac, "ssid": "crowd"}
        for i, mac in enumerate(macs[1:])
    ]
    return scenarios.script_from_dict({
        "name": "perfbench-crowd-signed",
        "stations": stations,
        "mitigations": {"sign_management_frames": True},
        "max_ticks": size["ticks"],
        "identity_seed": rng.randrange(2**31),
    })


def campus_script(seed: int, size: dict) -> simnet.ScenarioScript:
    rng = random.Random(seed)
    ticks, aps, clients = size["ticks"], size["aps"], size["clients"]
    macs = _macs(rng, aps + clients)
    stations = [
        {"station_id": f"ap{k}", "role": "ap", "mac": macs[k], "ssid": f"campus-{k}",
         "beacon_offset": rng.randrange(100)}
        for k in range(aps)
    ]
    stations += [
        {"station_id": f"client{i}", "role": "client", "mac": macs[aps + i],
         "ssid": f"campus-{i % aps}"}
        for i in range(clients)
    ]
    # Resets are staggered over the middle of the run, so every client has
    # long enough to re-establish before it ends.
    window = ticks // (size["resets"] + 1)
    schedule = [
        {"tick": ticks // 4 + r * window // 2 + rng.randrange(window // 4),
         "station": f"client{rng.randrange(clients)}", "action": "reset"}
        for r in range(size["resets"])
    ]
    expectations = [
        {"check": "station-state", "station": f"client{i}", "equals": "established"}
        for i in range(clients)
    ] + [{"check": "no-psk-on-wire"}]
    return scenarios.script_from_dict({
        "name": "perfbench-campus-idle",
        "stations": stations,
        "schedule": schedule,
        "expectations": expectations,
        "max_ticks": ticks,
        "identity_seed": rng.randrange(2**31),
    })


def established_problems(transcript: simnet.Transcript) -> list[str]:
    """Every client is Established with a PSK and KCK that match its AP's."""
    problems = []
    for station, summary in transcript.summaries.items():
        if summary.get("role") != "client":
            continue
        if summary["state"] != "established":
            problems.append(f"{station} ended {summary['state']}")
            continue
        mine = transcript.secrets[station]
        theirs = transcript.secrets[summary["peer"]]
        if mine["psks"][-1] not in theirs["psks"] or mine["kcks"][-1] not in theirs["kcks"]:
            problems.append(f"{station} keys do not match {summary['peer']}")
    return problems


def leak_problems(transcript: simnet.Transcript) -> list[str]:
    wires = [bytes.fromhex(r["hex"]) for r in transcript.records if r["event"] == "tx"]
    secrets = {
        bytes.fromhex(value)
        for entry in transcript.secrets.values()
        for value in entry["psks"] + entry["kcks"]
    }
    hits = _secrets_on_air(wires, secrets)
    return [f"{hits} frames carry PSK or KCK octets"] if hits else []


@dataclass
class CampusOutput:
    transcript: simnet.Transcript
    checks: list
    text: str


class CrowdSigned:
    name = "crowd-signed"
    simulates = True

    def __init__(self, seed: int, size: dict):
        self.script = crowd_script(seed, size)

    def op(self, seed: int) -> simnet.Transcript:
        return simnet.run_scenario(self.script, seed)

    def check(self, transcript) -> list[str]:
        return established_problems(transcript) + leak_problems(transcript)

    def digest(self, transcript) -> str:
        return _sha256(transcript.to_json().encode())


class CampusIdle:
    name = "campus-idle"
    simulates = True

    def __init__(self, seed: int, size: dict):
        self.script = campus_script(seed, size)

    def op(self, seed: int) -> CampusOutput:
        transcript = simnet.run_scenario(self.script, seed)
        checks = scenarios.evaluate_expectations(self.script, transcript)
        return CampusOutput(transcript, checks, transcript.to_json() + "\n")

    def check(self, out: CampusOutput) -> list[str]:
        failed = [f"expectation {c.name}: {c.detail}" for c in out.checks if not c.ok]
        return failed + established_problems(out.transcript) + leak_problems(out.transcript)

    def digest(self, out: CampusOutput) -> str:
        return _sha256(out.text.encode())


WORKLOADS = {w.name: w for w in (HandshakeMix, AttackSuite, CrowdSigned, CampusIdle)}


def size(name: str, smoke: bool = False) -> dict:
    """The workload's stated size; with ``smoke``, its smoke size if it has one."""
    record = RECORDS[name]
    return record.get("smoke_size", record["size"]) if smoke else record["size"]


def build(name: str, seed: int, smoke: bool = False):
    return WORKLOADS[name](seed, size(name, smoke))


# ---------------------------------------------------------------------------
# Exact simulated statistics
# ---------------------------------------------------------------------------


def sim_stats(transcripts) -> dict:
    """Frames and octets on air by kind, established pairs, latch-to-Established
    latency in ticks and the combined transcript SHA-256."""
    on_air: dict = {}
    latencies = []
    established = 0
    digests = []
    for transcript in transcripts:
        digests.append(_sha256(transcript.to_json().encode()).encode())
        latched: dict = {}
        for r in transcript.records:
            if r["event"] == "tx":
                kind = on_air.setdefault(r["frame"], [0, 0])
                kind[0] += 1
                kind[1] += r["size"]
            elif r["event"] == "transition" and r["scope"] == "station":
                station, to = r["station"], r["to"]
                if to in ("soap", "fourway"):
                    latched.setdefault(station, r["tick"])
                elif to == "established" and station in latched:
                    latencies.append(r["tick"] - latched.pop(station))
                else:
                    latched.pop(station, None)
        for summary in transcript.summaries.values():
            sessions = summary.get("sessions") if summary.get("role") == "ap" else None
            established += sum(1 for s in (sessions or {}).values() if s["established"])
    return {
        "transcripts": len(digests),
        "frames_on_air": {k: v[0] for k, v in sorted(on_air.items())},
        "octets_on_air": {k: v[1] for k, v in sorted(on_air.items())},
        "established_pairs": established,
        "latch_to_established_ticks": {
            "p50": statistics.median(latencies) if latencies else None,
            "max": max(latencies) if latencies else None,
            "count": len(latencies),
        },
        "sha256": _sha256(*digests),
    }
