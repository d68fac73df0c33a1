"""Frame-size accounting and crypto micro-benchmarks.

The size report measures real encoded frames, so every number it prints is
the length of bytes that the codecs actually produce.  The bench report
times the five public-key operations the key agreement adds on top of a
plain pre-shared-key setup, plus the constant two-frame message overhead.
"""

from __future__ import annotations

import platform
import statistics
import sys
import time
from dataclasses import dataclass, field

from .crypto import (
    SeededRng,
    ecdh_agree,
    ecdh_generate,
    ecdsa_generate,
    ecdsa_sign,
    ecdsa_verify,
    registry_lookup,
)
from .frames import (
    ELEMENT_ID_SSID,
    EapolKeyFrame,
    FrameSubtype,
    ManagementFrame,
    SoapIe,
    SoapMessage,
    encode_soap_ie,
    frame_wire_size,
    soap_ie_element,
)
from .fourway import (
    KEY_DATA_M3,
    KEY_INFO_M1,
    KEY_INFO_M2,
    KEY_INFO_M3,
    KEY_INFO_M4,
    derive_ptk,
)

# Element ids for the fixed baseline management frames.  The baseline is
# this artifact's own reference composition: a beacon carrying the element
# set a typical infrastructure network advertises, against which the cost
# of the key-agreement advertisement is measured.
_EID_RATES = 1
_EID_DS_PARAMS = 3
_EID_TIM = 5
_EID_COUNTRY = 7
_EID_ERP = 42
_EID_RSN = 48
_EID_EXT_RATES = 50

_BASELINE_SSID = b"publicnet"

# (element id, payload) for the baseline beacon body
_BASELINE_BEACON_ELEMENTS = (
    (ELEMENT_ID_SSID, _BASELINE_SSID),
    (_EID_RATES, bytes(8)),
    (_EID_DS_PARAMS, bytes(1)),
    (_EID_TIM, bytes(4)),
    (_EID_COUNTRY, bytes(6)),
    (_EID_ERP, bytes(1)),
    (_EID_EXT_RATES, bytes(4)),
    (_EID_RSN, bytes(20)),
)

_BASELINE_ASSOC_ELEMENTS = _BASELINE_BEACON_ELEMENTS[:2]  # the SSID and rates

_MAC_A = b"\x02\x00\x00\x00\x00\x01"
_MAC_B = b"\x02\x00\x00\x00\x00\x02"


@dataclass(frozen=True)
class SizeRow:
    """One frame kind, measured without and with the key-agreement fields."""

    kind: str
    baseline_octets: int
    soap_octets: int

    @property
    def overhead_fraction(self) -> float:
        return (self.soap_octets - self.baseline_octets) / self.soap_octets


@dataclass
class SizeReport:
    group_id: int
    group_name: str
    key_size_octets: int
    group_count: int
    strict: bool
    ie_octets: int
    message_octets: int
    rows: list[SizeRow] = field(default_factory=list)

    @property
    def ie_key_fraction(self) -> float:
        """Share of the advertisement element taken by the public key."""
        return self.key_size_octets / self.ie_octets

    def to_text(self) -> str:
        lines = [
            f"frame sizes: group {self.group_id} ({self.group_name}), "
            f"{self.group_count} advertised group(s), "
            f"{'strict' if self.strict else 'nonce-extended'} messages",
            "",
            f"advertisement element: {self.ie_octets} octets "
            f"(key {self.key_size_octets} octets, "
            f"{self.ie_key_fraction:.1%} of the element)",
            f"key-agreement message: {self.message_octets} octets on the wire",
            "",
            f"{'frame':<24} {'baseline':>9} {'with-agreement':>15} {'overhead':>9}",
            "-" * 61,
        ]
        for row in self.rows:
            lines.append(
                f"{row.kind:<24} {row.baseline_octets:>9} {row.soap_octets:>15} "
                f"{row.overhead_fraction:>8.1%}"
            )
        # the two agreement messages are added frames, with no baseline analogue
        for kind in ("agreement-message-1", "agreement-message-2"):
            lines.append(f"{kind:<24} {'-':>9} {self.message_octets:>15} {'added':>9}")
        return "\n".join(lines)


def size_report(group_id: int, group_count: int = 1, strict: bool = True) -> SizeReport:
    """Measure every frame kind the protocol touches, by encoding it."""
    group = registry_lookup(group_id)
    if group_count < 1:
        raise ValueError("at least one advertised group is required")
    s = group.key_size_octets

    # size accounting only needs m one-octet ids, so the group's id repeats
    ie = SoapIe((group.group_id,) * group_count, bytes(s))
    ie_octets = len(encode_soap_ie(ie))

    nonce = None if strict else bytes(8)
    message = SoapMessage(bytes(2 * s), bytes(2 * s), nonce)
    message_octets = frame_wire_size(message)

    assoc_ie = SoapIe((group.group_id,), bytes(s))

    def mgmt(subtype, elements, with_ie):
        if with_ie is not None:
            elements += (soap_ie_element(with_ie),)
        return frame_wire_size(ManagementFrame(subtype, _MAC_A, _MAC_B, elements))

    rows = [
        SizeRow(
            "beacon",
            mgmt(FrameSubtype.BEACON, _BASELINE_BEACON_ELEMENTS, None),
            mgmt(FrameSubtype.BEACON, _BASELINE_BEACON_ELEMENTS, ie),
        ),
        SizeRow(
            "probe-response",
            mgmt(FrameSubtype.PROBE_RESPONSE, _BASELINE_BEACON_ELEMENTS, None),
            mgmt(FrameSubtype.PROBE_RESPONSE, _BASELINE_BEACON_ELEMENTS, ie),
        ),
        SizeRow(
            "association-request",
            mgmt(FrameSubtype.ASSOC_REQUEST, _BASELINE_ASSOC_ELEMENTS, None),
            mgmt(FrameSubtype.ASSOC_REQUEST, _BASELINE_ASSOC_ELEMENTS, assoc_ie),
        ),
    ]

    def eapol(key_info, counter, key_data=b""):
        return frame_wire_size(
            EapolKeyFrame(
                key_info=key_info,
                replay_counter=counter,
                key_nonce=bytes(32),
                key_mic=bytes(16),
                key_data=key_data,
            )
        )

    key_sizes = [
        ("key-handshake-1", eapol(KEY_INFO_M1, 1)),
        ("key-handshake-2", eapol(KEY_INFO_M2, 1)),
        ("key-handshake-3", eapol(KEY_INFO_M3, 2, KEY_DATA_M3)),
        ("key-handshake-4", eapol(KEY_INFO_M4, 2)),
    ]
    # The key handshake itself is unchanged; its frames cost the same octets
    # either way, so they appear with a zero overhead fraction.
    rows.extend(SizeRow(kind, octets, octets) for kind, octets in key_sizes)

    report = SizeReport(
        group_id=group.group_id,
        group_name=group.name,
        key_size_octets=s,
        group_count=group_count,
        strict=strict,
        ie_octets=ie_octets,
        message_octets=message_octets,
        rows=rows,
    )
    for row in report.rows:
        assert 0 <= row.overhead_fraction < 1
    return report


# ---------------------------------------------------------------------------
# Crypto benchmarks
# ---------------------------------------------------------------------------

#: Frames the key agreement adds ahead of the key handshake, independent of
#: group or timing: the two signed agreement messages.
MESSAGE_COUNT_DELTA = 2

_MIN_BENCH_ITERATIONS = 100


@dataclass(frozen=True)
class BenchRow:
    operation: str
    mean_seconds: float
    stdev_seconds: float
    samples: int


@dataclass
class BenchReport:
    group_id: int
    group_name: str
    rows: list[BenchRow]
    message_count_delta: int
    machine: dict

    def to_text(self) -> str:
        lines = [
            f"crypto benchmark: group {self.group_id} ({self.group_name})",
            f"machine: {self.machine['platform']} / python "
            f"{self.machine['python']}",
            "",
            f"{'operation':<28} {'mean (ms)':>10} {'stdev (ms)':>11} {'samples':>8}",
            "-" * 61,
        ]
        for r in self.rows:
            lines.append(
                f"{r.operation:<28} {r.mean_seconds * 1e3:>10.3f} "
                f"{r.stdev_seconds * 1e3:>11.3f} {r.samples:>8}"
            )
        lines.append("-" * 61)
        lines.append(
            f"extra frames before the key handshake: {self.message_count_delta}"
        )
        return "\n".join(lines)


def _timed(fn, iterations: int) -> list[float]:
    samples = []
    for _ in range(iterations):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


def bench_crypto(group_id: int, iterations: int = _MIN_BENCH_ITERATIONS) -> BenchReport:
    """Time the public-key operations the agreement adds per handshake.

    The ecdsa-verify row times warm verifies: two other messages are verified
    under the signer's key first, untimed, the second building the key's comb
    table, so each timed verify is one a long-lived AP key makes.
    """
    if iterations < _MIN_BENCH_ITERATIONS:
        raise ValueError(f"need at least {_MIN_BENCH_ITERATIONS} iterations")
    group = registry_lookup(group_id)
    rng = SeededRng(b"bench", b"metrics")

    signer = ecdsa_generate(group, rng.child(b"signer"))
    own = ecdh_generate(group, rng.child(b"own"))
    peer = ecdh_generate(group, rng.child(b"peer"))
    # More distinct inputs than crypto's memos hold: no row times a memo hit.
    messages = [i.to_bytes(8, "big") for i in range(iterations)]
    to_verify = iter([(message, ecdsa_sign(signer, message)) for message in messages])
    for message in (b"warm-up 0", b"warm-up 1"):
        ecdsa_verify(group, signer.public_point, message, ecdsa_sign(signer, message))

    pmk = rng.randbytes(32)
    anonce, snonce = rng.randbytes(32), rng.randbytes(32)

    message_iter = iter(messages)

    plan = [
        ("ecdh-generate", lambda: ecdh_generate(group, rng)),
        ("ecdh-agree", lambda: ecdh_agree(own, peer.public_point)),
        ("ecdsa-sign", lambda: ecdsa_sign(signer, next(message_iter))),
        ("ecdsa-verify", lambda: ecdsa_verify(group, signer.public_point, *next(to_verify))),
        ("ptk-derive", lambda: derive_ptk(pmk, _MAC_A, _MAC_B, anonce, snonce)),
    ]

    rows = []
    for name, fn in plan:
        samples = _timed(fn, iterations)
        rows.append(
            BenchRow(name, statistics.fmean(samples), statistics.stdev(samples), len(samples))
        )

    # Both stations each generate, agree, sign once, and verify once, so the
    # pair spends two of every operation per completed agreement.
    pair_total = 2 * sum(
        r.mean_seconds for r in rows if r.operation.startswith(("ecdh", "ecdsa"))
    )
    rows.append(BenchRow("agreement-pair-total", pair_total, 0.0, iterations))

    machine = {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "processor": platform.machine(),
    }
    return BenchReport(
        group_id=group.group_id,
        group_name=group.name,
        rows=rows,
        message_count_delta=MESSAGE_COUNT_DELTA,
        machine=machine,
    )
