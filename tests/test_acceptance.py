"""Release acceptance: one test and one printed pass/fail line per criterion.

Each test prints `criterion N: PASS (...)` before its final assertion, so a
plain run shows the line for failures and `pytest -s` shows all nine.
"""

import hashlib
import hmac
import itertools
import struct
import time
from collections import Counter

from oracle_ec import affine_mul

from soapsim.cli import main
from soapsim.crypto import (
    REGISTRY,
    SeededRng,
    ecdsa_generate,
    ecdsa_sign,
    ecdsa_verify,
)
from soapsim.fourway import FourwayState, derive_ptk
from soapsim.frames import (
    EapolKeyFrame,
    FrameSubtype,
    ManagementFrame,
    SoapIe,
    SoapMessage,
    encode_management_frame,
    encode_soap_ie,
    frame_wire_size,
    parse_management_frame,
    soap_ie_element,
)
from soapsim.fourway import KEY_DATA_M3, KEY_INFO_M3
from soapsim.handshake import Phase, Role, make_identity, run_exchange
from soapsim.metrics import MESSAGE_COUNT_DELTA, bench_crypto, size_report
from soapsim.negotiation import select_group
from soapsim.scenarios import SUITE_PLAN, builtin, run_attack_suite
from soapsim.simnet import ScenarioScript, StationConfig, run_scenario

AP_MAC = bytes.fromhex("020000000001")
CLIENT_MAC = bytes.fromhex("020000000002")


def report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def identities(gid, label):
    rng = SeededRng(gid, label)
    ap_id = make_identity(AP_MAC, Role.AP, (gid,), rng.child(b"ap"))
    cl_id = make_identity(CLIENT_MAC, Role.CLIENT, (gid,), rng.child(b"client"))
    return ap_id, cl_id


def test_01_frame_size_constants():
    """The four anchor octet counts, measured from real encodings, in <1s."""
    start = time.perf_counter()
    ie_one = len(encode_soap_ie(SoapIe((26,), bytes(28))))
    message = frame_wire_size(SoapMessage(bytes(56), bytes(56), None))
    ie_two = size_report(26, group_count=2).ie_octets
    eapol_m3 = frame_wire_size(
        EapolKeyFrame(
            key_info=KEY_INFO_M3,
            replay_counter=2,
            key_nonce=bytes(32),
            key_mic=bytes(16),
            key_data=KEY_DATA_M3,
        )
    )
    elapsed = time.perf_counter() - start
    got = (ie_one, message, ie_two, eapol_m3)
    report(
        1,
        got == (33, 148, 34, 195) and elapsed < 1.0,
        f"sizes {got}, {elapsed * 1e3:.0f}ms",
    )


def test_02_every_group_establishes_with_identical_ptks():
    """100 seeded runs per group, agreement through key handshake, in <30s."""
    start = time.perf_counter()
    runs = 0
    for gid in sorted(REGISTRY):
        ap_id, cl_id = identities(gid, b"acceptance-02")
        for seed in range(100):
            ex = run_exchange(ap_id, cl_id, SeededRng(seed, b"acceptance-02-run"))
            assert ex.ap.phase is Phase.PSK_AGREED
            assert ex.client.phase is Phase.PSK_AGREED
            assert ex.ap.psk == ex.client.psk
            auth, supp = ex.authenticator, ex.supplicant
            assert auth.state is FourwayState.ESTABLISHED
            assert supp.state is FourwayState.ESTABLISHED
            assert (auth.keys.kck, auth.keys.kek, auth.keys.tk) == (
                supp.keys.kck,
                supp.keys.kek,
                supp.keys.tk,
            )
            runs += 1
    elapsed = time.perf_counter() - start
    report(2, runs == 400 and elapsed < 30.0, f"{runs} runs in {elapsed:.1f}s")


def test_03_hundred_sessions_hundred_psks():
    """Every session draws a pairwise-distinct secret."""
    ap_id, cl_id = identities(26, b"acceptance-03")
    psks = set()
    for seed in range(100):
        ex = run_exchange(ap_id, cl_id, SeededRng(seed, b"acceptance-03-run"))
        assert ex.ap.psk == ex.client.psk
        psks.add(bytes(ex.ap.psk))
    report(3, len(psks) == 100, f"{len(psks)} distinct secrets from 100 sessions")


def test_04_attack_suite_verdicts_under_three_seeds():
    """Every threat row reproduces its verdict for three distinct seeds."""
    expected = [verdict for _, vs in SUITE_PLAN for (_, _, verdict) in vs]
    seeds = (3, 17, 91)
    for seed in seeds:
        suite = run_attack_suite(seed)
        assert suite.passed, suite.to_text()
        assert [r.verdict for r in suite.rows] == expected
    report(4, True, f"12 rows x seeds {seeds}")


def test_05_legacy_coexistence():
    """Unaware parsers skip the new element; aware pairs still speak WPA-PSK."""
    # A parser that knows nothing of element 251 sees identical recognized
    # elements whether or not the advertisement rides in the frame.
    checked = 0
    for gid, group in sorted(REGISTRY.items()):
        ie = soap_ie_element(SoapIe((gid,), bytes(group.key_size_octets)))
        base_elements = [(0, b"publicnet"), (1, bytes(8)), (48, bytes(20))]
        with_ie = encode_management_frame(
            ManagementFrame(
                FrameSubtype.BEACON, AP_MAC, CLIENT_MAC, base_elements + [ie]
            )
        )
        stripped = encode_management_frame(
            ManagementFrame(FrameSubtype.BEACON, AP_MAC, CLIENT_MAC, base_elements)
        )
        recognized = [
            e for e in parse_management_frame(with_ie).elements if e[0] != 251
        ]
        assert recognized == list(parse_management_frame(stripped).elements)
        checked += 1

    # An aware pair scripted into legacy mode still reaches Established.
    for name in ("force-legacy", "legacy-client", "legacy-ap"):
        transcript = run_scenario(builtin(name), 0)
        assert transcript.summaries["client1"]["state"] == "established"
        assert transcript.summaries["client1"]["mode"] == "legacy"
    report(5, checked == 4, f"{checked} beacon variants, 3 legacy scenarios")


def test_06_negotiation_matches_brute_force_oracle():
    """All 256 ordered pairs of advertised subsets agree with the oracle."""
    key_size = {26: 28, 19: 32, 20: 48, 21: 66}
    subsets = []
    for r in range(5):
        subsets.extend(itertools.combinations((26, 19, 20, 21), r))
    assert len(subsets) == 16

    def oracle(ap_ids, client_ids):
        common = set(ap_ids) & set(client_ids)
        if not common:
            return None
        return max(common, key=lambda g: (key_size[g], -g))

    compared = 0
    for ap_ids in subsets:
        for client_ids in subsets:
            got = select_group(ap_ids, client_ids)
            assert got == oracle(ap_ids, client_ids), (ap_ids, client_ids)
            compared += 1
    report(6, compared == 256, f"{compared} ordered pairs")


def _prf384_oracle(pmk, ap_mac, client_mac, anonce, snonce):
    data = (
        min(ap_mac, client_mac)
        + max(ap_mac, client_mac)
        + min(anonce, snonce)
        + max(anonce, snonce)
    )
    blob = b""
    counter = 0
    while len(blob) < 48:
        blob += hmac.new(
            pmk,
            b"Pairwise key expansion" + b"\x00" + data + struct.pack("B", counter),
            hashlib.sha1,
        ).digest()
        counter += 1
    return blob[:48]


def test_07_crypto_against_independent_oracles():
    """Shared secrets, signature rejection, and key expansion cross-checked."""
    from soapsim.crypto import ecdh_agree, ecdh_generate

    # ECDH versus textbook affine double-and-add, ten cases per group.
    ecdh_cases = 0
    for gid, group in sorted(REGISTRY.items()):
        for seed in range(10):
            rng = SeededRng(seed, b"acceptance-07-ecdh" + bytes([gid]))
            own = ecdh_generate(group, rng.child(b"own"))
            peer = ecdh_generate(group, rng.child(b"peer"))
            psk = ecdh_agree(own, peer.public_point)
            shared = affine_mul(
                group.field_p, group.field_p - 3, own.private_scalar,
                peer.public_point,
            )
            expected = hashlib.sha256(
                shared[0].to_bytes(group.key_size_octets, "big")
            ).digest()
            assert bytes(psk) == expected
            assert psk == ecdh_agree(peer, own.public_point)
            ecdh_cases += 1

    # ECDSA: 1000 distinct single-bit signature perturbations, all rejected.
    group = REGISTRY[26]
    rng = SeededRng(7, b"acceptance-07-ecdsa")
    signer = ecdsa_generate(group, rng)
    rejected = 0
    flips = 0
    for index in itertools.count():
        message = b"acceptance criterion seven #%d" % index
        signature = ecdsa_sign(signer, message)
        assert ecdsa_verify(group, signer.public_point, message, signature)
        for bit in range(len(signature) * 8):
            if flips == 1000:
                break
            mutated = bytearray(signature)
            mutated[bit // 8] ^= 1 << (bit % 8)
            flips += 1
            if not ecdsa_verify(group, signer.public_point, message, bytes(mutated)):
                rejected += 1
        if flips == 1000:
            break

    # PTK expansion versus an inline HMAC-SHA-1 counter-mode oracle.
    ptk_cases = 0
    for seed in range(10):
        rng = SeededRng(seed, b"acceptance-07-ptk")
        pmk = rng.randbytes(32)
        anonce, snonce = rng.randbytes(32), rng.randbytes(32)
        keys = derive_ptk(pmk, AP_MAC, CLIENT_MAC, anonce, snonce)
        expected = _prf384_oracle(pmk, AP_MAC, CLIENT_MAC, anonce, snonce)
        assert keys.kck + keys.kek + keys.tk == expected
        # argument order must not matter: the derivation sorts internally
        swapped = derive_ptk(pmk, CLIENT_MAC, AP_MAC, snonce, anonce)
        assert swapped == keys
        ptk_cases += 1

    report(
        7,
        ecdh_cases == 40 and rejected == flips == 1000 and ptk_cases == 10,
        f"ecdh {ecdh_cases}/40, ecdsa {rejected}/{flips}, ptk {ptk_cases}/10",
    )


def test_08_overhead_two_frames_and_bench_report():
    """Exactly two extra frames; timing report with 100+ samples per op."""
    psk = "2b" * 32

    def run(force_legacy):
        stations = [
            StationConfig(
                "ap1", "ap", "02:00:00:00:00:01", ssid="net", legacy_psk=psk
            ),
            StationConfig(
                "client1", "client", "02:00:00:00:00:02", ssid="net",
                legacy_psk=psk, force_legacy=force_legacy,
            ),
        ]
        transcript = run_scenario(
            ScenarioScript(name="overhead", stations=stations, max_ticks=600), 0
        )
        assert transcript.summaries["client1"]["state"] == "established"
        return Counter(
            r["frame"] for r in transcript.records if r["event"] == "tx"
        )

    with_agreement = run(force_legacy=False)
    baseline = run(force_legacy=True)
    delta = {
        kind: with_agreement.get(kind, 0) - baseline.get(kind, 0)
        for kind in set(with_agreement) | set(baseline)
        if with_agreement.get(kind, 0) != baseline.get(kind, 0)
    }
    assert delta == {"agreement": 2}
    assert MESSAGE_COUNT_DELTA == 2

    bench = bench_crypto(26)
    operations = [r.operation for r in bench.rows]
    named = {
        "ecdh-generate", "ecdh-agree", "ecdsa-sign", "ecdsa-verify", "ptk-derive",
    }
    assert named <= set(operations)
    sampled = all(r.samples >= 100 for r in bench.rows if r.operation in named)
    # timings are reported, never asserted: the report only needs to exist
    assert "extra frames before the key handshake: 2" in bench.to_text()
    report(8, sampled, f"frame delta {delta}, 5 ops x >=100 samples")


def test_09_cli_outputs_byte_identical(capsys):
    """Repeat invocations with one seed print the same bytes."""

    def capture(argv):
        code = main(list(argv))
        assert code == 0
        return capsys.readouterr().out

    run_argv = ("run", "--builtin", "benign", "--seed", "12", "--format", "json")
    suite_argv = ("attack-suite", "--seed", "12")
    run_same = capture(run_argv) == capture(run_argv)
    suite_same = capture(suite_argv) == capture(suite_argv)
    report(9, run_same and suite_same, "run and attack-suite repeat identically")
