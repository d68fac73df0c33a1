"""Frame-size accounting and crypto benchmark reports."""

import json
from dataclasses import asdict

import pytest

from soapsim import crypto
from soapsim.crypto import REGISTRY, UnknownGroupError
from soapsim.metrics import (
    MESSAGE_COUNT_DELTA,
    SizeRow,
    bench_crypto,
    size_report,
)


@pytest.fixture(scope="module")
def p224_report():
    return size_report(26)


@pytest.fixture(scope="module")
def bench():
    return bench_crypto(26)


def added_rows(report):
    """The text table's rows for frames with no baseline analogue, split."""
    return [line.split() for line in report.to_text().splitlines() if line.endswith(" added")]


class TestGoldenSizes:
    """Anchor octet counts for the default 224-bit group."""

    def test_advertisement_element(self, p224_report):
        assert p224_report.ie_octets == 33
        assert p224_report.key_size_octets == 28
        assert p224_report.ie_key_fraction == pytest.approx(28 / 33)

    def test_two_group_element(self):
        assert size_report(26, group_count=2).ie_octets == 34

    def test_agreement_message(self, p224_report):
        assert p224_report.message_octets == 148

    def test_nonce_extended_message(self):
        assert size_report(26, strict=False).message_octets == 156

    def test_beacon_row(self, p224_report):
        beacon = p224_report.rows[0]
        assert beacon.kind == "beacon"
        assert beacon.baseline_octets == 105
        assert beacon.soap_octets == 138
        assert beacon.overhead_fraction == pytest.approx(33 / 138)

    def test_association_request_row(self, p224_report):
        row = next(r for r in p224_report.rows if r.kind == "association-request")
        assert row.baseline_octets == 49
        assert row.soap_octets == 82

    def test_key_handshake_rows_unchanged(self, p224_report):
        sizes = {
            r.kind: (r.baseline_octets, r.soap_octets, r.overhead_fraction)
            for r in p224_report.rows
            if r.kind.startswith("key-handshake")
        }
        assert sizes == {
            "key-handshake-1": (131, 131, 0.0),
            "key-handshake-2": (131, 131, 0.0),
            "key-handshake-3": (195, 195, 0.0),
            "key-handshake-4": (131, 131, 0.0),
        }

    def test_added_frames(self, p224_report):
        assert added_rows(p224_report) == [
            ["agreement-message-1", "-", "148", "added"],
            ["agreement-message-2", "-", "148", "added"],
        ]


class TestSizeFormulas:
    """Measured encodings track the closed-form octet counts."""

    @pytest.mark.parametrize("group_id", sorted(REGISTRY))
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_element_size(self, group_id, m):
        s = REGISTRY[group_id].key_size_octets
        assert size_report(group_id, group_count=m).ie_octets == 2 + 2 + m + s

    @pytest.mark.parametrize("group_id", sorted(REGISTRY))
    def test_message_sizes(self, group_id):
        s = REGISTRY[group_id].key_size_octets
        assert size_report(group_id).message_octets == 36 + 4 * s
        assert size_report(group_id, strict=False).message_octets == 44 + 4 * s

    @pytest.mark.parametrize("group_id", sorted(REGISTRY))
    def test_fractions_are_proper(self, group_id):
        report = size_report(group_id)
        for row in report.rows:
            assert 0 <= row.overhead_fraction < 1
        assert 0 < report.ie_key_fraction < 1

    def test_group_count_below_one(self):
        with pytest.raises(ValueError):
            size_report(26, group_count=0)

    def test_unknown_group(self):
        with pytest.raises(UnknownGroupError):
            size_report(99)


class TestSizeRendering:
    """Text view and row counts of the same measurements."""

    def test_text_contains_anchors(self, p224_report):
        text = p224_report.to_text()
        assert "33 octets" in text
        assert "148 octets" in text
        assert "84.8%" in text
        assert "23.9%" in text  # beacon overhead 33/138
        assert "agreement-message-1" in text

    def test_row_and_added_counts(self, p224_report):
        assert len(p224_report.rows) == 7
        assert len(added_rows(p224_report)) == 2

    def test_overhead_fraction_property(self):
        assert SizeRow("x", 100, 125).overhead_fraction == pytest.approx(0.2)


class TestBenchReport:
    """Operation timing report over the default group."""

    def test_minimum_iterations_enforced(self):
        with pytest.raises(ValueError):
            bench_crypto(26, iterations=99)

    def test_operations_and_samples(self, bench):
        names = [r.operation for r in bench.rows]
        assert names == [
            "ecdh-generate",
            "ecdh-agree",
            "ecdsa-sign",
            "ecdsa-verify",
            "ptk-derive",
            "agreement-pair-total",
        ]
        for row in bench.rows:
            assert row.samples >= 100
            assert row.mean_seconds >= 0
            assert row.stdev_seconds >= 0
        by_name = {row.operation: row for row in bench.rows}
        for name in names[:5]:
            assert by_name[name].mean_seconds > 0

    def test_pair_total_formula(self, bench):
        expected = 2 * sum(
            r.mean_seconds
            for r in bench.rows
            if r.operation.startswith(("ecdh", "ecdsa"))
            and r.operation != "agreement-pair-total"
        )
        total = next(r for r in bench.rows if r.operation == "agreement-pair-total")
        assert total.mean_seconds == expected

    def test_message_count_delta(self, bench):
        assert MESSAGE_COUNT_DELTA == 2
        assert bench.message_count_delta == 2

    def test_machine_fingerprint(self, bench):
        assert set(bench.machine) == {"platform", "python", "processor"}
        assert bench.machine["python"]

    def test_text_rendering(self, bench):
        text = bench.to_text()
        assert "crypto benchmark: group 26" in text
        assert "ecdsa-verify" in text
        assert "extra frames before the key handshake: 2" in text

    def test_json_dict_shape(self, bench):
        data = json.loads(json.dumps(asdict(bench)))
        assert data["message_count_delta"] == 2
        assert len(data["rows"]) == 6
        assert data["rows"][0]["operation"] == "ecdh-generate"

    def test_unknown_group(self):
        with pytest.raises(UnknownGroupError):
            bench_crypto(99)

    def test_sign_and_verify_rows_time_real_work(self, monkeypatch, real_verifies):
        signs = []
        sign = crypto._sign
        monkeypatch.setattr(crypto, "_sign", lambda key, m: signs.append(m) or sign(key, m))
        for _ in range(2):  # cold, then with crypto's memos warm from the first call
            real_verifies.clear()
            signs.clear()
            report = bench_crypto(26, iterations=100)
            rows = {row.operation: row.samples for row in report.rows}
            # two untimed warm-up verifies, then every verify of the row
            # misses the verdict memo and verifies
            timed = real_verifies[2:]
            assert rows["ecdsa-verify"] == len(timed) == 100
            assert len({key for key, _ in timed}) == 100
            assert all(ok for _, ok in real_verifies)
            # 100 signatures for the verify row and 2 for the warm-ups, then
            # 100 timed signs
            assert rows["ecdsa-sign"] == 100
            assert len(signs) == 202 and len(set(signs)) == 102

    def test_verify_row_builds_no_table_while_timed(
        self, monkeypatch, fresh_memos, real_verifies
    ):
        # the signer key's comb table is built in the second warm-up verify,
        # so the timed verifies all run under it and none builds one
        builds = []
        build = crypto._comb_table

        def counted(group, base):
            if base != group.generator:
                builds.append(len(real_verifies))  # verifies done before this build
            return build(group, base)

        monkeypatch.setattr(crypto, "_comb_table", counted)
        bench_crypto(26, iterations=100)
        messages = [key[2] for key, _ in real_verifies]
        assert messages[2:] == [i.to_bytes(8, "big") for i in range(100)]  # the timed ones
        assert builds == [1]  # inside the second verify, the last untimed one
