"""Tests for the benchmark's own code.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, tracing, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_of_a_nested_trace():
    # op [0, 10] holds a [1, 4] and d [5, 9]; a holds b [2, 3].
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert tracing.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    starts = [0.0, 1.0, 2.0, 6.0]
    ends = [10.0, 4.0, 5.0, 7.0]
    parents = [-1, 0, 0, 0]
    assert tracing.self_times(starts, ends, parents)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_tracer_folds_spans_per_name():
    tracer = tracing.Tracer()
    with tracer.instrumented():
        tracer.run_op(workloads.build("handshake-mix", 1, smoke=True).op, 5)
    profile = tracer.profile
    assert profile.ops == 1
    assert profile.names["op"].calls == 1
    assert profile.names["crypto.ecdh_agree"].calls == 8
    layer_self = sum(s.self_s for s in profile.names.values())
    assert layer_self == pytest.approx(profile.op_s)
    metrics = tracing.layer_metrics(profile, 1.0)
    assert metrics["crypto.point_mul_base.calls.P-521"] == (6.0, "count")
    assert metrics["crypto.ecdsa_verify.distinct_ratio"] == (1.0, "ratio")
    assert metrics["simnet.on_tick.calls"] == (0.0, "count")


def _all_bindings():
    return {(id(owner), attr): value for owner, attr, value in tracing._bindings()}


def test_every_wrapped_attribute_is_restored():
    workload = workloads.build("crowd-signed", 2, smoke=True)
    before = _all_bindings()
    tracer = tracing.Tracer()
    with tracer.instrumented():
        during = _all_bindings()
        tracer.run_op(workload.op, 7)
    after = _all_bindings()
    wrapped = [key for key, value in before.items() if during[key] is not value]
    # ecdsa_verify alone is bound in crypto, handshake and simnet.
    assert len(wrapped) > 50
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("name", ["handshake-mix", "crowd-signed", "campus-idle"])
def test_traced_and_untraced_digests_agree(name):
    workload = workloads.build(name, 4, smoke=True)
    untraced = workload.digest(workload.op(11))
    tracer = tracing.Tracer(capture=("simnet.Simulation.run",))
    with tracer.instrumented():
        traced = workload.digest(tracer.run_op(workload.op, 11))
    assert traced == untraced
    if workload.simulates:
        stats = workloads.sim_stats(tracer.captured["simnet.Simulation.run"])
        assert stats["established_pairs"] >= 1
        assert stats["frames_on_air"]["beacon"] > 0


def test_checks_catch_a_wrong_psk():
    workload = workloads.build("handshake-mix", 1, smoke=True)
    sessions = workload.op(3)
    assert workload.check(sessions) == []
    sessions[2].client.psk = bytes(32)
    assert any("PSKs differ" in p for p in workload.check(sessions))


@pytest.mark.parametrize("without_cryptography", [False, True])
def test_oracle_cross_check(monkeypatch, without_cryptography):
    if without_cryptography:
        monkeypatch.setitem(sys.modules, "cryptography.hazmat.primitives.asymmetric", None)
    workload = workloads.HandshakeMix(1, {"curves": ["P-224"]})
    tracer = tracing.Tracer(capture=("crypto.ecdh_generate",))
    with tracer.instrumented():
        sessions = tracer.run_op(workload.op, 9)
    ephemerals = tracer.captured["crypto.ecdh_generate"]
    source, problems = workloads.cross_check(sessions, ephemerals)
    assert source == ("tests/oracle_ec.py" if without_cryptography else "cryptography")
    assert problems == []
    sessions[0].client.psk = bytes(32)
    assert workloads.cross_check(sessions, ephemerals)[1]


def test_tail_is_nearest_rank():
    values = [float(v) for v in range(1, 21)]
    assert run.tail(values, 50) == (10.0, 10, 10)
    assert run.tail(values, 80) == (16.0, 16, 4)


def test_set_ups_leave_one_consistent_soapsim():
    # Run in a fresh interpreter: set_up drops modules from sys.modules.
    code = "\n".join([
        "import sys",
        "from perfbench import run",
        "workload, seconds = run.set_up('crowd-signed', 1, True, 3)",
        "module = sys.modules[type(workload).__module__]",
        "assert len(seconds) == 3 and all(s > 0 for s in seconds)",
        "assert module is sys.modules['perfbench.workloads']",
        "assert module.simnet is sys.modules['soapsim.simnet']",
        "print('ok')",
    ])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, timeout=120)
    assert done.stdout.strip() == "ok", done.stderr


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric(name, trace):
    done = _bench("--workload", name, "--seed", "5", "--seconds", "0", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    declared = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "handshake-mix", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
