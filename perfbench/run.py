"""soapsim benchmark: one workload per process, a closed loop of ops for a fixed time.

Usage (from the repository root):

    python3 perfbench/run.py --workload handshake-mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end metrics;
``--trace 1`` measures half the time untraced and half traced and reports the
per-layer metrics. ``--workload all`` runs every workload, each in a fresh
interpreter. Every run checks each op's output; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("handshake-mix", "attack-suite", "crowd-signed", "campus-idle")
MIN_OPS = 3
CHILD_TIMEOUT_S = 150

# Host speed. On a shared 2-vCPU virtual machine (Linux, CPython 3.11), one
# process can run a fixed loop at up to twice the speed of another, and the
# speed changes within seconds as other tenants load the host. So a fixed
# reference loop is timed before and after every op, and the op's time is
# scaled by REFERENCE_S over the loop's mean time around it: it reads as on a
# host where the loop takes REFERENCE_S (about its median there). Over ten
# runs in fresh interpreters this cut the spread of the median op time from
# 0.15-0.20 to about 0.05; scaling a whole run by its median probe did not.
# Set-ups are scaled the same way. The loop is benchmark code that no program
# change touches; unscaled times are printed as well.
REFERENCE_S = 1.5e-3

# Set-ups per run: SETUPS_PER_PROCESS in this process and in each of
# SETUP_PROCESSES - 1 fresh interpreters (one each with --smoke). On the host
# described above, scaled set-up times sit up to a tenth apart from one process
# to the next, so the median of 35 set-ups in one process spread by 0.07-0.1
# (interquartile range over median) across ten runs; resampling the same
# set-ups as four processes of nine gave about 0.03.
SETUP_PROCESSES = 4
SETUPS_PER_PROCESS = 9
_P256 = 2**256 - 2**224 + 2**192 + 2**96 - 1


def reference_work() -> int:
    """Fixed work mixing big-integer arithmetic with dict and tuple traffic, as soapsim does."""
    x, table = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296, {}
    for i in range(1200):
        x = x * x % _P256
        table[i & 127] = (x & 0xFFFF, i)
        x += table.get((i * 7) & 127, (0, 0))[0]
    return x


def host_probe() -> float:
    """Median seconds of three runs of the reference loop.

    The garbage collector is paused meanwhile: a collection of what the op
    left behind would otherwise land in the loop and read as a slow host.
    """
    times = []
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


def op_seed(seed: int, index: int) -> int:
    """The simulation or session seed of op ``index`` under workload seed ``seed``."""
    return seed * 1_000_000 + index


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload at its small smoke size (tests)")
    parser.add_argument("--probe", choices=("set-up", "op-0"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(name: str, seed: int, smoke: bool, count: int):
    """Import soapsim from this checkout's src/ and build the workload's inputs, ``count`` times.

    Before each set-up every module the previous one loaded (soapsim,
    perfbench.workloads and what they pulled in) is dropped, so each imports
    afresh, as a new CLI call does. Returns the last set-up's workload and the
    seconds of every set-up, scaled like op times by the reference loop timed
    around it.
    """
    if not (SRC / "soapsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no soapsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(ROOT))
    from perfbench.tracing import LAYERS

    loaded_before = set(sys.modules)
    seconds = []
    for _ in range(count):
        for module in [m for m in sys.modules if m not in loaded_before]:
            del sys.modules[module]
        gc.collect()  # the dropped modules are not this set-up's garbage
        before = host_probe()
        start = time.perf_counter()
        for layer in LAYERS:
            importlib.import_module(f"soapsim.{layer}")
        workload = importlib.import_module("perfbench.workloads").build(name, seed, smoke)
        took = time.perf_counter() - start
        seconds.append(took * REFERENCE_S / ((before + host_probe()) / 2))
    origin = Path(sys.modules["soapsim"].__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"error: imported soapsim from {origin}, not from {SRC}")
    return workload, seconds


@dataclass
class OpResult:
    index: int
    seconds: float  # host seconds
    scale: float  # REFERENCE_S over the reference loop's mean time around the op
    digest: str | None
    problems: list
    output: object = None


@dataclass
class Runner:
    """Runs ops of one workload and checks each output outside the timed region."""

    workload: object
    seed: int
    keep_output: bool = False
    probes: list = field(default_factory=list)  # host_probe() after each op
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def run(self, index: int, tracer=None) -> OpResult:
        seed = op_seed(self.seed, index)
        if not self.probes:
            self.probes.append(host_probe())
        self.attempted += 1
        out = None
        try:
            if tracer is None:
                start = time.perf_counter()
                out = self.workload.op(seed)
                seconds = time.perf_counter() - start
            else:
                with tracer.instrumented():
                    out = tracer.run_op(self.workload.op, seed)
                seconds = tracer.last_op_s
            problems = self.workload.check(out)
            digest = self.workload.digest(out) if not problems else None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            seconds = math.nan
            digest = None
            problems = [f"raised {exc!r}"]
            if not self.failures:
                traceback.print_exc(file=sys.stderr)
        if problems:
            self.failed += 1
            self.failures.append((index, problems))
        self.probes.append(host_probe())
        scale = REFERENCE_S / ((self.probes[-2] + self.probes[-1]) / 2)
        return OpResult(index, seconds, scale, digest, problems,
                        out if self.keep_output else None)

    def phase(self, first: int, budget_s: float, tracer=None) -> list[OpResult]:
        """Closed loop from op ``first`` until the ops' own time reaches the budget."""
        results = []
        spent = 0.0
        index = first
        while spent < budget_s or len(results) < MIN_OPS:
            result = self.run(index, tracer)
            results.append(result)
            if not math.isnan(result.seconds):
                spent += result.seconds
            index += 1
        return results


def _times(results) -> list[float]:
    """Scaled seconds of the ops that passed their checks."""
    return [r.seconds * r.scale for r in results if not r.problems]


def tail(values, percentile: float):
    """Nearest-rank percentile: (value, rank, samples beyond it)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], rank, len(ordered) - rank


def _probe(args, kind: str, cold: OpResult, flags: list) -> list[float]:
    """Set up, and with ``kind`` "op-0" run op 0, in a fresh interpreter.

    Returns its set-up seconds. Its op 0 must pass its checks and give this
    process's digest.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--probe", kind] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT)
    if done.returncode != 0 or not done.stdout.strip():
        flags.append(f"fresh interpreter: {done.stderr.strip()[-500:] or f'exit {done.returncode}'}")
        return []
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    if kind == "op-0" and probe["problems"]:
        flags.append(f"fresh interpreter: op 0: {probe['problems']}")
    elif kind == "op-0" and probe["digest"] != cold.digest:
        flags.append("op 0 repeated in a fresh interpreter gave a different digest")
    return probe["setups"]


def _audit(runner: Runner, tracing, workloads, cold: OpResult, flags: list) -> dict:
    """Replay op 0 traced: exact counts, simulated statistics and the oracle check."""
    tracer = tracing.Tracer(capture=("crypto.ecdh_generate", "simnet.Simulation.run"))
    runner.keep_output = True
    replay = runner.run(0, tracer)
    runner.keep_output = False
    if replay.digest != cold.digest:
        flags.append("traced replay of op 0 gave a different digest than the untraced op 0")
    audit = {"counts": {
        name: value for name, (value, unit) in tracing.layer_metrics(tracer.profile, 1.0).items()
        if unit in ("count", "octets")
    }}
    if runner.workload.simulates:
        audit["sim"] = workloads.sim_stats(tracer.captured["simnet.Simulation.run"])
    if runner.workload.name == "handshake-mix" and replay.output is not None:
        source, problems = workloads.cross_check(
            replay.output, tracer.captured["crypto.ecdh_generate"]
        )
        audit["oracle"] = {"source": source, "sessions": len(replay.output),
                           "problems": problems}
        flags.extend(f"oracle: {p}" for p in problems)
    return audit


def _end_to_end(args, runner: Runner, cold: OpResult, setups: list, record: dict,
                flags: list) -> dict:
    """The timed phase with tracing off: the end-to-end metrics."""
    timed = runner.phase(1, args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = _times(timed)
    if not times:
        flags.append("no timed op passed its checks: no metrics")
        return {}
    warm_p50 = statistics.median(times)
    percentile = record["tail_percentile"]
    tail_s, rank, beyond = tail(times, percentile)
    raw = [r.seconds for r in timed if not r.problems]
    print(f"timed phase: {len(timed)} ops, {sum(raw):.3f} host s; unscaled p50 "
          f"{statistics.median(raw) * 1000:.3f} ms; host scale p50 "
          f"{statistics.median(r.scale for r in timed):.4f}")
    print(f"op_ms_tail is p{percentile}: rank {rank} of {len(times)} ops, {beyond} beyond it"
          + ("" if beyond >= 10 else " (fewer than 10 beyond: too few ops for this tail)"))
    print(f"setup: {len(setups)} set-ups, scaled seconds min {min(setups):.4f} median "
          f"{statistics.median(setups):.4f} max {max(setups):.4f}; cold op 0 "
          f"{cold.seconds * cold.scale:.4f} s against warm p50 {warm_p50:.4f} s "
          "(not in setup_s: see setup.cold_op_excess_s with --trace 1)")
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms_p50": (warm_p50 * 1000, "ms"),
        "op_ms_tail": (tail_s * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def _per_layer(args, runner: Runner, cold: OpResult, tracing, flags: list) -> dict:
    """Half the time untraced, then the same op seeds traced: the per-layer metrics."""
    half = args.seconds / 2
    untraced = runner.phase(1, half)
    tracer = tracing.Tracer()
    traced = runner.phase(1, half, tracer)
    for a, b in zip(untraced, traced):
        if a.digest is not None and b.digest is not None and a.digest != b.digest:
            flags.append(f"op {a.index}: traced and untraced digests differ")
    untraced_times = _times(untraced)
    traced_times = _times(traced)
    if not untraced_times or not traced_times:
        flags.append("no untraced or no traced op passed its checks: no metrics")
        return {}
    untraced_p50 = statistics.median(untraced_times)
    traced_p50 = statistics.median(traced_times)
    metrics = tracing.layer_metrics(tracer.profile, traced_p50 / untraced_p50)
    if not cold.problems:
        # One cold op against the warm median of this process: too noisy on a
        # shared host to gate on, so it is a per-layer metric, not in setup_s.
        metrics["setup.cold_op_excess_s"] = (cold.seconds * cold.scale - untraced_p50, "s")
    print(f"untraced phase: {len(untraced)} ops, scaled p50 {untraced_p50 * 1000:.3f} ms; "
          f"traced phase: {len(traced)} ops, scaled p50 {traced_p50 * 1000:.3f} ms")
    print("workload reason (shares of the traced op): "
          + json.dumps(tracing.reason_shares(metrics)))
    return metrics


def _why(name: str) -> str:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return next(w["why"] for w in declared["workloads"] if w["name"] == name)


def measure(args) -> int:
    count = 1 if args.smoke else SETUPS_PER_PROCESS
    workload, setups = set_up(args.workload, args.seed, args.smoke, count)
    from perfbench import tracing, workloads

    if args.probe == "set-up":
        print(json.dumps({"setups": setups}))
        return 0
    runner = Runner(workload, args.seed)
    cold = runner.run(0)
    if args.probe == "op-0":
        print(json.dumps({"setups": setups, "digest": cold.digest, "problems": cold.problems}))
        return 0

    record = workloads.RECORDS[args.workload]
    flags: list[str] = []
    for i in range(SETUP_PROCESSES - 1):
        setups += _probe(args, "op-0" if i == 0 else "set-up", cold, flags)
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"implementation={platform.python_implementation()} platform={platform.platform()}")
    print(f"op: {record['op']}")
    print(f"size: {json.dumps(workloads.size(args.workload, args.smoke))}; "
          f"loop: {record['loop']}")
    print(f"why: {_why(args.workload)}")

    if args.trace == 0:
        metrics = _end_to_end(args, runner, cold, setups, record, flags)
    else:
        metrics = _per_layer(args, runner, cold, tracing, flags)

    audit = _audit(runner, tracing, workloads, cold, flags)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"fail_ratio {runner.failed / runner.attempted!r} (base: {runner.attempted} ops attempted)")
    print("exact counts per op (op 0, traced replay): " + json.dumps(audit["counts"]))
    if "sim" in audit:
        print("simulated statistics (op 0): " + json.dumps(audit["sim"]))
    if "oracle" in audit:
        print("oracle cross-check (op 0): " + json.dumps(audit["oracle"]))
    print(f"op 0 digest: {cold.digest}")
    for index, problems in runner.failures[:5]:
        print(f"failed op {index}: {problems}")
    for flag in flags:
        print(f"check failed: {flag}")
    print(json.dumps({
        "correct": runner.failed == 0 and not flags,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh interpreter, one after another."""
    ok = True
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        ok = ok and done.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
