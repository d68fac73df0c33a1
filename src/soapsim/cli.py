"""Command-line front end.

Subcommands:

* ``run`` executes one scenario (a JSON file or a built-in by name) and
  reports every scripted expectation.
* ``frames`` prints golden hex dumps and the frame-size table for a group.
* ``bench`` times the crypto operations on this machine.
* ``attack-suite`` walks the whole threat table under one seed.

Exit codes: 0 on success, 1 when a scripted expectation or suite row
fails, 2 on usage errors or invalid input.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

from . import __version__
from .crypto import DEFAULT_GROUP_ID, SeededRng, known_group_ids
from .frames import (
    encode_eapol_key_frame,
    encode_soap_ie,
    encode_soap_message,
    frame_wire_size,
    hexdump,
)
from .handshake import Role, make_identity, run_exchange
from .metrics import bench_crypto, size_report
from .scenarios import (
    BUILTIN_NAMES,
    ScenarioError,
    builtin,
    evaluate_expectations,
    load_script,
    run_attack_suite,
)
from .simnet import _render_json, run_scenario

EXIT_OK = 0
EXIT_EXPECTATION = 1
EXIT_USAGE = 2

_DEMO_AP_MAC = bytes.fromhex("020000000001")
_DEMO_CLIENT_MAC = bytes.fromhex("020000000002")


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    raw = os.environ.get("SOAP_SIM_SEED")
    if raw is None:
        return 0
    try:
        return int(raw, 0)
    except ValueError:
        raise ValueError(f"SOAP_SIM_SEED is not an integer: {raw!r}") from None


def _load_scenario(args):
    if args.builtin is not None:
        return builtin(args.builtin)
    if args.scenario is None:
        raise ScenarioError("give a scenario file or --builtin NAME")
    with open(args.scenario, "r", encoding="utf-8") as handle:
        return load_script(handle.read())


def cmd_run(args) -> int:
    seed = _resolve_seed(args.seed)
    script = _load_scenario(args)
    transcript = run_scenario(script, seed)
    checks = evaluate_expectations(script, transcript)
    if args.transcript is not None:
        with open(args.transcript, "w", encoding="utf-8") as handle:
            handle.write(transcript.to_json())
            handle.write("\n")
    passed = all(c.ok for c in checks)
    if args.format == "json":
        print(
            _render_json(
                {
                    "scenario": script.name,
                    "seed": seed,
                    "passed": passed,
                    "checks": [asdict(c) for c in checks],
                }
            )
        )
    else:
        print(f"scenario: {script.name} (seed {seed})")
        if not checks:
            print("no expectations scripted")
        for c in checks:
            print(f"[{'pass' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
        print(f"result: {'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_EXPECTATION


def cmd_frames(args) -> int:
    """Dump every frame of one exchange from fixed demo seeds; the AP offers
    the requested group plus the first others, --m groups in all."""
    # raises on an unknown group or --m below 1 before anything is printed
    report = size_report(args.group, args.m, args.strict)
    others = tuple(g for g in known_group_ids() if g != args.group)
    ids = ((args.group,) + others)[: args.m]
    rng = SeededRng(0, b"frames-demo")
    ap_id = make_identity(_DEMO_AP_MAC, Role.AP, ids, rng.child(b"ap-identity"))
    cl_id = make_identity(
        _DEMO_CLIENT_MAC, Role.CLIENT, (args.group,), rng.child(b"client-identity")
    )
    ex = run_exchange(ap_id, cl_id, rng, strict_frames=args.strict)
    sections = [
        ("advertisement element", encode_soap_ie(ex.advertisement), None),
        ("response element", encode_soap_ie(ex.response), None),
        ("agreement message 1", encode_soap_message(ex.message1), ex.message1),
        ("agreement message 2", encode_soap_message(ex.message2), ex.message2),
    ]
    sections.extend(
        (f"key handshake message {i}", encode_eapol_key_frame(frame), frame)
        for i, frame in enumerate(ex.key_frames, start=1)
    )
    for title, wire, framed in sections:
        if framed is None:
            print(f"-- {title} ({len(wire)} octets)")
        else:
            print(
                f"-- {title} ({len(wire)} octet packet, "
                f"{frame_wire_size(framed)} on air with MAC and LLC headers)"
            )
        print(hexdump(wire))
        print()
    print(report.to_text())
    signer = ap_id.ecdsa.group
    if signer.group_id != args.group:
        print(f"\nnote: the dumped AP signs on group {signer.group_id} ({signer.name}),"
              " the strongest it advertises, not on the table's group")
    return EXIT_OK


def cmd_bench(args) -> int:
    report = bench_crypto(args.group, args.iterations)
    if args.format == "json":
        print(_render_json(asdict(report)))
    else:
        print(report.to_text())
    return EXIT_OK


def cmd_attack_suite(args) -> int:
    seed = _resolve_seed(args.seed)
    report = run_attack_suite(seed)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return EXIT_OK if report.passed else EXIT_EXPECTATION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soapsim",
        description="Simulate signature-authenticated pre-shared-key agreement "
        "over 802.11-style frames.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run one scenario and check expectations")
    run.add_argument("scenario", nargs="?", help="scenario JSON file")
    run.add_argument(
        "--builtin",
        choices=BUILTIN_NAMES,
        help="run a built-in scenario instead of a file",
    )
    run.add_argument("--seed", type=int, help="run seed (default SOAP_SIM_SEED or 0)")
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.add_argument("--transcript", help="write the full transcript JSON here")
    run.set_defaults(func=cmd_run)

    frames = sub.add_parser("frames", help="golden frame dumps and size table")
    frames.add_argument(
        "--group", type=int, default=DEFAULT_GROUP_ID, help="group id (default %(default)s)"
    )
    frames.add_argument("--m", type=int, default=1, help="advertised group count")
    frames.add_argument(
        "--strict",
        action="store_true",
        help="minimal messages without the session-nonce extension",
    )
    frames.set_defaults(func=cmd_frames)

    bench = sub.add_parser("bench", help="time the crypto operations")
    bench.add_argument("--group", type=int, default=DEFAULT_GROUP_ID)
    bench.add_argument("--iterations", type=int, default=100)
    bench.add_argument("--format", choices=("text", "json"), default="text")
    bench.set_defaults(func=cmd_bench)

    suite = sub.add_parser("attack-suite", help="run the full threat table")
    suite.add_argument("--seed", type=int, help="suite seed (default SOAP_SIM_SEED or 0)")
    suite.add_argument("--format", choices=("text", "json"), default="text")
    suite.set_defaults(func=cmd_attack_suite)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
