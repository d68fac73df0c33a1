"""List the statements of `src/soapsim` that the tier-1 suite never runs, and
check them against the committed list, `tests/unreached.json`.

    python tests/unreached.py           # exit 1 unless the two lists agree
    python tests/unreached.py --write   # rewrite the list, keeping its reasons

The suite runs in this process under `sys.settrace`, which starts before
soapsim is imported, with ``--hypothesis-seed=0`` and an empty Hypothesis
database, so that every run draws the same examples. A statement has run
when any line of its own has: its header, for a compound statement. Each
entry names the module, the enclosing function or class and the statement's
text, never a line number, so that an unrelated edit leaves the list as it
is. A new entry is written with an empty reason, and the check fails until
one is given. pytest does not collect this file.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "soapsim"
LISTED = Path(__file__).with_name("unreached.json")


def code_lines(code: CodeType) -> dict[CodeType, set[int]]:
    """The lines that carry bytecode, for `code` and each code object in it."""
    lines = {}
    stack = [code]
    while stack:
        code = stack.pop()
        lines[code] = {line for _, _, line in code.co_lines() if line is not None}
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def statements(path: Path):
    """Yield (where, text, lines) for each statement of the module at `path`
    that compiles to bytecode: `lines` are the bytecode lines of its own,
    outside the statements nested in it."""
    source = path.read_text()
    text = source.splitlines()
    executable = set().union(*code_lines(compile(source, str(path), "exec")).values())

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            if isinstance(child, ast.stmt):
                own = set(range(child.lineno, child.end_lineno + 1))
                for nested in ast.walk(child):
                    if nested is not child and isinstance(nested, ast.stmt):
                        own -= set(range(nested.lineno, nested.end_lineno + 1))
                lines = own & executable
                if lines:
                    header = [text[i - 1].strip() for i in sorted(own)]
                    yield where, " ".join(h for h in header if h and h[0] != "#"), lines
            yield from walk(child, inner)

    yield from walk(ast.parse(source), path.stem)


def run_traced(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest on `args` under a line trace of the package: its exit code
    and the (file, line) pairs that ran. A code object's frames stop being
    traced once every one of its lines has run."""
    ran: set[tuple[str, int]] = set()
    unseen: dict[CodeType, set[int]] = {}
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            code = frame.f_code
            ran.add((code.co_filename, frame.f_lineno))
            left = unseen[code]
            left.discard(frame.f_lineno)
            if not left:
                frame.f_trace_lines = False
        return local

    def start(frame, event, arg):
        code = frame.f_code
        name = code.co_filename
        if name not in ours:
            ours[name] = Path(name).resolve().parent == PACKAGE
        if not ours[name]:
            return None
        if code not in unseen:
            unseen[code] = {line for _, _, line in code.co_lines() if line is not None}
            unseen[code] -= {line for f, line in ran if f == name}
        # a call reports its first line, which then gets no line event
        ran.add((name, frame.f_lineno))
        unseen[code].discard(frame.f_lineno)
        return local if unseen[code] else None

    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    with tempfile.TemporaryDirectory() as home:
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = home
        threading.settrace(start)
        sys.settrace(start)
        try:
            status = pytest.main(args)
        finally:
            sys.settrace(None)
            threading.settrace(None)
    return int(status), {(str(Path(f).resolve()), line) for f, line in ran}


def unreached(ran: set[tuple[str, int]]) -> list[tuple[str, str]]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = {line for f, line in ran if f == str(path)}
        found.extend(
            (where, text) for where, text, own in statements(path) if not own & lines
        )
    return found


def main(argv: list[str]) -> int:
    write = argv == ["--write"]
    status, ran = run_traced(
        ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")]
    )
    if status != 0:
        print(f"unreached: the suite failed (pytest exit {status})", file=sys.stderr)
        return 1
    found = unreached(ran)
    listed = json.loads(LISTED.read_text()) if LISTED.exists() else []
    reasons = {(e["where"], e["statement"]): e["reason"] for e in listed}
    if write:
        entries = [
            {"where": where, "statement": text, "reason": reasons.get((where, text), "")}
            for where, text in found
        ]
        LISTED.write_text(json.dumps(entries, indent=2) + "\n")
        print(f"unreached: wrote {len(entries)} statements to {LISTED.name}")
        return 0
    have = Counter(found)
    want = Counter((e["where"], e["statement"]) for e in listed)
    problems = [f"not in the list: {w}: {t}" for w, t in (have - want).elements()]
    problems += [f"listed but now run: {w}: {t}" for w, t in (want - have).elements()]
    problems += [f"no reason given: {w}: {t}" for (w, t), r in reasons.items() if not r]
    for line in problems:
        print(f"unreached: {line}", file=sys.stderr)
    print(f"unreached: {sum(have.values())} statements never run, all listed"
          if not problems else f"unreached: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
