"""Span tracing of soapsim from outside the package.

The tracer wraps every public function and method of the layer modules in
every ``soapsim.*`` namespace that binds it; the from-imports mean that
``ecdsa_verify``, for example, is bound in ``simnet`` and ``handshake`` as well
as in ``crypto``. A span records its name, start, end, parent and op id. The
spans of one op stay in memory, in flat arrays, until the op ends and are then
reduced to per-name totals, so a long traced run holds one op's spans at a time.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("crypto", "frames", "negotiation", "handshake", "fourway", "simnet", "scenarios")
ROOT_SPAN = "op"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Hooks are looked up by layer and function or method name, whatever class
# holds the method. A key hook gives the argument tuple whose distinct values
# are counted; a key group pools several names, and simnet.ticks counts the
# distinct (simulation, tick) pairs polled, a transcript standing for its
# simulation.
def _key_from_x(args, kwargs):
    return _arg(args, kwargs, 0, "group").group_id, bytes(_arg(args, kwargs, 1, "data"))


def _key_verify(args, kwargs):
    return (
        _arg(args, kwargs, 0, "group").group_id,
        _arg(args, kwargs, 1, "public_point"),
        bytes(_arg(args, kwargs, 2, "message")),
        bytes(_arg(args, kwargs, 3, "signature")),
    )


def _key_sign(args, kwargs):
    key = _arg(args, kwargs, 0, "key")
    return key.group.group_id, key.private_scalar, bytes(_arg(args, kwargs, 1, "message"))


def _key_tick(args, kwargs):
    return getattr(args[0], "transcript", None), _arg(args, kwargs, 1, "tick")


KEYS = {
    ("crypto", "point_from_x_octets"): ("crypto.point_from_x", _key_from_x),
    ("crypto", "ecdsa_verify"): ("crypto.ecdsa_verify", _key_verify),
    ("crypto", "ecdsa_sign"): ("crypto.ecdsa_sign", _key_sign),
    ("simnet", "on_tick"): ("simnet.ticks", _key_tick),
}

# Handler outcomes that are not a refusal of the input.
_HANDSHAKE_ACCEPTED = frozenset({"respond", "fallback", "agreed", "ok"})
_FOURWAY_REJECTED = frozenset({"replay", "unexpected", "mic-mismatch"})


def _handshake_rejected(result):
    if result is None:
        return 1
    event = result[1] if isinstance(result, tuple) else result
    return int(isinstance(event, str) and event not in _HANDSHAKE_ACCEPTED)


def _fourway_rejected(result):
    return int(result[1] in _FOURWAY_REJECTED)


# Numbers taken from a span's result and summed per name: inputs a state
# machine rejected, on_frame calls that sent a reply, octets rendered.
TALLIES = {
    ("handshake", "on_advertisement"): _handshake_rejected,
    ("handshake", "on_message1"): _handshake_rejected,
    ("handshake", "on_response_element"): _handshake_rejected,
    ("handshake", "build_message1"): _handshake_rejected,
    ("handshake", "on_message2"): _handshake_rejected,
    ("fourway", "on_frame"): _fourway_rejected,
    ("simnet", "on_frame"): lambda result: int(bool(result)),
    ("simnet", "to_json"): len,
}


def _point_mul_kind(args, kwargs):
    group = _arg(args, kwargs, 0, "group")
    point = args[2] if len(args) > 2 else kwargs.get("point")
    base = point is None or point == group.generator
    return f"crypto.point_mul_{'base' if base else 'var'}.{group.name}"


# Spans whose name depends on the arguments.
CLASSIFIERS = {("crypto", "point_mul"): _point_mul_kind}


def _hook_key(name: str):
    return name.split(".", 1)[0], name.rsplit(".", 1)[-1]


def layer_modules():
    """The loaded soapsim layer modules, keyed by layer name."""
    return {
        layer: sys.modules[f"soapsim.{layer}"]
        for layer in LAYERS
        if f"soapsim.{layer}" in sys.modules
    }


def _is_plain_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) and not (
        inspect.isgeneratorfunction(obj) or inspect.iscoroutinefunction(obj)
    )


def public_callables() -> dict:
    """Map each public function and method of the layer modules to its span name.

    Generators are left out: a span would close before their body runs.
    """
    found = {}
    for layer, module in layer_modules().items():
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if _is_plain_function(obj) and obj.__module__ == module.__name__:
                found[obj] = f"{layer}.{name}"
            elif isinstance(obj, type) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and _is_plain_function(member):
                        found[member] = f"{layer}.{obj.__name__}.{attr}"
    return found


def _bindings():
    """Every (owner, attribute, value) in the loaded soapsim namespaces and classes."""
    classes = {}
    for name, module in list(sys.modules.items()):
        if name != "soapsim" and not name.startswith("soapsim."):
            continue
        for attr, value in list(vars(module).items()):
            yield module, attr, value
            if isinstance(value, type) and value.__module__.startswith("soapsim"):
                classes[id(value)] = value
    for cls in classes.values():
        for attr, value in list(vars(cls).items()):
            yield cls, attr, value


@contextmanager
def patched(replacements: dict):
    """Rebind every soapsim binding of each key of ``replacements`` to its value.

    On exit every binding is the original object again.
    """
    undo = []
    try:
        for owner, attr, value in _bindings():
            if isinstance(value, types.FunctionType) and value in replacements:
                setattr(owner, attr, replacements[value])
                undo.append((owner, attr, value))
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def self_times(starts, ends, parents) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    Spans are listed in start order and each parent precedes its children,
    which is the order the tracer records them in.
    """
    n = len(starts)
    covered = [0.0] * n
    reach = [float("-inf")] * n
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        start, end = starts[i], ends[i]
        if end > reach[p]:
            covered[p] += end - max(start, reach[p])
            reach[p] = end
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    raised: int = 0
    tally: int = 0


@dataclass
class Profile:
    """Per-name totals over the traced ops."""

    ops: int = 0
    op_s: float = 0.0
    names: dict = field(default_factory=dict)
    distinct: dict = field(default_factory=dict)  # key group -> [distinct, calls]

    def stats(self, name: str) -> NameStats:
        return self.names.setdefault(name, NameStats())


class Tracer:
    """Records spans around soapsim calls made inside ``run_op`` while
    ``instrumented()`` is active.

    ``capture`` names spans whose results are kept (in ``captured``) for the
    op's checks, such as the transcripts ``Simulation.run`` returns.
    """

    def __init__(self, capture=()):
        self.captured = {name: [] for name in capture}
        self.profile = Profile()
        self.op_id = 0
        self.current = -1
        self.last_op_s = 0.0
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._raised: set[int] = set()
        self._keys: list = []  # (key group, key)
        self._tallies: list = []  # (span index, value)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _wrap(self, fn, name: str):
        tracer = self
        span_name, starts, ends = self._span_name, self._start, self._end
        parents, ops, raised = self._parent, self._op, self._raised
        clock = time.perf_counter
        nid = self._name_id(name)
        hook = _hook_key(name)
        classify = CLASSIFIERS.get(hook)
        key_group, key = KEYS.get(hook, (None, None))
        tally = TALLIES.get(hook)
        capture = self.captured.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = tracer.current
            if parent < 0:  # outside an op
                return fn(*args, **kwargs)
            i = len(starts)
            span_name.append(nid if classify is None else tracer._name_id(classify(args, kwargs)))
            parents.append(parent)
            ops.append(tracer.op_id)
            ends.append(0.0)
            tracer.current = i
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised.add(i)
                raise
            finally:
                ends[i] = clock()
                tracer.current = parent
            if key is not None:
                tracer._keys.append((key_group, key(args, kwargs)))
            if tally is not None:
                tracer._tallies.append((i, tally(result)))
            if capture is not None:
                capture.append(result)
            return result

        return span

    @contextmanager
    def instrumented(self):
        """Wrap every public layer callable; restore the originals on exit."""
        wrappers = {fn: self._wrap(fn, name) for fn, name in public_callables().items()}
        with patched(wrappers):
            yield

    def run_op(self, fn, *args):
        """Run one op under a root span, then fold its spans into the profile."""
        root_id = self._name_id(ROOT_SPAN)
        self.op_id += 1
        self._span_name.append(root_id)
        self._parent.append(-1)
        self._op.append(self.op_id)
        self._end.append(0.0)
        self.current = 0
        self._start.append(time.perf_counter())
        try:
            return fn(*args)
        finally:
            self._end[0] = time.perf_counter()
            self.current = -1
            self.last_op_s = self._end[0] - self._start[0]
            self._fold()

    def _fold(self):
        profile = self.profile
        stats = [profile.stats(name) for name in self._names]
        selfs = self_times(self._start, self._end, self._parent)
        for i, nid in enumerate(self._span_name):
            acc = stats[nid]
            acc.calls += 1
            acc.total_s += self._end[i] - self._start[i]
            acc.self_s += selfs[i]
        for i in self._raised:
            stats[self._span_name[i]].raised += 1
        for i, value in self._tallies:
            stats[self._span_name[i]].tally += value
        groups: dict = {}
        for group, key in self._keys:
            groups.setdefault(group, []).append(key)
        for group, keys in groups.items():
            acc = profile.distinct.setdefault(group, [0, 0])
            acc[0] += len(set(keys))
            acc[1] += len(keys)
        profile.ops += 1
        profile.op_s += self.last_op_s
        for column in (self._span_name, self._start, self._end, self._parent, self._op):
            del column[:]
        self._raised.clear()
        self._keys.clear()
        self._tallies.clear()


CURVES = ("P-224", "P-256", "P-384", "P-521")


def _sum(profile: Profile, predicate, attr: str):
    return sum(getattr(s, attr) for name, s in profile.names.items() if predicate(name))


def layer_metrics(profile: Profile, overhead_ratio: float) -> dict:
    """Per-layer metrics, each per traced op, as {name: (value, unit)}."""
    ops = max(profile.ops, 1)
    out = {}

    def per_op(value):
        return value / ops

    def put(name, value, unit):
        out[name] = (value, unit)

    def named(*names):
        return lambda n: n in names

    def prefix(p):
        return lambda n: n.startswith(p)

    def ratio(num, den):
        return num / den if den else 0.0

    def distinct_ratio(group):
        distinct, calls = profile.distinct.get(group, (0, 0))
        return ratio(distinct, calls)

    for kind in ("base", "var"):
        match = prefix(f"crypto.point_mul_{kind}.")
        put(f"crypto.point_mul_{kind}.calls", per_op(_sum(profile, match, "calls")), "count")
        put(f"crypto.point_mul_{kind}.self_s", per_op(_sum(profile, match, "self_s")), "s")
        for curve in CURVES:
            calls = _sum(profile, named(f"crypto.point_mul_{kind}.{curve}"), "calls")
            put(f"crypto.point_mul_{kind}.calls.{curve}", per_op(calls), "count")
    for metric, span in (
        ("crypto.point_from_x", "crypto.point_from_x_octets"),
        ("crypto.ecdsa_verify", "crypto.ecdsa_verify"),
        ("crypto.ecdsa_sign", "crypto.ecdsa_sign"),
    ):
        put(f"{metric}.calls", per_op(_sum(profile, named(span), "calls")), "count")
        put(f"{metric}.self_s", per_op(_sum(profile, named(span), "self_s")), "s")
        put(f"{metric}.distinct_ratio", distinct_ratio(metric), "ratio")
    put(
        "crypto.ecdsa_verify.total_s",
        per_op(_sum(profile, named("crypto.ecdsa_verify"), "total_s")),
        "s",
    )
    put("crypto.ecdh.calls", per_op(_sum(profile, named("crypto.ecdh_agree"), "calls")), "count")
    put("crypto.ecdh.self_s", per_op(_sum(profile, named("crypto.ecdh_agree"), "self_s")), "s")
    put("crypto.self_s", per_op(_sum(profile, prefix("crypto."), "self_s")), "s")

    put("frames.encode.calls", per_op(_sum(profile, prefix("frames.encode_"), "calls")), "count")
    put("frames.parse.calls", per_op(_sum(profile, prefix("frames.parse_"), "calls")), "count")
    put(
        "frames.parse.malformed",
        per_op(_sum(profile, prefix("frames.parse_"), "raised")),
        "count",
    )
    put("frames.self_s", per_op(_sum(profile, prefix("frames."), "self_s")), "s")

    for layer in ("negotiation", "handshake", "fourway"):
        put(f"{layer}.calls", per_op(_sum(profile, prefix(f"{layer}."), "calls")), "count")
        put(f"{layer}.self_s", per_op(_sum(profile, prefix(f"{layer}."), "self_s")), "s")
    for layer in ("handshake", "fourway"):
        put(f"{layer}.rejected", per_op(_sum(profile, prefix(f"{layer}."), "tally")), "count")

    on_tick = lambda n: n.startswith("simnet.") and n.endswith(".on_tick")  # noqa: E731
    on_frame = lambda n: n.startswith("simnet.") and n.endswith(".on_frame")  # noqa: E731
    put("simnet.ticks", per_op(profile.distinct.get("simnet.ticks", (0, 0))[0]), "count")
    put("simnet.on_tick.calls", per_op(_sum(profile, on_tick, "calls")), "count")
    put("simnet.on_tick.self_s", per_op(_sum(profile, on_tick, "self_s")), "s")
    frame_calls = _sum(profile, on_frame, "calls")
    put("simnet.on_frame.calls", per_op(frame_calls), "count")
    put("simnet.on_frame.self_s", per_op(_sum(profile, on_frame, "self_s")), "s")
    put("simnet.on_frame.reply_ratio", ratio(_sum(profile, on_frame, "tally"), frame_calls), "ratio")
    put(
        "simnet.frames_on_air",
        per_op(_sum(profile, named("simnet.Transcript.tx"), "calls")),
        "count",
    )
    put("simnet.loop.self_s", per_op(_sum(profile, named("simnet.Simulation.run"), "self_s")), "s")
    to_json = named("simnet.Transcript.to_json")
    put("simnet.transcript_json.self_s", per_op(_sum(profile, to_json, "self_s")), "s")
    put("simnet.transcript_json.octets", per_op(_sum(profile, to_json, "tally")), "octets")
    put("simnet.self_s", per_op(_sum(profile, prefix("simnet."), "self_s")), "s")

    load = named("scenarios.script_from_dict", "scenarios.load_script", "scenarios.builtin")
    put("scenarios.load.self_s", per_op(_sum(profile, load, "self_s")), "s")
    put(
        "scenarios.evaluate.calls",
        per_op(_sum(profile, named("scenarios.evaluate_check"), "calls")),
        "count",
    )
    evaluate = named("scenarios.evaluate_check", "scenarios.evaluate_expectations")
    put("scenarios.evaluate.self_s", per_op(_sum(profile, evaluate, "self_s")), "s")
    put("scenarios.self_s", per_op(_sum(profile, prefix("scenarios."), "self_s")), "s")

    put("trace.op_s", per_op(profile.op_s), "s")
    put("trace.overhead_ratio", overhead_ratio, "ratio")
    put("trace.unattributed_s", per_op(_sum(profile, named(ROOT_SPAN), "self_s")), "s")
    return out


def reason_shares(metrics: dict) -> dict:
    """Shares of the traced op that confirm why each workload was chosen."""
    op_s = metrics["trace.op_s"][0] or float("nan")
    value = {name: v for name, (v, _) in metrics.items()}
    return {
        "point_mul_self": (value["crypto.point_mul_base.self_s"]
                           + value["crypto.point_mul_var.self_s"]) / op_s,
        "ecdsa_verify_total": value["crypto.ecdsa_verify.total_s"] / op_s,
        "simnet_plus_frames_self": (value["simnet.self_s"] + value["frames.self_s"]) / op_s,
        "crypto_self": value["crypto.self_s"] / op_s,
    }
