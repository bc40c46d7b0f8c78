"""Outside-in layer tracing of ``chancert``.

Nothing inside the package changes. :func:`install` replaces the public
functions of each layer with wrappers that record a span (name, start,
end, parent) around every call made while an op is open. The package binds
names with ``from .x import y``, so a wrapper replaces the function in every
``chancert.*`` namespace that holds it, not only in its defining module.
``HermOp`` and ``ChoiOp`` are traced through their ``__post_init__``, which
is their validation. The ``numpy.linalg`` decompositions are wrapped on the
``numpy.linalg`` module, where the package looks them up at each call;
``norm(x, 2)`` is counted as the SVD it runs.

Spans are kept in memory as flat int64 arrays and written out at the end.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import numpy as np

import chancert.choi
import chancert.linalg

# (module, function, span name); evaluate is named per objective family.
FUNCTIONS = (
    ("chancert.serialize", "loads_problem", "serialize.loads_problem"),
    ("chancert.serialize", "canonical_json", "serialize.canonical_json"),
    ("chancert.choi", "eval_map_apply", "choi.eval_map_apply"),
    ("chancert.choi", "eval_map_adjoint", "choi.eval_map_adjoint"),
    ("chancert.objectives", "evaluate", "objectives.evaluate"),
    ("chancert.certifier", "certify", "certifier.certify"),
    ("chancert.certifier", "hykl_check", "certifier.hykl_check"),
    ("chancert.solvers", "project_channel", "solvers.project_channel"),
    ("chancert.solvers", "solve", "solvers.solve"),
    ("chancert.experiments", "run_trial", "experiments.trial"),
    ("chancert.experiments", "completion_search", "experiments.completion_search"),
)
CONSTRUCTORS = (
    (chancert.linalg.HermOp, "linalg.HermOp"),
    (chancert.choi.ChoiOp, "choi.ChoiOp"),
)
DECOMPOSITIONS = ("eigh", "eigvalsh", "svd")
FAMILIES = ("Linear", "Fidelity", "FidelitySquared", "TraceDistance", "RelativeEntropy")
ROOT = "cli.main"


class Tracer:
    """Span recorder with per-name aggregates.

    Calls made while no op span is open (set-up, output checks) pass through
    unrecorded.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")  # name id, parent span id, start ns, end ns
        self._stack: list[list[int]] = []  # span id, name id, start ns, child ns
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.counters: dict[str, float] = {}
        self._projection_depth = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def enter(self, name: str) -> None:
        nid = self.name_id(name)
        sid = len(self.spans) // 4
        self.spans.extend((nid, self._stack[-1][0] if self._stack else -1, 0, 0))
        self._stack.append([sid, nid, time.perf_counter_ns(), 0])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        sid, nid, start, child = self._stack.pop()
        dur = end - start
        self.spans[4 * sid + 2] = start
        self.spans[4 * sid + 3] = end
        self.calls[nid] += 1
        self.total_ns[nid] += dur
        self.self_ns[nid] += dur - child
        if self._stack:
            self._stack[-1][3] += dur

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive ms, self ms) summed over the run."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total_ns[nid] / 1e6, self.self_ns[nid] / 1e6

    def write(self, path_prefix: str) -> None:
        """Write the spans as an (n, 4) int64 array plus a name table."""
        np.save(path_prefix + ".npy", np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4))
        with open(path_prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "parent", "start_ns", "end_ns"],
                       "names": self.names}, fh)

    def _traced(self, fn, name_of, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            name = name_of(args, kwargs)
            if name is None:
                return fn(*args, **kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(args, result)
            return result

        return traced


def _rebind(original, replacement) -> None:
    """Replace ``original`` wherever a ``chancert`` module namespace holds it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "chancert" or mod_name.startswith("chancert.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer. The process keeps the wrappers until it exits."""
    hooks = {
        "serialize.loads_problem": lambda args, res: tracer.count("bytes_in", len(args[0])),
        "serialize.canonical_json": lambda args, res: tracer.count("bytes_out", len(res)),
        "solvers.solve": lambda args, res: tracer.count("iterations", res.iterations),
    }
    for mod_name, attr, name in FUNCTIONS:
        original = fn = getattr(sys.modules[mod_name], attr)
        name_of = functools.partial(_constant, name)
        if name == "objectives.evaluate":
            name_of = _evaluate_name
        elif name == "solvers.project_channel":
            fn = _projection_counter(tracer, fn)
        _rebind(original, tracer._traced(fn, name_of, hooks.get(name)))

    for cls, name in CONSTRUCTORS:
        cls.__post_init__ = tracer._traced(cls.__post_init__, functools.partial(_constant, name))

    for attr in DECOMPOSITIONS:
        name = "linalg." + attr
        fn = getattr(np.linalg, attr)
        if attr == "eigh":
            fn = _sweep_counter(tracer, fn)
        setattr(np.linalg, attr, tracer._traced(fn, functools.partial(_constant, name)))
    np.linalg.norm = tracer._traced(np.linalg.norm, _norm_name)


def _constant(name, args, kwargs):
    return name


def _evaluate_name(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return "objectives.evaluate." + type(spec).__name__.removesuffix("Objective")


def _norm_name(args, kwargs):
    order = args[1] if len(args) > 1 else kwargs.get("ord")
    return "linalg.svd" if order == 2 else None


def _projection_counter(tracer: Tracer, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer._projection_depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            tracer._projection_depth -= 1

    return counted


def _sweep_counter(tracer: Tracer, fn):
    """Count the eigh calls made inside a projection: one per Dykstra sweep."""

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if tracer._projection_depth:
            tracer.count("sweeps")
        return fn(*args, **kwargs)

    return counted


def layer_metrics(tracer: Tracer, ops: int, untraced_ms_per_op: float) -> dict[str, float]:
    """Per-op layer metrics, keyed by the names in BENCHMARK.json."""
    out: dict[str, float] = {}

    def put(name: str, value: float) -> None:
        out[name] = value / ops

    calls, total, self_ms = tracer.stat(ROOT)
    put("cli.main.self_ms", self_ms)
    traced_ms_per_op = total / ops
    for name in ("serialize.loads_problem", "serialize.canonical_json",
                 "choi.eval_map_apply", "choi.eval_map_adjoint", "certifier.hykl_check",
                 "experiments.completion_search", "experiments.trial"):
        put(name + ".ms", tracer.stat(name)[1])
    put("serialize.bytes_in", tracer.counters.get("bytes_in", 0))
    put("serialize.bytes_out", tracer.counters.get("bytes_out", 0))
    for name in ("linalg.HermOp", "choi.ChoiOp"):
        calls, total, _ = tracer.stat(name)
        put(name + ".calls", calls)
        put(name + ".ms", total)
    decomp_ms = 0.0
    for attr in DECOMPOSITIONS:
        calls, total, _ = tracer.stat("linalg." + attr)
        put(f"linalg.{attr}.calls", calls)
        decomp_ms += total
    put("linalg.decomp.ms", decomp_ms)
    evaluate_calls = 0
    for family in FAMILIES:
        calls, total, _ = tracer.stat("objectives.evaluate." + family)
        put(f"objectives.evaluate.{family}.ms", total)
        evaluate_calls += calls
    put("objectives.evaluate.calls", evaluate_calls)
    calls, _, self_ms = tracer.stat("certifier.certify")
    put("certifier.certify.calls", calls)
    put("certifier.certify.self_ms", self_ms)
    put("experiments.completion_search.calls", tracer.stat("experiments.completion_search")[0])

    proj_calls, proj_ms, proj_self = tracer.stat("solvers.project_channel")
    solves, solve_ms, _ = tracer.stat("solvers.solve")
    put("solvers.project_channel.calls", proj_calls)
    put("solvers.project_channel.self_ms", proj_self)
    # Ratios are per projection, per solve or per solve time, not per op.
    out["solvers.project_channel.share"] = proj_ms / solve_ms if solve_ms else 0.0
    out["solvers.dykstra_sweeps_per_projection"] = (
        tracer.counters.get("sweeps", 0) / proj_calls if proj_calls else 0.0)
    out["solvers.iterations_per_solve"] = (
        tracer.counters.get("iterations", 0) / solves if solves else 0.0)
    out["trace.overhead"] = traced_ms_per_op / untraced_ms_per_op
    return out
