"""Benchmark of the chancert package.

Run from the root of a checkout::

    python3 perfbench/run.py --workload certify-corpus --seed 1 --seconds 30 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end metrics
of BENCHMARK.json; ``--trace 1`` reports its per-layer metrics from a
traced run. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The lines
before it list every metric by name and unit, the output-check result and
the environment. A copy of the result, with per-entry latencies, goes to
``.bench_results/``, and a traced run also writes its spans there.

Ops call ``chancert.cli.main`` in-process, from the ``src`` directory of
the checkout, with BLAS pinned to one thread. See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS before numpy is first imported: with two threads the 64x64
# eigh has tails of tens of milliseconds.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("certify-corpus", "solve-descent", "conjecture")
# Fresh interpreters timed per run; setup_s is their median.
SETUP_SAMPLES = 7
# Share of a traced run's time spent untraced, to measure the overhead.
UNTRACED_SHARE = 1 / 3
SETUP_T0_ENV = "PERFBENCH_SETUP_T0"


class BenchError(RuntimeError):
    """The benchmark cannot run here; exits 2 without a result."""


def import_package():
    """Import chancert from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "chancert", "__init__.py")):
        raise BenchError(f"no chancert sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import chancert

    if not os.path.abspath(chancert.__file__).startswith(SRC + os.sep):
        raise BenchError(f"chancert was imported from {chancert.__file__}, not {SRC}")
    return chancert


def set_up(workload: str, seed: int):
    """Import the package and build the workload's inputs.

    Returns (workload, one pass of ops in seeded order, work directory).
    """
    import_package()
    import workloads

    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.Workload(workload)
    return wl, wl.build(workdir, seed), workdir


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_op(wl, op, ref: dict, first: dict, tracer=None):
    """Run one op; returns (wall seconds, Outcome)."""
    from chancert import cli
    import workloads

    out, err = io.StringIO(), io.StringIO()
    rc = None
    failure = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.enter("cli.main")
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except (Exception, SystemExit) as exc:  # a raising op is a failed op
            failure = f"raised {exc!r}"
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.exit()
    if rc is None:
        return wall, workloads.Outcome(False, reason=failure)
    text = out.getvalue()
    # The first run of an entry gets the full check; later runs must
    # reproduce its exit code and output bytes.
    if op.key in first:
        rc0, text0, outcome = first[op.key]
        if (rc, text) != (rc0, text0):
            return wall, workloads.Outcome(False, reason="output differs from its first run")
        return wall, outcome
    try:
        outcome = wl.check(op, rc, text, ref.get(op.key))
    except Exception as exc:  # a malformed output fails its check
        outcome = workloads.Outcome(False, reason=f"check raised {exc!r}")
    if not outcome.ok and err.getvalue():
        outcome = workloads.Outcome(False, reason=f"{outcome.reason}; stderr: {err.getvalue()!r}")
    first[op.key] = (rc, text, outcome)
    return wall, outcome


def host_probe_ms() -> float:
    """Time of a fixed pure-Python loop, to tell a slow host from slow code.

    On a shared host the same pass can run 1.5x slower for minutes at a time.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    return 1e3 * (time.perf_counter() - t0)


def run_passes(wl, ops, ref: dict, first: dict, budget_s: float, probes: list,
               tracer=None) -> list:
    """Whole passes over the ops until the time nearest ``budget_s``.

    Appends one host probe per pass to ``probes``.
    """
    samples = []
    start = time.monotonic()
    passes = 0
    while True:
        probes.append(host_probe_ms())
        for op in ops:
            wall, outcome = run_op(wl, op, ref, first, tracer)
            samples.append((op, wall, outcome))
        passes += 1
        elapsed = time.monotonic() - start
        if elapsed + 0.5 * elapsed / passes >= budget_s:
            return samples


def counts(samples) -> tuple[int, int]:
    attempted = sum(op.weight for op, _, _ in samples)
    failed = sum(op.weight for op, _, outcome in samples if not outcome.ok)
    return attempted, failed


def end_to_end(samples, setup_s: float) -> dict[str, float]:
    attempted, failed = counts(samples)
    timed = sum(wall for _, wall, _ in samples)
    latencies = [1e3 * wall / op.weight for op, wall, _ in samples]
    gaps = [g for _, _, outcome in samples for g in outcome.gaps]
    return {
        "setup_s": setup_s,
        "ops_per_s": (attempted - failed) / timed,
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[8]
                      if len(latencies) > 1 else latencies[0]),
        "certified_share": sum(outcome.certified for _, _, outcome in samples) / attempted,
        # With no op past its check the run is not correct anyway; 1.0, a gap
        # as large as the scale, keeps the result valid JSON.
        "gap_rel_med": statistics.median(gaps) if gaps else 1.0,
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_entry(samples) -> dict[str, float]:
    """Median latency of each pool entry, in ms per op."""
    by_key: dict[str, list[float]] = {}
    for op, wall, _ in samples:
        by_key.setdefault(op.key, []).append(1e3 * wall / op.weight)
    return {key: statistics.median(v) for key, v in sorted(by_key.items())}


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from a fresh interpreter to the end of set-up."""
    times = []
    for _ in range(SETUP_SAMPLES):
        env = dict(os.environ, **{SETUP_T0_ENV: repr(time.monotonic())})
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def setup_only(workload: str, seed: int) -> None:
    t0 = float(os.environ[SETUP_T0_ENV])
    _wl, _ops, workdir = set_up(workload, seed)
    elapsed = time.monotonic() - t0
    shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed))


# ---------------------------------------------------------------------------
# environment block


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, when there is one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    """SHA-256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "chancert")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    import_package()
    setup_s = setup_seconds(workload, seed)
    wl, ops, workdir = set_up(workload, seed)
    ref = load_reference().get(workload, {})
    first: dict = {}
    probes: list[float] = []
    try:
        if not trace:
            samples = run_passes(wl, ops, ref, first, seconds, probes)
            values = end_to_end(samples, setup_s)
            declared = spec["end_to_end"]
            extra = {}
        else:
            import tracing

            untraced = run_passes(wl, ops, ref, first, seconds * UNTRACED_SHARE, probes)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            traced = run_passes(wl, ops, ref, first, seconds * (1 - UNTRACED_SHARE), probes,
                                tracer)
            samples = untraced + traced
            untraced_ms = 1e3 * sum(w for _, w, _ in untraced) / counts(untraced)[0]
            values = tracing.layer_metrics(tracer, counts(traced)[0], untraced_ms)
            declared = spec["per_layer"]
            prefix = _results_path(workload, seed, "spans")
            tracer.write(prefix)
            extra = {"spans": len(tracer.spans) // 4, "spans_file": prefix + ".npy"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = counts(samples)
    failures = sorted({f"{op.key}: {o.reason}" for op, _, o in samples if not o.ok})
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(), "host_probe_ms": statistics.median(probes),
              "result": result, "failures": failures,
              "per_entry_ms": per_entry(samples), **extra}
    with open(_results_path(workload, seed, f"trace{int(trace)}") + ".json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def _results_path(workload: str, seed: int, what: str) -> str:
    out = os.path.join(ROOT, ".bench_results")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, f"{workload}-seed{seed}-{what}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="chancert benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_only:
            setup_only(args.workload, args.seed)
            return 0
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = report["result"]
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"check: {'ok' if result['correct'] else 'FAILED'}, "
          f"{result['failed']} of {result['attempted']} ops failed")
    for line in report["failures"]:
        print(f"  failed {line}")
    print(f"host probe: {report['host_probe_ms']:.3f} ms per fixed loop, median over passes")
    print("environment: " + json.dumps(report["environment"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
