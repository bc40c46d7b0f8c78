"""Experiment harness for the sign-witness optimality test on trace distance.

Background: for the trace-distance objective the natural certificate
direction is ``H = -adj(Y)`` where ``Y = sum_k sign(lambda_k) Pi_k`` comes
from the spectral decomposition of ``sigma - (Phi (x) 1)(rho)`` with
``sign(0) = 0``.  When the difference operator has trivial kernel that
``Y`` is the unique trace-norm dual witness and a near-optimal channel
must certify with it; when the kernel is nontrivial the witness is one
point of a face of valid completions ``Y + V0 W V0^dagger`` (``||W|| <= 1``
on the kernel), and whether the ``W = 0`` member always suffices at optima
is an open question this harness collects evidence on.

Each trial: draw a random state pair (half the trials make the target
exactly reachable, the regime where the kernel is large), drive the
projected subgradient solver to a small *certified* gap, take the sign
witness and its pull-back at the incumbent from the trace-distance family
(the one decomposition of the difference operator), certify, and classify:

* ``supports`` — near-optimal incumbent, witness certificate passes.
* ``counterexample-candidate`` — near-optimal, certificate fails hard,
  and the difference operator has a kernel (the open regime).  The
  completion search then reports whether some other face member certifies.
* ``undecided`` — everything else (unconverged solver, marginal defects).

``run_conjecture`` draws its trials first and solves them together, in
lock-step; each record is the one the trial gets when solved alone.

The harness's zero threshold is ``max(tau_rank, GAP_TOL)`` times the
*problem* scale ``max(||sigma||, ||tau||)``, where the family's own is
``tau_rank`` times the norm of the difference operator: at a reachable
optimum the difference is pure solver noise, every eigenvalue is far below
what a gap-certified incumbent can resolve, and the honest reading is
"kernel everywhere" (witness 0), not a full-rank sign pattern on noise.  A
hard certificate failure with a genuinely resolvable full-rank difference is
impossible at a true optimum (the witness is unique there, so the
certificate must hold); it is flagged as ``full_rank_hard_fail`` — a build
bug indicator, asserted absent by the acceptance suite, never a conjecture
statistic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .certifier import VERDICT_OPTIMAL, _within_tol, certify
from .choi import BipartiteState, ChoiOp, eval_map_apply, random_density
from .linalg import TOL, HermOp, Tolerances, _herm, spectral_norm
from .objectives import TraceDistanceObjective
from .solvers import SolverConfig, SolveTrace, random_channel_choi, solve, solve_batch

__all__ = [
    "GAP_TOL",
    "HARD_FAIL_FACTOR",
    "ConjectureRecord",
    "TrialError",
    "classify",
    "completion_search",
    "draw_trial",
    "record_to_dict",
    "record_trial",
    "run_trial",
    "run_trials",
    "run_conjecture",
    "summarize",
]

GAP_TOL = 1e-7
HARD_FAIL_FACTOR = 100.0
# random kernel directions ``completion_search`` tries, four scalings each
RANDOM_COMPLETIONS = 6
# the acceptance configuration of the harness
HARNESS_CONFIG = SolverConfig(step_rule="polyak", max_iters=1200, stall_window=150)
# trials per lock-step solve in ``run_conjecture``: bounds its memory
CHUNK = 100

CLASS_SUPPORTS = "supports"
CLASS_UNDECIDED = "undecided"
CLASS_CANDIDATE = "counterexample-candidate"


@dataclass(frozen=True)
class ConjectureRecord:
    """One trial: instance identity, solver quality, witness certificate."""

    seed: int
    dims: tuple[int, int, int]
    reachable: bool
    value: float
    gap: float
    scale: float
    herm_defect: float
    min_eig: float
    verdict: str
    zero_eigenvalue: bool
    min_abs_eig: float
    kernel_dim: int
    classification: str
    converged: bool
    iterations: int
    completions_tried: int
    completion_certifies: bool
    full_rank_hard_fail: bool


@dataclass(frozen=True)
class TrialError:
    """A trial that raised: its identity and the error message."""

    seed: int
    dims: tuple[int, int, int]
    error: str


def classify(
    near: bool, verdict: str, hard_fail: bool, kernel_dim: int
) -> tuple[str, bool]:
    """Pure classification gate: (classification, full_rank_hard_fail flag).

    A full-rank difference operator can never yield a candidate — its
    witness is unique, so a hard failure there is a build bug, flagged
    separately and classified ``undecided`` pending investigation.
    """
    full_rank_hard_fail = bool(near and hard_fail and kernel_dim == 0)
    if not near:
        return CLASS_UNDECIDED, full_rank_hard_fail
    if verdict == VERDICT_OPTIMAL:
        return CLASS_SUPPORTS, full_rank_hard_fail
    if hard_fail and kernel_dim > 0:
        return CLASS_CANDIDATE, full_rank_hard_fail
    return CLASS_UNDECIDED, full_rank_hard_fail


def completion_search(
    spec: TraceDistanceObjective,
    j: ChoiOp,
    y0: np.ndarray,
    kernel_vecs: np.ndarray,
    seed: int,
    tol: Tolerances = TOL,
) -> tuple[int, bool, float]:
    """Scan witness completions ``Y = Y0 + V0 W V0^dagger`` with ``||W|| <= 1``.

    Tries identity multiples and ``RANDOM_COMPLETIONS`` random Hermitian
    directions on the kernel; returns (number tried, whether any
    completion's certificate passed, the best min-eigenvalue seen).  The
    face is compact and convex but not searched exhaustively — a pass is
    definitive, a miss is only evidence.
    """
    r0 = kernel_vecs.shape[1]
    if r0 == 0:
        return 0, False, -math.inf
    rng = np.random.default_rng(seed)
    ws: list[np.ndarray] = []
    for c in np.linspace(-1.0, 1.0, 5):
        ws.append(c * np.eye(r0))
    for _ in range(RANDOM_COMPLETIONS):
        g = rng.standard_normal((r0, r0)) + 1j * rng.standard_normal((r0, r0))
        g = _herm(g)
        g = g / max(spectral_norm(g), 1e-300)
        for c in (1.0, 0.5, -0.5, -1.0):
            ws.append(c * g)
    tried = 0
    passed = False
    best_min_eig = -math.inf
    for w in ws:
        y = y0 + kernel_vecs @ w @ kernel_vecs.conj().T
        cert = certify(spec._pull_back(y, j.dim_out), j, tol)
        tried += 1
        best_min_eig = max(best_min_eig, cert.min_eig)
        if cert.verdict == VERDICT_OPTIMAL:
            passed = True
    return tried, passed, best_min_eig


def draw_trial(seed: int, dims: tuple[int, int, int], reachable: bool) -> TraceDistanceObjective:
    """The random trace-distance instance of one trial.

    ``rho`` is a random state; a reachable target is ``rho`` pushed through
    a random channel, an unreachable one another random state.  The states
    are generated, so they are judged at the package ``TOL``.
    """
    d_in, d_out, d_env = dims
    rng = np.random.default_rng(seed)
    rho = BipartiteState(HermOp(random_density(d_in * d_env, rng)), d_in, d_env)
    if reachable:
        lam = random_channel_choi(d_in, d_out, rng)
        sigma = BipartiteState(HermOp(eval_map_apply(rho, lam)), d_out, d_env)
    else:
        sigma = BipartiteState(HermOp(random_density(d_out * d_env, rng)), d_out, d_env)
    return TraceDistanceObjective(rho, sigma)


def record_trial(
    seed: int,
    dims: tuple[int, int, int],
    reachable: bool,
    spec: TraceDistanceObjective,
    trace: SolveTrace,
    tol: Tolerances = TOL,
) -> ConjectureRecord:
    """Certify the sign witness at a solved trial's incumbent and classify it."""
    j = trace.best_choi
    w, v, thr, y, h = spec._witness(j, max(tol.tau_rank, GAP_TOL))
    zero_mask = np.abs(w) <= thr
    kernel_dim = int(np.sum(zero_mask))
    min_abs = float(np.min(np.abs(w))) if w.size else 0.0
    cert = certify(h, j, tol)

    near = trace.gap <= GAP_TOL * cert.scale
    hard_fail = not _within_tol(cert.herm_defect, cert.min_eig, cert.scale, tol, HARD_FAIL_FACTOR)
    classification, full_rank_hard_fail = classify(
        near, cert.verdict, hard_fail, kernel_dim
    )

    tried, passed, _best = 0, False, -math.inf
    if near and kernel_dim > 0 and cert.verdict != VERDICT_OPTIMAL:
        tried, passed, _best = completion_search(
            spec, j, y, v[:, zero_mask], seed ^ 0x5EED, tol
        )

    return ConjectureRecord(
        seed=seed,
        dims=dims,
        reachable=reachable,
        value=trace.best_value,
        gap=trace.gap,
        scale=cert.scale,
        herm_defect=cert.herm_defect,
        min_eig=cert.min_eig,
        verdict=cert.verdict,
        zero_eigenvalue=kernel_dim > 0,
        min_abs_eig=min_abs,
        kernel_dim=kernel_dim,
        classification=classification,
        converged=trace.converged,
        iterations=trace.iterations,
        completions_tried=tried,
        completion_certifies=passed,
        full_rank_hard_fail=full_rank_hard_fail,
    )


def run_trial(
    seed: int,
    dims: tuple[int, int, int],
    reachable: bool,
    cfg: SolverConfig | None = None,
    tol: Tolerances = TOL,
) -> ConjectureRecord:
    """Solve one random trace-distance instance and certify its witness."""
    spec = draw_trial(seed, dims, reachable)
    trace = solve(spec, cfg or HARNESS_CONFIG, tol)
    return record_trial(seed, dims, reachable, spec, trace, tol)


def run_trials(
    trials, dims: tuple[int, int, int], cfg: SolverConfig | None = None, tol: Tolerances = TOL
) -> list[ConjectureRecord | TrialError]:
    """:func:`run_trial` of each ``(seed, reachable)`` pair, with one
    lock-step :func:`solve_batch` over all of them.

    A trial that raises, while drawing, solving or certifying, becomes a
    :class:`TrialError` with the message it raises alone.
    """
    specs: list = []
    for seed, reachable in trials:
        try:
            specs.append(draw_trial(seed, dims, reachable))
        except Exception as exc:  # per-trial failures are data, not fatal
            specs.append(exc)
    drawn = [spec for spec in specs if not isinstance(spec, Exception)]
    traces = iter(solve_batch(drawn, cfg or HARNESS_CONFIG, tol))
    records: list[ConjectureRecord | TrialError] = []
    for (seed, reachable), spec in zip(trials, specs):
        try:
            if isinstance(spec, Exception):
                raise spec
            trace = next(traces)
            if isinstance(trace, Exception):
                raise trace
            rec = record_trial(seed, dims, reachable, spec, trace, tol)
        except Exception as exc:
            rec = TrialError(seed, dims, str(exc))
        records.append(rec)
    return records


def run_conjecture(
    dims: tuple[int, int, int] = (2, 2, 2),
    trials: int = 100,
    seed: int = 0,
    cfg: SolverConfig | None = None,
    tol: Tolerances = TOL,
) -> tuple[list[ConjectureRecord | TrialError], dict]:
    """Run ``trials`` seeded trials (alternating reachable targets) and tally.

    Returns the records in trial order; a trial that raises is kept as a
    :class:`TrialError` and the run goes on.  The trials are solved in
    lock-step, ``CHUNK`` at a time, which bounds the memory and cannot
    change any record.  Never asserts anything about the open question —
    the summary reports evidence counts only.  ``full_rank_hard_fail``
    entries indicate a build bug (the unique-witness case cannot fail at a
    true optimum) and are surfaced prominently in the summary.
    """
    records: list[ConjectureRecord | TrialError] = []
    for start in range(0, trials, CHUNK):
        chunk = range(start, min(start + CHUNK, trials))
        records += run_trials(
            [(seed * 1000003 + t, t % 2 == 0) for t in chunk], dims, cfg, tol
        )
    return records, summarize(records)


def record_to_dict(rec: ConjectureRecord | TrialError) -> dict:
    """JSON-ready dict with the dims tuple listified."""
    doc = asdict(rec)
    doc["dims"] = list(doc["dims"])
    return doc


def summarize(records) -> dict:
    """Evidence counts; ``trials`` counts the trials that ran to a record."""
    counts = {CLASS_SUPPORTS: 0, CLASS_UNDECIDED: 0, CLASS_CANDIDATE: 0}
    bug_flags = 0
    completion_passes = 0
    errors = 0
    for r in records:
        if isinstance(r, TrialError):
            errors += 1
            continue
        counts[r.classification] += 1
        bug_flags += int(r.full_rank_hard_fail)
        completion_passes += int(r.completion_certifies)
    return {
        "trials": len(records) - errors,
        "supports": counts[CLASS_SUPPORTS],
        "undecided": counts[CLASS_UNDECIDED],
        "counterexample_candidates": counts[CLASS_CANDIDATE],
        "completion_certifies": completion_passes,
        "full_rank_hard_fails": bug_flags,
        "errors": errors,
    }
