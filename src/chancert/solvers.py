"""Desk-scale reference solvers: channel projection, projected subgradient
descent, and exhaustive measurement search.

These exist to *produce* candidate optima that the certifier then checks;
none of them is required for certification itself.  Everything is dense
and deterministic: a fixed seed reproduces instances and traces bit for
bit.

The projected subgradient loop tracks two quantities per iterate: the
objective value and the certificate bound at that iterate.  Whenever the
current direction is a genuine subgradient element, ``value - bound`` is a
sound lower bound on the optimum, so the loop maintains the best such
lower bound and can report a certified gap; the ``polyak`` step rule uses
it directly.  Termination with ``converged=True`` requires an exact
gradient and a certificate bound below ``tol_gap * scale`` --- points
where the objective is merely subdifferentiable are used as search
directions but never for terminal certification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certifier import _residuals
from .choi import (
    BipartiteState,
    ChoiOp,
    Povm,
    choi_from_kraus,
    depolarizing_choi,
    random_density,
)
from .linalg import (
    ROUNDING,
    TOL,
    DimensionMismatchError,
    HermOp,
    Tolerances,
    _assemble,
    _dagger,
    _eigh,
    _fro,
    _fro_settles,
    _herm,
    _min_eig,
    _normalization_failure,
    as_array,
    partial_trace,
    spectral_norm,
)
from .objectives import Ensemble, ObjectiveSpec, evaluate

__all__ = [
    "MaxItersExceededError",
    "SolverConfig",
    "SolveTrace",
    "project_channel",
    "solve",
    "solve_batch",
    "helstrom_povm",
    "brute_force_measurement",
    "random_channel_choi",
    "random_instance",
    "DIM_CAP",
]

DIM_CAP = 8

# Dykstra sweep budget of one projection
SWEEPS = 5000

STEP_RULES = ("constant", "diminishing", "polyak")


class MaxItersExceededError(ValueError):
    """Iteration budget exhausted before reaching the requested tolerance.

    A ``ValueError``: like a failed eigensolver, an input the numerics
    cannot handle, so the command line reports it in one line and exits 2.
    """


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the reference solvers.

    ``step_rule`` is one of ``constant`` (eta = c), ``diminishing``
    (eta = c / sqrt(t), the default), or ``polyak`` (eta = gap / ||H||_F^2
    against the best certified lower bound, falling back to diminishing
    until one exists).  ``stall_window`` stops the loop after that many
    iterations without a new incumbent.  The channel projection has its own
    sweep budget (``SWEEPS``) and takes its feasibility tolerance from the
    :class:`Tolerances` of the run.
    """

    max_iters: int = 5000
    step_rule: str = "diminishing"
    step_c: float = 1.0
    tol_gap: float = 1e-7
    stall_window: int = 200

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.step_rule not in STEP_RULES:
            raise ValueError(f"unknown step rule {self.step_rule!r}")
        for name in ("step_c", "tol_gap"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be a positive finite number, got {v}")
        if self.stall_window < 1:
            raise ValueError("stall_window must be >= 1")


@dataclass(frozen=True)
class SolveTrace:
    """Result of a projected subgradient run.

    ``values`` is the per-iteration objective log; ``best_value`` is its
    minimum and ``best_choi`` the incumbent attaining it.  ``final_bound``
    is the certificate bound at the incumbent (infinite when the
    incumbent's direction is not a trustworthy subgradient element).
    ``gap`` is ``best_value`` minus the best certified lower bound seen.
    """

    best_value: float
    best_choi: ChoiOp
    iterations: int
    values: tuple[float, ...]
    converged: bool
    final_bound: float
    gap: float


def project_channel(x, dims: tuple[int, int], tol: Tolerances = TOL) -> ChoiOp:
    """Frobenius-nearest channel Choi operator to an arbitrary matrix.

    Dykstra's alternating projections between the PSD cone (eigenvalue
    clipping, with the correction term) and the affine slice of
    unit-partial-trace operators ``X -> X + 1 (x) (1 - Tr_out X) / d_out``
    (affine, so no correction needed).  Sweeps until the Hermitian part of
    the affine-feasible iterate ``P`` has PSD defect at most ``feas =
    min(tau_psd / 10, tau_num)`` and meets the normalization rule, so the
    result passes the ``ChoiOp`` check under the same tolerances, and until
    the complementarity gap ``<-C, P>`` of the PSD correction ``C`` is at
    most ``feas * (1 + ||C||_F)``; raises :class:`MaxItersExceededError`
    after ``SWEEPS`` sweeps, and ``ValueError`` when the Hermitian part of
    ``x`` is not finite.

    ``x - P`` is ``C`` plus a term ``1 (x) Y``, which is orthogonal to every
    difference of channels, and ``C`` is negative semidefinite, so for every
    channel ``K`` the variational inequality ``<x - P, K - P> <= gap`` holds:
    ``P`` is the projection up to the gap.  A feasible input comes back as
    its Hermitian part, so the map is idempotent.  The solvers step with the
    cheaper first feasible iterate instead (:func:`_project_stack`).
    """
    d_out, d_in = dims
    a = as_array(x)
    if a.shape != (d_out * d_in, d_out * d_in):
        raise DimensionMismatchError(f"shape {a.shape} incompatible with dims {dims}")
    (out,) = _project_stack(a[None], dims, tol, exact=True)
    if isinstance(out, Exception):
        raise out
    return out


def _project_stack(
    xs: np.ndarray, dims: tuple[int, int], tol: Tolerances, exact: bool = False
) -> list[ChoiOp | Exception]:
    """A channel near each slice of a ``(B, n, n)`` stack, by the sweeps of
    :func:`project_channel`, or the slice's own error.

    Without ``exact`` a slice stops at its first feasible iterate, which can
    be far from the projection (0.89 in Frobenius norm for a step-like
    ``x`` at dims ``(2, 2)`` that lands inside the cone after one sweep);
    the solvers only need a channel near their step.  With ``exact`` it
    also waits for the complementarity gap, which makes it the projection.

    A slice whose Hermitian part is not finite (a step that overflows) gets
    a ``ValueError`` as its entry.  A feasible slice short-circuits to its
    Hermitian part, which makes the projection exactly idempotent.  The
    partial-trace test needs no decomposition, so it runs first, and a slice
    it rejects goes straight to the sweeps without the ``eigvalsh`` of the
    PSD test.  The sweeps run on the stack of the slices still moving; each
    slice stops at its own sweep, so its result has the bits of projecting
    it alone.  A slice still moving after ``SWEEPS`` sweeps gets its own
    :class:`MaxItersExceededError` as its entry, with the message its lone
    run gets, and the slices that landed keep their channels.

    The stop test reads the bits a channel stores, the Hermitian part
    ``herm`` of the iterate, so every channel is built unchecked
    (``linalg._assemble``) and passes ``ChoiOp(HermOp(mat), d_out, d_in,
    tol)`` with the same bits: ``herm`` is Hermitian by construction, and
    the stop test's ``eigvalsh`` is the PSD test (``lambda_min >= -feas >=
    -tau_psd``).  Only the normalization rule keeps a rounding allowance.
    ``Tr_out P = 1`` exactly before rounding; the additions, the division by
    ``d_out`` and the two ``d_out``-term sums leave each of the ``d_in^2``
    entries within ``ROUNDING * d_out^2 (1 + max |w|)``, so ``||Tr_out herm
    - 1||_F`` is at most ``d_out * slack``, with ``slack = ROUNDING * n * (1
    + max |w|)`` from the sweep's spectrum ``w``.  Below ``tau_num / 2`` that
    settles the rule (its Frobenius shortcut); otherwise the rule itself runs
    on ``herm``, and a slice that fails it keeps sweeping.

    The stop test's ``eigvalsh`` is screened.  The sweep's ``eigh`` already
    holds the eigenvector ``v0`` of the lowest eigenvalue of the matrix it
    clips, and ``r = Re(v0^dagger P v0) >= lambda_min(herm)``.  When every
    live slice has ``r < -feas - slack``, the computed ``lambda_min(herm)``
    is below ``-feas`` as well, every slice moves on, and the ``eigvalsh``
    is skipped; otherwise it runs as before.  Either way the iterates and
    the decisions are those of the unscreened loop.
    """
    d_out, d_in = dims
    n = d_out * d_in
    feas = min(tol.tau_psd / 10, tol.tau_num)
    eye_out = np.eye(d_out)[:, None, :, None]  # kron's left factor, broadcast
    eye_in = np.eye(d_in)
    out: list[ChoiOp | Exception | None] = [None] * len(xs)

    def land(k: int, h: np.ndarray) -> None:
        out[k] = _assemble(ChoiOp, op=_assemble(HermOp, mat=h), dim_out=d_out, dim_in=d_in)

    with np.errstate(over="ignore", invalid="ignore"):  # not finite: an error entry
        cur = _herm(xs)
    finite = np.isfinite(cur).all(axis=(-2, -1))
    for k in np.flatnonzero(~finite):
        out[k] = ValueError("the Hermitian part of a projection input is not finite")
    live = np.flatnonzero(finite)
    cur = cur[live] if not finite.all() else cur
    tr_diff = partial_trace(cur, dims) - eye_in
    # ``max |entry| <= ||tr_diff||``: past twice ``feas`` the exact test
    # fails too (the factor 2 absorbs rounding), so only the others run it
    unsettled = np.flatnonzero(~(np.abs(tr_diff).max(axis=(-2, -1)) > 2.0 * feas))
    for k in unsettled:
        unit_trace = _fro_settles(tr_diff[k], feas) or spectral_norm(tr_diff[k]) <= feas
        if unit_trace and max(0.0, -_min_eig(cur[k])) <= feas:
            land(live[k], cur[k])
    moving = np.array([out[k] is None for k in live], dtype=bool)
    if not moving.any():
        return out
    live, cur = (live, cur) if moving.all() else (live[moving], cur[moving])
    corr = np.zeros_like(cur)
    for _ in range(SWEEPS):
        shifted = cur + corr
        w, v = _eigh(shifted)
        vh = _dagger(v)
        psd = (v * np.maximum(w, 0.0)[:, None, :]) @ vh
        corr = shifted - psd
        # partial_trace and kron inlined: the same einsum and broadcast product
        tr = np.einsum("...ajak->...jk", psd.reshape(-1, d_out, d_in, d_out, d_in))
        cur = psd + (eye_out * ((eye_in - tr) / d_out)[:, None, :, None, :]).reshape(-1, n, n)
        # how far a computed eigenvalue of ``herm`` may sit from the exact one;
        # ``w`` is ascending, so ``max |w|`` sits at one of its ends
        slack = ROUNDING * n * (1.0 + np.maximum(-w[:, 0], w[:, -1]))
        rayleigh = np.einsum("bi,bij,bj->b", vh[:, 0], cur, v[:, :, 0]).real
        if (rayleigh < -feas - slack).all():
            continue  # every lambda_min(herm) <= rayleigh is below -feas: all move
        herm = _herm(cur)
        moving = _min_eig(herm) < -feas  # max(0, -low) > feas, as for one slice
        if exact:
            gap = -np.einsum("bij,bij->b", corr.conj(), herm).real
            size = np.sqrt(np.einsum("bij,bij->b", corr.conj(), corr).real)
            moving = moving | (gap > feas * (1.0 + size))
        if moving.all():
            continue
        for k in np.flatnonzero(~moving):
            h = herm[k]
            if d_out * slack[k] < tol.tau_num / 2 or _normalization_failure(
                    partial_trace(h, dims), lambda: spectral_norm(h), tol) is None:
                land(live[k], h)
            else:
                moving[k] = True  # the rule fails on these bits: sweep on
        if not moving.any():
            return out
        live, cur, corr = live[moving], cur[moving], corr[moving]
    for k, low in zip(live, _min_eig(_herm(cur))):
        defect = max(0.0, -float(low))
        out[k] = MaxItersExceededError(f"projection defect {defect:.3e} after {SWEEPS} sweeps")
    return out


def _within_gap(bound: float, h: np.ndarray, tol_gap: float) -> bool:
    """The convergence test ``bound <= tol_gap * (1 + ||h||_2)``.

    The SVD of ``||h||_2`` runs only when neither bound on the scale decides
    the test: the scale is at least 1, and at most ``1 + ||h||_F`` (the
    factor 2 absorbs the rounding of both norms).
    """
    if bound <= tol_gap:
        return True
    if bound > 2.0 * tol_gap * (1.0 + _fro(h)):
        return False
    return bound <= tol_gap * (1.0 + spectral_norm(h))


def _by_slice(fn, *stacks) -> list:
    """``fn(*stacks)``, a list with one entry per slice; if it raises, ``fn``
    runs again slice by slice and a failing slice's entry is its exception.

    ``fn`` must give each slice the bits it gives that slice alone.
    """
    try:
        return fn(*stacks)
    except Exception as exc:  # the failing slice owns it; find which
        if len(stacks[0]) == 1:
            return [exc]
    entries = []
    for k in range(len(stacks[0])):
        try:
            entries.extend(fn(*(s[k : k + 1] for s in stacks)))
        except Exception as exc:
            entries.append(exc)
    return entries


class _Run:
    """One problem of a :func:`solve_batch` group: its iterate and its log."""

    def __init__(self, spec: ObjectiveSpec, j: ChoiOp, tol: Tolerances) -> None:
        self.spec = spec
        self.j = j
        self.error: Exception | None = None
        self.values: list[float] = []
        self.best_value = math.inf
        self.best_j = j
        self.best_res = None  # set together with a finite best_value
        self.best_bound = math.inf
        self.best_t = 0
        self.converged = False
        self.iterations = 0
        self.eta = 0.0
        try:
            self.res = evaluate(spec, j, tol)
            self.lower = spec.value_floor()
        except Exception as exc:  # this problem's failure, not the group's
            self.error = exc

    def record(self, t: int, bound: float, cfg: SolverConfig) -> bool:
        """Log iteration ``t`` with the certificate bound of the iterate;
        whether the run goes on, with its step size in ``eta``."""
        res = self.res
        self.iterations = t
        self.values.append(res.value)
        if res.value < self.best_value:
            self.best_value, self.best_j, self.best_res = res.value, self.j, res
            self.best_bound, self.best_t = bound, t
        if res.valid_subgradient and not math.isinf(res.value):
            self.lower = max(self.lower, res.value - bound)
            if res.exact_gradient and _within_gap(bound, res.h.mat, cfg.tol_gap):
                self.converged = True
                return False
        if t - self.best_t > cfg.stall_window or t == cfg.max_iters:
            return False

        gnorm2 = float(np.real(np.vdot(res.h.mat, res.h.mat)))
        if gnorm2 <= 0.0 or math.isinf(res.value):
            return False  # nowhere to go (zero direction or infinite start)
        if cfg.step_rule == "constant":
            self.eta = cfg.step_c
        elif cfg.step_rule == "polyak" and not math.isinf(self.lower) and res.value > self.lower:
            self.eta = (res.value - self.lower) / gnorm2
        else:
            self.eta = cfg.step_c / math.sqrt(t)
        return True

    def trace(self) -> SolveTrace | Exception:
        if self.error is not None:
            return self.error
        # ``lower`` already holds the incumbent's bound, folded in at its iteration.
        finite = not math.isinf(self.best_value)
        return SolveTrace(
            best_value=self.best_value,
            best_choi=self.best_j,
            iterations=self.iterations,
            values=tuple(self.values),
            converged=self.converged,
            final_bound=self.best_bound if finite and self.best_res.valid_subgradient else math.inf,
            gap=self.best_value - self.lower if finite else math.inf,
        )


def solve(
    spec: ObjectiveSpec, cfg: SolverConfig | None = None, tol: Tolerances = TOL
) -> SolveTrace:
    """Projected subgradient descent over the channel set.

    Starts at the completely depolarizing Choi operator (an interior point,
    keeping the smooth families differentiable and the relative entropy
    finite whenever any channel makes it finite).  Best-effort: exhausting
    the iteration or stall budget returns the trace with
    ``converged=False`` rather than raising.  The batch of one of
    :func:`solve_batch`.
    """
    (trace,) = solve_batch([spec], cfg, tol)
    if isinstance(trace, Exception):
        raise trace
    return trace


def solve_batch(
    specs, cfg: SolverConfig | None = None, tol: Tolerances = TOL
) -> list[SolveTrace | Exception]:
    """:func:`solve` of each problem of a group with equal dims, in lock-step.

    Every round advances each problem still running by one iteration; the
    certificate bounds and the projections of a round run on ``(B, n, n)``
    stacks, and ``evaluate`` once per problem.  Entry ``i`` is the trace
    ``solve(specs[i])`` returns, bit for bit, or the exception it raises;
    a failing problem leaves the others running.
    """
    if not specs:
        return []
    cfg = cfg or SolverConfig()
    dims = specs[0].dims
    if any(spec.dims != dims for spec in specs):
        raise DimensionMismatchError(f"solve_batch needs equal dims, got {[s.dims for s in specs]}")
    d_out, d_in = dims
    j = depolarizing_choi(d_in, d_out)
    runs = [_Run(spec, j, tol) for spec in specs]
    active = [run for run in runs if run.error is None]

    for t in range(1, cfg.max_iters + 1):
        if not active:
            break
        residuals = _by_slice(
            lambda hs, js: _residuals(hs, js, dims),
            np.stack([run.res.h.mat for run in active]),
            np.stack([run.j.mat for run in active]),
        )
        moving = []
        for run, entry in zip(active, residuals):
            if isinstance(entry, Exception):
                run.error = entry
            elif run.record(t, entry[2] * d_in, cfg):  # epsilon
                moving.append(run)
        # Halve the step until the candidate lands: its projection returns a
        # channel and its value is finite (only the relative entropy can be
        # infinite).  Any error entry of the projection (out of sweeps, a
        # step that overflows) stays the run's error until a smaller step
        # lands; only an error of ``evaluate`` ends the run.
        stepping, active = moving, []
        for _ in range(60):
            if not stepping:
                break
            with np.errstate(over="ignore", invalid="ignore"):  # overflow: an error entry
                steps = np.stack([run.j.mat - run.eta * run.res.h.mat for run in stepping])
            cands = _by_slice(lambda xs: _project_stack(xs, dims, tol), steps)
            retry = []
            for run, cand in zip(stepping, cands):
                if isinstance(cand, Exception):
                    run.error = cand
                else:
                    try:
                        cand_res = evaluate(run.spec, cand, tol)
                    except Exception as exc:
                        run.error = exc
                        continue
                    if not math.isinf(cand_res.value):
                        run.j, run.res, run.error = cand, cand_res, None
                        active.append(run)
                        continue
                run.eta /= 2.0
                retry.append(run)
            stepping = retry
        # a run left in ``stepping`` missed at every step: outside the finite
        # domain, or with its last projection's error
    return [run.trace() for run in runs]


def helstrom_povm(ens: Ensemble) -> tuple[Povm, float]:
    """Analytically optimal two-outcome measurement for a binary ensemble.

    Projects onto the positive eigenspace of ``p_0 rho_0 - p_1 rho_1``
    (eigenvalues exactly zero may go to either outcome without changing the
    error).  Works in any dimension but only for two hypotheses.
    """
    if ens.outcomes != 2:
        raise ValueError(f"need exactly 2 states, got {ens.outcomes}")
    p0, p1 = float(ens.probs[0]), float(ens.probs[1])
    m = p0 * ens.states[0].mat - p1 * ens.states[1].mat
    w, v = _eigh(m)
    pos = v[:, w > 0.0]
    p_first = pos @ pos.conj().T
    elements = (HermOp(p_first), HermOp(np.eye(ens.dim) - p_first))
    error = 1.0 - p1 - float(np.real(np.trace(m @ p_first)))
    return Povm(elements), error


def brute_force_measurement(ens: Ensemble, grid_n: int = 400) -> tuple[Povm, float]:
    """Grid search over qubit projective measurements (plus trivial ones).

    Scans Bloch directions ``|v(theta, phi)>`` on a ``grid_n x grid_n``
    grid, trying both outcome assignments of ``{|v><v|, 1 - |v><v|}``, and
    also the trivial measurements that always answer one outcome.  A
    single-state ensemble is padded with an all-zero second element.
    """
    if ens.dim != 2:
        raise ValueError(f"grid search is qubit-only, got dimension {ens.dim}")
    if ens.outcomes == 1:
        povm = Povm((HermOp(np.eye(2)), HermOp(np.zeros((2, 2)))))
        return povm, 0.0
    if ens.outcomes != 2:
        raise ValueError(f"2-outcome search, got {ens.outcomes} states")
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    p0, p1 = float(ens.probs[0]), float(ens.probs[1])
    m = p0 * ens.states[0].mat - p1 * ens.states[1].mat

    theta = np.linspace(0.0, math.pi, grid_n)
    phi = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    vecs = np.stack(
        [np.cos(tt / 2.0).ravel(), (np.sin(tt / 2.0) * np.exp(1j * pp)).ravel()],
        axis=1,
    )
    quad = np.real(np.einsum("ni,ij,nj->n", vecs.conj(), m, vecs))
    err_first = 1.0 - p1 - quad  # P_0 = |v><v|
    err_second = 1.0 - p0 + quad  # P_1 = |v><v|

    best_err = 1.0 - p0  # trivial: always answer outcome 0
    best_vec = None
    best_swap = False
    if 1.0 - p1 < best_err:
        best_err = 1.0 - p1
        best_swap = True
    i_first = int(np.argmin(err_first))
    if err_first[i_first] < best_err:
        best_err = float(err_first[i_first])
        best_vec, best_swap = vecs[i_first], False
    i_second = int(np.argmin(err_second))
    if err_second[i_second] < best_err:
        best_err = float(err_second[i_second])
        best_vec, best_swap = vecs[i_second], True

    if best_vec is None:
        proj = np.eye(2, dtype=np.complex128)
    else:
        proj = np.outer(best_vec, best_vec.conj())
    first, second = proj, np.eye(2) - proj
    if best_swap:
        first, second = second, first
    return Povm((HermOp(first), HermOp(second))), best_err


def random_channel_choi(
    dim_in: int,
    dim_out: int,
    rng: np.random.Generator,
    kraus_rank: int | None = None,
) -> ChoiOp:
    """Random channel from the partitioned blocks of a Haar-ish isometry.

    A QR-orthonormalized Gaussian ``(kraus_rank * dim_out) x dim_in`` matrix
    is split into ``kraus_rank`` stacked Kraus blocks; the default rank
    ``dim_in * dim_out`` makes the Choi operator full rank almost surely.
    """
    r = kraus_rank if kraus_rank is not None else dim_in * dim_out
    if r < 1 or r * dim_out < dim_in:
        raise ValueError(f"kraus_rank {r} too small for dims ({dim_in}, {dim_out})")
    g = rng.standard_normal((r * dim_out, dim_in)) + 1j * rng.standard_normal(
        (r * dim_out, dim_in)
    )
    q, _ = np.linalg.qr(g)
    blocks = [q[i * dim_out : (i + 1) * dim_out, :] for i in range(r)]
    return choi_from_kraus(blocks)


def _check_dims(dims: tuple[int, ...], n: int, kind: str) -> None:
    if len(dims) != n:
        raise ValueError(f"{kind} instance needs {n} dims, got {dims}")
    for d in dims:
        if not 1 <= d <= DIM_CAP:
            raise ValueError(f"dimension {d} outside [1, {DIM_CAP}] for {kind}")


def random_instance(kind: str, dims: tuple[int, ...], seed: int):
    """Seed-deterministic random test instances.

    ``ensemble`` with dims ``(d, m)`` -> :class:`Ensemble`;
    ``channel`` with dims ``(d_in, d_out)`` -> :class:`ChoiOp`;
    ``state_pair`` with dims ``(d_in, d_out, d_env)`` -> a pair of
    :class:`BipartiteState` (input on ``in (x) env``, target on
    ``out (x) env``).  Dimensions are capped at ``DIM_CAP`` per factor.
    """
    rng = np.random.default_rng(seed)
    if kind == "ensemble":
        _check_dims(dims, 2, kind)
        d, m = dims
        probs = rng.dirichlet(np.ones(m))
        states = tuple(HermOp(random_density(d, rng)) for _ in range(m))
        return Ensemble(probs, states)
    if kind == "channel":
        _check_dims(dims, 2, kind)
        d_in, d_out = dims
        return random_channel_choi(d_in, d_out, rng)
    if kind == "state_pair":
        _check_dims(dims, 3, kind)
        d_in, d_out, d_env = dims
        rho = BipartiteState(HermOp(random_density(d_in * d_env, rng)), d_in, d_env)
        sigma = BipartiteState(HermOp(random_density(d_out * d_env, rng)), d_out, d_env)
        return rho, sigma
    raise ValueError(f"unknown instance kind {kind!r}")
