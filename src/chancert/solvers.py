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
from dataclasses import dataclass, replace

import numpy as np

from .certifier import certify
from .choi import (
    BipartiteState,
    ChoiOp,
    Povm,
    choi_from_kraus,
    depolarizing_choi,
    random_density,
)
from .linalg import (
    TOL,
    DimensionMismatchError,
    HermOp,
    Tolerances,
    _eigh,
    _fro_settles,
    _herm,
    _min_eig,
    as_array,
    kron,
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
    "helstrom_povm",
    "brute_force_measurement",
    "random_channel_choi",
    "random_instance",
    "DIM_CAP",
]

DIM_CAP = 8

STEP_RULES = ("constant", "diminishing", "polyak")


class MaxItersExceededError(RuntimeError):
    """Iteration budget exhausted before reaching the requested tolerance."""


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the reference solvers.

    ``step_rule`` is one of ``constant`` (eta = c), ``diminishing``
    (eta = c / sqrt(t), the default), or ``polyak`` (eta = gap / ||H||_F^2
    against the best certified lower bound, falling back to diminishing
    until one exists).  ``stall_window`` stops the loop after that many
    iterations without a new incumbent.
    """

    max_iters: int = 5000
    step_rule: str = "diminishing"
    step_c: float = 1.0
    tol_gap: float = 1e-7
    tol_feas: float = 1e-9
    stall_window: int = 200

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.step_rule not in STEP_RULES:
            raise ValueError(f"unknown step rule {self.step_rule!r}")
        for name in ("step_c", "tol_gap", "tol_feas"):
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


def project_channel(
    x, dims: tuple[int, int], cfg: SolverConfig | None = None, tol: Tolerances = TOL
) -> ChoiOp:
    """Frobenius-nearest channel Choi operator to an arbitrary matrix.

    Dykstra's alternating projections between the PSD cone (eigenvalue
    clipping, with the correction term) and the affine slice of
    unit-partial-trace operators ``X -> X + 1 (x) (1 - Tr_out X) / d_out``
    (affine, so no correction needed).  Sweeps until the PSD defect of the
    affine-feasible iterate is at most ``tol_feas``.
    """
    cfg = cfg or SolverConfig()
    d_out, d_in = dims
    a = as_array(x)
    if a.shape != (d_out * d_in, d_out * d_in):
        raise DimensionMismatchError(f"shape {a.shape} incompatible with dims {dims}")
    cur = _herm(a)
    corr = np.zeros_like(cur)
    eye_out = np.eye(d_out)
    eye_in = np.eye(d_in)
    # Feasible input short-circuits: makes the projection exactly idempotent.
    low = _min_eig(cur)
    if max(0.0, -low) <= cfg.tol_feas:
        tr_diff = partial_trace(cur, dims, 0) - eye_in
        if _fro_settles(tr_diff, cfg.tol_feas) or spectral_norm(tr_diff) <= cfg.tol_feas:
            return ChoiOp(HermOp(cur, tol), d_out, d_in, tol)
    for _ in range(cfg.max_iters):
        shifted = cur + corr
        w, v = _eigh(shifted)
        psd = (v * np.clip(w, 0.0, None)) @ v.conj().T
        corr = shifted - psd
        tr = partial_trace(psd, dims, 0)
        cur = psd + kron(eye_out, (eye_in - tr) / d_out)
        low = _min_eig(cur)
        if max(0.0, -low) <= cfg.tol_feas:
            return ChoiOp(HermOp(cur, tol), d_out, d_in, tol)
    raise MaxItersExceededError(
        f"projection defect {max(0.0, -low):.3e} after {cfg.max_iters} sweeps"
    )


def solve(
    spec: ObjectiveSpec, cfg: SolverConfig | None = None, tol: Tolerances = TOL
) -> SolveTrace:
    """Projected subgradient descent over the channel set.

    Starts at the completely depolarizing Choi operator (an interior point,
    keeping the smooth families differentiable and the relative entropy
    finite whenever any channel makes it finite).  Best-effort: exhausting
    the iteration or stall budget returns the trace with
    ``converged=False`` rather than raising.
    """
    cfg = cfg or SolverConfig()
    d_out, d_in = spec.dims
    # The projection gets its own sweep budget: a tiny subgradient budget
    # must not starve Dykstra (best-effort means no raising from inside).
    proj_cfg = replace(cfg, max_iters=max(cfg.max_iters, 500))
    j = depolarizing_choi(d_in, d_out, tol)
    res = evaluate(spec, j, tol)

    values: list[float] = []
    best_value = math.inf
    best_j = j
    best_res = best_cert = None  # set together with a finite best_value
    best_t = 0
    lower = spec.value_floor()
    converged = False
    iterations = 0

    for t in range(1, cfg.max_iters + 1):
        iterations = t
        cert = certify(res.h, j, tol)
        values.append(res.value)
        if res.value < best_value:
            best_value, best_j, best_res, best_cert, best_t = res.value, j, res, cert, t
        if res.valid_subgradient and not math.isinf(res.value):
            lower = max(lower, res.value - cert.bound)
            if res.exact_gradient and cert.bound <= cfg.tol_gap * cert.scale:
                converged = True
                break
        if t - best_t > cfg.stall_window or t == cfg.max_iters:
            break

        gnorm2 = float(np.real(np.vdot(res.h.mat, res.h.mat)))
        if gnorm2 <= 0.0 or math.isinf(res.value):
            break  # nowhere to go (zero direction or infinite start)
        if cfg.step_rule == "constant":
            eta = cfg.step_c
        elif cfg.step_rule == "polyak" and not math.isinf(lower) and res.value > lower:
            eta = (res.value - lower) / gnorm2
        else:
            eta = cfg.step_c / math.sqrt(t)

        # Only the relative entropy can be infinite: halve the step until the
        # candidate lands inside its finite domain.
        for _ in range(60):
            cand = project_channel(j.mat - eta * res.h.mat, (d_out, d_in), proj_cfg, tol)
            cand_res = evaluate(spec, cand, tol)
            if not math.isinf(cand_res.value):
                break
            eta /= 2.0
        else:
            break  # every step lands outside the finite domain
        j, res = cand, cand_res

    # ``lower`` already holds the incumbent's bound, folded in at its iteration.
    if not math.isinf(best_value) and best_res.valid_subgradient:
        final_bound = best_cert.bound
    else:
        final_bound = math.inf
    gap = best_value - lower if not math.isinf(best_value) else math.inf
    return SolveTrace(
        best_value=best_value,
        best_choi=best_j,
        iterations=iterations,
        values=tuple(values),
        converged=converged,
        final_bound=final_bound,
        gap=gap,
    )


def helstrom_povm(ens: Ensemble, tol: Tolerances = TOL) -> tuple[Povm, float]:
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
    elements = (HermOp(p_first, tol), HermOp(np.eye(ens.dim) - p_first, tol))
    error = 1.0 - p1 - float(np.real(np.trace(m @ p_first)))
    return Povm(elements, tol), error


def brute_force_measurement(
    ens: Ensemble, grid_n: int = 400, tol: Tolerances = TOL
) -> tuple[Povm, float]:
    """Grid search over qubit projective measurements (plus trivial ones).

    Scans Bloch directions ``|v(theta, phi)>`` on a ``grid_n x grid_n``
    grid, trying both outcome assignments of ``{|v><v|, 1 - |v><v|}``, and
    also the trivial measurements that always answer one outcome.  A
    single-state ensemble is padded with an all-zero second element.
    """
    if ens.dim != 2:
        raise ValueError(f"grid search is qubit-only, got dimension {ens.dim}")
    if ens.outcomes == 1:
        povm = Povm((HermOp(np.eye(2)), HermOp(np.zeros((2, 2)))), tol)
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
    return Povm((HermOp(first, tol), HermOp(second, tol)), tol), best_err


def random_channel_choi(
    dim_in: int,
    dim_out: int,
    rng: np.random.Generator,
    kraus_rank: int | None = None,
    tol: Tolerances = TOL,
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
    return choi_from_kraus(blocks, tol)


def _check_dims(dims: tuple[int, ...], n: int, kind: str) -> None:
    if len(dims) != n:
        raise ValueError(f"{kind} instance needs {n} dims, got {dims}")
    for d in dims:
        if not 1 <= d <= DIM_CAP:
            raise ValueError(f"dimension {d} outside [1, {DIM_CAP}] for {kind}")


def random_instance(kind: str, dims: tuple[int, ...], seed: int, tol: Tolerances = TOL):
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
        states = tuple(HermOp(random_density(d, rng), tol) for _ in range(m))
        return Ensemble(probs, states, tol)
    if kind == "channel":
        _check_dims(dims, 2, kind)
        d_in, d_out = dims
        return random_channel_choi(d_in, d_out, rng, tol=tol)
    if kind == "state_pair":
        _check_dims(dims, 3, kind)
        d_in, d_out, d_env = dims
        rho = BipartiteState(HermOp(random_density(d_in * d_env, rng), tol), d_in, d_env, tol)
        sigma = BipartiteState(
            HermOp(random_density(d_out * d_env, rng), tol), d_out, d_env, tol
        )
        return rho, sigma
    raise ValueError(f"unknown instance kind {kind!r}")
