"""Optimality certificates for channels and measurements.

A channel with Choi operator ``J`` minimizes a convex objective over the
channel set exactly when some subgradient element ``H`` at ``J`` satisfies
two checkable conditions:

1. ``Z = Tr_out(H J)`` is Hermitian, and
2. ``H >= 1 (x) Z`` in the PSD order.

:func:`certify` checks both conditions for a caller-supplied ``H`` and
always also quantifies near-misses: ``epsilon`` is the spectral-norm
distance from ``H - 1 (x) Z`` to the PSD cone, and ``epsilon * dim_in``
upper-bounds ``f(J) - inf f`` whenever ``H`` really is a subgradient
element, so a failed exact check still yields a certified suboptimality
gap.  One ``eigh`` of ``Herm(H - 1 (x) Tr_out(HJ))`` gives both ``epsilon``
and the reported ``min_eig``; the solver reads its per-iterate bounds from
the same computation, run on a stack of iterates.  The certifier never
recomputes subgradients itself — callers may bring analytic ``H`` — while
:func:`certify_objective` wires in the ``objectives`` module and downgrades
the verdict when that module reports the subgradient as untrustworthy
(empty subdifferential, infinite value, or a failed image-inclusion
condition).

For minimum-error discrimination the same conditions reduce to the
classical measurement-optimality test (``sum_k p_k P_k rho_k`` Hermitian
and dominating every ``p_j rho_j``), implemented directly on the input
space by :func:`hykl_check`.  The reduction identity is
``Tr_out(H0 J(P)) = (rho_bar - R)^T`` with ``R = sum_k p_k P_k rho_k``, so
the Hermiticity defects of both formulations agree exactly (transposition
preserves spectral norm) and the block structure of ``H0 - 1 (x) Z``
makes its smallest eigenvalue ``min_j lambda_min(Herm(R) - p_j rho_j)``;
the two verdicts therefore use identical defect numbers and identical
relative scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .choi import ChoiOp, Povm
from .linalg import (
    TOL,
    DimensionMismatchError,
    HermOp,
    Tolerances,
    _dagger,
    _dist_to_psd,
    _herm,
    _min_eig,
    kron,
    partial_trace,
    spectral_norm,
)
from .objectives import Ensemble, ObjectiveSpec, SubgradResult, evaluate

__all__ = [
    "VERDICT_OPTIMAL",
    "VERDICT_NEAR",
    "VERDICT_NOT",
    "Certificate",
    "HyklReport",
    "certify",
    "certify_objective",
    "subopt_bound",
    "hykl_check",
]

VERDICT_OPTIMAL = "CertifiedOptimal"
VERDICT_NEAR = "CertifiedNearOptimal"
VERDICT_NOT = "NotCertified"


@dataclass(frozen=True)
class Certificate:
    """Outcome of the two-condition optimality check at a channel.

    ``z`` is the Hermitian part of ``Tr_out(H J)`` and ``herm_defect`` the
    spectral norm of its anti-Hermitian residue ``Tr_out(HJ) - Tr_out(HJ)^†``.
    ``min_eig`` is the smallest eigenvalue of ``Herm(H - 1 (x) Tr_out(HJ))``,
    from the same ``eigh`` that gives ``epsilon``.
    ``epsilon`` and ``bound = epsilon * dim_in`` are always populated (they
    are ~0 on success); both are ``math.inf`` when no sound bound exists
    because the supplied direction was not a genuine subgradient element.
    ``scale = 1 + ||H||`` is the relative scale the verdict thresholds used.
    """

    verdict: str
    z: HermOp
    herm_defect: float
    min_eig: float
    epsilon: float
    bound: float
    scale: float


@dataclass(frozen=True)
class HyklReport:
    """Measurement-optimality conditions evaluated on the input space."""

    optimal: bool
    r: HermOp
    herm_defect: float
    min_eigs: tuple[float, ...]
    scale: float


def _residuals(h: np.ndarray, j: np.ndarray, dims: tuple[int, int]) -> list[tuple]:
    """``(Tr_out(HJ), min_eig, epsilon)`` for each slice of ``(B, n, n)``
    stacks of ``H`` and ``J``.

    One ``eigh`` of ``Herm(H - 1 (x) Tr_out(HJ))`` gives ``min_eig`` and
    ``epsilon``.  Each slice gets the bits it gets alone, so :func:`certify`
    (a stack of one) and the solver (a stack of iterates) agree.  The raw
    partial trace is returned as is: only :func:`certify` reports its
    Hermiticity defect and Hermitian part, and the scale ``1 + ||H||``; the
    solver skips their cost, and reads the scale only when its convergence
    test needs it.
    """
    z_raw = partial_trace(h @ j, dims)
    epsilon, _, min_eig = _dist_to_psd(h - kron(np.eye(dims[0]), z_raw))
    return list(zip(z_raw, min_eig.tolist(), epsilon.tolist()))


def _within_tol(herm_defect: float, min_eig: float, scale: float, tol: Tolerances,
                factor: float = 1.0) -> bool:
    """Both defects within ``factor`` times their tolerances at ``scale``: the
    verdict of ``certify`` and ``hykl_check``, and the harness's hard fail negated."""
    return (herm_defect <= factor * tol.tau_herm * scale
            and min_eig >= -factor * tol.tau_psd * scale)


def certify(h: HermOp, j: ChoiOp, tol: Tolerances = TOL) -> Certificate:
    """Check the exact optimality conditions for ``H`` at ``J``.

    Trusts the caller that ``H`` is a subgradient element of the objective
    at ``J``; only the two structural conditions are evaluated.  The verdict
    is CertifiedOptimal when both hold within relative tolerances and
    CertifiedNearOptimal otherwise (NotCertified is reserved for callers
    that know the direction is not a subgradient, see
    :func:`certify_objective`).
    """
    if h.dim != j.op.dim:
        raise DimensionMismatchError(f"H dim {h.dim} != Choi dim {j.op.dim}")
    ((z_raw, min_eig, epsilon),) = _residuals(h.mat[None], j.mat[None], (j.dim_out, j.dim_in))
    scale = 1.0 + h.norm()
    herm_defect = spectral_norm(z_raw - _dagger(z_raw))
    verdict = VERDICT_OPTIMAL if _within_tol(herm_defect, min_eig, scale, tol) else VERDICT_NEAR
    # an elementwise Hermitian z_raw goes to HermOp as it is, which stores the
    # same bits as HermOp(_herm(z_raw)) and holds it also where the sum overflows
    z = HermOp(z_raw if herm_defect == 0.0 else _herm(z_raw))
    return Certificate(verdict, z, herm_defect, min_eig, epsilon, epsilon * j.dim_in, scale)


def certify_objective(
    spec: ObjectiveSpec, j: ChoiOp, tol: Tolerances = TOL
) -> tuple[SubgradResult, Certificate]:
    """Evaluate an objective family at ``J`` and certify with its subgradient.

    Downgrades the verdict to NotCertified (and the bound to the infinite
    sentinel where unsound) when the objective reports an infinite value or
    an empty subdifferential; a failed image-inclusion condition also blocks
    the optimal verdict but keeps the finite bound, which remains sound.
    """
    res = evaluate(spec, j, tol)
    cert = certify(res.h, j, tol)
    if not res.valid_subgradient:
        cert = replace(cert, verdict=VERDICT_NOT, epsilon=math.inf, bound=math.inf)
    elif not res.inclusion_ok:
        cert = replace(cert, verdict=VERDICT_NOT)
    return res, cert


def subopt_bound(h: HermOp, j: ChoiOp, tol: Tolerances = TOL) -> float:
    """Certified upper bound on ``f(J) - inf f`` for a subgradient element ``H``."""
    return certify(h, j, tol).bound


def hykl_check(ens: Ensemble, p: Povm, tol: Tolerances = TOL) -> HyklReport:
    """Measurement-optimality conditions for minimum-error discrimination.

    Computes ``R = sum_k p_k P_k rho_k``, its Hermiticity defect, and the
    smallest eigenvalue of ``Herm(R) - p_j rho_j`` for every outcome; the
    measurement is optimal iff the defect vanishes and all those operators
    are PSD, within the same relative tolerances the Choi-side certifier
    uses (scale ``1 + max_k ||rho_bar - p_k rho_k||``).
    """
    if p.dim != ens.dim:
        raise DimensionMismatchError(f"Povm dim {p.dim} != ensemble dim {ens.dim}")
    if p.outcomes != ens.outcomes:
        raise DimensionMismatchError(
            f"Povm has {p.outcomes} outcomes, ensemble has {ens.outcomes}"
        )
    d = ens.dim
    r_raw = np.zeros((d, d), dtype=np.complex128)
    for pk, povm_el, state in zip(ens.probs, p.elements, ens.states):
        r_raw += pk * (povm_el.mat @ state.mat)
    herm_defect = spectral_norm(r_raw - r_raw.conj().T)
    r = HermOp(_herm(r_raw))
    weighted = ens.probs[:, None, None] * np.stack([state.mat for state in ens.states])
    min_eigs = tuple(_min_eig(r.mat - weighted).tolist())
    scale = 1.0 + max(spectral_norm(ens.mean() - weighted).tolist())
    optimal = _within_tol(herm_defect, min(min_eigs), scale, tol)
    return HyklReport(optimal, r, herm_defect, min_eigs, scale)
