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
gap.  The certifier never recomputes subgradients itself — callers may
bring analytic ``H`` — while :func:`certify_objective` wires in the
``objectives`` module and downgrades the verdict when that module reports
the subgradient as untrustworthy (empty subdifferential, infinite value,
or a failed image-inclusion condition).

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
    NotPSDError,
    Tolerances,
    _dist_to_psd,
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
    "linear_dual_value",
]

VERDICT_OPTIMAL = "CertifiedOptimal"
VERDICT_NEAR = "CertifiedNearOptimal"
VERDICT_NOT = "NotCertified"


@dataclass(frozen=True)
class Certificate:
    """Outcome of the two-condition optimality check at a channel.

    ``z`` is the Hermitian part of ``Tr_out(H J)`` and ``herm_defect`` the
    spectral norm of its anti-Hermitian residue ``Tr_out(HJ) - Tr_out(HJ)^†``.
    ``min_eig`` is the smallest eigenvalue of ``Herm(H - 1 (x) Z)``.
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
    d_out, d_in = j.dim_out, j.dim_in
    z_raw = partial_trace(h.mat @ j.mat, (d_out, d_in), 0)
    herm_defect = spectral_norm(z_raw - z_raw.conj().T)
    z = HermOp((z_raw + z_raw.conj().T) / 2.0)
    y = h.mat - np.kron(np.eye(d_out), z.mat)
    min_eig = float(np.min(np.linalg.eigvalsh((y + y.conj().T) / 2.0)))
    epsilon, _ = _dist_to_psd(h.mat - np.kron(np.eye(d_out), z_raw))
    bound = epsilon * d_in
    scale = 1.0 + h.norm()
    passed = herm_defect <= tol.tau_herm * scale and min_eig >= -tol.tau_psd * scale
    verdict = VERDICT_OPTIMAL if passed else VERDICT_NEAR
    return Certificate(verdict, z, herm_defect, min_eig, epsilon, bound, scale)


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
    r = HermOp((r_raw + r_raw.conj().T) / 2.0)
    min_eigs = tuple(
        float(np.min(np.linalg.eigvalsh(r.mat - pk * state.mat)))
        for pk, state in zip(ens.probs, ens.states)
    )
    mean = ens.mean()
    scale = 1.0 + max(
        spectral_norm(mean - pk * state.mat)
        for pk, state in zip(ens.probs, ens.states)
    )
    optimal = (
        herm_defect <= tol.tau_herm * scale
        and min(min_eigs) >= -tol.tau_psd * scale
    )
    return HyklReport(optimal, r, herm_defect, min_eigs, scale)


def linear_dual_value(
    h0: HermOp, y: HermOp, z: HermOp, tol: Tolerances = TOL
) -> float:
    """Lagrange dual value ``Tr(Z)`` of a feasible pair for a linear objective.

    The pair ``(Y, Z)`` is dual feasible when ``Y`` is PSD and
    ``H0 = Y + 1 (x) Z``; then ``Tr(Z) <= <H0, J>`` for every channel ``J``
    (weak duality).  Returns ``-math.inf`` when the linear identity fails,
    since the inner infimum over unconstrained Hermitian operators diverges.
    """
    if y.dim != h0.dim:
        raise DimensionMismatchError(f"Y dim {y.dim} != H0 dim {h0.dim}")
    if h0.dim % z.dim != 0:
        raise DimensionMismatchError(f"H0 dim {h0.dim} not divisible by Z dim {z.dim}")
    low = float(np.min(np.linalg.eigvalsh(y.mat)))
    if low < -tol.tau_psd * (1.0 + y.norm()):
        raise NotPSDError(f"dual variable Y has eigenvalue {low:.3e}")
    d_out = h0.dim // z.dim
    defect = spectral_norm(h0.mat - y.mat - np.kron(np.eye(d_out), z.mat))
    if defect > tol.tau_num * (1.0 + h0.norm()):
        return -math.inf
    return float(np.real(np.trace(z.mat)))
