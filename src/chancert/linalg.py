"""Hermitian linear algebra primitives used throughout the package.

Conventions
-----------
* All matrices are dense ``numpy`` arrays with dtype ``complex128``; the
  helpers here coerce on entry.  Target scale is desk-sized (dims up to a
  few dozen), so everything goes through full eigendecompositions and no
  attempt is made at sparse or iterative methods.
* Tolerances are *relative*: a quantity is compared against
  ``tau * scale`` where ``scale`` is derived from the spectral norm of the
  operand (usually ``1 + norm`` so that tiny operators are not held to an
  impossible absolute standard).
* Functions of positive semidefinite operators (``pinv_psd``, ``dlog``,
  square roots inside ``fidelity``) use the Moore-Penrose convention:
  act on the image, annihilate the kernel, with the image determined by a
  relative eigenvalue cutoff ``tau_rank * max_eigenvalue``.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tolerances",
    "TOL",
    "HermOp",
    "SpectralDecomp",
    "ScalarFunction",
    "SQRT_FN",
    "LOG_FN",
    "SQUARE_FN",
    "NotPSDError",
    "DomainError",
    "SingularLogError",
    "DimensionMismatchError",
    "EigDecompositionError",
    "as_array",
    "eig_herm",
    "pinv_psd",
    "mat_sqrt",
    "mat_func_deriv",
    "dlog",
    "fidelity",
    "rel_entropy",
    "trace_norm",
    "spectral_norm",
    "partial_trace",
    "dist_to_psd",
    "kron",
    "image_inclusion",
    "image_inclusion_defect",
]


class NotPSDError(ValueError):
    """Operand required to be positive semidefinite is not (within tolerance)."""


class DomainError(ValueError):
    """An eigenvalue lies outside the domain of the requested scalar function."""


class SingularLogError(ValueError):
    """Logarithm derivative requested at a singular (rank-deficient) operator."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class EigDecompositionError(RuntimeError):
    """The dense Hermitian eigensolver failed to converge."""


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerance bundle shared by every numeric routine.

    Attributes:
        tau_herm: allowed Hermiticity defect, relative to ``1 + norm``.
        tau_psd: allowed negative-eigenvalue dip for "PSD within tolerance".
        tau_rank: relative eigenvalue cutoff for rank / image decisions and
            for clustering nearly-equal eigenvalues.
        tau_num: generic relative tolerance for affine constraint checks.
    """

    tau_herm: float = 1e-9
    tau_psd: float = 1e-8
    tau_rank: float = 1e-10
    tau_num: float = 1e-9

    def __post_init__(self):
        for name in ("tau_herm", "tau_psd", "tau_rank", "tau_num"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be a positive finite number, got {v}")


TOL = Tolerances()


def as_array(x) -> np.ndarray:
    """Coerce ``HermOp`` or array-like input to a complex128 ndarray."""
    m = getattr(x, "mat", x)
    return np.asarray(m, dtype=np.complex128)


def _check_square(m: np.ndarray, what: str = "matrix") -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{what} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{what} contains non-finite entries")


def _herm_part(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """Hermitian part ``(a + a^dagger) / 2`` and whether it equals ``a``.

    Elementwise equality holds exactly when ``spectral_norm(a - h) == 0``,
    so callers learn that the defect is zero without an SVD.
    """
    h = (a + a.conj().T) / 2.0
    return h, bool(np.array_equal(h, a))


@dataclass(frozen=True)
class HermOp:
    """A validated Hermitian operator.

    The stored matrix is the exact Hermitian part ``(M + M^dagger) / 2`` of
    the constructor input; construction fails if the input's Hermiticity
    defect exceeds ``tau_herm * (1 + norm)``, or if the Hermitian part
    overflows.  When the input already equals its Hermitian part
    elementwise, both spectral norms are skipped: the defect is then exactly
    0, so the check cannot fail and the stored matrix is the same.
    """

    mat: np.ndarray
    tol: InitVar[Tolerances | None] = None

    def __post_init__(self, tol: Tolerances | None) -> None:
        t = tol or TOL
        m = as_array(self.mat)
        _check_square(m, "HermOp input")
        with np.errstate(over="ignore", invalid="ignore"):
            h, exact = _herm_part(m)
        if not exact:
            if not np.all(np.isfinite(h)):
                raise ValueError("matrix is too large: its Hermitian part overflows")
            defect = spectral_norm(m - h)
            scale = 1.0 + spectral_norm(h)
            if defect > t.tau_herm * scale:
                raise ValueError(
                    f"matrix is not Hermitian: defect {defect:.3e} exceeds "
                    f"{t.tau_herm:.1e} * {scale:.3e}"
                )
        h.setflags(write=False)
        object.__setattr__(self, "mat", h)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def norm(self) -> float:
        return spectral_norm(self.mat)


@dataclass(frozen=True)
class SpectralDecomp:
    """Clustered spectral decomposition of a Hermitian operator.

    ``eigenvalues`` holds one representative (cluster mean) per cluster in
    ascending order; ``projectors[k]`` is the orthogonal projector onto the
    cluster's eigenspace and has rank ``multiplicities[k]``.
    """

    eigenvalues: np.ndarray
    projectors: tuple[np.ndarray, ...]
    multiplicities: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]


@dataclass(frozen=True)
class ScalarFunction:
    """Real scalar function with derivative and domain, lifted to operators."""

    name: str
    fun: Callable[[float], float]
    deriv: Callable[[float], float]
    in_domain: Callable[[float], bool]


SQRT_FN = ScalarFunction("sqrt", math.sqrt, lambda x: 0.5 / math.sqrt(x), lambda x: x > 0.0)
LOG_FN = ScalarFunction("log", math.log, lambda x: 1.0 / x, lambda x: x > 0.0)
SQUARE_FN = ScalarFunction("square", lambda x: x * x, lambda x: 2.0 * x, lambda x: True)


def spectral_norm(m) -> float:
    """Largest singular value; works for non-Hermitian input."""
    a = as_array(m)
    if a.size == 0:
        return 0.0
    # the LAPACK call np.linalg.norm(a, 2) makes, without its axis handling
    return float(np.linalg.svd(a, compute_uv=False)[0])


def trace_norm(m) -> float:
    """Sum of singular values (sum of |eigenvalues| for Hermitian input)."""
    a = as_array(m)
    h, exact = _herm_part(a)
    if exact:
        return float(np.sum(np.abs(np.linalg.eigvalsh(h))))
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigDecompositionError(
            f"eigh failed to converge (dim {m.shape[0]}, norm {spectral_norm(m):.3e}): {exc}"
        ) from exc


def _cluster_slices(w: np.ndarray, threshold: float) -> list[slice]:
    """Group ascending eigenvalues whose consecutive gaps are below threshold."""
    slices = []
    start = 0
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > threshold:
            slices.append(slice(start, i))
            start = i
    slices.append(slice(start, len(w)))
    return slices


def eig_herm(a: HermOp, tol: Tolerances = TOL) -> SpectralDecomp:
    """Spectral decomposition with eigenvalues clustered within
    ``tau_rank * max(1, norm)``."""
    w, v = _eigh(a.mat)
    thr = tol.tau_rank * max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    reps, projs, mults = [], [], []
    for s in _cluster_slices(w, thr):
        block = v[:, s]
        reps.append(float(np.mean(w[s])))
        projs.append(block @ block.conj().T)
        mults.append(s.stop - s.start)
    return SpectralDecomp(np.array(reps), tuple(projs), tuple(mults))


def _psd_eigs(a: HermOp, tol: Tolerances, what: str) -> tuple[np.ndarray, np.ndarray]:
    """eigh of an operator that must be PSD within tolerance; negatives clamped."""
    w, v = _eigh(a.mat)
    nrm = float(np.max(np.abs(w))) if w.size else 0.0
    if w.size and w[0] < -tol.tau_psd * nrm:
        raise NotPSDError(f"{what} has eigenvalue {w[0]:.3e} < -tau_psd * {nrm:.3e}")
    return np.clip(w, 0.0, None), v


def pinv_psd(a: HermOp, tol: Tolerances = TOL) -> HermOp:
    """Moore-Penrose pseudo-inverse of a PSD operator (inverts the image)."""
    w, v = _psd_eigs(a, tol, "pinv_psd operand")
    cut = tol.tau_rank * (float(np.max(w)) if w.size else 0.0)
    inv = np.where(w > cut, np.divide(1.0, w, out=np.zeros_like(w), where=w > 0), 0.0)
    return HermOp(v @ (inv[:, None] * v.conj().T))


def mat_sqrt(a: HermOp, tol: Tolerances = TOL) -> HermOp:
    """Principal square root of a PSD operator; tiny negatives are clamped to 0."""
    w, v = _psd_eigs(a, tol, "mat_sqrt operand")
    return HermOp(v @ (np.sqrt(w)[:, None] * v.conj().T))


def _loewner_kernel(
    reps: Sequence[float], fn: ScalarFunction
) -> np.ndarray:
    """Divided-difference kernel over cluster representatives."""
    k = len(reps)
    ker = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            if i == j:
                ker[i, j] = fn.deriv(reps[i])
            else:
                ker[i, j] = (fn.fun(reps[i]) - fn.fun(reps[j])) / (reps[i] - reps[j])
    return ker


def mat_func_deriv(fn: ScalarFunction, a: HermOp, z: HermOp, tol: Tolerances = TOL) -> HermOp:
    """Directional derivative of the spectral lift of ``fn`` at ``a`` along ``z``.

    Uses the divided-difference (Loewner) form on clustered eigenvalues:
    equal-cluster pairs contribute ``fn.deriv``, distinct pairs contribute
    the difference quotient.
    """
    if a.dim != z.dim:
        raise DimensionMismatchError(f"operand dims differ: {a.dim} vs {z.dim}")
    w, v = _eigh(a.mat)
    thr = tol.tau_rank * max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    slices = _cluster_slices(w, thr)
    reps = [float(np.mean(w[s])) for s in slices]
    for r in reps:
        if not fn.in_domain(r):
            raise DomainError(f"eigenvalue {r:.6e} outside domain of {fn.name}")
    ker = _loewner_kernel(reps, fn)
    # expand cluster kernel to one entry per eigenvector pair
    idx = np.empty(len(w), dtype=int)
    for c, s in enumerate(slices):
        idx[s] = c
    full = ker[np.ix_(idx, idx)]
    zt = v.conj().T @ z.mat @ v
    return HermOp(v @ (full * zt) @ v.conj().T)


def dlog(y: HermOp, z: HermOp, tol: Tolerances = TOL) -> HermOp:
    """Derivative of the operator logarithm at ``y`` (positive definite) along ``z``."""
    w = np.linalg.eigvalsh(y.mat)
    top = float(np.max(w)) if w.size else 0.0
    if top <= 0.0 or float(np.min(w)) <= tol.tau_rank * top:
        raise SingularLogError(
            f"operator is singular within tau_rank (min eig {float(np.min(w)):.3e})"
        )
    return mat_func_deriv(LOG_FN, y, z, tol)


def fidelity(p: HermOp, q: HermOp, tol: Tolerances = TOL) -> float:
    """Root fidelity between PSD operators: trace norm of ``sqrt(p) sqrt(q)``."""
    s = mat_sqrt(p, tol)
    _psd_eigs(q, tol, "fidelity operand")
    m = s.mat @ q.mat @ s.mat
    w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))))


def rel_entropy(p: HermOp, q: HermOp, tol: Tolerances = TOL) -> float:
    """Quantum relative entropy ``Tr(p log p) - Tr(p log q)`` in nats.

    Returns ``math.inf`` when the image of ``p`` is not contained in the
    image of ``q``; callers must treat that as a sentinel and never feed it
    back into arithmetic.  The ``0 log 0`` contribution is 0 by convention.
    """
    wp, vp = _psd_eigs(p, tol, "rel_entropy first operand")
    wq, vq = _psd_eigs(q, tol, "rel_entropy second operand")
    if not image_inclusion(p, q, tol):
        return math.inf
    cut_p = tol.tau_rank * (float(np.max(wp)) if wp.size else 0.0)
    cut_q = tol.tau_rank * (float(np.max(wq)) if wq.size else 0.0)
    plogp = float(np.sum(wp[wp > cut_p] * np.log(wp[wp > cut_p])))
    keep = wq > cut_q
    # Tr(p log q) summed over q's supported eigenvectors
    overlaps = np.real(np.sum(vq[:, keep].conj() * (p.mat @ vq[:, keep]), axis=0))
    plogq = float(np.sum(np.log(wq[keep]) * overlaps))
    return plogp - plogq


def partial_trace(m, dims: tuple[int, int], over: int) -> np.ndarray:
    """Partial trace of an operator on a two-factor tensor product.

    Args:
        m: operator on ``C^{d0} (x) C^{d1}`` with kron index ordering.
        dims: ``(d0, d1)`` factor dimensions.
        over: which factor to trace out, 0 (left) or 1 (right).
    """
    a = as_array(m)
    d0, d1 = dims
    if a.shape != (d0 * d1, d0 * d1):
        raise DimensionMismatchError(f"shape {a.shape} incompatible with dims {dims}")
    t = a.reshape(d0, d1, d0, d1)
    if over == 0:
        return np.einsum("ajak->jk", t)
    if over == 1:
        return np.einsum("jaka->jk", t)
    raise ValueError("over must be 0 or 1")


def _dist_to_psd(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Distance of square ``a`` to the PSD cone and the witness matrix
    (see :func:`dist_to_psd`); callers that need only the distance skip
    validating the witness."""
    _check_square(a)
    h, exact = _herm_part(a)
    w, v = _eigh(h)
    pos = v @ (np.clip(w, 0.0, None)[:, None] * v.conj().T)
    if exact:
        eps = max(0.0, -float(np.min(w))) if w.size else 0.0
    else:
        eps = spectral_norm(a - pos)
    return eps, pos


def dist_to_psd(m, tol: Tolerances = TOL) -> tuple[float, HermOp]:
    """Spectral-norm distance from ``m`` to the PSD cone, with the witness point.

    For Hermitian input the returned distance is exactly
    ``max(0, -lambda_min)``.  For non-Hermitian input the positive part of
    the Hermitian part is used as the feasible point, which yields a sound
    upper bound on the true distance.
    """
    eps, pos = _dist_to_psd(as_array(m))
    return eps, HermOp(pos)


def kron(a, b) -> np.ndarray:
    """Kronecker product with the left factor owning the slow index."""
    return np.kron(as_array(a), as_array(b))


def image_inclusion_defect(p: HermOp, q: HermOp, tol: Tolerances = TOL) -> float:
    """Norm of ``p`` compressed onto the kernel of ``q`` (0 when im p <= im q)."""
    wq, vq = _psd_eigs(q, tol, "image_inclusion second operand")
    _psd_eigs(p, tol, "image_inclusion first operand")
    cut = tol.tau_rank * (float(np.max(wq)) if wq.size else 0.0)
    kerq = vq[:, wq <= cut]
    if kerq.shape[1] == 0:
        return 0.0
    return spectral_norm(kerq.conj().T @ p.mat @ kerq)


def image_inclusion(p: HermOp, q: HermOp, tol: Tolerances = TOL) -> bool:
    """Whether the image of PSD ``p`` is contained in the image of PSD ``q``."""
    return image_inclusion_defect(p, q, tol) <= tol.tau_rank * spectral_norm(p.mat)
