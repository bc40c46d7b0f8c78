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
* Functions of positive semidefinite operators (``pinv_psd``, and the
  fidelity and relative entropy that ``objectives`` builds on ``_psd_eigs``,
  ``_support`` and ``_dlog_eig``) use the Moore-Penrose convention: act on
  the image, annihilate the kernel, with the image determined by a relative
  eigenvalue cutoff ``tau_rank * max_eigenvalue``.
* ``_herm``, ``kron``, ``partial_trace``, ``_eigh``, ``_eigvalsh``,
  ``_min_eig``, ``_dist_to_psd`` and ``spectral_norm`` also take stacks
  ``(..., n, n)`` and act on each slice; scalar results become arrays of
  the leading shape.  A 2-D call gives the same bytes as before, and each
  slice of a stacked call the same bytes as the 2-D call on that slice.
* Every eigendecomposition and SVD of the package runs here, through
  ``_eigh``, ``_eigvalsh`` and ``spectral_norm``, and so do the idioms built
  on them (``_herm``, ``_min_eig``, ``_support``, ``_sign_witness``).  The
  wrappers look ``np.linalg.eigh``/``eigvalsh``/``svd`` up at call time, so a
  counter patched onto those attributes sees every call.  Each call site
  keeps its LAPACK routine: ``eigh(m)[0]`` and ``eigvalsh(m)`` differ in the
  last bits.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "TOL",
    "HermOp",
    "SpectralDecomp",
    "NotPSDError",
    "DimensionMismatchError",
    "EigDecompositionError",
    "as_array",
    "eig_herm",
    "pinv_psd",
    "spectral_norm",
    "partial_trace",
    "dist_to_psd",
    "kron",
]


class NotPSDError(ValueError):
    """Operand required to be positive semidefinite is not (within tolerance)."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class EigDecompositionError(np.linalg.LinAlgError):
    """The dense Hermitian eigensolver failed to converge.

    A ``LinAlgError``, hence a ``ValueError``: callers treat it like any
    other input the numerics cannot handle.
    """


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

    @property
    def tau_sum(self) -> float:
        """Tolerance of a normalization check: ten times ``tau_num``.

        Used where a trace, a probability vector or a sum of operators must
        equal one or the identity; such a sum gathers rounding from many
        terms.  Derived rather than a field, so problem files and
        ``replace`` see only the four tolerances.
        """
        return self.tau_num * 10


TOL = Tolerances()

# A computed eigenvalue of an n x n Hermitian matrix ``A`` lies within a
# small multiple of ``n eps ||A||`` of the exact one, and a computed sum of
# ``m`` products within ``gamma_m = m u / (1 - m u)`` (``u = eps / 2``) times
# the sum of their magnitudes, complex products included up to a factor 2
# (Higham, Accuracy and Stability of Numerical Algorithms, 2002).  The
# package's rounding allowances are ``ROUNDING`` times such counts, which
# covers those constants many times over.  A Python float, so an allowance
# that overflows (``0 * inf``) is nan, and fails its comparison, without a
# numpy warning.
ROUNDING = 64 * float(np.finfo(float).eps)


def as_array(x) -> np.ndarray:
    """Coerce ``HermOp`` or array-like input to a complex128 ndarray."""
    m = getattr(x, "mat", x)
    return np.asarray(m, dtype=np.complex128)


def _check_square(m: np.ndarray, what: str = "matrix", stacked: bool = False) -> None:
    if (m.ndim != 2 and not (stacked and m.ndim > 2)) or m.shape[-2] != m.shape[-1]:
        raise DimensionMismatchError(f"{what} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} contains non-finite entries")


def _fro(a: np.ndarray) -> float:
    """Frobenius norm, an upper bound on the spectral norm (nan or inf on
    overflow)."""
    return math.sqrt(np.vdot(a, a).real)


def _fro_settles(defect: np.ndarray, limit: float) -> bool:
    """Whether ``spectral_norm(defect) <= limit`` is already proven by
    ``||defect||_2 <= ||defect||_F``.

    ``limit`` must bound the exact check's threshold from below, up to
    rounding.  The factor 2 absorbs the rounding of the Frobenius sum and of
    the SVD, so a True answer cannot disagree with the exact comparison; a
    False answer (also on overflow) only means the exact check must run.
    """
    return 2.0 * _fro(defect) <= limit < math.inf


def _psd_failure(op: HermOp, tol: Tolerances) -> float | None:
    """``lambda_min(op)`` if it breaks the package's one PSD rule, ``lambda_min
    >= -tau_psd * (1 + ||op||)``, else None.  The scale is at least 1, so
    ``lambda_min >= -tau_psd`` passes without the norm's SVD, and the rounded
    product cannot undercut ``tau_psd`` either."""
    low = _min_eig(op.mat)
    return low if low < -tol.tau_psd and low < -tol.tau_psd * (1.0 + op.norm()) else None


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each slice of a stack."""
    return m.conj().swapaxes(-1, -2)


def _herm(m: np.ndarray) -> np.ndarray:
    """Hermitian part ``(m + m^dagger) / 2``."""
    return (m + _dagger(m)) / 2.0


def _herm_part(a: np.ndarray):
    """Hermitian part of ``a`` and whether it equals ``a`` (per slice).

    Elementwise equality holds exactly when ``spectral_norm(a - h) == 0``,
    so callers learn that the defect is zero without an SVD.
    """
    h = _herm(a)
    return h, (h == a).all(axis=(-2, -1))


@dataclass(frozen=True)
class HermOp:
    """A validated Hermitian operator.

    The stored matrix is the exact Hermitian part ``(M + M^dagger) / 2`` of
    the constructor input; construction fails if the input's Hermiticity
    defect exceeds ``tau_herm * (1 + norm)``, or if the Hermitian part
    overflows.  Both spectral norms (two SVDs) are skipped when the outcome
    is already settled:

    * the input equals its Hermitian part elementwise, so the defect is
      exactly 0 and the stored matrix is the same;
    * twice the Frobenius norm of the defect is at most
      ``tau_herm * (1 + ||H||_F / sqrt(n))``.  Since
      ``||D||_2 <= ||D||_F`` and ``||H||_2 >= ||H||_F / sqrt(n)``, the
      exact check would pass too; the factor 2 is far above the rounding
      of either computation, so the decision cannot change.

    Any other input runs the exact check, which alone reports a defect.

    Internal builders that hold a rounding bound proving the check would
    pass use :meth:`_trusted` instead: a channel of a projection sweep
    (``solvers._project_stack``) and the pull-back of an elementwise
    Hermitian witness (``choi.eval_map_adjoint``), whose docstrings derive
    the bounds.  Every other construction validates.
    """

    mat: np.ndarray
    tol: InitVar[Tolerances | None] = None

    @classmethod
    def _trusted(cls, h: np.ndarray) -> HermOp:
        """The ``HermOp`` of an input whose Hermitian part ``h = _herm(m)`` the
        caller has computed, stored read-only and without any check.

        ``HermOp(m, tol)`` would store the same bits.  The caller must hold a
        bound showing that its check passes: the Hermiticity defect of ``m``
        is below ``tau_herm``, which is at most ``tau_herm * (1 + norm)``,
        and ``h`` is finite.
        """
        op = object.__new__(cls)
        h.setflags(write=False)
        object.__setattr__(op, "mat", h)
        return op

    def __post_init__(self, tol: Tolerances | None) -> None:
        t = tol or TOL
        m = as_array(self.mat)
        _check_square(m, "HermOp input")
        with np.errstate(over="ignore", invalid="ignore"):
            h, exact = _herm_part(m)
        if not exact:
            if not np.isfinite(h).all():
                raise ValueError("matrix is too large: its Hermitian part overflows")
            diff = m - h
            if not _fro_settles(diff, t.tau_herm * (1.0 + _fro(h) / math.sqrt(m.shape[0]))):
                defect = spectral_norm(diff)
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


def _scalar(a: np.ndarray):
    """A float for the result of a 2-D call, the array for a stacked one."""
    return float(a) if a.ndim == 0 else a


def spectral_norm(m):
    """Largest singular value; works for non-Hermitian input."""
    a = as_array(m)
    if a.size == 0:
        return _scalar(np.zeros(a.shape[:-2]))
    # the LAPACK call np.linalg.norm(a, 2) makes, without its axis handling
    return _scalar(np.linalg.svd(a, compute_uv=False)[..., 0])


def _eig_failure(routine: str, m: np.ndarray, exc: Exception) -> EigDecompositionError:
    return EigDecompositionError(
        f"{routine} failed to converge (dim {m.shape[-1]}, Frobenius norm {_fro(m):.3e}): {exc}"
    )


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of Hermitian ``m``."""
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise _eig_failure("eigh", m, exc) from exc


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of Hermitian ``m``."""
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise _eig_failure("eigvalsh", m, exc) from exc


def _min_eig(m: np.ndarray):
    return _scalar(_eigvalsh(m).min(axis=-1))


def _support(w: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Mask of the eigenvalues above the relative rank cutoff
    ``tau_rank * max(lambda_max, 0)``: the image of a PSD operator."""
    top = float(np.max(w)) if w.size else 0.0
    return w > tol.tau_rank * max(top, 0.0)


def _sign_witness(w: np.ndarray, v: np.ndarray, thr: float) -> np.ndarray:
    """``sum_k sign(lambda_k) |v_k><v_k|`` with ``|lambda_k| <= thr`` counted as 0.

    The Hermitian part of the product: ``(v * signs) @ v^dagger`` need not
    come out elementwise Hermitian, and its pull-back is built trusted only
    when it does (``choi.eval_map_adjoint``)."""
    signs = np.where(w > thr, 1.0, np.where(w < -thr, -1.0, 0.0))
    return _herm((v * signs) @ v.conj().T)


def _cluster_slices(w: np.ndarray, tol: Tolerances) -> list[slice]:
    """Group ascending eigenvalues whose consecutive gaps are at most
    ``tau_rank * max(1, max |lambda|)``; none for an empty spectrum."""
    if not len(w):
        return []
    threshold = tol.tau_rank * max(1.0, float(np.max(np.abs(w))))
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
    reps, projs, mults = [], [], []
    for s in _cluster_slices(w, tol):
        block = v[:, s]
        reps.append(float(np.mean(w[s])))
        projs.append(block @ block.conj().T)
        mults.append(s.stop - s.start)
    return SpectralDecomp(np.array(reps), tuple(projs), tuple(mults))


def _psd_eigs(a: HermOp) -> tuple[np.ndarray, np.ndarray]:
    """eigh with negative eigenvalues clamped to 0; it judges nothing."""
    w, v = _eigh(a.mat)
    return np.maximum(w, 0.0), v


def pinv_psd(a: HermOp, tol: Tolerances = TOL) -> HermOp:
    """Moore-Penrose pseudo-inverse of a PSD operator (inverts the image)."""
    low = _psd_failure(a, tol)
    if low is not None:
        raise NotPSDError(f"pinv_psd operand is not PSD: min eigenvalue {low:.3e}")
    w, v = _psd_eigs(a)
    inv = np.where(_support(w, tol), np.divide(1.0, w, out=np.zeros_like(w), where=w > 0), 0.0)
    return HermOp(v @ (inv[:, None] * v.conj().T))


def _dlog_eig(w: np.ndarray, v: np.ndarray, zt: np.ndarray, tol: Tolerances) -> np.ndarray:
    """``v (K o zt) v^dagger`` with ``K`` the Loewner kernel of ``log`` on the
    positive eigenvalues ``w`` (ascending) and ``zt`` the direction in the
    basis of the columns ``v``.

    With ``v`` the supported eigenvectors of a PSD ``y`` and ``zt`` a direction
    supported there, this is ``Dlog_y[z]`` on the image of ``y``.
    """
    slices = _cluster_slices(w, tol)
    reps = [float(np.mean(w[s])) for s in slices]
    logs = [math.log(r) for r in reps]  # one per cluster, reused by each pair
    k = len(reps)
    ker = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            if i == j:
                ker[i, j] = 1.0 / reps[i]
            else:
                ker[i, j] = (logs[i] - logs[j]) / (reps[i] - reps[j])
    # expand cluster kernel to one entry per eigenvector pair
    idx = np.empty(len(w), dtype=int)
    for c, s in enumerate(slices):
        idx[s] = c
    full = ker[np.ix_(idx, idx)]
    return v @ (full * zt) @ v.conj().T


def partial_trace(m, dims: tuple[int, int]) -> np.ndarray:
    """Trace out the first factor of a two-factor tensor product.

    Args:
        m: operator on ``C^{d0} (x) C^{d1}`` with kron index ordering.
        dims: ``(d0, d1)`` factor dimensions; the result lives on ``C^{d1}``.
    """
    a = as_array(m)
    d0, d1 = dims
    if a.ndim < 2 or a.shape[-2:] != (d0 * d1, d0 * d1):
        raise DimensionMismatchError(f"shape {a.shape} incompatible with dims {dims}")
    t = a.reshape(a.shape[:-2] + (d0, d1, d0, d1))
    return np.einsum("...ajak->...jk", t)


def _dist_to_psd(a: np.ndarray):
    """Distance of square ``a`` (or of each slice of a stack) to the PSD cone,
    the witness matrix (see :func:`dist_to_psd`) and the smallest eigenvalue
    of ``Herm(a)``, all from one ``eigh``; callers that need only the numbers
    skip validating the witness."""
    _check_square(a, stacked=True)
    h, exact = _herm_part(a)
    w, v = _eigh(h)
    pos = v @ (np.maximum(w, 0.0)[..., :, None] * _dagger(v))
    low = np.min(w, axis=-1) if w.shape[-1] else np.zeros(exact.shape)
    eps = np.where(-low > 0.0, -low, 0.0)  # max(0.0, -lambda_min)
    if not np.all(exact):
        eps[~exact] = spectral_norm((a - pos)[~exact])
    return _scalar(eps), pos, _scalar(low)


def dist_to_psd(m, tol: Tolerances = TOL) -> tuple[float, HermOp]:
    """Spectral-norm distance from ``m`` to the PSD cone, with the witness point.

    For Hermitian input the returned distance is exactly
    ``max(0, -lambda_min)``.  For non-Hermitian input the positive part of
    the Hermitian part is used as the feasible point, which yields a sound
    upper bound on the true distance.
    """
    eps, pos, _ = _dist_to_psd(as_array(m))
    return eps, HermOp(pos)


def kron(a, b) -> np.ndarray:
    """Kronecker product of matrices, the left factor owning the slow index;
    leading axes of stacked operands broadcast.

    Forms the same broadcast product ``np.kron`` forms, on the operands as
    given (no dtype coercion), so a 2-D result is bitwise identical to
    ``np.kron(a, b)``, signed zeros included; it skips only the n-D axis
    bookkeeping around that product.
    """
    x, y = np.asarray(a), np.asarray(b)
    (p, q), (r, s) = x.shape[-2:], y.shape[-2:]
    prod = x[..., :, None, :, None] * y[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (p * r, q * s))


def _kernel_norm(p: np.ndarray, kernel: np.ndarray) -> float:
    """Norm of ``p`` compressed onto the columns of ``kernel`` (0 when none)."""
    if kernel.shape[1] == 0:
        return 0.0
    return spectral_norm(kernel.conj().T @ p @ kernel)
