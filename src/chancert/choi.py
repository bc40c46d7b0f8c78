"""Choi representations of channels, measurements, and bipartite states.

Index conventions (fixed throughout the package):

* The Choi operator of a channel from ``X`` (dim ``d_in``) to ``Y``
  (dim ``d_out``) lives on ``Y (x) X`` with the *output* factor first, so
  the flat index is ``a * d_in + j`` for output index ``a`` and input
  index ``j``.  Entrywise, ``J[(a, j), (b, k)]`` is the ``(a, b)`` entry
  of the channel applied to the matrix unit ``E_{jk}``.
* The channel action is recovered by contracting both input indices:
  ``Phi(X)[a, b] = sum_{j,k} J[(a,j),(b,k)] X[j,k]``.
* A bipartite input state lives on ``system (x) environment`` with the
  system factor first; pushing it through a channel on the system factor
  is the contraction in ``eval_map_apply``, and ``eval_map_adjoint`` is
  its adjoint with respect to the trace inner product (used to pull dual
  witnesses back to Choi space).

All partial traces and contractions are done with ``einsum`` on reshaped
four-index views; no ``d^2 x d^2`` intermediate matrices are formed.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

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
    _herm,
    _normalization_failure,
    _psd_failure,
    _support,
    as_array,
    partial_trace,
)

__all__ = [
    "NotTracePreservingError",
    "DegenerateInputError",
    "ChoiOp",
    "Povm",
    "BipartiteState",
    "choi_from_kraus",
    "apply_from_choi",
    "q2c_choi",
    "eval_map_apply",
    "eval_map_adjoint",
    "compress_environment",
    "depolarizing_choi",
    "identity_choi",
    "random_density",
]


class NotTracePreservingError(ValueError):
    """Kraus family or Choi matrix does not describe a trace-preserving map."""


class _FieldError(ValueError):
    """Input that fails validation; ``field`` names the document field at
    fault when the error is about one field, and a document reader prefixes
    it with the path of the object it read."""

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


class DegenerateInputError(ValueError):
    """Input state is degenerate (e.g. zero reduced state) for the operation."""


@dataclass(frozen=True)
class ChoiOp:
    """Validated Choi operator of a channel: PSD with identity partial trace.

    Both tests are the package's rules: ``linalg._psd_failure`` judges ``J``
    and ``linalg._normalization_failure`` judges ``Tr_out J`` against
    ``tau_num * (1 + ||J||)``.  Each computes ``||J||`` only when a cheaper
    bound does not settle it, and only the exact tests report numbers.

    ``solvers._project_stack`` builds its channels through
    ``linalg._assemble``, without the tests, which its stop test decides on
    the same bits; its docstring says how.
    """

    op: HermOp
    dim_out: int
    dim_in: int
    tol: InitVar[Tolerances] = TOL

    def __post_init__(self, tol: Tolerances) -> None:
        op = self.op
        if op.dim != self.dim_out * self.dim_in:
            raise DimensionMismatchError(
                f"Choi dim {op.dim} != dim_out*dim_in = {self.dim_out * self.dim_in}"
            )
        low = _psd_failure(op, tol)
        if low is not None:
            raise ValueError(f"Choi operator is not PSD (min eigenvalue {low:.3e})")
        defect = _normalization_failure(
            partial_trace(op.mat, (self.dim_out, self.dim_in)), op.norm, tol)
        if defect is not None:
            raise NotTracePreservingError(f"partial trace deviates from identity by {defect:.3e}")

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat


@dataclass(frozen=True)
class Povm:
    """Finite positive-operator-valued measure: PSD elements summing to 1.

    Each element passes the PSD rule, and the sum ``S`` the normalization
    rule with ``A`` the measure-and-record channel ``q2c_choi``, whose
    partial trace is ``S`` transposed and whose norm is ``max_k ||P_k||``:
    a Povm passes exactly when its channel's trace-preservation test does
    (the same formula; the sums and the norms are formed in another order).
    A failure of either rule names its field, ``"elements[k]"`` or
    ``"elements"``.
    """

    elements: tuple[HermOp, ...]
    tol: InitVar[Tolerances] = TOL

    def __post_init__(self, tol: Tolerances) -> None:
        elems = self.elements
        if not elems:
            raise ValueError("Povm needs at least one element")
        d = elems[0].dim
        total = np.zeros((d, d), dtype=np.complex128)
        for k, e in enumerate(elems):
            if e.dim != d:
                raise DimensionMismatchError("Povm elements have mixed dimensions")
            low = _psd_failure(e, tol)
            if low is not None:
                raise _FieldError(f"Povm element {k} is not PSD (min eigenvalue {low:.3e})",
                                  f"elements[{k}]")
            total = total + e.mat
        defect = _normalization_failure(total, lambda: max(e.norm() for e in elems), tol)
        if defect is not None:
            raise _FieldError(f"Povm elements sum to identity with defect {defect:.3e}",
                              "elements")

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    @property
    def outcomes(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class BipartiteState:
    """PSD operator on ``system (x) environment``; unit trace is not required."""

    op: HermOp
    dim_sys: int
    dim_env: int
    tol: InitVar[Tolerances] = TOL

    def __post_init__(self, tol: Tolerances) -> None:
        if self.op.dim != self.dim_sys * self.dim_env:
            raise DimensionMismatchError(
                f"state dim {self.op.dim} != dim_sys*dim_env = {self.dim_sys * self.dim_env}"
            )
        low = _psd_failure(self.op, tol)
        if low is not None:
            raise ValueError(f"bipartite state is not PSD (min eigenvalue {low:.3e})")

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat


def choi_from_kraus(kraus, tol: Tolerances = TOL) -> ChoiOp:
    """Choi operator of the channel with the given Kraus family.

    Each Kraus operator maps the input space to the output space (shape
    ``d_out x d_in``).  ``ChoiOp`` judges the result under ``tol``, whose
    partial trace is ``(sum_a K_a^dagger K_a)^T``: the family must meet the
    normalization rule with ``A = J``.  ``J`` itself is computed, so its
    ``HermOp`` is judged at the package ``TOL``.
    """
    mats = [as_array(k) for k in kraus]
    if not mats:
        raise ValueError("need at least one Kraus operator")
    d_out, d_in = mats[0].shape
    j = np.zeros((d_out * d_in, d_out * d_in), dtype=np.complex128)
    for k in mats:
        if k.shape != (d_out, d_in):
            raise DimensionMismatchError("Kraus operators have mixed shapes")
        vec = k.reshape(d_out * d_in)  # |a j> ordering matches kron convention
        j += np.outer(vec, vec.conj())
    return ChoiOp(HermOp(j), d_out, d_in, tol)


def apply_from_choi(j: ChoiOp, x) -> np.ndarray:
    """Apply the channel with Choi operator ``j`` to the input matrix ``x``."""
    xm = as_array(x)
    if xm.shape != (j.dim_in, j.dim_in):
        raise DimensionMismatchError(f"input shape {xm.shape} != ({j.dim_in}, {j.dim_in})")
    t = j.mat.reshape(j.dim_out, j.dim_in, j.dim_out, j.dim_in)
    return np.einsum("ajbk,jk->ab", t, xm)


def q2c_choi(p: Povm, tol: Tolerances = TOL) -> ChoiOp:
    """Choi operator of the measure-and-record channel of a Povm.

    The channel sends ``X`` to ``sum_k <P_k, X> E_{kk}``; its Choi operator
    is block diagonal with the transposed Povm elements on the diagonal;
    ``ChoiOp`` judges it under ``tol``, its computed ``HermOp`` at ``TOL``.
    """
    m, d = p.outcomes, p.dim
    j = np.zeros((m * d, m * d), dtype=np.complex128)
    for k, e in enumerate(p.elements):
        j[k * d : (k + 1) * d, k * d : (k + 1) * d] = e.mat.T
    return ChoiOp(HermOp(j), m, d, tol)


def eval_map_apply(rho: BipartiteState, j: ChoiOp) -> np.ndarray:
    """Push a bipartite state through a channel acting on its system factor.

    Contracts the Choi operator's input indices directly against the state:
    the result lives on ``output (x) environment`` and equals the channel
    (tensored with the identity on the environment) applied to ``rho``.
    """
    if rho.dim_sys != j.dim_in:
        raise DimensionMismatchError(
            f"state system dim {rho.dim_sys} != channel input dim {j.dim_in}"
        )
    jt = j.mat.reshape(j.dim_out, j.dim_in, j.dim_out, j.dim_in)
    rt = rho.mat.reshape(rho.dim_sys, rho.dim_env, rho.dim_sys, rho.dim_env)
    out = np.einsum("ajbk,jukv->aubv", jt, rt)
    dz = rho.dim_env
    return out.reshape(j.dim_out * dz, j.dim_out * dz)


def eval_map_adjoint(rho: BipartiteState, w, dim_out: int) -> HermOp:
    """Adjoint of ``eval_map_apply`` in its channel argument.

    Maps an operator ``w`` on ``output (x) environment`` to the operator
    ``H`` on ``output (x) input`` satisfying
    ``<w, eval_map_apply(rho, j)> = <H, j.mat>`` for every ``j``.  Hermitian
    input yields Hermitian output.

    Entry ``(a j, b k)`` is ``sum_{u,v} w[a u, b v] conj(rho[j u, k v])``, a
    sum of ``d_env^2`` products.  When ``w`` equals ``w^dagger`` elementwise
    the exact sum is Hermitian (so is ``rho``, a ``HermOp``), and each
    computed entry is within ``ROUNDING * d_env^2`` times the sum of the
    magnitudes of its products.  By Cauchy-Schwarz over ``(u, v)`` those sums
    have Frobenius norm at most ``||w||_F ||rho||_F``, so the computed
    matrix has a Hermiticity defect of at most ``ROUNDING * d_env^2 *
    ||w||_F * ||rho||_F`` in Frobenius norm, and the ``HermOp`` check (its
    Frobenius shortcut needs twice the defect below ``tau_herm``) passes
    when ``2 * ROUNDING * d_env^2 * ||w||_F * ||rho||_F <= tau_herm``.  The
    result is then built unchecked with ``linalg._assemble``, the bits the
    check would store; any other ``w``, a non-finite one included, is
    checked, and so is any ``w`` whose bound overflows to inf or nan.

    The result is computed, so it is judged at the package ``TOL`` (see
    :class:`~chancert.linalg.Tolerances`).
    """
    w = as_array(w)
    dz = rho.dim_env
    if w.shape != (dim_out * dz, dim_out * dz):
        raise DimensionMismatchError(
            f"witness shape {w.shape} != ({dim_out * dz}, {dim_out * dz})"
        )
    wt = w.reshape(dim_out, dz, dim_out, dz)
    rt = rho.mat.conj().reshape(rho.dim_sys, dz, rho.dim_sys, dz)
    n = dim_out * rho.dim_sys
    h = np.einsum("aubv,jukv->ajbk", wt, rt).reshape(n, n)
    if (2.0 * ROUNDING * dz**2 * _fro(w) * _fro(rho.mat) <= TOL.tau_herm
            and (w == _dagger(w)).all()):
        return _assemble(HermOp, mat=_herm(h))
    return HermOp(h)


def compress_environment(
    rho: BipartiteState, sigma: BipartiteState, tol: Tolerances = TOL
) -> tuple[BipartiteState, BipartiteState]:
    """Rotate and truncate the environment factor to the image of
    ``Tr_sys(rho)``.

    Returns the pair conjugated by the isometry built from the eigenvectors
    of the reduced environment state (descending eigenvalue order, relative
    rank cutoff).  When the reduced state already has full rank this is a
    pure basis change and the dimensions are unchanged.  The objective value
    of every state-transformation problem built from the pair is preserved.
    The squeezed states skip the PSD rule, which their operands passed;
    their computed ``HermOp`` is judged at the package ``TOL``.
    """
    red = partial_trace(rho.mat, (rho.dim_sys, rho.dim_env))
    w, v = _eigh(_herm(red))
    keep = _support(w, tol)
    if not np.any(keep):
        raise DegenerateInputError("reduced environment state has no support")
    order = np.argsort(w[keep])[::-1]
    b = v[:, keep][:, order]  # dim_env x r isometry columns
    r = b.shape[1]

    def squeeze(state: BipartiteState) -> BipartiteState:
        d = state.dim_sys
        t = state.mat.reshape(d, state.dim_env, d, state.dim_env)
        out = np.einsum("ue,aubv,vf->aebf", b.conj(), t, b).reshape(d * r, d * r)
        return _assemble(BipartiteState, op=HermOp(out), dim_sys=d, dim_env=r)

    if sigma.dim_env != rho.dim_env:
        raise DimensionMismatchError("states have different environment dimensions")
    return squeeze(rho), squeeze(sigma)


def depolarizing_choi(dim_in: int, dim_out: int) -> ChoiOp:
    """Choi operator of the channel sending everything to the maximally
    mixed output state; it is the natural interior point of the channel set."""
    j = np.eye(dim_out * dim_in, dtype=np.complex128) / dim_out
    return ChoiOp(HermOp(j), dim_out, dim_in)


def identity_choi(dim: int) -> ChoiOp:
    """Choi operator of the identity channel on a ``dim``-dimensional system."""
    vec = np.eye(dim, dtype=np.complex128).reshape(dim * dim)
    return ChoiOp(HermOp(np.outer(vec, vec.conj())), dim, dim)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank-almost-surely random density matrix (normalized G G^dagger)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / float(np.real(np.trace(m)))
