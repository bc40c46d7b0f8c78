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
    _dagger,
    _eigh,
    _fro,
    _fro_settles,
    _herm,
    _psd_failure,
    _support,
    as_array,
    partial_trace,
    spectral_norm,
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


def _assemble(cls, **fields):
    """The frozen dataclass ``cls`` holding ``fields``, without any check."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


class NotTracePreservingError(ValueError):
    """Kraus family or Choi matrix does not describe a trace-preserving map."""


class DegenerateInputError(ValueError):
    """Input state is degenerate (e.g. zero reduced state) for the operation."""


@dataclass(frozen=True)
class ChoiOp:
    """Validated Choi operator of a channel: PSD with identity partial trace.

    The PSD test is the package's one rule (``linalg._psd_failure``); the
    trace-preservation test compares ``||Tr_out J - 1||`` with ``tau_num *
    (1 + ||J||)`` and skips its SVDs when the partial-trace defect's
    Frobenius norm is at most ``tau_num / 2``, since the spectral norm never
    exceeds it (the factor 2 absorbs rounding).  ``||J||`` is computed only
    when an unsettled test needs it, and only the exact tests report numbers.

    :meth:`_shown` builds without the tests, for the channels whose tests
    the allowances of ``solvers._project_stack`` decide; its docstring
    derives them.
    """

    op: HermOp
    dim_out: int
    dim_in: int
    tol: InitVar[Tolerances | None] = None

    def __post_init__(self, tol: Tolerances | None) -> None:
        t = tol or TOL
        op = self.op if isinstance(self.op, HermOp) else HermOp(self.op, t)
        object.__setattr__(self, "op", op)
        if op.dim != self.dim_out * self.dim_in:
            raise DimensionMismatchError(
                f"Choi dim {op.dim} != dim_out*dim_in = {self.dim_out * self.dim_in}"
            )
        low = _psd_failure(op, t)
        if low is not None:
            raise ValueError(f"Choi operator not PSD: min eigenvalue {low:.3e}")
        self._check_trace(t)

    @classmethod
    def _shown(cls, op: HermOp, dim_out: int, dim_in: int) -> ChoiOp:
        """The ``ChoiOp`` of ``op``, built without any check.

        For internal builders that hold a proof that ``op`` passes every test
        of ``ChoiOp(op, dim_out, dim_in, tol)``.  ``solvers._project_stack``
        decides each from its sweep, with the allowances in its docstring,
        and builds through the public constructor when one does not fit.
        """
        return _assemble(cls, op=op, dim_out=dim_out, dim_in=dim_in)

    def _check_trace(self, t: Tolerances) -> None:
        """The trace-preservation tests, which need no decomposition unless
        the partial-trace defect is unsettled."""
        op = self.op
        tr_out = partial_trace(op.mat, (self.dim_out, self.dim_in))
        diff = tr_out - np.eye(self.dim_in)
        if not _fro_settles(diff, t.tau_num):
            defect = spectral_norm(diff)
            if defect > t.tau_num * (1.0 + op.norm()):
                raise NotTracePreservingError(
                    f"partial trace deviates from identity by {defect:.3e}"
                )
        tr = float(np.real(np.trace(op.mat)))
        if abs(tr - self.dim_in) > t.tau_sum * max(1.0, self.dim_in):
            raise NotTracePreservingError(f"trace {tr} != input dimension {self.dim_in}")

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat


@dataclass(frozen=True)
class Povm:
    """Finite positive-operator-valued measure: PSD elements summing to 1."""

    elements: tuple[HermOp, ...]
    tol: InitVar[Tolerances | None] = None

    def __post_init__(self, tol: Tolerances | None) -> None:
        t = tol or TOL
        elems = tuple(e if isinstance(e, HermOp) else HermOp(e, t) for e in self.elements)
        object.__setattr__(self, "elements", elems)
        if not elems:
            raise ValueError("Povm needs at least one element")
        d = elems[0].dim
        total = np.zeros((d, d), dtype=np.complex128)
        for e in elems:
            if e.dim != d:
                raise DimensionMismatchError("Povm elements have mixed dimensions")
            if _psd_failure(e, t) is not None:
                raise ValueError("Povm element is not PSD within tolerance")
            total = total + e.mat
        diff = total - np.eye(d)
        if not _fro_settles(diff, t.tau_sum):
            defect = spectral_norm(diff)
            if defect > t.tau_sum * max(1.0, spectral_norm(total)):
                raise ValueError(f"Povm elements sum to identity with defect {defect:.3e}")

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
    tol: InitVar[Tolerances | None] = None

    def __post_init__(self, tol: Tolerances | None) -> None:
        t = tol or TOL
        op = self.op if isinstance(self.op, HermOp) else HermOp(self.op, t)
        object.__setattr__(self, "op", op)
        if op.dim != self.dim_sys * self.dim_env:
            raise DimensionMismatchError(
                f"state dim {op.dim} != dim_sys*dim_env = {self.dim_sys * self.dim_env}"
            )
        if _psd_failure(op, t) is not None:
            raise ValueError("bipartite state is not PSD within tolerance")

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat


def choi_from_kraus(kraus, tol: Tolerances = TOL) -> ChoiOp:
    """Choi operator of the channel with the given Kraus family.

    Each Kraus operator maps the input space to the output space (shape
    ``d_out x d_in``); the family must satisfy the trace-preservation
    identity ``sum_a K_a^dagger K_a = 1`` within tolerance.
    """
    mats = [as_array(k) for k in kraus]
    if not mats:
        raise ValueError("need at least one Kraus operator")
    d_out, d_in = mats[0].shape
    acc = np.zeros((d_in, d_in), dtype=np.complex128)
    j = np.zeros((d_out * d_in, d_out * d_in), dtype=np.complex128)
    for k in mats:
        if k.shape != (d_out, d_in):
            raise DimensionMismatchError("Kraus operators have mixed shapes")
        acc += k.conj().T @ k
        vec = k.reshape(d_out * d_in)  # |a j> ordering matches kron convention
        j += np.outer(vec, vec.conj())
    diff = acc - np.eye(d_in)
    if not _fro_settles(diff, tol.tau_sum):
        defect = spectral_norm(diff)
        if defect > tol.tau_sum * max(1.0, spectral_norm(acc)):
            raise NotTracePreservingError(
                f"Kraus completeness defect {defect:.3e} exceeds tolerance"
            )
    return ChoiOp(HermOp(j, tol), d_out, d_in, tol)


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
    is block diagonal with the transposed Povm elements on the diagonal.
    """
    m, d = p.outcomes, p.dim
    j = np.zeros((m * d, m * d), dtype=np.complex128)
    for k, e in enumerate(p.elements):
        j[k * d : (k + 1) * d, k * d : (k + 1) * d] = e.mat.T
    return ChoiOp(HermOp(j, tol), m, d, tol)


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
    result is then built with :meth:`HermOp._trusted`, the bits the check
    would store; any other ``w``, a non-finite one included, is checked, and
    so is any ``w`` whose bound overflows to inf or nan.

    The check is against the package ``TOL``, not a problem's
    ``Tolerances``: it guards against a non-Hermitian witness, which no
    document tolerance should let through or reject, so the same ``w``
    passes or raises whatever a document sets.
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
        return HermOp._trusted(_herm(h))
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
    The squeezed states skip the PSD rule, which their operands passed.
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
        return _assemble(BipartiteState, op=HermOp(out, tol), dim_sys=d, dim_env=r)

    if sigma.dim_env != rho.dim_env:
        raise DimensionMismatchError("states have different environment dimensions")
    return squeeze(rho), squeeze(sigma)


def depolarizing_choi(dim_in: int, dim_out: int, tol: Tolerances = TOL) -> ChoiOp:
    """Choi operator of the channel sending everything to the maximally
    mixed output state; it is the natural interior point of the channel set."""
    j = np.eye(dim_out * dim_in, dtype=np.complex128) / dim_out
    return ChoiOp(HermOp(j, tol), dim_out, dim_in, tol)


def identity_choi(dim: int, tol: Tolerances = TOL) -> ChoiOp:
    """Choi operator of the identity channel on a ``dim``-dimensional system."""
    vec = np.eye(dim, dtype=np.complex128).reshape(dim * dim)
    return ChoiOp(HermOp(np.outer(vec, vec.conj()), tol), dim, dim, tol)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank-almost-surely random density matrix (normalized G G^dagger)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / float(np.real(np.trace(m)))
