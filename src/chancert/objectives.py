"""Objective families for convex channel optimization.

Each family evaluates ``f(J)`` on the Choi operator of a channel and
returns a subgradient element ``H`` alongside the value, packaged as a
:class:`SubgradResult`.  A family class owns everything that depends on
the family: ``dims`` (the channel dimensions it demands), ``_evaluate``
(value and subgradient, called through :func:`evaluate`, which checks the
dims first), ``value_floor()`` (a lower bound over all channels) and its
problem document: the JSON name ``family``, the ``gen`` name ``gen_name``,
whether it reads ``dims.env`` (``uses_env``) and ``gen --count``
(``uses_count``), ``parse`` (build the spec
from a field reader with ``op``/``ops``/``state``/``probs`` and ``tol``, which
``serialize`` supplies; returns the spec and, for ``Discrimination``, the
ensemble) and ``draw`` (random document fields as ndarrays, and a channel
when the family draws its own).  :data:`FAMILIES` lists them in ``gen``
order.  The five families:

* ``Linear`` — ``f(J) = <H0, J>`` for a fixed Hermitian ``H0``; covers
  minimum-error state discrimination, whose document family
  :class:`Discrimination` lowers to it.
* ``Fidelity`` — ``f(J) = -F(sigma, (Phi (x) 1)(rho))`` for bipartite
  states sharing an environment factor.
* ``FidelitySquaredEnsemble`` — ``f(J) = -sum_k p_k F(sigma_k, Phi(rho_k))^2``
  over an ensemble of input/target pairs with no environment.
* ``TraceDistance`` — ``f(J) = ||sigma - (Phi (x) 1)(rho)||_1``.  Its sign
  witness, at the family's or at the sign-witness harness's zero threshold,
  comes from the package's one decomposition of ``sigma - tau``.
* ``RelativeEntropy`` — ``f(J) = D(sigma || (Phi (x) 1)(rho))``, with
  ``math.inf`` as the (sentinel) value when the image condition fails.  Its
  value, image test and gradient ``-Dlog_tau[sigma]`` come from one
  eigendecomposition of ``sigma`` and one of the output ``tau``.

Whatever a family computes from the target alone (the compressed
environment and ``sqrt(sigma)`` of the fidelity families, the spectrum of
``sigma`` of the relative entropy) is prepared on the first ``evaluate`` at
a given :class:`Tolerances` and kept on the spec for that tolerance, so
later evaluations decompose only what depends on the channel.

Sign convention for subgradients: all objectives are *minimized*, and the
returned ``H`` satisfies ``f(J') - f(J) >= <H, J' - J>`` for every channel
``J'`` in the domain.  For the composed families this makes ``H`` equal to
minus the evaluation-map adjoint applied to a dual witness of the outer
convex function; for the three state-pair families one method,
``_StatePairObjective._evaluate``, applies that chain rule.  The minus sign
comes from the chain rule through ``sigma - (Phi (x) 1)(rho)`` and is
load-bearing (tests pin it via the subgradient inequality).

``exact_gradient`` marks points where the objective is differentiable and
``H`` is the gradient; ``valid_subgradient`` marks ``H`` as a genuine
member of the subdifferential.  They differ only for the trace distance,
where a spectral-degenerate difference operator still yields a valid
subgradient (any sign completion works) but not a unique gradient.  For
the fidelity families a rank-deficient sandwich means the subdifferential
is empty and both flags are false; the certifier refuses verdicts there.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import ClassVar, Union

import numpy as np

from .choi import (
    BipartiteState,
    ChoiOp,
    apply_from_choi,
    compress_environment,
    eval_map_adjoint,
    eval_map_apply,
    random_density,
)
from .linalg import (
    TOL,
    DimensionMismatchError,
    HermOp,
    Tolerances,
    _dlog_eig,
    _eigh,
    _eigvalsh,
    _herm,
    _kernel_norm,
    _min_eig,
    _psd_eigs,
    _psd_failure,
    _sign_witness,
    _support,
    kron,
    spectral_norm,
)

__all__ = [
    "InvalidEnsembleError",
    "Ensemble",
    "SubgradResult",
    "LinearObjective",
    "FidelityObjective",
    "FidelitySquaredObjective",
    "TraceDistanceObjective",
    "RelativeEntropyObjective",
    "ObjectiveSpec",
    "Discrimination",
    "FAMILIES",
    "discrimination_objective",
    "evaluate",
]


class InvalidEnsembleError(ValueError):
    """Ensemble data fails probability or density-operator validation.

    ``field`` names the field at fault, ``"probs"``, ``"states[k]"``,
    ``"inputs[k]"`` or ``"targets[k]"``, when the error is about one field;
    a document reader prefixes it with the path of the object it read.
    """

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


def _check_psd(op: HermOp, tol: Tolerances, what: str, field: str) -> None:
    low = _psd_failure(op, tol)
    if low is not None:
        raise InvalidEnsembleError(f"{what} is not PSD (min eigenvalue {low:.3e})", field)


def _check_density(op: HermOp, tol: Tolerances, k: int) -> None:
    what, field = f"ensemble state {k}", f"states[{k}]"
    _check_psd(op, tol, what, field)
    tr = float(np.real(np.trace(op.mat)))
    if abs(tr - 1.0) > tol.tau_sum:
        raise InvalidEnsembleError(f"{what} has trace {tr!r}, expected 1", field)


def _check_probs(p: np.ndarray, tol: Tolerances) -> None:
    """Reject a probability vector that is not finite, nonnegative and normalized."""
    if not np.isfinite(p).all():
        raise InvalidEnsembleError(f"probabilities are not all finite: {p.tolist()!r}", "probs")
    if np.min(p) < -tol.tau_num:
        raise InvalidEnsembleError(f"negative probability {float(np.min(p))!r}", "probs")
    if abs(float(np.sum(p)) - 1.0) > tol.tau_sum:
        raise InvalidEnsembleError(f"probabilities sum to {float(np.sum(p))!r}", "probs")


@dataclass(frozen=True)
class Ensemble:
    """Probability vector plus density operators on a common space."""

    probs: np.ndarray
    states: tuple[HermOp, ...]
    tol: InitVar[Tolerances | None] = None

    def __post_init__(self, tol: Tolerances | None) -> None:
        t = tol or TOL
        p = np.asarray(self.probs, dtype=np.float64).reshape(-1)
        states = tuple(s if isinstance(s, HermOp) else HermOp(s, t) for s in self.states)
        if p.size != len(states) or p.size == 0:
            raise InvalidEnsembleError(
                f"{p.size} probabilities for {len(states)} states"
            )
        _check_probs(p, t)
        d = states[0].dim
        for k, s in enumerate(states):
            if s.dim != d:
                raise InvalidEnsembleError("ensemble states have mixed dimensions")
            _check_density(s, t, k)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @property
    def outcomes(self) -> int:
        return len(self.states)

    def mean(self) -> np.ndarray:
        """The average state ``sum_k p_k rho_k``."""
        acc = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for p, s in zip(self.probs, self.states):
            acc += p * s.mat
        return acc


@dataclass(frozen=True)
class SubgradResult:
    """Value and subgradient element of an objective at a channel.

    ``value`` may be ``math.inf`` (relative entropy only); callers must
    never feed an infinite value back into arithmetic.
    ``inclusion_defect`` quantifies how much of the target state lives
    outside the image of the channel output; the certifier folds a failed
    inclusion into NotCertified.
    """

    value: float
    h: HermOp
    exact_gradient: bool
    valid_subgradient: bool
    inclusion_ok: bool = True
    inclusion_defect: float = 0.0


@dataclass(frozen=True)
class LinearObjective:
    """``f(J) = <H0, J>`` on channels from ``C^dim_in`` to ``C^dim_out``."""

    family: ClassVar[str] = "Linear"
    gen_name: ClassVar[str] = "linear"
    uses_env: ClassVar[bool] = False
    uses_count: ClassVar[bool] = False

    h0: HermOp
    dim_out: int
    dim_in: int

    def __post_init__(self) -> None:
        if self.h0.dim != self.dim_out * self.dim_in:
            raise DimensionMismatchError(
                f"H0 dim {self.h0.dim} != dim_out*dim_in = {self.dim_out * self.dim_in}"
            )

    @property
    def dims(self) -> tuple[int, int]:
        """Channel dimensions ``(dim_out, dim_in)`` demanded by the objective."""
        return self.dim_out, self.dim_in

    def value_floor(self) -> float:
        """``lambda_min(H0) dim_in``, since ``<H0, J> >= lambda_min Tr J``."""
        return _min_eig(self.h0.mat) * self.dim_in

    def _evaluate(self, j: ChoiOp, tol: Tolerances) -> SubgradResult:
        """Value and (constant) gradient of the linear objective ``<H0, J>``."""
        value = float(np.real(np.vdot(self.h0.mat, j.mat)))
        return SubgradResult(value, self.h0, exact_gradient=True, valid_subgradient=True)

    @classmethod
    def parse(cls, doc, dims):
        d_in, d_out, _ = dims
        return cls(doc.op("h0", d_out * d_in), d_out, d_in), None

    @staticmethod
    def draw(rng, dims, count, with_channel):
        d_in, d_out, _ = dims
        return {"h0": random_density(d_out * d_in, rng)}, None


@dataclass(frozen=True)
class _StatePairObjective:
    """Objective ``g(sigma, tau)`` of the output ``tau = (Phi (x) 1)(rho)``
    against a target ``sigma``.

    ``rho`` lives on ``in (x) env`` and ``sigma`` on ``out (x) env``; the
    environment factor is shared.  A family supplies ``_terms(target, tau,
    tol)``, which returns ``(value, g, exact, valid, inclusion_ok, defect)``
    with ``g`` minus the derivative (or a dual witness) of the value in
    ``tau``, and may override ``_prepare(tol)``, the input the map acts on
    and the ``target`` that ``_terms`` reads; both depend on the problem and
    ``tol`` only, so each is prepared once per tolerance.  :meth:`_evaluate`
    is the chain rule through the evaluation map for all of them:
    ``H = -adj(g)``.
    """

    uses_env: ClassVar[bool] = True
    uses_count: ClassVar[bool] = False

    rho: BipartiteState
    sigma: BipartiteState

    def __post_init__(self) -> None:
        if self.rho.dim_env != self.sigma.dim_env:
            raise DimensionMismatchError(
                f"environment dims differ: {self.rho.dim_env} vs {self.sigma.dim_env}"
            )
        object.__setattr__(self, "_prep", {})

    @property
    def dims(self) -> tuple[int, int]:
        """Channel dimensions ``(dim_out, dim_in)`` demanded by the objective."""
        return self.sigma.dim_sys, self.rho.dim_sys

    def _prepare(self, tol: Tolerances):
        """``(rho, sigma)``: the input the evaluation map acts on and the
        target, as given."""
        return self.rho, self.sigma

    def _evaluate(self, j: ChoiOp, tol: Tolerances) -> SubgradResult:
        """Push ``rho`` through the channel, take the family's terms and pull
        ``W = -g`` back to Choi space."""
        rho, target = _prepared(self, tol)
        value, g, exact, valid, ok, defect = self._terms(target, eval_map_apply(rho, j), tol)
        return SubgradResult(
            value,
            eval_map_adjoint(rho, -g, j.dim_out),
            exact_gradient=exact,
            valid_subgradient=valid,
            inclusion_ok=ok,
            inclusion_defect=defect,
        )

    @classmethod
    def parse(cls, doc, dims):
        d_in, d_out, d_env = dims
        return cls(doc.state("rho", d_in, d_env), doc.state("sigma", d_out, d_env)), None

    @staticmethod
    def draw(rng, dims, count, with_channel):
        d_in, d_out, d_env = dims
        rho = random_density(d_in * d_env, rng)
        return {"rho": rho, "sigma": random_density(d_out * d_env, rng)}, None


class FidelityObjective(_StatePairObjective):
    """``f(J) = -F(sigma, (Phi (x) 1)(rho))`` with a shared environment."""

    family: ClassVar[str] = "Fidelity"
    gen_name: ClassVar[str] = "fidelity"

    def value_floor(self) -> float:
        """``-sqrt(Tr sigma Tr rho)``: ``F(a, b) <= sqrt(Tr a Tr b)``, channels keep traces."""
        ts = float(np.real(np.trace(self.sigma.mat)))
        tr = float(np.real(np.trace(self.rho.mat)))
        return -math.sqrt(max(ts, 0.0) * max(tr, 0.0))

    def _prepare(self, tol: Tolerances):
        """The pair with its environment compressed to the image of
        ``Tr_sys(rho)``, so the reduced input is positive definite on the
        retained factor (value and subgradient are invariant under that
        isometric squeeze), the target as its :func:`_fidelity_target`."""
        rho, sigma = compress_environment(self.rho, self.sigma, tol)
        return rho, _fidelity_target(sigma.op, tol)

    def _terms(self, target: tuple, tau: np.ndarray, tol: Tolerances):
        """Negated fidelity between the target and the output ``tau``; the
        direction ``G / 2`` is the derivative of ``F`` in ``tau``."""
        f, g, exact, ok, defect = _fidelity_terms(target, HermOp(tau, tol), tol)
        return -f, 0.5 * g, exact, exact, ok, defect


@dataclass(frozen=True)
class FidelitySquaredObjective:
    """``f(J) = -sum_k p_k F(sigma_k, Phi(rho_k))^2`` over ensemble pairs."""

    family: ClassVar[str] = "FidelitySquaredEnsemble"
    gen_name: ClassVar[str] = "fidelity-squared"
    uses_env: ClassVar[bool] = False
    uses_count: ClassVar[bool] = True

    probs: np.ndarray
    inputs: tuple[HermOp, ...]
    targets: tuple[HermOp, ...]
    tol: InitVar[Tolerances | None] = None

    def __post_init__(self, tol: Tolerances | None) -> None:
        t = tol or TOL
        p = np.asarray(self.probs, dtype=np.float64).reshape(-1)
        ins = tuple(s if isinstance(s, HermOp) else HermOp(s, t) for s in self.inputs)
        outs = tuple(s if isinstance(s, HermOp) else HermOp(s, t) for s in self.targets)
        if not (p.size == len(ins) == len(outs)) or p.size == 0:
            raise InvalidEnsembleError("probs, inputs, targets must have equal length")
        _check_probs(p, t)
        if any(s.dim != ins[0].dim for s in ins) or any(s.dim != outs[0].dim for s in outs):
            raise InvalidEnsembleError("ensemble pair dimensions are mixed")
        for name, ops in (("input", ins), ("target", outs)):
            for k, op in enumerate(ops):
                _check_psd(op, t, f"ensemble {name} {k}", f"{name}s[{k}]")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "inputs", ins)
        object.__setattr__(self, "targets", outs)
        object.__setattr__(self, "_prep", {})

    @property
    def pairs(self):
        return tuple(zip(self.probs, self.inputs, self.targets))

    def _prepare(self, tol: Tolerances) -> tuple:
        """The :func:`_fidelity_target` of each target."""
        return tuple(_fidelity_target(sig_k, tol) for sig_k in self.targets)

    @classmethod
    def parse(cls, doc, dims):
        d_in, d_out, _ = dims
        probs, inputs = doc.probs("probs"), doc.ops("inputs", d_in)
        return cls(probs, inputs, doc.ops("targets", d_out), doc.tol), None

    @staticmethod
    def draw(rng, dims, count, with_channel):
        d_in, d_out, _ = dims
        inputs = [random_density(d_in, rng) for _ in range(count)]
        targets = [random_density(d_out, rng) for _ in range(count)]
        return {"probs": [1.0 / count] * count, "inputs": inputs, "targets": targets}, None

    @property
    def dims(self) -> tuple[int, int]:
        """Channel dimensions ``(dim_out, dim_in)`` demanded by the objective."""
        return self.targets[0].dim, self.inputs[0].dim

    def value_floor(self) -> float:
        """``-sum_k p_k Tr sigma_k Tr rho_k``, bounding each ``F_k^2`` the same way."""
        total = 0.0
        for p, rho_k, sig_k in self.pairs:
            total += p * max(float(np.real(np.trace(sig_k.mat))), 0.0) * max(
                float(np.real(np.trace(rho_k.mat))), 0.0
            )
        return -total

    def _evaluate(self, j: ChoiOp, tol: Tolerances) -> SubgradResult:
        """Negated ensemble-averaged squared fidelity.

        Squaring each block multiplies the fidelity dual direction by the
        block fidelity itself (chain rule through ``x -> x^2``), so the
        subgradient is ``H = -sum_k p_k F_k G_k (x) rho_k^T``.
        """
        d_out, d_in = self.dims
        value = 0.0
        h = np.zeros((d_out * d_in, d_out * d_in), dtype=np.complex128)
        exact = True
        ok = True
        defect = 0.0
        for p, rho_k, target in zip(self.probs, self.inputs, _prepared(self, tol)):
            tau_h = HermOp(apply_from_choi(j, rho_k.mat), tol)
            f_k, g_k, ex_k, ok_k, d_k = _fidelity_terms(target, tau_h, tol)
            value -= p * f_k * f_k
            h -= p * f_k * kron(g_k, rho_k.mat.T)
            exact = exact and ex_k
            defect = max(defect, d_k)
            ok = ok and ok_k
        return SubgradResult(
            value,
            HermOp(h, tol),
            exact_gradient=exact,
            valid_subgradient=exact,
            inclusion_ok=ok,
            inclusion_defect=defect,
        )


class TraceDistanceObjective(_StatePairObjective):
    """``f(J) = ||sigma - (Phi (x) 1)(rho)||_1`` with a shared environment."""

    family: ClassVar[str] = "TraceDistance"
    gen_name: ClassVar[str] = "trace-distance"

    def value_floor(self) -> float:
        """A trace norm is nonnegative."""
        return 0.0

    def _terms(self, sigma: BipartiteState, tau: np.ndarray, tol: Tolerances):
        """Trace distance to the output ``tau`` and the sign witness with zero
        threshold ``tau_rank * max |lambda|``.  Any such ``Y`` is a trace-norm
        dual witness, so the subgradient is always valid; it is a gradient
        only when no eigenvalue counts as zero (a kernel leaves ``Y`` free)."""
        w, _, thr, y = _sign_terms(sigma.mat, tau, tol.tau_rank)
        mags = np.abs(w)
        return float(np.sum(mags)), y, bool(np.all(mags > thr)), True, True, 0.0

    def _witness(self, j: ChoiOp, rel: float):
        """``(w, v, thr, Y, H)`` at ``j`` with ``rel`` times the problem scale
        ``max(||sigma||, ||tau||)`` as the zero threshold: the sign-witness
        harness's view, with ``Y`` pulled back."""
        tau = eval_map_apply(self.rho, j)
        scale = max(spectral_norm(self.sigma.mat), spectral_norm(tau), 1e-300)
        w, v, thr, y = _sign_terms(self.sigma.mat, tau, rel, scale)
        return w, v, thr, y, self._pull_back(y, j.dim_out)

    def _pull_back(self, y: np.ndarray, dim_out: int) -> HermOp:
        """The subgradient ``H = -adj(y)`` of a trace-norm dual witness ``y``."""
        return eval_map_adjoint(self.rho, -y, dim_out)


class RelativeEntropyObjective(_StatePairObjective):
    """``f(J) = D(sigma || (Phi (x) 1)(rho))`` with a shared environment.

    Evaluated on ``out (x) env`` as given: the environment is not compressed
    to the image of ``Tr_sys rho``, since the image test on the output
    already covers that factor.
    """

    family: ClassVar[str] = "RelativeEntropy"
    gen_name: ClassVar[str] = "relative-entropy"

    def value_floor(self) -> float:
        """``Tr sigma log(Tr sigma / Tr rho)``: the trace map does not raise ``D``."""
        ts = float(np.real(np.trace(self.sigma.mat)))
        tr = float(np.real(np.trace(self.rho.mat)))
        if ts > 0.0 and tr > 0.0:
            return ts * math.log(ts / tr)
        return 0.0

    def _prepare(self, tol: Tolerances):
        """``rho`` as given, the target as its :func:`_rel_entropy_target`."""
        return self.rho, _rel_entropy_target(self.sigma.op, tol)

    def _terms(self, target: tuple, tau: np.ndarray, tol: Tolerances):
        """Relative entropy from the target to the output ``tau``.

        Returns ``math.inf`` (with a zero direction and every flag false)
        when the target has weight outside the image of ``tau``; that also
        covers weight outside ``1 (x) im(Tr_sys rho)``, which contains the
        image of every output.  When finite, the direction is
        ``Dlog_tau[sigma]`` on the image of ``tau``, the derivative of
        ``Tr sigma log tau``; the objective is differentiable there.
        """
        value, g, defect = _rel_entropy_terms(target, HermOp(tau, tol), tol)
        if g is None:
            return math.inf, np.zeros_like(tau), False, False, False, defect
        return value, g, True, True, True, defect


ObjectiveSpec = Union[
    LinearObjective,
    FidelityObjective,
    FidelitySquaredObjective,
    TraceDistanceObjective,
    RelativeEntropyObjective,
]


def discrimination_objective(ens: Ensemble, tol: Tolerances = TOL) -> HermOp:
    """The Hermitian ``H0`` whose linear objective is the discrimination error.

    ``H0`` is block diagonal on ``C^m (x) C^d`` with blocks
    ``(rho_bar - p_k rho_k)^T``; pairing it with the Choi operator of a
    measure-and-record channel gives that measurement's error probability
    ``1 - sum_k p_k <P_k, rho_k>``.
    """
    d, m = ens.dim, ens.outcomes
    mean = ens.mean()
    h0 = np.zeros((m * d, m * d), dtype=np.complex128)
    for k, (p, s) in enumerate(zip(ens.probs, ens.states)):
        h0[k * d : (k + 1) * d, k * d : (k + 1) * d] = (mean - p * s.mat).T
    return HermOp(h0, tol)


class Discrimination:
    """Document family of minimum-error discrimination: ``dims.out`` states
    ``rho_k`` on ``C^dims.in`` with priors ``p_k``.  It parses to the
    ``Linear`` objective of :func:`discrimination_objective` over
    measure-and-record channels, keeping the :class:`Ensemble`, and draws
    a projective measurement as its channel."""

    family: ClassVar[str] = "Discrimination"
    gen_name: ClassVar[str] = "discrimination"
    uses_env: ClassVar[bool] = False
    uses_count: ClassVar[bool] = False

    @classmethod
    def parse(cls, doc, dims):
        d_in, d_out, _ = dims
        ens = Ensemble(doc.probs("probs"), doc.ops("states", d_in, count=d_out), doc.tol)
        return LinearObjective(discrimination_objective(ens, doc.tol), d_out, d_in), ens

    @staticmethod
    def draw(rng, dims, count, with_channel):
        d_in, m, _ = dims
        probs = list(rng.dirichlet(np.ones(m)))
        fields = {"probs": probs, "states": [random_density(d_in, rng) for _ in range(m)]}
        if not with_channel:
            return fields, None
        g = rng.standard_normal((d_in, d_in)) + 1j * rng.standard_normal((d_in, d_in))
        u = np.linalg.qr(g)[0]
        projectors = [np.outer(u[:, k], u[:, k].conj()) for k in range(d_in)]
        if m < d_in:
            # exactly m elements: the last one takes the surplus projectors
            projectors[m - 1:] = [sum(projectors[m - 1:])]
        projectors += [np.zeros((d_in, d_in))] * (m - len(projectors))
        return fields, {"kind": "povm", "elements": projectors}


FAMILIES = (
    LinearObjective,
    Discrimination,
    TraceDistanceObjective,
    FidelityObjective,
    RelativeEntropyObjective,
    FidelitySquaredObjective,
)


def _prepared(spec, tol: Tolerances):
    """``spec._prepare(tol)``, computed on the first call per tolerance and
    kept on the spec."""
    prep = spec._prep.get(tol)
    if prep is None:
        prep = spec._prep[tol] = spec._prepare(tol)
    return prep


def _fidelity_target(sigma: HermOp, tol: Tolerances) -> tuple:
    """What :func:`_fidelity_terms` reads of the target ``sigma``, from one
    ``eigh``: its matrix, its root ``sqrt(sigma)``, its support rank and its
    norm."""
    ws, vs = _psd_eigs(sigma)
    s = HermOp(vs @ (np.sqrt(ws)[:, None] * vs.conj().T)).mat
    # the clamped eigenvalues are ascending, so the last is ||sigma||
    return sigma.mat, s, int(np.sum(_support(ws, tol))), ws[-1]


def _fidelity_terms(
    target: tuple, tau: HermOp, tol: Tolerances
) -> tuple[float, np.ndarray, bool, bool, float]:
    """Root fidelity ``F(sigma, tau)`` of the target ``sigma`` of
    :func:`_fidelity_target`, its dual direction, whether that is a gradient,
    whether the image of ``sigma`` lies in that of ``tau``, and the
    image-inclusion defect.

    The direction is ``G = sqrt(s) (sqrt(s) t sqrt(s))^{-1/2} sqrt(s)``, the
    inverse root Moore-Penrose on the relative-cutoff support.  It is a
    gradient when the sandwiched operator is positive definite on the image
    of ``sigma`` (same support rank); otherwise the differentiability
    argument breaks down and the subdifferential is empty.  ``tau`` is
    decomposed once; the defect is the norm of ``sigma`` compressed onto the
    kernel of ``tau``, and inclusion holds when it is at most
    ``tau_rank * ||sigma||``.
    """
    sigma, s, rank, top = target
    wt, vt = _psd_eigs(tau)
    sandwich = _herm(s @ tau.mat @ s)
    # Tr sqrt of the sandwich, negative eigenvalues counted as 0
    f = float(np.sum(np.sqrt(np.maximum(_eigvalsh(sandwich), 0.0))))
    w, v = _eigh(sandwich)
    kept = _support(w, tol)
    inv_root = np.zeros_like(w)
    inv_root[kept] = 1.0 / np.sqrt(w[kept])
    g = s @ ((v * inv_root) @ v.conj().T) @ s
    defect = _kernel_norm(sigma, vt[:, ~_support(wt, tol)])
    exact = int(np.sum(kept)) == rank
    return f, _herm(g), exact, bool(defect <= tol.tau_rank * top), defect


def _sign_terms(sigma: np.ndarray, tau: np.ndarray, rel: float, scale: float | None = None):
    """Spectrum ``(w, v)`` of ``Herm(sigma - tau)``, the zero threshold
    ``rel * scale`` (``scale`` defaults to ``max |lambda|``) and the sign
    witness ``Y = sum_k sign(lambda_k) Pi_k``, with ``|lambda_k|`` at or below
    the threshold counted as 0."""
    w, v = _eigh(_herm(sigma - tau))
    if scale is None:
        # the spectrum is ascending: the largest |lambda| sits at one end
        scale = max(abs(float(w[0])), abs(float(w[-1]))) if w.size else 0.0
    thr = rel * scale
    return w, v, thr, _sign_witness(w, v, thr)


def _rel_entropy_target(sigma: HermOp, tol: Tolerances) -> tuple:
    """What :func:`_rel_entropy_terms` reads of the target ``sigma``, from one
    ``eigh``: its matrix, its norm and ``Tr sigma log sigma`` (``0 log 0`` is
    0 by convention)."""
    ws, _ = _psd_eigs(sigma)
    supp = _support(ws, tol)
    # the clamped eigenvalues are ascending, so the last is ||sigma||
    return sigma.mat, ws[-1], float(np.sum(ws[supp] * np.log(ws[supp])))


def _rel_entropy_terms(
    target: tuple, tau: HermOp, tol: Tolerances
) -> tuple[float, np.ndarray | None, float]:
    """Relative entropy ``D(sigma || tau) = Tr sigma log sigma - Tr sigma log tau``
    in nats of the target ``sigma`` of :func:`_rel_entropy_target`, its
    gradient ``Dlog_tau[sigma]`` in ``tau`` up to sign, and the
    image-inclusion defect of ``sigma`` in ``tau``: the norm of ``sigma``
    compressed onto the kernel of ``tau``.

    The value is ``math.inf``, with no gradient, when the image of ``sigma``
    is not contained in the image of ``tau`` (the defect is above
    ``tau_rank * ||sigma||``); callers must treat that as a sentinel and
    never feed it back into arithmetic.  ``log tau`` and its derivative act
    on the supported eigenpairs of ``tau``, which is decomposed once.
    """
    sigma, top, plogp = target
    wt, vt = _psd_eigs(tau)
    keep = _support(wt, tol)
    defect = _kernel_norm(sigma, vt[:, ~keep])
    if defect > tol.tau_rank * top:
        return math.inf, None, defect
    wk, vk = wt[keep], vt[:, keep]
    st = vk.conj().T @ sigma @ vk
    plogq = float(np.sum(np.log(wk) * np.real(np.diagonal(st))))
    return plogp - plogq, _herm(_dlog_eig(wk, vk, st, tol)), defect


def evaluate(spec: ObjectiveSpec, j: ChoiOp, tol: Tolerances = TOL) -> SubgradResult:
    """Evaluate any objective family at a channel."""
    d_out, d_in = spec.dims
    if (d_out, d_in) != (j.dim_out, j.dim_in):
        raise DimensionMismatchError(
            f"objective dims ({d_out}, {d_in}) != channel dims ({j.dim_out}, {j.dim_in})"
        )
    return spec._evaluate(j, tol)
