import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancert.choi import (
    BipartiteState,
    ChoiOp,
    depolarizing_choi,
    eval_map_apply,
    identity_choi,
    q2c_choi,
)
from chancert.linalg import ROUNDING, TOL, HermOp, Tolerances, spectral_norm
from chancert.objectives import (
    Ensemble,
    FidelityObjective,
    FidelitySquaredObjective,
    InvalidEnsembleError,
    LinearObjective,
    RelativeEntropyObjective,
    TraceDistanceObjective,
    _prepared,
    discrimination_objective,
    evaluate,
)
from chancert.solvers import helstrom_povm, random_channel_choi
from conftest import (
    THRESHOLD_FACTORS,
    counted_calls,
    counted_checks,
    outcome,
    rand_density,
    rand_herm,
    rand_pure,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)

HELSTROM_ERR = 0.14644660940672627  # (1 - 1/sqrt(2)) / 2


def _helstrom_ensemble():
    plus = np.full((2, 2), 0.5)
    return Ensemble((0.5, 0.5), (HermOp(np.diag([1.0, 0.0])), HermOp(plus)))


def _pair_spec(kind, rho, sigma, d_sys, d_env, d_out=None):
    r = BipartiteState(HermOp(rho), d_sys, d_env)
    s = BipartiteState(HermOp(sigma), d_out or d_sys, d_env)
    return kind(r, s)


def _mix(j, d_in, d_out, alpha=0.2):
    dep = depolarizing_choi(d_in, d_out)
    return ChoiOp(HermOp((1 - alpha) * j.mat + alpha * dep.mat), d_out, d_in)


# relative-entropy targets of rank 1 and 2, drawn on an output space wider
# than the input so that the output need not have full rank either
RANK_DEFICIENT = {"re-pure": 1, "re-rank2": 2}


def _rand_spec(family, seed, dims=None):
    d_in, d_out, d_env = dims or ((2, 3, 2) if family in RANK_DEFICIENT else (2, 2, 2))
    rng = np.random.default_rng(seed)
    if family == "linear":
        return LinearObjective(HermOp(rand_herm(d_out * d_in, rng)), d_out, d_in)
    if family == "fidsq":
        m = 2
        probs = rng.dirichlet(np.ones(m))
        return FidelitySquaredObjective(
            tuple(float(p) for p in probs),
            tuple(HermOp(rand_density(d_in, rng)) for _ in range(m)),
            tuple(HermOp(rand_density(d_out, rng)) for _ in range(m)),
        )
    kind = {
        "fid": FidelityObjective,
        "td": TraceDistanceObjective,
        "re": RelativeEntropyObjective,
        "re-pure": RelativeEntropyObjective,
        "re-rank2": RelativeEntropyObjective,
    }[family]
    rho = rand_density(d_in * d_env, rng)
    n = d_out * d_env
    if family in RANK_DEFICIENT:
        r = RANK_DEFICIENT[family]
        sigma = sum(rand_pure(n, rng) for _ in range(r)) / r
    else:
        sigma = rand_density(n, rng)
    return _pair_spec(kind, rho, sigma, d_in, d_env, d_out)


# ---------------------------------------------------------------- ensembles


def test_ensemble_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidEnsembleError):
        Ensemble((0.7, 0.7), (HermOp(rand_density(2, rng)), HermOp(rand_density(2, rng))))
    with pytest.raises(InvalidEnsembleError):
        Ensemble((0.5, 0.5), (HermOp(np.diag([2.0, 0.0])), HermOp(rand_density(2, rng))))
    with pytest.raises(InvalidEnsembleError):
        Ensemble((1.2, -0.2), (HermOp(rand_density(2, rng)), HermOp(rand_density(2, rng))))


def _seed_check_density(m, what, tol=TOL):
    """The seed code's density check: exact spectral norm, always."""
    low = float(np.min(np.linalg.eigvalsh(m)))
    if low < -tol.tau_psd * (1.0 + float(np.linalg.norm(m, 2))):
        raise InvalidEnsembleError(f"{what} is not PSD (min eigenvalue {low:.3e})")
    tr = float(np.real(np.trace(m)))
    if abs(tr - 1.0) > tol.tau_num * 10:
        raise InvalidEnsembleError(f"{what} has trace {tr!r}, expected 1")


@pytest.mark.parametrize("factor", THRESHOLD_FACTORS)
def test_density_check_decision_matches_exact_formula(factor):
    # diag(1 + c, -c): min eigenvalue -c against tau_psd * (2 + c)
    c = 2.0 * factor * TOL.tau_psd / (1.0 - factor * TOL.tau_psd)
    m = np.diag([1.0 + c, -c])
    want = outcome(_seed_check_density, m, "ensemble state 0")
    assert (want is None) == (factor < 1.0)
    assert outcome(Ensemble, (1.0,), (HermOp(m),)) == want


def test_ensemble_mean():
    ens = _helstrom_ensemble()
    want = 0.5 * np.diag([1.0, 0.0]) + 0.5 * np.full((2, 2), 0.5)
    assert spectral_norm(ens.mean() - want) <= 1e-15


# ----------------------------------------------- discrimination as a linear


@given(seeds, st.sampled_from([2, 3]), st.sampled_from([2, 3]))
@settings(max_examples=50)
def test_discrimination_error_identity(seed, d, m):
    """1 - sum_k p_k tr(P_k rho_k) must equal the linear evaluation exactly."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(m))
    states = tuple(HermOp(rand_density(d, rng)) for _ in range(m))
    ens = Ensemble(tuple(float(p) for p in probs), states)
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    els = [np.zeros((d, d), dtype=complex) for _ in range(m)]
    for k in range(d):
        els[k % m] += np.outer(u[:, k], u[:, k].conj())
    from chancert.choi import Povm

    p = Povm(tuple(HermOp(e) for e in els))
    h0 = discrimination_objective(ens)
    err_direct = 1.0 - sum(
        pk * np.real(np.trace(e.mat @ s.mat))
        for pk, e, s in zip(ens.probs, p.elements, ens.states)
    )
    err_linear = evaluate(LinearObjective(h0, m, d), q2c_choi(p)).value
    assert abs(err_direct - err_linear) <= 1e-12


def test_helstrom_value_via_linear_objective():
    ens = _helstrom_ensemble()
    povm, err = helstrom_povm(ens)
    h0 = discrimination_objective(ens)
    res = evaluate(LinearObjective(h0, 2, 2), q2c_choi(povm))
    assert res.value == pytest.approx(HELSTROM_ERR, abs=1e-14)
    assert err == pytest.approx(HELSTROM_ERR, abs=1e-14)


# ------------------------------------------------------- subgradient checks


@pytest.mark.parametrize("family", ["linear", "fid", "fidsq", "td", "re", "re-pure", "re-rank2"])
@given(seed=seeds)
@settings(max_examples=40)
def test_subgradient_inequality(family, seed):
    """f(J') - f(J) >= <H(J), J' - J> - tol for every objective family.

    This pins the overall sign convention of every subgradient: flipping
    the sign of H in any family makes this fail immediately and massively.
    """
    spec = _rand_spec(family, seed)
    d_out, d_in = spec.dims
    rng = np.random.default_rng(seed + 77)
    j1 = _mix(random_channel_choi(d_in, d_out, rng), d_in, d_out)
    j2 = _mix(random_channel_choi(d_in, d_out, rng), d_in, d_out)
    r1 = evaluate(spec, j1)
    r2 = evaluate(spec, j2)
    if not (r1.valid_subgradient and math.isfinite(r2.value)):
        return  # no usable subgradient at j1 (measure-zero for these draws)
    pairing = float(np.real(np.vdot(r1.h.mat, j2.mat - j1.mat)))
    scale = 1.0 + r1.h.norm()
    assert r2.value - r1.value >= pairing - 1e-8 * scale


def test_trace_distance_sign_regression():
    """The flipped-sign direction violates the subgradient inequality.

    Guards the single most consequential convention in the package: with
    H built as +adj(Y) instead of -adj(Y), random channel pairs violate
    the defining inequality at O(1) magnitude.
    """
    violations = 0
    for seed in range(40):
        spec = _rand_spec("td", seed)
        rng = np.random.default_rng(seed + 77)
        j1 = _mix(random_channel_choi(2, 2, rng), 2, 2)
        j2 = _mix(random_channel_choi(2, 2, rng), 2, 2)
        r1 = evaluate(spec, j1)
        r2 = evaluate(spec, j2)
        flipped = -r1.h.mat
        pairing = float(np.real(np.vdot(flipped, j2.mat - j1.mat)))
        if r2.value - r1.value < pairing - 1e-8 * (1 + spectral_norm(flipped)):
            violations += 1
    assert violations > 10  # the wrong sign fails broadly, not marginally


@pytest.mark.parametrize("family", ["fid", "fidsq", "re", "re-pure", "re-rank2"])
@given(seed=seeds)
@settings(max_examples=25)
def test_gradient_matches_finite_difference(family, seed):
    spec = _rand_spec(family, seed)
    d_out, d_in = spec.dims
    rng = np.random.default_rng(seed + 13)
    j = _mix(random_channel_choi(d_in, d_out, rng), d_in, d_out, alpha=0.35)
    res = evaluate(spec, j)
    if not res.exact_gradient:
        return
    # feasible direction: Hermitian with vanishing output-partial-trace
    z = rand_herm(d_out * d_in, rng)
    from chancert.linalg import partial_trace

    corr = partial_trace(z, (d_out, d_in)) / d_out
    z = z - np.kron(np.eye(d_out), corr)
    z = z / spectral_norm(z)
    t = 1e-6
    jp = ChoiOp(HermOp(j.mat + t * z), d_out, d_in)
    jm = ChoiOp(HermOp(j.mat - t * z), d_out, d_in)
    fd = (evaluate(spec, jp).value - evaluate(spec, jm).value) / (2 * t)
    want = float(np.real(np.vdot(res.h.mat, z)))
    assert fd == pytest.approx(want, abs=1e-5 * (1 + abs(want)))


# ------------------------------------------------------------ pinned values


def test_fidelity_self_map_value():
    rng = np.random.default_rng(3)
    rho = rand_density(4, rng)
    spec = _pair_spec(FidelityObjective, rho, rho, 2, 2)
    res = evaluate(spec, identity_choi(2))
    assert res.value == pytest.approx(-1.0, abs=1e-12)
    assert res.exact_gradient and res.valid_subgradient and res.inclusion_ok


def test_rel_entropy_self_map_value():
    rng = np.random.default_rng(4)
    rho = rand_density(4, rng)
    j = random_channel_choi(2, 2, rng)
    sigma = eval_map_apply(BipartiteState(HermOp(rho), 2, 2), j)
    spec = _pair_spec(RelativeEntropyObjective, rho, sigma, 2, 2)
    res = evaluate(spec, j)
    assert abs(res.value) <= 1e-10
    assert res.valid_subgradient


def test_trace_distance_orthogonal_value():
    # identity channel on |0><0| vs target |1><1|: the distance is exactly 2
    spec = _pair_spec(TraceDistanceObjective, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 2, 1)
    res = evaluate(spec, identity_choi(2))
    assert res.value == pytest.approx(2.0, abs=1e-14)


def test_rel_entropy_pinned_log2():
    # constant-output channel to I/2 against target |1><1|
    j = ChoiOp(HermOp(np.kron(np.eye(2) / 2.0, np.eye(2))), 2, 2)
    spec = _pair_spec(RelativeEntropyObjective, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 2, 1)
    res = evaluate(spec, j)
    assert res.value == pytest.approx(math.log(2.0), abs=1e-12)


def test_rel_entropy_infinite_on_support_escape():
    # identity channel sends |0><0| to itself; D(|1><1| || |0><0|) = inf
    spec = _pair_spec(RelativeEntropyObjective, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 2, 1)
    res = evaluate(spec, identity_choi(2))
    assert res.value == math.inf
    assert not res.valid_subgradient


def _identity_value(kind, sigma, rho):
    """``evaluate`` at the identity channel with ENV 1: ``-F(sigma, rho)`` for
    the fidelity, ``D(sigma || rho)`` for the relative entropy."""
    d = rho.shape[0]
    return evaluate(_pair_spec(kind, rho, sigma, d, 1), identity_choi(d)).value


E0, E1, PLUS, HALF = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.full((2, 2), 0.5), np.eye(2) / 2


@pytest.mark.parametrize("kind,sigma,rho,want", [
    (FidelityObjective, E0, E1, 0.0),  # orthogonal pure states
    # pure |0> against pure |+>: overlap 1/2, so root fidelity is 1/sqrt(2)
    (FidelityObjective, E0, PLUS, -1.0 / math.sqrt(2.0)),
    (RelativeEntropyObjective, E1, HALF, math.log(2.0)),
    (RelativeEntropyObjective, E0, np.eye(2), 0.0),
    (RelativeEntropyObjective, np.zeros((2, 2)), HALF, 0.0),  # D(0 || tau) = 0
    (RelativeEntropyObjective, np.zeros((2, 2)), np.zeros((2, 2)), 0.0),  # also for tau = 0
    (RelativeEntropyObjective, HALF, E1, math.inf),  # support escapes
    (RelativeEntropyObjective, E0, PLUS, math.inf),
], ids=["fid-orthogonal", "fid-plus", "re-log2", "re-identity", "re-zero", "re-zero-output",
        "re-escape", "re-plus"])
def test_identity_channel_pinned_values(kind, sigma, rho, want):
    value = _identity_value(kind, sigma, rho)
    if math.isinf(want):
        assert value == want
    else:
        assert value == pytest.approx(want, abs=1e-12)


@given(seeds, st.sampled_from([2, 3, 4, 5]))
def test_fidelity_basics(seed, d):
    rng = np.random.default_rng(seed)
    p = rand_density(d, rng)
    q = rand_density(d, rng)

    def fid(a, b):
        return -_identity_value(FidelityObjective, a, b)

    f = fid(p, q)
    # self-fidelity error grows with the condition number of the draw (the
    # square-root step loses ~cond * eps); 1e-8 covers cond up to ~1e8
    assert fid(p, p) == pytest.approx(1.0, abs=1e-8)
    assert f == pytest.approx(fid(q, p), abs=1e-10)
    assert -1e-12 <= f <= 1.0 + 1e-8
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    assert fid(u @ p @ u.conj().T, u @ q @ u.conj().T) == pytest.approx(f, abs=1e-10)


@given(seeds, st.sampled_from([2, 3, 4, 5]))
def test_rel_entropy_properties(seed, d):
    rng = np.random.default_rng(seed)
    p = rand_density(d, rng)
    q = rand_density(d, rng)
    assert _identity_value(RelativeEntropyObjective, p, p) == pytest.approx(0.0, abs=1e-10)
    assert _identity_value(RelativeEntropyObjective, p, q) >= -1e-10
    # a pure state's image lies in that of any PSD sum containing it
    pure = rand_pure(d, rng)
    assert math.isfinite(_identity_value(RelativeEntropyObjective, pure, pure + q))


# ------------------------------------------------------ witness diagnostics


@given(seeds)
@settings(max_examples=40)
def test_trace_distance_witness_is_dual_optimal(seed):
    spec = _rand_spec("td", seed)
    rng = np.random.default_rng(seed + 5)
    j = _mix(random_channel_choi(2, 2, rng), 2, 2)
    tau = eval_map_apply(spec.rho, j)
    _, y, _, valid, _, _ = spec._terms(spec.sigma, tau, TOL)
    assert valid  # trace distance always returns one
    d = spec.sigma.mat - tau
    d = (d + d.conj().T) / 2.0
    assert spectral_norm(y) <= 1.0 + 1e-12
    trace_norm = float(np.sum(np.abs(np.linalg.eigvalsh(d))))
    assert float(np.real(np.vdot(y, d))) == pytest.approx(trace_norm, abs=1e-10)


def test_trace_distance_exactness_flag():
    rng = np.random.default_rng(9)
    rho = rand_density(4, rng)
    j = random_channel_choi(2, 2, rng)
    sigma = eval_map_apply(BipartiteState(HermOp(rho), 2, 2), j)
    spec = _pair_spec(TraceDistanceObjective, rho, sigma, 2, 2)
    res = evaluate(spec, j)  # difference operator is exactly zero
    assert res.valid_subgradient and not res.exact_gradient
    assert res.value <= 1e-12


def test_fidelity_empty_subdifferential():
    # channel output orthogonal to the target's support: root-fidelity is
    # not subdifferentiable there, and the result must say so
    j = ChoiOp(HermOp(np.kron(np.diag([0.0, 1.0]), np.eye(2))), 2, 2)  # constant |1><1|
    spec = _pair_spec(FidelityObjective, np.eye(2) / 2.0, np.diag([1.0, 0.0]), 2, 1)
    res = evaluate(spec, j)
    assert not res.valid_subgradient


def test_fidelity_inclusion_flag_is_separate():
    # output |+><+| vs target |0><0|: the sandwich is PD on the target's
    # image (exact gradient) yet the image inclusion fails
    plus = np.full((2, 2), 0.5)
    j = ChoiOp(HermOp(np.kron(plus, np.eye(2))), 2, 2)  # constant channel to |+>
    spec = _pair_spec(FidelityObjective, np.eye(2) / 2.0, np.diag([1.0, 0.0]), 2, 1)
    res = evaluate(spec, j)
    assert res.valid_subgradient and res.exact_gradient
    assert not res.inclusion_ok
    assert res.inclusion_defect > 0.1


# ------------------------------------------------------------- bookkeeping


def test_objective_dims():
    spec = _rand_spec("fid", 0, (2, 3, 2))
    assert spec.dims == (3, 2)
    lin = _rand_spec("linear", 0, (3, 2, 1))
    assert lin.dims == (2, 3)


@pytest.mark.parametrize("family", ["linear", "fid", "fidsq", "td", "re"])
def test_value_floor_is_a_lower_bound(family):
    spec = _rand_spec(family, 5, (2, 3, 2))
    d_out, d_in = spec.dims
    floor = spec.value_floor()
    rng = np.random.default_rng(6)
    for k in range(20):
        j = random_channel_choi(d_in, d_out, rng, kraus_rank=1 + k % (d_in * d_out))
        assert floor <= evaluate(spec, j).value


def test_evaluate_rejects_dim_mismatch():
    spec = _rand_spec("fid", 0, (2, 2, 2))
    with pytest.raises(ValueError):
        evaluate(spec, depolarizing_choi(3, 2))


@pytest.mark.parametrize("family", ["fid", "fidsq", "td", "re", "re-rank2"])
def test_prepared_target_follows_the_tolerances(family):
    """The target's side is kept per tolerance: ``evaluate(spec, j, tol)``
    gives a fresh spec's bits whatever ``spec`` was evaluated at before."""
    coarse = Tolerances(tau_rank=0.3)  # cuts the small eigenvalues off each support
    d_out, d_in = _rand_spec(family, 2).dims
    j = _mix(random_channel_choi(d_in, d_out, np.random.default_rng(3)), d_in, d_out)

    def bits(res):
        return (res.value, res.h.mat.tobytes(), res.exact_gradient, res.inclusion_ok,
                res.inclusion_defect)

    spec = _rand_spec(family, 2)
    for tol in (coarse, TOL, coarse, TOL):
        assert bits(evaluate(spec, j, tol)) == bits(evaluate(_rand_spec(family, 2), j, tol))


# ------------------------------------------------------------- pull-backs


def _checked_pull_back(rho, w, dim_out):
    """``HermOp`` of the evaluation map's adjoint, contracted here rather than
    by :func:`eval_map_adjoint`, whose trusted path is under test: the
    public check runs on every witness."""
    dz = rho.dim_env
    wt = w.reshape(dim_out, dz, dim_out, dz)
    rt = rho.mat.conj().reshape(rho.dim_sys, dz, rho.dim_sys, dz)
    n = dim_out * rho.dim_sys
    return HermOp(np.einsum("aubv,jukv->ajbk", wt, rt).reshape(n, n))


def _witness_and_checked_pull_back(spec, j, tol=TOL):
    """``W = -g`` at ``j`` and its checked pull-back, or the error it raises."""
    rho, target = _prepared(spec, tol)
    w = -spec._terms(target, eval_map_apply(rho, j), tol)[1]
    error = outcome(_checked_pull_back, rho, w, j.dim_out)
    return w, error or _checked_pull_back(rho, w, j.dim_out)


@given(st.sampled_from(["fid", "td", "re"]),
       st.sampled_from([(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3)]), seeds)
@settings(max_examples=40)
def test_trusted_pull_backs_are_the_checked_ones(family, dims, seed):
    """The pull-back skips its check exactly when ``W`` equals ``W^dagger``
    elementwise and the rounding bound fits under ``tau_herm``, and has the
    bits of the checked pull-back either way."""
    d_in, d_out, d_env = dims
    spec = _rand_spec(family, seed, dims)
    j = _mix(random_channel_choi(d_in, d_out, np.random.default_rng(seed + 1)), d_in, d_out)
    w, want = _witness_and_checked_pull_back(spec, j)
    bound = 2 * ROUNDING * d_env**2 * np.linalg.norm(w) * np.linalg.norm(spec.rho.mat)
    with pytest.MonkeyPatch.context() as mp:
        trusted = counted_calls(mp, HermOp, "_trusted")
        got = evaluate(spec, j).h
    # the bound holds for states, so W^dagger == W decides
    assert bound <= TOL.tau_herm
    assert len(trusted) == int((w == w.conj().T).all())
    assert got.mat.tobytes() == want.mat.tobytes()
    assert not got.mat.flags.writeable


@pytest.mark.parametrize("dims", [(2, 3, 2), (2, 2, 3), (3, 3, 3)])
def test_trace_distance_evaluate_validates_nothing(dims, monkeypatch):
    """The sign witness is elementwise Hermitian at every size, so a
    trace-distance ``evaluate`` builds its pull-back trusted, with the bits of
    the checked one, also where ``d_out * d_env`` is not a multiple of 4."""
    d_in, d_out, d_env = dims
    spec = _rand_spec("td", 7, dims)
    j = _mix(random_channel_choi(d_in, d_out, np.random.default_rng(8)), d_in, d_out)
    checked = counted_checks(monkeypatch, HermOp)
    got = evaluate(spec, j).h
    assert checked == []
    assert got.mat.tobytes() == _witness_and_checked_pull_back(spec, j)[1].mat.tobytes()


def test_pull_back_of_a_large_state_is_checked(monkeypatch):
    """``||rho||_F = 1e12`` puts the rounding bound above ``tau_herm``: the
    public check runs, with the same bits."""
    spec = _rand_spec("td", 4)
    big = TraceDistanceObjective(
        BipartiteState(HermOp(1e12 * spec.rho.mat), 2, 2), spec.sigma)
    j = _mix(random_channel_choi(2, 2, np.random.default_rng(5)), 2, 2)
    w, want = _witness_and_checked_pull_back(big, j)
    assert (w == w.conj().T).all()
    trusted = counted_calls(monkeypatch, HermOp, "_trusted")
    checked = counted_checks(monkeypatch, HermOp)
    got = evaluate(big, j).h
    assert not trusted and checked
    assert got.mat.tobytes() == want.mat.tobytes()


def test_pull_back_of_a_non_finite_witness_keeps_the_error(monkeypatch):
    """A witness holding ``inf`` fails the bound, and the public check raises
    the message it raised before."""
    spec = _rand_spec("td", 6)
    terms = TraceDistanceObjective._terms

    def broken(self, target, tau, tol):
        value, y, *flags = terms(self, target, tau, tol)
        y = y.copy()
        y[0, 0] = np.inf
        return (value, y, *flags)

    monkeypatch.setattr(TraceDistanceObjective, "_terms", broken)
    j = depolarizing_choi(2, 2)
    _, want = _witness_and_checked_pull_back(spec, j)
    assert want == (ValueError, "HermOp input contains non-finite entries")
    trusted = counted_calls(monkeypatch, HermOp, "_trusted")
    checked = counted_checks(monkeypatch, HermOp)
    assert outcome(evaluate, spec, j) == want
    assert not trusted and checked


@pytest.mark.parametrize("family", ["linear", "fid", "fidsq", "td", "re"])
def test_family_tags(family):
    spec = _rand_spec(family, 1)
    assert isinstance(spec.family, str) and spec.family
