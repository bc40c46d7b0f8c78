import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancert.certifier import (
    _residuals,
    VERDICT_NEAR,
    VERDICT_NOT,
    VERDICT_OPTIMAL,
    certify,
    certify_objective,
    hykl_check,
    subopt_bound,
)
from chancert.choi import BipartiteState, ChoiOp, Povm, depolarizing_choi, identity_choi, q2c_choi
from chancert.linalg import HermOp, _eigh, _herm, dist_to_psd, partial_trace, spectral_norm
from chancert.objectives import (
    Ensemble,
    FidelityObjective,
    LinearObjective,
    TraceDistanceObjective,
    discrimination_objective,
    evaluate,
)
from chancert.solvers import helstrom_povm, random_channel_choi, random_instance
from conftest import rand_density, rand_herm

seeds = st.integers(min_value=0, max_value=2**31 - 1)

HELSTROM_ERR = 0.14644660940672627


def _helstrom_ensemble():
    plus = np.full((2, 2), 0.5)
    return Ensemble((0.5, 0.5), (HermOp(np.diag([1.0, 0.0])), HermOp(plus)))


def _rotate(p, theta):
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return Povm(tuple(HermOp(u @ e.mat @ u.T) for e in p.elements))


def test_certified_optimal_at_helstrom_povm():
    ens = _helstrom_ensemble()
    povm, _ = helstrom_povm(ens)
    spec = LinearObjective(discrimination_objective(ens), 2, 2)
    res, cert = certify_objective(spec, q2c_choi(povm))
    assert cert.verdict == VERDICT_OPTIMAL
    assert res.value == pytest.approx(HELSTROM_ERR, abs=1e-14)
    assert cert.epsilon <= 1e-12
    assert cert.herm_defect <= 1e-12


def test_perturbed_povm_bound_covers_true_gap():
    ens = _helstrom_ensemble()
    povm, _ = helstrom_povm(ens)
    spec = LinearObjective(discrimination_objective(ens), 2, 2)
    for theta in (0.05, 0.15, 0.4):
        res, cert = certify_objective(spec, q2c_choi(_rotate(povm, theta)))
        assert cert.verdict == VERDICT_NEAR
        true_gap = res.value - HELSTROM_ERR
        assert true_gap > 0
        assert cert.bound >= true_gap - 1e-12


def test_zero_objective_certifies_any_channel():
    rng = np.random.default_rng(0)
    spec = LinearObjective(HermOp(np.zeros((4, 4))), 2, 2)
    _, cert = certify_objective(spec, random_channel_choi(2, 2, rng))
    assert cert.verdict == VERDICT_OPTIMAL
    assert cert.bound <= 1e-14


def test_constant_block_objective_certifies_any_channel():
    # H0 = 1 (x) M gives <H0, J> = tr(M) on every channel
    rng = np.random.default_rng(1)
    m = rand_herm(2, rng)
    spec = LinearObjective(HermOp(np.kron(np.eye(2), m)), 2, 2)
    res, cert = certify_objective(spec, random_channel_choi(2, 2, rng))
    assert cert.verdict == VERDICT_OPTIMAL
    assert res.value == pytest.approx(float(np.real(np.trace(m))), abs=1e-12)


@given(seeds)
@settings(max_examples=40)
def test_bound_is_sound_for_linear_objectives(seed):
    rng = np.random.default_rng(seed)
    h0 = HermOp(rand_herm(4, rng))
    spec = LinearObjective(h0, 2, 2)
    j = random_channel_choi(2, 2, rng)
    res, cert = certify_objective(spec, j)
    # compare against many random competitor channels
    for k in range(10):
        other = random_channel_choi(2, 2, np.random.default_rng(seed * 11 + k))
        competitor = float(np.real(np.vdot(h0.mat, other.mat)))
        assert res.value - competitor <= cert.bound + 1e-9 * cert.scale


@given(seeds)
@settings(max_examples=30)
def test_hykl_matches_choi_certifier(seed):
    rng = np.random.default_rng(seed)
    d, m = 2, 2
    ens = random_instance("ensemble", (d, m), seed)
    povm, _ = helstrom_povm(ens)
    if seed % 2:  # perturb half the cases
        povm = _rotate(povm, 0.2)
    rep = hykl_check(ens, povm)
    spec = LinearObjective(discrimination_objective(ens), m, d)
    _, cert = certify_objective(spec, q2c_choi(povm))
    assert rep.optimal == (cert.verdict == VERDICT_OPTIMAL)
    assert abs(rep.herm_defect - cert.herm_defect) <= 1e-10
    assert abs(min(rep.min_eigs) - cert.min_eig) <= 1e-10
    assert abs(rep.scale - cert.scale) <= 1e-10


def test_hykl_orthogonal_states_zero_error():
    ens = Ensemble((0.5, 0.5), (HermOp(np.diag([1.0, 0.0])), HermOp(np.diag([0.0, 1.0]))))
    povm = Povm((HermOp(np.diag([1.0, 0.0])), HermOp(np.diag([0.0, 1.0]))))
    rep = hykl_check(ens, povm)
    assert rep.optimal
    assert rep.herm_defect <= 1e-15
    assert min(rep.min_eigs) >= -1e-15


def test_certify_objective_folds_invalid_subgradient():
    # root-fidelity with an empty subdifferential: NotCertified, infinite bound
    j = ChoiOp(HermOp(np.kron(np.diag([0.0, 1.0]), np.eye(2))), 2, 2)
    rho = BipartiteState(HermOp(np.eye(2) / 2.0), 2, 1)
    sigma = BipartiteState(HermOp(np.diag([1.0, 0.0])), 2, 1)
    res, cert = certify_objective(FidelityObjective(rho, sigma), j)
    assert not res.valid_subgradient
    assert cert.verdict == VERDICT_NOT
    assert cert.bound == math.inf and cert.epsilon == math.inf


def test_certify_objective_folds_inclusion_failure_keeps_bound():
    plus = np.full((2, 2), 0.5)
    j = ChoiOp(HermOp(np.kron(plus, np.eye(2))), 2, 2)
    rho = BipartiteState(HermOp(np.eye(2) / 2.0), 2, 1)
    sigma = BipartiteState(HermOp(np.diag([1.0, 0.0])), 2, 1)
    res, cert = certify_objective(FidelityObjective(rho, sigma), j)
    assert res.valid_subgradient and not res.inclusion_ok
    assert cert.verdict == VERDICT_NOT
    assert math.isfinite(cert.bound)


def test_complementary_slackness_at_certified_optimum():
    """At a certified optimum, <H - 1 (x) Z, J> vanishes (dual slackness)."""
    ens = _helstrom_ensemble()
    povm, _ = helstrom_povm(ens)
    j = q2c_choi(povm)
    spec = LinearObjective(discrimination_objective(ens), 2, 2)
    res, cert = certify_objective(spec, j)
    y = res.h.mat - np.kron(np.eye(2), cert.z.mat)
    assert abs(np.vdot(y, j.mat)) <= 1e-12


def test_linear_dual_weak_duality():
    """At the Helstrom optimum ``(H0 - 1 (x) Z, Z)`` is dual feasible, so
    ``Tr Z`` is the optimal error and bounds ``<H0, J>`` for every channel."""
    ens = _helstrom_ensemble()
    povm, _ = helstrom_povm(ens)
    j = q2c_choi(povm)
    h0 = discrimination_objective(ens)
    _, cert = certify_objective(LinearObjective(h0, 2, 2), j)
    y = h0.mat - np.kron(np.eye(2), cert.z.mat)
    assert np.min(np.linalg.eigvalsh(y)) >= -1e-12
    dual = float(np.real(np.trace(cert.z.mat)))
    assert dual == pytest.approx(HELSTROM_ERR, abs=1e-12)  # tight at the optimum
    for k in range(5):
        other = random_channel_choi(2, 2, np.random.default_rng(k))
        assert dual <= float(np.real(np.vdot(h0.mat, other.mat))) + 1e-12


def test_subopt_bound_shortcut():
    rng = np.random.default_rng(5)
    h0 = HermOp(rand_herm(4, rng))
    j = random_channel_choi(2, 2, rng)
    res = evaluate(LinearObjective(h0, 2, 2), j)
    assert subopt_bound(res.h, j) == certify(res.h, j).bound


def test_certify_dim_mismatch():
    with pytest.raises(ValueError):
        certify(HermOp(np.eye(4)), depolarizing_choi(3, 2))


@given(seeds)
@settings(max_examples=30)
def test_trace_distance_certificate_scale_and_z(seed):
    rng = np.random.default_rng(seed)
    rho = BipartiteState(HermOp(rand_density(4, rng)), 2, 2)
    sigma = BipartiteState(HermOp(rand_density(4, rng)), 2, 2)
    j = random_channel_choi(2, 2, rng)
    res, cert = certify_objective(TraceDistanceObjective(rho, sigma), j)
    assert cert.scale == pytest.approx(1.0 + res.h.norm(), rel=1e-12)
    z_raw = partial_trace(res.h.mat @ j.mat, (2, 2))
    assert spectral_norm(cert.z.mat - (z_raw + z_raw.conj().T) / 2.0) <= 1e-14


def _exact_h(d_out, d_in, rng):
    """``H = D (x) 1_in``, which makes ``Tr_out(HJ)`` exactly Hermitian."""
    return np.kron(np.diag(rng.standard_normal(d_out)), np.eye(d_in))


@given(seeds, st.booleans())
@settings(max_examples=30)
def test_certify_epsilon_is_dist_to_psd_of_raw_residual(seed, exact):
    rng = np.random.default_rng(seed)
    d_out, d_in = 2, 3
    j = random_channel_choi(d_in, d_out, rng)
    h = HermOp(_exact_h(d_out, d_in, rng) if exact else rand_herm(d_out * d_in, rng))
    z_raw = partial_trace(h.mat @ j.mat, (d_out, d_in))
    residual = h.mat - np.kron(np.eye(d_out), z_raw)
    assert np.array_equal(residual, residual.conj().T) == exact
    assert certify(h, j).epsilon == dist_to_psd(residual)[0]


@pytest.mark.parametrize("kinds", ["exact", "inexact", "mixed"])
def test_stacked_residuals_match_solo_calls_bytewise(kinds):
    rng = np.random.default_rng(len(kinds))
    d_out, d_in = 2, 3
    pattern = {"exact": [True] * 4, "inexact": [False] * 4, "mixed": [True, False, False, True]}
    hs = np.stack([_exact_h(d_out, d_in, rng) if exact else rand_herm(d_out * d_in, rng)
                   for exact in pattern[kinds]])
    chans = [random_channel_choi(d_in, d_out, rng) for _ in hs]
    js = np.stack([j.mat for j in chans])
    residual = hs - np.kron(np.eye(d_out), partial_trace(hs @ js, (d_out, d_in)))
    assert [np.array_equal(r, r.conj().T) for r in residual] == pattern[kinds]
    stacked = _residuals(hs, js, (d_out, d_in))
    assert len(stacked) == len(hs)
    for k, got in enumerate(stacked):
        (solo,) = _residuals(hs[k : k + 1], js[k : k + 1], (d_out, d_in))
        for name, a, b in zip(("z_raw", "min_eig", "epsilon"), got, solo):
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        z_raw, min_eig, epsilon = got
        cert = certify(HermOp(hs[k]), chans[k])
        assert (cert.min_eig, cert.epsilon) == (min_eig, epsilon)
        # the scale is certify's own, the one the solver computes when it needs it
        assert cert.scale == 1.0 + spectral_norm(hs[k]) == 1.0 + spectral_norm(hs)[k]
        # certify derives the defect and Z from the stack's raw partial trace
        herm_defect = spectral_norm(z_raw - z_raw.conj().T)
        assert np.asarray(cert.herm_defect).tobytes() == np.asarray(herm_defect).tobytes()
        assert cert.z.mat.tobytes() == _herm(z_raw).tobytes()


@given(seeds, st.booleans())
@settings(max_examples=30)
def test_certify_min_eig_is_lowest_eigenvalue_of_raw_residual(seed, exact):
    rng = np.random.default_rng(seed)
    d_out, d_in = 2, 3
    j = random_channel_choi(d_in, d_out, rng)
    h = HermOp(_exact_h(d_out, d_in, rng) if exact else rand_herm(d_out * d_in, rng))
    z_raw = partial_trace(h.mat @ j.mat, (d_out, d_in))
    residual = _herm(h.mat - np.kron(np.eye(d_out), z_raw))
    assert certify(h, j).min_eig == _eigh(residual)[0][0]
