import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chancert.choi import (
    BipartiteState,
    ChoiOp,
    NotTracePreservingError,
    Povm,
    apply_from_choi,
    choi_from_kraus,
    compress_environment,
    depolarizing_choi,
    eval_map_adjoint,
    eval_map_apply,
    identity_choi,
    q2c_choi,
)
from chancert.linalg import TOL, HermOp, partial_trace, spectral_norm
from chancert.solvers import random_channel_choi
from conftest import (
    THRESHOLD_FACTORS,
    forbid_svd,
    outcome,
    rand_density,
    rand_herm,
    rand_pure,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _rand_kraus(d_in, d_out, r, rng):
    g = rng.standard_normal((r * d_out, d_in)) + 1j * rng.standard_normal((r * d_out, d_in))
    q, _ = np.linalg.qr(g)
    return [q[i * d_out : (i + 1) * d_out, :] for i in range(r)]


@given(seeds, st.sampled_from([(2, 2), (2, 3), (3, 2)]), st.integers(1, 3))
def test_choi_from_kraus_action(seed, dims, r):
    d_in, d_out = dims
    r = max(r, -(-d_in // d_out))  # stacked isometry needs r * d_out >= d_in
    rng = np.random.default_rng(seed)
    kraus = _rand_kraus(d_in, d_out, r, rng)
    j = choi_from_kraus(kraus)
    x = rand_density(d_in, rng)
    direct = sum(k @ x @ k.conj().T for k in kraus)
    assert spectral_norm(apply_from_choi(j, x) - direct) <= 1e-12


def test_choiop_rejects_non_tp():
    op = HermOp(np.eye(4) / 3.0)
    with pytest.raises(NotTracePreservingError):
        ChoiOp(op, 2, 2, TOL)
    # the trusted build runs no test: only a builder holding a proof calls it
    j = ChoiOp._shown(op, 2, 2)
    assert (j.op, j.mat, j.dim_out, j.dim_in) == (op, op.mat, 2, 2)


def test_identity_choi_acts_as_identity():
    rng = np.random.default_rng(0)
    x = rand_density(3, rng)
    assert spectral_norm(apply_from_choi(identity_choi(3), x) - x) <= 1e-13


def test_depolarizing_choi_maps_to_max_mixed():
    rng = np.random.default_rng(1)
    x = rand_density(2, rng)
    out = apply_from_choi(depolarizing_choi(2, 3), x)
    assert spectral_norm(out - np.eye(3) / 3.0) <= 1e-13


@given(seeds, st.sampled_from([2, 3]), st.sampled_from([2, 3]))
def test_q2c_choi_measurement_statistics(seed, d, m):
    rng = np.random.default_rng(seed)
    # random projective-ish povm: orthonormal basis split into m bins
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    els = [np.zeros((d, d), dtype=complex) for _ in range(m)]
    for k in range(d):
        els[k % m] += np.outer(u[:, k], u[:, k].conj())
    p = Povm(tuple(HermOp(e) for e in els))
    j = q2c_choi(p)
    x = rand_density(d, rng)
    out = apply_from_choi(j, x)
    probs = np.array([np.real(np.trace(e.mat @ x)) for e in p.elements])
    assert spectral_norm(out - np.diag(probs)) <= 1e-12


@given(seeds, st.sampled_from([(2, 2, 2), (2, 3, 2), (3, 2, 2)]))
def test_eval_map_pairing(seed, dims):
    d_in, d_out, d_env = dims
    rng = np.random.default_rng(seed)
    rho = BipartiteState(HermOp(rand_density(d_in * d_env, rng)), d_in, d_env)
    j = random_channel_choi(d_in, d_out, rng)
    w = rand_herm(d_out * d_env, rng)
    lhs = np.vdot(w, eval_map_apply(rho, j))
    rhs = np.vdot(eval_map_adjoint(rho, w, d_out).mat, j.mat)
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


@given(seeds, st.sampled_from([(2, 2), (2, 3)]))
def test_eval_map_on_product_input(seed, dims):
    d_in, d_out = dims
    rng = np.random.default_rng(seed)
    rx = rand_density(d_in, rng)
    rz = rand_density(2, rng)
    rho = BipartiteState(HermOp(np.kron(rx, rz)), d_in, 2)
    j = random_channel_choi(d_in, d_out, rng)
    got = eval_map_apply(rho, j)
    want = np.kron(apply_from_choi(j, rx), rz)
    assert spectral_norm(got - want) <= 1e-12


@given(seeds)
def test_eval_map_preserves_hermiticity_and_trace(seed):
    rng = np.random.default_rng(seed)
    rho = BipartiteState(HermOp(rand_density(4, rng)), 2, 2)
    j = random_channel_choi(2, 2, rng)
    out = eval_map_apply(rho, j)
    assert spectral_norm(out - out.conj().T) <= 1e-13
    assert np.real(np.trace(out)) == pytest.approx(1.0, abs=1e-12)


@given(seeds)
def test_compress_environment_preserves_geometry(seed):
    rng = np.random.default_rng(seed)
    # rank-1 environment factors so compression genuinely shrinks d_env
    a = np.kron(rand_density(2, rng), rand_pure(3, rng))
    b = np.kron(rand_density(2, rng), rand_pure(3, rng))
    sa = BipartiteState(HermOp(a), 2, 3)
    sb = BipartiteState(HermOp(b), 2, 3)
    ca, cb = compress_environment(sa, sb)
    assert ca.dim_env == cb.dim_env <= 2
    # the compression isometry preserves pairwise inner products and norms
    assert np.vdot(ca.mat, cb.mat) == pytest.approx(np.vdot(a, b), abs=1e-12)
    assert np.vdot(ca.mat, ca.mat) == pytest.approx(np.vdot(a, a), abs=1e-12)
    assert np.real(np.trace(ca.mat)) == pytest.approx(1.0, abs=1e-12)


def test_compress_environment_no_op_on_full_rank():
    rng = np.random.default_rng(7)
    sa = BipartiteState(HermOp(rand_density(4, rng)), 2, 2)
    sb = BipartiteState(HermOp(rand_density(4, rng)), 2, 2)
    ca, cb = compress_environment(sa, sb)
    assert ca.dim_env == 2


def test_povm_validation():
    e = np.diag([0.6, 0.0])
    with pytest.raises(ValueError):
        Povm((HermOp(e), HermOp(e)))  # doesn't sum to identity
    with pytest.raises(ValueError):
        Povm((HermOp(np.diag([1.4, 1.0])), HermOp(np.diag([-0.4, 0.0]))))  # negative part


def test_bipartite_state_validation():
    with pytest.raises(ValueError):
        BipartiteState(HermOp(np.eye(4) / 4.0), 2, 3)  # dims don't factor 4
    with pytest.raises(ValueError):
        BipartiteState(HermOp(np.diag([1.0, 1.0, 1.0, -0.5])), 2, 2)  # not PSD
    # unit trace is deliberately not required (general PSD targets are legal)
    BipartiteState(HermOp(np.eye(4)), 2, 2)


def test_choi_dims_recorded():
    j = depolarizing_choi(3, 2)
    assert (j.dim_out, j.dim_in) == (2, 3)
    assert j.mat.shape == (6, 6)
    assert spectral_norm(partial_trace(j.mat, (2, 3)) - np.eye(3)) <= 1e-12


# ------------------------------------------- validation decisions vs seed code
#
# The seed code ran every check below with exact spectral norms.  Validation
# now skips them when a cheap bound settles the check, so each test builds
# defects at multiples of the exact threshold and requires the same outcome
# (accept, or the same exception type and message) as the seed formula.


def _norm2(m) -> float:
    return float(np.linalg.norm(m, 2))


def _min_eig(m) -> float:
    return float(np.min(np.linalg.eigvalsh(m)))


def _seed_choiop(m, d_out, d_in, t=TOL):
    op = HermOp(m, t)
    scale = 1.0 + _norm2(op.mat)
    low = _min_eig(op.mat)
    if low < -t.tau_psd * scale:
        raise ValueError(f"Choi operator not PSD: min eigenvalue {low:.3e}")
    tr_out = partial_trace(op.mat, (d_out, d_in))
    defect = _norm2(tr_out - np.eye(d_in))
    if defect > t.tau_num * max(1.0, scale):
        raise NotTracePreservingError(f"partial trace deviates from identity by {defect:.3e}")
    tr = float(np.real(np.trace(op.mat)))
    if abs(tr - d_in) > t.tau_num * max(1.0, d_in) * 10:
        raise NotTracePreservingError(f"trace {tr} != input dimension {d_in}")


def _seed_povm(elements, t=TOL):
    elements = [HermOp(e, t) for e in elements]
    d = elements[0].dim
    total = np.zeros((d, d), dtype=np.complex128)
    for e in elements:
        if _min_eig(e.mat) < -t.tau_psd * (1.0 + _norm2(e.mat)):
            raise ValueError("Povm element is not PSD within tolerance")
        total = total + e.mat
    defect = _norm2(total - np.eye(d))
    if defect > t.tau_num * max(1.0, _norm2(total)) * 10:
        raise ValueError(f"Povm elements sum to identity with defect {defect:.3e}")


def _seed_bipartite(m, t=TOL):
    op = HermOp(m, t)
    if _min_eig(op.mat) < -t.tau_psd * (1.0 + _norm2(op.mat)):
        raise ValueError("bipartite state is not PSD within tolerance")


def _seed_kraus(kraus, t=TOL):
    d_out, d_in = kraus[0].shape
    acc = sum(k.conj().T @ k for k in kraus)
    defect = _norm2(acc - np.eye(d_in))
    if defect > t.tau_num * max(1.0, _norm2(acc)) * 10:
        raise NotTracePreservingError(f"Kraus completeness defect {defect:.3e} exceeds tolerance")
    j = sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in kraus)
    _seed_choiop(j, d_out, d_in, t)


def _identity_choi_mat(d):
    vec = np.eye(d).reshape(d * d)
    return np.outer(vec, vec).astype(np.complex128)


@pytest.mark.parametrize("factor", THRESHOLD_FACTORS)
def test_choiop_psd_decision_matches_exact_formula(factor):
    # (1 + s) J_id - (s / d) 1 keeps Tr_out = 1 and has min eigenvalue -s/d;
    # s solves s/d = factor * tau_psd * (1 + ||J||) with ||J|| = (1 + s) d - s/d
    d, tau = 2, TOL.tau_psd
    s = factor * tau * (1 + d) / (1 / d - factor * tau * (d - 1 / d))
    m = (1 + s) * _identity_choi_mat(d) - (s / d) * np.eye(d * d)
    want = outcome(_seed_choiop, m, d, d)
    assert (want is None) == (factor < 1.0)
    assert outcome(ChoiOp, HermOp(m), d, d) == want


@pytest.mark.parametrize("factor", THRESHOLD_FACTORS)
def test_choiop_trace_decision_matches_exact_formula(factor):
    # (1 + c) J_id has Tr_out = (1 + c) 1; c solves c = factor * tau_num * (1 + ||J||)
    d, tau = 2, TOL.tau_num
    c = factor * tau * (1 + d) / (1 - factor * tau * d)
    m = (1 + c) * _identity_choi_mat(d)
    want = outcome(_seed_choiop, m, d, d)
    assert (want is None) == (factor < 1.0)
    assert outcome(ChoiOp, HermOp(m), d, d) == want


@pytest.mark.parametrize("factor", THRESHOLD_FACTORS)
@pytest.mark.parametrize("check", ["psd", "sum"])
def test_povm_decision_matches_exact_formula(check, factor):
    if check == "psd":  # min eigenvalue -c against tau_psd * (1 + 1)
        c = 2.0 * factor * TOL.tau_psd
        elements = [np.diag([1.0, -c]), np.diag([0.0, 1.0 + c])]
    else:  # sum defect c against 10 tau_num (1 + c)
        c = 10 * factor * TOL.tau_num / (1 - 10 * factor * TOL.tau_num)
        elements = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0 + c])]
    want = outcome(_seed_povm, elements)
    assert (want is None) == (factor < 1.0)
    assert outcome(Povm, tuple(HermOp(e) for e in elements)) == want


@pytest.mark.parametrize("factor", THRESHOLD_FACTORS)
def test_bipartite_state_decision_matches_exact_formula(factor):
    m = np.diag([0.5, 0.5, 0.5, -1.5 * factor * TOL.tau_psd])  # threshold tau_psd * 1.5
    want = outcome(_seed_bipartite, m)
    assert (want is None) == (factor < 1.0)
    assert outcome(BipartiteState, HermOp(m), 2, 2) == want


@pytest.mark.parametrize("factor", THRESHOLD_FACTORS)
def test_choi_from_kraus_decision_matches_exact_formula(factor):
    # sum K^dagger K = diag(1 + c, 1); c solves c = 10 * factor * tau_num * (1 + c)
    c = 10 * factor * TOL.tau_num / (1 - 10 * factor * TOL.tau_num)
    kraus = [np.eye(2, dtype=np.complex128), np.sqrt(c) * np.diag([1.0, 0.0]) + 0j]
    want = outcome(_seed_kraus, kraus)
    # past the Kraus threshold the completeness check is what fails
    assert (want is not None and "Kraus" in want[1]) == (factor > 1.0)
    assert outcome(choi_from_kraus, kraus) == want


def test_settled_validation_runs_no_svd(monkeypatch):
    rng = np.random.default_rng(4)
    kraus = _rand_kraus(2, 2, 3, rng)
    j = random_channel_choi(2, 2, rng).mat
    noisy = j + 1e-14 * 1j * rand_herm(4, rng)  # not exactly Hermitian
    e = rand_density(2, rng)
    forbid_svd(monkeypatch)
    choi_from_kraus(kraus)
    ChoiOp(HermOp(noisy), 2, 2)
    Povm((HermOp(e), HermOp(np.eye(2) - e)))
    BipartiteState(HermOp(rand_density(4, rng)), 2, 2)
