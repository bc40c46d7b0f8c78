import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancert.linalg import (
    TOL,
    DimensionMismatchError,
    DomainError,
    HermOp,
    NotPSDError,
    SingularLogError,
    Tolerances,
    dist_to_psd,
    dlog,
    eig_herm,
    fidelity,
    image_inclusion,
    image_inclusion_defect,
    kron,
    mat_func_deriv,
    mat_sqrt,
    partial_trace,
    pinv_psd,
    rel_entropy,
    spectral_norm,
    trace_norm,
    LOG_FN,
    SQRT_FN,
    SQUARE_FN,
)
from conftest import rand_density, rand_herm, rand_pure

seeds = st.integers(min_value=0, max_value=2**31 - 1)
dims = st.sampled_from([2, 3, 4, 5])


def _lift(fn, a):
    w, v = np.linalg.eigh(a)
    return (v * np.array([fn.fun(float(x)) for x in w])) @ v.conj().T


def test_tolerances_validate():
    with pytest.raises(ValueError):
        Tolerances(tau_psd=-1e-8)
    with pytest.raises(ValueError):
        Tolerances(tau_herm=0.0)


def test_hermop_stores_exact_hermitian_part():
    base = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 3.0]])
    m = base + 1e-12 * np.array([[0.0, 1.0], [-1.0, 0.0]])  # tiny skew part
    for x in (base, m):  # exactly Hermitian, and with a defect below tau_herm
        h = HermOp(x)
        assert np.array_equal(h.mat, (x + x.conj().T) / 2.0)
        assert np.array_equal(h.mat, h.mat.conj().T)


def test_hermop_rejects_gross_defect():
    with pytest.raises(ValueError):
        HermOp(np.array([[1.0, 2.0 + 1j], [0.0, 3.0]]))


def test_hermop_defect_threshold():
    # Hermitian part diag(1, 3) is exact, so scale = 1 + 3 and the defect
    # is the skew part's norm delta.
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    limit = TOL.tau_herm * 4.0
    below = np.diag([1.0, 3.0]) + 0.99 * limit * skew
    assert np.array_equal(HermOp(below).mat, (below + below.conj().T) / 2.0)
    with pytest.raises(ValueError, match="not Hermitian"):
        HermOp(np.diag([1.0, 3.0]) + 1.01 * limit * skew)


@pytest.mark.parametrize("m", [
    [[0.0, 1e308], [1e308, 0.0]],
    [[1.7e308, 0.0], [0.0, 1.0]],
    [[0.0, 1e308j], [-1e308j, 0.0]],
])
def test_hermop_overflow_is_a_value_error_without_warnings(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            HermOp(np.array(m))


@given(seeds, dims)
def test_spectral_reconstruction(seed, d):
    rng = np.random.default_rng(seed)
    a = rand_herm(d, rng)
    dec = eig_herm(HermOp(a))
    rebuilt = sum(lam * p for lam, p in zip(dec.eigenvalues, dec.projectors))
    assert spectral_norm(rebuilt - a) <= 1e-12 * (1 + spectral_norm(a))
    # projectors resolve the identity and are orthogonal idempotents
    s = sum(dec.projectors)
    assert spectral_norm(s - np.eye(d)) <= 1e-12
    for i, p in enumerate(dec.projectors):
        assert spectral_norm(p @ p - p) <= 1e-12
        for q in dec.projectors[i + 1 :]:
            assert spectral_norm(p @ q) <= 1e-12


@given(seeds, dims, st.integers(min_value=1, max_value=3))
def test_eig_herm_clusters_degeneracies(seed, d, mult):
    rng = np.random.default_rng(seed)
    # build a spectrum with a deliberate repeat
    vals = np.sort(rng.standard_normal(d))
    vals[:mult] = vals[0]
    q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    a = (q * vals) @ q.conj().T
    dec = eig_herm(HermOp(a))
    ranks = [int(round(np.real(np.trace(p)))) for p in dec.projectors]
    assert sum(ranks) == d
    assert len(set(np.round(dec.eigenvalues, 6))) == len(dec.eigenvalues)


@given(seeds, dims)
def test_pinv_axioms(seed, d):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
    a = g @ g.conj().T  # rank <= 2, typically singular for d > 2
    ap = pinv_psd(HermOp(a)).mat
    n = 1 + spectral_norm(a)
    assert spectral_norm(a @ ap @ a - a) <= 1e-10 * n
    assert spectral_norm(ap @ a @ ap - ap) <= 1e-10 * (1 + spectral_norm(ap))
    assert spectral_norm(a @ ap - (a @ ap).conj().T) <= 1e-10 * n


@given(seeds, dims)
def test_mat_sqrt(seed, d):
    rng = np.random.default_rng(seed)
    a = rand_density(d, rng)
    s = mat_sqrt(HermOp(a)).mat
    assert spectral_norm(s @ s - a) <= 1e-12
    assert np.min(np.linalg.eigvalsh(s)) >= -1e-13


def test_mat_sqrt_rejects_negative():
    with pytest.raises(NotPSDError):
        mat_sqrt(HermOp(np.diag([1.0, -0.5])))


@pytest.mark.parametrize("fn", [SQRT_FN, LOG_FN, SQUARE_FN])
@given(seed=seeds, d=dims)
@settings(max_examples=30)
def test_mat_func_deriv_matches_finite_difference(fn, seed, d):
    rng = np.random.default_rng(seed)
    a = rand_density(d, rng) + 0.5 * np.eye(d)  # keep well inside the domain
    z = rand_herm(d, rng)
    z = z / spectral_norm(z)
    t = 1e-6
    der = mat_func_deriv(fn, HermOp(a), HermOp(z)).mat
    fd = (_lift(fn, a + t * z) - _lift(fn, a - t * z)) / (2 * t)
    assert spectral_norm(fd - der) <= 1e-5 * (1 + spectral_norm(der))


@given(seeds, dims)
def test_dlog_directional_derivative(seed, d):
    rng = np.random.default_rng(seed)
    y = rand_density(d, rng) + 0.3 * np.eye(d)
    z = rand_herm(d, rng)
    z = z / spectral_norm(z)
    t = 1e-6
    der = dlog(HermOp(y), HermOp(z)).mat
    fd = (_lift(LOG_FN, y + t * z) - _lift(LOG_FN, y - t * z)) / (2 * t)
    assert spectral_norm(fd - der) <= 1e-5


def test_dlog_singular_raises():
    with pytest.raises(SingularLogError):
        dlog(HermOp(np.diag([1.0, 0.0])), HermOp(np.eye(2)))


@given(seeds, dims)
def test_fidelity_basics(seed, d):
    rng = np.random.default_rng(seed)
    p = rand_density(d, rng)
    q = rand_density(d, rng)
    f = fidelity(HermOp(p), HermOp(q))
    # self-fidelity error grows with the condition number of the draw (the
    # square-root step loses ~cond * eps); 1e-8 covers cond up to ~1e8
    assert fidelity(HermOp(p), HermOp(p)) == pytest.approx(1.0, abs=1e-8)
    assert f == pytest.approx(fidelity(HermOp(q), HermOp(p)), abs=1e-10)
    assert -1e-12 <= f <= 1.0 + 1e-8
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    fu = fidelity(HermOp(u @ p @ u.conj().T), HermOp(u @ q @ u.conj().T))
    assert fu == pytest.approx(f, abs=1e-10)


def test_fidelity_orthogonal_pure_states():
    assert fidelity(HermOp(np.diag([1.0, 0.0])), HermOp(np.diag([0.0, 1.0]))) == pytest.approx(
        0.0, abs=1e-14
    )


def test_fidelity_pinned_value():
    # pure |0> against pure |+>: overlap 1/2, so root fidelity is 1/sqrt(2)
    plus = np.full((2, 2), 0.5)
    f = fidelity(HermOp(np.diag([1.0, 0.0])), HermOp(plus))
    assert f == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


@given(seeds, dims)
def test_rel_entropy_properties(seed, d):
    rng = np.random.default_rng(seed)
    p = rand_density(d, rng)
    q = rand_density(d, rng)
    assert rel_entropy(HermOp(p), HermOp(p)) == pytest.approx(0.0, abs=1e-10)
    assert rel_entropy(HermOp(p), HermOp(q)) >= -1e-10


def test_rel_entropy_pinned_and_infinite():
    half = np.eye(2) / 2.0
    e1 = np.diag([0.0, 1.0])
    assert rel_entropy(HermOp(e1), HermOp(half)) == pytest.approx(math.log(2.0), abs=1e-12)
    assert rel_entropy(HermOp(half), HermOp(e1)) == math.inf
    assert rel_entropy(HermOp(e1), HermOp(np.diag([1.0, 0.0]))) == math.inf


@given(seeds, st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 4)]))
def test_partial_trace_adjoint_identity(seed, shape):
    da, db = shape
    rng = np.random.default_rng(seed)
    m = rand_herm(da * db, rng)
    xa = rand_herm(da, rng)
    xb = rand_herm(db, rng)
    # <Tr_B M, X> = <M, X (x) 1_B>  and  <Tr_A M, X> = <M, 1_A (x) X>
    lhs = np.vdot(xa, partial_trace(m, (da, db), 1))
    rhs = np.vdot(np.kron(xa, np.eye(db)), m)
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))
    lhs2 = np.vdot(xb, partial_trace(m, (da, db), 0))
    rhs2 = np.vdot(np.kron(np.eye(da), xb), m)
    assert abs(lhs2 - rhs2) <= 1e-12 * (1 + abs(rhs2))


@given(seeds, st.sampled_from([(2, 2), (3, 2), (2, 4)]))
def test_partial_trace_preserves_trace(seed, shape):
    da, db = shape
    rng = np.random.default_rng(seed)
    m = rand_herm(da * db, rng)
    for over in (0, 1):
        assert np.trace(partial_trace(m, (da, db), over)) == pytest.approx(
            np.trace(m), abs=1e-12
        )


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    a = rand_density(2, rng)
    b = rand_density(3, rng)
    m = np.kron(a, b)
    assert spectral_norm(partial_trace(m, (2, 3), 1) - a) <= 1e-13
    assert spectral_norm(partial_trace(m, (2, 3), 0) - b) <= 1e-13


@given(seeds, dims)
def test_dist_to_psd_hermitian_exact(seed, d):
    rng = np.random.default_rng(seed)
    a = rand_herm(d, rng)
    eps, shifted = dist_to_psd(a)
    lam = float(np.min(np.linalg.eigvalsh(a)))
    assert eps == pytest.approx(max(0.0, -lam), abs=1e-13 * (1 + abs(lam)))
    assert np.min(np.linalg.eigvalsh(shifted.mat)) >= -1e-12 * (1 + spectral_norm(a))


@given(seeds, dims)
def test_dist_to_psd_nonhermitian_sound(seed, d):
    rng = np.random.default_rng(seed)
    a = rand_herm(d, rng) + 1e-3 * (
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    )
    eps, _ = dist_to_psd(a)
    # must upper-bound the Hermitian-part deficit
    lam = float(np.min(np.linalg.eigvalsh((a + a.conj().T) / 2.0)))
    assert eps >= max(0.0, -lam) - 1e-12


def test_dist_to_psd_on_psd_is_zero():
    rng = np.random.default_rng(3)
    a = rand_density(4, rng)
    eps, _ = dist_to_psd(a)
    assert eps == 0.0


@given(seeds, st.sampled_from([(2, 3), (3, 2), (2, 2)]))
def test_kron_matches_numpy(seed, shape):
    da, db = shape
    rng = np.random.default_rng(seed)
    a = rand_herm(da, rng)
    b = rand_herm(db, rng)
    assert np.array_equal(kron(a, b), np.kron(a, b))


@given(seeds, dims)
def test_norms(seed, d):
    rng = np.random.default_rng(seed)
    a = rand_herm(d, rng)
    w = np.linalg.eigvalsh(a)
    assert spectral_norm(a) == pytest.approx(np.max(np.abs(w)), rel=1e-12)
    assert trace_norm(a) == pytest.approx(np.sum(np.abs(w)), rel=1e-12)


@given(seeds, st.sampled_from([(1, 1), (3, 3), (5, 5), (2, 4), (6, 3)]))
def test_spectral_norm_is_bitwise_numpy_norm(seed, shape):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert spectral_norm(a) == float(np.linalg.norm(a, 2))


@given(seeds, dims)
def test_image_inclusion_psd_sum(seed, d):
    rng = np.random.default_rng(seed)
    p = rand_pure(d, rng)
    q = rand_density(d, rng)
    assert image_inclusion(HermOp(p), HermOp(p + q))
    assert image_inclusion_defect(HermOp(p), HermOp(p + q)) <= 1e-10


def test_image_inclusion_counterexample():
    e00 = np.diag([1.0, 0.0])
    plus = np.full((2, 2), 0.5)
    assert not image_inclusion(HermOp(e00), HermOp(plus))
    assert image_inclusion_defect(HermOp(e00), HermOp(plus)) > 0.1
    assert image_inclusion(HermOp(e00), HermOp(np.eye(2)))


def test_partial_trace_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        partial_trace(np.eye(6), (2, 2), 0)


def test_rel_entropy_domain_error_on_negative():
    with pytest.raises((NotPSDError, DomainError)):
        rel_entropy(HermOp(np.diag([1.0, -0.2])), HermOp(np.eye(2)))
