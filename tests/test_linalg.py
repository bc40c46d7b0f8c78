import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancert.linalg import (
    TOL,
    DimensionMismatchError,
    HermOp,
    NotPSDError,
    _cluster_slices,
    _dlog_eig,
    _psd_eigs,
    _sign_witness,
    Tolerances,
    dist_to_psd,
    eig_herm,
    kron,
    partial_trace,
    pinv_psd,
    spectral_norm,
)
from chancert.objectives import (
    _fidelity_target,
    _fidelity_terms,
    _rel_entropy_target,
    _rel_entropy_terms,
)
from conftest import (
    THRESHOLD_FACTORS,
    forbid_svd,
    outcome,
    rand_density,
    rand_herm,
    rand_pure,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)
dims = st.sampled_from([2, 3, 4, 5])

def _log(a):
    """The operator logarithm of positive definite ``a``, eigenvalue by eigenvalue."""
    w, v = np.linalg.eigh(a)
    return (v * np.array([math.log(float(x)) for x in w])) @ v.conj().T


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


# inputs that are not Hermitian and whose sum M + M^dagger overflows
@pytest.mark.parametrize("m", [
    [[0.0, 1e308], [1.5e308, 0.0]],
    [[1.7e308 + 1j, 0.0], [0.0, 1.0]],
    [[0.0, 1e308j], [-1.5e308j, 0.0]],
])
def test_hermop_overflow_is_a_value_error_without_warnings(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            HermOp(np.array(m))


@pytest.mark.parametrize("m", [
    [[0.0, 1e308], [1e308, 0.0]],
    [[1.7e308, 0.0], [0.0, 1.0]],
    [[0.0, 1e308j], [-1e308j, 0.0]],
    [[1e308, 0.0], [0.0, 1e308]],
])
def test_hermop_holds_an_elementwise_hermitian_input_of_any_magnitude(m):
    # M + M^dagger overflows, and M is its own Hermitian part
    m = np.array(m, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert HermOp(m).mat.tobytes() == m.tobytes()


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


@pytest.mark.parametrize("factor", THRESHOLD_FACTORS)
def test_pinv_psd_applies_the_one_psd_rule(factor):
    # min eigenvalue -c against tau_psd * (1 + 1); within the rule the
    # negative eigenvalue is clamped to 0 and left out of the image
    c = 2.0 * factor * TOL.tau_psd
    a = HermOp(np.diag([1.0, -c]))
    if factor > 1.0:
        with pytest.raises(NotPSDError, match="pinv_psd operand is not PSD"):
            pinv_psd(a)
    else:
        assert np.array_equal(pinv_psd(a).mat, np.diag([1.0, 0.0]))


@given(seeds, dims)
def test_mat_sqrt(seed, d):
    # the square root _fidelity_terms builds from the clamped spectrum
    rng = np.random.default_rng(seed)
    a = rand_density(d, rng)
    w, v = _psd_eigs(HermOp(a))
    s = v @ (np.sqrt(w)[:, None] * v.conj().T)
    assert spectral_norm(s @ s - a) <= 1e-12
    assert np.min(np.linalg.eigvalsh(s)) >= -1e-13


def _dlog(y, z):
    """``Dlog_y[z]`` of positive definite ``y`` through the Loewner-kernel helper
    of the relative entropy's gradient."""
    w, v = np.linalg.eigh(y)
    return _dlog_eig(w, v, v.conj().T @ z @ v, TOL)


# the log lift is the one matrix function whose derivative the package computes
@pytest.mark.parametrize("fn", [pytest.param(_log, id="fn1")])
@given(seed=seeds, d=dims)
@settings(max_examples=30)
def test_mat_func_deriv_matches_finite_difference(fn, seed, d):
    rng = np.random.default_rng(seed)
    a = rand_density(d, rng) + 0.5 * np.eye(d)  # keep well inside the domain
    z = rand_herm(d, rng)
    z = z / spectral_norm(z)
    t = 1e-6
    der = _dlog(a, z)
    fd = (fn(a + t * z) - fn(a - t * z)) / (2 * t)
    assert spectral_norm(fd - der) <= 1e-5 * (1 + spectral_norm(der))


@given(seeds, dims)
def test_dlog_directional_derivative(seed, d):
    rng = np.random.default_rng(seed)
    y = rand_density(d, rng) + 0.3 * np.eye(d)  # keep well inside the domain
    z = rand_herm(d, rng)
    z = z / spectral_norm(z)
    t = 1e-6
    der = _dlog(y, z)
    assert spectral_norm(der - der.conj().T) <= 1e-12
    fd = (_log(y + t * z) - _log(y - t * z)) / (2 * t)
    assert spectral_norm(fd - der) <= 1e-5


def _reference_dlog_eig(w, v, zt, tol):
    """``_dlog_eig`` with two ``math.log`` calls per off-diagonal cluster pair,
    as it was written first: the oracle of the one-log-per-cluster form."""
    slices = _cluster_slices(w, tol)
    reps = [float(np.mean(w[s])) for s in slices]
    k = len(reps)
    ker = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            if i == j:
                ker[i, j] = 1.0 / reps[i]
            else:
                ker[i, j] = (math.log(reps[i]) - math.log(reps[j])) / (reps[i] - reps[j])
    idx = np.empty(len(w), dtype=int)
    for c, s in enumerate(slices):
        idx[s] = c
    full = ker[np.ix_(idx, idx)]
    return v @ (full * zt) @ v.conj().T


# positive spectra of up to four clusters, each eigenvalue repeated up to three
# times with offsets far inside the clustering threshold
clustered_spectra = st.lists(
    st.tuples(st.floats(1e-6, 50.0), st.integers(1, 3)), min_size=1, max_size=4
).map(lambda cs: np.sort(np.concatenate(
    [c * (1.0 + 1e-13 * np.arange(m)) for c, m in cs])))


@given(clustered_spectra, seeds)
def test_dlog_kernel_matches_the_two_log_loop_bitwise(w, seed):
    rng = np.random.default_rng(seed)
    n = len(w)
    v = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    zt = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    got = _dlog_eig(w, v, zt, TOL)
    assert got.tobytes() == _reference_dlog_eig(w, v, zt, TOL).tobytes()


def _reference_cluster_slices(w, tol):
    """``_cluster_slices`` as a loop over consecutive gaps: the oracle of the
    array form."""
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


def _reference_eig_herm(a, tol):
    """``eig_herm`` as an append loop over the clusters of the loop oracle:
    eigenvalues, projectors and multiplicities."""
    w, v = np.linalg.eigh(a.mat)
    reps, projs, mults = [], [], []
    for s in _reference_cluster_slices(w, tol):
        block = v[:, s]
        reps.append(float(np.mean(w[s])))
        projs.append(block @ block.conj().T)
        mults.append(s.stop - s.start)
    return np.array(reps), tuple(projs), tuple(mults)


# On the grid of 2^-52 inside [-1, 1] every eigenvalue and every gap is exact,
# and the clustering threshold of GRID_TOL is exactly 2^-20 = 2^32 grid steps:
# gaps one step below it, at it, one step above it, or far above it.
GRID_TOL = Tolerances(tau_rank=2.0**-20)
gridded_spectra = st.tuples(
    st.integers(-(2**51), 0), st.lists(st.sampled_from([2**32 - 1, 2**32, 2**32 + 1, 2**40]),
                                       max_size=8),
).map(lambda s: np.cumsum([s[0], *s[1]]) * 2.0**-52)
spectra_with_tol = st.one_of(
    st.tuples(gridded_spectra, st.just(GRID_TOL)),
    st.tuples(clustered_spectra, st.just(TOL)),
    st.just((np.empty(0), TOL)),
)


@given(spectra_with_tol, seeds)
def test_clustering_matches_the_loop_bitwise(spectrum, seed):
    w, tol = spectrum
    assert _cluster_slices(w, tol) == _reference_cluster_slices(w, tol)
    n = len(w)
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    a = HermOp((q * w) @ q.conj().T)
    dec = eig_herm(a, tol)
    reps, projs, mults = _reference_eig_herm(a, tol)
    assert dec.eigenvalues.tobytes() == reps.tobytes()
    assert [p.tobytes() for p in dec.projectors] == [p.tobytes() for p in projs]
    assert dec.multiplicities == mults


def test_grid_gaps_fall_on_both_sides_of_the_threshold():
    # one step below and at the threshold cluster, one step above splits
    w = np.cumsum([0, 2**32 - 1, 2**32, 2**32 + 1]) * 2.0**-52
    assert _cluster_slices(w, GRID_TOL) == [slice(0, 3), slice(3, 4)]


@pytest.mark.parametrize("n", [2, 3, 5, 6, 9, 16, 64])
def test_sign_witness_is_elementwise_hermitian(n):
    """``Y`` equals ``Y^dagger`` bit for bit at every size, also where the
    product ``(v * signs) @ v^dagger`` does not (2, 3, 5, 6 and 9 here), so
    the pull-back of ``-Y`` never needs its check."""
    rng = np.random.default_rng(n)
    w, v = np.linalg.eigh(rand_herm(n, rng))
    y = _sign_witness(w, v, 0.1)
    assert (y == y.conj().T).all()
    assert set(np.round(np.linalg.eigvalsh(y), 9)) <= {-1.0, 0.0, 1.0}


@given(seeds, dims)
def test_fidelity_basics(seed, d):
    rng = np.random.default_rng(seed)
    p = rand_density(d, rng)
    q = rand_density(d, rng)

    def fid(a, b):
        return _fidelity_terms(_fidelity_target(HermOp(a), TOL), HermOp(b), TOL)[0]

    f = fid(p, q)
    # self-fidelity error grows with the condition number of the draw (the
    # square-root step loses ~cond * eps); 1e-8 covers cond up to ~1e8
    assert fid(p, p) == pytest.approx(1.0, abs=1e-8)
    assert f == pytest.approx(fid(q, p), abs=1e-10)
    assert -1e-12 <= f <= 1.0 + 1e-8
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    assert fid(u @ p @ u.conj().T, u @ q @ u.conj().T) == pytest.approx(f, abs=1e-10)


@given(seeds, st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 4)]))
def test_partial_trace_adjoint_identity(seed, shape):
    da, db = shape
    rng = np.random.default_rng(seed)
    m = rand_herm(da * db, rng)
    xb = rand_herm(db, rng)
    # <Tr_A M, X> = <M, 1_A (x) X>
    lhs = np.vdot(xb, partial_trace(m, (da, db)))
    rhs = np.vdot(np.kron(np.eye(da), xb), m)
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


@given(seeds, st.sampled_from([(2, 2), (3, 2), (2, 4)]))
def test_partial_trace_preserves_trace(seed, shape):
    da, db = shape
    rng = np.random.default_rng(seed)
    m = rand_herm(da * db, rng)
    assert np.trace(partial_trace(m, (da, db))) == pytest.approx(np.trace(m), abs=1e-12)


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    a = rand_density(2, rng)
    b = rand_density(3, rng)
    m = np.kron(a, b)
    assert spectral_norm(partial_trace(m, (2, 3)) - b) <= 1e-13


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


def _seed_hermop_check(m, t=TOL):
    """HermOp's Hermiticity check as the seed code wrote it: two SVDs, always."""
    h = (m + m.conj().T) / 2.0
    defect = float(np.linalg.norm(m - h, 2))
    scale = 1.0 + float(np.linalg.norm(h, 2))
    if defect > t.tau_herm * scale:
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds "
            f"{t.tau_herm:.1e} * {scale:.3e}"
        )


@pytest.mark.parametrize("factor", THRESHOLD_FACTORS)
@pytest.mark.parametrize("base", ["identity", "random", "large"])
def test_hermop_decision_matches_exact_formula(base, factor):
    rng = np.random.default_rng(7)
    h0 = {"identity": np.eye(3), "random": rand_herm(3, rng),
          "large": rand_herm(3, rng, scale=1e6)}[base]
    skew = 1j * rand_herm(3, rng)
    skew /= spectral_norm(skew)
    m = h0 + factor * TOL.tau_herm * (1.0 + spectral_norm(h0)) * skew
    want = outcome(_seed_hermop_check, m)
    assert (want is None) == (factor < 1.0)
    assert outcome(HermOp, m) == want


def test_hermop_settled_defect_runs_no_svd(monkeypatch):
    rng = np.random.default_rng(8)
    m = rand_herm(4, rng) + 1e-14 * 1j * rand_herm(4, rng)
    forbid_svd(monkeypatch)
    h = HermOp(m)
    assert np.array_equal(h.mat, (m + m.conj().T) / 2.0)


def test_dist_to_psd_on_psd_is_zero():
    rng = np.random.default_rng(3)
    a = rand_density(4, rng)
    eps, _ = dist_to_psd(a)
    assert eps == 0.0


def _kron_operands(case, rng):
    def cplx(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if case == "hermitian":
        return rand_herm(2, rng), rand_herm(3, rng)
    if case == "eye-complex":  # the 1 (x) Z form; +0.0 times negatives gives -0.0
        z = -np.abs(rng.standard_normal((2, 2))) + 1j * rng.standard_normal((2, 2))
        return np.eye(3), z
    if case == "transposed":  # non-contiguous views on both sides
        return cplx((3, 2)).T, cplx((2, 4)).T
    if case == "rectangular":
        return cplx((2, 3)), rng.standard_normal((4, 1))
    a = -np.abs(rng.standard_normal((2, 3)))  # negative entries and signed zeros
    a[0, 1] = -0.0
    b = -np.abs(rng.standard_normal((3, 2))) - 1j * np.abs(rng.standard_normal((3, 2)))
    b[1, 0] = complex(-0.0, -0.0)
    return a, b


@given(seeds, st.sampled_from(["hermitian", "eye-complex", "transposed", "rectangular",
                               "negative"]))
def test_kron_matches_numpy(seed, case):
    a, b = _kron_operands(case, np.random.default_rng(seed))
    got, want = kron(a, b), np.kron(a, b)
    # bytes, not array_equal, which treats -0.0 == 0.0
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@given(seeds, dims)
def test_norms(seed, d):
    rng = np.random.default_rng(seed)
    a = rand_herm(d, rng)
    w = np.linalg.eigvalsh(a)
    assert spectral_norm(a) == pytest.approx(np.max(np.abs(w)), rel=1e-12)


@given(seeds, st.sampled_from([(1, 1), (3, 3), (5, 5), (2, 4), (6, 3)]))
def test_spectral_norm_is_bitwise_numpy_norm(seed, shape):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert spectral_norm(a) == float(np.linalg.norm(a, 2))


def _rel_entropy(sigma, tau):
    return _rel_entropy_terms(_rel_entropy_target(HermOp(sigma), TOL), HermOp(tau), TOL)


# the relative entropy decides image inclusion: finite exactly when the
# target's weight on the output's kernel is negligible
@given(seeds, dims)
def test_image_inclusion_psd_sum(seed, d):
    rng = np.random.default_rng(seed)
    p = rand_pure(d, rng)
    q = rand_density(d, rng)
    value, _, defect = _rel_entropy(p, p + q)
    assert defect <= 1e-10
    assert math.isfinite(value)


def test_image_inclusion_counterexample():
    e00 = np.diag([1.0, 0.0])
    plus = np.full((2, 2), 0.5)
    value, grad, defect = _rel_entropy(e00, plus)
    assert defect > 0.1
    assert value == math.inf and grad is None
    value, _, defect = _rel_entropy(e00, np.eye(2))
    assert defect == 0.0
    assert value == 0.0


def test_partial_trace_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        partial_trace(np.eye(6), (2, 2))


# ------------------------------------------------------------ stacked inputs


def _same_bytes(stacked, per_slice):
    """A stacked result against the list of 2-D results, slice by slice."""
    stacked = np.asarray(stacked)
    assert stacked.shape[0] == len(per_slice)
    for got, want in zip(stacked, per_slice):
        want = np.asarray(want)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n,dims", [(4, (2, 2)), (6, (3, 2)), (16, (4, 4))])
def test_stacked_helpers_match_each_slice_bytewise(n, dims):
    from chancert.linalg import _dist_to_psd, _eigh, _eigvalsh, _herm, _min_eig

    rng = np.random.default_rng(n)
    g = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
    h = np.stack([rand_herm(n, rng) for _ in range(5)])
    h[2] = _herm(h[2])  # one exactly Hermitian slice among inexact ones
    small = g[:, : dims[1], : dims[1]]
    cases = {
        "herm": (_herm, (g,)),
        "kron": (kron, (np.eye(dims[0]), small)),
        "kron_both": (kron, (g[:, :2, :2], small)),
        "partial_trace": (lambda m: partial_trace(m, dims), (g,)),
        "eigh_w": (lambda m: _eigh(m)[0], (h,)),
        "eigh_v": (lambda m: _eigh(m)[1], (h,)),
        "eigvalsh": (_eigvalsh, (h,)),
        "min_eig": (_min_eig, (h,)),
        "spectral_norm": (spectral_norm, (g,)),
        "dist_to_psd": (lambda m: _dist_to_psd(m)[0], (g,)),
        "dist_to_psd_exact": (lambda m: _dist_to_psd(m)[0], (h,)),
        "dist_to_psd_mixed": (lambda m: _dist_to_psd(m)[0], (np.where(
            np.arange(5)[:, None, None] % 2 == 0, h, g),)),
        "dist_to_psd_pos": (lambda m: _dist_to_psd(m)[1], (g,)),
        "dist_to_psd_low": (lambda m: _dist_to_psd(m)[2], (g,)),
        "dist_to_psd_low_exact": (lambda m: _dist_to_psd(m)[2], (h,)),
    }
    for name, (fn, args) in cases.items():
        stacked = fn(*args)
        per_slice = []
        for k in range(5):
            one = fn(*(a[k] if a.ndim == 3 else a for a in args))
            assert np.ndim(one) == np.ndim(stacked) - 1, name
            per_slice.append(one)
        _same_bytes(stacked, per_slice)
    # an exactly Hermitian slice gets max(0, -lambda_min), whatever its neighbours
    exact_eps = max(0.0, -float(np.linalg.eigh(h[2])[0][0]))
    assert _dist_to_psd(h)[0][2] == exact_eps == _dist_to_psd(h[2])[0]
    assert _dist_to_psd(np.stack([g[0], h[2], g[1]]))[0][1] == exact_eps
    # a 2-D call returns Python floats where a stacked call returns arrays
    assert type(_min_eig(h[0])) is float
    assert type(spectral_norm(g[0])) is float
    assert type(_dist_to_psd(g[0])[0]) is float
    assert type(_dist_to_psd(h[2])[0]) is float
