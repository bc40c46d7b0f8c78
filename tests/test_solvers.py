import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chancert import solvers
from chancert.certifier import certify
from chancert.cli import GEN_FAMILIES, main
from chancert.choi import (
    BipartiteState,
    ChoiOp,
    NotTracePreservingError,
    Povm,
    depolarizing_choi,
)
from chancert.linalg import (
    TOL,
    DimensionMismatchError,
    EigDecompositionError,
    HermOp,
    Tolerances,
    _dagger,
    _eigh,
    _fro_settles,
    _herm,
    _min_eig,
    kron,
    partial_trace,
    spectral_norm,
)
from chancert.objectives import (
    Ensemble,
    FidelityObjective,
    LinearObjective,
    RelativeEntropyObjective,
    TraceDistanceObjective,
    discrimination_objective,
    evaluate,
)
from chancert.solvers import (
    DIM_CAP,
    MaxItersExceededError,
    SolverConfig,
    SolveTrace,
    brute_force_measurement,
    helstrom_povm,
    project_channel,
    random_channel_choi,
    random_density,
    random_instance,
    solve,
    solve_batch,
)
from conftest import (
    THRESHOLD_FACTORS,
    assembled,
    counted_checks,
    forbid_svd,
    outcome,
    rand_density,
    rand_herm,
    rand_pure,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)

HELSTROM_ERR = 0.14644660940672627
BRUTE_ERR_400 = 0.14644729435668202


def _helstrom_ensemble():
    plus = np.full((2, 2), 0.5)
    return Ensemble((0.5, 0.5), (HermOp(np.diag([1.0, 0.0])), HermOp(plus)))


# ---------------------------------------------------------------- projection


def test_project_channel_is_exactly_idempotent():
    rng = np.random.default_rng(3)
    j = random_channel_choi(2, 2, rng)
    p = project_channel(j.mat, (2, 2))
    assert float(np.max(np.abs(p.mat - j.mat))) == 0.0


def test_project_zero_gives_depolarizing():
    p = project_channel(np.zeros((4, 4)), (2, 2))
    assert np.allclose(p.mat, np.kron(np.eye(2) / 2.0, np.eye(2)), atol=1e-14)


@given(seeds)
@example(2428)  # one sweep lands inside the cone, 0.89 from the projection
@settings(max_examples=25)
def test_projection_variational_inequality(seed):
    rng = np.random.default_rng(seed)
    x = rand_herm(4, rng, scale=3.0)
    p = project_channel(x, (2, 2))
    assert float(np.min(np.linalg.eigvalsh(p.mat))) >= -2e-9
    for k in range(8):
        c = random_channel_choi(2, 2, np.random.default_rng(seed * 13 + k))
        # nearest-point characterization: <x - p, c - p> <= 0 for feasible c
        assert float(np.real(np.vdot(x - p.mat, c.mat - p.mat))) <= 1e-6


def test_projection_budget_exhaustion_raises(monkeypatch):
    x = np.zeros((4, 4))
    x[0, 0] = 10.0
    with monkeypatch.context() as mp:
        mp.setattr(solvers, "SWEEPS", 2)
        with pytest.raises(MaxItersExceededError):
            project_channel(x, (2, 2))
    p = project_channel(x, (2, 2))  # default budget is plenty
    assert float(np.min(np.linalg.eigvalsh(p.mat))) >= -2e-9


@pytest.mark.parametrize("factor", THRESHOLD_FACTORS)
@pytest.mark.parametrize("defect", ["psd", "trace"])
def test_projection_precheck_matches_exact_formula(defect, factor, monkeypatch):
    d, feas = 2, min(TOL.tau_psd / 10, TOL.tau_num)
    vec = np.eye(d).reshape(d * d)
    j_id = np.outer(vec, vec)
    if defect == "psd":  # min eigenvalue -factor * feas, Tr_out = 1
        s = d * factor * feas
        x = (1 + s) * j_id - (s / d) * np.eye(d * d)
    else:  # Tr_out = (1 + factor * feas) 1
        x = (1 + factor * feas) * j_id
    # the seed code's feasibility test, with the exact trace-defect norm
    low = float(np.min(np.linalg.eigvalsh(x)))
    tr_defect = float(np.linalg.norm(partial_trace(x, (d, d)) - np.eye(d), 2))
    feasible = max(0.0, -low) <= feas and tr_defect <= feas
    assert feasible == (factor < 1.0)
    sweeps = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: sweeps.append(1) or eigh(a))
    p = project_channel(x, (d, d))
    assert (not sweeps) == feasible  # a feasible input returns before any sweep
    if feasible:
        assert np.array_equal(p.mat, x)


def _reference_project_stack(xs, dims, tol, exact=False):
    """The projection loop without the stop-test screen and the unchecked
    outputs: one ``eigvalsh`` of the Hermitian part ``herm`` of the iterate
    per sweep, and a slice that passes the stop test lands as
    ``ChoiOp(HermOp(herm), d_out, d_in, tol)`` (its ``HermOp`` at ``TOL``) or,
    when that fails the normalization test, sweeps on.  A slice out of
    sweeps or whose Hermitian part is not finite gets its own error.  The
    bit-identity tests below hold ``_project_stack`` to it."""
    d_out, d_in = dims
    feas = min(tol.tau_psd / 10, tol.tau_num)
    eye_out, eye_in = np.eye(d_out), np.eye(d_in)
    out, live = [None] * len(xs), []
    with np.errstate(over="ignore", invalid="ignore"):
        cur = _herm(xs)
    for k, c in enumerate(cur):
        if not np.isfinite(c).all():
            out[k] = ValueError("the Hermitian part of a projection input is not finite")
        elif (spectral_norm(partial_trace(c, dims) - eye_in) <= feas
              and max(0.0, -_min_eig(c)) <= feas):
            out[k] = ChoiOp(HermOp(c), d_out, d_in, tol)
        else:
            live.append(k)
    live = np.array(live, dtype=int)
    if not len(live):
        return out
    cur = cur[live]
    corr = np.zeros_like(cur)
    for _ in range(solvers.SWEEPS):
        shifted = cur + corr
        w, v = _eigh(shifted)
        psd = (v * np.maximum(w, 0.0)[:, None, :]) @ _dagger(v)
        corr = shifted - psd
        tr = partial_trace(psd, dims)
        cur = psd + kron(eye_out, (eye_in - tr) / d_out)
        herm = _herm(cur)
        moving = _min_eig(herm) < -feas
        if exact:
            gap = -np.einsum("bij,bij->b", corr.conj(), herm).real
            size = np.sqrt(np.einsum("bij,bij->b", corr.conj(), corr).real)
            moving = moving | (gap > feas * (1.0 + size))
        for k in np.flatnonzero(~moving):
            try:
                out[live[k]] = ChoiOp(HermOp(herm[k]), d_out, d_in, tol)
            except NotTracePreservingError:
                moving[k] = True
        if not moving.any():
            return out
        live, cur, corr = live[moving], cur[moving], corr[moving]
    for k, lo in zip(live, _min_eig(_herm(cur))):
        out[k] = MaxItersExceededError(
            f"projection defect {max(0.0, -float(lo)):.3e} after {solvers.SWEEPS} sweeps"
        )
    return out


def _steps(dims, slices, seed):
    """``(B, n, n)`` solver steps ``j - eta H`` from random channels ``j``,
    Hermitian ``H`` and step sizes ``eta``."""
    d_out, d_in = dims
    rng = np.random.default_rng(seed)
    return np.stack([random_channel_choi(d_in, d_out, rng).mat
                     - rng.uniform(0.05, 2.0) * rand_herm(d_out * d_in, rng)
                     for _ in range(slices)])


def _entries(out):
    """The bytes of each channel of a projection, ``(type, message)`` of each
    error entry."""
    return [(type(c), str(c)) if isinstance(c, Exception) else c.mat.tobytes() for c in out]


def _same_projection(xs, dims, exact, tol=TOL):
    """Assert that ``_project_stack`` gives the reference's matrices, bit for
    bit, and error entries, or raises its error; the number of eigvalsh calls
    it made."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        try:
            out, got = solvers._project_stack(xs, dims, tol, exact), None
        except Exception as exc:
            got = type(exc), str(exc)
    want = outcome(_reference_project_stack, xs, dims, tol, exact)
    assert got == want
    if got is None:
        ref = _reference_project_stack(xs, dims, tol, exact)
        assert _entries(out) == _entries(ref)
    return len(calls)


@given(st.sampled_from([(2, 2), (3, 2), (2, 3), (4, 4)]), st.sampled_from([1, 3]), seeds,
       st.booleans())
@example((2, 2), 1, 14, False)  # the screen leaves 11 of 133 stop tests to eigvalsh
@settings(max_examples=40)
def test_projection_matches_the_unscreened_loop_bitwise(dims, slices, seed, exact):
    _same_projection(_steps(dims, slices, seed), dims, exact)


def test_projection_runs_eigvalsh_where_the_screen_cannot_decide():
    """A step whose last sweeps stay near the cone: the screen decides 122 of
    133 stop tests, eigvalsh the other 11 (the last one stops the slice), and
    the channel keeps the reference's bits."""
    assert _same_projection(_steps((2, 2), 1, 14), (2, 2), False) == 11


def test_projection_out_of_sweeps_keeps_the_reference_message(monkeypatch):
    """Sweeps that run out on screened sweeps recompute the eigvalsh that each
    slice's error message reports."""
    monkeypatch.setattr(solvers, "SWEEPS", 3)
    xs = _steps((3, 2), 3, 4)
    out = solvers._project_stack(xs, (3, 2), TOL)
    assert [type(c) for c in out] == [MaxItersExceededError] * 3
    assert len({str(c) for c in out}) == 3
    _same_projection(xs, (3, 2), False)
    _same_projection(xs[:1], (3, 2), True)


def test_batched_projection_out_of_sweeps_fails_alone(monkeypatch):
    """A slice still moving after ``SWEEPS`` sweeps gets its own error and
    the slice that landed keeps its channel: ``solve_batch``'s projection of
    the pair takes the stack's 3 ``eigh`` calls, not those plus 1 + 3 more
    to redo each slice alone, and each entry is the one-at-a-time outcome."""
    monkeypatch.setattr(solvers, "SWEEPS", 3)
    xs = _steps((2, 2), 2, 0)  # the first lands after one sweep, the second never
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    batched = solvers._by_slice(lambda s: solvers._project_stack(s, (2, 2), TOL), xs)
    assert len(calls) == 3
    calls.clear()
    alone = [solvers._project_stack(xs[k : k + 1], (2, 2), TOL)[0] for k in range(2)]
    assert len(calls) == 1 + 3
    assert [type(c) for c in batched] == [ChoiOp, MaxItersExceededError]
    assert _entries(batched) == _entries(alone)
    assert outcome(project_channel, xs[1], (2, 2)) == _entries(alone)[1]


@given(st.sampled_from([(2, 2), (3, 2), (2, 3), (4, 4)]), st.sampled_from([1, 3]), seeds,
       st.booleans())
@settings(max_examples=30)
def test_trusted_channels_pass_the_public_checks(dims, slices, seed, exact):
    """At the default tolerances every channel of a step is built trusted; it
    has the bits of ``ChoiOp(HermOp(P))`` (the reference loop builds that)
    and passes the public checks when built again through them."""
    xs = _steps(dims, slices, seed)
    with pytest.MonkeyPatch.context() as mp:
        shown = assembled(mp)[ChoiOp]
        out = solvers._project_stack(xs, dims, TOL, exact)
    assert len(shown) == slices
    _same_projection(xs, dims, exact)
    assert not any(c.mat.flags.writeable for c in out)
    _assert_public_bits(out, dims, TOL)


def _huge_step(sign):
    """A channel stepped by ``1e12`` along ``sign * 1``: its sweep clips a
    spectrum near ``1e12``, far past every rounding allowance."""
    j = random_channel_choi(2, 2, np.random.default_rng(3)).mat
    return (j + sign * 1e12 * np.eye(4))[None]


def _assert_public_bits(out, dims, tol):
    """Each channel of a projection passes the public checks at ``tol`` and
    keeps its bits when built again through them."""
    d_out, d_in = dims
    for c in out:
        if not isinstance(c, Exception):
            again = ChoiOp(HermOp(c.mat), d_out, d_in, tol)
            assert again.mat.tobytes() == c.mat.tobytes()


TIGHT = {"tau_psd": Tolerances(tau_psd=1e-17), "tau_num": Tolerances(tau_num=1e-13),
         "tau_herm": Tolerances(tau_herm=1e-15)}


@pytest.mark.parametrize("case", ["tau_psd", "tau_num", "tau_herm", "huge_up", "huge_down"])
def test_projection_builds_every_channel_unchecked(case):
    """A tolerance below the rounding of a sweep (``tau_psd``, ``tau_num``) or a
    spectrum near ``1e12`` leaves no channel to the public constructors: the
    stop test reads the stored bits, so each channel is built unchecked, has
    the reference's bits and passes the public checks.  ``tau_herm`` is not
    read at all: the channels are those of the default tolerances."""
    xs, tol = _steps((2, 2), 3, 1), TIGHT.get(case, TOL)
    if case.startswith("huge"):
        xs = _huge_step(1.0 if case == "huge_up" else -1.0)
    with pytest.MonkeyPatch.context() as mp:
        shown, checked = assembled(mp)[ChoiOp], counted_checks(mp, HermOp, ChoiOp)
        out = solvers._project_stack(xs, (2, 2), tol)
    assert len(shown) == len(xs) and not checked
    _assert_public_bits(out, (2, 2), tol)
    _same_projection(xs, (2, 2), False, tol)
    if case == "tau_herm":
        assert _entries(out) == _entries(solvers._project_stack(xs, (2, 2), TOL))


def test_projection_sweeps_on_past_a_failed_normalization_test(monkeypatch):
    """At ``tau_num = 1e-18`` the stop test of these slices passes 72 times
    on bits whose partial trace fails the normalization rule; each such slice
    sweeps on and lands later with the reference's bits."""
    tol, failures = Tolerances(tau_num=1e-18), []
    rule = solvers._normalization_failure
    monkeypatch.setattr(solvers, "_normalization_failure",
                        lambda *a: failures.append(rule(*a)) or failures[-1])
    xs = _steps((3, 2), 3, 2)
    out = solvers._project_stack(xs, (3, 2), tol)
    assert sum(f is not None for f in failures) == 72
    assert [type(c) for c in out] == [ChoiOp] * 3
    _assert_public_bits(out, (3, 2), tol)
    _same_projection(xs, (3, 2), False, tol)


@given(st.sampled_from([(2, 2), (3, 2), (2, 3)]), seeds, st.floats(-20.0, -4.0),
       st.floats(-14.0, -6.0), st.floats(-1.0, 13.0))
@example((2, 2), 3, -17.0, -9.0, 12.0)
@example((2, 3), 0, -17.0, -6.0, -1.0)  # a channel the old allowances checked in full
@settings(max_examples=30, deadline=None)
def test_projected_channels_pass_the_public_checks_at_any_tolerance(
        dims, seed, log_psd, log_num, log_scale):
    """Whatever the tolerances and the step size, nothing raises and every
    channel the projection returns passes ``ChoiOp(HermOp(mat), ..., tol)``
    with the same bits (a slice may still run out of sweeps)."""
    d_out, d_in = dims
    tol = Tolerances(tau_psd=10.0**log_psd, tau_num=10.0**log_num)
    rng = np.random.default_rng(seed)
    xs = np.stack([random_channel_choi(d_in, d_out, rng).mat
                   - 10.0**log_scale * rand_herm(d_out * d_in, rng) for _ in range(3)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "SWEEPS", 300)
        out = solvers._project_stack(xs, dims, tol)
    assert all(isinstance(c, (ChoiOp, MaxItersExceededError)) for c in out)
    _assert_public_bits(out, dims, tol)


def test_projection_of_a_non_finite_hermitian_part_is_its_own_error():
    """A slice whose Hermitian part overflows gets a ValueError entry without
    a numpy warning; the other slices keep their channels."""
    xs = _steps((2, 2), 2, 0)
    xs[1, 0, 0] = 1.7e308  # twice it overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = solvers._project_stack(xs, (2, 2), TOL)
    assert type(out[0]) is ChoiOp
    assert _entries(out)[1] == (ValueError, "the Hermitian part of a projection input is not finite")
    assert _entries(out) == _entries(_reference_project_stack(xs, (2, 2), TOL))
    with pytest.raises(ValueError, match="not finite"):
        project_channel(xs[1], (2, 2))


def test_projection_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        project_channel(np.eye(6), (2, 2))


# -------------------------------------------------------------------- solve


def test_solve_helstrom_polyak_converges():
    spec = LinearObjective(discrimination_objective(_helstrom_ensemble()), 2, 2)
    tr = solve(spec, SolverConfig(step_rule="polyak", max_iters=1200, stall_window=150))
    assert tr.converged
    assert tr.best_value == pytest.approx(HELSTROM_ERR, abs=1e-6)
    assert tr.best_value >= HELSTROM_ERR - 1e-12  # can never beat the optimum
    # converged means the recomputed certificate at the incumbent is tight
    res = evaluate(spec, tr.best_choi)
    cert = certify(res.h, tr.best_choi)
    assert cert.bound == tr.final_bound
    assert cert.bound <= 1e-7 * cert.scale
    assert tr.best_value - tr.gap <= HELSTROM_ERR + 1e-12  # sound lower bound


def test_solve_logs_every_iteration_and_tracks_incumbent():
    spec = LinearObjective(discrimination_objective(_helstrom_ensemble()), 2, 2)
    tr = solve(spec, SolverConfig(step_rule="diminishing", max_iters=40, step_c=0.3))
    assert isinstance(tr, SolveTrace)
    assert len(tr.values) == tr.iterations
    assert tr.best_value == min(tr.values)


def _linear_steps(rule, monkeypatch, rounds=6):
    """A ``rounds``-round ``solve`` of a random Linear problem at dims (2, 2):
    its objective, trace, iterates ``j_t`` and the step ``eta_t`` each round
    took, read from the ``_project_stack`` input ``j_t - eta_t H``."""
    spec = LinearObjective(HermOp(rand_herm(4, np.random.default_rng(11))), 2, 2)
    h = spec.h0.mat
    seen, project = [], solvers._project_stack

    def recording(xs, dims, tol, exact=False):
        out = project(xs, dims, tol, exact)
        seen.append((xs[0], out[0]))
        return out

    monkeypatch.setattr(solvers, "_project_stack", recording)
    tr = solve(spec, SolverConfig(step_rule=rule, step_c=0.3, max_iters=rounds))
    assert tr.iterations == rounds and not tr.converged
    js = [depolarizing_choi(2, 2)] + [out for _, out in seen]
    gnorm2 = float(np.real(np.vdot(h, h)))
    etas = [float(np.real(np.vdot(h, j.mat - x))) / gnorm2 for j, (x, _) in zip(js, seen)]
    return spec, tr, js, etas


@pytest.mark.parametrize("rule", ["constant", "diminishing"])
def test_step_rules_take_their_steps(rule, monkeypatch):
    _, _, _, etas = _linear_steps(rule, monkeypatch)
    want = [0.3 if rule == "constant" else 0.3 / math.sqrt(t) for t in range(1, len(etas) + 1)]
    assert etas == pytest.approx(want, rel=1e-9)


def test_polyak_steps_to_the_certified_lower_bound(monkeypatch):
    """``eta_t = (f(j_t) - lower_t) / ||H||_F^2``, where ``lower_t`` is the
    best of the value floor and ``f(j_s) - bound_s`` for ``s <= t``."""
    spec, tr, js, etas = _linear_steps("polyak", monkeypatch)
    h = spec.h0
    gnorm2 = float(np.real(np.vdot(h.mat, h.mat)))
    lower, want = spec.value_floor(), []
    for j, value in zip(js, tr.values):
        lower = max(lower, value - certify(h, j).bound)
        assert value > lower
        want.append((value - lower) / gnorm2)
    assert len(etas) == len(tr.values) - 1  # the last round stops before stepping
    assert etas == pytest.approx(want[:-1], rel=1e-9)


def test_solve_fidelity_self_map_reaches_identity_value():
    rho = BipartiteState(HermOp(np.diag([0.8, 0.2])), 2, 1)
    tr = solve(
        FidelityObjective(rho, rho),
        SolverConfig(step_rule="diminishing", max_iters=3000, step_c=0.5),
    )
    assert tr.converged
    assert tr.best_value == pytest.approx(-1.0, abs=1e-6)


def test_solve_constant_objective_converges_immediately():
    tr = solve(LinearObjective(HermOp(np.zeros((4, 4))), 2, 2))
    assert tr.converged
    assert tr.iterations == 1
    assert tr.best_value == 0.0
    assert tr.final_bound == 0.0


def test_solve_budget_exhaustion_is_best_effort():
    spec = LinearObjective(discrimination_objective(_helstrom_ensemble()), 2, 2)
    tr = solve(spec, SolverConfig(max_iters=1))
    assert not tr.converged
    assert tr.iterations == 1
    assert math.isfinite(tr.best_value)


def test_solve_relative_entropy_smoke():
    rho = BipartiteState(HermOp(np.eye(2) / 2.0), 2, 1)
    sigma = BipartiteState(HermOp(np.diag([0.7, 0.3])), 2, 1)
    tr = solve(RelativeEntropyObjective(rho, sigma), SolverConfig(max_iters=30))
    assert tr.converged
    assert tr.best_value == pytest.approx(0.0, abs=1e-10)
    assert math.isfinite(tr.gap)


def test_solve_relative_entropy_pure_target_gap_is_nonnegative():
    """The gap is the incumbent's value minus a certified lower bound; with
    a pure target the lower bound holds only if each gradient is exact."""
    rng = np.random.default_rng(0)
    rho = BipartiteState(HermOp(rand_density(4, rng)), 2, 2)
    sigma = BipartiteState(HermOp(rand_pure(6, rng)), 3, 2)
    tr = solve(RelativeEntropyObjective(rho, sigma), SolverConfig(max_iters=40))
    assert math.isfinite(tr.best_value)
    assert tr.gap >= 0.0


# -------------------------------------------------------------- measurement


def test_helstrom_povm_pinned_error():
    povm, err = helstrom_povm(_helstrom_ensemble())
    assert err == pytest.approx(HELSTROM_ERR, abs=1e-15)
    assert isinstance(povm, Povm)
    assert len(povm.elements) == 2


@given(seeds)
@settings(max_examples=25)
def test_helstrom_error_matches_objective_evaluation(seed):
    ens = random_instance("ensemble", (3, 2), seed)
    povm, err = helstrom_povm(ens)
    total = sum(
        p * float(np.real(np.trace(e.mat @ s.mat)))
        for p, e, s in zip(ens.probs, povm.elements, ens.states)
    )
    assert err == pytest.approx(1.0 - total, abs=1e-12)


def test_helstrom_rejects_non_binary():
    ens = random_instance("ensemble", (2, 3), 0)
    with pytest.raises(ValueError):
        helstrom_povm(ens)


def test_brute_force_pinned_and_deterministic():
    ens = _helstrom_ensemble()
    p1, e1 = brute_force_measurement(ens, 400)
    p2, e2 = brute_force_measurement(ens, 400)
    assert e1 == BRUTE_ERR_400
    assert e2 == e1
    assert all(np.array_equal(a.mat, b.mat) for a, b in zip(p1.elements, p2.elements))
    assert e1 >= HELSTROM_ERR  # a grid point never beats the analytic optimum


def test_brute_force_single_state_padding():
    plus = np.full((2, 2), 0.5)
    povm, err = brute_force_measurement(Ensemble((1.0,), (HermOp(plus),)))
    assert err == 0.0
    assert len(povm.elements) == 2
    assert np.max(np.abs(povm.elements[1].mat)) == 0.0


def test_brute_force_input_validation():
    ens = _helstrom_ensemble()
    with pytest.raises(ValueError):
        brute_force_measurement(ens, grid_n=1)
    with pytest.raises(ValueError):
        brute_force_measurement(random_instance("ensemble", (3, 2), 0))
    with pytest.raises(ValueError):
        brute_force_measurement(random_instance("ensemble", (2, 3), 0))


# ------------------------------------------------------------ random inputs


def test_random_instance_is_seed_deterministic():
    a = random_instance("ensemble", (2, 3), 42)
    b = random_instance("ensemble", (2, 3), 42)
    assert np.array_equal(np.asarray(a.probs), np.asarray(b.probs))
    assert all(np.array_equal(x.mat, y.mat) for x, y in zip(a.states, b.states))
    ja = random_instance("channel", (2, 3), 42)
    jb = random_instance("channel", (2, 3), 42)
    assert np.array_equal(ja.mat, jb.mat)
    ra, sa = random_instance("state_pair", (2, 2, 2), 42)
    rb, sb = random_instance("state_pair", (2, 2, 2), 42)
    assert np.array_equal(ra.mat, rb.mat) and np.array_equal(sa.mat, sb.mat)


def test_random_instance_validation():
    with pytest.raises(ValueError):
        random_instance("ensemble", (DIM_CAP + 1, 2), 0)
    with pytest.raises(ValueError):
        random_instance("channel", (2, 2, 2), 0)
    with pytest.raises(ValueError):
        random_instance("waffles", (2, 2), 0)


@given(seeds)
@settings(max_examples=25)
def test_random_generators_produce_valid_objects(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(3, rng)
    assert float(np.real(np.trace(rho))) == pytest.approx(1.0, abs=1e-12)
    assert float(np.min(np.linalg.eigvalsh(rho))) >= -1e-12
    j = random_channel_choi(2, 3, rng)
    assert j.dim_in == 2 and j.dim_out == 3


def test_random_channel_kraus_rank_bound():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        random_channel_choi(4, 2, rng, kraus_rank=1)
    j = random_channel_choi(4, 2, rng, kraus_rank=2)
    assert j.dim_in == 4 and j.dim_out == 2


# ------------------------------------------------------------------- config


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(step_rule="newton")
    with pytest.raises(ValueError):
        SolverConfig(step_c=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol_gap=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(stall_window=0)


@pytest.mark.parametrize("field", ["step_c", "tol_gap"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_solver_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


# --------------------------------------------------------------- call counts


@pytest.mark.parametrize("family", GEN_FAMILIES)
def test_solve_evaluates_each_iterate_once(family, tmp_path, monkeypatch, capsys):
    """An unconverged n-iteration solve: n evaluations and certificate bounds,
    n - 1 projections (none after the last iteration, none evaluated twice)."""
    path = str(tmp_path / "p.json")
    assert main(["gen", family, path, "--dims", "2", "2", "2", "--seed", "1"]) == 0
    # the solve loop's seams: one call per problem, or per stack of problems
    seams = {"evaluate": "evaluate", "certify": "_residuals",
             "project_channel": "_project_stack"}
    counts = dict.fromkeys(seams, 0)
    for key, name in seams.items():
        original = getattr(solvers, name)

        def counted(*args, _key=key, _original=original, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(solvers, name, counted)
    assert main(["solve", path, "--max-iters", "30"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["converged"], doc["iterations"]) == (False, 30)
    assert counts == {"evaluate": 30, "certify": 30, "project_channel": 29}


def test_solve_bounds_take_one_svd_per_round_after_the_first(tmp_path, monkeypatch, capsys):
    """Each round of an n-iteration Linear solve makes one SVD, for the
    distance of the non-Hermitian residual to the PSD cone; at the
    depolarizing start the residual is exactly Hermitian, so n - 1 in all.
    The scale ``1 + ||H||`` is computed only when the convergence test cannot
    do without it, and the Hermiticity defect of ``Tr_out(HJ)``, which only
    ``certify`` reports, costs the solver no SVD."""
    path = str(tmp_path / "p.json")
    assert main(["gen", "linear", path, "--dims", "2", "2", "1", "--seed", "1"]) == 0
    calls = {"svd": 0}
    original = np.linalg.svd

    def counted(*args, **kwargs):
        calls["svd"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert main(["solve", path, "--max-iters", "30"]) == 0
    assert json.loads(capsys.readouterr().out)["iterations"] == 30
    assert calls["svd"] == 30 - 1


@pytest.mark.parametrize("factor", THRESHOLD_FACTORS)
def test_convergence_test_matches_the_exact_scale(factor, monkeypatch):
    """``_within_gap`` decides ``bound <= tol_gap * (1 + ||H||)`` as the exact
    formula does, and needs no SVD below ``tol_gap`` or above twice
    ``tol_gap * (1 + ||H||_F)``."""
    h = rand_herm(4, np.random.default_rng(6), scale=3.0)
    tol_gap = 1e-7
    exact = tol_gap * (1.0 + spectral_norm(h))
    outer = 2.0 * tol_gap * (1.0 + np.linalg.norm(h))
    for bound in (factor * exact, factor * tol_gap, factor * outer):
        assert solvers._within_gap(bound, h, tol_gap) == (bound <= exact)
    forbid_svd(monkeypatch)
    assert solvers._within_gap(min(factor, 1.0) * tol_gap, h, tol_gap)
    assert not solvers._within_gap(max(factor, 1.01) * outer, h, tol_gap)


# ------------------------------------------------------------ batched solve


def _decompositions(monkeypatch):
    """Counters of the eigh and eigvalsh calls made from here on."""
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_off_trace_projection_skips_the_psd_precheck(monkeypatch):
    """An input whose partial trace is not the identity is infeasible before any
    decomposition: one eigh per sweep, and an eigvalsh only for the stop tests
    the Rayleigh screen leaves open; the result's ChoiOp check runs none."""
    x = rand_herm(4, np.random.default_rng(5), scale=3.0)
    calls = _decompositions(monkeypatch)
    project_channel(x, (2, 2))
    assert calls == {"eigh": 142, "eigvalsh": 7}
    # with unit partial trace the PSD test still decides first
    vec = np.eye(2).reshape(4)
    j_id = np.outer(vec, vec)
    calls.update(eigh=0, eigvalsh=0)
    project_channel(1.5 * j_id - 0.25 * np.eye(4), (2, 2))
    assert calls == {"eigh": 68, "eigvalsh": 2}


def _same_trace(a, b):
    assert type(a) is type(b) is SolveTrace
    assert a.values == b.values
    assert np.array(a.values).tobytes() == np.array(b.values).tobytes()
    assert a.best_choi.mat.tobytes() == b.best_choi.mat.tobytes()
    for name in ("best_value", "iterations", "converged", "final_bound", "gap"):
        x, y = getattr(a, name), getattr(b, name)
        assert type(x) is type(y) and np.array(x).tobytes() == np.array(y).tobytes(), name


def _group_specs():
    """Problems with Choi dims (2, 2) from four families; the discrimination
    problem converges after a few iterations, the relative entropy never."""
    rng = np.random.default_rng(8)
    rho = BipartiteState(HermOp(random_density(4, rng)), 2, 2)
    sigma = BipartiteState(HermOp(random_density(4, rng)), 2, 2)
    rho1 = BipartiteState(HermOp(random_density(2, rng)), 2, 1)
    sigma1 = BipartiteState(HermOp(random_density(2, rng)), 2, 1)
    return [
        TraceDistanceObjective(rho, sigma),
        LinearObjective(discrimination_objective(_helstrom_ensemble()), 2, 2),
        FidelityObjective(rho, sigma),
        RelativeEntropyObjective(rho1, sigma1),
        TraceDistanceObjective(sigma, rho),
    ]


def test_solve_batch_gives_each_problem_its_solo_bits():
    cfg = SolverConfig(step_rule="polyak", max_iters=60, stall_window=30)
    specs = _group_specs()
    alone = [solve(spec, cfg) for spec in specs]
    assert alone[1].converged and alone[1].iterations < 60
    for group in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [0, 1], [2, 3, 4]):
        for k, trace in zip(group, solve_batch([specs[k] for k in group], cfg)):
            _same_trace(trace, alone[k])


def test_solve_batch_keeps_a_failing_problem_to_itself(monkeypatch):
    cfg = SolverConfig(step_rule="polyak", max_iters=40, stall_window=30)
    specs = _group_specs()
    alone = [solve(spec, cfg) for spec in specs]
    calls = {}
    original = solvers.evaluate

    def evaluate_failing(spec, j, tol):
        calls[id(spec)] = calls.get(id(spec), 0) + 1
        if spec is specs[2] and calls[id(spec)] == 7:
            raise ValueError("injected evaluate failure")
        return original(spec, j, tol)

    monkeypatch.setattr(solvers, "evaluate", evaluate_failing)
    traces = solve_batch(specs, cfg)
    assert isinstance(traces[2], ValueError) and str(traces[2]) == "injected evaluate failure"
    for k in (0, 1, 3, 4):
        _same_trace(traces[k], alone[k])
    calls.clear()
    with pytest.raises(ValueError, match="injected evaluate failure"):
        solve(specs[2], cfg)


def test_solve_ends_with_the_projection_error_when_no_step_lands(monkeypatch):
    """A step whose projection runs out of sweeps is halved and retried, 60
    tries in a round; a run that never lands ends with the projection's error."""
    steps = []

    def out_of_sweeps(xs, dims, tol, exact=False):
        steps.append(len(xs))
        return [MaxItersExceededError("projection defect 1.000e+00 after 5000 sweeps")] * len(xs)

    monkeypatch.setattr(solvers, "_project_stack", out_of_sweeps)
    spec = LinearObjective(discrimination_objective(_helstrom_ensemble()), 2, 2)
    with pytest.raises(MaxItersExceededError, match="after 5000 sweeps"):
        solve(spec, SolverConfig(max_iters=5))
    assert steps == [1] * 60


def test_failed_stacked_decomposition_is_redone_per_slice(monkeypatch):
    """An eigh that fails on a stack is rerun slice by slice: each problem gets
    the trace or the error it gets alone."""
    cfg = SolverConfig(step_rule="polyak", max_iters=20, stall_window=30)
    specs = _group_specs()
    eigh = np.linalg.eigh

    def eigh_failing_on_real(a, *args, **kwargs):
        # the discrimination problem's matrices are real, the trace distances' are not
        if np.any(np.all(np.asarray(a).imag == 0, axis=(-2, -1))):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh_failing_on_real)
    traces = solve_batch(specs, cfg)
    for spec, trace in zip(specs, traces):
        try:
            alone = solve(spec, cfg)
        except EigDecompositionError as exc:
            assert type(trace) is EigDecompositionError and str(trace) == str(exc)
        else:
            _same_trace(trace, alone)
    assert isinstance(traces[1], EigDecompositionError)
    assert isinstance(traces[0], SolveTrace) and isinstance(traces[4], SolveTrace)


def test_solve_batch_rejects_mixed_dims():
    spec = LinearObjective(HermOp(np.eye(6)), 3, 2)
    with pytest.raises(DimensionMismatchError):
        solve_batch([spec, LinearObjective(HermOp(np.eye(4)), 2, 2)])
