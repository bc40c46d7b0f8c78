"""End-to-end acceptance gate.

One test per criterion, each a self-contained scenario with its own seeds,
tolerance, and wall-clock budget.  Every test prints a single summary line
(visible under ``pytest -s``); the per-test PASSED/FAILED line of
``pytest -v`` is the canonical pass/fail record.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from chancert.certifier import (
    VERDICT_OPTIMAL,
    certify_objective,
    hykl_check,
    subopt_bound,
)
from chancert.choi import BipartiteState, ChoiOp, Povm, depolarizing_choi, identity_choi, q2c_choi
from chancert.experiments import record_to_dict, run_conjecture
from chancert.linalg import (
    HermOp,
    dist_to_psd,
    eig_herm,
    partial_trace,
    pinv_psd,
    spectral_norm,
)
from chancert.objectives import (
    Ensemble,
    FidelityObjective,
    FidelitySquaredObjective,
    LinearObjective,
    RelativeEntropyObjective,
    TraceDistanceObjective,
    discrimination_objective,
    eval_map_apply,
    evaluate,
)
from chancert.solvers import (
    SolverConfig,
    brute_force_measurement,
    helstrom_povm,
    random_channel_choi,
    random_density,
    solve,
)
from chancert.serialize import canonical_json
from conftest import on_golden_build

HELSTROM_ERR = 0.14644660940672627  # (1 - 1/sqrt(2)) / 2


def _map_povm(probs, lams, u, m):
    """Exact optimum for commuting states: classify each eigenvector by the
    largest posterior weight."""
    assign = np.argmax(np.array([p * lam for p, lam in zip(probs, lams)]), axis=0)
    els = []
    for k in range(m):
        diag = np.diag((assign == k).astype(float))
        els.append(HermOp(u @ diag @ u.conj().T))
    return Povm(tuple(els))


def test_criterion_1_measurement_conditions_match_general_certifier():
    start = time.monotonic()
    n = 200
    agree = 0
    worst = 0.0
    for i in range(n):
        rng = np.random.default_rng(i)
        d, m = [(2, 2), (2, 3), (3, 2), (3, 3)][i % 4]
        probs = rng.dirichlet(np.ones(m))
        if m == 2:
            ens = Ensemble(probs, tuple(HermOp(random_density(d, rng)) for _ in range(m)))
            povm, _ = helstrom_povm(ens)
        else:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            u, _ = np.linalg.qr(g)
            lams = [rng.dirichlet(np.ones(d)) for _ in range(m)]
            ens = Ensemble(probs, tuple(HermOp(u @ np.diag(lam) @ u.conj().T) for lam in lams))
            povm = _map_povm(probs, lams, u, m)
        if i % 2 == 1:  # odd cases: blend toward the uniform measurement
            t = 0.1
            povm = Povm(tuple(HermOp((1 - t) * e.mat + t * np.eye(d) / m) for e in povm.elements))
        rep = hykl_check(ens, povm)
        spec = LinearObjective(discrimination_objective(ens), m, d)
        _, cert = certify_objective(spec, q2c_choi(povm))
        agree += rep.optimal == (cert.verdict == VERDICT_OPTIMAL)
        worst = max(
            worst,
            abs(rep.herm_defect - cert.herm_defect),
            abs(min(rep.min_eigs) - cert.min_eig),
            abs(rep.scale - cert.scale),
        )
    elapsed = time.monotonic() - start
    assert agree == n
    assert worst <= 1e-10
    assert elapsed < 30.0
    print(f"criterion 1: PASS - {agree}/{n} verdicts agree, defect diff <= {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_binary_discrimination_benchmark():
    start = time.monotonic()
    plus = np.full((2, 2), 0.5)
    ens = Ensemble((0.5, 0.5), (HermOp(np.diag([1.0, 0.0])), HermOp(plus)))
    spec = LinearObjective(discrimination_objective(ens), 2, 2)

    _, grid_err = brute_force_measurement(ens, grid_n=400)
    trace = solve(spec, SolverConfig(step_rule="polyak", max_iters=1200, stall_window=150))
    povm, analytic_err = helstrom_povm(ens)
    res, cert = certify_objective(spec, q2c_choi(povm))

    elapsed = time.monotonic() - start
    for v in (grid_err, trace.best_value, analytic_err, res.value):
        assert abs(v - 0.146447) <= 1e-3
    assert cert.verdict == VERDICT_OPTIMAL
    assert cert.epsilon <= 1e-6
    assert elapsed < 10.0
    print(
        "criterion 2: PASS - grid "
        f"{grid_err:.9f}, solver {trace.best_value:.9f}, analytic {analytic_err:.9f}, "
        f"epsilon {cert.epsilon:.1e}, {elapsed:.1f}s"
    )


def _interior_choi(d_in, d_out, rng):
    j0 = random_channel_choi(d_in, d_out, rng)
    jm = 0.8 * j0.mat + 0.2 * depolarizing_choi(d_in, d_out).mat
    return ChoiOp(HermOp(jm), d_out, d_in)


def _feasible_direction(d_in, d_out, rng):
    z = rng.standard_normal((d_out * d_in,) * 2) + 1j * rng.standard_normal((d_out * d_in,) * 2)
    z = (z + z.conj().T) / 2.0
    tr = partial_trace(z, (d_out, d_in))
    z = z - np.kron(np.eye(d_out), tr / d_out)
    return z / np.linalg.norm(z)


def test_criterion_3_gradients_match_finite_differences():
    start = time.monotonic()
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        family = ("fid", "fidsq", "re")[i % 3]
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        d_env = 1 if family == "fidsq" else int(rng.integers(1, 3))
        if family == "fid":
            spec = FidelityObjective(
                BipartiteState(HermOp(random_density(d_in * d_env, rng)), d_in, d_env),
                BipartiteState(HermOp(random_density(d_out * d_env, rng)), d_out, d_env),
            )
        elif family == "re":
            spec = RelativeEntropyObjective(
                BipartiteState(HermOp(random_density(d_in * d_env, rng)), d_in, d_env),
                BipartiteState(HermOp(random_density(d_out * d_env, rng)), d_out, d_env),
            )
        else:
            spec = FidelitySquaredObjective(
                rng.dirichlet(np.ones(2)),
                tuple(HermOp(random_density(d_in, rng)) for _ in range(2)),
                tuple(HermOp(random_density(d_out, rng)) for _ in range(2)),
            )
        j = _interior_choi(d_in, d_out, rng)
        z = _feasible_direction(d_in, d_out, rng)
        res = evaluate(spec, j)
        assert res.exact_gradient
        ip = float(np.real(np.vdot(res.h.mat, z)))
        t = 1e-6
        f_plus = evaluate(spec, ChoiOp(HermOp(j.mat + t * z), d_out, d_in)).value
        f_minus = evaluate(spec, ChoiOp(HermOp(j.mat - t * z), d_out, d_in)).value
        fd = (f_plus - f_minus) / (2.0 * t)
        rel = abs(fd - ip) / max(abs(ip), 1e-12)
        assert rel <= 1e-5
        worst = max(worst, rel)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 3: PASS - 50/50 directional derivatives, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_certificate_bound_is_sound():
    start = time.monotonic()
    passed = 0
    for i in range(50):
        rng = np.random.default_rng(2000 + i)
        d_in = int(rng.integers(2, 4))
        d_out = int(rng.integers(2, 4))
        h0 = rng.standard_normal((d_out * d_in,) * 2) + 1j * rng.standard_normal(
            (d_out * d_in,) * 2
        )
        spec = LinearObjective(HermOp((h0 + h0.conj().T) / 2.0), d_out, d_in)
        # any feasible reference works: its value upper-bounds the optimum
        oracle = solve(spec, SolverConfig(step_rule="polyak", max_iters=100, stall_window=40))
        j = random_channel_choi(d_in, d_out, rng)
        res = evaluate(spec, j)
        bound = subopt_bound(res.h, j)
        scale = 1.0 + spectral_norm(res.h.mat)
        passed += res.value - oracle.best_value <= bound + 1e-6 * scale
    elapsed = time.monotonic() - start
    assert passed == 50
    assert elapsed < 60.0
    print(f"criterion 4: PASS - {passed}/50 sound bounds, {elapsed:.1f}s")


def test_criterion_5_self_transformations_certify_optimal():
    start = time.monotonic()
    optimal = 0
    for i in range(20):
        rng = np.random.default_rng(4000 + i)
        d = int(rng.integers(2, 4))
        d_env = int(rng.integers(1, 3))
        rho = BipartiteState(HermOp(random_density(d * d_env, rng)), d, d_env)
        res, cert = certify_objective(FidelityObjective(rho, rho), identity_choi(d))
        optimal += cert.verdict == VERDICT_OPTIMAL
        assert abs(res.value + 1.0) <= 1e-9
    for i in range(20):
        rng = np.random.default_rng(5000 + i)
        d_in = int(rng.integers(2, 4))
        d_out = int(rng.integers(2, 4))
        d_env = int(rng.integers(1, 3))
        rho = BipartiteState(HermOp(random_density(d_in * d_env, rng)), d_in, d_env)
        phi = random_channel_choi(d_in, d_out, rng)
        sigma = BipartiteState(HermOp(eval_map_apply(rho, phi)), d_out, d_env)
        res, cert = certify_objective(RelativeEntropyObjective(rho, sigma), phi)
        optimal += cert.verdict == VERDICT_OPTIMAL
        assert abs(res.value) <= 1e-9
    elapsed = time.monotonic() - start
    assert optimal == 40
    assert elapsed < 30.0
    print(f"criterion 5: PASS - {optimal}/40 self-transformations certified optimal, {elapsed:.1f}s")


def test_criterion_6_subgradient_inequality_all_families():
    start = time.monotonic()
    worst = math.inf
    for family in ("linear", "fid", "fidsq", "td", "re"):
        for i in range(100):
            rng = np.random.default_rng(3000 + i)
            if family == "linear":
                h0 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                spec = LinearObjective(HermOp((h0 + h0.conj().T) / 2.0), 2, 2)
            elif family == "fid":
                spec = FidelityObjective(
                    BipartiteState(HermOp(random_density(4, rng)), 2, 2),
                    BipartiteState(HermOp(random_density(4, rng)), 2, 2),
                )
            elif family == "td":
                spec = TraceDistanceObjective(
                    BipartiteState(HermOp(random_density(4, rng)), 2, 2),
                    BipartiteState(HermOp(random_density(4, rng)), 2, 2),
                )
            elif family == "re":
                spec = RelativeEntropyObjective(
                    BipartiteState(HermOp(random_density(4, rng)), 2, 2),
                    BipartiteState(HermOp(random_density(4, rng)), 2, 2),
                )
            else:
                spec = FidelitySquaredObjective(
                    rng.dirichlet(np.ones(2)),
                    tuple(HermOp(random_density(2, rng)) for _ in range(2)),
                    tuple(HermOp(random_density(2, rng)) for _ in range(2)),
                )
            j = random_channel_choi(2, 2, rng)
            j_prime = random_channel_choi(2, 2, rng)
            res = evaluate(spec, j)
            res_prime = evaluate(spec, j_prime)
            assert res.valid_subgradient
            assert math.isfinite(res.value) and math.isfinite(res_prime.value)
            scale = 1.0 + spectral_norm(res.h.mat)
            lin = float(np.real(np.vdot(res.h.mat, j_prime.mat - j.mat)))
            margin = (res_prime.value - res.value - lin) / scale
            assert margin >= -1e-8
            worst = min(worst, margin)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 6: PASS - 500/500 subgradient inequalities, worst margin {worst:.2e}, {elapsed:.1f}s")


def test_criterion_7_sign_witness_harness_is_internally_consistent():
    start = time.monotonic()
    records, summary = run_conjecture((2, 2, 2), trials=100, seed=0)
    elapsed = time.monotonic() - start
    assert summary["trials"] == 100
    assert summary["counterexample_candidates"] == 0
    assert summary["full_rank_hard_fails"] == 0
    assert summary["supports"] >= 1  # the reachable half actually certifies
    assert elapsed < 300.0
    text = canonical_json([record_to_dict(r) for r in records])
    digest = hashlib.sha256(text.encode()).hexdigest()
    # the record bytes hold on the numpy and BLAS build of the golden corpus
    if on_golden_build():
        assert digest.startswith("1de7369050bafa22")
    print(
        "criterion 7: PASS - 100 trials, "
        f"{summary['supports']} support / {summary['undecided']} undecided, "
        f"0 candidates, 0 full-rank failures, records {digest[:16]}, {elapsed:.1f}s"
    )


def test_criterion_8_matrix_analysis_properties():
    start = time.monotonic()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = (a + a.conj().T) / 2.0

        dec = eig_herm(HermOp(a))
        recon = sum(lam * p for lam, p in zip(dec.eigenvalues, dec.projectors))
        assert spectral_norm(recon - a) <= 1e-12 * (1.0 + spectral_norm(a))

        g = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
        psd = g @ g.conj().T
        p = pinv_psd(HermOp(psd)).mat
        assert spectral_norm(psd @ p @ psd - psd) <= 1e-10
        assert spectral_norm(p @ psd @ p - p) <= 1e-10 * (1.0 + spectral_norm(p))
        assert spectral_norm((psd @ p).conj().T - psd @ p) <= 1e-10

        d0, d1 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        m = rng.standard_normal((d0 * d1,) * 2) + 1j * rng.standard_normal((d0 * d1,) * 2)
        w = rng.standard_normal((d1, d1)) + 1j * rng.standard_normal((d1, d1))
        lhs = np.vdot(w, partial_trace(m, (d0, d1)))
        rhs = np.vdot(np.kron(np.eye(d0), w), m)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

        eps, shifted = dist_to_psd(HermOp(a))
        lam_min = float(np.min(np.linalg.eigvalsh(a)))
        assert eps == pytest.approx(max(0.0, -lam_min), abs=1e-13 * (1.0 + abs(lam_min)))
        assert float(np.min(np.linalg.eigvalsh(shifted.mat))) >= -1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 8: PASS - 100 seeds of matrix-analysis properties, {elapsed:.1f}s")
