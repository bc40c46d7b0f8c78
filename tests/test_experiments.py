import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancert import experiments
from chancert.certifier import VERDICT_NEAR, VERDICT_NOT, VERDICT_OPTIMAL
from chancert.choi import BipartiteState
from chancert.experiments import (
    CLASS_CANDIDATE,
    CLASS_SUPPORTS,
    CLASS_UNDECIDED,
    GAP_TOL,
    RANDOM_COMPLETIONS,
    ConjectureRecord,
    classify,
    completion_search,
    TrialError,
    record_to_dict,
    run_conjecture,
    run_trial,
    summarize,
)
from chancert.linalg import TOL, HermOp, spectral_norm
from chancert.objectives import TraceDistanceObjective, eval_map_apply, evaluate
from chancert.cli import main
from chancert.serialize import canonical_json
from chancert.solvers import SolverConfig, random_channel_choi, random_density

seeds = st.integers(min_value=0, max_value=2**31 - 1)

TINY = SolverConfig(max_iters=2, stall_window=1)


# ------------------------------------------------------------------ classify


def test_classify_truth_table():
    verdicts = (VERDICT_OPTIMAL, VERDICT_NEAR, VERDICT_NOT)
    for near, verdict, hard, kdim in itertools.product(
        (False, True), verdicts, (False, True), (0, 3)
    ):
        cls, bug = classify(near, verdict, hard, kdim)
        if not near:
            assert cls == CLASS_UNDECIDED
        elif verdict == VERDICT_OPTIMAL:
            assert cls == CLASS_SUPPORTS
        elif hard and kdim > 0:
            assert cls == CLASS_CANDIDATE
        else:
            assert cls == CLASS_UNDECIDED
        # a full-rank witness is unique: failure there is a bug, not evidence
        assert bug == (near and hard and kdim == 0)
        if kdim == 0:
            assert cls != CLASS_CANDIDATE


# ------------------------------------------------------------------- witness

# the zero threshold of the harness, relative to the problem scale
HARNESS_REL = max(TOL.tau_rank, GAP_TOL)


def _pair(seed, reached=False):
    """A random trace-distance spec at (2, 2, 2) and a random channel; with
    ``reached`` the target is the channel's output."""
    rng = np.random.default_rng(seed)
    rho = BipartiteState(HermOp(random_density(4, rng)), 2, 2)
    if reached:
        j = random_channel_choi(2, 2, rng)
        return TraceDistanceObjective(rho, BipartiteState(HermOp(eval_map_apply(rho, j)), 2, 2)), j
    sigma = BipartiteState(HermOp(random_density(4, rng)), 2, 2)
    return TraceDistanceObjective(rho, sigma), random_channel_choi(2, 2, rng)


@given(seeds)
@settings(max_examples=30)
def test_witness_is_unit_sign_operator_when_no_zeros(seed):
    spec, j = _pair(seed)
    w, v, thr, y, _ = spec._witness(j, HARNESS_REL)
    assert thr > 0.0
    if np.min(np.abs(w)) <= thr:
        return  # degenerate draw; covered by the zero test below
    # all signs are +-1: Y is a unit-norm involution and attains the 1-norm
    assert np.allclose(y @ y, np.eye(4), atol=1e-12)
    assert spectral_norm(y) == pytest.approx(1.0, abs=1e-12)
    diff = spec.sigma.mat - eval_map_apply(spec.rho, j)
    attained = float(np.real(np.vdot(y, diff)))
    nuclear = float(np.sum(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0))))
    assert attained == pytest.approx(nuclear, abs=1e-12)


def test_witness_vanishes_on_reached_target():
    spec, j = _pair(0, reached=True)
    w, _, thr, y, _ = spec._witness(j, HARNESS_REL)
    assert np.max(np.abs(w)) <= thr  # every eigenvalue is a problem-scale zero
    assert np.max(np.abs(y)) == 0.0


@given(seeds)
@settings(max_examples=20)
def test_harness_pull_back_is_the_family_subgradient(seed):
    # where neither threshold sees a zero, both witnesses are the unique
    # sign operator and both pull-backs are -adj(Y)
    spec, j = _pair(seed)
    w, _, thr, y, h = spec._witness(j, HARNESS_REL)
    res = evaluate(spec, j)
    if np.min(np.abs(w)) <= thr or not res.exact_gradient:
        return
    assert np.allclose(h.mat, res.h.mat, rtol=0.0, atol=1e-12)
    assert np.array_equal(h.mat, spec._pull_back(y, 2).mat)


def test_completion_search_pulls_each_completion_back():
    spec, j = _pair(0, reached=True)
    w, v, thr, y, _ = spec._witness(j, HARNESS_REL)
    tried, passed, best = completion_search(spec, j, y, v[:, np.abs(w) <= thr], seed=1)
    assert tried == 5 + 4 * RANDOM_COMPLETIONS
    assert passed  # W = 0 pulls back to H = 0, which certifies every channel
    assert best >= 0.0


# -------------------------------------------------------------------- trials


def test_reachable_trial_supports():
    rec = run_trial(11, (2, 2, 2), reachable=True)
    assert rec.classification == CLASS_SUPPORTS
    assert rec.verdict == VERDICT_OPTIMAL
    assert rec.converged
    assert rec.zero_eigenvalue and rec.kernel_dim == 4
    assert rec.gap <= GAP_TOL * rec.scale
    assert not rec.full_rank_hard_fail


def test_generic_trial_is_undecided_not_candidate():
    rec = run_trial(11, (2, 2, 2), reachable=False)
    assert rec.classification == CLASS_UNDECIDED
    assert not rec.full_rank_hard_fail
    assert rec.gap > GAP_TOL * rec.scale


def test_unconverged_incumbent_is_gated_to_undecided():
    # with a 2-iteration budget nothing is near-optimal, so nothing can be
    # claimed in either direction
    for t in range(4):
        rec = run_trial(100 + t, (2, 2, 2), reachable=(t % 2 == 0), cfg=TINY)
        assert rec.classification == CLASS_UNDECIDED
        assert not rec.converged


def test_run_conjecture_alternates_and_tallies():
    records, summary = run_conjecture((2, 2, 2), trials=4, seed=2, cfg=TINY)
    assert [r.reachable for r in records] == [True, False, True, False]
    assert len({r.seed for r in records}) == 4
    assert summary["trials"] == 4
    total = summary["supports"] + summary["undecided"] + summary["counterexample_candidates"]
    assert total == 4
    assert summary == summarize(records)


def test_run_conjecture_is_deterministic():
    a, _ = run_conjecture((2, 2, 2), trials=2, seed=5, cfg=TINY)
    b, _ = run_conjecture((2, 2, 2), trials=2, seed=5, cfg=TINY)
    assert [record_to_dict(x) for x in a] == [record_to_dict(y) for y in b]


def test_records_serialize_canonically():
    records, _ = run_conjecture((2, 2, 2), trials=2, seed=1, cfg=TINY)
    for rec in records:
        doc = record_to_dict(rec)
        assert isinstance(doc["dims"], list)
        text = canonical_json(doc)
        assert canonical_json(json.loads(text)) == text


def test_run_conjecture_keeps_failed_trials_as_data(monkeypatch, capsys):
    seed, trials = 7, 3
    failing = seed * 1000003 + 1
    original = experiments.record_trial

    def record_trial_failing_once(trial_seed, *args, **kwargs):
        if trial_seed == failing:
            raise ValueError("injected failure")
        return original(trial_seed, *args, **kwargs)

    monkeypatch.setattr(experiments, "record_trial", record_trial_failing_once)
    cfg = SolverConfig(step_rule="polyak", max_iters=2, stall_window=150)
    records, summary = run_conjecture((2, 2, 2), trials, seed, cfg)
    assert records[1] == TrialError(failing, (2, 2, 2), "injected failure")
    assert record_to_dict(records[1]) == {
        "seed": failing, "dims": [2, 2, 2], "error": "injected failure"}
    assert (summary["trials"], summary["errors"]) == (2, 1)
    assert list(summary)[-1] == "errors"

    # the records and the summary are printed as usual; a failed trial makes the exit 1
    assert main(["conjecture", "--trials", str(trials), "--max-iters", "2",
                 "--seed", str(seed)]) == 1
    doc = {"records": [record_to_dict(r) for r in records], "summary": summary}
    assert capsys.readouterr().out == canonical_json(doc)


def test_conjecture_exits_one_on_full_rank_hard_fail(monkeypatch, capsys):
    def record_trial_hard_fail(trial_seed, dims, reachable, spec, trace, tol=None):
        return ConjectureRecord(
            seed=trial_seed, dims=dims, reachable=reachable, value=0.5, gap=0.0,
            scale=2.0, herm_defect=0.0, min_eig=-1.0, verdict=VERDICT_NEAR,
            zero_eigenvalue=False, min_abs_eig=0.25, kernel_dim=0,
            classification=CLASS_UNDECIDED, converged=True, iterations=1,
            completions_tried=0, completion_certifies=False, full_rank_hard_fail=True,
        )

    monkeypatch.setattr(experiments, "record_trial", record_trial_hard_fail)
    assert main(["conjecture", "--trials", "2", "--seed", "3"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["full_rank_hard_fails"] == 2
    assert doc["summary"]["errors"] == 0


# ---------------------------------------------------------- batch invariance

# seed 1, 5 trials: trial 2 converges at iteration 105, the others run out
BATCH_CFG = SolverConfig(step_rule="polyak", max_iters=150, stall_window=40)
BATCH_SEED, BATCH_TRIALS = 1, 5


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        assert a == b
        assert canonical_json(record_to_dict(a)) == canonical_json(record_to_dict(b))


def _trials():
    return [(BATCH_SEED * 1000003 + t, t % 2 == 0) for t in range(BATCH_TRIALS)]


def test_records_do_not_depend_on_the_batch(monkeypatch):
    alone = [run_trial(s, (2, 2, 2), r, BATCH_CFG) for s, r in _trials()]
    assert [r.converged for r in alone] == [False, False, True, False, False]
    assert alone[2].iterations < BATCH_CFG.max_iters
    for chunk in (1, 2, 5, 50):
        monkeypatch.setattr(experiments, "CHUNK", chunk)
        records, summary = run_conjecture((2, 2, 2), BATCH_TRIALS, BATCH_SEED, BATCH_CFG)
        _assert_same_records(records, alone)
        assert summary == summarize(alone)
    reverse = experiments.run_trials(_trials()[::-1], (2, 2, 2), BATCH_CFG)
    _assert_same_records(reverse[::-1], alone)


def test_a_trial_whose_evaluate_raises_is_its_own_error(monkeypatch):
    from chancert import solvers

    baseline, _ = run_conjecture((2, 2, 2), BATCH_TRIALS, BATCH_SEED, BATCH_CFG)
    failing_seed = _trials()[3][0]
    rho = experiments.draw_trial(failing_seed, (2, 2, 2), False).rho.mat.tobytes()
    calls = []
    original = solvers.evaluate

    def evaluate_failing(spec, j, tol):
        if spec.rho.mat.tobytes() == rho:
            calls.append(1)
            if len(calls) == 20:
                raise ValueError("injected evaluate failure")
        return original(spec, j, tol)

    monkeypatch.setattr(solvers, "evaluate", evaluate_failing)
    records, summary = run_conjecture((2, 2, 2), BATCH_TRIALS, BATCH_SEED, BATCH_CFG)
    assert records[3] == TrialError(failing_seed, (2, 2, 2), "injected evaluate failure")
    _assert_same_records(records[:3] + records[4:], baseline[:3] + baseline[4:])
    assert (summary["trials"], summary["errors"]) == (BATCH_TRIALS - 1, 1)
    calls.clear()
    with pytest.raises(ValueError, match="injected evaluate failure"):
        run_trial(failing_seed, (2, 2, 2), False, BATCH_CFG)


def test_a_trial_that_fails_to_draw_is_its_own_error(monkeypatch):
    baseline, _ = run_conjecture((2, 2, 2), 3, BATCH_SEED, BATCH_CFG)
    failing_seed = _trials()[1][0]
    original = experiments.draw_trial

    def draw_failing(seed, *args, **kwargs):
        if seed == failing_seed:
            raise ValueError("injected draw failure")
        return original(seed, *args, **kwargs)

    monkeypatch.setattr(experiments, "draw_trial", draw_failing)
    records, _ = run_conjecture((2, 2, 2), 3, BATCH_SEED, BATCH_CFG)
    assert records[1] == TrialError(failing_seed, (2, 2, 2), "injected draw failure")
    _assert_same_records([records[0], records[2]], [baseline[0], baseline[2]])
