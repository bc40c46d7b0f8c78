import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import chancert
from chancert import cli, objectives, solvers
from chancert.cli import GEN_FAMILIES, main
from chancert.linalg import HermOp
from chancert.objectives import Ensemble
from chancert.serialize import canonical_json, encode_matrix, problem_to_dict
from chancert.solvers import brute_force_measurement, helstrom_povm


def _mat(m):
    return encode_matrix(np.asarray(m, dtype=complex))


def _helstrom_ensemble():
    plus = np.full((2, 2), 0.5)
    return Ensemble((0.5, 0.5), (HermOp(np.diag([1.0, 0.0])), HermOp(plus)))


def _discrimination_doc(povm=None):
    plus = np.full((2, 2), 0.5)
    objective = {
        "family": "Discrimination",
        "probs": [0.5, 0.5],
        "states": [_mat(np.diag([1.0, 0.0])), _mat(plus)],
    }
    channel = None
    if povm is not None:
        channel = {"kind": "povm", "elements": [_mat(e.mat) for e in povm.elements]}
    return problem_to_dict((2, 2, 1), objective, channel)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(canonical_json(doc, indent=2))
    return str(path)


@pytest.fixture()
def helstrom_file(tmp_path):
    povm, _ = helstrom_povm(_helstrom_ensemble())
    return _write(tmp_path, "helstrom.json", _discrimination_doc(povm))


@pytest.fixture()
def grid_file(tmp_path):
    povm, _ = brute_force_measurement(_helstrom_ensemble(), 400)
    return _write(tmp_path, "grid.json", _discrimination_doc(povm))


# ----------------------------------------------------------------- certify


def test_certify_optimal_exits_zero(helstrom_file, capsys):
    assert main(["certify", helstrom_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "CertifiedOptimal"
    assert payload["epsilon"] <= 1e-12


def test_certify_grid_povm_is_near_not_optimal(grid_file, capsys):
    # a 400 x 400 Bloch grid gets within ~7e-4 in certificate distance, which
    # is far outside the default tolerances -> near-optimal, exit 3
    assert main(["certify", grid_file]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "CertifiedNearOptimal"
    assert 0.0 < payload["bound"] < 1e-2


def test_certify_loosened_tolerances_flip_verdict(grid_file, capsys):
    rc = main(["certify", grid_file, "--tol-psd", "1e-3", "--tol-herm", "1e-2"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "CertifiedOptimal"


def test_certify_rotated_povm_reports_large_bound(tmp_path, capsys):
    theta = 0.3
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    povm, _ = helstrom_povm(_helstrom_ensemble())
    from chancert.choi import Povm

    rotated = Povm(tuple(HermOp(u @ e.mat @ u.T) for e in povm.elements))
    path = _write(tmp_path, "rot.json", _discrimination_doc(rotated))
    assert main(["certify", path]) == 3
    assert json.loads(capsys.readouterr().out)["bound"] > 0.01


def test_certify_not_certified_exits_four(tmp_path, capsys):
    plus = np.full((2, 2), 0.5)
    doc = problem_to_dict(
        (2, 2, 1),
        {
            "family": "Fidelity",
            "rho": _mat(np.eye(2) / 2.0),
            "sigma": _mat(np.diag([1.0, 0.0])),
        },
        {"kind": "choi", "matrix": _mat(np.kron(plus, np.eye(2)))},
    )
    path = _write(tmp_path, "notcert.json", doc)
    assert main(["certify", path]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "NotCertified"
    assert not payload["inclusion_ok"]


def test_certify_input_errors_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["certify", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    assert main(["certify", str(bad)]) == 2
    nochannel = _write(tmp_path, "nochan.json", _discrimination_doc())
    assert main(["certify", nochannel]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # diagnostics go to stderr only
    assert err.strip() != ""


def test_certify_deeply_nested_json_exits_two(tmp_path, capsys):
    # nesting past the JSON parser's stack is a schema error, not a traceback
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    assert main(["certify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "invalid JSON" in err


def test_relative_entropy_zero_target_is_optimal(tmp_path, capsys):
    # D(0 || tau) = 0 for every channel: any channel is optimal
    path = tmp_path / "zero.json"
    assert main(["gen", "relative-entropy", str(path), "--dims", "2", "2", "2", "--seed", "1",
                 "--with-channel"]) == 0
    doc = json.loads(path.read_text())
    doc["objective"]["sigma"] = _mat(np.zeros((4, 4)))
    path.write_text(canonical_json(doc))
    assert main(["certify", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["verdict"], payload["value"]) == ("CertifiedOptimal", 0.0)
    assert main(["solve", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["converged"], payload["iterations"], payload["best_value"]) == (True, 1, 0.0)


def test_certify_overflowing_matrix_exits_two_without_warnings(tmp_path, capsys):
    h0 = np.array([[0.0, 1e308], [1e308, 0.0]])
    doc = problem_to_dict((2, 1, 1), {"family": "Linear", "h0": _mat(h0)},
                          {"kind": "choi", "matrix": _mat(np.eye(2))})
    path = _write(tmp_path, "huge.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["certify", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "overflows" in err


def test_certify_overflowing_adjoint_bound_warns_nothing(tmp_path, capsys):
    # ||rho||_F overflows to inf while the witness is 0: the pull-back's
    # rounding bound is nan, which takes the checked path without a warning
    doc = problem_to_dict((2, 2, 1), {"family": "RelativeEntropy",
                                      "rho": _mat(4e307 * np.ones((2, 2))),
                                      "sigma": _mat(np.eye(2) / 2.0)},
                          {"kind": "choi", "matrix": _mat(np.eye(4) / 2.0)})
    path = _write(tmp_path, "huge_rho.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["certify", path]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["verdict"] == "CertifiedOptimal"


# ------------------------------------------- operands judged once by the PSD rule


def _identity_choi(d=2):
    vec = np.eye(d).reshape(d * d)
    return np.outer(vec, vec)


def _verdicts(path, capsys):
    """Exit codes of ``certify`` and of a 3-round ``solve``, each printing a
    payload and no diagnostic."""
    codes = []
    for argv in (["certify", path], ["solve", path, "--max-iters", "3"]):
        codes.append(main(argv))
        out, err = capsys.readouterr()
        assert (err, bool(out)) == ("", True)
    return tuple(codes)


# eigenvalue -6e-9 passes the rule at tau_psd * (1 + 0.5), though not a rule
# scaled by ||sigma|| = 0.5 alone: the target is clamped, not judged again
_TARGET = np.diag([0.5, -6e-9])


@pytest.mark.parametrize("objective", [
    {"family": "Fidelity", "rho": _mat(np.eye(2) / 2.0), "sigma": _mat(_TARGET)},
    {"family": "RelativeEntropy", "rho": _mat(np.eye(2) / 2.0), "sigma": _mat(_TARGET)},
    {"family": "FidelitySquaredEnsemble", "probs": [1.0], "inputs": [_mat(np.eye(2) / 2.0)],
     "targets": [_mat(_TARGET)]},
], ids=["fidelity", "relative-entropy", "fidelity-squared"])
def test_target_within_the_psd_rule_gets_a_verdict(objective, tmp_path, capsys):
    doc = problem_to_dict((2, 2, 1), objective,
                          {"kind": "choi", "matrix": _mat(_identity_choi())})
    assert _verdicts(_write(tmp_path, "target.json", doc), capsys) == (3, 0)


@pytest.mark.parametrize("family, sigma, code", [
    ("Fidelity", np.full((2, 2), 0.5), 0),
    ("RelativeEntropy", np.eye(2) / 2.0, 4),
], ids=["fidelity", "relative-entropy"])
def test_channel_output_within_the_psd_rule_gets_a_verdict(family, sigma, code, tmp_path,
                                                          capsys):
    # J has eigenvalue -2.5e-8, inside the rule at tau_psd * (1 + ||J||); its
    # output on |+><+| has eigenvalue -1.25e-8, which is clamped, not judged
    v = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    w = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    j = _identity_choi() + 2.5e-8 * (np.outer(v, v) - np.outer(w, w))
    doc = problem_to_dict((2, 2, 1), {"family": family, "rho": _mat(np.full((2, 2), 0.5)),
                                      "sigma": _mat(sigma)},
                          {"kind": "choi", "matrix": _mat(j)})
    path = _write(tmp_path, "output.json", doc)
    assert main(["certify", path]) == code
    out, err = capsys.readouterr()
    assert (err, bool(out)) == ("", True)


def test_compressed_pair_is_not_judged_again(tmp_path, capsys):
    # sigma passes the rule at tau_psd * (1 + 0.5); squeezed onto the image of
    # Tr_sys(rho) it is diag(1e-3, -1.4e-8), outside the rule at its own scale
    doc = problem_to_dict((2, 2, 2), {"family": "Fidelity",
                                      "rho": _mat(np.diag([0.5, 0.0, 0.5, 0.0])),
                                      "sigma": _mat(np.diag([1e-3, 0.5, -1.4e-8, 0.4989999]))},
                          {"kind": "choi", "matrix": _mat(_identity_choi())})
    assert _verdicts(_write(tmp_path, "compressed.json", doc), capsys) == (3, 0)


# a 401-digit JSON integer: Python reads it exactly, but no double holds it
HUGE = 10**400


def _set_h0_entry(doc):
    doc["objective"]["h0"][0][0][0] = HUGE


def _set_tau_psd(doc):
    doc["tolerances"] = {"tau_psd": HUGE}


def _set_first_prob(doc):
    doc["objective"]["probs"][0] = HUGE


@pytest.mark.parametrize("family, mutate, path", [
    ("linear", _set_h0_entry, "objective.h0[0][0]"),
    ("linear", _set_tau_psd, "tolerances.tau_psd"),
    ("discrimination", _set_first_prob, "objective.probs[0]"),
], ids=["h0-entry", "tau-psd", "prob"])
def test_number_too_large_for_a_double_exits_two(family, mutate, path, tmp_path, capsys):
    file = tmp_path / "p.json"
    assert main(["gen", family, str(file), "--dims", "2", "2", "1", "--with-channel"]) == 0
    doc = json.loads(file.read_text())
    mutate(doc)
    file.write_text(json.dumps(doc))
    assert main(["certify", str(file)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"chancert: {path}: number too large for a double\n"


@pytest.mark.parametrize("family", ["discrimination", "fidelity-squared"])
def test_non_number_prior_entry_exits_two_naming_its_index(family, tmp_path, capsys):
    file = tmp_path / "p.json"
    assert main(["gen", family, str(file), "--dims", "2", "2", "1"]) == 0
    doc = json.loads(file.read_text())
    doc["objective"]["probs"][1] = "half"
    file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["certify", str(file)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "chancert: objective.probs[1]: expected a number\n"


def _fresh_run(argv):
    """Exit code and stdout of ``chancert argv`` in a new interpreter."""
    src = str(pathlib.Path(chancert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "chancert", *argv], env=env,
                          capture_output=True, text=True, check=False)
    return done.returncode, done.stdout


def test_main_calls_in_one_process_match_fresh_processes(helstrom_file, tmp_path, capsys):
    """The parser is built once per process: a flag given to one call of
    ``main`` must not reach the next."""
    # Tr_out(H J) is exactly Hermitian; min_eig -0.5 passes only under a loose tau_psd
    flat = _write(tmp_path, "flat.json", problem_to_dict(
        (2, 2, 1), {"family": "Linear", "h0": _mat(np.kron(np.diag([1.0, 0.0]), np.eye(2)))},
        {"kind": "choi", "matrix": _mat(np.eye(4) / 2.0)}))
    polyak = ["solve", helstrom_file, "--step-rule", "polyak"]
    calls = [
        [*polyak, "--max-iters", "3"], polyak,
        ["certify", flat, "--json-indent", "2"], ["certify", flat],
        ["certify", flat, "--tol-psd", "1"], ["certify", flat],
    ]
    in_process = []
    for argv in calls:
        code = main(argv)
        in_process.append((code, capsys.readouterr().out))
    assert in_process == [_fresh_run(argv) for argv in calls]
    # each flag changes its call's output, so a leaked flag would show
    for flagged, bare in zip(in_process[::2], in_process[1::2]):
        assert flagged != bare
    assert [code for code, _ in in_process[4:]] == [0, 3]


def test_certify_output_is_byte_deterministic(helstrom_file, capsys):
    main(["certify", helstrom_file])
    first = capsys.readouterr().out
    main(["certify", helstrom_file])
    assert capsys.readouterr().out == first
    main(["certify", helstrom_file, "--json-indent", "2"])
    pretty = capsys.readouterr().out
    assert pretty != first and json.loads(pretty) == json.loads(first)


@pytest.mark.parametrize("command", ["certify", "solve", "hykl", "conjecture", "gen"])
def test_negative_json_indent_exits_two(command, helstrom_file, tmp_path, capsys):
    args = {"conjecture": ["--trials", "1"], "gen": ["linear", str(tmp_path / "out.json")]}
    assert main([command, *args.get(command, [helstrom_file]), "--json-indent", "-3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "--json-indent" in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("message, err", [
    ("", "chancert: input too large for memory\n"),
    ("Unable to allocate 191. GiB",
     "chancert: input too large for memory: Unable to allocate 191. GiB\n"),
], ids=["bare", "numpy"])
@pytest.mark.parametrize("command", ["certify", "gen"])
def test_out_of_memory_exits_two(command, message, err, helstrom_file, tmp_path, monkeypatch,
                                 capsys):
    def out_of_memory(obj, indent=None):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "canonical_json", out_of_memory)
    args = {"certify": [helstrom_file], "gen": ["linear", str(tmp_path / "out.json")]}[command]
    assert main([command, *args]) == 2
    assert capsys.readouterr() == ("", err)
    assert not (tmp_path / "out.json").exists()


def test_json_indent_past_an_index_exits_two(capsys):
    assert main(["gen", "linear", "-", "--json-indent", "100000000000000000000"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("chancert: input too large for memory: "
                   "cannot fit 'int' into an index-sized integer\n")


# ------------------------------------------------------------------- solve


def test_solve_reports_converged_run(helstrom_file, capsys):
    rc = main(["solve", helstrom_file, "--step-rule", "polyak", "--max-iters", "1200"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert abs(payload["best_value"] - 0.146447) < 1e-3


def test_solve_budget_one_is_still_exit_zero(helstrom_file, capsys):
    assert main(["solve", helstrom_file, "--max-iters", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is False
    assert payload["iterations"] == 1
    assert main(["solve", helstrom_file, "--step-rule", "constant", "--max-iters", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["iterations"] == 5


def test_solve_projection_out_of_sweeps_exits_two(tmp_path, capsys, monkeypatch):
    # at this scale the first projected step does not converge in 500
    # Dykstra sweeps
    monkeypatch.setattr(solvers, "SWEEPS", 500)
    doc = problem_to_dict((2, 2, 1), {"family": "TraceDistance",
                                      "rho": _mat(np.diag([1e154, 0.0])),
                                      "sigma": _mat(np.diag([0.0, 1e154]))}, None)
    path = _write(tmp_path, "far.json", doc)
    assert main(["solve", path, "--max-iters", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "sweeps" in err


# The projection's feasibility tolerance follows --tol-psd, so every projected
# iterate passes the Choi operator check under the tolerances of the run.
@pytest.mark.parametrize("family", ["trace-distance", "relative-entropy", "fidelity-squared"])
def test_solve_under_tight_psd_tolerance_exits_zero(family, tmp_path, capsys):
    path = str(tmp_path / "p.json")
    assert main(["gen", family, path, "--dims", "2", "2", "2", "--seed", "1"]) == 0
    capsys.readouterr()  # gen's note when it drops ENV
    assert main(["solve", path, "--tol-psd", "2e-10", "--max-iters", "100"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["iterations"] == 100


def test_conjecture_under_tight_psd_tolerance_has_no_errors(capsys):
    argv = ["conjecture", "--trials", "4", "--max-iters", "60", "--tol-psd", "2e-10"]
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert (summary["trials"], summary["errors"]) == (4, 0)


# -------------------------------------------------------------------- hykl


def test_hykl_optimal_exit_zero(helstrom_file, capsys):
    assert main(["hykl", helstrom_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["optimal"] is True
    assert min(payload["min_eigs"]) >= -1e-9


def test_hykl_grid_povm_not_optimal(grid_file, capsys):
    assert main(["hykl", grid_file]) == 4
    assert json.loads(capsys.readouterr().out)["optimal"] is False


def test_hykl_via_choi_agrees(helstrom_file, capsys):
    assert main(["hykl", helstrom_file, "--via-choi"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["via_choi"]["agrees"] is True
    assert payload["via_choi"]["verdict"] == "CertifiedOptimal"


def test_hykl_requires_discrimination_with_povm(tmp_path, capsys):
    doc = problem_to_dict(
        (2, 2, 1),
        {
            "family": "Fidelity",
            "rho": _mat(np.eye(2) / 2.0),
            "sigma": _mat(np.eye(2) / 2.0),
        },
    )
    path = _write(tmp_path, "fid.json", doc)
    assert main(["hykl", path]) == 2


# -------------------------------------------------------------- conjecture


def test_conjecture_tiny_budget_all_undecided(capsys):
    rc = main(["conjecture", "--trials", "3", "--max-iters", "2", "--seed", "7"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["trials"] == 3
    assert payload["summary"]["counterexample_candidates"] == 0
    assert payload["summary"]["undecided"] == 3
    assert all(r["classification"] == "undecided" for r in payload["records"])


def test_conjecture_output_deterministic(capsys):
    argv = ["conjecture", "--trials", "2", "--max-iters", "2", "--seed", "3"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("flags", [["--dims", "0", "2", "2"], ["--trials", "-3"],
                                   ["--seed", "-1"]])
def test_conjecture_rejects_nonpositive_sizes(flags, capsys):
    assert main(["conjecture", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag, value", [("--step-c", "nan"), ("--step-c", "inf"),
                                         ("--tol-gap", "nan"), ("--tol-gap", "inf"),
                                         ("--max-iters", "0"), ("--stall-window", "0")])
def test_solve_rejects_non_finite_solver_numbers(flag, value, helstrom_file, capsys):
    assert main(["solve", helstrom_file, flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert flag[2:].replace("-", "_") in err


@pytest.mark.parametrize("command", ["certify", "solve", "hykl"])
def test_seed_is_rejected_where_nothing_is_random(command, helstrom_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, helstrom_file, "--seed", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# --------------------------------------------------------------------- gen


def test_gen_is_seed_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gen", "trace-distance", str(a), "--seed", "5"]) == 0
    assert main(["gen", "trace-distance", str(b), "--seed", "5"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(["gen", "trace-distance", "-", "--seed", "5"]) == 0
    assert capsys.readouterr().out == a.read_text()


def test_gen_to_certify_pipeline(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert main(["gen", "fidelity", str(path), "--seed", "1", "--with-channel"]) == 0
    capsys.readouterr()
    rc = main(["certify", str(path)])
    assert rc in (0, 3, 4)
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] in ("CertifiedOptimal", "CertifiedNearOptimal", "NotCertified")


def test_gen_discrimination_with_channel_certifies(tmp_path, capsys):
    path = tmp_path / "disc.json"
    assert main(["gen", "discrimination", str(path), "--seed", "2", "--with-channel"]) == 0
    capsys.readouterr()
    assert main(["hykl", str(path)]) in (0, 4)
    json.loads(capsys.readouterr().out)


def test_gen_discrimination_fewer_hypotheses_than_input_dim(tmp_path, capsys):
    path = tmp_path / "disc.json"
    assert main(["gen", "discrimination", str(path), "--dims", "4", "3", "1",
                 "--with-channel"]) == 0
    assert len(json.loads(path.read_text())["channel"]["elements"]) == 3
    assert main(["certify", str(path)]) in (0, 3)
    capsys.readouterr()


@pytest.mark.parametrize("count", ["0", "-1"])
def test_gen_rejects_nonpositive_count(count, capsys):
    assert main(["gen", "fidelity-squared", "-", "--count", count]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "--count" in err


@pytest.mark.parametrize("huge", [False, True], ids=["just-past", "huge"])
def test_gen_refuses_a_count_past_the_draw_limit_before_drawing(huge, monkeypatch, capsys):
    def no_draw(*args):
        raise AssertionError("gen drew before refusing the count")

    monkeypatch.setattr(objectives, "random_density", no_draw)
    # at dims (2, 2) each ensemble member draws 2 * 2 + 2 * 2 = 8 entries
    count = "100000000000000000000" if huge else str(cli.GEN_MAX_ENTRIES // 8 + 1)
    assert main(["gen", "fidelity-squared", "-", "--count", count]) == 2
    assert capsys.readouterr() == (
        "", f"chancert: gen: --count {count} draws more than {cli.GEN_MAX_ENTRIES} "
            "matrix entries\n")


def test_gen_count_at_the_draw_limit_is_drawn(monkeypatch, capsys):
    drawn = []
    monkeypatch.setattr(objectives, "random_density", lambda dim, rng: drawn.append(dim))
    monkeypatch.setattr(cli, "problem_to_dict", lambda *args: {})  # skip the encoding
    count = cli.GEN_MAX_ENTRIES // 18  # 9 + 9 entries per member at dims (3, 3)
    assert main(["gen", "fidelity-squared", "-", "--dims", "3", "3", "1",
                 "--count", str(count)]) == 0
    assert drawn == [3] * (2 * count)
    assert capsys.readouterr() == ("{}\n", "")


@pytest.mark.parametrize("family", GEN_FAMILIES)
def test_gen_count_only_for_families_that_read_it(family, capsys):
    assert main(["gen", family, "-", "--seed", "3"]) == 0
    default = capsys.readouterr().out
    code = main(["gen", family, "-", "--seed", "3", "--count", "2"])
    out, err = capsys.readouterr()
    if family == "fidelity-squared":  # the default count is 2
        assert (code, out) == (0, default)
    else:
        assert (code, out) == (2, "")
        assert err == f"chancert: gen: {family} does not read --count\n"


@pytest.mark.parametrize("family", ["fidelity-squared", "discrimination"])
def test_non_finite_probabilities_are_rejected_on_load(family, tmp_path, capsys):
    path = tmp_path / "p.json"
    assert main(["gen", family, str(path), "--with-channel"]) == 0
    doc = json.loads(path.read_text())
    doc["objective"]["probs"][0] = float("nan")
    path.write_text(json.dumps(doc))  # json writes the NaN token
    assert main(["certify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "probabilities" in err


@pytest.mark.parametrize("command", ["certify", "solve"])
def test_fidelity_squared_non_state_input_exits_two(command, tmp_path, capsys):
    # certify used to blame the output's eigenvalue, and solve to converge at -1
    half = _mat(np.eye(2) / 2.0)
    doc = problem_to_dict((2, 2, 1), {"family": "FidelitySquaredEnsemble", "probs": [0.5, 0.5],
                                      "inputs": [_mat(np.diag([1.5, -0.5])), half],
                                      "targets": [half, half]},
                          {"kind": "kraus", "operators": [_mat(np.eye(2))]})
    path = _write(tmp_path, "fsq.json", doc)
    args = {"certify": [], "solve": ["--max-iters", "5"]}[command]
    assert main([command, path, *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("chancert: objective.inputs[0]: ensemble input 0 is not PSD "
                   "(min eigenvalue -5.000e-01)\n")


def test_gen_rejects_negative_seed(capsys):
    assert main(["gen", "linear", "-", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "chancert: gen: --seed must be non-negative\n"


@pytest.mark.parametrize("flag", ["--tol-psd", "--tol-herm"])
def test_gen_has_no_tolerance_flags(flag, capsys):
    """``gen`` validates nothing, so it takes no tolerance."""
    with pytest.raises(SystemExit) as exc:
        main(["gen", "linear", "-", flag, "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_gen_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit):
        main(["gen", "teleportation", "-"])


def test_gen_all_families_parse(tmp_path, capsys):
    from chancert import objectives as ob
    from chancert.cli import GEN_FAMILIES
    from chancert.serialize import loads_problem

    # family: (parsed spec class, env written for --dims 2 2 3)
    expected = {
        "linear": (ob.LinearObjective, 1),
        "discrimination": (ob.LinearObjective, 1),
        "trace-distance": (ob.TraceDistanceObjective, 3),
        "fidelity": (ob.FidelityObjective, 3),
        "relative-entropy": (ob.RelativeEntropyObjective, 3),
        "fidelity-squared": (ob.FidelitySquaredObjective, 1),
    }
    assert GEN_FAMILIES == tuple(expected)
    for fam, (spec_cls, env) in expected.items():
        assert main(["gen", fam, "-", "--seed", "9"]) == 0
        assert type(loads_problem(capsys.readouterr().out).spec) is spec_cls
        assert main(["gen", fam, "-", "--dims", "2", "2", "3", "--seed", "9"]) == 0
        captured = capsys.readouterr()
        prob = loads_problem(captured.out)
        assert type(prob.spec) is spec_cls and prob.dims == (2, 2, env)
        # a dropped ENV is reported in one stderr line
        assert captured.err.count("\n") == (env == 1)
        assert ("ENV 3" in captured.err) == (env == 1)


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])


# ----------------------------------------------------------------- scripts


def test_helstrom_demo_runs():
    """``scripts/helstrom_demo.py`` on a coarse grid and a short solve: the
    analytic measurement certifies optimal, the grid's only near-optimal."""
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "helstrom_demo.py"
    src = str(pathlib.Path(chancert.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, str(script), "--grid-n", "40", "--max-iters", "200"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          check=False)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "[CertifiedOptimal," in next(s for s in lines if s.startswith("analytic"))
    assert "[CertifiedNearOptimal," in next(s for s in lines if s.startswith("grid"))
