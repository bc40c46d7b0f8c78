import json
import warnings

import numpy as np
import pytest

from chancert.cli import main
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


def test_certify_output_is_byte_deterministic(helstrom_file, capsys):
    main(["certify", helstrom_file])
    first = capsys.readouterr().out
    main(["certify", helstrom_file])
    assert capsys.readouterr().out == first
    main(["certify", helstrom_file, "--json-indent", "2"])
    pretty = capsys.readouterr().out
    assert pretty != first and json.loads(pretty) == json.loads(first)


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


@pytest.mark.parametrize("flags", [["--dims", "0", "2", "2"], ["--trials", "-3"]])
def test_conjecture_rejects_nonpositive_sizes(flags, capsys):
    assert main(["conjecture", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1


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


def test_gen_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit):
        main(["gen", "teleportation", "-"])


def test_gen_all_families_parse(tmp_path, capsys):
    from chancert.cli import GEN_FAMILIES
    from chancert.serialize import loads_problem

    for fam in GEN_FAMILIES:
        assert main(["gen", fam, "-", "--seed", "9"]) == 0
        loads_problem(capsys.readouterr().out)


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])
