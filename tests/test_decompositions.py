"""Every eigendecomposition and SVD of the package goes through ``linalg``.

``linalg`` wraps ``np.linalg.eigh``/``eigvalsh``/``svd`` and looks them up at
call time, so one patched attribute counts, fails or pins every
decomposition.  These tests guard that design: no other module calls the
routines directly, the number of calls per objective evaluation and per
certificate is pinned, and a solver failure surfaces as an input error.
The same kind of ``ast`` guard keeps ``objectives.FAMILIES`` the one list
of objective families, and the evaluation map out of every function but the
state-pair ``_evaluate``, the trace-distance witness and its pull-back in
``objectives`` and ``draw_trial`` in ``experiments``, each tolerance that
judges an input out of every function but its rule, and a document's
tolerances off every ``HermOp`` the package computes.
"""

import ast
import contextlib
import inspect
import io
import pathlib
from dataclasses import replace

import numpy as np
import pytest

import chancert
from chancert.certifier import certify
from chancert.cli import GEN_FAMILIES, main
from chancert.experiments import HARNESS_CONFIG, draw_trial, record_trial
from chancert.choi import (
    BipartiteState,
    ChoiOp,
    Povm,
    depolarizing_choi,
    identity_choi,
)
from chancert.linalg import TOL, EigDecompositionError, HermOp, dist_to_psd
from chancert.objectives import (
    FAMILIES,
    Ensemble,
    FidelitySquaredObjective,
    discrimination_objective,
    evaluate,
)
from chancert.serialize import loads_problem
from chancert.solvers import (
    brute_force_measurement,
    helstrom_povm,
    random_channel_choi,
    random_instance,
    solve_batch,
)
from conftest import counted_checks, forbid_svd

COUNTED = ("eigh", "eigvalsh", "svd")
ROUTINES = COUNTED + ("norm",)
SRC = pathlib.Path(chancert.__file__).parent


def _direct_calls(tree: ast.AST) -> list[str]:
    """``linalg.<routine>`` attributes and ``from numpy.linalg import <routine>``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ROUTINES:
            base = node.value
            if isinstance(base, (ast.Attribute, ast.Name)) and (
                getattr(base, "attr", None) == "linalg" or getattr(base, "id", None) == "linalg"
            ):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found.extend(f"line {node.lineno}: from numpy.linalg import {a.name}"
                         for a in node.names if a.name in ROUTINES)
    return found


def test_only_linalg_calls_numpy_decompositions():
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        calls = _direct_calls(ast.parse(path.read_text(encoding="utf-8")))
        if calls:
            offenders[path.name] = calls
    assert offenders == {}


def test_guard_sees_a_direct_call():
    tree = ast.parse("import numpy as np\nw = np.linalg.eigvalsh(m)\nq = np.linalg.qr(m)\n"
                     "from numpy.linalg import qr, svd\n")
    assert sorted(_direct_calls(tree)) == ["line 2: np.linalg.eigvalsh",
                                           "line 4: from numpy.linalg import svd"]


# A deletion must not leave stale imports behind: a module uses every name it
# imports or re-exports it through ``__all__``.
def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_every_import_is_used():
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if unused:
            offenders[path.name] = unused
    assert offenders == {}


def test_import_guard_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport math\nimport numpy as np\n"
                     "from .linalg import TOL, kron\n__all__ = ['kron']\nx = np.eye(2)\n")
    assert _unused_imports(tree) == ["line 2: math", "line 4: TOL"]


# The family table lives in ``objectives``: it may not depend on the modules
# that read and write documents, and those name no family themselves.
FAMILY_NAMES = {c.family for c in FAMILIES} | {c.gen_name for c in FAMILIES}


def _imported_modules(tree: ast.AST) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.add((node.module or "").rsplit(".", 1)[-1])
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            found.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    return found


def _family_literals(tree: ast.AST) -> list[str]:
    """String constants naming a family, docstrings excepted."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
    }
    return [
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in FAMILY_NAMES
        and id(node) not in docstrings
    ]


def test_family_table_is_the_only_list_of_families():
    objectives = ast.parse((SRC / "objectives.py").read_text(encoding="utf-8"))
    assert not {"serialize", "cli"} & _imported_modules(objectives)
    offenders = {}
    for name in ("serialize.py", "cli.py"):
        literals = _family_literals(ast.parse((SRC / name).read_text(encoding="utf-8")))
        if literals:
            offenders[name] = literals
    assert offenders == {}


def test_family_guard_sees_a_literal():
    tree = ast.parse('"""Linear docstring."""\nfrom .serialize import x\n'
                     'def f():\n    "linear"\n    return {"family": "TraceDistance"}\n')
    assert _imported_modules(tree) == {"serialize", "x"}
    assert _family_literals(tree) == ["line 5: 'TraceDistance'"]


# The chain rule through the evaluation map is written once: in
# ``objectives`` only the state-pair ``_evaluate`` and the trace-distance
# witness and pull-back push a state through the channel or pull a direction
# back, and the harness in ``experiments`` takes its witness from there, using
# the map itself only to draw a reachable target.
EVAL_MAP = {"eval_map_apply", "eval_map_adjoint"}


def _eval_map_callers(tree: ast.Module) -> list[str]:
    """``scope: name`` for each call of an evaluation-map function, by name or
    as a module attribute, where the scope is ``Class.method``, a
    module-level function or ``module``."""
    scopes = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            scopes += [(f"{node.name}.{getattr(m, 'name', 'body')}", m) for m in node.body]
        else:
            scopes.append((getattr(node, "name", "module"), node))
    calls = [(scope, getattr(call.func, "id", getattr(call.func, "attr", None)))
             for scope, body in scopes for call in ast.walk(body) if isinstance(call, ast.Call)]
    return sorted(f"{scope}: {name}" for scope, name in calls if name in EVAL_MAP)


def test_only_the_state_pair_evaluate_calls_the_evaluation_map():
    tree = ast.parse((SRC / "objectives.py").read_text(encoding="utf-8"))
    assert _eval_map_callers(tree) == ["TraceDistanceObjective._pull_back: eval_map_adjoint",
                                       "TraceDistanceObjective._witness: eval_map_apply",
                                       "_StatePairObjective._evaluate: eval_map_adjoint",
                                       "_StatePairObjective._evaluate: eval_map_apply"]


def test_only_draw_trial_calls_the_evaluation_map_in_experiments():
    tree = ast.parse((SRC / "experiments.py").read_text(encoding="utf-8"))
    assert _eval_map_callers(tree) == ["draw_trial: eval_map_apply"]


def test_evaluation_map_guard_sees_a_violation():
    tree = ast.parse("class A:\n    def _evaluate(self):\n        return eval_map_apply(r, j)\n"
                     "class B(A):\n    def _terms(self):\n        eval_map_adjoint(r, g, 2)\n"
                     "def f():\n    return eval_map_apply(r, j)\n")
    assert _eval_map_callers(tree) == ["A._evaluate: eval_map_apply",
                                       "B._terms: eval_map_adjoint",
                                       "f: eval_map_apply"]


def test_experiments_guard_sees_a_violation():
    tree = ast.parse("from . import choi\n"
                     "def draw_trial():\n    return eval_map_apply(r, j)\n"
                     "def record_trial():\n    h = choi.eval_map_adjoint(r, -y, 2)\n"
                     "    return spec._pull_back(y, 2)\n")
    assert _eval_map_callers(tree) == ["draw_trial: eval_map_apply",
                                       "record_trial: eval_map_adjoint"]


# One tolerance policy: ``tau_num`` is read by the normalization rule and
# ``tau_psd`` by the PSD rule and the verdict predicate; the projection derives
# its stop margin ``feas`` from both and settles the normalization rule of a
# swept channel by a rounding allowance against ``tau_num``.  ``tau_herm`` is
# read by the ``HermOp`` check, the verdict predicate, and the rounding bound
# of the pull-back that stands in for a check at the package ``TOL``; the
# projection's channels are Hermitian by construction and read none.  No
# factor of a field is named.
TOLERANCE_READERS = {
    "tau_herm": ["certifier._within_tol", "choi.eval_map_adjoint", "linalg.__post_init__"],
    "tau_num": ["linalg._normalization_failure", "solvers._project_stack",
                "solvers._project_stack.feas"],
    "tau_psd": ["certifier._within_tol", "linalg._psd_rule", "solvers._project_stack.feas"],
}


def _field_readers(tree: ast.Module, field: str) -> list[str]:
    """``function`` for each read of ``.field``, or ``function.name`` where
    the read sits in an assignment to ``name``."""
    found = set()

    def visit(node, scope, target):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope, target = node.name, None
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            target = node.targets[0].id
        elif isinstance(node, ast.Attribute) and node.attr == field:
            found.add(scope if target is None else f"{scope}.{target}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope, target)

    visit(tree, "module", None)
    return sorted(found)


@pytest.mark.parametrize("field", sorted(TOLERANCE_READERS))
def test_each_tolerance_is_read_by_its_rule(field):
    readers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers += [f"{path.stem}.{r}" for r in _field_readers(tree, field)]
    assert readers == TOLERANCE_READERS[field]


def test_no_normalization_tolerance_but_tau_num():
    assert [p.name for p in sorted(SRC.glob("*.py"))
            if "tau_sum" in p.read_text(encoding="utf-8")] == []


def test_tolerance_guard_sees_a_read():
    tree = ast.parse("def f(t):\n    return t.tau_num\n"
                     "def g(t):\n    cap = min(t.tau_num, 1)\n    x = t.tau_psd\n"
                     "lim = TOL.tau_num\n")
    assert _field_readers(tree, "tau_num") == ["f", "g.cap", "module.lim"]


# One judgement boundary: a ``Tolerances`` judges only what its caller supplies.
# Every ``HermOp`` the package computes is judged at the default ``TOL``, so no
# call passes a tolerance but the document reader's, and a function that takes
# no supplied operand takes no tolerance.
def _tolerance_hermops(tree: ast.Module) -> list[str]:
    """The enclosing function (or ``module``) of each ``HermOp`` call that
    passes more than the matrix."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "HermOp" and (len(node.args) > 1 or node.keywords)):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "module")
    return found


def test_no_computed_hermop_reads_a_document_tolerance():
    sites = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "serialize.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [f"{path.stem}.{s}" for s in _tolerance_hermops(tree)]
    assert sites == []


def test_hermop_guard_sees_a_tolerance():
    tree = ast.parse("def f(m, tol):\n    return HermOp(m, tol)\n"
                     "def g(m, t):\n    return HermOp(m), HermOp(m, tol=t)\n"
                     "x = HermOp(m, TOL)\ny = judged('k', HermOp, m, tol)\n")
    assert _tolerance_hermops(tree) == ["f", "g", "module"]


@pytest.mark.parametrize("fn", [
    discrimination_objective, helstrom_povm, brute_force_measurement, random_instance,
    random_channel_choi, depolarizing_choi, identity_choi, draw_trial, dist_to_psd,
], ids=lambda fn: fn.__name__)
def test_functions_without_a_supplied_operand_take_no_tolerance(fn):
    assert "tol" not in inspect.signature(fn).parameters


@pytest.mark.parametrize("cls", [
    HermOp, ChoiOp, BipartiteState, Povm, Ensemble, FidelitySquaredObjective,
], ids=lambda cls: cls.__name__)
def test_validated_types_keep_their_tolerance(cls):
    assert inspect.signature(cls).parameters["tol"].default is TOL


# One door around the checks: a validated type is built without its
# ``__post_init__`` only by ``linalg._assemble``, so a tracer or a counter
# that wraps it sees every unchecked build.
def _new_sites(tree: ast.Module) -> list[str]:
    """The enclosing function (or ``module``) of each ``X.__new__`` in ``tree``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif isinstance(node, ast.Attribute) and node.attr == "__new__":
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "module")
    return found


def test_assemble_is_the_only_build_around_the_checks():
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [f"{path.stem}.{s}" for s in _new_sites(tree)]
    assert sites == ["linalg._assemble"]


def test_build_guard_sees_a_new():
    tree = ast.parse("def _assemble(cls):\n    return object.__new__(cls)\n"
                     "class A:\n    def make(cls):\n        return cls.__new__(cls)\n"
                     "new = object.__new__\n")
    assert _new_sites(tree) == ["_assemble", "make", "module"]


# (eigh, eigvalsh, svd) calls of the first ``evaluate`` of a problem and of
# one ``certify`` on ``gen FAMILY --dims 2 2 2 --seed 1 --with-channel``.
# The relative entropy takes its value, image-inclusion test and gradient
# from one eigh of the target and one of the output.  The fidelity families decompose the target
# and the output once per pair and read the target's rank and norm from its
# eigh, so the inclusion test costs no SVD; each sandwich still costs an
# eigvalsh and an eigh.  Fidelity's compressed pair is not PSD-tested again.  ``certify`` reads ``min_eig`` and ``epsilon`` from
# one eigh; the SVDs are the Hermiticity defect, ``||H||`` and the distance
# of the non-Hermitian residual.  ``record_trial`` adds to ``certify`` the
# witness's eigh and the two SVDs of the problem scale; a witness that
# vanishes pulls back to ``H = 0``, whose ``certify`` skips one SVD.
CERTIFY_CALLS = (1, 0, 3)
EVALUATE_CALLS = {
    "linear": (0, 0, 0),
    "discrimination": (0, 0, 0),
    "trace-distance": (1, 0, 0),
    "fidelity": (4, 1, 0),
    "relative-entropy": (2, 0, 0),
    "fidelity-squared": (6, 2, 0),
}


def _gen_problem(family: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["gen", family, "-", "--dims", "2", "2", "2", "--seed", "1",
                     "--with-channel"]) == 0
    return loads_problem(out.getvalue())


def _count_calls(fn):
    """``fn()`` and its (eigh, eigvalsh, svd) call counts."""
    calls = dict.fromkeys(COUNTED, 0)
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            mp.setattr(np.linalg, name, counted)
        result = fn()
    return result, tuple(calls.values())


def test_large_ensemble_validation_decomposes_only_its_members():
    # the probability vector is judged from its entries: m members cost m
    # decompositions per side, none larger than a member
    m = 20_000
    rho = HermOp(np.eye(2) / 2.0)
    sizes = []
    with pytest.MonkeyPatch.context() as mp:
        for name in COUNTED:
            original = getattr(np.linalg, name)

            def sized(a, *args, _original=original, **kwargs):
                sizes.append(np.shape(a)[-1])
                return _original(a, *args, **kwargs)

            mp.setattr(np.linalg, name, sized)
        FidelitySquaredObjective(np.full(m, 1.0 / m), (rho,) * m, (rho,) * m)
    assert (len(sizes), max(sizes)) == (2 * m, 2)


@pytest.mark.parametrize("family", GEN_FAMILIES)
def test_decomposition_counts_per_evaluate_and_certify(family):
    prob = _gen_problem(family)
    res, got = _count_calls(lambda: evaluate(prob.spec, prob.channel, prob.tol))
    assert got == EVALUATE_CALLS[family]
    _, got = _count_calls(lambda: certify(res.h, prob.channel, prob.tol))
    assert got == CERTIFY_CALLS


# Later evaluates of the same problem read the target's side from the spec:
# the fidelity families' root and support of each target (and the compressed
# environment of Fidelity), the relative entropy's spectrum of the target.
# Only the output and, for the fidelity families, the sandwich are decomposed.
LATER_EVALUATE_CALLS = {
    "linear": (0, 0, 0),
    "discrimination": (0, 0, 0),
    "trace-distance": (1, 0, 0),
    "fidelity": (2, 1, 0),
    "relative-entropy": (1, 0, 0),
    "fidelity-squared": (4, 2, 0),
}


@pytest.mark.parametrize("family", GEN_FAMILIES)
def test_later_evaluates_reuse_the_prepared_target(family):
    prob = _gen_problem(family)
    first, _ = _count_calls(lambda: evaluate(prob.spec, prob.channel, prob.tol))
    later, got = _count_calls(lambda: evaluate(prob.spec, prob.channel, prob.tol))
    assert got == LATER_EVALUATE_CALLS[family]
    assert (later.value, later.h.mat.tobytes()) == (first.value, first.h.mat.tobytes())
    # equal tolerances are the same key; other tolerances prepare again
    _, got = _count_calls(lambda: evaluate(prob.spec, prob.channel, replace(prob.tol)))
    assert got == LATER_EVALUATE_CALLS[family]
    other = replace(prob.tol, tau_rank=2 * prob.tol.tau_rank)
    _, got = _count_calls(lambda: evaluate(prob.spec, prob.channel, other))
    assert got == EVALUATE_CALLS[family]


# seed-0 harness trials 0 to 3: only trial 2's witness vanishes (all four
# eigenvalues are zeros), and that trial supports
RECORD_CALLS = ((2, 0, 5), (2, 0, 5), (2, 0, 4), (2, 0, 5))


def test_decomposition_counts_per_recorded_trial():
    specs = [draw_trial(t, (2, 2, 2), t % 2 == 0) for t in range(len(RECORD_CALLS))]
    for t, (spec, trace) in enumerate(zip(specs, solve_batch(specs, HARNESS_CONFIG))):
        rec, got = _count_calls(lambda: record_trial(t, (2, 2, 2), t % 2 == 0, spec, trace))
        assert got == RECORD_CALLS[t]
        assert rec.kernel_dim == (4 if t == 2 else 0)


# ``HermOp`` validations of ``record_trial`` on the same trials: only the
# certificate's ``Z``.  The witness is built Hermitian and its pull-back
# trusted; validating both as well read 3.
RECORD_VALIDATIONS = 1


def test_recorded_trials_validate_only_the_certificate(monkeypatch):
    specs = [draw_trial(t, (2, 2, 2), t % 2 == 0) for t in range(len(RECORD_CALLS))]
    traces = solve_batch(specs, HARNESS_CONFIG)
    checked = counted_checks(monkeypatch, HermOp)
    for t, (spec, trace) in enumerate(zip(specs, traces)):
        checked.clear()
        record_trial(t, (2, 2, 2), t % 2 == 0, spec, trace)
        assert len(checked) == RECORD_VALIDATIONS


# ``HermOp`` and ``ChoiOp`` validations in a 20-round lock-step solve of
# three trace-distance problems at (2, 2, 2), set-up included.  The
# depolarizing start is the one public construction: every swept channel
# (57) and every pull-back (60 evaluates) is built trusted behind its rounding
# bound.  Validating each of them read (118, 58).
ROUND_VALIDATIONS = (1, 1)


def test_solve_rounds_do_not_revalidate_what_they_built():
    specs = [draw_trial(t, (2, 2, 2), t % 2 == 0) for t in range(3)]
    counts = [0, 0]
    with pytest.MonkeyPatch.context() as mp:
        for k, cls in enumerate((HermOp, ChoiOp)):
            original = cls.__post_init__

            def counted(self, tol, _k=k, _original=original):
                counts[_k] += 1
                return _original(self, tol)

            mp.setattr(cls, "__post_init__", counted)
        traces = solve_batch(specs, replace(HARNESS_CONFIG, max_iters=20))
    assert [trace.iterations for trace in traces] == [20, 20, 20]
    assert tuple(counts) == ROUND_VALIDATIONS


def _failing_eigh(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_eig_failure_is_a_value_error_built_without_svd(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", _failing_eigh)
    forbid_svd(monkeypatch)
    with pytest.raises(EigDecompositionError, match=r"eigh failed to converge \(dim 2,"):
        dist_to_psd(np.diag([1.0, -1.0]))
    assert issubclass(EigDecompositionError, ValueError)


@pytest.mark.parametrize("family", GEN_FAMILIES)
def test_certify_exits_two_when_eigh_fails(family, tmp_path, monkeypatch, capsys):
    path = tmp_path / f"{family}.json"
    assert main(["gen", family, str(path), "--dims", "2", "2", "2", "--seed", "1",
                 "--with-channel"]) == 0
    capsys.readouterr()  # gen's note when it drops ENV
    monkeypatch.setattr(np.linalg, "eigh", _failing_eigh)
    assert main(["certify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "eigh failed to converge" in captured.err
