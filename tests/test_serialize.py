import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancert import cli, serialize
from chancert.certifier import certify_objective, hykl_check
from chancert.cli import GEN_FAMILIES, main
from chancert.linalg import HermOp, as_array
from chancert.objectives import (
    Ensemble,
    FidelityObjective,
    FidelitySquaredObjective,
    LinearObjective,
    RelativeEntropyObjective,
    TraceDistanceObjective,
    discrimination_objective,
)
from chancert.serialize import (
    SchemaError,
    canonical_json,
    certificate_to_dict,
    decode_matrix,
    encode_matrix,
    hykl_to_dict,
    loads_problem,
    parse_problem,
    problem_to_dict,
    trace_to_dict,
)
from chancert.solvers import SolverConfig, helstrom_povm, random_density, solve
from conftest import rand_herm

seeds = st.integers(min_value=0, max_value=2**31 - 1)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


# ------------------------------------------------------------ float format


def test_float_formatting_rules():
    assert canonical_json(1.0) == "1.0\n"
    assert canonical_json(-0.0) == "0.0\n"
    assert canonical_json(math.inf) == '"inf"\n'
    assert canonical_json(-math.inf) == '"-inf"\n'
    assert canonical_json(3) == "3\n"
    assert canonical_json(True) == "true\n"
    assert canonical_json([[[3, 0.0]]]) == "[[[3,0.0]]]\n"  # an int leaf stays an int
    with pytest.raises(ValueError):
        canonical_json(float("nan"))


@given(finite_floats)
@settings(max_examples=200)
def test_floats_round_trip_exactly(x):
    s = canonical_json(x)
    y = json.loads(s)
    if x == 0.0:
        assert y == 0.0  # sign of zero is deliberately dropped
    else:
        assert y == x and isinstance(y, float)


def test_emission_is_stable_under_parse_reemit():
    doc = {"b": [1.5, {"x": -0.25}], "a": "text", "c": {"nested": [True, None]}}
    text = canonical_json(doc)
    assert canonical_json(json.loads(text)) == text
    pretty = canonical_json(doc, indent=2)
    assert canonical_json(json.loads(pretty), indent=2) == pretty
    assert json.loads(pretty) == json.loads(text)


# ------------------------------------------------------------- matrix codec


@given(seeds)
@settings(max_examples=50)
def test_matrix_codec_is_exact(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    out = decode_matrix(encode_matrix(m))
    assert np.array_equal(out, m)
    # and survives a JSON trip
    out2 = decode_matrix(json.loads(canonical_json(encode_matrix(m))))
    assert np.array_equal(out2, m)


# JSON numbers of every kind a matrix leaf can be: ints (also past 2**53),
# signed zeros, subnormals and the ends of the double range
matrix_leaves = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308]),
    finite_floats,
)


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=200)
def test_decode_matrix_matches_complex_of_each_cell(n, m, data):
    cells = data.draw(st.lists(st.lists(st.lists(matrix_leaves, min_size=2, max_size=2),
                                        min_size=m, max_size=m), min_size=n, max_size=n))
    ref = np.empty((n, m), dtype=np.complex128)
    for i, row in enumerate(cells):
        for j, (re_, im_) in enumerate(row):
            ref[i, j] = complex(re_, im_)
    out = decode_matrix(cells)
    assert out.shape == (n, m) and out.dtype == np.complex128
    assert out.tobytes() == ref.tobytes()


def _rejection(data) -> str:
    with pytest.raises(SchemaError) as info:
        decode_matrix(data, "m")
    return str(info.value)


def test_matrix_codec_rejections():
    pair = [1.0, 0.0]
    assert _rejection([]) == "m: expected a non-empty array of rows"
    assert _rejection({"0": [pair]}) == "m: expected a non-empty array of rows"
    assert _rejection([[pair], [pair, [2.0, 0.0]]]) == "m: ragged rows"
    assert _rejection([[pair], 5]) == "m: ragged rows"  # a row that is not a list
    assert _rejection([5, [pair]]) == "m: ragged rows"
    assert _rejection([[[1.0]]]) == "m[0][0]: expected an [re, im] pair"
    assert _rejection([[pair, [1.0, "zero"]]]) == "m[0][1]: expected an [re, im] pair"
    assert _rejection([[pair], [[True, 0.0]]]) == "m[1][0]: expected an [re, im] pair"
    assert _rejection([[pair, [None, 0.0]]]) == "m[0][1]: expected an [re, im] pair"
    assert _rejection([[pair], [{"re": 1.0, "im": 0.0}]]) == "m[1][0]: expected an [re, im] pair"
    assert _rejection([[[[1.0], 0.0]]]) == "m[0][0]: expected an [re, im] pair"  # 3 deep
    assert _rejection([[pair, [0.0, -(10**400)]]]) == "m[0][1]: number too large for a double"
    # the first failure in row-major order is the one reported
    assert _rejection([[pair, [1.0]], [[10**400, 0]]]) == "m[0][1]: expected an [re, im] pair"
    assert _rejection([[[10**400, 0]], 5]) == "m[0][0]: number too large for a double"


# ------------------------------------- one-pass writer against the oracle
#
# The writer before grids were emitted in one pass: one recursive call per
# row, per [re, im] cell and per float.  canonical_json must keep its bytes.


def _ref_fmt_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("nan is not serializable")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == 0.0:
        x = 0.0  # normalize -0.0
    s = format(x, ".17g")
    if "." not in s and "e" not in s and "inf" not in s:
        s += ".0"
    return s


def _ref_encode_matrix(m) -> list:
    a = as_array(m)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def _ref_emit(obj, out: list, indent, level: int) -> None:
    pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
    endpad = "" if indent is None else "\n" + " " * (indent * level)
    if isinstance(obj, np.ndarray):
        obj = _ref_encode_matrix(obj)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(pad)
            out.append(json.dumps(str(k)))
            out.append(": " if indent is not None else ":")
            _ref_emit(v, out, indent, level + 1)
        out.append(endpad)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            out.append(pad)
            _ref_emit(v, out, indent, level + 1)
        out.append(endpad)
        out.append("]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_ref_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _ref_json(obj, indent=None) -> str:
    out: list = []
    _ref_emit(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


INDENTS = [None, 0, 1, 3]
# leaves whose text the one-pass format gets wrong, and the ends of the range
SPECIAL_LEAVES = [-0.0, 0.0, 1.0, 1e16, -3.0, 5e-324, 1.7e308, math.inf, -math.inf]
float_leaves = st.one_of(st.sampled_from(SPECIAL_LEAVES), finite_floats)


def _grids(leaves, max_rows=4, min_cols=0, max_cols=4):
    """Grids of ``[re, im]`` cells; 0 columns gives rows without cells."""
    return st.integers(1, max_rows).flatmap(lambda n: st.integers(min_cols, max_cols).flatmap(
        lambda m: st.lists(st.lists(st.lists(leaves, min_size=2, max_size=2),
                                    min_size=m, max_size=m), min_size=n, max_size=n)))


@given(_grids(float_leaves), st.lists(float_leaves, max_size=5), st.sampled_from(INDENTS))
@settings(max_examples=300)
def test_float_grids_match_the_recursive_writer(grid, flat, indent):
    doc = {"m": grid, "values": flat, "nested": [grid, {"k": grid}]}
    for obj in (grid, flat, doc):
        assert canonical_json(obj, indent) == _ref_json(obj, indent)


@given(_grids(st.floats(allow_nan=False, width=64), max_rows=1, min_cols=1, max_cols=1),
       st.sampled_from(INDENTS))
def test_one_by_one_grids_match_the_recursive_writer(grid, indent):
    assert canonical_json(grid, indent) == _ref_json(grid, indent)
    m = np.array([[complex(*grid[0][0])]])
    assert canonical_json(m, indent) == _ref_json(m, indent)


@given(st.sampled_from(INDENTS), st.integers(1, 5))
def test_grids_of_empty_rows_match_the_recursive_writer(indent, rows):
    grid = [[] for _ in range(rows)]
    assert canonical_json(grid, indent) == _ref_json(grid, indent)
    m = np.zeros((rows, 0), dtype=complex)
    assert canonical_json(m, indent) == _ref_json(m, indent)
    assert canonical_json(np.zeros((0, rows)), indent) == "[]\n"


# leaves the one-pass path must not take: ints print without ".0", and
# numpy scalars are not exactly float
foreign_leaves = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from(SPECIAL_LEAVES).map(np.float64),
    finite_floats.map(np.float64),
)


@given(_grids(float_leaves, min_cols=1, max_cols=3), st.data(), st.sampled_from(INDENTS))
@settings(max_examples=200)
def test_grids_with_int_or_numpy_leaves_keep_the_general_path(grid, data, indent):
    i = data.draw(st.integers(0, len(grid) - 1))
    j = data.draw(st.integers(0, len(grid[i]) - 1))
    grid[i][j] = [data.draw(foreign_leaves), grid[i][j][1]]
    flat = [1.0, data.draw(foreign_leaves), -0.0]
    for obj in (grid, flat, {"m": grid, "v": flat}):
        assert canonical_json(obj, indent) == _ref_json(obj, indent)


@pytest.mark.parametrize("obj", [
    [[[1.0, math.nan]]],
    [[[1.0, 0.0], [0.0, 1.0]], [[math.nan, 0.0], [1.0, 0.0]]],
    [0.5, math.nan],
    np.array([[1.0, complex(0.0, math.nan)]]),
    {"z": np.array([[math.nan]])},
])
@pytest.mark.parametrize("indent", INDENTS)
def test_nan_is_rejected_on_the_one_pass_path(obj, indent):
    with pytest.raises(ValueError) as info:
        canonical_json(obj, indent)
    assert type(info.value) is ValueError
    assert str(info.value) == "nan is not serializable"


# strings with JSON escapes and non-ASCII text
strings = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé∑😀'), st.characters()),
                  max_size=6)
scalars = st.one_of(
    st.booleans(), st.none(), st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64), float_leaves, float_leaves.map(np.float64),
    strings,
)
small_arrays = st.one_of(
    _grids(float_leaves, max_rows=2, min_cols=1, max_cols=2).map(
        lambda g: np.array([[complex(*cell) for cell in row] for row in g])),
    st.sampled_from([np.zeros((2, 0), dtype=complex), np.zeros((0, 2)), np.eye(2)]),
)
trees = st.recursive(
    st.one_of(scalars, _grids(float_leaves, max_rows=2, max_cols=2),
              st.lists(float_leaves, max_size=3), small_arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(strings, st.integers(-3, 3)), children, max_size=4),
    ),
    max_leaves=20,
)


@pytest.mark.parametrize("indent", INDENTS)
@given(trees)
@settings(max_examples=150)
def test_general_trees_match_the_recursive_writer(indent, tree):
    assert canonical_json(tree, indent) == _ref_json(tree, indent)


@pytest.mark.parametrize("indent", INDENTS)
def test_unserializable_values_name_their_error(indent):
    for obj in ({2}, {"a": [1, {2}]}, ("x", {"b": {0.5}})):
        with pytest.raises(TypeError) as info:
            canonical_json(obj, indent)
        assert str(info.value) == "cannot serialize set"
    # in scalar position, where the one-pass path does not reach
    for obj in (math.nan, np.float64(math.nan), {"x": [1, math.nan]}, (0.5, math.nan)):
        with pytest.raises(ValueError) as info:
            canonical_json(obj, indent)
        assert type(info.value) is ValueError
        assert str(info.value) == "nan is not serializable"


def _run_with_oracle(argv, indent, monkeypatch):
    """Exit code and stdout of ``chancert argv``, and the oracle's text of
    each document the command wrote."""
    oracle = []

    def writer(obj, indent=None):
        oracle.append(_ref_json(obj, indent))
        return canonical_json(obj, indent)

    monkeypatch.setattr(cli, "canonical_json", writer)
    if indent is not None:
        argv = [*argv, "--json-indent", str(indent)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue(), oracle


@pytest.mark.parametrize("indent", [None, 2])
@pytest.mark.parametrize("family", GEN_FAMILIES)
def test_benchmark_scale_documents_match_the_oracle(family, indent, monkeypatch):
    argv = ["gen", family, "-", "--dims", "8", "8", "8", "--seed", "8", "--with-channel"]
    rc, text, oracle = _run_with_oracle(argv, indent, monkeypatch)
    assert rc == 0 and oracle == [text]
    parsed = json.loads(text)
    assert canonical_json(parsed, indent) == text
    assert _ref_json(parsed, indent) == text


@pytest.fixture(scope="module")
def discrimination_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("oracle") / "disc.json"
    argv = ["gen", "discrimination", str(path), "--seed", "2", "--with-channel"]
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return str(path)


@pytest.mark.parametrize("indent", [None, 0, 3])
@pytest.mark.parametrize("command", [
    ["certify"], ["solve", "--max-iters", "5"], ["hykl", "--via-choi"],
    ["conjecture", "--trials", "2", "--max-iters", "5"],
], ids=lambda c: c[0])
def test_every_command_output_matches_the_oracle(command, indent, discrimination_file,
                                                 monkeypatch):
    name, *flags = command
    argv = [name, *flags] if name == "conjecture" else [name, discrimination_file, *flags]
    rc, text, oracle = _run_with_oracle(argv, indent, monkeypatch)
    assert rc in (0, 3, 4) and text and oracle == [text]


def _arrays():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    a[0, 0], a[1, 2], a[2, 1] = -0.0, complex(0.0, -0.0), complex(-0.0, 3.0)
    yield "transposed", a.T
    yield "conj-transposed", a.conj().T
    yield "strided", a[::2, 1::2]
    yield "reversed", a[::-1, ::-1]
    yield "column", a[:, 3:4]
    yield "fortran", np.asfortranarray(a)
    yield "real", a.real.T
    yield "int", np.arange(12).reshape(3, 4)
    yield "hermop", HermOp(rand_herm(4, rng))
    yield "no-columns", a[:, :0]


@pytest.mark.parametrize("name, m", list(_arrays()), ids=[n for n, _ in _arrays()])
def test_encode_matrix_matches_per_element_encoding(name, m):
    got = encode_matrix(m)
    assert repr(got) == repr(_ref_encode_matrix(m))  # repr tells -0.0 from 0.0
    assert {type(x) for row in got for cell in row for x in cell} <= {float}


def _count_emit(monkeypatch, obj) -> int:
    """Calls of ``serialize._emit``, recursive ones included, to write ``obj``."""
    calls = [0]
    emit = serialize._emit

    def counted(*args):
        calls[0] += 1
        return emit(*args)

    monkeypatch.setattr(serialize, "_emit", counted)
    canonical_json(obj)
    monkeypatch.setattr(serialize, "_emit", emit)
    return calls[0]


def test_a_grid_is_emitted_in_one_call(monkeypatch):
    """Per-cell recursion made 1 + 64 + 64 * 64 * 3 = 12 353 calls here."""
    m = np.random.default_rng(3).standard_normal((64, 64)) * (1 + 1j)
    assert _count_emit(monkeypatch, m) == 1
    assert _count_emit(monkeypatch, encode_matrix(m)) == 1
    assert _count_emit(monkeypatch, {"z": m, "values": [0.5] * 100}) == 3


# ------------------------------------------------------------ problem files


def _mat(m):
    return encode_matrix(np.asarray(m, dtype=complex))


def _density_doc(d, seed):
    return _mat(random_density(d, np.random.default_rng(seed)))


def _problem_docs():
    """One document per objective family, various channel encodings."""
    plus = np.full((2, 2), 0.5)
    e11 = np.diag([1.0, 0.0])
    docs = {
        "Linear": problem_to_dict(
            (2, 2, 1),
            {"family": "Linear", "h0": _mat(np.diag([0.5, 0.0, 0.0, 0.25]))},
            {"kind": "choi", "matrix": _mat(np.kron(np.eye(2) / 2.0, np.eye(2)))},
        ),
        "Discrimination": problem_to_dict(
            (2, 2, 1),
            {"family": "Discrimination", "probs": [0.5, 0.5], "states": [_mat(e11), _mat(plus)]},
            {"kind": "povm", "elements": [_mat(e11), _mat(np.eye(2) - e11)]},
        ),
        "TraceDistance": problem_to_dict(
            (2, 2, 2),
            {
                "family": "TraceDistance",
                "rho": _density_doc(4, 1),
                "sigma": _density_doc(4, 2),
            },
            {"kind": "kraus", "operators": [_mat(np.eye(2))]},
        ),
        "Fidelity": problem_to_dict(
            (2, 3, 1),
            {
                "family": "Fidelity",
                "rho": _density_doc(2, 3),
                "sigma": _density_doc(3, 4),
            },
        ),
        "RelativeEntropy": problem_to_dict(
            (2, 2, 1),
            {
                "family": "RelativeEntropy",
                "rho": _density_doc(2, 5),
                "sigma": _density_doc(2, 6),
            },
            tolerances={"tau_psd": 1e-7},
        ),
        "FidelitySquaredEnsemble": problem_to_dict(
            (2, 2, 1),
            {
                "family": "FidelitySquaredEnsemble",
                "probs": [0.25, 0.75],
                "inputs": [_density_doc(2, 7), _density_doc(2, 8)],
                "targets": [_density_doc(2, 9), _density_doc(2, 10)],
            },
        ),
    }
    return docs


EXPECTED_SPEC = {
    "Linear": LinearObjective,
    "Discrimination": LinearObjective,
    "TraceDistance": TraceDistanceObjective,
    "Fidelity": FidelityObjective,
    "RelativeEntropy": RelativeEntropyObjective,
    "FidelitySquaredEnsemble": FidelitySquaredObjective,
}


@pytest.mark.parametrize("family", sorted(EXPECTED_SPEC))
def test_problem_documents_parse_and_reemit_bytes(family):
    doc = _problem_docs()[family]
    text = canonical_json(doc)
    prob = loads_problem(text)
    assert isinstance(prob.spec, EXPECTED_SPEC[family])
    assert canonical_json(json.loads(text)) == text


def test_discrimination_keeps_ensemble_and_povm():
    prob = loads_problem(canonical_json(_problem_docs()["Discrimination"]))
    assert prob.ensemble is not None and prob.ensemble.outcomes == 2
    assert prob.povm is not None and len(prob.povm.elements) == 2
    assert prob.channel is not None  # measure-and-record lowering
    h0 = discrimination_objective(prob.ensemble)
    assert np.allclose(prob.spec.h0.mat, h0.mat, atol=1e-15)


def test_kraus_channel_parses_to_identity_choi():
    prob = loads_problem(canonical_json(_problem_docs()["TraceDistance"]))
    bell = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            bell[a * 2 + a, b * 2 + b] = 1.0
    assert np.allclose(prob.channel.mat, bell, atol=1e-15)


def test_tolerance_override_is_applied():
    prob = loads_problem(canonical_json(_problem_docs()["RelativeEntropy"]))
    assert prob.tol.tau_psd == 1e-7
    assert prob.tol.tau_herm == 1e-9  # others keep defaults


def test_problem_rejections():
    good = _problem_docs()["Linear"]
    cases = []

    def variant(mutate):
        doc = json.loads(canonical_json(good))
        mutate(doc)
        cases.append(doc)

    variant(lambda d: d.update(version="2"))
    variant(lambda d: d.pop("objective"))
    variant(lambda d: d.update(extra=1))
    variant(lambda d: d["dims"].update({"env": 0}))
    variant(lambda d: d["dims"].pop("in"))
    variant(lambda d: d["objective"].update(family="Entropy"))
    variant(lambda d: d["objective"].update(h0=[[[1.0, 0.0]]]))  # wrong dim
    variant(lambda d: d["channel"].update(kind="unitary"))
    variant(lambda d: d.update(tolerances={"tau_psd": -1.0}))
    variant(lambda d: d.update(tolerances={"tau_fancy": 1.0}))
    for doc in cases:
        with pytest.raises(SchemaError):
            parse_problem(doc)
    for family in ("Entropy", ["Linear"], {"Linear": 1}):  # unknown, unhashable
        doc = json.loads(canonical_json(good))
        doc["objective"]["family"] = family
        with pytest.raises(SchemaError, match="objective.family"):
            parse_problem(doc)
    with pytest.raises(SchemaError):
        loads_problem("{not json")
    with pytest.raises(SchemaError):
        parse_problem(["not", "an", "object"])


# The objective fields of each family document: a matrix, an array of
# matrices, or a probability array.
FAMILY_FIELDS = {
    "Linear": {"h0": "matrix"},
    "Discrimination": {"probs": "probs", "states": "matrices"},
    "TraceDistance": {"rho": "matrix", "sigma": "matrix"},
    "Fidelity": {"rho": "matrix", "sigma": "matrix"},
    "RelativeEntropy": {"rho": "matrix", "sigma": "matrix"},
    "FidelitySquaredEnsemble": {"probs": "probs", "inputs": "matrices", "targets": "matrices"},
}
NO_ENV = ("Linear", "Discrimination", "FidelitySquaredEnsemble")
ONE_BY_ONE = [[[1.0, 0.0]]]


def _family_rejections():
    for family, fields in FAMILY_FIELDS.items():
        for key, kind in fields.items():
            yield family, key, "missing", lambda o, k=key: o.pop(k)
            yield family, key, "non-array", lambda o, k=key: o.update({k: 1.0})
            if kind == "matrix":
                yield family, key, "wrong-dim", lambda o, k=key: o.update({k: ONE_BY_ONE})
            if kind == "matrices":
                yield family, key, "wrong-dim", lambda o, k=key: o[k].__setitem__(0, ONE_BY_ONE)
    for family in NO_ENV:
        yield family, "dims.env", "env-2", None


@pytest.mark.parametrize(
    "family, key, mutate",
    [pytest.param(f, k, m, id=f"{f}-{k}-{what}") for f, k, what, m in _family_rejections()],
)
def test_family_document_rejections_name_the_key(family, key, mutate):
    doc = json.loads(canonical_json(_problem_docs()[family]))
    if mutate is None:
        doc["dims"]["env"] = 2
    else:
        mutate(doc["objective"])
    with pytest.raises(SchemaError, match=re.escape(key)):
        parse_problem(doc)


def test_non_hermitian_matrices_name_their_path():
    skew = _mat(np.array([[0.5, 1.0], [0.0, 0.5]]))
    doc = json.loads(canonical_json(_problem_docs()["Discrimination"]))
    doc["objective"]["states"][1] = skew
    with pytest.raises(SchemaError, match=re.escape("objective.states[1]: matrix is not Hermitian")):
        parse_problem(doc)
    doc = json.loads(canonical_json(_problem_docs()["Discrimination"]))
    doc["channel"]["elements"][0] = skew
    with pytest.raises(SchemaError, match=re.escape("channel.elements[0]: matrix is not Hermitian")):
        parse_problem(doc)


def test_ensemble_state_errors_name_their_path():
    doc = json.loads(canonical_json(_problem_docs()["Discrimination"]))
    doc["objective"]["states"][1] = _mat(np.diag([1.5, 0.5]))  # trace 2
    with pytest.raises(SchemaError) as info:
        parse_problem(doc)
    assert str(info.value).startswith("objective.states[1]: ")
    assert "has trace 2.0, expected 1" in str(info.value)
    doc["objective"]["states"][1] = _mat(np.diag([1.5, -0.5]))  # trace 1, not PSD
    with pytest.raises(SchemaError) as info:
        parse_problem(doc)
    assert str(info.value).startswith("objective.states[1]: ensemble state 1 is not PSD")


@pytest.mark.parametrize("field", ["inputs", "targets"])
def test_fidelity_squared_pair_errors_name_their_path(field):
    doc = json.loads(canonical_json(_problem_docs()["FidelitySquaredEnsemble"]))
    doc["objective"][field][1] = _mat(np.diag([1.5, -0.5]))  # trace 1, not PSD
    with pytest.raises(SchemaError) as info:
        parse_problem(doc)
    name = field[:-1]
    assert str(info.value) == (f"objective.{field}[1]: ensemble {name} 1 is not PSD "
                               "(min eigenvalue -5.000e-01)")


@pytest.mark.parametrize("family", ["Discrimination", "FidelitySquaredEnsemble"])
@pytest.mark.parametrize("probs", [[1.2, -0.2], [0.5, 0.6]])
def test_prior_errors_name_their_path(family, probs):
    doc = json.loads(canonical_json(_problem_docs()[family]))
    doc["objective"]["probs"] = probs
    with pytest.raises(SchemaError) as info:
        parse_problem(doc)
    assert str(info.value).startswith("objective.probs: ")
    assert "probab" in str(info.value)


def test_non_finite_tolerance_is_a_schema_error():
    doc = _problem_docs()["RelativeEntropy"]
    doc["tolerances"] = {"tau_psd": "overflow"}
    text = canonical_json(doc).replace('"overflow"', "1e400")  # parses to inf
    with pytest.raises(SchemaError, match="tolerances.tau_psd"):
        loads_problem(text)


def test_povm_element_count_must_match_dims_out():
    doc = _problem_docs()["Discrimination"]
    doc = json.loads(canonical_json(doc))
    doc["channel"]["elements"].append(_mat(np.zeros((2, 2))))
    with pytest.raises(SchemaError):
        parse_problem(doc)


def test_psd_violations_surface_as_schema_errors():
    for field, dim in (("rho", 2), ("sigma", 3)):
        doc = json.loads(canonical_json(_problem_docs()["Fidelity"]))
        doc["objective"][field] = _mat(np.diag([1.5] + [-0.5] * (dim - 1)))
        with pytest.raises(SchemaError) as exc:
            parse_problem(doc)
        assert str(exc.value) == f"objective.{field}: bipartite state is not PSD within tolerance"


# ----------------------------------------------------------------- results


def _helstrom_bits():
    plus = np.full((2, 2), 0.5)
    ens = Ensemble((0.5, 0.5), (HermOp(np.diag([1.0, 0.0])), HermOp(plus)))
    povm, _ = helstrom_povm(ens)
    return ens, povm


def test_certificate_document_round_trip():
    from chancert.choi import q2c_choi

    ens, povm = _helstrom_bits()
    spec = LinearObjective(discrimination_objective(ens), 2, 2)
    res, cert = certify_objective(spec, q2c_choi(povm))
    doc = certificate_to_dict(cert, res)
    text = canonical_json(doc, indent=2)
    assert canonical_json(json.loads(text), indent=2) == text
    back = json.loads(text)
    assert back["verdict"] == cert.verdict
    assert back["bound"] == cert.bound
    assert back["min_eig"] == cert.min_eig
    assert np.array_equal(decode_matrix(back["z"]), cert.z.mat)


def test_certificate_infinite_bound_uses_string_sentinel():
    ens, povm = _helstrom_bits()
    from chancert.choi import q2c_choi

    _, cert = certify_objective(
        LinearObjective(discrimination_objective(ens), 2, 2), q2c_choi(povm)
    )
    from dataclasses import replace

    doc = certificate_to_dict(replace(cert, verdict="NotCertified", bound=math.inf))
    text = canonical_json(doc)
    assert '"bound":"inf"' in text.replace(" ", "")
    assert json.loads(text)["bound"] == "inf"


def test_hykl_and_trace_documents_are_canonical():
    ens, povm = _helstrom_bits()
    rep = hykl_check(ens, povm)
    text = canonical_json(hykl_to_dict(rep))
    assert canonical_json(json.loads(text)) == text

    spec = LinearObjective(discrimination_objective(ens), 2, 2)
    tr = solve(spec, SolverConfig(max_iters=5))
    text = canonical_json(trace_to_dict(tr))
    assert canonical_json(json.loads(text)) == text
    parsed = json.loads(text)
    assert parsed["iterations"] == tr.iterations
    assert parsed["converged"] is tr.converged


@given(seeds)
@settings(max_examples=25)
def test_linear_problem_value_survives_serialization(seed):
    """Serialize a random linear problem + channel; the parsed copy evaluates
    to the same objective value bit for bit."""
    from chancert.choi import q2c_choi
    from chancert.objectives import evaluate
    from chancert.solvers import random_channel_choi

    rng = np.random.default_rng(seed)
    h0 = rand_herm(4, rng)
    j = random_channel_choi(2, 2, rng)
    doc = problem_to_dict(
        (2, 2, 1),
        {"family": "Linear", "h0": _mat(h0)},
        {"kind": "choi", "matrix": _mat(j.mat)},
    )
    prob = loads_problem(canonical_json(doc))
    v1 = evaluate(prob.spec, prob.channel).value
    v2 = evaluate(LinearObjective(HermOp(h0), 2, 2), j).value
    assert v1 == v2
