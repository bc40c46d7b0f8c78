"""Canonical JSON serialization for problems, certificates, and traces.

Design constraints, in order of priority:

* **Determinism**: the same object always serializes to the same bytes.
  Keys are written in a fixed order per object type, floats always with 17
  significant digits (enough to round-trip IEEE doubles), and container
  layout depends only on the data and the requested indent.
* **Round-trip fidelity**: parsing an emitted document and re-emitting it
  reproduces the bytes.  Floats therefore always carry a ``.`` or exponent
  (so they re-parse as floats, not ints), ``-0.0`` is normalized to
  ``0.0``, and the infinities are encoded as the JSON strings ``"inf"`` /
  ``"-inf"`` (JSON has no number for them); ``nan`` is rejected outright.
* **Diffability**: complex matrices are nested row-major arrays of
  ``[re, im]`` pairs, so fixtures remain readable and diffable.

One recursive routine writes every document, and one container routine
lays out every object and list from the text of its items.  Grids and float
lists take a one-pass path rather than one recursive call per row, cell and
float: an ndarray, or a list that is a grid of ``[float, float]`` cells
(checked a whole level at a time), has its leaves formatted in one
``format(x, ".17g")`` pass and set into its cells and rows; a flat list of
floats takes the same leaf pass.  The bytes are those of the per-element
rules above, for every indent; anything else, ints and numpy scalars
included, takes the recursive path.

The problem-file schema is versioned at ``"1"``::

    {
      "version": "1",
      "dims": {"in": 2, "out": 2, "env": 1},
      "objective": {"family": "...", ...family params...},
      "channel": {"kind": "choi" | "kraus" | "povm", ...},   // optional
      "tolerances": {"tau_psd": ..., ...}                    // optional
    }

The families are the classes of ``objectives.FAMILIES``; each parses its
own ``objective`` fields through the reader this module passes it, so the
JSON encoding stays here.  Families that do not read ``dims.env`` require
it to be 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from itertools import chain, repeat

import numpy as np

from .certifier import Certificate, HyklReport
from .choi import BipartiteState, ChoiOp, Povm, _FieldError, choi_from_kraus, q2c_choi
from .linalg import TOL, HermOp, Tolerances, as_array
from .objectives import FAMILIES, Ensemble, ObjectiveSpec, SubgradResult

__all__ = [
    "SchemaError",
    "Problem",
    "VERSION",
    "canonical_json",
    "encode_matrix",
    "decode_matrix",
    "problem_to_dict",
    "parse_problem",
    "loads_problem",
    "certificate_to_dict",
    "hykl_to_dict",
    "trace_to_dict",
    "subgrad_to_dict",
]

VERSION = "1"
# the leaf types of a matrix cell, by exact type: JSON numbers but not booleans
_NUMBER_TYPES = frozenset({int, float})
# the leaf type of a grid the writer emits in one pass
_FLOAT_TYPE = frozenset({float})


class SchemaError(ValueError):
    """Problem or result document violates the JSON schema."""


# ---------------------------------------------------------------------------
# canonical writer


def _fmt_float(x: float) -> str:
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


def _fmt_floats(xs: list) -> list[str]:
    """:func:`_fmt_float` of each value of a list of exactly-``float`` values.

    One ``format`` pass writes every leaf.  A text with a ``.`` or an
    exponent is already :func:`_fmt_float`'s; the rest, the non-finite and
    the integral values (``±0.0`` included), go through it again, so ``nan``
    raises its error."""
    out = list(map(format, xs, repeat(".17g")))
    for i, s in enumerate(out):
        if "." not in s and "e" not in s:
            out[i] = _fmt_float(xs[i])
    return out


def _list_text(items: list[str], indent: int | None, level: int, brackets: str = "[]") -> str:
    """A container at ``level`` whose items are already text: ``"[]"``
    brackets give a list, ``"{}"`` an object of ``key: value`` items."""
    if not items:
        return brackets
    pad = endpad = ""
    if indent is not None:
        pad, endpad = "\n" + " " * (indent * (level + 1)), "\n" + " " * (indent * level)
    return brackets[0] + pad + ("," + pad).join(items) + endpad + brackets[1]


def _grid_text(rows: list, indent: int | None, level: int) -> str:
    """A float grid (see :func:`_is_pair_grid`) at ``level``: its leaves in
    one pass, set into a template of its cells and rows with their levels'
    pads."""
    leaves = _fmt_floats(list(chain.from_iterable(chain.from_iterable(rows))))
    cell = _list_text(["%s", "%s"], indent, level + 2)
    row = _list_text([cell] * len(rows[0]), indent, level + 1)
    return _list_text([row] * len(rows), indent, level) % tuple(leaves)


def _emit(obj, indent: int | None, level: int) -> str:
    """The text of ``obj`` as a value at ``level``."""
    if isinstance(obj, np.ndarray):
        obj = encode_matrix(obj)
        if obj:  # a grid by construction
            return _grid_text(obj, indent, level)
    if type(obj) is list and obj:
        # lists of exactly-float leaves, flat or a matrix grid, in one step
        if set(map(type, obj)) == {float}:
            return _list_text(_fmt_floats(obj), indent, level)
        if _is_pair_grid(obj, _FLOAT_TYPE):
            return _grid_text(obj, indent, level)
    if isinstance(obj, dict):
        sep = ":" if indent is None else ": "
        items = [json.dumps(str(k)) + sep + _emit(v, indent, level + 1) for k, v in obj.items()]
        return _list_text(items, indent, level, "{}")
    if isinstance(obj, (list, tuple)):
        return _list_text([_emit(v, indent, level + 1) for v in obj], indent, level)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj, indent: int | None = None) -> str:
    """Deterministic JSON text for a tree of dicts/lists/scalars and 2-D
    ndarrays (written as ``[re, im]`` matrices)."""
    return _emit(obj, indent, 0) + "\n"


# ---------------------------------------------------------------------------
# matrix codec


def encode_matrix(m) -> list:
    """Row-major nested lists of ``[re, im]`` pairs."""
    a = np.ascontiguousarray(as_array(m))
    n, k = a.shape
    return a.view(np.float64).reshape(n, k, 2).tolist()


def decode_matrix(data, what: str = "matrix") -> np.ndarray:
    """Complex ``(n, m)`` matrix from row-major nested ``[re, im]`` pairs.

    ``data`` is a non-empty list of rows of equal length; each cell is a
    list of exactly two leaves, and a leaf must be an ``int`` or a ``float``
    by exact type, so ``bool``, strings, ``None``, objects and deeper lists
    are rejected.  Entry ``[i, j]`` has the bits of ``complex(re, im)``:
    ``-0.0``, subnormals and ints past 2**53 included.

    Errors are :class:`SchemaError`, reported at the first bad place in
    row-major order:

    * ``{what}: expected a non-empty array of rows`` for anything else at the
      top level;
    * ``{what}: ragged rows`` for a row that is not a list as long as the
      first row;
    * ``{what}[i][j]: expected an [re, im] pair`` for a bad cell or leaf;
    * ``{what}[i][j]: number too large for a double`` for an int beyond the
      double range.

    The checks read a whole level at a time and one ``np.array`` call
    converts every entry; the cell-by-cell walk runs only to name a failure.
    """
    if not isinstance(data, list) or not data:
        raise SchemaError(f"{what}: expected a non-empty array of rows")
    if _is_pair_grid(data):
        try:
            pairs = np.array(data, dtype=np.float64)
        except OverflowError:
            pass  # an int beyond the double range; the walk names its cell
        else:
            # the reshape gives rows without cells their pair axis too
            return pairs.reshape(len(data), len(data[0]), 2).view(np.complex128)[..., 0]
    _raise_first_bad_cell(data, what)


def _is_pair_grid(data: list, leaves: frozenset = _NUMBER_TYPES) -> bool:
    """Whether every row is a list of one length and every cell an
    ``[re, im]`` list of leaves whose exact types are in ``leaves``."""
    if set(map(type, data)) != {list} or len(set(map(len, data))) != 1:
        return False
    cells = list(chain.from_iterable(data))
    return (
        set(map(type, cells)) <= {list}
        and set(map(len, cells)) <= {2}
        and set(map(type, chain.from_iterable(cells))) <= leaves
    )


def _raise_first_bad_cell(data: list, what: str) -> None:
    """Raise the error of the first row or cell :func:`decode_matrix` rejects."""
    width = len(data[0]) if type(data[0]) is list else -1
    for i, row in enumerate(data):
        if type(row) is not list or len(row) != width:
            raise SchemaError(f"{what}: ragged rows")
        for j, cell in enumerate(row):
            if (
                type(cell) is not list
                or len(cell) != 2
                or not set(map(type, cell)) <= _NUMBER_TYPES
            ):
                raise SchemaError(f"{what}[{i}][{j}]: expected an [re, im] pair")
            for v in cell:
                _float(v, f"{what}[{i}][{j}]")


def _float(v, what: str) -> float:
    """``float(v)``; an int beyond the double range is a schema error."""
    try:
        return float(v)
    except OverflowError:
        raise SchemaError(f"{what}: number too large for a double") from None


def _num(data, what: str) -> float:
    if data == "inf":
        return math.inf
    if data == "-inf":
        return -math.inf
    if isinstance(data, bool) or not isinstance(data, (int, float)):
        raise SchemaError(f"{what}: expected a number")
    return _float(data, what)


# ---------------------------------------------------------------------------
# problem files


@dataclass(frozen=True)
class Problem:
    """A parsed problem file.

    ``spec`` is always one of the evaluable objective families (a
    ``Discrimination`` document is lowered to its linear objective, with
    the raw ensemble retained in ``ensemble``).  ``channel`` is present
    when the document carried one in any encoding; ``povm`` is retained
    when that encoding was a measurement.
    """

    version: str
    dims: tuple[int, int, int]
    spec: ObjectiveSpec
    ensemble: Ensemble | None
    channel: ChoiOp | None
    povm: Povm | None
    tol: Tolerances


def _require(data: dict, key: str, what: str):
    if key not in data:
        raise SchemaError(f"{what}: missing key {key!r}")
    return data[key]


def _parse_dims(data) -> tuple[int, int, int]:
    if not isinstance(data, dict):
        raise SchemaError("dims: expected an object")
    out = []
    for key in ("in", "out", "env"):
        v = _require(data, key, "dims")
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise SchemaError(f"dims.{key}: expected a positive integer")
        out.append(v)
    return tuple(out)  # type: ignore[return-value]


def _parse_tolerances(data) -> Tolerances:
    if data is None:
        return TOL
    if not isinstance(data, dict):
        raise SchemaError("tolerances: expected an object")
    known = {f.name for f in fields(Tolerances)}
    bad = set(data) - known
    if bad:
        raise SchemaError(f"tolerances: unknown keys {sorted(bad)}")
    vals = {}
    for k, v in data.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 < v < math.inf:
            raise SchemaError(f"tolerances.{k}: expected a positive finite number")
        vals[k] = _float(v, f"tolerances.{k}")
    return Tolerances(**vals)


class _Fields:
    """Reads the fields of one document object into judged operands; each
    error names its path."""

    def __init__(self, data: dict, path: str, tol: Tolerances):
        self.data, self.path, self.tol = data, path, tol

    def _array(self, key: str, count: int | None = None) -> list:
        items = _require(self.data, key, self.path)
        if not isinstance(items, list):
            raise SchemaError(f"{self.path}.{key}: expected an array")
        if count is not None and len(items) != count:
            raise SchemaError(f"{self.path}.{key}: expected {count} matrices, got {len(items)}")
        return items

    def _matrix(self, data, shape: tuple[int, int], field: str) -> np.ndarray:
        """``data``, the value of ``field``, decoded to a matrix of ``shape``."""
        what = f"{self.path}.{field}"
        m = decode_matrix(data, what)
        if m.shape != shape:
            raise SchemaError(f"{what}: shape {m.shape} != {shape}")
        return m

    def matrices(self, key: str, shape: tuple[int, int], count: int | None = None):
        """Each matrix of the array at ``key`` in turn, of ``shape``; exactly
        ``count`` of them when given."""
        for k, m in enumerate(self._array(key, count)):
            yield self._matrix(m, shape, f"{key}[{k}]")

    def judged(self, key: str, build, *args):
        """``build(*args)``, a ``ValueError`` it raises reported under ``key``,
        or under the field the error names (:class:`choi._FieldError`)."""
        try:
            return build(*args)
        except ValueError as exc:
            field = exc.field if isinstance(exc, _FieldError) and exc.field else key
            raise SchemaError(f"{self.path}.{field}: {exc}") from exc

    def op(self, key: str, dim: int) -> HermOp:
        m = self._matrix(_require(self.data, key, self.path), (dim, dim), key)
        return self.judged(key, HermOp, m, self.tol)

    def ops(self, key: str, dim: int, count: int | None = None) -> tuple[HermOp, ...]:
        mats = self.matrices(key, (dim, dim), count)
        return tuple(self.judged(f"{key}[{k}]", HermOp, m, self.tol) for k, m in enumerate(mats))

    def state(self, key: str, dim_sys: int, dim_env: int) -> BipartiteState:
        op = self.op(key, dim_sys * dim_env)
        return self.judged(key, BipartiteState, op, dim_sys, dim_env, self.tol)

    def probs(self, key: str) -> np.ndarray:
        items = self._array(key)
        return np.array([_num(p, f"{self.path}.{key}[{k}]") for k, p in enumerate(items)])


def _parse_objective(
    data, dims: tuple[int, int, int], tol: Tolerances
) -> tuple[ObjectiveSpec, Ensemble | None]:
    if not isinstance(data, dict):
        raise SchemaError("objective: expected an object")
    family = _require(data, "family", "objective")
    cls = {c.family: c for c in FAMILIES}.get(family) if isinstance(family, str) else None
    if cls is None:
        raise SchemaError(f"objective.family: unknown family {family!r}")
    if dims[2] != 1 and not cls.uses_env:
        raise SchemaError(f"{family}: dims.env must be 1")
    return cls.parse(_Fields(data, "objective", tol), dims)


def _parse_channel(
    data, dims: tuple[int, int, int], tol: Tolerances
) -> tuple[ChoiOp | None, Povm | None]:
    if data is None:
        return None, None
    if not isinstance(data, dict):
        raise SchemaError("channel: expected an object")
    kind = _require(data, "kind", "channel")
    d_in, d_out, _ = dims
    doc = _Fields(data, "channel", tol)
    if kind == "choi":
        return doc.judged("matrix", ChoiOp, doc.op("matrix", d_out * d_in), d_out, d_in, tol), None
    if kind == "kraus":
        mats = list(doc.matrices("operators", (d_out, d_in)))
        return doc.judged("operators", choi_from_kraus, mats, tol), None
    if kind == "povm":
        povm = doc.judged("elements", Povm, doc.ops("elements", d_in, count=d_out), tol)
        return q2c_choi(povm, tol), povm
    raise SchemaError(f"channel.kind: unknown kind {kind!r}")


def parse_problem(data, overrides: dict | None = None) -> Problem:
    """Validate and load a problem document (parsed JSON tree).

    ``overrides`` maps ``Tolerances`` field names to values that replace the
    document's own before any input is judged (the CLI's ``--tol-*`` flags).
    """
    if not isinstance(data, dict):
        raise SchemaError("problem: expected a JSON object")
    version = _require(data, "version", "problem")
    if version != VERSION:
        raise SchemaError(f"problem.version: expected {VERSION!r}, got {version!r}")
    known = {"version", "dims", "objective", "channel", "tolerances"}
    bad = set(data) - known
    if bad:
        raise SchemaError(f"problem: unknown keys {sorted(bad)}")
    dims = _parse_dims(_require(data, "dims", "problem"))
    tol = _parse_tolerances(data.get("tolerances"))
    if overrides:
        tol = replace(tol, **overrides)
    try:
        spec, ens = _parse_objective(_require(data, "objective", "problem"), dims, tol)
        channel, povm = _parse_channel(data.get("channel"), dims, tol)
    except SchemaError:
        raise
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"problem: {exc}") from exc
    return Problem(version, dims, spec, ens, channel, povm, tol)


def loads_problem(text: str, overrides: dict | None = None) -> Problem:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested past the stack
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return parse_problem(data, overrides)


def problem_to_dict(
    dims: tuple[int, int, int],
    objective: dict,
    channel: dict | None = None,
    tolerances: dict | None = None,
) -> dict:
    """Assemble a problem document with canonical key order."""
    doc = {
        "version": VERSION,
        "dims": {"in": dims[0], "out": dims[1], "env": dims[2]},
        "objective": objective,
    }
    if channel is not None:
        doc["channel"] = channel
    if tolerances is not None:
        doc["tolerances"] = tolerances
    return doc


# ---------------------------------------------------------------------------
# results


def subgrad_to_dict(res: SubgradResult) -> dict:
    return {
        "value": res.value,
        "exact_gradient": res.exact_gradient,
        "valid_subgradient": res.valid_subgradient,
        "inclusion_ok": res.inclusion_ok,
        "inclusion_defect": res.inclusion_defect,
    }


def certificate_to_dict(cert: Certificate, res: SubgradResult | None = None) -> dict:
    doc = {"verdict": cert.verdict}
    if res is not None:
        doc.update(subgrad_to_dict(res))
    doc.update(
        {
            "bound": cert.bound,
            "epsilon": cert.epsilon,
            "herm_defect": cert.herm_defect,
            "min_eig": cert.min_eig,
            "scale": cert.scale,
            "z": encode_matrix(cert.z),
        }
    )
    return doc


def hykl_to_dict(rep: HyklReport) -> dict:
    return {
        "optimal": rep.optimal,
        "herm_defect": rep.herm_defect,
        "min_eigs": list(rep.min_eigs),
        "scale": rep.scale,
        "r": encode_matrix(rep.r),
    }


def trace_to_dict(trace) -> dict:
    return {
        "best_value": trace.best_value,
        "iterations": trace.iterations,
        "converged": trace.converged,
        "final_bound": trace.final_bound,
        "gap": trace.gap,
        "values": list(trace.values),
        "best_choi": encode_matrix(trace.best_choi.mat),
    }
