"""Golden byte-identity corpus for the CLI.

Every case is one ``chancert`` command: ``gen`` to standard output, a
command on a generated problem file, or ``conjecture``; the fixture
``golden_cli.json`` holds its exact stdout and exit code.  A change
that claims byte-identical output must keep every case passing.  The bytes
depend on the numpy build and the BLAS, so the fixture records both and the
test skips on any other combination.

To re-record the fixture (only at a commit whose output is trusted)::

    PYTHONPATH=src python tests/test_golden.py

It prints to standard error each case whose exit code or stdout moved
against the fixture it replaces: the JSON keys that moved, their old and
new values, and the largest relative change.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import pathlib
import sys

import pytest

from chancert.choi import ChoiOp
from chancert.cli import GEN_FAMILIES, main
from chancert.linalg import HermOp
from conftest import GOLDEN_FIXTURE as FIXTURE
from conftest import assembled, build_environment

SEEDS = (0, 1, 2)
# d_in != d_out and a two-dimensional environment, generated with seed 0
WIDE_DIMS = ("3", "2", "2")


def _gen_argv(family: str, seed: int, path: str, dims=("2", "2", "2")) -> list[str]:
    return ["gen", family, path, "--dims", *dims, "--seed", str(seed), "--with-channel"]


def _case_argvs() -> list[list[str]]:
    """Command lines of the corpus; arguments ending in ``.json`` are file names."""
    cases = []
    for family in GEN_FAMILIES:
        for seed in SEEDS:
            name = f"{family}-{seed}.json"
            cases.append(["certify", name])
            cases.append(["solve", name, "--max-iters", "30"])
            if family == "discrimination":
                cases.append(["hykl", name, "--via-choi"])
    for family in GEN_FAMILIES:
        name = f"{family}-wide.json"
        cases.append(_gen_argv(family, 0, "-", WIDE_DIMS))
        cases.append(["certify", name])
        cases.append(["solve", name, "--max-iters", "30"])
    cases.append(["conjecture", "--dims", "2", "2", "2", "--trials", "4", "--max-iters", "60",
                  "--seed", "1"])
    return cases


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _make_inputs(directory: pathlib.Path) -> None:
    for family in GEN_FAMILIES:
        for seed in SEEDS:
            code, _ = _run(_gen_argv(family, seed, str(directory / f"{family}-{seed}.json")))
            assert code == 0
        path = str(directory / f"{family}-wide.json")
        assert _run(_gen_argv(family, 0, path, WIDE_DIMS))[0] == 0


def _in_dir(argv: list[str], directory: pathlib.Path) -> list[str]:
    return [str(directory / a) if a.endswith(".json") else a for a in argv]


# a missing fixture leaves no cases, which test_corpus_matches_case_list reports
GOLDEN = (json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists()
          else {"environment": {}, "cases": []})


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _make_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def inputs(corpus):
    env = build_environment()
    recorded = GOLDEN["environment"]
    if env != recorded:
        pytest.skip(f"golden bytes recorded with numpy {recorded['numpy']} and BLAS "
                    f"{recorded['blas']}; this is numpy {env['numpy']} and BLAS {env['blas']}")
    return corpus


def test_corpus_matches_case_list():
    assert [c["argv"] for c in GOLDEN["cases"]] == _case_argvs()


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: " ".join(c["argv"]))
def test_golden_stdout_and_exit_code(case, inputs):
    code, out = _run(_in_dir(case["argv"], inputs))
    assert code == case["exit"]
    assert out == case["stdout"]


def test_unchecked_channels_pass_the_public_checks(corpus, monkeypatch):
    """Every channel that the corpus solves and its conjecture call build
    through ``linalg._assemble`` passes ``ChoiOp``'s public checks, which
    store the same bits; on any numpy build."""
    channels = assembled(monkeypatch)[ChoiOp]
    for argv in _case_argvs():
        if argv[0] in ("solve", "conjecture"):
            _run(_in_dir(argv, corpus))
    assert channels
    for c in channels:
        again = ChoiOp(HermOp(c.mat), c.dim_out, c.dim_in)
        assert again.mat.tobytes() == c.mat.tobytes()


def _moved_leaves(old, new, path: str = "") -> list[tuple[str, object, object]]:
    """``(key, old, new)`` for each leaf where two JSON trees differ; list
    indices print as ``[]`` and a whole document as ``stdout``."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return [m for k in old for m in _moved_leaves(old[k], new[k], f"{path}.{k}".lstrip("."))]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [m for a, b in zip(old, new) for m in _moved_leaves(a, b, path + "[]")]
    if type(old) is type(new) and old == new:
        return []
    return [(path or "stdout", old, new)]


def _relative_change(old, new) -> float:
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (old, new))
    if not numbers:
        return math.inf
    return abs(new - old) / abs(old) if old else (0.0 if new == old else math.inf)


def _report_moves(old_cases: list[dict], new_cases: list[dict]) -> None:
    """Print to stderr each case whose exit code or stdout moved, the keys that
    moved with their old and new values, and the largest relative change."""
    recorded = {tuple(c["argv"]): c for c in old_cases}
    moved = 0
    for case in new_cases:
        before = recorded.get(tuple(case["argv"]))
        if before is None:
            print(f"new case: {' '.join(case['argv'])}", file=sys.stderr)
            continue
        if before == case:
            continue
        moved += 1
        leaves = [("exit", before["exit"], case["exit"])] if before["exit"] != case["exit"] else []
        if before["stdout"] != case["stdout"]:
            try:
                keys = _moved_leaves(json.loads(before["stdout"]), json.loads(case["stdout"]))
            except json.JSONDecodeError:
                keys = []
            # text that is not JSON, or equal JSON written differently
            leaves += keys or [("stdout", before["stdout"], case["stdout"])]
        keys = ", ".join(dict.fromkeys(key for key, _, _ in leaves))
        worst = max(_relative_change(a, b) for _, a, b in leaves)
        print(f"moved: {' '.join(case['argv'])}: {keys}; max relative change {worst:.2g}",
              file=sys.stderr)
        for key, a, b in leaves:
            print(f"    {key}: {a!r} -> {b!r}", file=sys.stderr)
    print(f"{moved} of {len(new_cases)} cases moved", file=sys.stderr)


def _record() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        _make_inputs(directory)
        cases = []
        for argv in _case_argvs():
            code, out = _run(_in_dir(argv, directory))
            cases.append({"argv": argv, "exit": code, "stdout": out})
    _report_moves(GOLDEN["cases"], cases)
    doc = {"environment": build_environment(), "cases": cases}
    FIXTURE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {FIXTURE}", file=sys.stderr)


if __name__ == "__main__":
    _record()
