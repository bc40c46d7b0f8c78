"""Golden byte-identity corpus for the CLI.

Every case is one ``chancert`` command: ``gen`` to standard output, a
command on a generated problem file, or ``conjecture``; the fixture
``golden_cli.json`` holds its exact stdout and exit code.  A change
that claims byte-identical output must keep every case passing.  The bytes
depend on the numpy build and the BLAS, so the fixture records both and the
test skips on any other combination.

To re-record the fixture (only at a commit whose output is trusted)::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

import numpy as np
import pytest

from chancert.cli import GEN_FAMILIES, main

FIXTURE = pathlib.Path(__file__).with_name("golden_cli.json")
SEEDS = (0, 1, 2)
# d_in != d_out and a two-dimensional environment, generated with seed 0
WIDE_DIMS = ("3", "2", "2")


def _environment() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


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
def inputs(tmp_path_factory):
    env = _environment()
    recorded = GOLDEN["environment"]
    if env != recorded:
        pytest.skip(f"golden bytes recorded with numpy {recorded['numpy']} and BLAS "
                    f"{recorded['blas']}; this is numpy {env['numpy']} and BLAS {env['blas']}")
    directory = tmp_path_factory.mktemp("golden")
    _make_inputs(directory)
    return directory


def test_corpus_matches_case_list():
    assert [c["argv"] for c in GOLDEN["cases"]] == _case_argvs()


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: " ".join(c["argv"]))
def test_golden_stdout_and_exit_code(case, inputs):
    code, out = _run(_in_dir(case["argv"], inputs))
    assert code == case["exit"]
    assert out == case["stdout"]


def _record() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        _make_inputs(directory)
        cases = []
        for argv in _case_argvs():
            code, out = _run(_in_dir(argv, directory))
            cases.append({"argv": argv, "exit": code, "stdout": out})
    doc = {"environment": _environment(), "cases": cases}
    FIXTURE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {FIXTURE}", file=sys.stderr)


if __name__ == "__main__":
    _record()
