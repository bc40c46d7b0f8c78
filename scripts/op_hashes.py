"""Digest the exit code and stdout of every benchmark op.

Builds the pools of the three workloads (certify-corpus, solve-descent,
conjecture) in a temporary directory with ``perfbench/workloads.py``, runs
each op once in-process through ``chancert.cli.main`` with BLAS pinned to
one thread, and prints one line ``key exit sha256(stdout)`` per op, then a
last line ``combined <sha256>`` over all of those lines.  Two checkouts that
print the same combined digest give every op the same exit code and the
same output bytes.

Run it from the root of a checkout::

    python3 scripts/op_hashes.py

It imports ``chancert`` from ``src/`` and the workload builders from
``perfbench/`` of that checkout, and writes nothing there.
"""

from __future__ import annotations

import os
import sys

# before numpy is imported, as perfbench/run.py does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # leave perfbench/ as checked out

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from chancert import cli  # noqa: E402
import workloads  # noqa: E402


def op_lines(workdir: str) -> list[str]:
    """``key exit sha256(stdout)`` of each op of every pool, in pool order."""
    lines = []
    for name, build in workloads.BUILDERS.items():
        pool_dir = os.path.join(workdir, name)  # the pools reuse file names
        os.makedirs(pool_dir)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            ops = build(pool_dir)
        for op in ops:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(list(op.argv))
            digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            lines.append(f"{op.key} {rc} {digest}")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="op_hashes-") as workdir:
        lines = op_lines(workdir)
    for line in lines:
        print(line)
    combined = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    print(f"combined {combined}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
