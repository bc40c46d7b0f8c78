"""Record the output reference that the benchmark's checks compare against.

Run from the root of a checkout whose outputs are trusted::

    python3 perfbench/record_reference.py

It runs each certify-corpus and solve-descent entry once and writes
perfbench/reference.json: exit code, verdict, value and bound per
certificate, and best value, gap and convergence per solve. The conjecture
checks are structural and need no reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import run


def main() -> int:
    reference = {}
    for name in ("certify-corpus", "solve-descent"):
        wl, ops, workdir = run.set_up(name, seed=0)
        from chancert import cli

        try:
            entries = {}
            for op in sorted(ops, key=lambda o: o.key):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = cli.main(list(op.argv))
                entries[op.key] = wl.reference_entry(op, rc, out.getvalue())
                print(f"{op.key}: {entries[op.key]}", file=sys.stderr)
            reference[name] = entries
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
