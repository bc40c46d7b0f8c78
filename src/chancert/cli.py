"""Command-line front end.

Subcommands::

    certify PROBLEM      optimality certificate; exit 0 optimal / 3 near /
                         4 not certified / 2 bad input
    solve PROBLEM        projected-subgradient solve; best effort, exit 0
    hykl PROBLEM         measurement-optimality report; exit 0 / 4
    conjecture           sign-witness experiment; records + summary; exit 0,
                         or 1 when a trial raised or hit a full-rank hard fail
    gen FAMILY OUT       write a seeded random problem file

Every payload printed to standard output is canonical JSON — fixed key
order, 17-significant-digit floats — so identical (file, flags, seed)
invocations produce identical bytes.  Exit codes are a function of the
verdict only.  Input problems (unreadable files, schema violations,
dimension mismatches, input too large for memory) print a diagnostic to
standard error, print nothing to standard output, and exit 2.

A grid search is never certificate-grade: a measurement found by
``brute-force`` sits a grid-step away from the true optimum, which is far
beyond the PSD tolerance, so ``certify`` honestly reports it near-optimal
(exit 3 with a small bound) rather than optimal.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields, replace

import numpy as np

from .certifier import VERDICT_NEAR, VERDICT_OPTIMAL, certify_objective, hykl_check
from .experiments import HARNESS_CONFIG, record_to_dict, run_conjecture
from .linalg import Tolerances
from .objectives import FAMILIES
from .serialize import (
    SchemaError,
    canonical_json,
    loads_problem,
    problem_to_dict,
    certificate_to_dict,
    hykl_to_dict,
    trace_to_dict,
)
from .solvers import STEP_RULES, SolverConfig, random_channel_choi, solve

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NEAR = 3
EXIT_NOT = 4

GEN_FAMILIES = tuple(cls.gen_name for cls in FAMILIES)
# most matrix entries ``gen --count`` may draw: count * (in^2 + out^2)
GEN_MAX_ENTRIES = 10**6


class InputProblem(ValueError):
    """Semantic problem with the user's input (maps to exit 2)."""


def _indent_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json-indent", type=int, default=None, metavar="N",
                   help="pretty-print payloads with N-space indents")


def _global_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-psd", type=float, default=None, metavar="X",
                   help="override the relative PSD tolerance")
    p.add_argument("--tol-herm", type=float, default=None, metavar="X",
                   help="override the relative Hermiticity tolerance")
    _indent_flag(p)


def _seed_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="seed for randomized commands")


def _solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--step-rule", choices=sorted(STEP_RULES), default=None)
    p.add_argument("--step-c", type=float, default=None)
    p.add_argument("--tol-gap", type=float, default=None)
    p.add_argument("--stall-window", type=int, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` leaves it
    unchanged, so every call of :func:`main` can share it."""
    parser = argparse.ArgumentParser(
        prog="chancert",
        description="certify and solve convex channel-optimization problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="certificate for the channel in a problem file")
    p.add_argument("problem", help="problem file path")
    _global_flags(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("solve", help="projected-subgradient solve of a problem file")
    p.add_argument("problem", help="problem file path")
    _global_flags(p)
    _solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("hykl", help="measurement-optimality conditions")
    p.add_argument("problem", help="problem file with a discrimination objective and a povm")
    p.add_argument("--via-choi", action="store_true",
                   help="also run the general certifier and check the verdicts agree")
    _global_flags(p)
    p.set_defaults(func=cmd_hykl)

    p = sub.add_parser("conjecture", help="sign-witness optimality experiment")
    p.add_argument("--dims", type=int, nargs=3, default=(2, 2, 2),
                   metavar=("IN", "OUT", "ENV"))
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-iters", type=int, default=HARNESS_CONFIG.max_iters)
    _global_flags(p)
    _seed_flag(p)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("gen", help="write a seeded random problem file")
    p.add_argument("family", choices=GEN_FAMILIES)
    p.add_argument("out", help="output path, or - for standard output")
    p.add_argument("--dims", type=int, nargs=3, default=(2, 2, 1),
                   metavar=("IN", "OUT", "ENV"),
                   help="channel input and output dims and the environment dim; ENV is "
                        "used only by " + ", ".join(c.gen_name for c in FAMILIES if c.uses_env)
                        + "; the other families write env 1")
    p.add_argument("--count", type=int, default=None,
                   help="ensemble size, default 2; read only by "
                        + ", ".join(c.gen_name for c in FAMILIES if c.uses_count))
    p.add_argument("--with-channel", action="store_true",
                   help="attach a random channel (or measurement) to the file")
    _indent_flag(p)
    _seed_flag(p)
    p.set_defaults(func=cmd_gen)

    return parser


def _tolerance_flags(args) -> dict:
    """The ``Tolerances`` fields the ``--tol-*`` flags set."""
    given = {"tau_psd": args.tol_psd, "tau_herm": args.tol_herm}
    return {name: v for name, v in given.items() if v is not None}


def _load(args):
    """The problem file, judged under its tolerances with the flags applied."""
    with open(args.problem, "r", encoding="utf-8") as fh:
        return loads_problem(fh.read(), _tolerance_flags(args))


def _emit(args, doc) -> None:
    sys.stdout.write(canonical_json(doc, indent=args.json_indent))


def cmd_certify(args) -> int:
    prob = _load(args)
    if prob.channel is None:
        raise InputProblem("certify: problem file carries no channel to certify")
    res, cert = certify_objective(prob.spec, prob.channel, prob.tol)
    _emit(args, certificate_to_dict(cert, res))
    if cert.verdict == VERDICT_OPTIMAL:
        return EXIT_OK
    if cert.verdict == VERDICT_NEAR:
        return EXIT_NEAR
    return EXIT_NOT


def cmd_solve(args) -> int:
    prob = _load(args)
    # the solver flags' dests are the config's field names
    given = {f.name: getattr(args, f.name) for f in fields(SolverConfig)}
    kw = {name: v for name, v in given.items() if v is not None}
    trace = solve(prob.spec, SolverConfig(**kw), prob.tol)
    _emit(args, trace_to_dict(trace))
    return EXIT_OK


def cmd_hykl(args) -> int:
    prob = _load(args)
    if prob.ensemble is None:
        raise InputProblem("hykl: problem file needs a discrimination objective")
    if prob.povm is None:
        raise InputProblem("hykl: problem file needs a povm channel")
    rep = hykl_check(prob.ensemble, prob.povm, prob.tol)
    doc = hykl_to_dict(rep)
    if args.via_choi:
        _res, cert = certify_objective(prob.spec, prob.channel, prob.tol)
        agrees = rep.optimal == (cert.verdict == VERDICT_OPTIMAL)
        doc["via_choi"] = {"verdict": cert.verdict, "agrees": agrees}
        if not agrees:
            print(
                "hykl: internal disagreement between the measurement conditions "
                f"({rep.optimal}) and the general certifier ({cert.verdict})",
                file=sys.stderr,
            )
            _emit(args, doc)
            return EXIT_FAIL
    _emit(args, doc)
    return EXIT_OK if rep.optimal else EXIT_NOT


def cmd_conjecture(args) -> int:
    if min(args.dims) < 1:
        raise InputProblem("conjecture: dims must be positive")
    if args.trials < 1:
        raise InputProblem("conjecture: --trials must be at least 1")
    cfg = replace(HARNESS_CONFIG, max_iters=args.max_iters)
    records, summary = run_conjecture(
        tuple(args.dims), args.trials, args.seed, cfg, Tolerances(**_tolerance_flags(args))
    )
    _emit(args, {"records": [record_to_dict(r) for r in records], "summary": summary})
    # a full-rank hard fail is a build bug, not evidence (see ``experiments``)
    if summary["full_rank_hard_fails"] or summary["errors"]:
        return EXIT_FAIL
    return EXIT_OK


def cmd_gen(args) -> int:
    d_in, d_out, d_env = args.dims
    if min(args.dims) < 1:
        raise InputProblem("gen: dims must be positive")
    cls = {c.gen_name: c for c in FAMILIES}[args.family]
    count = 2 if args.count is None else args.count
    if args.count is not None and not cls.uses_count:
        raise InputProblem(f"gen: {args.family} does not read --count")
    if count < 1:
        raise InputProblem("gen: --count must be at least 1")
    if cls.uses_count and count * (d_in**2 + d_out**2) > GEN_MAX_ENTRIES:
        raise InputProblem(
            f"gen: --count {count} draws more than {GEN_MAX_ENTRIES} matrix entries"
        )
    if d_env != 1 and not cls.uses_env:
        print(f"chancert: gen {args.family} ignores ENV {d_env} and writes env 1", file=sys.stderr)
        d_env = 1
    dims = (d_in, d_out, d_env)
    rng = np.random.default_rng(args.seed)
    fields, channel = cls.draw(rng, dims, count, args.with_channel)
    if args.with_channel and channel is None:
        channel = {"kind": "choi", "matrix": random_channel_choi(d_in, d_out, rng).mat}
    objective = {"family": cls.family, **fields}
    text = canonical_json(problem_to_dict(dims, objective, channel), indent=args.json_indent)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.json_indent is not None and args.json_indent < 0:
            raise InputProblem(f"--json-indent must be at least 0, got {args.json_indent}")
        if getattr(args, "seed", 0) < 0:
            raise InputProblem(f"{args.command}: --seed must be non-negative")
        return args.func(args)
    except (SchemaError, InputProblem, OSError) as exc:
        print(f"chancert: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"chancert: invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # numpy's MemoryError names the allocation, a bare one is empty; an
    # OverflowError is a size past an index-sized integer (a --json-indent pad)
    except (MemoryError, OverflowError) as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"chancert: input too large for memory{detail}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
