"""Command-line front end.

Subcommands::

    certify PROBLEM      optimality certificate; exit 0 optimal / 3 near /
                         4 not certified / 2 bad input
    solve PROBLEM        projected-subgradient solve; best effort, exit 0
    hykl PROBLEM         measurement-optimality report; exit 0 / 4
    conjecture           sign-witness experiment; records + summary
    gen FAMILY OUT       write a seeded random problem file

Every payload printed to standard output is canonical JSON — fixed key
order, 17-significant-digit floats — so identical (file, flags, seed)
invocations produce identical bytes.  Exit codes are a function of the
verdict only.  Input problems (unreadable files, schema violations,
dimension mismatches) print a diagnostic to standard error, print nothing
to standard output, and exit 2.

A grid search is never certificate-grade: a measurement found by
``brute-force`` sits a grid-step away from the true optimum, which is far
beyond the PSD tolerance, so ``certify`` honestly reports it near-optimal
(exit 3 with a small bound) rather than optimal.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .certifier import VERDICT_NEAR, VERDICT_OPTIMAL, certify_objective, hykl_check
from .experiments import record_to_dict, run_trial, summarize
from .linalg import TOL, Tolerances
from .serialize import (
    SchemaError,
    canonical_json,
    encode_matrix,
    loads_problem,
    problem_to_dict,
    certificate_to_dict,
    hykl_to_dict,
    trace_to_dict,
)
from .solvers import STEP_RULES, SolverConfig, random_channel_choi, random_density, solve

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NEAR = 3
EXIT_NOT = 4

GEN_FAMILIES = (
    "linear",
    "discrimination",
    "trace-distance",
    "fidelity",
    "relative-entropy",
    "fidelity-squared",
)


class InputProblem(ValueError):
    """Semantic problem with the user's input (maps to exit 2)."""


def _global_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-psd", type=float, default=None, metavar="X",
                   help="override the relative PSD tolerance")
    p.add_argument("--tol-herm", type=float, default=None, metavar="X",
                   help="override the relative Hermiticity tolerance")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized commands")
    p.add_argument("--json-indent", type=int, default=None, metavar="N",
                   help="pretty-print payloads with N-space indents")


def _solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--step-rule", choices=sorted(STEP_RULES), default=None)
    p.add_argument("--step-c", type=float, default=None)
    p.add_argument("--tol-gap", type=float, default=None)
    p.add_argument("--stall-window", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--max-iters", type=int, default=1200)
    _global_flags(p)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("gen", help="write a seeded random problem file")
    p.add_argument("family", choices=GEN_FAMILIES)
    p.add_argument("out", help="output path, or - for standard output")
    p.add_argument("--dims", type=int, nargs=3, default=(2, 2, 1),
                   metavar=("IN", "OUT", "ENV"))
    p.add_argument("--count", type=int, default=2,
                   help="ensemble size for fidelity-squared")
    p.add_argument("--with-channel", action="store_true",
                   help="attach a random channel (or measurement) to the file")
    _global_flags(p)
    p.set_defaults(func=cmd_gen)

    return parser


def _tolerances(args, base: Tolerances) -> Tolerances:
    kw = {}
    if args.tol_psd is not None:
        kw["tau_psd"] = args.tol_psd
    if args.tol_herm is not None:
        kw["tau_herm"] = args.tol_herm
    return replace(base, **kw) if kw else base


def _load(args):
    with open(args.problem, "r", encoding="utf-8") as fh:
        prob = loads_problem(fh.read())
    return prob, _tolerances(args, prob.tol)


def _emit(args, doc) -> None:
    sys.stdout.write(canonical_json(doc, indent=args.json_indent))


def cmd_certify(args) -> int:
    prob, tol = _load(args)
    if prob.channel is None:
        raise InputProblem("certify: problem file carries no channel to certify")
    res, cert = certify_objective(prob.spec, prob.channel, tol)
    _emit(args, certificate_to_dict(cert, res))
    if cert.verdict == VERDICT_OPTIMAL:
        return EXIT_OK
    if cert.verdict == VERDICT_NEAR:
        return EXIT_NEAR
    return EXIT_NOT


def cmd_solve(args) -> int:
    prob, tol = _load(args)
    kw = {"seed": args.seed}
    if args.max_iters is not None:
        kw["max_iters"] = args.max_iters
    if args.step_rule is not None:
        kw["step_rule"] = args.step_rule
    if args.step_c is not None:
        kw["step_c"] = args.step_c
    if args.tol_gap is not None:
        kw["tol_gap"] = args.tol_gap
    if args.stall_window is not None:
        kw["stall_window"] = args.stall_window
    trace = solve(prob.spec, SolverConfig(**kw), tol)
    _emit(args, trace_to_dict(trace))
    return EXIT_OK


def cmd_hykl(args) -> int:
    prob, tol = _load(args)
    if prob.ensemble is None:
        raise InputProblem("hykl: problem file needs a discrimination objective")
    if prob.povm is None:
        raise InputProblem("hykl: problem file needs a povm channel")
    rep = hykl_check(prob.ensemble, prob.povm, tol)
    doc = hykl_to_dict(rep)
    if args.via_choi:
        _res, cert = certify_objective(prob.spec, prob.channel, tol)
        agrees = rep.optimal == (cert.verdict == VERDICT_OPTIMAL)
        doc["via_choi"] = {"verdict": cert.verdict, "agrees": agrees}
        if not agrees:
            print(
                "hykl: internal disagreement between the measurement conditions "
                f"({rep.optimal}) and the general certifier ({cert.verdict})",
                file=sys.stderr,
            )
            _emit(args, doc)
            return 1
    _emit(args, doc)
    return EXIT_OK if rep.optimal else EXIT_NOT


def cmd_conjecture(args) -> int:
    if min(args.dims) < 1:
        raise InputProblem("conjecture: dims must be positive")
    if args.trials < 1:
        raise InputProblem("conjecture: --trials must be at least 1")
    tol = _tolerances(args, TOL)
    cfg = SolverConfig(step_rule="polyak", max_iters=args.max_iters, stall_window=150)
    dims = tuple(args.dims)
    records = []
    docs = []
    n_err = 0
    for t in range(args.trials):
        trial_seed = args.seed * 1000003 + t
        try:
            rec = run_trial(trial_seed, dims, reachable=(t % 2 == 0), cfg=cfg, tol=tol)
        except Exception as exc:  # per-trial failures are data, not fatal
            n_err += 1
            docs.append({"seed": trial_seed, "dims": list(dims), "error": str(exc)})
            continue
        records.append(rec)
        docs.append(record_to_dict(rec))
    summary = summarize(records)
    summary["errors"] = n_err
    _emit(args, {"records": docs, "summary": summary})
    return EXIT_OK


def cmd_gen(args) -> int:
    d_in, d_out, d_env = args.dims
    if min(args.dims) < 1:
        raise InputProblem("gen: dims must be positive")
    rng = np.random.default_rng(args.seed)
    channel = None
    if args.family == "linear":
        objective = {
            "family": "Linear",
            "h0": encode_matrix(random_density(d_out * d_in, rng)),
        }
        dims = (d_in, d_out, 1)
    elif args.family == "discrimination":
        # d_out plays the role of the number of hypotheses.
        m = d_out
        probs = rng.dirichlet(np.ones(m))
        objective = {
            "family": "Discrimination",
            "probs": [float(x) for x in probs],
            "states": [encode_matrix(random_density(d_in, rng)) for _ in range(m)],
        }
        dims = (d_in, m, 1)
        if args.with_channel:
            u = np.linalg.qr(
                rng.standard_normal((d_in, d_in)) + 1j * rng.standard_normal((d_in, d_in))
            )[0]
            projectors = [np.outer(u[:, k], u[:, k].conj()) for k in range(d_in)]
            if m < d_in:
                # exactly m elements: the last one takes the surplus projectors
                projectors[m - 1:] = [sum(projectors[m - 1:])]
            elements = [encode_matrix(p) for p in projectors]
            while len(elements) < m:
                elements.append(encode_matrix(np.zeros((d_in, d_in))))
            channel = {"kind": "povm", "elements": elements}
    elif args.family == "fidelity-squared":
        objective = {
            "family": "FidelitySquaredEnsemble",
            "probs": [1.0 / args.count] * args.count,
            "inputs": [encode_matrix(random_density(d_in, rng)) for _ in range(args.count)],
            "targets": [encode_matrix(random_density(d_out, rng)) for _ in range(args.count)],
        }
        dims = (d_in, d_out, 1)
    else:
        family = {
            "trace-distance": "TraceDistance",
            "fidelity": "Fidelity",
            "relative-entropy": "RelativeEntropy",
        }[args.family]
        objective = {
            "family": family,
            "rho": encode_matrix(random_density(d_in * d_env, rng)),
            "sigma": encode_matrix(random_density(d_out * d_env, rng)),
        }
        dims = (d_in, d_out, d_env)
    if args.with_channel and channel is None:
        channel = {
            "kind": "choi",
            "matrix": encode_matrix(random_channel_choi(d_in, d_out, rng)),
        }
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
        return args.func(args)
    except (SchemaError, InputProblem, OSError) as exc:
        print(f"chancert: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"chancert: invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
