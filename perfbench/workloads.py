"""The three workloads: their inputs, their ops and their output checks.

Every op is one in-process call of ``chancert.cli.main`` with an argv list.
Each workload runs a fixed pool of inputs, built at set-up with the
package's own generators (``chancert gen`` and the library constructors).
The workload seed only fixes the order in which a pass visits the pool.
The pool is fixed because the quality metrics (verdict share, certified
gap) belong to the instances, not to the code. A pool drawn from the seed
moves them by more than any bound from one seed to the next. The recorded
reference also needs a finite set of instances.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

from chancert import cli
from chancert.choi import ChoiOp, identity_choi
from chancert.linalg import HermOp
from chancert.certifier import certify_objective
from chancert.serialize import (
    canonical_json,
    decode_matrix,
    encode_matrix,
    loads_problem,
    problem_to_dict,
)
from chancert.solvers import (
    helstrom_povm,
    random_channel_choi,
    random_density,
    random_instance,
)

OPTIMAL = "CertifiedOptimal"

# Relative tolerance for value and bound against the recorded reference.
REF_RTOL = 1e-6
# Relative tolerance for re-evaluating a solve's best channel.
REEVAL_RTOL = 1e-9
# Floor of the relative certified gap, so exact zeros and rounding
# negatives stay positive.
GAP_FLOOR = 1e-16

# Each pool has an odd number of entries. Latencies cluster by entry, and
# with an even count the pooled median falls in the gap between two
# clusters, where it rests on one entry's slowest run and the next one's
# fastest.
CERTIFY_DIMS = (2, 4, 8)
SOLVE_DIMS = (2, 4)
ORTHOGONAL_DIMS = (2, 3, 4)
SOLVE_MAX_ITERS = 80
CONJECTURE_SEEDS = (1, 2, 3, 4, 5)
CONJECTURE_TRIALS = 4


@dataclass(frozen=True)
class Op:
    """One call of ``chancert.cli.main``.

    ``key`` names the pool entry and indexes the reference. ``weight`` is
    the number of ops the call counts for: 1, or the trial count of a
    conjecture call.
    """

    key: str
    kind: str
    argv: tuple[str, ...]
    weight: int = 1


@dataclass(frozen=True)
class Outcome:
    """What the output check found in one call's output."""

    ok: bool
    certified: int = 0
    gaps: tuple[float, ...] = ()
    reason: str = ""


def _rel_gap(gap: float, scale: float) -> float:
    return max(gap / scale, GAP_FLOOR) if math.isfinite(gap) else math.inf


def _num(x) -> float:
    """Number from canonical JSON, where the infinities are strings."""
    if x == "inf":
        return math.inf
    if x == "-inf":
        return -math.inf
    return float(x)


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _write(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))
    return path


def _gen(workdir: str, family: str, d: int, with_channel: bool) -> str:
    path = os.path.join(workdir, f"{family}-d{d}.json")
    argv = ["gen", family, path, "--dims", str(d), str(d), str(d), "--seed", str(d)]
    if with_channel:
        argv.append("--with-channel")
    if cli.main(argv) != 0:
        raise RuntimeError(f"chancert {' '.join(argv)} failed")
    return path


# ---------------------------------------------------------------------------
# certify-corpus


def _helstrom_doc(d: int) -> dict:
    ens = random_instance("ensemble", (d, 2), seed=d)
    povm, _err = helstrom_povm(ens)
    objective = {
        "family": "Discrimination",
        "probs": [float(p) for p in ens.probs],
        "states": [encode_matrix(s.mat) for s in ens.states],
    }
    channel = {"kind": "povm", "elements": [encode_matrix(e.mat) for e in povm.elements]}
    return problem_to_dict((d, 2, 1), objective, channel)


def _self_transformation_doc(d: int) -> dict:
    rho = encode_matrix(random_density(d * d, np.random.default_rng(d)))
    objective = {"family": "Fidelity", "rho": rho, "sigma": rho}
    channel = {"kind": "choi", "matrix": encode_matrix(identity_choi(d).mat)}
    return problem_to_dict((d, d, d), objective, channel)


def _unreachable_doc(d: int) -> dict:
    """Relative entropy to a target with weight outside the reachable image.

    The input's environment marginal is the pure state |0><0|, so every
    channel output lives on out (x) |0>; the full-rank target does not, the
    value is infinite and no subgradient exists.
    """
    rng = np.random.default_rng(d)
    env0 = np.zeros((d, d))
    env0[0, 0] = 1.0
    rho = np.kron(random_density(d, rng), env0)
    objective = {
        "family": "RelativeEntropy",
        "rho": encode_matrix(rho),
        "sigma": encode_matrix(random_density(d * d, rng)),
    }
    channel = {"kind": "choi", "matrix": encode_matrix(random_channel_choi(d, d, rng).mat)}
    return problem_to_dict((d, d, d), objective, channel)


def build_certify_corpus(workdir: str) -> list[Op]:
    ops = []
    for d in CERTIFY_DIMS:
        for family in cli.GEN_FAMILIES:
            path = _gen(workdir, family, d, with_channel=True)
            ops.append(Op(f"certify/{family}/d{d}", "certify", ("certify", path)))
            if family == "discrimination":
                ops.append(Op(f"hykl/{family}/d{d}", "hykl", ("hykl", path, "--via-choi")))
        path = _write(os.path.join(workdir, f"helstrom-d{d}.json"), _helstrom_doc(d))
        ops.append(Op(f"certify/helstrom/d{d}", "certify", ("certify", path)))
        ops.append(Op(f"hykl/helstrom/d{d}", "hykl", ("hykl", path, "--via-choi")))
        path = _write(os.path.join(workdir, f"identity-d{d}.json"), _self_transformation_doc(d))
        ops.append(Op(f"certify/identity/d{d}", "certify", ("certify", path)))
        path = _write(os.path.join(workdir, f"unreachable-d{d}.json"), _unreachable_doc(d))
        ops.append(Op(f"certify/unreachable/d{d}", "certify", ("certify", path)))
    return ops


def certify_summary(op: Op, rc: int, text: str) -> dict:
    """The fields of a certify or hykl output that the reference pins."""
    doc = json.loads(text)
    if op.kind == "hykl":
        return {"exit": rc, "optimal": doc["optimal"], "verdict": doc["via_choi"]["verdict"],
                "agrees": doc["via_choi"]["agrees"]}
    return {"exit": rc, "verdict": doc["verdict"], "value": _num(doc["value"]),
            "bound": _num(doc["bound"]), "scale": _num(doc["scale"])}


def check_certify(op: Op, rc: int, text: str, ref: dict | None) -> Outcome:
    if ref is None:
        return Outcome(False, reason="no reference")
    got = certify_summary(op, rc, text)
    if got["exit"] != ref["exit"] or got["verdict"] != ref["verdict"]:
        return Outcome(False, reason=f"exit/verdict {got['exit']}/{got['verdict']} "
                                     f"!= reference {ref['exit']}/{ref['verdict']}")
    certified = int(got["verdict"] == OPTIMAL)
    if op.kind == "hykl":
        if got["agrees"] is not True or got["optimal"] != ref["optimal"]:
            return Outcome(False, reason="hykl --via-choi disagrees or optimal flag moved")
        return Outcome(True, certified)
    for field in ("value", "bound"):
        if not _close(got[field], ref[field], REF_RTOL):
            return Outcome(False, reason=f"{field} {got[field]!r} != reference {ref[field]!r}")
    return Outcome(True, certified, (_rel_gap(got["bound"], got["scale"]),))


# ---------------------------------------------------------------------------
# solve-descent


def _orthogonal_discrimination_doc(d: int) -> dict:
    """Equiprobable basis states: solve certifies this optimum within the budget."""
    states = [encode_matrix(np.diag(np.eye(d)[k])) for k in range(d)]
    objective = {"family": "Discrimination", "probs": [1.0 / d] * d, "states": states}
    return problem_to_dict((d, d, 1), objective)


def build_solve_descent(workdir: str) -> list[Op]:
    ops = []
    budget = ("--max-iters", str(SOLVE_MAX_ITERS))
    for d in SOLVE_DIMS:
        for family in cli.GEN_FAMILIES:
            path = _gen(workdir, family, d, with_channel=False)
            ops.append(Op(f"solve/{family}/d{d}", "solve", ("solve", path) + budget))
    for d in ORTHOGONAL_DIMS:
        path = _write(os.path.join(workdir, f"orthogonal-d{d}.json"),
                      _orthogonal_discrimination_doc(d))
        ops.append(Op(f"solve/orthogonal/d{d}", "solve", ("solve", path) + budget))
    return ops


class SolveChecker:
    """Checks solve outputs; keeps each problem parsed once."""

    def __init__(self) -> None:
        self._problems: dict[str, object] = {}

    def summary(self, op: Op, rc: int, text: str) -> dict:
        """Re-parse and re-evaluate the emitted best channel."""
        path = op.argv[1]
        if path not in self._problems:
            with open(path, encoding="utf-8") as fh:
                self._problems[path] = loads_problem(fh.read())
        prob = self._problems[path]
        doc = json.loads(text)
        d_in, d_out, _ = prob.dims
        choi = ChoiOp(HermOp(decode_matrix(doc["best_choi"])), d_out, d_in)
        res, cert = certify_objective(prob.spec, choi)
        return {"exit": rc, "best_value": _num(doc["best_value"]), "gap": _num(doc["gap"]),
                "converged": doc["converged"], "reevaluated": res.value, "scale": cert.scale}

    def check(self, op: Op, rc: int, text: str, ref: dict | None) -> Outcome:
        if ref is None:
            return Outcome(False, reason="no reference")
        got = self.summary(op, rc, text)
        if rc != 0:
            return Outcome(False, reason=f"exit {rc}")
        if not _close(got["reevaluated"], got["best_value"], REEVAL_RTOL):
            return Outcome(False, reason=f"best_choi re-evaluates to {got['reevaluated']!r}, "
                                         f"not best_value {got['best_value']!r}")
        lower = got["best_value"] - got["gap"]
        if lower > ref["best_value"] + REF_RTOL * max(1.0, abs(ref["best_value"])):
            return Outcome(False, reason=f"certified lower bound {lower!r} exceeds the "
                                         f"reference best value {ref['best_value']!r}")
        return Outcome(True, int(got["converged"]), (_rel_gap(got["gap"], got["scale"]),))


# ---------------------------------------------------------------------------
# conjecture


def build_conjecture(workdir: str) -> list[Op]:
    del workdir  # trials draw their own instances from the trial seed
    return [
        Op(f"conjecture/seed{s}", "conjecture",
           ("conjecture", "--dims", "2", "2", "2", "--trials", str(CONJECTURE_TRIALS),
            "--seed", str(s)), weight=CONJECTURE_TRIALS)
        for s in CONJECTURE_SEEDS
    ]


def check_conjecture(op: Op, rc: int, text: str, ref: dict | None) -> Outcome:
    del ref  # the checks are structural
    doc = json.loads(text)
    summary = doc["summary"]
    if rc != 0:
        return Outcome(False, reason=f"exit {rc}")
    if summary["errors"] != 0 or summary["full_rank_hard_fails"] != 0:
        return Outcome(False, reason=f"summary reports failures: {summary}")
    if summary["trials"] != op.weight or len(doc["records"]) != op.weight:
        return Outcome(False, reason=f"{summary['trials']} trials, {op.weight} requested")
    return Outcome(True, summary["supports"],
                   tuple(_rel_gap(r["gap"], r["scale"]) for r in doc["records"]))


# ---------------------------------------------------------------------------


class Workload:
    """A named pool of ops plus the check that judges each op's output."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._solve = SolveChecker()

    def build(self, workdir: str, seed: int) -> list[Op]:
        """Build the pool's inputs and return one pass in seeded order."""
        ops = BUILDERS[self.name](workdir)
        random.Random(seed).shuffle(ops)
        return ops

    def check(self, op: Op, rc: int, text: str, ref: dict | None) -> Outcome:
        if op.kind in ("certify", "hykl"):
            return check_certify(op, rc, text, ref)
        if op.kind == "solve":
            return self._solve.check(op, rc, text, ref)
        return check_conjecture(op, rc, text, ref)

    def reference_entry(self, op: Op, rc: int, text: str) -> dict | None:
        """What the reference records for one op, or None when it needs nothing."""
        if op.kind in ("certify", "hykl"):
            return certify_summary(op, rc, text)
        if op.kind == "solve":
            got = self._solve.summary(op, rc, text)
            return {"exit": rc, "best_value": got["best_value"], "gap": got["gap"],
                    "converged": got["converged"]}
        return None


BUILDERS = {
    "certify-corpus": build_certify_corpus,
    "solve-descent": build_solve_descent,
    "conjecture": build_conjecture,
}
