"""Certificates of optimality for convex channel-optimization problems.

The pieces: ``linalg`` (tolerance-aware Hermitian primitives), ``choi``
(Choi operators, measurement channels, the environment-assisted
evaluation map), ``objectives`` (objective families, their subgradients,
and the family table that parses and draws documents), ``certifier`` (the
two-condition optimality check, its quantitative near-miss bound, and the
measurement specialization),
``solvers`` (Dykstra projection, projected subgradient descent, reference
brute force), ``serialize`` (canonical JSON problem/result files),
``experiments`` (the sign-witness optimality experiment), and ``cli``.
"""

from .certifier import (
    VERDICT_NEAR,
    VERDICT_NOT,
    VERDICT_OPTIMAL,
    Certificate,
    HyklReport,
    certify,
    certify_objective,
    hykl_check,
    subopt_bound,
)
from .choi import (
    BipartiteState,
    ChoiOp,
    Povm,
    apply_from_choi,
    choi_from_kraus,
    depolarizing_choi,
    eval_map_adjoint,
    eval_map_apply,
    identity_choi,
    q2c_choi,
)
from .linalg import TOL, HermOp, Tolerances
from .objectives import (
    Ensemble,
    FidelityObjective,
    FidelitySquaredObjective,
    LinearObjective,
    RelativeEntropyObjective,
    SubgradResult,
    TraceDistanceObjective,
    discrimination_objective,
    evaluate,
)
from .serialize import (
    Problem,
    SchemaError,
    canonical_json,
    loads_problem,
    parse_problem,
)
from .solvers import (
    SolverConfig,
    SolveTrace,
    brute_force_measurement,
    helstrom_povm,
    project_channel,
    random_instance,
    solve,
)

__all__ = [
    "TOL",
    "VERDICT_NEAR",
    "VERDICT_NOT",
    "VERDICT_OPTIMAL",
    "BipartiteState",
    "Certificate",
    "ChoiOp",
    "Ensemble",
    "FidelityObjective",
    "FidelitySquaredObjective",
    "HermOp",
    "HyklReport",
    "LinearObjective",
    "Povm",
    "Problem",
    "RelativeEntropyObjective",
    "SchemaError",
    "SolveTrace",
    "SolverConfig",
    "SubgradResult",
    "Tolerances",
    "TraceDistanceObjective",
    "apply_from_choi",
    "brute_force_measurement",
    "canonical_json",
    "certify",
    "certify_objective",
    "choi_from_kraus",
    "depolarizing_choi",
    "discrimination_objective",
    "eval_map_adjoint",
    "eval_map_apply",
    "evaluate",
    "helstrom_povm",
    "hykl_check",
    "identity_choi",
    "loads_problem",
    "parse_problem",
    "project_channel",
    "q2c_choi",
    "random_instance",
    "solve",
    "subopt_bound",
]
