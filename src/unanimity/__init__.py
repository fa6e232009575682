"""Query-efficient search for unanimously acceptable lotteries.

A lottery over a finite menu of alternatives is *unanimously acceptable*
when every agent's expected utility clears that agent's private threshold.
Agents are only observable through binary accept/reject membership queries,
so the cost of a decision is the number of queries issued.

The package provides:

* exact rational primitives (lotteries, agents, instances) in :mod:`core`,
* a counting membership-query oracle in :mod:`oracle`,
* single-agent halfspace elicitation in :mod:`geometry`,
* exact feasibility / lexicographic selection / infeasibility witnesses
  in :mod:`feasibility`,
* end-to-end deterministic, randomized, and advice-augmented solvers in
  :mod:`solvers`,
* instance generators and a JSON file format in :mod:`instances`,
* a command line harness in :mod:`cli` (``python -m unanimity ...``).

All arithmetic is exact (``fractions.Fraction``); no floating point is used
anywhere in the decision path.
"""

from unanimity.core import (
    AgentSpec,
    EdgePoint,
    Instance,
    Lottery,
    edge_lottery,
    expected_utility,
    pairwise_projection,
    parse_rational,
    format_rational,
)
from unanimity.oracle import Oracle, QueryCategory, QueryLedger
from unanimity.geometry import (
    LearnedHalfspace,
    ProjectionError,
    TurningPoint,
    exact_threshold,
    exact_threshold_pred,
    learn_hyperplane,
    rational_reconstruct,
)
from unanimity.feasibility import (
    ConstraintSet,
    HellyWitness,
    feasible_full,
    helly_witness,
    select,
)
from unanimity.solvers import (
    Advice,
    SolveReport,
    WeightVector,
    solve_baseline,
    solve_deterministic,
    solve_randomized,
    weighted_sample,
)
from unanimity.instances import (
    GeneratorSpec,
    GroundTruth,
    generate,
    quantize,
    read_instance,
    write_instance,
)

__all__ = [
    "AgentSpec",
    "Advice",
    "ConstraintSet",
    "EdgePoint",
    "GeneratorSpec",
    "GroundTruth",
    "HellyWitness",
    "Instance",
    "LearnedHalfspace",
    "Lottery",
    "Oracle",
    "ProjectionError",
    "QueryCategory",
    "QueryLedger",
    "SolveReport",
    "TurningPoint",
    "WeightVector",
    "edge_lottery",
    "exact_threshold",
    "exact_threshold_pred",
    "expected_utility",
    "feasible_full",
    "format_rational",
    "generate",
    "helly_witness",
    "learn_hyperplane",
    "pairwise_projection",
    "parse_rational",
    "quantize",
    "rational_reconstruct",
    "read_instance",
    "select",
    "solve_baseline",
    "solve_deterministic",
    "solve_randomized",
    "weighted_sample",
    "write_instance",
]

__version__ = "0.1.0"
