"""Query-efficient search for unanimously acceptable lotteries.

A lottery over a finite menu of alternatives is *unanimously acceptable*
when every agent's expected utility clears that agent's private threshold.
Agents are only observable through binary accept/reject membership queries,
so the cost of a decision is the number of queries issued.

The package provides:

* exact rational primitives (lotteries, agents, instances) in :mod:`core`,
* a counting membership-query oracle, the one way to ask agents, in :mod:`oracle`,
* single-agent halfspace elicitation in :mod:`geometry`,
* exact feasibility / lexicographic selection / infeasibility witnesses
  in :mod:`feasibility`,
* end-to-end deterministic, randomized, and advice-augmented solvers in
  :mod:`solvers`,
* instance generators and a JSON file format in :mod:`instances`,
* a command line harness in :mod:`cli` (``python -m unanimity ...``).

All arithmetic is exact: Python ints (instances, oracle answers and the
LP's constraint rows and pivots) and ``fractions.Fraction`` (lotteries and
turning points); no floating point is used anywhere in the decision path.
"""

from unanimity.core import (
    AgentSpec,
    Instance,
    Lottery,
    edge_lottery,
    pairwise_projection,
    parse_rational,
    format_rational,
)
from unanimity.oracle import Oracle, QueryCategory, QueryLedger
from unanimity.geometry import (
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
    "GeneratorSpec",
    "GroundTruth",
    "HellyWitness",
    "Instance",
    "Lottery",
    "Oracle",
    "QueryCategory",
    "QueryLedger",
    "SolveReport",
    "edge_lottery",
    "exact_threshold",
    "exact_threshold_pred",
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
