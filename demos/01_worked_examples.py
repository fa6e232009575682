"""A first tour: finding a lottery everyone accepts, or proving none exists.

Three agents rate three alternatives; each accepts a lottery only if their
expected utility clears a private threshold.  We can only ask yes/no
questions ("do you accept this lottery?"), and we want to either produce a
unanimously acceptable lottery or a small certificate of impossibility.
"""

from unanimity import (
    GeneratorSpec,
    Oracle,
    generate,
    solve_baseline,
    solve_deterministic,
)

# A feasible committee: three agents, three alternatives.
inst, truth, _ = generate(GeneratorSpec("example-2-3"))
print("Agents (utilities | threshold):")
for i, agent in enumerate(inst.agents, start=1):
    us = ", ".join(str(u) for u in agent.utilities)
    print(f"  agent {i}: ({us}) | {agent.threshold}")

report = solve_deterministic(Oracle(inst))
print(f"\nDeterministic solver: {report.outcome_kind}")
print(f"  lottery: {report.lottery}")
print(f"  membership queries used: {report.ledger.total}")
for i, agent in enumerate(inst.agents, start=1):
    # Expected utility <u, x>, exactly: every coordinate is a Fraction.
    value = sum(u * p for u, p in zip(agent.utilities, report.lottery.probs))
    print(f"  agent {i}: expected utility {value} >= {agent.threshold}")

# An impossible committee: agent 1 wants mostly alternative 1, agent 2
# wants mostly alternative 2, and their demands overshoot probability 1.
inst, _, _ = generate(GeneratorSpec("example-2-1"))
report = solve_baseline(Oracle(inst))
print(f"\nOpposing demands: {report.outcome_kind}")
print(f"  conflicting agents (a minimal infeasible set): {sorted(report.witness.agents)}")
