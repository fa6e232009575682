"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each criterion is also a hard assertion, so a plain pytest run
fails loudly on any violation.
"""

import random
import statistics
import time
from fractions import Fraction as F

from scipy.stats import chisquare, hypergeom
from reference_geometry import bisection_budget
from reference_instances import expected_utility

from unanimity import (
    Advice,
    AgentSpec,
    GeneratorSpec,
    Instance,
    Lottery,
    Oracle,
    QueryCategory,
    exact_threshold,
    feasible_full,
    generate,
    learn_hyperplane,
    solve_baseline,
    solve_deterministic,
    solve_randomized,
    weighted_sample,
)
from unanimity.cli import _verify_report


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def random_instance(rng, n, m, Q) -> Instance:
    agents = []
    for _ in range(n):
        u = [F(rng.randint(0, Q), Q) for _ in range(m)]
        agents.append(AgentSpec(u, F(rng.randint(1, Q), Q)))
    return Instance(m, F(1, Q), agents)


def run_solver(inst, name, advice=Advice(), seed=0):
    o = Oracle(inst)
    if name == "baseline":
        return solve_baseline(o)
    if name == "deterministic":
        return solve_deterministic(o, advice)
    return solve_randomized(o, advice, seed=seed)


def unanimous(inst, x) -> bool:
    return all(expected_utility(a, x) >= a.threshold for a in inst.agents)


def test_criterion_1_worked_example_feasible():
    start = time.time()
    inst, _, _ = generate(GeneratorSpec("example-2-3"))
    taus = [F(3, 5), F(7, 10), F(3, 10)]
    ok = True
    for name in ("baseline", "deterministic", "randomized"):
        rep = run_solver(inst, name)
        ok &= rep.accepted
        ok &= all(expected_utility(a, rep.lottery) >= t
                  for a, t in zip(inst.agents, taus))
    x_star = Lottery(["0.25", "0.60", "0.15"])
    doc = {"outcome": {"kind": "Accepted",
                       "lottery": [str(p) for p in x_star.probs]}}
    ok &= _verify_report(doc, inst) == []
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    report(1, ok, f"all solvers accept the worked feasible example; "
                  f"x* verifies unanimous ({elapsed:.2f}s)")


def test_criterion_2_worked_example_infeasible():
    start = time.time()
    inst, _, _ = generate(GeneratorSpec("example-2-1"))
    ok = True
    for name in ("baseline", "deterministic", "randomized"):
        rep = run_solver(inst, name)
        ok &= (not rep.accepted) and rep.witness is not None
        ok &= rep.witness.agents == frozenset({1, 2})
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    report(2, ok, f"all solvers certify the worked infeasible example with "
                  f"witness {{1,2}} ({elapsed:.2f}s)")


def _criterion_3_5_instances():
    rng = random.Random(2024)
    out = []
    for k in range(500):
        m = rng.choice([2, 3, 4])
        n = rng.randint(1, 8)
        Q = rng.choice([4, 10])
        out.append(random_instance(rng, n, m, Q))
    return out


def test_criterion_3_and_5_oracle_equivalence_and_budget():
    start = time.time()
    instances = _criterion_3_5_instances()
    ok3 = True
    ok5 = True
    budget_max_R = 0
    for k, inst in enumerate(instances):
        truth = feasible_full(inst)
        for name in ("baseline", "deterministic", "randomized"):
            rep = run_solver(inst, name, seed=k)
            ok3 &= rep.accepted == (truth is not None)
            if rep.accepted:
                ok3 &= unanimous(inst, rep.lottery)
            if name == "deterministic":
                n, m, Q = inst.n, inst.m, inst.inv_epsilon
                R = rep.record_count
                bound = n * (R + 1) + R * (m + (m - 1) * bisection_budget(Q))
                ok5 &= rep.ledger.total <= bound
                budget_max_R = max(budget_max_R, R)
    elapsed = time.time() - start
    ok3 &= elapsed < 120.0
    report(3, ok3, f"500 random instances x 3 solvers agree with brute force, "
                   f"all accepted lotteries exactly verified ({elapsed:.1f}s)")
    report(5, ok5, "deterministic query totals within n(R+1) + "
                   f"R(m + (m-1)ceil(log2(2/eps^2))) on all 500 (max R={budget_max_R})")


def test_criterion_4_closed_form_threshold():
    start = time.time()
    rng = random.Random(77)
    checked = 0
    ok = True
    while checked < 1000:
        Q = rng.choice([4, 10])
        m = rng.choice([2, 3, 4])
        inst = random_instance(rng, 1, m, Q)
        agent = inst.agents[0]
        rej = [j + 1 for j, u in enumerate(agent.utilities) if u < agent.threshold]
        acc = [j + 1 for j, u in enumerate(agent.utilities) if u >= agent.threshold]
        if not rej or not acc:
            continue
        k, kp = rng.choice(rej), rng.choice(acc)
        o = Oracle(inst)
        alpha = exact_threshold(o, 1, k, kp)
        u_k, u_kp = agent.utilities[k - 1], agent.utilities[kp - 1]
        ok &= alpha == (agent.threshold - u_k) / (u_kp - u_k)
        ok &= o.ledger.per_category.get(QueryCategory.THRESHOLD_SEARCH, 0) <= bisection_budget(Q)
        checked += 1
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    report(4, ok, f"1000 turning points equal the closed form within "
                  f"ceil(log2(2/eps^2)) queries each ({elapsed:.1f}s)")


def test_criterion_6_randomized_elicitation_savings():
    start = time.time()
    n = 500
    inst, truth, _ = generate(GeneratorSpec(
        "dummy-padded", {"n": n, "m": 3, "inv_epsilon": 10, "seed": 0}))
    learned = []
    ok = True
    for seed in range(50):
        rep = solve_randomized(Oracle(inst), seed=seed)
        ok &= rep.accepted and rep.lottery == truth.lottery
        learned.append(len(rep.learned_agents))
    mean = statistics.mean(learned)
    elapsed = time.time() - start
    ok &= mean <= n / 2
    ok &= elapsed < 300.0
    report(6, ok, f"dummy-padded n=500: mean learned agents {mean:.1f} <= "
                  f"{n // 2}, all 50 seeds correct ({elapsed:.1f}s)")


def test_criterion_7_perfect_lottery_advice():
    start = time.time()
    ok = True
    # Part 1: a unanimously acceptable hint ends after exactly n queries.
    for seed in range(50):
        n = 2 + seed % 7
        inst, truth, _ = generate(GeneratorSpec(
            "random-feasible", {"n": n, "m": 3, "inv_epsilon": 10, "seed": seed}))
        rep = solve_deterministic(Oracle(inst), Advice(x_hat=truth.lottery))
        ok &= rep.accepted and rep.lottery == truth.lottery
        ok &= rep.ledger.total == n
    # Part 2: hints with exact edge projections (zero projection error) that
    # are themselves rejected still keep warm learning at <= m + 4(m-1).
    # Each agent below has every queried turning point at 1/2, which is the
    # uniform lottery's projection on every edge, yet rejects uniform.
    uniform3 = Lottery([F(1, 3)] * 3)
    agents = [
        AgentSpec([0, 1, 0], F(1, 2)),
        AgentSpec([1, 0, 0], F(1, 2)),
        AgentSpec([0, 0, 1], F(1, 2)),
    ]
    for agent in agents:
        inst = Instance(3, F(1, 10), [agent])
        accepted = [j for j in (1, 2, 3) if agent.utilities[j - 1] >= agent.threshold]
        ok &= all(exact_threshold(Oracle(inst), 1, k, kp) == F(1, 2)
                  for k in (1, 2, 3) if k not in accepted for kp in accepted)
        o = Oracle(inst)
        row = learn_hyperplane(o, 1, warm=uniform3)
        a, b = row
        ok &= sum(c * p for c, p in zip(a, uniform3.probs)) < b
        ok &= o.ledger.total <= 3 + 4 * 2
    elapsed = time.time() - start
    report(7, ok, "perfect hints finish in exactly n queries on 50 instances; "
                  f"zero-error warm learning within m + 4(m-1) ({elapsed:.1f}s)")


def test_criterion_8_advice_robustness():
    start = time.time()
    rng = random.Random(555)
    ok = True
    for k in range(100):
        n = rng.randint(2, 6)
        inst = random_instance(rng, n, rng.choice([2, 3]), rng.choice([4, 10]))
        base = solve_baseline(Oracle(inst)).accepted
        perms = []
        for _ in range(5):
            order = list(range(1, n + 1))
            rng.shuffle(order)
            perms.append(tuple(order))
        hints = [
            Lottery.pure(rng.randint(1, inst.m), inst.m),
            Lottery([F(1, inst.m)] * inst.m),
            Lottery([F(1, 2)] + [F(1, 2 * (inst.m - 1))] * (inst.m - 1)),
        ]
        for order in perms:
            for x_hat in hints:
                rep = solve_deterministic(Oracle(inst), Advice(order=order, x_hat=x_hat))
                ok &= rep.accepted == base
        rep = solve_randomized(Oracle(inst), Advice(order=perms[0], x_hat=hints[0]), seed=k)
        ok &= rep.accepted == base
    elapsed = time.time() - start
    report(8, ok, "100 instances x 5 permutations x 3 hints: outcome kind "
                  f"always matches the baseline ({elapsed:.1f}s)")


def test_criterion_9_near_threshold_family():
    start = time.time()
    Q, delta = 10, F(1, 25)
    M = min(Q // 2, int(delta * Q * Q) + 1)
    ok = M >= 1
    for t in range(M):
        inst, truth, advice = generate(GeneratorSpec(
            "near-threshold", {"inv_epsilon": Q, "delta": delta, "t": t}))
        alpha_t = truth.lottery.probs[1]
        ok &= abs(advice.x_hat.probs[1] - alpha_t) <= delta
        for name in ("baseline", "deterministic", "randomized"):
            rep = run_solver(inst, name, seed=t)
            ok &= rep.accepted and rep.lottery == truth.lottery
        hinted = solve_deterministic(Oracle(inst), Advice(x_hat=advice.x_hat))
        ok &= hinted.accepted and hinted.lottery == truth.lottery
    elapsed = time.time() - start
    report(9, ok, f"near-threshold Q={Q}: hints within delta and all solvers "
                  f"recover the unique lottery for t=0..{M - 1} ({elapsed:.1f}s)")


def test_criterion_10_sampling_distribution():
    start = time.time()
    draws = 10_000
    vectors = [
        ([3, 1], 1),
        ([2, 2, 2], 3),
        ([5, 1, 1, 1], 4),
        ([1, 2, 3, 4, 5], 5),
        ([10, 1], 3),
    ]
    ok = True
    pvals = []
    rng = random.Random(1234)
    for weights, r_prime in vectors:
        W, w1 = sum(weights), weights[0]
        support = list(range(max(0, r_prime - (W - w1)), min(w1, r_prime) + 1))
        observed = {k: 0 for k in support}
        for _ in range(draws):
            counts = weighted_sample(weights, r_prime, rng)
            observed[counts.get(1, 0)] += 1
        expected = [draws * hypergeom.pmf(k, W, w1, r_prime) for k in support]
        p = chisquare([observed[k] for k in support], expected).pvalue
        pvals.append(p)
        ok &= p > 0.01
    elapsed = time.time() - start
    ok &= elapsed < 120.0
    report(10, ok, "weighted sampling matches exact hypergeometric marginals "
                   f"(chi-square p values {['%.3f' % p for p in pvals]}, {elapsed:.1f}s)")
