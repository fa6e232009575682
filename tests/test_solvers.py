"""Tests for the end-to-end solvers, advice handling, and sampling."""

import json
import random
from fractions import Fraction as F

import pytest

from unanimity import (
    Advice,
    AgentSpec,
    Instance,
    Lottery,
    Oracle,
    QueryCategory,
    WeightVector,
    expected_utility,
    feasible_full,
    solve_baseline,
    solve_deterministic,
    solve_randomized,
    weighted_sample,
)
from unanimity.geometry import bisection_budget


def example_23() -> Instance:
    return Instance(3, F(1, 10), [
        AgentSpec(["1", "0.6", "0.2"], "0.6"),
        AgentSpec(["0.2", "1", "0.5"], "0.7"),
        AgentSpec(["0.2", "0.2", "1"], "0.3"),
    ])


def example_21() -> Instance:
    return Instance(2, F(1, 10), [
        AgentSpec([1, 0], "0.6"),
        AgentSpec([0, 1], "0.6"),
    ])


def random_instance(rng, n, m, Q) -> Instance:
    agents = []
    for _ in range(n):
        u = [F(rng.randint(0, Q), Q) for _ in range(m)]
        agents.append(AgentSpec(u, F(rng.randint(1, Q), Q)))
    return Instance(m, F(1, Q), agents)


def assert_sound(inst, report):
    """Accepted lotteries checked agent by agent; Null checked brute-force."""
    if report.accepted:
        for agent in inst.agents:
            assert expected_utility(agent, report.lottery) >= agent.threshold
    else:
        assert feasible_full(inst) is None


ALL_SOLVERS = [
    ("baseline", lambda o: solve_baseline(o)),
    ("deterministic", lambda o: solve_deterministic(o)),
    ("randomized", lambda o: solve_randomized(o, seed=5)),
]


class TestOutcomes:
    @pytest.mark.parametrize("name,run", ALL_SOLVERS)
    def test_feasible_worked_example(self, name, run):
        inst = example_23()
        report = run(Oracle(inst))
        assert report.accepted
        assert_sound(inst, report)

    @pytest.mark.parametrize("name,run", ALL_SOLVERS)
    def test_infeasible_worked_example(self, name, run):
        report = run(Oracle(example_21()))
        assert not report.accepted
        assert report.witness.agents == frozenset({1, 2})

    @pytest.mark.parametrize("name,run", ALL_SOLVERS)
    def test_reject_all_witness(self, name, run):
        inst = Instance(2, F(1, 4), [
            AgentSpec([1, 1], F(1, 4)),
            AgentSpec([0, 0], F(1, 4)),
        ])
        report = run(Oracle(inst))
        assert not report.accepted
        assert report.reject_all_agent == 2
        # RejectAll is detected from the vertex scan (m queries), possibly
        # after one verification query flagged the agent as a violator.
        assert report.ledger.per_agent[2] <= 3

    def test_ledgers_always_consistent(self):
        for _, run in ALL_SOLVERS:
            report = run(Oracle(example_23()))
            report.ledger.check()


class TestDeterministic:
    def test_unanimous_first_candidate_costs_n_queries(self):
        # Everyone accepts e_1 outright: one verification scan, zero learning.
        inst = Instance(2, F(1, 2), [AgentSpec([1, F(1, 2)], F(1, 2))] * 4)
        report = solve_deterministic(Oracle(inst))
        assert report.accepted and report.lottery == Lottery.pure(1, 2)
        assert report.ledger.total == 4 and report.record_count == 0

    def test_worked_example_record_count(self):
        report = solve_deterministic(Oracle(example_23()))
        assert report.accepted and report.record_count <= 3
        assert report.record_count == len(report.learned_agents)

    def test_query_budget(self):
        rng = random.Random(91)
        for trial in range(40):
            inst = random_instance(rng, rng.randint(1, 8), rng.choice([2, 3, 4]),
                                   rng.choice([4, 10]))
            report = solve_deterministic(Oracle(inst))
            assert_sound(inst, report)
            R = report.record_count
            n, m, Q = inst.n, inst.m, inst.inv_epsilon
            assert report.ledger.total <= n * (R + 1) + R * (m + (m - 1) * bisection_budget(Q))

    def test_scan_order_from_advice(self):
        inst = example_23()
        fwd = solve_deterministic(Oracle(inst), Advice(order=(1, 2, 3)))
        rev = solve_deterministic(Oracle(inst), Advice(order=(3, 2, 1)))
        assert fwd.accepted and rev.accepted
        assert fwd.lottery == rev.lottery  # outcome is order-independent

    def test_perfect_lottery_hint_exact_n_queries(self):
        inst = example_23()
        x_hat = Lottery(["0.25", "0.60", "0.15"])
        report = solve_deterministic(Oracle(inst), Advice(x_hat=x_hat))
        assert report.accepted and report.lottery == x_hat
        assert report.ledger.total == inst.n
        assert report.ledger.count(QueryCategory.ADVICE_CHECK) == inst.n

    def test_bad_lottery_hint_still_correct(self):
        inst = example_23()
        report = solve_deterministic(Oracle(inst), Advice(x_hat=Lottery.pure(3, 3)))
        assert report.accepted
        assert_sound(inst, report)

    def test_order_length_mismatch(self):
        with pytest.raises(ValueError):
            solve_deterministic(Oracle(example_23()), Advice(order=(1, 2)))


class TestAdviceValidation:
    def test_order_must_be_permutation(self):
        with pytest.raises(ValueError):
            Advice(order=(1, 1, 2))

    def test_kind(self):
        x = Lottery.pure(1, 2)
        assert Advice().kind == "None"
        assert Advice(order=(2, 1)).kind == "Permutation"
        assert Advice(x_hat=x).kind == "LotteryHint"
        assert Advice(order=(2, 1), x_hat=x).kind == "Both"


class TestRandomized:
    def test_seed_reproducibility(self):
        inst = example_23()
        a = solve_randomized(Oracle(inst), seed=7)
        b = solve_randomized(Oracle(inst), seed=7)
        assert a.lottery == b.lottery and a.ledger.total == b.ledger.total
        assert a.rng_seed == 7 and a.rng_algorithm == "mt19937"

    def test_correct_on_many_seeds(self):
        inst = example_23()
        for seed in range(25):
            report = solve_randomized(Oracle(inst), seed=seed)
            assert report.accepted
            assert_sound(inst, report)

    def test_infeasible_on_any_seed(self):
        for seed in range(10):
            report = solve_randomized(Oracle(example_21()), seed=seed)
            assert not report.accepted

    def test_permutation_advice_biases_weights_not_outcome(self):
        inst = example_23()
        report = solve_randomized(Oracle(inst), Advice(order=(3, 1, 2)), seed=2)
        assert report.accepted
        assert_sound(inst, report)

    def test_lottery_hint_short_circuit(self):
        inst = example_23()
        x_hat = Lottery(["0.25", "0.60", "0.15"])
        report = solve_randomized(Oracle(inst), Advice(x_hat=x_hat), seed=0)
        assert report.accepted and report.lottery == x_hat
        assert report.ledger.total == inst.n

    def test_requires_two_alternatives(self):
        inst = Instance(1, F(1, 2), [AgentSpec([1], 1)])
        with pytest.raises(ValueError):
            solve_randomized(Oracle(inst), seed=0)


class TestWeightedSample:
    def test_exhaustive_sample(self):
        w = WeightVector({1: 1, 2: 1})
        counts = weighted_sample(w, 2, random.Random(0))
        assert counts == {1: 1, 2: 1}

    def test_full_multiset(self):
        w = WeightVector({1: 2, 2: 2, 3: 2})
        counts = weighted_sample(w, 6, random.Random(1))
        assert counts == {1: 2, 2: 2, 3: 2}

    def test_single_draw_marginal(self):
        # P(agent 1) = 3/4: check the empirical rate over many draws.
        rng = random.Random(42)
        w = WeightVector({1: 3, 2: 1})
        hits = sum(1 in weighted_sample(w, 1, rng) for _ in range(4000))
        assert abs(hits / 4000 - 0.75) < 0.03

    def test_copy_counts_capped_by_weights(self):
        rng = random.Random(9)
        w = WeightVector({1: 2, 2: 5, 3: 1})
        for _ in range(50):
            counts = weighted_sample(w, 4, rng)
            assert sum(counts.values()) == 4
            assert all(counts[i] <= w.weights[i] for i in counts)

    def test_overdraw_rejected(self):
        with pytest.raises(ValueError):
            weighted_sample(WeightVector({1: 1}), 2, random.Random(0))

    def test_weight_vector_validation(self):
        with pytest.raises(ValueError):
            WeightVector({1: 0})
        doubled = WeightVector({1: 1, 2: 3}).doubled([2])
        assert doubled.weights == {1: 1, 2: 6}


def record_count(inst: Instance, order) -> int:
    # R(order): how many agents the deterministic solver learns.
    return len(solve_deterministic(Oracle(inst), Advice(order=order)).learned_agents)


class TestRecordCount:
    def test_binding_agent_first_gives_one(self):
        # Only agent 1 constrains the lex optimum; placing it first means the
        # solver learns exactly that one agent.
        inst = Instance(2, F(1, 2), [
            AgentSpec([0, 1], F(1, 2)),
            AgentSpec([F(1, 2), 1], F(1, 2)),
        ])
        assert record_count(inst, (1, 2)) == 1

    def test_unanimous_first_candidate_is_zero_for_all_orders(self):
        inst = Instance(2, F(1, 2), [AgentSpec([1, F(1, 2)], F(1, 2))] * 3)
        import itertools
        for order in itertools.permutations((1, 2, 3)):
            assert record_count(inst, order) == 0

    def test_worked_example_orders(self):
        inst = example_23()
        for order in ((1, 2, 3), (3, 2, 1)):
            assert record_count(inst, order) in {1, 2, 3}


class TestReportSerialization:
    def test_accepted_schema(self):
        report = solve_deterministic(Oracle(example_23()))
        doc = report.to_json_dict()
        json.dumps(doc)  # must be JSON-serializable as-is
        assert doc["outcome"]["kind"] == "Accepted"
        assert all(isinstance(t, str) for t in doc["outcome"]["lottery"])
        assert doc["queries"]["total"] == sum(doc["queries"]["per_agent"].values())
        assert doc["queries"]["total"] == sum(doc["queries"]["per_category"].values())

    def test_null_schema_with_witness(self):
        report = solve_baseline(Oracle(example_21()))
        doc = report.to_json_dict()
        assert doc["outcome"] == {"kind": "Null", "witness": {"helly": [1, 2]}}

    def test_randomized_schema_records_rng(self):
        report = solve_randomized(Oracle(example_23()), seed=3)
        doc = report.to_json_dict()
        assert doc["rng"] == {"seed": 3, "algorithm": "mt19937"}
        assert doc["iterations"] >= 1
