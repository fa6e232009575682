"""Tests for the end-to-end solvers, advice handling, and sampling."""

import json
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from reference_geometry import bisection_budget
from reference_instances import check_ledger, expected_utility, per_agent

from unanimity import (
    Advice,
    AgentSpec,
    GeneratorSpec,
    Instance,
    Lottery,
    Oracle,
    QueryCategory,
    feasible_full,
    generate,
    solve_baseline,
    solve_deterministic,
    solve_randomized,
    weighted_sample,
)
from unanimity import solvers


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
        assert report.witness.agents == frozenset({2})
        # RejectAll is detected from the vertex scan (m queries), possibly
        # after one verification query flagged the agent as a violator.
        assert per_agent(report.ledger)[2] <= 3

    def test_ledgers_always_consistent(self):
        for _, run in ALL_SOLVERS:
            report = run(Oracle(example_23()))
            check_ledger(report.ledger)


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
        assert report.ledger.per_category.get(QueryCategory.ADVICE_CHECK, 0) == inst.n

    def test_bad_lottery_hint_still_correct(self):
        inst = example_23()
        report = solve_deterministic(Oracle(inst), Advice(x_hat=Lottery.pure(3, 3)))
        assert report.accepted
        assert_sound(inst, report)

    def test_order_length_mismatch(self):
        for solve in (solve_deterministic, solve_randomized):
            o = Oracle(example_23())
            with pytest.raises(ValueError, match="order covers 2 agents, instance has 3"):
                solve(o, Advice(order=(1, 2)))
            assert o.ledger.total == 0, solve.__name__

    @pytest.mark.parametrize("agents", [[], [AgentSpec([1, 0, 0], "0.5")]])
    def test_lottery_hint_of_wrong_dimension(self, agents):
        # Without agents no query would notice the mismatch.
        o = Oracle(Instance(3, F(1, 10), agents))
        with pytest.raises(ValueError, match="dimension mismatch: instance has 3, lottery hint 2"):
            solve_deterministic(o, Advice(x_hat=Lottery(["1/2", "1/2"])))
        assert o.ledger.total == 0


class TestAdviceValidation:
    def test_order_must_be_permutation(self):
        # Only plain ints are agents: no entry is rounded, parsed or split.
        for order in [(1, 1, 2), [1.9, 2.2], [True, 2], [" 2", "1"], "21"]:
            with pytest.raises(ValueError, match="order must be a permutation"):
                Advice(order=order)

    @pytest.mark.parametrize("x_hat", [["1/2", "1/4", "1/4"], ("1/2", "1/4", "1/4"), "1/2,1/4,1/4"])
    def test_lottery_hint_must_be_a_lottery(self, x_hat):
        with pytest.raises(ValueError, match="lottery hint must be a Lottery, got "):
            Advice(x_hat=x_hat)

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

    def test_weights_start_at_ceil_n_over_rank_and_double(self, monkeypatch):
        # Each round samples by the agents' weights as they stand; between
        # rounds the violators' weights double and the others stay.
        seen = []

        def spy(weights, r_prime, rng):
            seen.append((list(weights), r_prime))
            return weighted_sample(weights, r_prime, rng)

        monkeypatch.setattr(solvers, "weighted_sample", spy)
        inst, _, _ = generate(GeneratorSpec(
            "random-feasible", {"n": 40, "m": 3, "inv_epsilon": 20, "seed": 4}))
        order = tuple(range(40, 0, -1))  # agent i has rank 41 - i
        rounds = 0
        for seed in range(4):
            seen.clear()
            report = solve_randomized(Oracle(inst), Advice(order=order), seed=seed)
            assert seen[0][0] == [-(-40 // (41 - i)) for i in range(1, 41)]
            assert len(seen) == report.iterations
            assert all(r_prime == min(64, sum(w)) for w, r_prime in seen)
            for (before, _), (after, _) in zip(seen, seen[1:]):
                assert all(b in (a, 2 * a) for a, b in zip(before, after))
                assert after != before
            rounds = max(rounds, len(seen))
        assert rounds > 1

    def test_lottery_hint_short_circuit(self):
        inst = example_23()
        x_hat = Lottery(["0.25", "0.60", "0.15"])
        report = solve_randomized(Oracle(inst), Advice(x_hat=x_hat), seed=0)
        assert report.accepted and report.lottery == x_hat
        assert report.ledger.total == inst.n

    def test_one_alternative(self):
        # 16(m-1)^2 is 0 at m = 1, so each round draws one copy instead.
        inst = Instance(1, F(1, 2), [AgentSpec([1], 1)])
        report = solve_randomized(Oracle(inst), seed=0)
        assert report.lottery == Lottery.pure(1, 1) and report.iterations == 1
        inst = Instance(1, F(1, 2), [AgentSpec([1], 1), AgentSpec([0], F(1, 2))])
        report = solve_randomized(Oracle(inst), seed=0)
        assert not report.accepted and report.witness.agents == frozenset({2})


def scan_weighted_sample(weights: list[int], r_prime: int, rng: random.Random) -> dict[int, int]:
    """Reference for ``weighted_sample``: each draw scans the agents in
    ascending index order for the first whose running count exceeds t."""
    remaining = dict(enumerate(weights, start=1))
    total = sum(remaining.values())
    if r_prime > total:
        raise ValueError(f"cannot draw {r_prime} copies from a multiset of {total}")
    counts: dict[int, int] = {}
    for _ in range(r_prime):
        t = rng.randrange(total)
        for i, c in remaining.items():
            if t < c:
                counts[i] = counts.get(i, 0) + 1
                if c == 1:
                    del remaining[i]
                else:
                    remaining[i] = c - 1
                total -= 1
                break
            t -= c
    return counts


class TestWeightedSample:
    def test_exhaustive_sample(self):
        counts = weighted_sample([1, 1], 2, random.Random(0))
        assert counts == {1: 1, 2: 1}

    def test_full_multiset(self):
        counts = weighted_sample([2, 2, 2], 6, random.Random(1))
        assert counts == {1: 2, 2: 2, 3: 2}

    def test_single_draw_marginal(self):
        # P(agent 1) = 3/4: check the empirical rate over many draws.
        rng = random.Random(42)
        hits = sum(1 in weighted_sample([3, 1], 1, rng) for _ in range(4000))
        assert abs(hits / 4000 - 0.75) < 0.03

    def test_copy_counts_capped_by_weights(self):
        rng = random.Random(9)
        weights = [2, 5, 1]
        for _ in range(50):
            counts = weighted_sample(weights, 4, rng)
            assert sum(counts.values()) == 4
            assert all(counts[i] <= weights[i - 1] for i in counts)

    def test_overdraw_rejected(self):
        with pytest.raises(ValueError):
            weighted_sample([1], 2, random.Random(0))

    @pytest.mark.parametrize("r_prime", [-1, -2, -7])
    def test_negative_draw_rejected(self, r_prime):
        with pytest.raises(ValueError, match=f"cannot draw {r_prime} copies from a multiset of 6"):
            weighted_sample([1, 2, 3], r_prime, random.Random(0))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(1, 6) | st.integers(1, 2**70), min_size=1, max_size=40),
        st.integers(0, 200),
        st.integers(0, 2**32),
    )
    def test_matches_running_sum_scan(self, weights, r_prime, seed):
        r_prime = min(r_prime, sum(weights))
        fast, slow = random.Random(seed), random.Random(seed)
        assert weighted_sample(weights, r_prime, fast) == scan_weighted_sample(weights, r_prime, slow)
        assert fast.getstate() == slow.getstate()

    def test_weight_vector_validation(self):
        for weights in ([0], [3, 0, 2], [1, -1]):
            with pytest.raises(ValueError, match="weights must be >= 1"):
                weighted_sample(weights, 0, random.Random(0))


DEGENERATE_KINDS = ("one-alternative", "no-agents", "accept-all", "turning-at-one",
                    "on-threshold")


@st.composite
def degenerate_instances(draw, kind):
    """Grid instances at the edges of the model (1/eps <= 12)."""
    Q = draw(st.integers(2, 12))
    m = 1 if kind == "one-alternative" else draw(st.integers(1 if kind == "no-agents" else 2, 4))
    n = 0 if kind == "no-agents" else draw(st.integers(1, 5))
    agents = []
    for _ in range(n):
        t = draw(st.integers(1, Q))
        if kind == "accept-all":
            u = [draw(st.integers(t, Q)) for _ in range(m)]
        elif kind == "turning-at-one":
            # Accepted vertices sit exactly on the threshold and the others
            # below it, so every turning point into an accepted vertex is 1.
            u = [draw(st.integers(0, t - 1) | st.just(t)) for _ in range(m)]
        elif kind == "on-threshold":
            u = [draw(st.just(t) | st.integers(0, Q)) for _ in range(m)]
        else:
            u = [draw(st.integers(0, Q)) for _ in range(m)]
        agents.append(AgentSpec([F(a, Q) for a in u], F(t, Q)))
    return Instance(m, F(1, Q), agents)


class TestDegenerateInstances:
    """Every solver agrees with the zero-query ``feasible_full`` and returns
    a sound answer."""

    @pytest.mark.parametrize("kind", DEGENERATE_KINDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_solvers_agree_with_feasible_full(self, kind, data):
        inst = data.draw(degenerate_instances(kind))
        feasible = feasible_full(inst) is not None
        for name, run in ALL_SOLVERS:
            report = run(Oracle(inst))
            assert report.accepted == feasible, name
            assert_sound(inst, report)
            check_ledger(report.ledger)

    def test_no_agents_accept_the_lex_max_vertex_without_a_query(self):
        for name, run in ALL_SOLVERS:
            report = run(Oracle(Instance(3, F(1, 4), [])))
            assert report.lottery == Lottery.pure(1, 3) and report.ledger.total == 0

    @pytest.mark.parametrize("name,run", ALL_SOLVERS)
    def test_turning_point_at_one_pins_a_vertex(self, name, run):
        # Agent 1 accepts only e_2, where its utility equals its threshold;
        # agent 2's utility equals its threshold at every lottery.
        inst = Instance(2, F(1, 4), [
            AgentSpec([0, F(1, 2)], F(1, 2)),
            AgentSpec([F(1, 2), F(1, 2)], F(1, 2)),
        ])
        report = run(Oracle(inst))
        assert report.accepted and report.lottery == Lottery.pure(2, 2)


class TestManyLearnedRows:
    """Nearly all 1000 agents learned at m = 6, so a select sees up to 1000 rows.
    The lottery and query counts are those of the two-phase tableau LP, which
    took over a minute per run on a 2-core Xeon; the m-by-m dual simplex
    takes about 1.5 s, most of it eliciting the agents."""

    LOTTERY = Lottery(["84635213/1007488975", "28854438/1007488975", "2242821/201497795",
                       "98679444/1007488975", "249983098/1007488975", "534122677/1007488975"])

    @pytest.mark.parametrize("run, queries", [
        (solve_baseline, 62_700),
        (lambda o: solve_randomized(o, seed=1), 73_613),
    ])
    def test_random_feasible_n1000_m6(self, run, queries):
        inst, _, _ = generate(GeneratorSpec(
            "random-feasible", {"n": 1000, "m": 6, "inv_epsilon": 100, "seed": 2}))
        start = time.perf_counter()
        report = run(Oracle(inst))
        assert time.perf_counter() - start < 20
        assert report.lottery == self.LOTTERY
        assert report.ledger.total == queries


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


class TestReportLedger:
    """The accounting identities every solver report keeps: the query counts
    add up three ways, each learned agent costs exactly m PureVertex queries
    and is charged at least m, every agent named lies in 1..n, every
    category is a ``QueryCategory``, an Accepted lottery was put to every
    agent, and a Null witness names only learned agents, one exactly when
    it rejects every pure lottery.  A rejected lottery hint costs n
    AdviceCheck queries and at most doubles the ThresholdSearch ones, and
    changes nothing else."""

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(["random-feasible", "random-infeasible"]),
           n=st.integers(2, 40), m=st.integers(2, 5), inv_eps=st.sampled_from([5, 10, 20]),
           seed=st.integers(0, 2**16))
    def test_identities(self, family, n, m, inv_eps, seed):
        inst, _, _ = generate(GeneratorSpec(
            family, {"n": n, "m": m, "inv_epsilon": inv_eps, "seed": seed}))
        rng = random.Random(seed)
        order = rng.sample(range(1, n + 1), n)
        weights = [rng.randint(0, 3) for _ in range(m)]
        weights[rng.randrange(m)] += 1
        hint = Lottery([F(w, sum(weights)) for w in weights])
        runs = [solve_baseline(Oracle(inst))]
        by_advice = {}
        for advice in (Advice(), Advice(order=order), Advice(x_hat=hint),
                       Advice(order=order, x_hat=hint)):
            by_advice[advice.kind] = (solve_deterministic(Oracle(inst), advice),
                                      solve_randomized(Oracle(inst), advice, seed=seed))
            runs += by_advice[advice.kind]
        for report in runs:
            doc = report.to_json_dict()
            queries = doc["queries"]
            assert queries["total"] == sum(queries["per_agent"].values())
            assert queries["total"] == sum(queries["per_category"].values())
            assert doc["record_count"] == len(doc["learned_agents"])
            assert (queries["per_category"].get("PureVertex", 0)
                    == m * len(doc["learned_agents"]))
            assert set(doc["learned_agents"]) <= set(range(1, n + 1))
            assert set(queries["per_agent"]) <= {str(i) for i in range(1, n + 1)}
            assert all(queries["per_agent"][str(i)] >= m for i in doc["learned_agents"])
            assert set(queries["per_category"]) <= {cat.value for cat in QueryCategory}
            outcome = doc["outcome"]
            if outcome["kind"] == "Accepted":
                assert set(queries["per_agent"]) == {str(i) for i in range(1, n + 1)}
                continue
            claimed = sorted(report.witness.agents)
            assert set(claimed) <= set(doc["learned_agents"])
            reject_all = [max(U) < T for U, T in (inst.grid_rows[i - 1] for i in claimed)]
            assert (len(claimed) == 1) == any(reject_all)
            assert outcome["witness"] == (
                {"reject_all": claimed[0]} if len(claimed) == 1 else {"helly": claimed})
        if all(expected_utility(a, hint) >= a.threshold for a in inst.agents):
            return
        for hinted, plain in (("LotteryHint", "None"), ("Both", "Permutation")):
            for h, p in zip(by_advice[hinted], by_advice[plain]):
                h_cats, p_cats = h.ledger.per_category, p.ledger.per_category
                assert h_cats[QueryCategory.ADVICE_CHECK] == n
                assert (h_cats.get(QueryCategory.THRESHOLD_SEARCH, 0)
                        <= 2 * p_cats.get(QueryCategory.THRESHOLD_SEARCH, 0))
                for cat in (QueryCategory.PURE_VERTEX, QueryCategory.VERIFICATION):
                    assert h_cats.get(cat, 0) == p_cats.get(cat, 0)
                assert ((h.lottery, h.witness, h.learned_agents, h.iterations)
                        == (p.lottery, p.witness, p.learned_agents, p.iterations))


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
