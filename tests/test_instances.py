"""Tests for instance generators, quantization, and the file format."""

import json
import random
from fractions import Fraction as F

import pytest

from unanimity import (
    Advice,
    AgentSpec,
    GeneratorSpec,
    Instance,
    Lottery,
    Oracle,
    expected_utility,
    feasible_full,
    generate,
    quantize,
    read_instance,
    solve_deterministic,
    write_instance,
)


def random_lottery(rng, m):
    weights = [rng.randint(0, 10) for _ in range(m)]
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    return Lottery([F(w, total) for w in weights])


class TestGeneratorSpec:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec("bogus")

    def test_missing_params_reported(self):
        with pytest.raises(ValueError, match="missing"):
            generate(GeneratorSpec("grid-singleton", {"m": 3}))


class TestWorkedExamples:
    def test_feasible_example_matches_table(self):
        inst, truth, advice = generate(GeneratorSpec("example-2-3"))
        assert inst.n == 3 and inst.m == 3 and inst.inv_epsilon == 10
        assert inst.agents[0].utilities == (1, F(3, 5), F(1, 5))
        assert [a.threshold for a in inst.agents] == [F(3, 5), F(7, 10), F(3, 10)]
        assert truth.feasible and advice is None
        for agent in inst.agents:
            assert expected_utility(agent, truth.lottery) >= agent.threshold

    def test_infeasible_example(self):
        inst, truth, _ = generate(GeneratorSpec("example-2-1"))
        assert not truth.feasible
        assert feasible_full(inst) is None


class TestGridSingleton:
    def test_feasible_set_is_exactly_the_planted_point(self):
        x = Lottery(["1/4", "1/4", "1/2"])
        inst, truth, _ = generate(GeneratorSpec(
            "grid-singleton", {"m": 3, "inv_epsilon": 4, "x": x.probs}))
        assert truth.unique and truth.lottery == x
        assert feasible_full(inst) == x

    def test_twenty_random_grid_points(self):
        for seed in range(20):
            inst, truth, _ = generate(GeneratorSpec(
                "grid-singleton", {"m": 3, "inv_epsilon": 10, "seed": seed}))
            assert feasible_full(inst) == truth.lottery

    def test_off_grid_point_rejected(self):
        with pytest.raises(ValueError, match="coordinate"):
            generate(GeneratorSpec(
                "grid-singleton", {"m": 3, "inv_epsilon": 10, "x": ["1/4", "1/4", "1/2"]}))

    def test_requires_fine_enough_grid(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec("grid-singleton", {"m": 5, "inv_epsilon": 4}))

    def test_warns_outside_counting_regime(self):
        with pytest.warns(UserWarning):
            generate(GeneratorSpec("grid-singleton", {"m": 3, "inv_epsilon": 4,
                                                      "x": ["1/4", "1/4", "1/2"]}))


class TestDummyPadded:
    def test_padding_preserves_the_singleton(self):
        inst, truth, _ = generate(GeneratorSpec(
            "dummy-padded", {"n": 12, "m": 3, "inv_epsilon": 10, "seed": 4}))
        assert inst.n == 12
        assert feasible_full(inst) == truth.lottery
        # Padding agents accept everything.
        for agent in inst.agents[3:]:
            assert agent.utilities == (1, 1, 1) and agent.threshold == 1


class TestPointMass:
    def test_only_the_named_vertex_is_acceptable(self):
        inst, truth, _ = generate(GeneratorSpec("point-mass", {"m": 4, "j": 2}))
        o = Oracle(inst)
        from unanimity import QueryCategory
        answers = [o.query(1, Lottery.pure(j, 4), QueryCategory.VERIFICATION)
                   for j in range(1, 5)]
        assert answers == [False, True, False, False]
        assert feasible_full(inst) == truth.lottery == Lottery.pure(2, 4)


class TestNearThreshold:
    def test_t_zero_unique_point(self):
        inst, truth, advice = generate(GeneratorSpec(
            "near-threshold", {"inv_epsilon": 10, "delta": F(1, 25), "t": 0}))
        assert truth.lottery == Lottery([F(9, 10), F(1, 10)])
        assert feasible_full(inst) == truth.lottery
        assert isinstance(advice, Advice) and advice.x_hat is not None

    def test_hint_error_bound_for_all_t(self):
        Q, delta = 10, F(1, 25)
        M = min(Q // 2, int(delta * Q * Q) + 1)
        for t in range(M):
            inst, truth, advice = generate(GeneratorSpec(
                "near-threshold", {"inv_epsilon": Q, "delta": delta, "t": t}))
            alpha_t = truth.lottery.probs[1]
            alpha_hat = advice.x_hat.probs[1]
            assert abs(alpha_hat - alpha_t) <= delta
            report = solve_deterministic(Oracle(inst), Advice(x_hat=advice.x_hat))
            assert report.accepted and report.lottery == truth.lottery

    def test_t_out_of_range(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec(
                "near-threshold", {"inv_epsilon": 10, "delta": F(1, 25), "t": 99}))


class TestRandomFamilies:
    def test_random_feasible_witness_holds(self):
        for seed in range(15):
            inst, truth, _ = generate(GeneratorSpec(
                "random-feasible", {"n": 6, "m": 3, "inv_epsilon": 10, "seed": seed}))
            assert truth.feasible
            for agent in inst.agents:
                assert expected_utility(agent, truth.lottery) >= agent.threshold

    def test_random_infeasible_truly_infeasible(self):
        for seed in range(15):
            inst, truth, _ = generate(GeneratorSpec(
                "random-infeasible", {"n": 6, "m": 3, "inv_epsilon": 10, "seed": seed}))
            assert not truth.feasible
            assert feasible_full(inst) is None

    def test_same_seed_same_instance(self):
        spec = GeneratorSpec("random-feasible", {"n": 4, "m": 2, "inv_epsilon": 10, "seed": 8})
        assert generate(spec)[0] == generate(spec)[0]


class TestQuantize:
    def test_nearest_multiple(self):
        inst = quantize([["0.634", "0", "1"]], ["0.5"], F(1, 10))
        assert inst.agents[0].utilities == (F(3, 5), 0, 1)

    def test_ties_round_up(self):
        inst = quantize([["0.25"]], ["0.35"], F(1, 10))
        assert inst.agents[0].utilities == (F(3, 10),)
        assert inst.agents[0].threshold == F(2, 5)

    def test_already_quantized_is_a_fixed_point(self):
        inst = quantize([["0.6", "0.2"]], ["0.3"], F(1, 10))
        assert inst.agents[0].utilities == (F(3, 5), F(1, 5))
        assert inst.agents[0].threshold == F(3, 10)

    def test_tiny_threshold_clamped_positive(self):
        inst = quantize([["1"]], ["0.01"], F(1, 10))
        assert inst.agents[0].threshold == F(1, 10)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quantize([["1.5"]], ["0.5"], F(1, 10))
        with pytest.raises(ValueError):
            quantize([["0.5"]], ["0"], F(1, 10))

    def test_expected_utility_moves_by_at_most_epsilon(self):
        rng = random.Random(13)
        eps = F(1, 10)
        for _ in range(100):
            m = rng.choice([2, 3])
            raw = [F(rng.randint(0, 1000), 1000) for _ in range(m)]
            inst = quantize([raw], [F(1, 2)], eps)
            agent = inst.agents[0]
            x = random_lottery(rng, m)
            before = sum((u * p for u, p in zip(raw, x.probs)), F(0))
            assert abs(expected_utility(agent, x) - before) <= eps

    def test_acceptance_sandwich(self):
        # Clearing the raw threshold by 2*eps guarantees quantized acceptance,
        # and quantized acceptance guarantees clearing it minus 2*eps.
        rng = random.Random(29)
        eps = F(1, 10)
        for _ in range(100):
            m = rng.choice([2, 3])
            raw_u = [F(rng.randint(0, 1000), 1000) for _ in range(m)]
            raw_tau = F(rng.randint(1, 1000), 1000)
            agent = quantize([raw_u], [raw_tau], eps).agents[0]
            x = random_lottery(rng, m)
            raw_value = sum((u * p for u, p in zip(raw_u, x.probs)), F(0))
            accepted = expected_utility(agent, x) >= agent.threshold
            if raw_value >= raw_tau + 2 * eps:
                assert accepted
            if accepted:
                assert raw_value >= raw_tau - 2 * eps


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        inst, _, _ = generate(GeneratorSpec("example-2-3"))
        path = tmp_path / "ex.instance.json"
        write_instance(inst, path)
        assert read_instance(path) == inst

    def test_schema_fields(self, tmp_path):
        inst, _, _ = generate(GeneratorSpec("example-2-1"))
        path = tmp_path / "ex.instance.json"
        write_instance(inst, path)
        doc = json.loads(path.read_text())
        assert doc["m"] == 2 and doc["inv_epsilon"] == 10
        assert doc["agents"][0] == {"u": ["1", "0"], "tau": "3/5"}

    def test_zero_threshold_rejected(self, tmp_path):
        path = tmp_path / "bad.instance.json"
        path.write_text(json.dumps({
            "m": 2, "inv_epsilon": 10,
            "agents": [{"u": ["1", "0"], "tau": "0"}],
        }))
        with pytest.raises(ValueError):
            read_instance(path)

    def test_quantization_violation_names_the_agent(self, tmp_path):
        path = tmp_path / "bad.instance.json"
        path.write_text(json.dumps({
            "m": 2, "inv_epsilon": 10,
            "agents": [{"u": ["1", "0"], "tau": "1/2"},
                       {"u": ["1/3", "0"], "tau": "1/2"}],
        }))
        with pytest.raises(ValueError, match="agent 2"):
            read_instance(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.instance.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="malformed"):
            read_instance(path)
