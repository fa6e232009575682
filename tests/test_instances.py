"""Tests for instance generators, quantization, and the file format."""

import json
import random
import re
import warnings
from decimal import Decimal
from fractions import Fraction as F

import pytest
import reference_instances
from hypothesis import given, settings, strategies as st
from reference_instances import expected_utility

from unanimity import (
    Advice,
    AgentSpec,
    GeneratorSpec,
    Instance,
    Lottery,
    Oracle,
    feasible_full,
    generate,
    quantize,
    read_instance,
    solve_deterministic,
    write_instance,
)
from unanimity import instances
from unanimity.core import parse_rational
from unanimity.instances import FAMILIES

# A utility with 5,000 digits in each part, beyond int()'s digit limit.
LONG = "1" * 5000 + "/2" + "0" * 4999


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

    @pytest.mark.parametrize("family, params", [
        ("random-feasible", {"n": 3, "m": 2, "inv_epsilon": 10}),
        ("random-infeasible", {"n": 3, "m": 2, "inv_epsilon": 10}),
        ("dummy-padded", {"n": 3, "m": 2, "inv_epsilon": 10}),
        ("grid-singleton", {"m": 2, "inv_epsilon": 10}),
        ("point-mass", {"m": 3, "j": 1}),
    ])
    def test_bad_sizes_rejected(self, family, params):
        generate(GeneratorSpec(family, params))
        for key, bad, message in (("n", -1, "need n >= 0"), ("m", 0, "need m >= 1")):
            if key in params:
                with pytest.raises(ValueError, match=message):
                    generate(GeneratorSpec(family, {**params, key: bad}))

    @pytest.mark.parametrize("family, params, key, bad", [
        ("random-feasible", {"n": 3, "m": 2, "inv_epsilon": 10}, "n", 2.5),
        ("random-feasible", {"n": 3, "m": 2, "inv_epsilon": 10}, "m", 2.0),
        ("random-infeasible", {"n": 3, "m": 2, "inv_epsilon": 10}, "n", "3"),
        ("dummy-padded", {"n": 3, "m": 1, "inv_epsilon": 10}, "n", True),
        ("near-threshold", {"inv_epsilon": 10, "delta": "1/25", "t": 1}, "t", 1.0),
        ("random-feasible", {"n": 3, "m": 2, "inv_epsilon": 10}, "seed", 1.5),
        ("point-mass", {"m": 3, "j": 2}, "j", 2.0),
    ])
    def test_non_integer_params_rejected(self, family, params, key, bad):
        generate(GeneratorSpec(family, params))
        with pytest.raises(ValueError, match=f"^parameter {key} must be an integer"):
            generate(GeneratorSpec(family, {**params, key: bad}))

    @pytest.mark.parametrize("family, params, message", [
        ("random-feasible", {"n": 3, "m": 5, "inv_epsilon": 4},
         "positive grid lottery needs 1/epsilon >= m (got 4 < 5)"),
        ("grid-singleton", {"m": 2, "inv_epsilon": 10, "x": ["1/5", "2/5", "2/5"]},
         "grid point has 3 coordinates, expected 2"),
        ("dummy-padded", {"n": 1, "m": 2, "inv_epsilon": 10},
         "dummy-padded needs n >= m (got n=1, m=2)"),
        ("point-mass", {"m": 3, "j": 4}, "alternative index 4 out of range 1..3"),
        ("near-threshold", {"inv_epsilon": 3, "delta": "1/25", "t": 0},
         "near-threshold needs 1/epsilon >= 4"),
        ("near-threshold", {"inv_epsilon": 10, "delta": 0, "t": 0}, "delta must be positive"),
        ("random-infeasible", {"n": 1, "m": 2, "inv_epsilon": 10},
         "random-infeasible needs n >= 2 and m >= 2"),
    ])
    def test_family_specific_refusals(self, family, params, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate(GeneratorSpec(family, params))

    @pytest.mark.parametrize("family, params, unread", [
        ("example-2-3", {"n": 3, "seed": 1}, "n"),
        ("random-feasible", {"n": 3, "m": 2, "inv_epsilon": 10, "x": ["1/2", "1/2"]}, "x"),
        ("grid-singleton", {"n": 5, "m": 2, "inv_epsilon": 10, "t": 0}, "n, t"),
        ("near-threshold", {"inv_epsilon": 10, "delta": "1/25", "t": 0, "m": 2}, "m"),
    ])
    def test_unread_params_rejected(self, family, params, unread):
        with pytest.raises(ValueError, match=f"does not read parameter\\(s\\): {unread}$"):
            generate(GeneratorSpec(family, params))


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

    def test_delta_exponent_bounded(self):
        with pytest.raises(ValueError, match="exponent beyond"):
            generate(GeneratorSpec(
                "near-threshold", {"inv_epsilon": 10, "delta": "1e-5000", "t": 0}))


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

    @pytest.mark.parametrize("args", [
        ([["1e-5000", "1"]], ["1/2"], F(1, 10)),
        ([["1", "0"]], ["1e-5000"], F(1, 10)),
        ([["1", "0"]], ["1/2"], "1e-5000"),
    ], ids=["utility", "threshold", "epsilon"])
    def test_exponent_bounded(self, args):
        with pytest.raises(ValueError, match="exponent beyond"):
            quantize(*args)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quantize([["1.5"]], ["0.5"], F(1, 10))
        with pytest.raises(ValueError):
            quantize([["0.5"]], ["0"], F(1, 10))
        with pytest.raises(ValueError, match="1/epsilon"):
            quantize([["0.5"]], ["0.5"], 0)

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
        # Every range, zero-threshold, length and quantization error names
        # the agent (here always the second, after a valid first one).
        path = tmp_path / "bad.instance.json"
        for bad in ({"u": ["1/3", "0"], "tau": "1/2"},
                    {"u": ["1", "0"], "tau": "1/3"},
                    {"u": ["0", "3/2"], "tau": "1/2"},
                    {"u": ["-1/10", "0"], "tau": "1/2"},
                    {"u": ["1", "0"], "tau": "11/10"},
                    {"u": ["1", "0"], "tau": "-1/2"},
                    {"u": ["1", "0"], "tau": "0"},
                    {"u": ["1", "0"], "tau": "0/7"},
                    {"u": ["1"], "tau": "1/2"},
                    {"u": ["1", "0", "0"], "tau": "1/2"},
                    {"u": ["1", "x"], "tau": "1/2"},
                    {"u": [["1"], "0"], "tau": "1/2"},
                    {"u": ["1", "0"], "tau": {"x": 1}},
                    {"u": [LONG, "0"], "tau": "1/2"}):
            path.write_text(json.dumps({
                "m": 2, "inv_epsilon": 10,
                "agents": [{"u": ["1", "0"], "tau": "1/2"}, bad],
            }))
            with pytest.raises(ValueError, match="^agent 2: ") as info:
                read_instance(path)
        # The last file's utility has too many digits for int(), so
        # Fraction refuses it, whatever its value.
        assert str(info.value) == (
            f"agent 2: utility for alternative 1 {LONG!r} is not a rational string")

    @pytest.mark.parametrize("agents, message", [
        ([{"u": ["1"], "tau": "1/2"}, {"u": ["1", "x"], "tau": "1/2"}],
         "^agent 2: expected 2 utilities, got 1$"),
        ([{"u": ["1", "0"]}, {"u": ["1/3", "0"], "tau": "1/2"}],
         "agent 2: want"),
        ([{"u": ["1", "0"], "tau": "1/2"}] * 4 + [{"u": ["1", "0"], "tau": "0"}],
         "^agent 6: threshold '0' is not positive$"),
        ([{"u": ["\u00b2/4", "0"], "tau": "1/2"}, {"u": ["1/3", "0"], "tau": "1/2"}],
         "^agent 2: utility for alternative 1 '\u00b2/4' is not a rational string$"),
    ], ids=["length-then-value", "structure-then-grid", "last-tau-zero", "superscript-digit"])
    def test_first_bad_agent_is_named(self, tmp_path, agents, message):
        # Agent 1 is valid; each file is bad from agent 2 on.
        path = tmp_path / "bad.instance.json"
        path.write_text(json.dumps({
            "m": 2, "inv_epsilon": 10,
            "agents": [{"u": ["1", "0"], "tau": "1/2"}] + agents,
        }))
        with pytest.raises(ValueError, match=message):
            read_instance(path)

    @pytest.mark.parametrize("family, params", [
        ("random-feasible", {"n": 40, "m": 3, "inv_epsilon": 5000}),
        ("dummy-padded", {"n": 900, "m": 3, "inv_epsilon": 20}),
        ("near-threshold", {"inv_epsilon": 4000, "delta": "1/25", "t": 7}),
    ])
    def test_writer_spelling_builds_no_fraction(self, tmp_path, monkeypatch, family, params):
        inst, _, _ = generate(GeneratorSpec(family, params))
        path = tmp_path / "written.instance.json"
        write_instance(inst, path)
        calls = []

        def counted(text):
            calls.append(text)
            return parse_rational(text)

        monkeypatch.setattr(instances, "parse_rational", counted)
        assert read_instance(path) == inst
        assert calls == []

    def test_structural_error_names_the_agent(self, tmp_path):
        # An agent that is not an object, lacks "u" or "tau", or has a "u"
        # that is not a list, is named like a bad value is (again the
        # second, after a valid first one).
        path = tmp_path / "bad.instance.json"
        for bad in ({"u": ["1", "0"]}, {"tau": "1/2"}, 5,
                    {"u": "10", "tau": "1/2"}, {"u": {"1": 0, "0": 1}, "tau": "1/2"}):
            path.write_text(json.dumps({
                "m": 2, "inv_epsilon": 10,
                "agents": [{"u": ["1", "0"], "tau": "1/2"}, bad],
            }))
            with pytest.raises(ValueError, match="agent 2: want"):
                read_instance(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.instance.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="malformed"):
            read_instance(path)


# Each family with a strategy for its parameters (seed included).
_SEEDS = st.integers(0, 10**6)
_FAMILY_PARAMS = {
    "example-2-3": st.fixed_dictionaries({}),
    "example-2-1": st.fixed_dictionaries({}),
    "random-feasible": st.fixed_dictionaries(
        {"n": st.integers(0, 25), "m": st.integers(1, 4),
         "inv_epsilon": st.sampled_from([4, 7, 10, 20, 360, 10**6]), "seed": _SEEDS}),
    "random-infeasible": st.fixed_dictionaries(
        {"n": st.integers(2, 25), "m": st.integers(2, 4),
         "inv_epsilon": st.sampled_from([2, 7, 10, 20, 10**6]), "seed": _SEEDS}),
    "grid-singleton": st.fixed_dictionaries(
        {"m": st.integers(1, 4), "inv_epsilon": st.sampled_from([4, 9, 20, 5000]),
         "seed": _SEEDS}),
    "point-mass": st.integers(1, 4).flatmap(lambda m: st.fixed_dictionaries(
        {"m": st.just(m), "j": st.integers(1, m), "inv_epsilon": st.integers(2, 30)})),
    "dummy-padded": st.integers(1, 4).flatmap(lambda m: st.fixed_dictionaries(
        {"n": st.integers(m, 25), "m": st.just(m),
         "inv_epsilon": st.sampled_from([4, 10, 20, 999]), "seed": _SEEDS})),
    "near-threshold": st.sampled_from([4, 10, 20, 4000]).flatmap(
        lambda Q: st.fixed_dictionaries(
            {"inv_epsilon": st.just(Q), "delta": st.just("1/25"),
             "t": st.integers(0, min(Q // 2, Q * Q // 25 + 1) - 1), "seed": _SEEDS})),
}
assert set(_FAMILY_PARAMS) == set(FAMILIES)


def _outcome(read, path):
    """What a reader (or ``quantize``) makes of its input: the instance, or
    the ValueError class."""
    try:
        return read(path)
    except ValueError:
        return ValueError


def _grid_spellings(Q, low=0):
    """Strings for k/Q, k in low..Q: reduced, unreduced, padded, decimal."""
    def spell(k):
        forms = [f"{k}/{Q}", str(F(k, Q)), f"{2 * k}/{2 * Q}", f" {F(k, Q)} "]
        if 100 % Q == 0:
            forms.append(str(Decimal(k) / Decimal(Q)))
        return st.sampled_from(forms)
    return st.integers(low, Q).flatmap(spell)


# Values a broken instance file might hold: off-grid and out-of-range
# rationals, JSON numbers and bools, unparsable strings, and spellings
# near the writer's "p/q" (leading zeros, an underscore, non-ASCII digits,
# a superscript, empty parts).
_ODD_VALUES = st.one_of(
    st.sampled_from(["0", "1", "0.65", "0.5", "1/3", "2/7", "3/2", "-1/10", "-0", "1/0",
                     "", "x", "1e-1", "+1/2", "0.333", "007/20", "1/020", "1_0/20",
                     "\u0661/\u0662", "\uff11/\uff12", "\u00b2/4", "0/0", "1/", "/2"]),
    st.sampled_from([0, 1, 0.5, 1.0, True, False, None, ["1"], {"u": "1"}]),
)


@st.composite
def instance_docs(draw):
    """Instance files, half of them valid; the rest have a few bad values,
    wrong lengths, a missing field or a bad header.  Drawing from small
    grids repeats strings often."""
    m = draw(st.integers(1, 4))
    Q = draw(st.sampled_from([2, 3, 10, 20, 100]))
    clean = draw(st.booleans())
    utilities, thresholds = _grid_spellings(Q), _grid_spellings(Q, low=1)
    if not clean:
        utilities = st.one_of(*[utilities] * 6, _ODD_VALUES)
        thresholds = st.one_of(*[thresholds] * 6, _grid_spellings(Q), _ODD_VALUES)
    agents = []
    for _ in range(draw(st.integers(0, 6))):
        length = m if clean else draw(st.sampled_from([m] * 6 + [m - 1, m + 1]))
        agent = {"u": draw(st.lists(utilities, min_size=length, max_size=length)),
                 "tau": draw(thresholds)}
        if not clean:
            agent = draw(st.sampled_from([agent] * 12 + [{"u": agent["u"]}, agent["u"]]))
        agents.append(agent)
    doc = {"m": m, "inv_epsilon": Q, "agents": agents}
    key = None if clean else draw(st.sampled_from(["m", "inv_epsilon"] + [None] * 8))
    if key is not None:
        doc[key] = draw(st.sampled_from([0, 1, -2, 3, True, 10.0, "10", None]))
    return doc


@st.composite
def quantize_args(draw):
    """Arguments for ``quantize``: values at exact ties (k + 1/2)/Q and
    within epsilon/2 of 0 and 1, positive thresholds below epsilon/2.  One
    draw in three has a flaw: a row of another length, one threshold too
    many or too few, a value out of range, or an epsilon not of the form
    1/Q."""
    Q = draw(st.sampled_from([2, 3, 7, 10, 20, 1000]))
    half = F(1, 2 * Q)
    ties = st.integers(0, Q - 1).map(lambda k: F(2 * k + 1, 2 * Q))
    near_one = st.fractions(1 - half, 1, max_denominator=10**6)
    anywhere = st.fractions(0, 1, max_denominator=10**4)
    utility = st.one_of(ties, st.fractions(0, half, max_denominator=10**6), near_one, anywhere)
    threshold = st.one_of(ties, st.fractions(F(1, 10**6), half, max_denominator=10**6),
                          near_one, anywhere)
    utility, threshold = (st.one_of(v, v.map(str)) for v in (utility, threshold))
    m, n = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    utilities = draw(st.lists(st.lists(utility, min_size=m, max_size=m), min_size=n, max_size=n))
    thresholds = draw(st.lists(threshold, min_size=n, max_size=n))
    eps = F(1, Q)
    flaw = draw(st.sampled_from([None] * 8 + ["length", "count", "range", "epsilon"]))
    if flaw == "length" and n:
        row = utilities[draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append("1")
    elif flaw == "count":
        thresholds = thresholds[:-1] if n and draw(st.booleans()) else thresholds + ["1"]
    elif flaw == "range" and n:
        bad = draw(st.sampled_from([F(-1, 10**6), F(10**6 + 1, 10**6), F(3, 2)]))
        if draw(st.booleans()):
            utilities[0][0] = bad
        else:
            thresholds[0] = draw(st.sampled_from([bad, F(0)]))
    elif flaw == "epsilon":
        eps = draw(st.sampled_from([F(2, 5), F(3, 10), F(1), F(2), F(7, 3), F(-1, 10), "0.3"]))
    return utilities, thresholds, eps


@pytest.fixture(scope="module")
def file_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("instance-files")


class TestAgainstReference:
    """The integer-row generators, reader and writer against the
    Fraction-based ones they replace (``tests/reference_instances.py``)."""

    @settings(max_examples=150, deadline=None)
    @given(family=st.sampled_from(FAMILIES), data=st.data())
    def test_writer_bytes_match_reference(self, file_dir, family, data):
        params = data.draw(_FAMILY_PARAMS[family])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst, _, _ = generate(GeneratorSpec(family, params))
        ours, ref = file_dir / "ours.instance.json", file_dir / "ref.instance.json"
        write_instance(inst, ours)
        reference_instances.write_instance(inst, ref)
        assert ours.read_bytes() == ref.read_bytes()
        assert read_instance(ours) == inst

    @settings(max_examples=400, deadline=None)
    @given(doc=instance_docs())
    def test_reader_matches_reference(self, file_dir, doc):
        path = file_dir / "fuzz.instance.json"
        path.write_text(json.dumps(doc))
        ours = _outcome(read_instance, path)
        ref = _outcome(reference_instances.read_instance, path)
        assert (ours is ValueError) == (ref is ValueError)
        if ref is not ValueError:
            assert ours == ref and ours.agents == ref.agents

    @settings(max_examples=500, deadline=None)
    @given(args=quantize_args())
    def test_quantize_matches_reference(self, args):
        ours = _outcome(lambda a: quantize(*a), args)
        ref = _outcome(lambda a: reference_instances.quantize(*a), args)
        # Equal instances (m, epsilon and grid_rows), or ValueError on both sides.
        assert ours == ref

    def test_reader_accepts_reference_spellings(self, tmp_path):
        path = tmp_path / "spelled.instance.json"
        path.write_text(json.dumps({"m": 3, "inv_epsilon": 20, "agents": [
            {"u": ["0.65", " 1/2 ", "2/20"], "tau": "0.65"},
            {"u": ["0.65", "1", "-0"], "tau": "1e-1"},
        ]}))
        inst = read_instance(path)
        assert inst == reference_instances.read_instance(path)
        assert inst.grid_rows == (((13, 10, 2), 13), ((13, 20, 0), 2))

    @settings(max_examples=300, deadline=None)
    @given(family=st.sampled_from(FAMILIES), data=st.data())
    def test_same_instance_truth_and_hint(self, family, data):
        params = data.draw(_FAMILY_PARAMS[family])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst, truth, advice = generate(GeneratorSpec(family, params))
            ref, ref_truth, ref_advice = reference_instances.generate(family, params)
        assert (inst.m, inst.epsilon, inst.grid_rows) == (ref.m, ref.epsilon, ref.grid_rows)
        assert truth.to_json_dict() == ref_truth.to_json_dict()
        assert advice == ref_advice
        # The contract of Instance._from_grid_rows, which trusts its caller.
        Q = inst.inv_epsilon
        assert type(inst.m) is int and inst.m >= 1 and Q >= 2
        assert type(inst.grid_rows) is tuple
        for U, T in inst.grid_rows:
            assert type(U) is tuple and len(U) == inst.m
            assert all(type(u) is int and 0 <= u <= Q for u in U)
            assert type(T) is int and 1 <= T <= Q

    @pytest.mark.parametrize("family, params", [
        ("random-feasible", {"n": 0, "m": 3, "inv_epsilon": 10}),
        ("random-feasible", {"n": 7, "m": 1, "inv_epsilon": 7}),
        ("point-mass", {"m": 1, "j": 1}),
        ("dummy-padded", {"n": 900, "m": 3, "inv_epsilon": 20}),
        ("random-feasible", {"n": 900, "m": 2, "inv_epsilon": 20}),
        ("random-infeasible", {"n": 900, "m": 4, "inv_epsilon": 10**6}),
    ])
    def test_writer_bytes_at_edge_and_benchmark_sizes(self, tmp_path, family, params):
        inst, _, _ = generate(GeneratorSpec(family, params))
        ours, ref = tmp_path / "ours.instance.json", tmp_path / "ref.instance.json"
        write_instance(inst, ours)
        reference_instances.write_instance(inst, ref)
        assert ours.read_bytes() == ref.read_bytes()
