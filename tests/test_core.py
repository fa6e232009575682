"""Tests for exact rational primitives: lotteries, agents, instances."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from reference_instances import expected_utility, per_agent

from unanimity import (
    AgentSpec,
    GeneratorSpec,
    Instance,
    Lottery,
    Oracle,
    QueryCategory,
    edge_lottery,
    exact_threshold_pred,
    format_rational,
    generate,
    pairwise_projection,
    parse_rational,
    quantize,
)


def rational_in_unit(denominator_cap=30):
    return st.fractions(min_value=0, max_value=1, max_denominator=denominator_cap)


def lotteries(m, denominator_cap=30):
    """Random exact lotteries: normalize positive weights."""

    @st.composite
    def build(draw):
        weights = [draw(st.integers(min_value=0, max_value=20)) for _ in range(m)]
        if sum(weights) == 0:
            weights[draw(st.integers(min_value=0, max_value=m - 1))] = 1
        total = sum(weights)
        return Lottery([F(w, total) for w in weights])

    return build()


class TestParsing:
    def test_fraction_and_decimal_forms(self):
        assert parse_rational("3/5") == F(3, 5)
        assert parse_rational("0.65") == F(13, 20)
        assert parse_rational(" 1 ") == 1
        assert parse_rational("1e-1") == F(1, 10)
        assert parse_rational(" 2.5E+1 ") == 25
        assert parse_rational("1e-4300") == F(1, 10**4300)
        assert parse_rational("1E4300") == 10**4300

    def test_rejects_garbage(self):
        for bad in ("", "x", "1/0", "3//4"):
            with pytest.raises(ValueError):
                parse_rational(bad)

    # Fraction computes 10**exp before any range check: "1e-999999999"
    # would need about 415 MB and never return.
    @pytest.mark.parametrize("bad", ["1e-4301", "1E+4301", "0.5e-10000000", "1e-999999999"])
    def test_rejects_exponent_beyond_bound(self, bad):
        with pytest.raises(ValueError, match="exponent beyond"):
            parse_rational(bad)

    # The constructors parse string arguments with parse_rational, so a
    # library caller meets the same bound as the command line.
    @pytest.mark.parametrize("build", [
        lambda s: Lottery([s, "1"]),
        lambda s: AgentSpec([s, "1"], "1/2"),
        lambda s: AgentSpec(["1", "0"], s),
        lambda s: Instance(2, s, []),
    ], ids=["lottery", "utility", "threshold", "epsilon"])
    def test_constructors_bound_exponents(self, build):
        with pytest.raises(ValueError, match="exponent beyond"):
            build("1e-5000")

    def test_canonical_output(self):
        assert format_rational(F(6, 10)) == "3/5"
        assert format_rational(F(3, 1)) == "3"


class TestLottery:
    def test_valid_construction(self):
        x = Lottery(["1/4", "0.6", "0.15"])
        assert x.probs == (F(1, 4), F(3, 5), F(3, 20))
        assert x.m == 3

    def test_rejects_negative_and_bad_sum(self):
        with pytest.raises(ValueError):
            Lottery([F(1, 2), F(-1, 2), 1])
        with pytest.raises(ValueError):
            Lottery([F(1, 2), F(1, 3)])

    def test_pure(self):
        assert Lottery.pure(2, 3).probs == (0, 1, 0)
        with pytest.raises(ValueError):
            Lottery.pure(4, 3)

    def test_scaled_is_the_common_denominator_form(self):
        assert Lottery(["1/4", "0.6", "0.15"]).scaled == ((5, 12, 3), 20)
        assert Lottery.pure(2, 3).scaled == ((0, 1, 0), 1)

    @given(lotteries(4))
    def test_scaled_round_trips(self, x):
        P, D = x.scaled
        assert tuple(F(c, D) for c in P) == x.probs
        assert sum(P) == D and min(P) >= 0


class TestAgentAndInstance:
    def test_agent_range_checks(self):
        with pytest.raises(ValueError):
            AgentSpec([F(3, 2), 0], F(1, 2))
        with pytest.raises(ValueError):
            AgentSpec([1, 0], 0)  # threshold must be positive

    def test_instance_quantization_enforced(self):
        with pytest.raises(ValueError, match="agent 1"):
            Instance(2, F(1, 10), [AgentSpec([F(1, 3), 0], F(1, 2))])
        with pytest.raises(ValueError, match="threshold"):
            Instance(2, F(1, 10), [AgentSpec([1, 0], F(1, 3))])

    def test_instance_epsilon_constraints(self):
        with pytest.raises(ValueError):
            Instance(2, F(2, 3), [])  # 1/eps not an integer
        with pytest.raises(ValueError):
            Instance(2, 1, [])  # eps must be <= 1/2

    @pytest.mark.parametrize("eps", [0, "0", F(0), F(-1, 2), "-1/3"])
    def test_instance_nonpositive_epsilon_rejected(self, eps):
        with pytest.raises(ValueError, match="1/epsilon must be an integer >= 2"):
            Instance(2, eps, [])

    def test_instance_m_must_be_an_int(self):
        # bool is an int subclass; the file reader and generate() refuse both.
        with pytest.raises(ValueError, match=r"^m must be an integer \(got 2\.0\)$"):
            Instance(2.0, "1/10", [AgentSpec(["1", "0"], "1/2")])
        with pytest.raises(ValueError, match=r"^m must be an integer \(got True\)$"):
            Instance(True, "1/10", [AgentSpec(["1"], "1/2")])

    def test_edge_point_validation(self):
        with pytest.raises(ValueError):
            edge_lottery(1, 1, F(1, 2), 2)
        with pytest.raises(ValueError):
            edge_lottery(1, 2, F(3, 2), 2)
        with pytest.raises(ValueError):
            edge_lottery(1, 2, F(-1, 2), 2)
        for k, kprime in ((0, 2), (1, 3)):
            with pytest.raises(ValueError):
                edge_lottery(k, kprime, F(1, 2), 2)


def _hint_search(v):
    o = Oracle(Instance(2, F(1, 10), [AgentSpec([0, 1], F(1, 2))]))
    return exact_threshold_pred(o, 1, 1, 2, v)


# The library entry points that read a rational, each fed v for one of them.
EXACT_ENTRY_POINTS = {
    "Lottery": lambda v: Lottery([v, F(1, 2)]),
    "AgentSpec utility": lambda v: AgentSpec([v, 0], F(1, 2)),
    "AgentSpec threshold": lambda v: AgentSpec([1, 0], v),
    "Instance epsilon": lambda v: Instance(2, v, []),
    "exact_threshold_pred hint": _hint_search,
    "quantize utility": lambda v: quantize([[v, 0]], [F(1, 2)], F(1, 10)),
    "quantize threshold": lambda v: quantize([[1, 0]], [v], F(1, 10)),
    "quantize epsilon": lambda v: quantize([[1, 0]], [F(1, 2)], v),
    "near-threshold delta": lambda v: generate(GeneratorSpec(
        "near-threshold", {"inv_epsilon": 10, "delta": v, "t": 0})),
}


@pytest.mark.parametrize("value", [0.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("entry", EXACT_ENTRY_POINTS)
def test_float_and_bool_are_not_exact_rationals(entry, value):
    with pytest.raises(ValueError, match=f"^not an exact rational: {value!r}$"):
        EXACT_ENTRY_POINTS[entry](value)


class TestExpectedUtility:
    def test_worked_example_agent1(self):
        agent = AgentSpec(["1", "0.6", "0.2"], "0.6")
        x = Lottery(["0.25", "0.60", "0.15"])
        assert expected_utility(agent, x) == F(16, 25)  # 0.64

    def test_worked_example_agent2(self):
        agent = AgentSpec(["0.2", "1", "0.5"], "0.7")
        x = Lottery(["0.25", "0.60", "0.15"])
        assert expected_utility(agent, x) == F(29, 40)  # 0.725

    def test_pure_lottery_reads_off_utility(self):
        agent = AgentSpec([F(1, 4), F(1, 2), 1], F(1, 4))
        for j in range(1, 4):
            assert expected_utility(agent, Lottery.pure(j, 3)) == agent.utilities[j - 1]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expected_utility(AgentSpec([1, 0], F(1, 2)), Lottery.pure(1, 3))

    @given(lotteries(3), lotteries(3), st.fractions(min_value=0, max_value=1, max_denominator=12))
    def test_linearity(self, x, y, lam):
        agent = AgentSpec([F(1, 5), F(3, 5), 1], F(2, 5))
        mix = Lottery([lam * a + (1 - lam) * b for a, b in zip(x.probs, y.probs)])
        assert expected_utility(agent, mix) == (
            lam * expected_utility(agent, x) + (1 - lam) * expected_utility(agent, y)
        )


class TestEdgeLottery:
    def test_midpoint(self):
        assert edge_lottery(3, 1, F(1, 2), 3).probs == (F(1, 2), 0, F(1, 2))

    def test_endpoint(self):
        assert edge_lottery(1, 2, 0, 2) == Lottery.pure(1, 2)

    def test_direct_substitution(self):
        assert edge_lottery(1, 2, F(3, 5), 2).probs == (F(2, 5), F(3, 5))

    @given(st.fractions(min_value=0, max_value=1, max_denominator=40))
    def test_always_a_valid_lottery(self, alpha):
        x = edge_lottery(2, 4, alpha, 5)
        assert sum(x.probs) == 1 and all(p >= 0 for p in x.probs)


class TestPairwiseProjection:
    def test_worked_example(self):
        x = Lottery(["0.25", "0.60", "0.15"])
        assert pairwise_projection(x, 1, 2) == F(12, 17)

    def test_zero_mass_pair_defaults_to_half(self):
        assert pairwise_projection(Lottery.pure(3, 3), 1, 2) == F(1, 2)

    def test_all_mass_on_kprime(self):
        assert pairwise_projection(Lottery([0, 1, 0]), 1, 2) == 1

    @pytest.mark.parametrize("k, kprime", [(0, 1), (1, 0), (-1, 2), (1, 4), (4, 2)])
    def test_endpoints_out_of_range(self, k, kprime):
        x = Lottery(["1/4", "1/4", "1/2"])
        with pytest.raises(ValueError, match="edge endpoints out of range"):
            pairwise_projection(x, k, kprime)

    def test_equal_endpoints(self):
        with pytest.raises(ValueError, match="edge endpoints must be distinct"):
            pairwise_projection(Lottery.pure(1, 2), 2, 2)

    @given(st.fractions(min_value=0, max_value=1, max_denominator=40))
    def test_round_trip_with_edge_lottery(self, alpha):
        x = edge_lottery(1, 3, alpha, 4)
        assert pairwise_projection(x, 1, 3) == alpha


class TestGridRows:
    """An instance stores each agent as ints (U, T) in units of epsilon;
    ``agents`` is the rational view of those rows."""

    @given(data=st.data())
    def test_rows_and_agents_view(self, data):
        m = data.draw(st.integers(1, 4))
        Q = data.draw(st.sampled_from([2, 7, 20, 10**9 + 7]))
        rows = data.draw(st.lists(st.tuples(
            st.tuples(*[st.integers(0, Q)] * m), st.integers(1, Q)), max_size=6))
        agents = [AgentSpec([F(u, Q) for u in U], F(T, Q)) for U, T in rows]
        inst = Instance(m, F(1, Q), agents)
        assert inst.grid_rows == tuple(rows) and inst.n == len(rows)
        assert inst.agents == tuple(agents) and inst.agents is inst.agents
        assert Instance(m, F(1, Q), inst.agents) == inst


@st.composite
def grid_cases(draw):
    """A grid instance, a lottery of arbitrary denominators, and the indices
    of the agents built to sit exactly on their threshold at that lottery."""
    m = draw(st.integers(1, 5))
    Q = draw(st.integers(2, 40) | st.sampled_from([1000, 10**9 + 7]))
    weights = draw(st.lists(st.integers(0, 97), min_size=m, max_size=m))
    if sum(weights) == 0:
        weights[draw(st.integers(0, m - 1))] = 1
    x = Lottery([F(w, sum(weights)) for w in weights])
    agents, boundary = [], []
    for idx in range(1, draw(st.integers(1, 6)) + 1):
        kind = draw(st.sampled_from(["random", "zero-one", "boundary"]))
        if kind == "boundary":
            # Utility c on x's support: <u, x> == c/Q == tau exactly.
            c = draw(st.integers(1, Q))
            u = [c if p > 0 else draw(st.integers(0, Q)) for p in x.probs]
            t = c
            boundary.append(idx)
        else:
            top = Q if kind == "random" else 1
            u = [draw(st.integers(0, top)) * (Q // top) for _ in range(m)]
            t = draw(st.integers(1, Q))
        agents.append(AgentSpec([F(a, Q) for a in u], F(t, Q)))
    return Instance(m, F(1, Q), agents), x, boundary


def accepts(inst: Instance, i: int, x: Lottery) -> bool:
    return Oracle(inst).query(i, x, QueryCategory.VERIFICATION)


class TestAcceptsAgainstExpectedUtility:
    """``Oracle.query`` decides <u_i, x> >= tau_i over integers; the
    Fraction inner product ``expected_utility`` is its reference."""

    @settings(max_examples=300)
    @given(grid_cases())
    def test_matches_reference(self, case):
        inst, x, boundary = case
        o = Oracle(inst)
        for i, agent in enumerate(inst.agents, start=1):
            assert o.query(i, x, QueryCategory.VERIFICATION) == \
                (expected_utility(agent, x) >= agent.threshold)
        for i in boundary:
            assert expected_utility(inst.agents[i - 1], x) == inst.agents[i - 1].threshold
            assert accepts(inst, i, x)

    def test_threshold_one_step_above_the_boundary_rejects(self):
        inst = Instance(2, F(1, 10), [
            AgentSpec([F(3, 10), F(7, 10)], F(1, 2)),
            AgentSpec([F(3, 10), F(7, 10)], F(3, 5)),
        ])
        x = Lottery([F(1, 2), F(1, 2)])  # <u, x> = 1/2 exactly
        assert accepts(inst, 1, x) and not accepts(inst, 2, x)

    def test_one_alternative(self):
        inst = Instance(1, F(1, 4), [AgentSpec([F(3, 4)], F(3, 4)), AgentSpec([F(1, 2)], F(3, 4))])
        assert accepts(inst, 1, Lottery([1])) and not accepts(inst, 2, Lottery([1]))

    def test_bad_agent_index_and_dimension(self):
        inst = Instance(2, F(1, 10), [AgentSpec([1, 0], F(1, 2))])
        o = Oracle(inst)
        for i in (0, -1, 2):
            with pytest.raises(IndexError, match=f"agent index {i} out of range 1..1"):
                o.query(i, Lottery.pure(1, 2), QueryCategory.VERIFICATION)
        for m in (1, 3):
            with pytest.raises(ValueError, match=f"dimension mismatch: agent has 2, lottery {m}"):
                o.query(1, Lottery.pure(1, m), QueryCategory.VERIFICATION)
        # A refused query is not counted.
        assert o.ledger.total == 0 and per_agent(o.ledger) == {}
