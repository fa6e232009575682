"""Tests for the counting membership-query oracle and its ledger."""

import io
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, strategies as st
from reference_instances import ReferenceLedger, check_ledger, expected_utility, per_agent

from unanimity import oracle
from unanimity import (
    Advice,
    AgentSpec,
    GeneratorSpec,
    Instance,
    Lottery,
    Oracle,
    QueryCategory,
    edge_lottery,
    generate,
    learn_hyperplane,
    solve_baseline,
    solve_deterministic,
    solve_randomized,
)

PV = QueryCategory.PURE_VERTEX
VER = QueryCategory.VERIFICATION


def example_instance() -> Instance:
    return Instance(3, F(1, 10), [
        AgentSpec(["1", "0.6", "0.2"], "0.6"),
        AgentSpec(["0.2", "1", "0.5"], "0.7"),
        AgentSpec(["0.2", "0.2", "1"], "0.3"),
    ])


class TestQuery:
    def test_worked_example_answers(self):
        o = Oracle(example_instance())
        assert o.query(2, Lottery.pure(1, 3), PV) is False
        assert o.query(3, Lottery(["0.25", "0.60", "0.15"]), VER) is True

    def test_trivially_accepting_agent(self):
        inst = Instance(2, F(1, 4), [AgentSpec([1, 1], F(1, 4))])
        o = Oracle(inst)
        assert o.query(1, Lottery([F(1, 3), F(2, 3)]), VER) is True

    def test_agent_index_bounds(self):
        o = Oracle(example_instance())
        for bad in (0, 4):
            with pytest.raises(IndexError):
                o.query(bad, Lottery.pure(1, 3), PV)

    def test_dimension_check(self):
        o = Oracle(example_instance())
        with pytest.raises(ValueError):
            o.query(1, Lottery.pure(1, 2), PV)

    def test_simulated_mode_is_deterministic_and_truthful(self):
        inst = example_instance()
        o = Oracle(inst)
        x = Lottery([F(1, 5), F(2, 5), F(2, 5)])
        for i in range(1, 4):
            expect = expected_utility(inst.agents[i - 1], x) >= inst.agents[i - 1].threshold
            assert o.query(i, x, VER) == expect
            assert o.query(i, x, VER) == expect

    @given(st.fractions(min_value=0, max_value=1, max_denominator=25),
           st.fractions(min_value=0, max_value=1, max_denominator=25))
    def test_edge_monotonicity(self, a, b):
        # Agent 1 rejects e_3, accepts e_1: answers flip at most once, upward.
        inst = example_instance()
        o = Oracle(inst)
        lo, hi = min(a, b), max(a, b)
        ans_lo = o.query(1, edge_lottery(3, 1, lo, 3), VER)
        ans_hi = o.query(1, edge_lottery(3, 1, hi, 3), VER)
        assert ans_hi or not ans_lo


class TestLedger:
    def test_fresh_oracle_all_zero(self):
        o = Oracle(example_instance())
        ledger = o.ledger
        assert ledger.total == 0 and per_agent(ledger) == {} and ledger.per_category == {}

    def test_counting_and_consistency(self):
        o = Oracle(example_instance())
        o.query(1, Lottery.pure(1, 3), PV)
        assert o.ledger.total == 1
        o.query(1, Lottery.pure(1, 3), PV)  # repeats are counted, never cached
        o.query(2, Lottery.pure(2, 3), VER)
        assert o.ledger.total == 3
        assert per_agent(o.ledger) == {1: 2, 2: 1}
        assert o.ledger.per_category == {PV: 2, VER: 1}
        check_ledger(o.ledger)

    def test_per_agent_lists_agents_asked_in_ascending_order(self):
        inst = Instance(2, F(1, 10), [AgentSpec([1, 0], "0.5")] * 6)
        o = Oracle(inst)
        for i, cat in ((5, VER), (2, PV), (5, PV), (3, VER), (2, VER)):
            o.query(i, Lottery.pure(1, 2), cat)
        ledger = o.ledger
        assert list(per_agent(ledger).items()) == [(2, 2), (3, 1), (5, 2)]
        assert list(ledger.per_category) == [VER, PV]  # first asked first
        assert ledger.total == sum(ledger.per_category.values()) == 5
        assert ledger.agent_counts == [0, 0, 2, 1, 0, 2, 0]
        check_ledger(ledger)

    def test_learn_hyperplane_query_bound(self):
        # m=3, 1/eps=10: at most 3 vertex queries + 2 searches of <= 8 each.
        o = Oracle(example_instance())
        learn_hyperplane(o, 1)
        assert o.ledger.total <= 19

    def test_trace_csv_export(self):
        o = Oracle(example_instance(), capture_trace=True)
        o.query(1, Lottery(["0.25", "0.60", "0.15"]), VER)
        buf = io.StringIO()
        o.ledger.write_trace_csv(buf)
        lines = buf.getvalue().strip().split("\r\n")
        assert lines[0] == "seq,agent,category,lottery,answer"
        assert lines[1] == "1,1,Verification,1/4;3/5;3/20,True"

    def test_trace_disabled_by_default(self):
        o = Oracle(example_instance())
        o.query(1, Lottery.pure(1, 3), PV)
        with pytest.raises(ValueError):
            o.ledger.write_trace_csv(io.StringIO())

    def test_trace_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "TRACE_CAP", 2)
        o = Oracle(example_instance(), capture_trace=True)
        for _ in range(5):
            o.query(1, Lottery.pure(1, 3), PV)
        assert len(o.ledger.trace) == 2 and o.ledger.total == 5
        assert o.ledger.trace_dropped == 3

    def test_nothing_dropped_without_a_trace(self, monkeypatch):
        monkeypatch.setattr(oracle, "TRACE_CAP", 2)
        o = Oracle(example_instance())
        for _ in range(5):
            o.query(1, Lottery.pure(1, 3), PV)
        assert o.ledger.trace_dropped == 0


@st.composite
def scans(draw):
    """A small instance, a few queries already asked, a lottery, a sequence
    of agents to scan (now and then with one out of range), a category, and
    whether to stop at the first rejecter."""
    m, Q, n = draw(st.integers(1, 3)), draw(st.integers(2, 6)), draw(st.integers(0, 6))
    grid = st.integers(0, Q)
    inst = Instance(m, F(1, Q), [
        AgentSpec([F(draw(grid), Q) for _ in range(m)], F(draw(st.integers(1, Q)), Q))
        for _ in range(n)])
    parts = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m).filter(any))
    x = Lottery([F(p, sum(parts)) for p in parts])
    cats = st.sampled_from(QueryCategory)
    asked = st.integers(1, n) if n else st.nothing()
    before = draw(st.lists(st.tuples(asked, cats), max_size=3 if n else 0))
    agents = draw(st.lists(asked, max_size=10 if n else 0))
    if draw(st.booleans()) and draw(st.booleans()):
        agents.insert(draw(st.integers(0, len(agents))), draw(st.sampled_from([0, n + 1])))
    return inst, before, x, agents, draw(cats), draw(st.booleans())


class TestRejecters:
    """``Oracle.rejecters`` asks exactly what a plain ``query`` loop asks."""

    @staticmethod
    def query_loop(o, x, agents, cat, first):
        out = []
        for i in agents:
            if not o.query(i, x, cat):
                out.append(i)
                if first:
                    break
        return out

    @staticmethod
    def outcome(scan, inst, before, x, agents, cat, first):
        o = Oracle(inst, capture_trace=True)
        for i, c in before:
            o.query(i, Lottery.pure(1, inst.m), c)
        try:
            result = scan(o, x, iter(agents), cat, first)
        except IndexError as exc:
            result = ("IndexError", str(exc))
        ledger = o.ledger
        return (result, ledger.agent_counts, list(ledger.per_category.items()),
                ledger.trace, ledger.trace_dropped)

    @given(scans(), st.sampled_from([1, 2, 4, oracle.TRACE_CAP]))
    def test_matches_a_query_loop(self, scan, cap):
        with mock.patch.object(oracle, "TRACE_CAP", cap):
            assert (self.outcome(Oracle.rejecters, *scan)
                    == self.outcome(self.query_loop, *scan))

    @pytest.mark.parametrize("first", [False, True])
    def test_out_of_range_agent_raises_after_counting_the_ones_before(self, first):
        o = Oracle(example_instance())
        # Every agent accepts x; agent 4 is out of range.
        with pytest.raises(IndexError):
            o.rejecters(Lottery(["0.25", "0.60", "0.15"]), [1, 3, 4, 2], VER, first=first)
        assert o.ledger.agent_counts == [0, 1, 0, 1]
        assert o.ledger.per_category == {VER: 2}


@st.composite
def query_streams(draw):
    """A small instance and a stream of queries: (agent, category, lottery),
    now and then with an agent out of range or a lottery of another
    dimension."""
    m, Q, n = draw(st.integers(1, 3)), draw(st.integers(2, 6)), draw(st.integers(0, 5))
    grid = st.integers(0, Q)
    inst = Instance(m, F(1, Q), [
        AgentSpec([F(draw(grid), Q) for _ in range(m)], F(draw(st.integers(1, Q)), Q))
        for _ in range(n)])

    def lotteries(k):
        parts = st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any)
        return parts.map(lambda ps: Lottery([F(p, sum(ps)) for p in ps]))

    agent = st.integers(1, n) if n else st.nothing()
    query = st.tuples(agent, st.sampled_from(QueryCategory), lotteries(m))
    bad_agent = st.tuples(st.sampled_from([-1, 0, n + 1, n + 2]),
                          st.sampled_from(QueryCategory), lotteries(m))
    dims = [k for k in (m - 1, m + 1) if k >= 1]
    bad_dim = st.tuples(agent, st.sampled_from(QueryCategory),
                        st.sampled_from(dims).flatmap(lotteries))
    return inst, draw(st.lists(query | bad_agent | bad_dim, max_size=30))


class TestLedgerViews:
    """The ledger's derived views match a plain count per (category, agent)
    after every query, and a refused query counts nothing."""

    @given(query_streams(), st.sampled_from([1, 3, oracle.TRACE_CAP]),
           st.booleans())
    def test_views_match_a_reference_ledger(self, stream, cap, capture):
        inst, queries = stream
        with mock.patch.object(oracle, "TRACE_CAP", cap):
            o = Oracle(inst, capture_trace=capture)
            ref = ReferenceLedger(inst.n, capture)
            for i, cat, x in queries:
                if not 1 <= i <= inst.n:
                    with pytest.raises(IndexError):
                        o.query(i, x, cat)
                elif x.m != inst.m:
                    with pytest.raises(ValueError):
                        o.query(i, x, cat)
                else:
                    agent = inst.agents[i - 1]
                    answer = expected_utility(agent, x) >= agent.threshold
                    assert o.query(i, x, cat) is answer
                    ref.record(i, cat, x, answer)
                ledger = o.ledger
                assert ledger.agent_counts == ref.agent_counts
                assert list(ledger.per_category.items()) == list(ref.per_category.items())
                assert ledger.total == ref.total
                assert ledger.trace == ref.trace
                assert ledger.trace_dropped == ref.trace_dropped


class TestSingleEntryPoint:
    """Every query of every solver goes through ``Oracle.query``: a wrapper
    patched onto the class, as a tracer would install it, sees exactly the
    queries the ledger counts."""

    @staticmethod
    def runs():
        feasible, _, _ = generate(GeneratorSpec(
            "random-feasible", {"n": 30, "m": 3, "inv_epsilon": 20, "seed": 4}))
        infeasible, _, _ = generate(GeneratorSpec(
            "random-infeasible", {"n": 12, "m": 3, "inv_epsilon": 20, "seed": 2}))
        hinted, truth, advice = generate(GeneratorSpec(
            "near-threshold", {"inv_epsilon": 20, "delta": "1/25", "t": 3}))
        order = Advice(order=range(30, 0, -1))
        bad_hint = Advice(x_hat=Lottery.pure(1, 3))
        for inst in (feasible, infeasible):
            yield inst, solve_baseline
            yield inst, solve_deterministic
            yield inst, lambda o: solve_randomized(o, seed=5)
        yield feasible, lambda o: solve_deterministic(o, order)
        yield feasible, lambda o: solve_randomized(o, order, seed=1)
        yield feasible, lambda o: solve_deterministic(o, bad_hint)
        yield feasible, lambda o: solve_randomized(o, bad_hint, seed=2)
        yield hinted, lambda o: solve_deterministic(o, advice)
        yield hinted, lambda o: solve_deterministic(o, Advice(x_hat=truth.lottery))

    def test_patched_query_sees_every_counted_query(self, monkeypatch):
        calls = []
        original = Oracle.query

        def counted(self, i, x, cat):
            calls.append((i, cat, x))
            return original(self, i, x, cat)

        monkeypatch.setattr(Oracle, "query", counted)
        monkeypatch.setattr(oracle, "TRACE_CAP", 50)
        for inst, solve in self.runs():
            calls.clear()
            report = solve(Oracle(inst, capture_trace=True))
            ledger = report.ledger
            assert len(calls) == ledger.total > 0
            check_ledger(ledger)
            # Only categories that were asked appear, never a zero count.
            assert all(c > 0 for c in ledger.per_category.values())
            # The trace keeps the first TRACE_CAP queries, in order.
            assert [(i, cat, x) for i, cat, x, _ in ledger.trace] == calls[:50]
            assert ledger.trace_dropped == max(0, ledger.total - 50)
