"""Tests for exact selection, infeasibility witnesses, and brute force."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st
from reference_lp import helly_witness_reference, select_reference

from unanimity import (
    AgentSpec,
    ConstraintSet,
    HellyWitness,
    Instance,
    Lottery,
    expected_utility,
    feasible_full,
    helly_witness,
    select,
)


def example_rows() -> ConstraintSet:
    return ConstraintSet(3, [
        (1, [2, 1, 0]),
        (2, [0, F(8, 5), F(3, 5)]),
        (3, [0, 0, 8]),
    ])


def opposing_rows() -> ConstraintSet:
    # x_1 >= 3/5 and x_2 >= 3/5 cannot hold together on the 1-simplex.
    return ConstraintSet(2, [(1, [F(5, 3), 0]), (2, [0, F(5, 3)])])


class TestConstraintSet:
    def test_duplicate_owner_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSet(2, [(1, [1, 0]), (1, [0, 1])])

    def test_all_zero_row_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSet(2, [(1, [0, 0])])

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSet(3, [(1, [1, 0])])

    def test_restrict(self):
        C = example_rows()
        assert C.restrict([2]).owners() == (2,)


class TestSelect:
    def test_empty_set_gives_first_vertex(self):
        assert select(ConstraintSet(3, [])) == Lottery.pure(1, 3)

    def test_worked_example_lexmax(self):
        assert select(example_rows()).probs == (F(19, 64), F(37, 64), F(1, 8))

    def test_opposing_pair_infeasible(self):
        assert select(opposing_rows()) is None

    def test_feasible_point_satisfies_all_rows(self):
        C = example_rows()
        x = select(C)
        for _, coeffs in C.rows:
            assert sum(c * p for c, p in zip(coeffs, x.probs)) >= 1

    def test_idempotent_and_stable_under_satisfied_rows(self):
        C = example_rows()
        x = select(C)
        assert select(C) == x
        # Appending a row x already satisfies cannot change the optimum.
        widened = ConstraintSet(3, list(C.rows) + [(9, [1, 1, 1])])
        assert select(widened) == x

    def test_lexmax_dominates_grid_feasible_points(self):
        C = example_rows()
        best = select(C).probs
        # Enumerate every 1/64-grid lottery; none feasible may beat lex-max.
        Q = 64
        for a, b in itertools.combinations(range(1, Q + 2), 2):
            parts = (a - 1, b - a, Q + 1 - b)
            x = tuple(F(p, Q) for p in parts)
            ok = all(sum(c * p for c, p in zip(coeffs, x)) >= 1 for _, coeffs in C.rows)
            if ok:
                assert x <= best


class TestHellyWitness:
    def test_worked_example_pair(self):
        w = helly_witness(opposing_rows())
        assert w.agents == frozenset({1, 2})

    def test_requires_infeasible_input(self):
        with pytest.raises(ValueError):
            helly_witness(example_rows())

    def test_triple_only_jointly_infeasible(self):
        # Each pair feasible, the triple not: x_i <= 1/4 for every coordinate.
        # Row forms: x_j <= 1/4 is <c, x> >= 1 with c = 4/3 on the others.
        def cap_row(j):
            return [F(4, 3) if k != j else 0 for k in range(3)]

        C = ConstraintSet(3, [(i + 1, cap_row(i)) for i in range(3)])
        for pair in itertools.combinations([1, 2, 3], 2):
            assert select(C.restrict(pair)) is not None
        w = helly_witness(C)
        assert w.agents == frozenset({1, 2, 3})

    def test_minimality_and_size_bound(self):
        rng = random.Random(31)
        built = 0
        while built < 10:
            m = rng.choice([2, 3])
            rows = []
            for i in range(1, rng.randint(2, 5) + 1):
                coeffs = [F(rng.randint(0, 8), 4) for _ in range(m)]
                if any(coeffs):
                    rows.append((i, coeffs))
            C = ConstraintSet(m, rows)
            if select(C) is not None:
                continue
            built += 1
            w = helly_witness(C)
            assert len(w.agents) <= m
            assert select(C.restrict(w.agents)) is None
            for drop in w.agents:
                rest = w.agents - {drop}
                assert select(C.restrict(rest)) is not None


class TestFeasibleFull:
    def example_instance(self):
        return Instance(3, F(1, 10), [
            AgentSpec(["1", "0.6", "0.2"], "0.6"),
            AgentSpec(["0.2", "1", "0.5"], "0.7"),
            AgentSpec(["0.2", "0.2", "1"], "0.3"),
        ])

    def test_worked_example(self):
        x = feasible_full(self.example_instance())
        assert x.probs == (F(19, 64), F(37, 64), F(1, 8))
        for agent in self.example_instance().agents:
            assert expected_utility(agent, x) >= agent.threshold

    def test_infeasible_example(self):
        inst = Instance(2, F(1, 10), [
            AgentSpec([1, 0], "0.6"),
            AgentSpec([0, 1], "0.6"),
        ])
        assert feasible_full(inst) is None

    def test_accept_all_agent_unconstrained(self):
        inst = Instance(2, F(1, 2), [AgentSpec([1, 1], F(1, 2))])
        assert feasible_full(inst) == Lottery.pure(1, 2)

    def test_reject_all_short_circuit(self):
        inst = Instance(2, F(1, 4), [AgentSpec([0, 0], F(1, 4))])
        assert feasible_full(inst) is None

    def test_query_free(self):
        # No oracle exists here at all: feasible_full works off the instance.
        assert feasible_full(self.example_instance()) is not None


COEFF = st.integers(-8, 12).map(lambda a: F(a, 4))


@st.composite
def constraint_sets(draw):
    """Rows mixing the degenerate shapes a lexicographic simplex trips on:
    all-ones rows (tight on the whole simplex), duplicates, rows through a
    simplex vertex, and several rows through one shared lottery p, which
    makes p a degenerate vertex of the feasible region."""
    m = draw(st.integers(1, 5))
    parts = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m).filter(any))
    p = [F(a, sum(parts)) for a in parts]
    rows = []
    for owner in range(1, draw(st.integers(0, 7)) + 1):
        kind = draw(st.sampled_from(["random", "ones", "duplicate", "vertex", "through_p"]))
        coeffs = draw(st.lists(COEFF, min_size=m, max_size=m))
        if kind == "ones":
            coeffs = [F(1)] * m
        elif kind == "duplicate" and rows:
            coeffs = list(draw(st.sampled_from(rows))[1])
        elif kind == "vertex":
            coeffs[draw(st.integers(0, m - 1))] = F(1)
        elif kind == "through_p":
            dot = sum(c * q for c, q in zip(coeffs, p))
            coeffs = [c / dot for c in coeffs] if dot else [F(1)] * m
        if any(coeffs):
            rows.append((owner, coeffs))
    return ConstraintSet(m, rows)


class TestAgainstReference:
    """The one-tableau select against the m-solve reference LP."""

    @settings(max_examples=300, deadline=None)
    @given(constraint_sets())
    @example(ConstraintSet(1, []))
    @example(ConstraintSet(1, [(1, [1])]))
    @example(ConstraintSet(1, [(1, [F(1, 2)])]))
    @example(ConstraintSet(3, []))
    @example(ConstraintSet(3, [(1, [1, 1, 1]), (2, [1, 1, 1]), (3, [0, 0, 8])]))
    @example(ConstraintSet(3, [(1, [2, 1, 0]), (2, [2, 1, 0]), (3, [0, F(8, 5), F(3, 5)])]))
    @example(ConstraintSet(3, [(1, [0, F(4, 3), F(4, 3)]), (2, [F(4, 3), 0, F(4, 3)]),
                               (3, [F(4, 3), F(4, 3), 0])]))
    @example(ConstraintSet(3, [(1, [1, 0, 0]), (2, [1, -1, 2]), (3, [1, 3, -1]),
                               (4, [0, F(5, 3), 0])]))
    def test_select_and_witness_match_reference(self, C):
        x = select(C)
        assert x == select_reference(C)
        if x is None:
            assert helly_witness(C).agents == helly_witness_reference(C)
