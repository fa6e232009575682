"""Tests for exact selection, infeasibility witnesses, and the zero-query
reference decision."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st
from reference_instances import expected_utility
from reference_lp import helly_witness_reference, select_reference
from tableau_lp import select as select_tableau

from unanimity import (
    AgentSpec,
    ConstraintSet,
    GeneratorSpec,
    HellyWitness,
    Instance,
    Lottery,
    feasible_full,
    generate,
    helly_witness,
    select,
)


def rational_rows(m: int, rows) -> ConstraintSet:
    """A ConstraintSet from rows written as (owner, c), each meaning
    <c, x> >= 1 with rational c: scaled by the lcm L of c's denominators,
    that is the integer row (L c, L)."""
    packed = []
    for owner, c in rows:
        c = [F(v) for v in c]
        L = math.lcm(*(v.denominator for v in c))
        packed.append((owner, (tuple(int(v * L) for v in c), L)))
    return ConstraintSet(m, packed)


def example_rows() -> ConstraintSet:
    return rational_rows(3, [
        (1, [2, 1, 0]),
        (2, [0, F(8, 5), F(3, 5)]),
        (3, [0, 0, 8]),
    ])


def opposing_rows() -> ConstraintSet:
    # x_1 >= 3/5 and x_2 >= 3/5 cannot hold together on the 1-simplex.
    return rational_rows(2, [(1, [F(5, 3), 0]), (2, [0, F(5, 3)])])


class TestConstraintSet:
    def test_duplicate_owner_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSet(2, [(1, ((1, 0), 1)), (1, ((0, 1), 1))])

    def test_all_zero_row_is_an_ordinary_row(self):
        # <0, x> >= b holds nowhere for b > 0, so RejectAll is an ordinary
        # infeasible row whose owner alone is the minimal witness; for b <= 0
        # it holds everywhere and never binds.
        for b in (1, 3):
            C = ConstraintSet(3, [(1, ((0, 0, 0), b)), (2, ((1, 2, 3), 1))])
            assert select(C) is None and select_reference(C) is None and select_tableau(C) is None
            assert helly_witness(C).agents == helly_witness_reference(C) == frozenset({1})
        C = example_rows()
        for b in (0, -2):
            assert select(ConstraintSet(3, [(9, ((0, 0, 0), b))] + list(C.rows))) == select(C)

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSet(3, [(1, ((1, 0), 1))])

    @pytest.mark.parametrize("row", [
        ((F(1, 2), 1), 1),
        ((1, 1), F(1)),
        ((1.0, 0), 1),
        ((1, 0), 0.5),
    ])
    def test_non_integer_entry_rejected(self, row):
        # F(1) too: the check is on the type, since // would floor any Fraction.
        with pytest.raises(ValueError, match="agent 7: constraint row entries must be ints"):
            ConstraintSet(2, [(1, ((1, 0), 1)), (7, row)])

    def test_restrict(self):
        C = example_rows()
        assert C.restrict([2]).owners() == (2,)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_restrict_equals_constructor_on_the_kept_rows(self, data):
        # restrict skips the constructor's checks; the set it builds must be
        # the one the constructor would, rows in the original order.
        C = data.draw(constraint_sets(max_rows=10))
        S = data.draw(st.lists(st.integers(0, 12)))
        sub = C.restrict(reversed(S))
        assert sub == ConstraintSet(C.m, [row for row in C.rows if row[0] in S])
        assert sub.owners() == tuple(owner for owner in C.owners() if owner in S)


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
        for _, (a, b) in C.rows:
            assert sum(c * p for c, p in zip(a, x.probs)) >= b

    def test_idempotent_and_stable_under_satisfied_rows(self):
        C = example_rows()
        x = select(C)
        assert select(C) == x
        # Appending a row x already satisfies cannot change the optimum.
        widened = ConstraintSet(3, list(C.rows) + [(9, ((1, 1, 1), 1))])
        assert select(widened) == x

    def test_lexmax_dominates_grid_feasible_points(self):
        C = example_rows()
        best = select(C).probs
        # Enumerate every 1/64-grid lottery; none feasible may beat lex-max.
        Q = 64
        for a, b in itertools.combinations(range(1, Q + 2), 2):
            parts = (a - 1, b - a, Q + 1 - b)
            x = tuple(F(p, Q) for p in parts)
            ok = all(sum(c * p for c, p in zip(a, x)) >= b for _, (a, b) in C.rows)
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

        C = rational_rows(3, [(i + 1, cap_row(i)) for i in range(3)])
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
            C = rational_rows(m, rows)
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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_reference_on_degenerate_grids(self, data):
        # Utilities often equal the threshold, and some agents are all zero
        # (RejectAll) or accept every vertex: feasible_full runs select over
        # the grid rows as they are, so it must agree with the reference LP
        # there too (every T >= 1, as select_reference requires).
        m, Q = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 12))
        agents = []
        for _ in range(data.draw(st.integers(0, 6))):
            T = data.draw(st.integers(1, Q))
            # About a quarter of the utilities sit exactly on the threshold.
            unit = st.one_of(st.just(T), st.integers(0, Q), st.integers(0, Q), st.integers(0, Q))
            U = data.draw(st.lists(unit, min_size=m, max_size=m))
            kind = data.draw(st.sampled_from(["drawn", "drawn", "zero", "accept_all"]))
            if kind == "zero":
                U = [0] * m
            elif kind == "accept_all":
                U = [max(u, T) for u in U]
            agents.append(AgentSpec([F(u, Q) for u in U], F(T, Q)))
        inst = Instance(m, F(1, Q), agents)
        C = ConstraintSet(m, list(enumerate(inst.grid_rows, 1)))
        assert feasible_full(inst) == select_reference(C)


QUARTERS = st.integers(-8, 12).map(lambda a: F(a, 4))
# Denominators up to 10**9 make the integer adjugate's entries run far past a
# machine word; quarters keep ties and degenerate vertices likely.
WIDE = st.one_of(QUARTERS, st.fractions(-2, 3, max_denominator=10**9))


@st.composite
def constraint_sets(draw, max_m=5, max_rows=7, coeff=QUARTERS, planted=False):
    """Rows mixing the degenerate shapes a lexicographic simplex trips on:
    all-ones rows (tight on the whole simplex), duplicates, rows through a
    simplex vertex, and several rows through one shared lottery p, which
    makes p a degenerate vertex of the feasible region, with more than
    m - 1 constraints tight at once.  With ``planted``, half the sets shift
    every row by a multiple of the all-ones row until p satisfies it, so
    large sets are not almost always infeasible."""
    m = draw(st.integers(1, max_m))
    parts = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m).filter(any))
    p = [F(a, sum(parts)) for a in parts]
    feasible = planted and draw(st.booleans())
    rows = []
    for owner in range(1, draw(st.integers(0, max_rows)) + 1):
        kind = draw(st.sampled_from(["random", "ones", "duplicate", "vertex", "through_p"]))
        coeffs = draw(st.lists(coeff, min_size=m, max_size=m))
        if kind == "ones":
            coeffs = [F(1)] * m
        elif kind == "duplicate" and rows:
            coeffs = list(draw(st.sampled_from(rows))[1])
        elif kind == "vertex":
            coeffs[draw(st.integers(0, m - 1))] = F(1)
        elif kind == "through_p":
            dot = sum(c * q for c, q in zip(coeffs, p))
            coeffs = [c / dot for c in coeffs] if dot else [F(1)] * m
        if feasible:
            # On the simplex <c + s*1, x> = <c, x> + s, so this makes <c, p> >= 1.
            shift = max(0, 1 - sum(c * q for c, q in zip(coeffs, p)))
            coeffs = [c + shift for c in coeffs]
        if any(coeffs):
            rows.append((owner, coeffs))
    return rational_rows(m, rows)


def pinned_rows(seed: int, m: int, k: int, gap: F = F(0)) -> ConstraintSet:
    """k > m rows: x_j >= p_j + gap for every j of a lottery p with
    denominators near 10**9, an all-ones row, and random rows through p.
    With gap 0 the feasible set is {p}, a vertex at which all k
    constraints are tight; with gap > 0 it is empty."""
    rng = random.Random(seed)
    parts = [rng.randint(1, 10**9) for _ in range(m)]
    p = [F(a, sum(parts)) for a in parts]
    rows = [(j + 1, [1 / (p[j] + gap) if i == j else 0 for i in range(m)]) for j in range(m)]
    rows.append((m + 1, [1] * m))
    for owner in range(m + 2, k + 1):
        c = [F(rng.randint(-2 * 10**9, 3 * 10**9), rng.randint(1, 10**9)) for _ in range(m)]
        dot = sum(a * b for a, b in zip(c, p))
        rows.append((owner, [a / dot for a in c] if dot else [1] * m))
    return rational_rows(m, rows)


def assert_matches_reference(C: ConstraintSet) -> None:
    x = select(C)
    assert x == select_reference(C)
    if x is None:
        assert helly_witness(C).agents == helly_witness_reference(C)


class TestAgainstReference:
    """select against the m-solve reference LP."""

    @settings(max_examples=300, deadline=None)
    @given(constraint_sets())
    @example(rational_rows(1, []))
    @example(rational_rows(1, [(1, [1])]))
    @example(rational_rows(1, [(1, [F(1, 2)])]))
    @example(rational_rows(3, []))
    @example(rational_rows(3, [(1, [1, 1, 1]), (2, [1, 1, 1]), (3, [0, 0, 8])]))
    @example(rational_rows(3, [(1, [2, 1, 0]), (2, [2, 1, 0]), (3, [0, F(8, 5), F(3, 5)])]))
    @example(rational_rows(3, [(1, [0, F(4, 3), F(4, 3)]), (2, [F(4, 3), 0, F(4, 3)]),
                               (3, [F(4, 3), F(4, 3), 0])]))
    @example(rational_rows(3, [(1, [1, 0, 0]), (2, [1, -1, 2]), (3, [1, 3, -1]),
                               (4, [0, F(5, 3), 0])]))
    def test_select_and_witness_match_reference(self, C):
        assert_matches_reference(C)

    @settings(max_examples=100, deadline=None)
    @given(constraint_sets(max_m=6, max_rows=12, coeff=WIDE))
    @example(pinned_rows(1, 3, 5))
    @example(pinned_rows(2, 6, 12))
    @example(pinned_rows(3, 6, 12, gap=F(1, 10**9)))
    @example(pinned_rows(4, 4, 9, gap=F(1, 10**9 + 7)))
    def test_wide_rows_match_reference(self, C):
        assert_matches_reference(C)


class TestAgainstTableau:
    """select against the two-phase tableau reference, at row counts where
    the m-solve reference LP takes seconds per set."""

    @settings(max_examples=100, deadline=None)
    @given(constraint_sets(max_m=8, max_rows=60, planted=True))
    def test_large_sets_match_tableau(self, C):
        x = select(C)
        assert x == select_tableau(C)
        if x is None:
            assert helly_witness(C).agents == helly_witness_reference(C, select_tableau)


class TestLargePinnedSets:
    """40+ rows with 9-digit denominators, checked against the construction
    and the tableau reference."""

    @pytest.mark.parametrize("seed, m, k", [(5, 6, 40), (7, 4, 44), (8, 3, 40)])
    def test_select_returns_the_planted_point(self, seed, m, k):
        C = pinned_rows(seed, m, k)
        # Row j + 1 is x_j >= p_j, written a_j x_j >= b, so p_j = b / a_j.
        p = [F(b, a[j]) for j, (_, (a, b)) in enumerate(C.rows[:m])]
        assert select(C) == Lottery(p) == select_tableau(C)

    @pytest.mark.parametrize("seed, m, k, gap", [
        (6, 6, 48, F(1, 10**9)),
        (9, 4, 40, F(1, 10**9 + 7)),
    ])
    def test_empty_set_has_a_minimal_witness(self, seed, m, k, gap):
        C = pinned_rows(seed, m, k, gap)
        assert select(C) is None
        w = helly_witness(C).agents
        assert w == helly_witness_reference(C, select_tableau)
        assert len(w) <= m
        assert select(C.restrict(w)) is None
        for drop in w:
            assert select(C.restrict(w - {drop})) is not None


class TestScaleInvariance:
    """A row (a, b) and (k a, k b) with k > 0 are the same halfspace, and
    scaling a constraint changes no pivot of select: which constraint is
    violated first, the sign of each edge's slope and the ratio order are
    all scale-free.  Rows are therefore stored as given, never reduced."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_positive_multiples_change_nothing(self, data):
        C = data.draw(constraint_sets(max_rows=10, planted=True))
        multipliers = st.one_of(st.just(1), st.integers(2, 10**12))
        ks = data.draw(st.lists(multipliers, min_size=len(C.rows), max_size=len(C.rows)))
        scaled = ConstraintSet(C.m, [(owner, (tuple(k * v for v in a), k * b))
                                     for (owner, (a, b)), k in zip(C.rows, ks)])
        x = select(C)
        assert select(scaled) == x
        if x is None:
            assert helly_witness(scaled).agents == helly_witness(C).agents


class TestLargeWitness:
    """An LP with hundreds of rows: random-infeasible n=400, m=8, 1/eps=50,
    seed 1, with the AcceptAll and RejectAll agents dropped, leaves 322
    grid rows (U - U_r, T - U_r), r each agent's first rejected vertex."""

    def test_witness_is_a_minimal_pair(self):
        inst, _, _ = generate(GeneratorSpec(
            "random-infeasible", {"n": 400, "m": 8, "inv_epsilon": 50, "seed": 1}))
        rows = []
        for owner, (U, T) in enumerate(inst.grid_rows, start=1):
            if min(U) < T <= max(U):
                U_r = next(u for u in U if u < T)
                rows.append((owner, ([u - U_r for u in U], T - U_r)))
        C = ConstraintSet(8, rows)
        assert len(C.rows) == 322
        assert select(C) is None
        w = helly_witness(C).agents
        assert w == {393, 394}
        assert select(C.restrict(w)) is None
        for owner in w:
            assert select(C.restrict({owner})) is not None
