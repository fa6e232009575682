"""Tests for turning-point search and halfspace elicitation."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st
import reference_geometry
from reference_geometry import bisection_budget
from reference_instances import expected_utility

from unanimity import (
    AgentSpec,
    GeneratorSpec,
    Instance,
    Lottery,
    Oracle,
    QueryCategory,
    exact_threshold,
    exact_threshold_pred,
    edge_lottery,
    generate,
    learn_hyperplane,
    pairwise_projection,
    rational_reconstruct,
    solve_baseline,
    solve_deterministic,
)

TS = QueryCategory.THRESHOLD_SEARCH


def example_instance() -> Instance:
    return Instance(3, F(1, 10), [
        AgentSpec(["1", "0.6", "0.2"], "0.6"),
        AgentSpec(["0.2", "1", "0.5"], "0.7"),
        AgentSpec(["0.2", "0.2", "1"], "0.3"),
    ])


def random_instance(rng, n, m, Q) -> Instance:
    agents = []
    for _ in range(n):
        u = [F(rng.randint(0, Q), Q) for _ in range(m)]
        agents.append(AgentSpec(u, F(rng.randint(1, Q), Q)))
    return Instance(m, F(1, Q), agents)


def closed_form(agent, k, kprime) -> F:
    u_k, u_kp = agent.utilities[k - 1], agent.utilities[kprime - 1]
    return (agent.threshold - u_k) / (u_kp - u_k)


def row_accepts(row, x: Lottery) -> bool:
    """Reference acceptance test of a learned row (a, b), <a, x> >= b; None
    (an AcceptAll agent) accepts everything, ((0, ..., 0), 1) nothing."""
    return row is None or sum(c * p for c, p in zip(row[0], x.probs)) >= row[1]


def rejected_accepted_pairs(agent):
    rej = [j + 1 for j, u in enumerate(agent.utilities) if u < agent.threshold]
    acc = [j + 1 for j, u in enumerate(agent.utilities) if u >= agent.threshold]
    return [(k, kp) for k in rej for kp in acc]


def scan_reconstruct(lower: F, upper: F, Q: int) -> F:
    """Reference: the first p/q in [lower, upper] over q = 1..Q, O(Q) steps."""
    for q in range(1, Q + 1):
        p = math.ceil(q * lower)
        if F(p, q) <= upper:
            return F(p, q)
    raise ArithmeticError(f"no rational with denominator <= {Q} in [{lower}, {upper}]")


def reconstruct(lower: F, upper: F, Q: int) -> F:
    """``rational_reconstruct`` on a bracket given by its Fraction endpoints."""
    D = math.lcm(lower.denominator, upper.denominator)
    lo = lower.numerator * (D // lower.denominator)
    hi = upper.numerator * (D // upper.denominator)
    return rational_reconstruct(lo, hi, D, Q)


@st.composite
def int_brackets(draw):
    """(lo, hi, D, Q, expected): a bracket [lo/D, hi/D] at most 1/(2 Q^2)
    wide.

    ``expected`` is the p/q (q <= Q) inside it, maybe at an endpoint;
    ArithmeticError when the bracket starts one 1/D step past p/q on either
    side, where it holds no rational with denominator <= Q; None when it
    lies anywhere.
    """
    Q = draw(st.integers(2, 5000) | st.just(10**9))
    kind = draw(st.sampled_from(["holds", "past", "anywhere"]))
    if kind == "anywhere":
        D = draw(st.integers(1, 2**80))
        lo = draw(st.integers(-D, 2 * D))
        return lo, lo + draw(st.integers(0, D // (2 * Q * Q))), D, Q, None
    q = draw(st.integers(1, Q))
    p = draw(st.integers(0, q))
    D = 2 * Q * Q * q * draw(st.integers(1, 2**20))
    width = draw(st.integers(0, D // (2 * Q * Q)))
    at = p * (D // q)
    if kind == "holds":
        lo = at - draw(st.integers(0, width) | st.sampled_from([0, width]))
        return lo, lo + width, D, Q, F(p, q)
    if draw(st.booleans()):
        return at + 1, at + 1 + width, D, Q, ArithmeticError
    return at - 1 - width, at - 1, D, Q, ArithmeticError


class TestRationalReconstruct:
    def test_small_bracket_around_three_fifths(self):
        assert rational_reconstruct(598, 602, 1000, 10) == F(3, 5)

    def test_target_at_right_endpoint(self):
        x = F(1, 2)
        assert reconstruct(x - F(1, 400), x, 10) == x

    def test_against_brute_force_scan(self):
        # The bracket must be narrower than eps^2/2 = 1/1800 for Q=30: a
        # width-1/250 bracket would also contain 3/13, breaking uniqueness.
        lower, upper, Q = F(7, 30) - F(1, 2000), F(7, 30), 30
        # Independent oracle: enumerate every rational with denominator <= Q.
        candidates = sorted({
            F(p, q)
            for q in range(1, Q + 1)
            for p in range(0, q + 1)
            if lower <= F(p, q) <= upper
        })
        assert candidates == [F(7, 30)]
        assert reconstruct(lower, upper, Q) == F(7, 30)

    def test_empty_bracket_is_a_contract_violation(self):
        with pytest.raises(ArithmeticError):
            rational_reconstruct(101, 102, 1000, 5)

    @pytest.mark.parametrize("lo,hi,D", [(0, 0, 0), (1, 2, -4)])
    def test_nonpositive_denominator_is_refused(self, lo, hi, D):
        # Unchecked, D = 0 divides by zero and D = -4 returns -1/3.
        with pytest.raises(ValueError, match="denominator must be positive"):
            rational_reconstruct(lo, hi, D, 5)

    @settings(max_examples=300, deadline=None)
    @given(
        Q=st.integers(2, 5000),
        data=st.data(),
        width=st.fractions(0, 1, max_denominator=1000),
        shift=st.fractions(0, 2, max_denominator=1000),
    )
    def test_matches_scan_on_uniqueness_width_brackets(self, Q, data, width, shift):
        # A bracket at most 1/(2 Q^2) wide, holding p/q when shift <= 1 and
        # lying just below it (maybe holding no candidate) otherwise.
        q = data.draw(st.integers(1, Q))
        p = data.draw(st.integers(0, q))
        width *= F(1, 2 * Q * Q)
        lower = F(p, q) - shift * width
        upper = lower + width
        try:
            expected = scan_reconstruct(lower, upper, Q)
        except ArithmeticError:
            with pytest.raises(ArithmeticError):
                reconstruct(lower, upper, Q)
        else:
            assert reconstruct(lower, upper, Q) == expected

    @settings(max_examples=500, deadline=None)
    @given(bracket=int_brackets())
    def test_matches_fraction_limit_denominator(self, bracket):
        # The int continued-fraction walk against the Fraction midpoint's
        # limit_denominator: the same value, or the same ArithmeticError.
        def outcome(reconstruct_, *args):
            try:
                return reconstruct_(*args)
            except ArithmeticError as exc:
                return "ArithmeticError", str(exc)

        lo, hi, D, Q, expected = bracket
        new = outcome(rational_reconstruct, lo, hi, D, Q)
        assert new == outcome(reference_geometry.rational_reconstruct, F(lo, D), F(hi, D), Q)
        if expected is ArithmeticError:
            assert isinstance(new, tuple)
        elif expected is not None:
            assert new == expected


class TestExactThreshold:
    def test_direct_substitution(self):
        inst = Instance(2, F(1, 10), [AgentSpec([0, 1], "0.6")])
        o = Oracle(inst)
        assert exact_threshold(o, 1, 1, 2) == F(3, 5)

    def test_worked_example_edges(self):
        o = Oracle(example_instance())
        assert exact_threshold(o, 1, 3, 1) == F(1, 2)
        assert exact_threshold(o, 1, 3, 2) == 1

    def test_closed_form_equivalence_and_budget(self):
        rng = random.Random(11)
        budget = {Q: bisection_budget(Q) for Q in (4, 10)}
        checked = 0
        while checked < 200:
            Q = rng.choice([4, 10])
            inst = random_instance(rng, 1, rng.choice([2, 3, 4]), Q)
            agent = inst.agents[0]
            for k, kp in rejected_accepted_pairs(agent):
                o = Oracle(inst)
                alpha = exact_threshold(o, 1, k, kp)
                assert alpha == closed_form(agent, k, kp)
                assert alpha.denominator <= Q
                assert o.ledger.per_category.get(TS, 0) == budget[Q]
                checked += 1

    @pytest.mark.parametrize("Q", [1000, 10**6, 999_999_937, 10**9])
    def test_closed_form_on_fine_grids(self, Q):
        rng = random.Random(Q)
        checked = 0
        while checked < 40:
            inst = random_instance(rng, 1, rng.choice([2, 3, 4]), Q)
            agent = inst.agents[0]
            for k, kp in rejected_accepted_pairs(agent):
                o = Oracle(inst)
                assert exact_threshold(o, 1, k, kp) == closed_form(agent, k, kp)
                assert o.ledger.per_category.get(TS, 0) == bisection_budget(Q)
                checked += 1

    def test_budget_value(self):
        # ceil(log2(2/eps^2)) for 1/eps = 10 is ceil(log2 200) = 8.
        assert bisection_budget(10) == 8
        assert bisection_budget(4) == 5

    def test_budget_matches_float_formula(self):
        # The integer form against the float formula it replaced; 2Q^2 is an
        # exact power of two whenever Q is one.
        for Q in [*range(2, 5001), 10**9]:
            assert bisection_budget(Q) == math.ceil(math.log2(2 * Q * Q)), Q

    def test_budget_is_within_three_queries_of_the_counting_floor(self):
        # A turning point is one of the sum_{q <= Q} phi(q) fractions in
        # (0, 1] with denominator <= Q, so no search asks fewer than
        # ceil(log2) of that many queries; bisection asks 2 or 3 more.
        N = 2000
        phi = list(range(N + 1))
        for p in range(2, N + 1):
            if phi[p] == p:  # p is prime
                for k in range(p, N + 1, p):
                    phi[k] -= phi[k] // p
        count = 1
        for Q in range(2, N + 1):
            count += phi[Q]
            assert bisection_budget(Q) - (count - 1).bit_length() in (2, 3), Q


class TestExactThresholdPred:
    def test_matches_plain_search_for_assorted_hints(self):
        rng = random.Random(23)
        for trial in range(60):
            Q = rng.choice([4, 10])
            inst = random_instance(rng, 1, rng.choice([2, 3]), Q)
            pairs = rejected_accepted_pairs(inst.agents[0])
            if not pairs:
                continue
            k, kp = rng.choice(pairs)
            truth = exact_threshold(Oracle(inst), 1, k, kp)
            eps = F(1, Q)
            for hint in (F(0), eps * eps, F(1, 3), F(1, 2), F(1)):
                assert exact_threshold_pred(Oracle(inst), 1, k, kp, hint) == truth

    def test_perfect_hint_uses_few_queries(self):
        inst = Instance(2, F(1, 10), [AgentSpec([0, 1], "0.6")])
        o = Oracle(inst)
        assert exact_threshold_pred(o, 1, 1, 2, F(3, 5)) == F(3, 5)
        assert o.ledger.total <= 4

    def test_worst_case_hint_stays_close_to_plain_cost(self):
        inst = Instance(2, F(1, 10), [AgentSpec([0, 1], "1")])  # alpha* = 1
        o_plain = Oracle(inst)
        exact_threshold(o_plain, 1, 1, 2)
        o_pred = Oracle(inst)
        assert exact_threshold_pred(o_pred, 1, 1, 2, F(0)) == 1
        # Walking out and bisecting back each cost ~log(1/eps^2): a maximally
        # wrong hint is at most twice the plain cost plus a constant.
        assert o_pred.ledger.total <= 2 * o_plain.ledger.total + 4

    def test_rejects_out_of_range_hint(self):
        o = Oracle(example_instance())
        with pytest.raises(ValueError):
            exact_threshold_pred(o, 1, 3, 1, F(3, 2))

    def test_string_hint_exponent_bounded(self):
        inst = Instance(2, F(1, 10), [AgentSpec([0, 1], "0.6")])
        with pytest.raises(ValueError, match="exponent beyond"):
            exact_threshold_pred(Oracle(inst), 1, 1, 2, "1e-5000")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_query_bound_grows_with_the_hint_error(self, data):
        # Walking out from the hint and bisecting back each cost about
        # log2(1 + |alpha_hat - alpha*| / (eps^2/2)) queries, and never
        # more than twice the cold search's B.
        inst, k, kp, alpha = data.draw(turning_edges(ms=st.just(2), Qs=st.integers(2, 10**9)))
        d = data.draw(st.integers(1, 10**15), label="hint denominator")
        near = alpha.numerator * d // alpha.denominator
        t = data.draw(st.integers(0, d) | st.integers(max(near - 3, 0), min(near + 3, d)),
                      label="hint numerator")
        hint = F(t, d)
        o = Oracle(inst)
        assert exact_threshold_pred(o, 1, k, kp, hint) == exact_threshold(Oracle(inst), 1, k, kp)
        Q = inst.inv_epsilon
        B = bisection_budget(Q)
        r = 1 + 2 * Q * Q * abs(hint - alpha)
        # ceil(log2 r) is ceil(log2 ceil(r)): the bit length of ceil(r) - 1.
        walk = (-(-r.numerator // r.denominator) - 1).bit_length()
        assert o.ledger.total <= min(2 * B, 2 * walk + 2)


@st.composite
def turning_edges(draw, ms=st.integers(2, 3), Qs=st.integers(2, 5000) | st.just(10**9)):
    """One agent over m alternatives (drawn from ``ms``, default 2 or 3)
    whose turning point on the edge (k, k') is a drawn p/q with q <= Q and
    0 < p/q <= 1: U_k = base, U_k' = base + q c, T = base + p c.  Returns
    the instance, k, k' and p/q."""
    Q = draw(Qs)
    q = draw(st.integers(1, Q))
    p = draw(st.integers(1, q))
    c = draw(st.integers(1, Q // q))
    base = draw(st.integers(0, Q - q * c))
    m = draw(ms)
    k, kp = draw(st.permutations(range(1, m + 1)))[:2]
    U = [draw(st.integers(0, Q)) for _ in range(m)]
    U[k - 1], U[kp - 1] = base, base + q * c
    agent = AgentSpec([F(u, Q) for u in U], F(base + p * c, Q))
    return Instance(m, F(1, Q), [agent]), k, kp, F(p, q)


def unit_edge(Q, p, q):
    """The turning_edges case m = 2, k = 1, k' = 2, base 0 and c = 1: the
    turning point p/q over the grid 1/Q."""
    return Instance(2, F(1, Q), [AgentSpec([0, F(q, Q)], F(p, Q))]), 1, 2, F(p, q)


def threshold_trace(o: Oracle):
    return [(agent, cat, x.probs) for agent, cat, x, _ in o.ledger.trace]


class TestCountedHalvings:
    """The counted halvings ask exactly the queries the width-tested loop in
    ``reference_geometry`` asks, in order, and return the same turning point."""

    @settings(max_examples=300, deadline=None)
    @given(edge=turning_edges())
    def test_cold_search_matches_width_test_and_budget(self, edge):
        inst, k, kp, alpha = edge
        new, old = Oracle(inst, capture_trace=True), Oracle(inst, capture_trace=True)
        assert exact_threshold(new, 1, k, kp) == alpha
        assert reference_geometry.exact_threshold(old, 1, k, kp) == alpha
        assert threshold_trace(new) == threshold_trace(old)
        assert new.ledger.total == bisection_budget(inst.inv_epsilon)

    @settings(max_examples=300, deadline=None)
    @given(
        edge=turning_edges(),
        kind=st.sampled_from(["zero", "one", "exact", "offset", "random"]),
        j=st.integers(-4, 4) | st.integers(-2**40, 2**40),
        rand=st.fractions(0, 1, max_denominator=10**12),
    )
    # Hint denominators coprime to 2Q^2, walking left and right.
    @example(edge=unit_edge(10, 1, 5), kind="random", j=0, rand=F(1, 3))
    @example(edge=unit_edge(10, 3, 7), kind="random", j=0, rand=F(2, 7))
    # A walk left that clips at 0 (from 29/200 the next step is 32/200),
    # and one right that clips at 1.
    @example(edge=unit_edge(10, 1, 10), kind="random", j=0, rand=F(3, 10))
    @example(edge=unit_edge(10, 1, 1), kind="zero", j=0, rand=F(0))
    # The hint exactly at the turning point.
    @example(edge=unit_edge(10, 3, 7), kind="exact", j=0, rand=F(0))
    def test_warm_search_matches_width_test(self, edge, kind, j, rand):
        inst, k, kp, alpha = edge
        Q = inst.inv_epsilon
        offset = min(max(alpha + j * F(1, 2 * Q * Q), F(0)), F(1))
        hint = {"zero": F(0), "one": F(1), "exact": alpha, "offset": offset, "random": rand}[kind]
        new, old = Oracle(inst, capture_trace=True), Oracle(inst, capture_trace=True)
        assert exact_threshold_pred(new, 1, k, kp, hint) == alpha
        assert reference_geometry.exact_threshold_pred(old, 1, k, kp, hint) == alpha
        assert threshold_trace(new) == threshold_trace(old)


@pytest.mark.parametrize("solve", [solve_baseline, solve_deterministic])
def test_grid_singleton_at_one_in_a_billion(solve):
    inst, truth, _ = generate(GeneratorSpec(
        "grid-singleton", {"m": 4, "inv_epsilon": 10**9, "seed": 5}))
    report = solve(Oracle(inst))
    assert report.lottery == truth.lottery


def sample_lotteries(m, count=200, seed=5):
    """Grid corners/edges plus random rational points, for equivalence checks."""
    rng = random.Random(seed)
    out = [Lottery.pure(j, m) for j in range(1, m + 1)]
    while len(out) < count:
        weights = [rng.randint(0, 10) for _ in range(m)]
        if sum(weights) == 0:
            continue
        total = sum(weights)
        out.append(Lottery([F(w, total) for w in weights]))
    return out


class TestLearnHyperplane:
    def test_worked_example_agent1(self):
        o = Oracle(example_instance())
        assert learn_hyperplane(o, 1) == ((2, 1, 0), 1)

    def test_worked_example_agent3(self):
        o = Oracle(example_instance())
        assert learn_hyperplane(o, 3) == ((0, 0, 8), 1)

    def test_accept_all_and_reject_all(self):
        inst = Instance(2, F(1, 4), [
            AgentSpec([1, 1], 1),
            AgentSpec([0, 0], F(1, 4)),
        ])
        o = Oracle(inst)
        assert learn_hyperplane(o, 1) is None
        assert learn_hyperplane(o, 2) == ((0, 0), 1)

    def test_rejected_pivot_coefficient_is_zero(self):
        o = Oracle(example_instance())
        row = learn_hyperplane(o, 1)
        assert row[0][2] == 0  # vertex 3 is agent 1's first rejected vertex

    def test_all_alpha_one_branch(self):
        # Boundary through the accepted vertices: u=(1,0), tau=1 on m=2.
        inst = Instance(2, F(1, 2), [AgentSpec([1, 0], 1)])
        o = Oracle(inst)
        row = learn_hyperplane(o, 1)
        assert row == ((1, 0), 1)
        assert row_accepts(row, Lottery.pure(1, 2))
        assert not row_accepts(row, Lottery([F(1, 2), F(1, 2)]))

    def test_halfspace_equivalence_on_sampled_lotteries(self):
        rng = random.Random(7)
        for trial in range(12):
            m, Q = rng.choice([2, 3, 4]), rng.choice([4, 10])
            inst = random_instance(rng, 1, m, Q)
            agent = inst.agents[0]
            row = learn_hyperplane(Oracle(inst), 1)
            for x in sample_lotteries(m, count=200, seed=trial):
                truth = expected_utility(agent, x) >= agent.threshold
                assert row_accepts(row, x) == truth

    def test_plain_query_budget(self):
        rng = random.Random(3)
        for trial in range(25):
            m, Q = rng.choice([2, 3, 4]), rng.choice([4, 10])
            inst = random_instance(rng, 1, m, Q)
            o = Oracle(inst)
            learn_hyperplane(o, 1)
            assert o.ledger.per_category.get(QueryCategory.PURE_VERTEX, 0) == m
            assert o.ledger.per_category.get(TS, 0) <= (m - 1) * bisection_budget(Q)

    def test_warm_start_same_halfspace(self):
        rng = random.Random(17)
        for trial in range(15):
            m, Q = rng.choice([2, 3]), 10
            inst = random_instance(rng, 1, m, Q)
            plain = learn_hyperplane(Oracle(inst), 1)
            warm = sample_lotteries(m, count=5, seed=trial)[-1]
            assert learn_hyperplane(Oracle(inst), 1, warm=warm) == plain

    @pytest.mark.parametrize("m, hint_m", [(2, 3), (3, 2)])
    def test_warm_lottery_of_another_dimension_is_refused(self, m, hint_m):
        inst = Instance(m, F(1, 10), [AgentSpec(["1"] + ["0"] * (m - 1), "0.6")])
        o = Oracle(inst)
        warm = Lottery([F(1, hint_m)] * hint_m)
        with pytest.raises(ValueError, match=f"instance has {m}, warm lottery {hint_m}"):
            learn_hyperplane(o, 1, warm=warm)
        assert o.ledger.total == 0

    @pytest.mark.parametrize("warm", [["1/2", "1/2"], ("1/2", "1/2"), "1/2,1/2"])
    def test_warm_must_be_a_lottery(self, warm):
        inst = Instance(2, F(1, 10), [AgentSpec(["1", "0"], "0.6")])
        o = Oracle(inst)
        with pytest.raises(ValueError, match="warm lottery must be a Lottery, got "):
            learn_hyperplane(o, 1, warm=warm)
        assert o.ledger.total == 0

    def test_zero_projection_error_query_bound(self):
        # The uniform lottery projects to 1/2 on every edge; this agent's
        # turning points all sit at 1/2, so the hint is edge-perfect while
        # the hint itself is rejected (U = 1/3 < 1/2).
        agent = AgentSpec([0, 1, 0], F(1, 2))
        inst = Instance(3, F(1, 10), [agent])
        uniform = Lottery([F(1, 3)] * 3)
        for k, kp in rejected_accepted_pairs(agent):
            assert pairwise_projection(uniform, k, kp) == closed_form(agent, k, kp)
        o = Oracle(inst)
        row = learn_hyperplane(o, 1, warm=uniform)
        assert not row_accepts(row, uniform)
        m = 3
        assert o.ledger.total <= m + 4 * (m - 1)


@st.composite
def grid_agents(draw):
    """One grid agent over m <= 5 alternatives.  A quarter of the utilities
    equal the threshold, so turning points at exactly 1 (the face case) and
    AcceptAll / RejectAll agents all come up."""
    m = draw(st.integers(1, 5))
    Q = draw(st.sampled_from([2, 4, 10, 97, 1000]))
    tau = draw(st.integers(1, Q))
    utility = st.integers(0, 3).flatmap(lambda b: st.just(tau) if b == 0 else st.integers(0, Q))
    u = draw(st.lists(utility, min_size=m, max_size=m))
    return AgentSpec([F(a, Q) for a in u], F(tau, Q)), Q


def grid_lotteries(m):
    weights = st.lists(st.integers(0, 6), min_size=m, max_size=m).filter(any)
    return weights.map(lambda w: Lottery([F(a, sum(w)) for a in w]))


def reduced_grid_row(inst: Instance):
    """Agent 1's grid row (U - U_r, T - U_r), r its first rejected vertex,
    divided by its gcd; None when it rejects no vertex."""
    U, T = inst.grid_rows[0]
    U_r = next((u for u in U if u < T), None)
    if U_r is None:
        return None
    a, b = [u - U_r for u in U], T - U_r
    g = math.gcd(*a, b)
    return tuple(v // g for v in a), b // g


class TestLearnedRowAgainstClosedForm:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_cold_and_warm_rows_match_normalized_row(self, data):
        """The learned row is the agent's grid row in lowest terms, except
        in the face case, where it must accept the same lotteries."""
        agent, Q = data.draw(grid_agents())
        m = agent.m
        inst = Instance(m, F(1, Q), [agent])
        warm = data.draw(grid_lotteries(m))
        accepted = [j for j in range(1, m + 1) if agent.utilities[j - 1] >= agent.threshold]
        rejected = [j for j in range(1, m + 1) if j not in accepted]
        expected = reduced_grid_row(inst)
        for row in (learn_hyperplane(Oracle(inst), 1),
                    learn_hyperplane(Oracle(inst), 1, warm=warm)):
            if not rejected:
                assert row is None and expected is None
            elif not accepted:
                assert row == ((0,) * m, 1)
            elif any(closed_form(agent, rejected[0], j) < 1 for j in accepted):
                assert row == expected
            else:
                # Face case: the rows may differ off the accepted face, but
                # both accept exactly the lotteries supported on it.
                assert row is not None and any(row[0])
                probes = [warm, *data.draw(st.lists(grid_lotteries(m), max_size=10))]
                probes += [Lottery.pure(j, m) for j in range(1, m + 1)]
                probes += [edge_lottery(k, j, F(1, 2), m) for k in rejected for j in accepted]
                for x in probes:
                    assert row_accepts(row, x) == row_accepts(expected, x)
                    assert row_accepts(row, x) == Oracle(inst).query(1, x, TS)
