"""Segment spaces and ideals, lex ideals, Borel enumeration, and weight
witnesses (including the Fourier-Motzkin engine)."""

import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    SEVEN_POINTS_SHARED_FACTOR,
    TEN_POINTS_LATTICE_SIMPLEX,
    _monomials,
    explicit_points,
    naive_feasible_point,
    segment_oracle,
)

from ginlab import segments
from ginlab.fields import FP_DEFAULT
from ginlab.fourier_motzkin import feasible_point
from ginlab.gin import gin
from ginlab.groebner import ResourceLimitExceeded
from ginlab.monomial_ideals import (
    HilbertFunction,
    MonomialIdeal,
    SelfCheckFailed,
    hilbert_data,
    is_borel_fixed,
)
from ginlab.orders import Lex, Revlex, WeightOrder
from ginlab.points import random_points, vanishing_ideal
from ginlab.rings import RingContext
from ginlab.segments import (
    enumerate_borel_by_hf,
    lex_ideal_of_hf,
    segment_ideal_of,
    segment_space,
    segment_witness,
    verify_weight_witness,
)


def ring(n):
    return RingContext(n, FP_DEFAULT)


def constant_hf(dims_prefix, stable, bound):
    dims = list(dims_prefix) + [stable] * (bound + 1 - len(dims_prefix))
    return HilbertFunction(tuple(dims), bound, stable)


def points_hf(s, r, bound):
    return HilbertFunction(
        tuple(min(s, comb(r + d, r)) for d in range(bound + 1)), bound, s
    )


# ----------------------------------------------------------------------
# Fourier-Motzkin


def test_fm_simple_feasible():
    # w0 > w1 > w2 > 0
    point = feasible_point(
        [((1, -1, 0), True), ((0, 1, -1), True), ((0, 0, 1), True)], 3
    )
    assert point is not None
    w0, w1, w2 = point
    assert w0 > w1 > w2 > 0


def test_fm_infeasible_cycle():
    # w0 > w1, w1 > w0
    assert feasible_point([((1, -1), True), ((-1, 1), True)], 2) is None


def test_fm_weak_constraints_allow_equality():
    point = feasible_point([((1, -1), False), ((-1, 1), False)], 2)
    assert point is not None
    assert point[0] == point[1]


def test_fm_zero_strict_is_infeasible():
    assert feasible_point([((0, 0), True)], 2) is None


def test_fm_back_substitution_stays_exact():
    # the last variable's bounds involve no fixed coordinate, so its bound is
    # an empty sum; it must stay a Fraction rather than become a float
    systems = [
        ([((1, -1, 0), True), ((0, 1, -1), True), ((0, 0, 1), True)], 3),
        ([((1, -1), False), ((-1, 1), False)], 2),
        ([((2, -3), True), ((0, 1), True)], 2),
        ([((1, 0, 0), True), ((0, 1, 0), True), ((0, 0, 1), True), ((1, -3, 2), True)], 3),
    ]
    for constraints, nvars in systems:
        point = feasible_point(constraints, nvars)
        assert point is not None
        assert all(type(x) is Fraction for x in point), point


@st.composite
def fm_systems(draw):
    """Systems in 1..4 variables with coefficients in -3..3 and mixed
    strictness, often sparse, with negated or rescaled copies of earlier
    constraints (equal ratios, so eliminations meet strict and weak ties)
    and optionally w_i > 0 for every i."""
    nvars = draw(st.integers(1, 4))
    coeff = st.sampled_from([-3, -2, -1, 0, 0, 0, 1, 2, 3])
    constraints = []
    for _ in range(draw(st.integers(1, 8))):
        if constraints and draw(st.booleans()):
            base, _ = draw(st.sampled_from(constraints))
            scale = draw(st.sampled_from([-2, -1, 1, 2]))
            coeffs = tuple(scale * c for c in base)
        else:
            coeffs = tuple(draw(st.lists(coeff, min_size=nvars, max_size=nvars)))
        constraints.append((coeffs, draw(st.booleans())))
    if draw(st.booleans()):
        constraints += [(tuple(int(i == j) for j in range(nvars)), True) for i in range(nvars)]
    return constraints, nvars


def test_fm_combination_is_strict_when_either_member_is():
    # x0 < x1 <= 2*x0 forces x0 > 0 and -x0 <= x1 <= -2*x0 forces x0 <= 0;
    # with x0 <= x1 instead, x0 = x1 = 0 is the only solution
    system = [((-1, 1), True), ((2, -1), False), ((1, 1), False), ((-2, -1), False)]
    assert feasible_point(system, 2) is None
    assert feasible_point([((-1, 1), False)] + system[1:], 2) == [0, 0]


@settings(max_examples=300, deadline=None)
@given(fm_systems())
def test_fm_returns_the_naive_elimination_point(system):
    constraints, nvars = system
    assert feasible_point(constraints, nvars) == naive_feasible_point(constraints, nvars)


#: Weights of the revlex segment of the generic Hilbert function of s points
#: in P^r, by (r, s), as the ``exact`` benchmark workload asks for them.  The
#: CLI reports these; a change to elimination or back-substitution that moves
#: one changes a reported witness.
GENERIC_POINTS_WITNESSES = {
    (3, 10): (36, 39, 40, 14), (3, 11): (24, 26, 19, 5), (3, 12): (6, 5, 4, 1),
    (3, 13): (96, 100, 71, 21), (3, 14): (144, 120, 94, 21), (3, 15): (120, 108, 86, 15),
    (3, 16): (432, 435, 358, 102),
    (2, 20): (20, 18, 5), (2, 21): (120, 122, 55), (2, 22): (20, 18, 5), (2, 23): (8, 7, 2),
    (2, 24): (28, 24, 7), (2, 25): (8, 7, 2), (2, 26): (20, 18, 5), (2, 27): (12, 11, 3),
    (2, 28): (84, 85, 39), (2, 29): (12, 11, 3), (2, 30): (20, 18, 5),
}


def generic_points_segment(r, s):
    """The revlex segment ideal of the generic Hilbert function of s points
    in P^r: the Hilbert function up to one degree past the first degree d0
    with h(d0) = s, and segments up to the degree after that."""
    d0 = next(d for d in range(s) if comb(r + d, r) >= s)
    return segment_ideal_of(points_hf(s, r, d0 + 1), Revlex(), ring(r + 1), d0 + 2).monomial_ideal()


@pytest.mark.parametrize("r, s", sorted(GENERIC_POINTS_WITNESSES))
def test_generic_points_revlex_segment_witness(r, s):
    witness = segment_witness(generic_points_segment(r, s))
    assert witness is not None
    assert witness.weights == GENERIC_POINTS_WITNESSES[r, s]


def test_witness_search_sends_only_the_extreme_differences(monkeypatch):
    # w_i > 0 for each of 4 weights and the differences of each degree's
    # inside/outside pairs: 363 constraints from every pair of the revlex
    # segment of 12 points in P^3, 92 once the monomials that are midpoints
    # on their own side are dropped
    sizes = []

    def spy(constraints, nvars):
        sizes.append(len(constraints))
        return feasible_point(constraints, nvars)

    monkeypatch.setattr(segments, "feasible_point", spy)
    witness = segment_witness(generic_points_segment(3, 12))
    assert witness.weights == GENERIC_POINTS_WITNESSES[3, 12]
    assert sizes == [92]


# ----------------------------------------------------------------------
# segment spaces


def test_segment_space_lex():
    space = segment_space(2, 3, Lex(), ring(3))
    assert space.monomials == ((2, 0, 0), (1, 1, 0), (1, 0, 1))


def test_segment_space_revlex():
    space = segment_space(2, 3, Revlex(), ring(3))
    assert space.monomials == ((2, 0, 0), (1, 1, 0), (0, 2, 0))


def test_segment_space_empty_and_range():
    assert segment_space(3, 0, Lex(), ring(3)).monomials == ()
    with pytest.raises(ValueError):
        segment_space(2, 7, Lex(), ring(3))


def test_segment_is_downward_closed_within_degree():
    rng = random.Random(3)
    R = ring(3)
    for _ in range(50):
        d = rng.randint(1, 6)
        u = rng.randint(0, R.monomial_count(d))
        order = rng.choice((Lex(), Revlex()))
        space = set(segment_space(d, u, order, R).monomials)
        for m in R.monomials_of_degree(d):
            for n in space:
                if order.sort_key(m) < order.sort_key(n):
                    assert m in space


# ----------------------------------------------------------------------
# segment ideals


def test_segment_ideal_three_points_lex():
    hf = points_hf(3, 2, 6)
    result = segment_ideal_of(hf, Lex(), ring(3), bound=5)
    assert result.is_ideal
    assert result.monomial_ideal() == MonomialIdeal.from_strings(
        ring(3), ["x0^2", "x0*x1", "x0*x2", "x1^3"]
    )


def test_unit_like_segment_is_ideal():
    R = ring(3)
    dims = (1,) + (0,) * 6
    hf = HilbertFunction(dims, 6, 0)
    result = segment_ideal_of(hf, Revlex(), R, bound=5)
    assert result.is_ideal


def test_lex_segments_of_achievable_hf_always_close():
    # Hilbert functions harvested from random monomial ideals are achievable,
    # so their lex segments must form ideals (Macaulay)
    rng = random.Random(9)
    R = ring(3)
    for _ in range(25):
        gens = set()
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(1, 4)
            gens.add(rng.choice(R.monomials_of_degree(d)))
        J = MonomialIdeal(R, gens)
        data = hilbert_data(J, 8)
        result = segment_ideal_of(data.hf, Lex(), R, bound=7)
        assert result.is_ideal


def test_lex_ideal_of_hand_hilbert_functions():
    assert lex_ideal_of_hf(
        constant_hf((1,), 1, 8), ring(2), bound=6
    ) == MonomialIdeal.from_strings(ring(2), ["x0"])
    assert lex_ideal_of_hf(points_hf(3, 2, 8), ring(3), bound=6) == (
        MonomialIdeal.from_strings(ring(3), ["x0^2", "x0*x1", "x0*x2", "x1^3"])
    )


def test_lex_ideal_of_ci22_hilbert_function():
    # h(d) = 4d for d >= 1: the lex ideal tops out in degree ab(a-1)(b-1)/2 + ab = 6
    dims = tuple([1] + [4 * d for d in range(1, 10)])
    hf = HilbertFunction(dims, 9, None)
    J = lex_ideal_of_hf(hf, ring(4), bound=9)
    assert J.max_generator_degree() == 6


def test_lex_ideal_rejects_non_o_sequence():
    bad = HilbertFunction((1, 4, 2, 8), 3, None)  # dim I_3 shrinks: impossible
    with pytest.raises(ValueError):
        lex_ideal_of_hf(bad, ring(3), bound=3)


def test_segments_reject_a_negative_bound():
    # with no degree to take a segment in, there is no ideal to read off
    with pytest.raises(ValueError, match="segment bound must be at least 0, got -1"):
        segment_ideal_of(points_hf(3, 2, 8), Lex(), ring(3), bound=-1)
    with pytest.raises(ValueError, match="got -2"):
        lex_ideal_of_hf(points_hf(3, 2, 8), ring(3), bound=-2)
    assert segment_ideal_of(points_hf(3, 2, 8), Lex(), ring(3), bound=0).is_ideal


def _closure_orders(nvars):
    weights = tuple(1 + (3 * i) % (nvars + 1) for i in range(nvars))  # ranks x1 first
    return [Lex(), Revlex(), WeightOrder(weights, Revlex())]


def _check_against_segment_oracle(hf, nvars, bound):
    R = ring(nvars)
    ideal_dims = [comb(nvars - 1 + d, nvars - 1) - hf.h(d) for d in range(bound + 1)]
    verdicts = []
    for order in _closure_orders(nvars):
        closed, gens = segment_oracle(ideal_dims, order, nvars)
        result = segment_ideal_of(hf, order, R, bound)
        assert result.is_ideal == closed
        if closed:
            assert set(result.monomial_ideal().gens) == gens
        else:
            with pytest.raises(ValueError):
                result.monomial_ideal()
        verdicts.append(closed)
    return verdicts


@pytest.mark.parametrize("r", [2, 3, 4])
def test_segment_closure_matches_set_oracle_for_generic_points(r):
    for s in range(1, 13):
        d0 = next(d for d in range(s) if comb(r + d, r) >= s)
        assert _check_against_segment_oracle(points_hf(s, r, d0 + 3), r + 1, d0 + 2) == [True] * 3


def test_segment_closure_matches_set_oracle_on_the_point_fixtures():
    # the seven- and ten-point fixtures of P^3 have the generic Hilbert
    # function, so their segments close although their gins are not segments
    for coords in (SEVEN_POINTS_SHARED_FACTOR, TEN_POINTS_LATTICE_SIMPLEX):
        hf = vanishing_ideal(explicit_points(FP_DEFAULT, coords)).hilbert_function(
            Revlex(), bound=6
        )
        assert _check_against_segment_oracle(hf, 4, 5) == [True] * 3


@pytest.mark.parametrize("s, r, verdicts", [
    (3, 2, [True, False, False]),  # three collinear points in P^2
    (4, 3, [True, False, True]),  # four collinear points in P^3
])
def test_segment_closure_matches_set_oracle_where_segments_fail(s, r, verdicts):
    # s points on a line: h(d) = min(d + 1, s), an O-sequence, so the lex
    # segments close (Macaulay) but the revlex ones do not: Seg(1) holds
    # x_{r-2}, yet Seg(2) ends before x_{r-2}*x_r
    hf = HilbertFunction(tuple(min(d + 1, s) for d in range(s + 3)), s + 2, s)
    assert _check_against_segment_oracle(hf, r + 1, s + 2) == verdicts


@st.composite
def weighted_point_sets(draw):
    """(order, s, r, seed): a weight order with weights 1-9, so any ranking
    of the variables, and either tiebreak; s random points of P^2 (s <= 10)
    or P^3 (s <= 12)."""
    r = draw(st.sampled_from([2, 3]))
    s = draw(st.integers(1, 10 if r == 2 else 12))
    weights = tuple(draw(st.lists(st.integers(1, 9), min_size=r + 1, max_size=r + 1)))
    order = WeightOrder(weights, draw(st.sampled_from([Lex(), Revlex()])))
    return order, s, r, draw(st.integers(0, 10**6))


@settings(max_examples=40, deadline=None)
@given(weighted_point_sets())
def test_gin_of_random_points_is_the_segment_ideal_under_any_weight_order(case):
    # the paper's second result: for any term order the gin of generic points
    # is Borel-fixed for that order's ranking of the variables and, where
    # the order's segments close, it is their ideal
    order, s, r, seed = case
    I = vanishing_ideal(random_points(s, r, seed, FP_DEFAULT))
    result = gin(I, order, trials=2, seed=seed)
    assert is_borel_fixed(result.gin, order)
    hf = I.hilbert_function(Revlex(), bound=s + 2)
    seg = segment_ideal_of(hf, order, I.ring, s + 2)
    ideal_dims = [I.ring.monomial_count(d) - hf.h(d) for d in range(s + 3)]
    closed, gens = segment_oracle(ideal_dims, order, r + 1)
    assert seg.is_ideal == closed
    if closed:
        assert set(seg.monomial_ideal().gens) == gens
        assert seg.monomial_ideal() == result.gin


def test_segment_closure_dimension_drop_lemma():
    # a segment V in degree a with dim S_a/V <= a expands to a segment with
    # the same codimension in degree a+1
    rng = random.Random(17)
    R = ring(3)
    checked = 0
    while checked < 200:
        a = rng.randint(1, 6)
        total = R.monomial_count(a)
        codim = rng.randint(0, a)
        if codim > total:
            continue
        order = rng.choice((Lex(), Revlex()))
        V = segment_space(a, total - codim, order, R)
        expanded = set()
        for m in V.monomials:
            for i in range(3):
                expanded.add(tuple(e + (1 if k == i else 0) for k, e in enumerate(m)))
        target = segment_space(a + 1, len(expanded), order, R)
        assert set(target.monomials) == expanded  # S_1 V is again a segment
        assert R.monomial_count(a + 1) - len(expanded) == codim
        checked += 1


# ----------------------------------------------------------------------
# Borel enumeration


def test_enumerate_borel_single_variable_power():
    R = ring(2)
    out = enumerate_borel_by_hf(constant_hf((1, 2), 2, 8), R, bound=8)
    assert [J.generator_strings() for J in out] == [("x0^2",)]


def test_enumerate_borel_principal():
    R = ring(2)
    out = enumerate_borel_by_hf(constant_hf((1,), 1, 8), R, bound=8)
    assert [J.generator_strings() for J in out] == [("x0",)]


def test_enumerate_borel_census_of_seven_plane_points():
    R = ring(3)
    hf = constant_hf((1, 3, 6), 7, 9)
    out = enumerate_borel_by_hf(hf, R, bound=9)
    assert len(out) == 8
    for J in out:
        assert is_borel_fixed(J)
        data = hilbert_data(J, 9)
        assert data.hf.dims == hf.dims
        assert data.dimension == 1 and data.degree == 7


def test_enumerate_borel_resource_guard():
    with pytest.raises(ResourceLimitExceeded):
        enumerate_borel_by_hf(constant_hf((1,), 1, 12), ring(2), bound=12)


# ----------------------------------------------------------------------
# segment witnesses


def census_ideal(gens):
    return MonomialIdeal.from_strings(ring(3), gens)


def test_witness_for_weight_segment_621():
    J = census_ideal(
        ["x0^3", "x0^2*x1", "x0^2*x2", "x0*x1^3", "x0*x1^2*x2", "x0*x1*x2^3", "x1^6"]
    )
    witness = segment_witness(J)
    assert witness is not None
    assert verify_weight_witness(J, (6, 2, 1), (1, 7))


def test_witness_for_weight_segment_421():
    J = census_ideal(["x0^3", "x0^2*x1", "x0^2*x2", "x0*x1^3", "x0*x1^2*x2", "x1^5"])
    witness = segment_witness(J)
    assert witness is not None
    assert verify_weight_witness(J, (4, 2, 1), (1, 6))


def test_non_segment_certified_infeasible():
    J = census_ideal(["x0^3", "x0^2*x1", "x0^2*x2", "x0*x1^3", "x1^4"])
    assert segment_witness(J) is None


def test_witness_weights_strictly_positive():
    J = census_ideal(["x0^3", "x0^2*x1", "x0*x1^2", "x1^4"])  # revlex segment
    witness = segment_witness(J)
    assert witness is not None
    assert all(w > 0 for w in witness.weights)


def test_witness_that_fails_its_recheck_raises(monkeypatch):
    J = census_ideal(["x0^3", "x0^2*x1", "x0*x1^2", "x1^4"])
    monkeypatch.setattr(segments, "verify_weight_witness", lambda *args: False)
    with pytest.raises(SelfCheckFailed):
        segment_witness(J)


@pytest.mark.parametrize("degree_range", [(5, 2), (-1, 3)])
def test_witness_over_an_empty_or_negative_range_raises(degree_range):
    J = census_ideal(["x0^2", "x0*x1", "x1^3"])
    with pytest.raises(ValueError):
        segment_witness(J, degree_range)


def test_verify_rejects_an_empty_or_negative_range():
    # an empty range used to pass any weights, and a negative one reached
    # the graded piece of degree -1
    J = census_ideal(["x0", "x1^2"])
    assert not verify_weight_witness(J, (1, 1, 1), (1, 3))
    with pytest.raises(ValueError, match="degree range 5:2"):
        verify_weight_witness(J, (1, 1, 1), (5, 2))
    with pytest.raises(ValueError, match="degree range -1:2"):
        verify_weight_witness(J, (1, 1, 1), (-1, 2))


def test_verify_rejects_wrong_weights():
    J = census_ideal(["x0^3", "x0^2*x1", "x0^2*x2", "x0*x1^3", "x0*x1^2*x2", "x1^5"])
    assert not verify_weight_witness(J, (1, 1, 1), (1, 6))
    assert not verify_weight_witness(J, (4, 2), (1, 6))


def _every_pair_system(gens, nvars, lo, hi):
    """w_i > 0 and w . (m - n) > 0 for every inside monomial m and outside
    monomial n of each degree, membership read off divisibility."""

    def member(m):
        return any(all(a <= b for a, b in zip(g, m)) for g in gens)

    system = [(tuple(int(i == j) for j in range(nvars)), True) for i in range(nvars)]
    for d in range(lo, hi + 1):
        mons = _monomials(nvars, d)
        inside = [m for m in mons if member(m)]
        outside = [m for m in mons if not member(m)]
        system += [(tuple(a - b for a, b in zip(m, n)), True) for m in inside for n in outside]
    return system


def _primitive(point):
    den = lcm(*(x.denominator for x in point))
    ints = [int(x * den) for x in point]
    return tuple(x // gcd(*ints) for x in ints)


@st.composite
def witness_ideals(draw):
    """A monomial ideal in 3 or 4 variables: random generators of degree 1-3,
    their closure under every move up the lex ranking (Borel-fixed), or the
    closed segment ideal of the generic Hilbert function of 1-6 points under
    a random weight order.  About a fifth of them have no witness."""
    nvars = draw(st.sampled_from([3, 4]))
    kind = draw(st.sampled_from(["random", "borel", "segment"]))
    if kind == "segment":
        r, s = nvars - 1, draw(st.integers(1, 6 if nvars == 3 else 4))
        weights = tuple(draw(st.lists(st.integers(1, 9), min_size=nvars, max_size=nvars)))
        order = WeightOrder(weights, draw(st.sampled_from([Lex(), Revlex()])))
        dims = [comb(r + d, r) - min(s, comb(r + d, r)) for d in range(5)]
        closed, gens = segment_oracle(dims, order, nvars)
        assume(closed)
    else:
        exps = st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars).map(tuple)
        gens = set(draw(st.lists(exps.filter(lambda m: 1 <= sum(m) <= 3), min_size=1, max_size=4)))
        frontier = list(gens) if kind == "borel" else []
        while frontier:
            m = frontier.pop()
            for i in range(1, nvars):
                for j in range(i) if m[i] else ():
                    moved = tuple(e - (v == i) + (v == j) for v, e in enumerate(m))
                    if moved not in gens:
                        gens.add(moved)
                        frontier.append(moved)
    return MonomialIdeal(ring(nvars), gens)


@settings(max_examples=100, deadline=None)
@given(witness_ideals())
def test_pruned_witness_search_gives_the_point_of_every_inside_outside_pair(J):
    # Fourier-Motzkin back-substitution depends on the solution set alone,
    # which dropping the midpoint monomials keeps
    nvars = J.ring.nvars
    system = _every_pair_system(J.gens, nvars, 1, J.max_generator_degree() + 1)
    assume(len(set(system)) <= 90)  # all-pairs elimination grows fast past that
    point = naive_feasible_point(system, nvars)
    witness = segment_witness(J)
    if point is None:
        assert witness is None
    else:
        assert witness is not None and witness.weights == _primitive(point)
