"""Scalars, monomial orders, and polynomial arithmetic."""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from oracles import evaluate, substituted

from ginlab.fields import FP_DEFAULT, QQ, PrimeField, field_from_spec
from ginlab.orders import (
    Lex,
    ProductOrder,
    Revlex,
    WeightOrder,
    elimination_order,
)
from ginlab.poly import (
    LinearChange,
    Polynomial,
    PolynomialParseError,
    format_polynomial,
    parse_polynomial,
    random_form,
)
from ginlab.rings import RingContext


def ring(n=4, field=FP_DEFAULT):
    return RingContext(n, field)


# ----------------------------------------------------------------------
# fields


def test_prime_field_validation():
    PrimeField(2147483647)
    with pytest.raises(ValueError):
        PrimeField(2147483646)  # not prime
    with pytest.raises(ValueError):
        PrimeField(2**31 + 11)  # too large


def test_field_spec_parsing():
    assert field_from_spec("fp:101").p == 101
    assert field_from_spec("qq") is QQ
    with pytest.raises(ValueError):
        field_from_spec("gf:4")


def test_prime_field_matches_rationals_mod_p():
    rng = random.Random(1)
    p = FP_DEFAULT.p
    for _ in range(200):
        a, b = Fraction(rng.randint(-50, 50)), Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        fa, fb = FP_DEFAULT.of(a), FP_DEFAULT.of(b)
        assert FP_DEFAULT.add(fa, fb) == FP_DEFAULT.of(a + b)
        assert FP_DEFAULT.mul(fa, fb) == FP_DEFAULT.of(a * b)
        if b != 0:
            assert FP_DEFAULT.div(fa, fb) == FP_DEFAULT.of(a / b)
        assert FP_DEFAULT.neg(fa) == FP_DEFAULT.of(-a)
        assert (fa * FP_DEFAULT.inv(fa)) % p == 1 if a % p else True


# ----------------------------------------------------------------------
# orders


def greater(m, n, order):
    """m > n under ``order`` (sort keys ascend from the greatest monomial)."""
    return order.sort_key(m) < order.sort_key(n)


def test_lex_compares_first_variable():
    # x0 vs x1 in 4 variables
    assert greater((1, 0, 0, 0), (0, 1, 0, 0), Lex())


def test_revlex_paper_example():
    # x1^2 vs x0*x2 in 3 variables: difference (-1, 2, -1) has negative
    # rightmost entry, so x1^2 is the larger monomial
    assert greater((0, 2, 0), (1, 0, 1), Revlex())
    assert not greater((1, 0, 1), (0, 2, 0), Revlex())


def test_degree_compared_first():
    for order in (Lex(), Revlex(), WeightOrder((1, 5, 9), Lex())):
        assert greater((3, 0, 0), (0, 0, 2), order)


def test_cmp_eq_only_on_equal():
    mons = ring(3).monomials_of_degree(4)
    for order in (Lex(), Revlex(), WeightOrder((1, 5, 9), Lex())):
        assert len({order.sort_key(m) for m in mons}) == len(mons)
    with pytest.raises(ValueError):
        WeightOrder((1, 5, 9), Lex()).sort_key((1, 2))


ALL_ORDERS = [
    Lex(),
    Revlex(),
    WeightOrder((3, 2, 1, 1), Lex()),
    WeightOrder((1, 1, 2, 7), Revlex()),
    elimination_order(4, Revlex()),
    ProductOrder((2, 2), (Lex(), Revlex())),
]


@pytest.mark.parametrize("order", ALL_ORDERS, ids=str)
def test_sorting_is_strict_total_order(order):
    R = ring(4)
    for d in range(1, 9):
        ranked = R.graded_piece(d, order).monomials
        assert sorted(ranked) == sorted(R.monomials_of_degree(d))
        for a, b in zip(ranked, ranked[1:]):
            assert greater(a, b, order)


@pytest.mark.parametrize("order", ALL_ORDERS, ids=str)
def test_order_axioms_on_random_triples(order):
    rng = random.Random(7)
    mons = ring(4).monomials_of_degree(5)
    for _ in range(300):
        m, n, q = (rng.choice(mons) for _ in range(3))
        c_mn = greater(m, n, order)
        assert c_mn != greater(n, m, order) or m == n
        if c_mn and greater(n, q, order):
            assert greater(m, q, order)
        shift = rng.choice(mons)
        scaled = (
            tuple(a + b for a, b in zip(m, shift)),
            tuple(a + b for a, b in zip(n, shift)),
        )
        assert greater(*scaled, order) == c_mn


def test_weight_order_requires_positive_weights_and_tiebreak():
    with pytest.raises(ValueError):
        WeightOrder((1, 0, 1), Lex())
    with pytest.raises(ValueError):
        WeightOrder((1, 2, 3), None)


def test_elimination_order_with_a_lex_inner_order_is_lex():
    # a product of lex blocks ranks every piece as lex does, so the
    # elimination order is built as Lex() and shares lex's basis and tables
    assert elimination_order(4, Lex()) == Lex()
    R = ring(4)
    for d in range(6):
        lex = R.graded_piece(d, Lex()).monomials
        assert R.graded_piece(d, ProductOrder((1, 3), (Lex(), Lex()))).monomials == lex
    eliminating = elimination_order(4, Revlex())
    assert isinstance(eliminating, ProductOrder)
    assert eliminating == ProductOrder((1, 3), (Lex(), Revlex()))
    assert elimination_order(4) == eliminating
    with pytest.raises(ValueError):
        elimination_order(1)


def test_elimination_order_pulls_x0_terms_first():
    order = elimination_order(3, Revlex())
    # within degree 2: anything with x0 beats anything without
    assert greater((1, 0, 1), (0, 2, 0), order)
    assert greater((2, 0, 0), (1, 1, 0), order)


def test_elimination_order_with_a_revlex_inner_order_is_lex_up_to_3_variables():
    # revlex on the at most two remaining variables is lex, so the product
    # is built as Lex() and shares lex's bases and tables
    assert elimination_order(2, Revlex()) == Lex()
    assert elimination_order(3, Revlex()) == Lex()
    assert elimination_order(3) == Lex()
    assert elimination_order(3, WeightOrder((1, 2), Lex())) == ProductOrder(
        (1, 2), (Lex(), WeightOrder((1, 2), Lex())))


@pytest.mark.parametrize("nvars", [2, 3])
def test_product_order_with_a_revlex_inner_order_ranks_as_lex_up_to_3_variables(nvars):
    # the identity elimination_order(n, Revlex()) == Lex() rests on, for n <= 3
    product = ProductOrder((1, nvars - 1), (Lex(), Revlex()))
    for d in range(9):
        mons = ring(nvars).monomials_of_degree(d)
        for m in mons:
            for n in mons:
                assert greater(m, n, product) == greater(m, n, Lex())


def _orders(nvars):
    """A strategy for the orders of ``nvars`` variables: lex, revlex, weight
    orders with random positive weights and either tiebreak, and product
    orders with random block splits and mixed inner orders."""
    base = st.sampled_from([Lex(), Revlex()])

    def weight(n):
        return st.builds(WeightOrder, st.tuples(*[st.integers(1, 9)] * n), base)

    def product(sizes):
        inners = st.tuples(*[st.one_of(base, weight(size)) for size in sizes])
        return inners.map(lambda inners: ProductOrder(sizes, inners))

    def split(cut_after):
        ends = [0, *(i + 1 for i, cut in enumerate(cut_after) if cut), nvars]
        return tuple(b - a for a, b in zip(ends, ends[1:]))

    blocks = st.lists(st.booleans(), min_size=nvars - 1, max_size=nvars - 1).map(split)
    return st.one_of(base, weight(nvars), blocks.flatmap(product))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), _orders(n))),
       st.integers(0, 8))
def test_numpy_piece_order_is_the_sort_key_order(nvars_order, d):
    # the tuples are built here, from combinations_with_replacement, so the
    # expected side reads no ring table; each monomial's position is then
    # found again by ranking
    nvars, order = nvars_order
    tuples = [tuple(combo.count(j) for j in range(nvars))
              for combo in combinations_with_replacement(range(nvars), d)]
    piece = ring(nvars).graded_piece(d, order)
    assert piece.monomials == tuple(sorted(tuples, key=order.sort_key))
    assert piece.positions(piece.monomials).tolist() == list(range(len(tuples)))


def test_a_non_lex_piece_is_built_without_the_lex_piece():
    R = ring(4)
    R.graded_piece(5, Revlex())
    assert list(R._graded) == [(5, Revlex())]


def test_weights_past_int64_sort_a_piece_exactly():
    # w.e leaves int64 here, so the weight column is built from Python ints
    R = ring(3)
    order = WeightOrder((2**62, 2**62 + 1, 1), Revlex())
    for d in range(6):
        lex = R.graded_piece(d, Lex()).monomials
        assert R.graded_piece(d, order).monomials == tuple(sorted(lex, key=order.sort_key))


# ----------------------------------------------------------------------
# polynomials


def test_parse_and_format_round_trip():
    R = ring(4)
    for text in ["x0^2*x1 - 3*x2^3", "x0 + x1 + x2 + x3", "5*x3", "0", "7", "-x0*x1 + 2"]:
        f = parse_polynomial(text, R)
        assert parse_polynomial(format_polynomial(f), R) == f


def test_parse_rejects_bad_grammar():
    R = ring(4)
    for bad in ["x4", "3x0", "x0^", "x0*", "", "x0^-2"]:
        with pytest.raises(PolynomialParseError):
            parse_polynomial(bad, R)


@pytest.mark.parametrize("text, field", [("1/7*x1^2", PrimeField(7)), ("1/0*x1", QQ)])
def test_parse_rejects_a_zero_denominator(text, field):
    with pytest.raises(PolynomialParseError, match="denominator that is zero"):
        parse_polynomial(text, ring(2, field))


def test_addition_cancels():
    R = ring(2)
    f = parse_polynomial("x0 + x1", R)
    g = parse_polynomial("-x1", R)
    assert f + g == parse_polynomial("x0", R)


def test_product_of_conjugates():
    R = ring(2)
    f = parse_polynomial("x0 + x1", R)
    g = parse_polynomial("x0 - x1", R)
    assert f * g == parse_polynomial("x0^2 - x1^2", R)


def test_linear_substitution_binomial():
    R = ring(2)
    f = parse_polynomial("x0^2", R)
    assert f.substitute([[1, 1], [0, 1]]) == parse_polynomial("x0^2 + 2*x0*x1 + x1^2", R)


def test_substitution_is_ring_homomorphism():
    R = ring(3)
    rng = random.Random(3)
    matrix = [[R.field.random(rng) for _ in range(3)] for _ in range(3)]
    for _ in range(20):
        d = rng.randint(1, 3)  # f + g must be a form
        f, g = random_form(R, d, rng), random_form(R, d, rng)
        sub = lambda h: h.substitute(matrix)
        assert sub(f + g) == sub(f) + sub(g)
        assert sub(f * g) == sub(f) * sub(g)


def test_leading_terms():
    R = ring(4)
    f = parse_polynomial("x0*x1 + x2^2", R)
    assert f.leading_term(Lex()) == ((1, 1, 0, 0), 1)
    g = parse_polynomial("x1^2 + x0*x2", R)
    assert g.leading_monomial(Revlex()) == (0, 2, 0, 0)
    h = parse_polynomial("5*x3", R)
    assert h.leading_term(Lex()) == ((0, 0, 0, 1), 5)
    with pytest.raises(ValueError):
        Polynomial.zero(R).leading_term(Lex())


def test_prime_and_rational_arithmetic_agree():
    Rq = ring(3, QQ)
    Rp = ring(3, FP_DEFAULT)
    rng = random.Random(11)
    for _ in range(20):
        terms = [
            (tuple(rng.randint(0, 2) for _ in range(3)), rng.randint(-9, 9))
            for _ in range(4)
        ]
        f_q = Polynomial.from_terms(Rq, terms)
        g_q = Polynomial.from_terms(Rq, terms[::-1])
        f_p = Polynomial.from_terms(Rp, terms)
        g_p = Polynomial.from_terms(Rp, terms[::-1])
        prod_q = f_q * g_q + f_q
        prod_p = f_p * g_p + f_p
        reduced = {
            m: FP_DEFAULT.of(c) for m, c in prod_q.terms.items()
            if FP_DEFAULT.of(c) != 0
        }
        assert reduced == prod_p.terms


def test_homogeneous_degree_and_zero():
    R = ring(2)
    assert parse_polynomial("x0^2 + x0*x1", R).homogeneous_degree() == 2
    assert parse_polynomial("x0^2 + x1", R).homogeneous_degree() is None
    assert Polynomial.zero(R).is_zero


# ----------------------------------------------------------------------
# substitution: the dense power table against the sparse expansion


def _ring_and_scalars(draw, n):
    """A ring of n variables and a strategy for its scalars: over F_p with
    entries biased towards 0, 1 and p - 1, or over QQ with fractional
    entries biased towards 0, 1 and -1."""
    p = draw(st.sampled_from([2, 3, 101, 2147483647, "qq"]))
    if p == "qq":
        return ring(n, QQ), st.one_of(
            st.sampled_from([0, 1, -1]), st.fractions(-10**6, 10**6, max_denominator=60))
    return ring(n, PrimeField(p)), st.one_of(
        st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))


@st.composite
def linear_change_instances(draw):
    """A homogeneous form with few terms and a square matrix."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(0, 10))
    R, entry = _ring_and_scalars(draw, n)
    matrix = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    mons = R.monomials_of_degree(d)
    support = draw(st.lists(st.integers(0, len(mons) - 1), min_size=1, max_size=5))
    f = Polynomial.from_terms(R, ((mons[i], draw(entry)) for i in support))
    return f, matrix


@settings(max_examples=60, deadline=None)
@given(linear_change_instances())
def test_dense_substitute_equals_sparse_expansion(instance):
    f, matrix = instance
    assert f.substitute(matrix) == substituted(f, matrix)


def test_dense_substitute_at_the_int64_edge():
    # every matrix entry is p - 1 or p - 2 with p = 2**31 - 1, so the
    # products of the dense path sit just below 2**62 and five of them would
    # overflow int64 unless each is reduced before it is added
    p = 2147483647
    R = ring(5, PrimeField(p))
    matrix = [[p - 1 - (i == j) for j in range(5)] for i in range(5)]
    f = Polynomial.from_terms(R, [((4, 3, 3, 0, 0), p - 1), ((0, 1, 2, 3, 4), 2)])
    assert f.substitute(matrix) == substituted(f, matrix)


@st.composite
def linear_change_batches(draw):
    """Forms of mixed degrees in 2-5 variables, each dense or of a few
    terms, and one square matrix."""
    n = draw(st.integers(2, 5))
    R, entry = _ring_and_scalars(draw, n)
    matrix = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    forms = []
    for _ in range(draw(st.integers(1, 4))):
        mons = R.monomials_of_degree(draw(st.integers(0, 7)))
        if len(mons) <= 20 and draw(st.booleans()):
            support = range(len(mons))
        else:
            support = draw(st.lists(st.integers(0, len(mons) - 1), min_size=1, max_size=4))
        forms.append(Polynomial.from_terms(R, ((mons[i], draw(entry)) for i in support)))
    return forms, matrix


@settings(max_examples=60, deadline=None)
@given(linear_change_batches())
def test_one_change_substitutes_every_form_it_was_built_for(batch):
    # one power table serves forms of several degrees, sparse or dense
    forms, matrix = batch
    change = LinearChange(forms[0].ring, matrix, forms)
    assert [f.substitute(change) for f in forms] == [substituted(f, matrix) for f in forms]


def test_a_sparse_form_of_high_degree_substitutes_quickly():
    # the power table has one column per prefix of the support, two per
    # degree here, never one per monomial of a degree-40 piece
    R = ring(4)
    f = parse_polynomial("x0^40 - x3^40", R)
    rng = random.Random(40)
    matrix = [[R.field.random(rng) for _ in range(4)] for _ in range(4)]
    start = time.perf_counter()
    image = f.substitute(matrix)
    assert time.perf_counter() - start < 1.0
    point = [R.field.random(rng) for _ in range(4)]
    moved = [sum(a * x for a, x in zip(row, point)) % R.field.p for row in matrix]
    assert evaluate(image, point) == evaluate(f, moved)


def test_a_change_substitutes_only_the_forms_it_was_built_for():
    R = ring(2)
    change = LinearChange(R, [[1, 2], [3, 4]], [parse_polynomial("x0^2 + x1^2", R)])
    assert parse_polynomial("x0^2", R).substitute(change) == parse_polynomial(
        "x0^2 + 4*x0*x1 + 4*x1^2", R)
    with pytest.raises(ValueError):
        parse_polynomial("x0*x1", R).substitute(change)
    with pytest.raises(ValueError):
        parse_polynomial("x0", ring(2, QQ)).substitute(change)


def test_substitute_over_qq_clears_common_denominators():
    Rq = ring(2, QQ)
    f = parse_polynomial("x0^2 - 1/2*x1^2", Rq)
    assert f.substitute([[1, 1], [0, 2]]) == parse_polynomial("x0^2 + 2*x0*x1 - x1^2", Rq)
    g = parse_polynomial("1/3*x0*x1", Rq)
    matrix = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(2, 5), 0]]
    assert g.substitute(matrix) == parse_polynomial("1/15*x0^2 + 2/45*x0*x1", Rq)


def test_substitute_contract():
    R = ring(2)
    square = [[1, 2], [3, 4]]
    assert Polynomial.zero(R).substitute(square) == Polynomial.zero(R)
    with pytest.raises(ValueError):
        parse_polynomial("x0^2 + x1", R).substitute(square)
    for bad in ([[1, 2]], [[1, 2], [3]], [[1, 2, 0], [3, 4, 0]]):
        with pytest.raises(ValueError):
            parse_polynomial("x0*x1", R).substitute(bad)
