"""Monomial ideal combinatorics: Hilbert series and the Borel property,
with the Eliahou-Kervaire Betti table of ``oracles`` as the independent
check of the Hilbert numerator."""

from unittest.mock import patch

from hypothesis import given, settings, strategies as st
from oracles import borel_fixed_oracle, ek_betti

from ginlab import monomial_ideals
from ginlab.fields import FP_DEFAULT
from ginlab.monomial_ideals import MonomialIdeal, hilbert_data, is_borel_fixed
from ginlab.orders import Lex, Revlex, WeightOrder, elimination_order, variable_ranking
from ginlab.rings import RingContext


def ring(n):
    return RingContext(n, FP_DEFAULT)


def J(n, *gens):
    return MonomialIdeal.from_strings(ring(n), gens)


def test_minimal_generators_canonical():
    ideal = J(3, "x0^2*x1", "x0*x1", "x2^3", "x0*x1*x2")
    assert ideal.generator_strings() == ("x0*x1", "x2^3")


def test_contains_and_degree_slices():
    ideal = J(2, "x0^2")
    assert ideal.membership([(2, 1), (1, 5)]).tolist() == [True, False]
    assert ideal.monomials_of_degree(3) == ((3, 0), (2, 1))


# ----------------------------------------------------------------------
# Hilbert series


def test_hilbert_principal_variable():
    data = hilbert_data(J(2, "x0"), 5)
    assert data.hf.dims == (1, 1, 1, 1, 1, 1)
    assert (data.dimension, data.degree) == (1, 1)


def test_hilbert_gin_of_ci22():
    ideal = J(4, "x0^2", "x0*x1", "x0*x2^2", "x1^4")
    data = hilbert_data(ideal, 6)
    assert data.hf.dims == (1, 4, 8, 12, 16, 20, 24)
    assert data.dimension == 2
    assert data.degree == 4


def test_hilbert_artinian_and_unit():
    data = hilbert_data(J(2, "x0", "x1"), 3)
    assert data.hf.dims == (1, 0, 0, 0)
    assert data.dimension == 0 and data.degree == 1
    unit = hilbert_data(J(2, "1"), 3)
    assert unit.hf.dims == (0, 0, 0, 0)
    assert unit.degree == 0


def test_hilbert_zero_ideal_is_free():
    data = hilbert_data(MonomialIdeal(ring(3), []), 4)
    assert data.hf.dims == (1, 3, 6, 10, 15)
    assert (data.dimension, data.degree) == (3, 1)


def test_hilbert_census_function():
    ideal = J(3, "x0^3", "x0^2*x1", "x0^2*x2", "x0*x1^3", "x0*x1^2*x2",
              "x0*x1*x2^3", "x0*x2^5", "x1^7")
    data = hilbert_data(ideal, 8)
    assert data.hf.dims == (1, 3, 6, 7, 7, 7, 7, 7, 7)
    assert data.dimension == 1 and data.degree == 7
    assert data.hf.stable_value == 7


# ----------------------------------------------------------------------
# Borel property


def test_borel_examples():
    assert is_borel_fixed(J(3, "x0^2", "x0*x1", "x1^3"))
    assert not is_borel_fixed(J(3, "x0*x2"))
    assert is_borel_fixed(J(4, "x0^2", "x0*x1", "x0*x2^2", "x1^4"))


def test_variable_ranking_reads_the_degree_one_monomials():
    assert variable_ranking(Lex(), 3) == variable_ranking(Revlex(), 3) == (0, 1, 2)
    assert variable_ranking(WeightOrder((1, 2, 3), Lex()), 3) == (2, 1, 0)
    assert variable_ranking(WeightOrder((2, 1, 2), Lex()), 3) == (0, 2, 1)  # lex breaks the tie
    assert variable_ranking(elimination_order(4, Revlex()), 4) == (0, 1, 2, 3)


def test_borel_fixed_for_the_ranking_of_an_order():
    # (x2^2, x1^2*x2, x1^4) is (x0^2, x0*x1^2, x1^4) with x0 and x2 swapped
    mirrored = J(3, "x2^2", "x1^2*x2", "x1^4")
    assert not is_borel_fixed(mirrored)
    assert not is_borel_fixed(mirrored, Lex())
    assert is_borel_fixed(mirrored, WeightOrder((1, 2, 3), Lex()))
    assert not is_borel_fixed(J(3, "x0^2", "x0*x1^2", "x1^4"), WeightOrder((1, 2, 3), Lex()))


@st.composite
def _monomial_ideals(draw):
    """A monomial ideal in 2-4 variables and an order ranking them: random
    generators, the closure of random generators under every move up the
    ranking (so Borel-fixed), or that closure less one minimal generator
    (often just short of Borel-fixed)."""
    nvars = draw(st.integers(2, 4))
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=nvars, max_size=nvars)))
    order = draw(st.sampled_from([Lex(), Revlex(), WeightOrder(weights, Lex())]))
    exps = st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars).map(tuple).filter(any)
    gens = set(draw(st.lists(exps, min_size=1, max_size=4)))
    kind = draw(st.sampled_from(["random", "closed", "closed less one"]))
    if kind != "random":
        ranked = variable_ranking(order, nvars)
        frontier = list(gens)
        while frontier:
            m = frontier.pop()
            for k, i in enumerate(ranked):
                for j in ranked[:k] if m[i] else ():
                    moved = tuple(e - (v == i) + (v == j) for v, e in enumerate(m))
                    if moved not in gens:
                        gens.add(moved)
                        frontier.append(moved)
    ideal = MonomialIdeal(ring(nvars), gens)
    if kind == "closed less one" and len(ideal.gens) > 1:
        drop = draw(st.sampled_from(ideal.gens))
        ideal = MonomialIdeal(ideal.ring, [g for g in ideal.gens if g != drop])
    return ideal, order


@settings(max_examples=300, deadline=None)
@given(_monomial_ideals())
def test_adjacent_moves_decide_borel_fixedness_as_every_move_does(case):
    ideal, order = case
    assert is_borel_fixed(ideal, order) == borel_fixed_oracle(ideal.gens, order,
                                                              ideal.ring.nvars)


@settings(max_examples=200, deadline=None)
@given(_monomial_ideals(), st.data())
def test_batched_membership_is_a_divisibility_scan(case, data):
    ideal, _ = case
    nvars = ideal.ring.nvars
    exps = st.lists(st.integers(0, 4), min_size=nvars, max_size=nvars).map(tuple)
    queries = data.draw(st.lists(exps, max_size=30))
    expected = [any(all(a <= b for a, b in zip(g, m)) for g in ideal.gens) for m in queries]
    chunk = data.draw(st.sampled_from([1, 5, 1 << 16]))
    with patch.object(monomial_ideals, "_MEMBERSHIP_CHUNK", chunk):
        assert ideal.membership(queries).tolist() == expected


# ----------------------------------------------------------------------
# Eliahou-Kervaire Betti numbers


def test_ek_betti_principal():
    assert ek_betti(J(2, "x0").gens) == {(0, 1): 1}


def test_ek_betti_koszul_pair():
    assert ek_betti(J(2, "x0", "x1").gens) == {(0, 1): 2, (1, 2): 1}


def test_ek_betti_square_of_maximal_ideal():
    table = ek_betti(J(2, "x0^2", "x0*x1", "x1^2").gens)
    assert table == {(0, 2): 3, (1, 3): 2}
    assert max(j - i for (i, j) in table) == 2


def test_ek_regularity_agrees_with_generator_degree():
    ideals = [
        J(3, "x0^2", "x0*x1", "x1^3"),
        J(4, "x0^2", "x0*x1", "x0*x2^2", "x1^4"),
        J(3, "x0^3", "x0^2*x1", "x0*x1^2", "x1^4"),
    ]
    for ideal in ideals:
        assert is_borel_fixed(ideal)
        table = ek_betti(ideal.gens)
        assert max(j - i for (i, j) in table) == ideal.max_generator_degree()


def test_ek_betti_euler_characteristic_gives_hilbert_numerator():
    # the resolution's alternating sum must reproduce the series numerator:
    # N(t) = 1 - sum_i (-1)^i sum_j beta_{i,j} t^j
    from ginlab.monomial_ideals import hilbert_numerator

    ideals = [
        J(2, "x0^2", "x0*x1", "x1^2"),
        J(3, "x0^2", "x0*x1", "x1^3"),
        J(4, "x0^2", "x0*x1", "x0*x2^2", "x1^4"),
        J(3, "x0^3", "x0^2*x1", "x0^2*x2", "x0*x1^3", "x0*x1^2*x2",
          "x0*x1*x2^3", "x0*x2^5", "x1^7"),
        J(3, "x0^3", "x0^2*x1", "x0*x1^2", "x1^4"),
    ]
    for ideal in ideals:
        assert is_borel_fixed(ideal)
        table = ek_betti(ideal.gens)
        top = max(j for (_, j) in table)
        numer = [0] * (top + 1)
        numer[0] = 1
        for (i, j), count in table.items():
            numer[j] += (-1) ** (i + 1) * count
        direct = hilbert_numerator(ideal)
        direct = list(direct) + [0] * (len(numer) - len(direct))
        assert numer == direct[: len(numer)]
        assert all(c == 0 for c in direct[len(numer):])
