"""Truncated Sylvester matrices, minors, unit reduction, and the regularity
formulas."""

import random

import pytest

from ginlab.fields import FP_DEFAULT
from ginlab.groebner import Ideal, ResourceLimitExceeded
from ginlab.orders import Revlex
from ginlab.partial_elim import partial_elim_ideals
from ginlab.poly import Polynomial, parse_polynomial
from ginlab.rings import RingContext
from ginlab.sylvester import (
    PolyMatrix,
    build_sylp,
    codimension,
    en_regularity,
    kp_regularity_formula,
    maximal_minors,
    sample_monic_pair,
    unit_reduce,
)


def ring(n=4):
    return RingContext(n, FP_DEFAULT)


def monic_pair(a, b, seed=0):
    return sample_monic_pair(ring(), a, b, random.Random(seed))


# ----------------------------------------------------------------------
# construction


def test_sylvester_1_1_gives_resultant():
    R = ring()
    f = parse_polynomial("x0 + x1", R)
    g = parse_polynomial("x0 + x2", R)
    syl = build_sylp(f, g, 0)
    assert syl.shape == (2, 2)
    minors = maximal_minors(syl)
    small = R.drop_first_variable()
    assert minors == [parse_polynomial("x2 - x1", small)] or minors == [
        parse_polynomial("x1 - x2", small)
    ]


def test_sylvester_2_2_truncated_layout():
    f, g = monic_pair(2, 2, seed=3)
    syl = build_sylp(f, g, 1)
    assert syl.shape == (3, 4)
    small = syl.ring
    one = Polynomial.constant(small, 1)
    zero = Polynomial.zero(small)
    # [[1, 0, 1, 0], [f1, 1, g1, 1], [f2, f1, g2, g1]]
    assert syl.entries[0] == [one, zero, one, zero]
    assert syl.entries[1][1] == one and syl.entries[1][3] == one
    assert syl.entries[2][1] == syl.entries[1][0]  # f1 shifted down
    assert syl.entries[2][3] == syl.entries[1][2]  # g1 shifted down
    for j, e in enumerate(syl.entries[2]):
        assert e.homogeneous_degree() in (1, 2)


def test_full_sylvester_det_is_resultant_generating_k0():
    f, g = monic_pair(2, 3, seed=5)
    syl = build_sylp(f, g, 0)
    assert syl.shape == (5, 5)
    minors = maximal_minors(syl)
    assert len(minors) == 1
    res = minors[0]
    assert res.homogeneous_degree() == 6
    tower = partial_elim_ideals(Ideal([f, g]), 0, Revlex())
    assert Ideal([res]).equals(tower.levels[0], Revlex())


def test_build_rejects_bad_input():
    R = ring()
    f = parse_polynomial("x1^2 + x0^2", R)
    g = parse_polynomial("2*x0^2 + x1^2", R)
    good, good_b = monic_pair(2, 2)
    with pytest.raises(ValueError):
        build_sylp(g, good_b, 0)  # not monic
    with pytest.raises(ValueError):
        build_sylp(good, good_b, 2)  # p >= a
    with pytest.raises(ValueError):
        build_sylp(parse_polynomial("x0^2 + x1", R), good_b, 0)  # inhomogeneous


def test_degree_order_enforced():
    f, g = monic_pair(2, 3, seed=7)
    with pytest.raises(ValueError):
        build_sylp(g, f, 1)  # deg_x0 f must be <= deg_x0 g


# ----------------------------------------------------------------------
# minors


def test_identity_block_gives_unit_ideal():
    small = ring().drop_first_variable()
    one = Polynomial.constant(small, 1)
    zero = Polynomial.zero(small)
    M = PolyMatrix(small, [[one, zero, zero], [zero, one, zero]])
    ideal = Ideal(maximal_minors(M))
    assert any(m.homogeneous_degree() == 0 for m in ideal.generators)


def test_minors_resource_guard():
    small = ring().drop_first_variable()
    one = Polynomial.constant(small, 1)
    M = PolyMatrix(small, [[one] * 13])
    with pytest.raises(ResourceLimitExceeded):
        maximal_minors(M)


def test_syl1_minors_equal_k1_generic_ci22():
    f, g = monic_pair(2, 2, seed=11)
    minors_ideal = Ideal(maximal_minors(build_sylp(f, g, 1)))
    tower = partial_elim_ideals(Ideal([f, g]), 1, Revlex())
    assert minors_ideal.equals(tower.levels[1], Revlex())
    assert codimension(minors_ideal) == 2


def test_syl2_minors_codimension_3_for_ci33():
    f, g = monic_pair(3, 3, seed=13)
    minors_ideal = Ideal(maximal_minors(build_sylp(f, g, 2)))
    assert codimension(minors_ideal) == 3


def test_minors_always_contained_in_kp():
    for (a, b, p, seed) in [(2, 2, 1, 1), (2, 3, 1, 2), (3, 3, 2, 3)]:
        f, g = monic_pair(a, b, seed=seed)
        minors = maximal_minors(build_sylp(f, g, p))
        tower = partial_elim_ideals(Ideal([f, g]), p, Revlex())
        kp = tower.levels[p]
        assert all(kp.contains(m, Revlex()) for m in minors)


# ----------------------------------------------------------------------
# unit reduction


def test_unit_reduce_syl1_ci22_shape_and_ideal():
    f, g = monic_pair(2, 2, seed=17)
    syl = build_sylp(f, g, 1)
    reduced = unit_reduce(syl)
    assert reduced.shape == (1, 2)
    degs = sorted(e.homogeneous_degree() for e in reduced.entries[0])
    assert degs == [1, 2]
    assert reduced.row_degrees is not None
    assert Ideal(maximal_minors(syl)).equals(Ideal(maximal_minors(reduced)), Revlex())


def test_unit_reduce_without_units_is_identity():
    small = ring().drop_first_variable()
    f = parse_polynomial("x1^2", small)
    g = parse_polynomial("x2*x3", small)
    M = PolyMatrix(small, [[f, g]])
    reduced = unit_reduce(M)
    assert reduced.entries == [[f, g]]


@pytest.mark.parametrize("a,b,p", [(2, 2, 1), (2, 3, 1), (3, 3, 1), (3, 3, 2)])
def test_unit_reduce_shape_and_entry_degrees(a, b, p):
    f, g = monic_pair(a, b, seed=19)
    reduced = unit_reduce(build_sylp(f, g, p))
    assert reduced.shape == (a - p, a)
    for i, row in enumerate(reduced.entries):
        for j, e in enumerate(row):
            if not e.is_zero:
                assert e.homogeneous_degree() == b + (i + 1) - (j + 1)
    reduced.validate_ledger()


def test_unit_reduce_preserves_minors_ideal_per_instance():
    for (a, b, p, seed) in [(2, 2, 1, 23), (2, 3, 1, 29), (3, 3, 2, 31)]:
        f, g = monic_pair(a, b, seed=seed)
        syl = build_sylp(f, g, p)
        assert Ideal(maximal_minors(syl)).equals(
            Ideal(maximal_minors(unit_reduce(syl))), Revlex()
        )


# ----------------------------------------------------------------------
# formulas


def test_en_regularity_values():
    assert en_regularity((1,), (1, 0)) == 2
    assert en_regularity((1, 2), (2, 1, 0)) == 7
    assert en_regularity((2, 1), (3, 2)) == 8  # square: sum of all degrees
    with pytest.raises(ValueError):
        en_regularity((1, 2, 3), (1, 0))


def test_kp_regularity_formula_values():
    assert kp_regularity_formula(2, 2, 1) == 2
    assert kp_regularity_formula(3, 3, 1) == 7
    assert kp_regularity_formula(3, 3, 2) == 4
    with pytest.raises(ValueError):
        kp_regularity_formula(2, 2, 0)
    with pytest.raises(ValueError):
        kp_regularity_formula(3, 2, 1)


def test_en_regularity_matches_ledger_of_reduced_sylvester():
    for (a, b, p) in [(2, 2, 1), (2, 3, 1), (3, 3, 1), (3, 3, 2)]:
        f, g = monic_pair(a, b, seed=37)
        reduced = unit_reduce(build_sylp(f, g, p))
        assert en_regularity(reduced.row_degrees, reduced.col_degrees) == (
            kp_regularity_formula(a, b, p)
        )


def test_codimension_of_coordinate_subspace():
    small = ring().drop_first_variable()
    I = Ideal([parse_polynomial("x1", small), parse_polynomial("x2", small)])
    assert codimension(I) == 2
