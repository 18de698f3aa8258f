"""Point sets, evaluation matrices and vanishing ideals (including both
boundary fixtures)."""

import pytest

from oracles import SEVEN_POINTS_SHARED_FACTOR, TEN_POINTS_LATTICE_SIMPLEX, evaluate, explicit_points

from ginlab import linalg
from ginlab.fields import FP_DEFAULT, QQ
from ginlab.gin import gin
from ginlab.orders import Lex, Revlex
from ginlab.points import (
    DegeneratePointsError,
    PointSet,
    evaluation_matrix,
    random_points,
    vanishing_ideal,
)


def test_random_points_distinct_and_deterministic():
    a = random_points(5, 2, 42, FP_DEFAULT)
    b = random_points(5, 2, 42, FP_DEFAULT)
    assert a.points == b.points
    assert len(set(a.points)) == 5
    assert random_points(5, 2, 43, FP_DEFAULT).points != a.points


def test_point_set_rejects_degenerate_input():
    with pytest.raises(ValueError):
        PointSet(FP_DEFAULT, ((0, 0, 0),))
    with pytest.raises(ValueError):
        explicit_points(FP_DEFAULT, [(1, 2, 1), (2, 4, 2)])  # projectively equal


def test_fixtures_load():
    seven = explicit_points(FP_DEFAULT, SEVEN_POINTS_SHARED_FACTOR)
    ten = explicit_points(FP_DEFAULT, TEN_POINTS_LATTICE_SIMPLEX)
    assert seven.size == 7 and seven.r == 3
    assert ten.size == 10 and ten.r == 3


def test_evaluation_matrix_on_coordinate_points():
    pts = explicit_points(FP_DEFAULT, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    rows = evaluation_matrix(pts, 1)
    # columns are x0, x1, x2 (descending lex): a permutation-like 0/1 matrix
    assert rows == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_evaluation_matrix_scales_with_degree():
    field = FP_DEFAULT
    pts = explicit_points(field, [(2, 3, 1)])
    scaled = explicit_points(field, [(4, 6, 2)])
    d = 3
    row = evaluation_matrix(pts, d)[0]
    row_scaled = evaluation_matrix(scaled, d)[0]
    factor = pow(2, d, field.p)
    assert [field.mul(factor, c) for c in row] == row_scaled


def test_evaluation_matrix_rank_is_generic():
    for (s, r) in [(4, 2), (7, 3), (10, 2)]:
        pts = random_points(s, r, 31, FP_DEFAULT)
        ring = pts.ring()
        for d in range(1, s + 1):
            expect = min(s, ring.monomial_count(d))
            _, pivots = linalg.rref(FP_DEFAULT, evaluation_matrix(pts, d))
            assert len(pivots) == expect


def test_vanishing_ideal_hilbert_function():
    pts = random_points(3, 2, 7, FP_DEFAULT)
    I = vanishing_ideal(pts)
    assert I.hilbert_function(Revlex(), bound=4).dims == (1, 3, 3, 3, 3)


def test_vanishing_ideal_generators_vanish():
    pts = random_points(6, 3, 11, FP_DEFAULT)
    I = vanishing_ideal(pts)
    for g in I.generators:
        for pt in pts.points:
            assert evaluate(g, pt) == FP_DEFAULT.zero


def test_vanishing_ideal_detects_coincident_points():
    # PointSet rejects a point repeated up to scaling, so build one past its
    # check: two distinct points of three never reach h = 3, and the
    # Hilbert function re-check fails loudly
    pts = object.__new__(PointSet)
    object.__setattr__(pts, "field", FP_DEFAULT)
    object.__setattr__(pts, "points", ((1, 0, 0), (2, 0, 0), (0, 1, 0)))
    with pytest.raises(DegeneratePointsError):
        vanishing_ideal(pts)


CUTOFF_CASES = {
    "fp-P2": lambda: random_points(9, 2, 41, FP_DEFAULT),
    "fp-P3": lambda: random_points(12, 3, 42, FP_DEFAULT),
    "fp-P4": lambda: random_points(8, 4, 43, FP_DEFAULT),
    "qq-P2": lambda: random_points(6, 2, 44, QQ),
    "seven-point-fixture": lambda: explicit_points(FP_DEFAULT, SEVEN_POINTS_SHARED_FACTOR),
    "ten-point-fixture": lambda: explicit_points(FP_DEFAULT, TEN_POINTS_LATTICE_SIMPLEX),
    "one-point": lambda: explicit_points(FP_DEFAULT, [(3, 5, 1)]),
    # s points on the line x2 = 0: h = 1, 2, ..., s, so reg = s and the
    # cut-off falls at the old bound
    "collinear": lambda: explicit_points(FP_DEFAULT, [(i, 1, 0) for i in range(6)]),
}


@pytest.mark.parametrize("case", sorted(CUTOFF_CASES))
def test_vanishing_ideal_cutoff_matches_evaluation_ranks(case):
    pts = CUTOFF_CASES[case]()
    s = pts.size
    I = vanishing_ideal(pts)
    ranks = tuple(
        len(linalg.rref(pts.field, evaluation_matrix(pts, d))[1]) for d in range(s + 2)
    )
    assert I.hilbert_function(Revlex(), bound=s + 1).dims == ranks
    for g in I.generators:
        for pt in pts.points:
            assert evaluate(g, pt) == pts.field.zero
    capped = vanishing_ideal(pts, degree_cap=s + 3)
    assert capped.degree_cap == s + 3
    assert capped.generators == I.generators


def test_vanishing_ideal_of_collinear_points_needs_degree_s():
    s = 6
    I = vanishing_ideal(explicit_points(FP_DEFAULT, [(i, 1, 0) for i in range(s)]))
    assert sorted(g.homogeneous_degree() for g in I.generators) == [1, s]


def test_seven_point_fixture_quadrics_share_a_factor():
    pts = explicit_points(FP_DEFAULT, SEVEN_POINTS_SHARED_FACTOR)
    I = vanishing_ideal(pts)
    hf = I.hilbert_function(Revlex(), bound=4)
    assert hf.dims == (1, 4, 7, 7, 7)  # generic Hilbert function
    quadrics = [g for g in I.generators if g.homogeneous_degree() == 2]
    assert len(quadrics) == 3
    for order in (Lex(), Revlex()):
        result = gin(I, order, trials=2, seed=3)
        ring = I.ring
        deg2 = [ring.monomial_str(m) for m in result.gin.monomials_of_degree(2)]
        assert deg2 == ["x0^2", "x0*x1", "x0*x2"]


def test_seven_point_fixture_revlex_gin_differs_from_segment():
    # the revlex segment of dimension 3 in degree 2 is {x0^2, x0*x1, x1^2}
    pts = explicit_points(FP_DEFAULT, SEVEN_POINTS_SHARED_FACTOR)
    I = vanishing_ideal(pts)
    result = gin(I, Revlex(), trials=2, seed=5)
    from ginlab.segments import segment_space

    seg = set(segment_space(2, 3, Revlex(), I.ring).monomials)
    assert set(result.gin.monomials_of_degree(2)) != seg


def test_ten_point_fixture_gin_contains_second_variable_cubed():
    # generic Hilbert function, yet the gin is not the segment ideal: every
    # generic projection lies on a cubic, whose leading coefficient puts the
    # cube of the second variable into the lex gin
    pts = explicit_points(FP_DEFAULT, TEN_POINTS_LATTICE_SIMPLEX)
    I = vanishing_ideal(pts)
    assert I.hilbert_function(Revlex(), bound=4).dims == (1, 4, 10, 10, 10)
    result = gin(I, Lex(), trials=2, seed=3)
    x1_cubed = (0, 3, 0, 0)
    assert x1_cubed in result.gin.gens
    # the lex segment in degree 3 consists of the ten x0-multiples only
    from ginlab.segments import segment_space

    seg3 = set(segment_space(3, 10, Lex(), I.ring).monomials)
    assert all(m[0] > 0 for m in seg3)
    assert x1_cubed not in seg3
    assert set(result.gin.monomials_of_degree(3)) != seg3
