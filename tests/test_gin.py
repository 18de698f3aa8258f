"""Random coordinate changes and the gin agreement protocol."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from oracles import greatest_monomials, homogeneous_generators, macaulay_dimension

from ginlab import linalg
from ginlab.experiments import experiment_points
from ginlab.fields import FP_DEFAULT, QQ, PrimeField
from ginlab.gin import (
    CharacteristicTooSmall,
    _one_trial,
    _tower_lex_initial_ideal,
    apply_change,
    gin,
    random_coordinate_change,
)
from ginlab.groebner import Ideal, buchberger
from ginlab.monomial_ideals import MonomialIdeal, is_borel_fixed
from ginlab.orders import Lex, Revlex, elimination_order
from ginlab.partial_elim import partial_elim_ideals
from ginlab.points import random_points, vanishing_ideal
from ginlab.poly import parse_polynomial, random_form
from ginlab.rings import RingContext
from ginlab.segments import segment_ideal_of
from ginlab.sylvester import sample_monic_pair


def ring(n=4, field=FP_DEFAULT):
    return RingContext(n, field)


def test_same_seed_same_matrix():
    R = ring()
    assert random_coordinate_change(R, 5) == random_coordinate_change(R, 5)


def test_neighboring_seeds_differ():
    R = ring()
    assert random_coordinate_change(R, 5) != random_coordinate_change(R, 6)


def test_determinant_nonzero_for_many_seeds():
    R = ring(3)
    for seed in range(1000):
        m = random_coordinate_change(R, seed)
        assert linalg.det(R.field, [list(r) for r in m]) != 0


def test_rational_coordinate_change_bounded_entries():
    R = ring(3, QQ)
    m = random_coordinate_change(R, 4)
    assert all(abs(c) <= 10**6 for row in m for c in row)


def test_identity_change_keeps_generators():
    R = ring(3)
    I = Ideal([parse_polynomial("x0^2 - x1*x2", R)])
    identity = tuple(
        tuple(R.field.one if i == j else R.field.zero for j in range(3)) for i in range(3)
    )
    assert apply_change(I, identity).generators == I.generators


def test_change_then_inverse_restores_ideal():
    R = ring(3)
    rng = random.Random(2)
    I = Ideal([random_form(R, 2, rng), random_form(R, 2, rng)])
    M = random_coordinate_change(R, 12)
    identity = [[R.field.one if i == j else R.field.zero for j in range(3)] for i in range(3)]
    red, _ = linalg.rref(R.field, [list(row) + e for row, e in zip(M, identity)])
    back = apply_change(apply_change(I, M), [row[3:] for row in red])
    assert I.equals(back, Revlex())


def test_wrong_shape_rejected():
    R = ring(2)
    I = Ideal([parse_polynomial("x0^2", R)])
    for bad in ([[1, 0]], [[1, 0], [0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]):
        with pytest.raises(ValueError):
            apply_change(I, bad)


def test_singular_matrix_rejected():
    R = ring(2)
    I = Ideal([parse_polynomial("x0^2", R)])
    singular = ((R.field.one, R.field.one), (R.field.one, R.field.one))
    with pytest.raises(ValueError):
        apply_change(I, singular)


def test_linear_images_and_gin_trials_keep_the_degree_cap():
    R = ring(3)
    rng = random.Random(4)
    I = Ideal([random_form(R, 2, rng), random_form(R, 3, rng)], degree_cap=12)
    assert apply_change(I, random_coordinate_change(R, 7)).degree_cap == 12
    result = gin(I, Lex(), trials=2, seed=1)
    assert result.trial_ideals
    assert all(J.degree_cap == 12 for J in result.trial_ideals)


def test_each_trial_checks_its_matrix_once(monkeypatch):
    # the draw already redraws until det != 0, so a trial applies its matrix
    # without the public apply_change re-checking it
    calls = []
    det = linalg.det

    def counting_det(field, rows):
        calls.append(rows)
        return det(field, rows)

    monkeypatch.setattr(linalg, "det", counting_det)
    f, g = sample_monic_pair(ring(), 2, 2, random.Random(3))
    result = gin(Ideal([f, g]), Lex(), trials=2)
    assert result.trials_used == 2
    assert len(calls) == 2


def test_gin_of_three_generic_points():
    from ginlab.points import random_points, vanishing_ideal

    I = vanishing_ideal(random_points(3, 2, 5, FP_DEFAULT))
    result = gin(I, Lex(), trials=2, seed=1)
    assert result.gin == MonomialIdeal.from_strings(
        I.ring, ["x0^2", "x0*x1", "x0*x2", "x1^3"]
    )
    assert result.agreed and is_borel_fixed(result.gin)
    assert result.regularity == 3


def test_gin_ci22_lex():
    R = ring(4)
    rng = random.Random(8)
    f, g = sample_monic_pair(R, 2, 2, rng)
    result = gin(Ideal([f, g]), Lex(), trials=2, seed=2)
    assert result.gin == MonomialIdeal.from_strings(
        R, ["x0^2", "x0*x1", "x0*x2^2", "x1^4"]
    )
    assert result.regularity == 4


def test_gin_of_borel_monomial_ideal_is_itself():
    R = ring(3)
    gens = ["x0^2", "x0*x1", "x1^3"]
    I = Ideal([parse_polynomial(t, R) for t in gens])
    result = gin(I, Lex(), trials=2, seed=4)
    assert result.gin == MonomialIdeal.from_strings(R, gens)


def test_gin_outputs_are_borel_fixed():
    rng = random.Random(77)
    for nvars, deg in [(3, 2), (4, 2), (3, 3)]:
        R = ring(nvars)
        I = Ideal([random_form(R, deg, rng), random_form(R, deg, rng)])
        result = gin(I, Revlex(), trials=2, seed=rng.randint(0, 10**6))
        assert is_borel_fixed(result.gin)


def test_gin_preserves_hilbert_function():
    R = ring(4)
    rng = random.Random(6)
    f, g = sample_monic_pair(R, 2, 2, rng)
    I = Ideal([f, g])
    result = gin(I, Lex(), trials=2, seed=3)
    from ginlab.monomial_ideals import hilbert_data

    assert hilbert_data(result.gin, 5).hf.dims == I.hilbert_function(Revlex(), 5).dims


def test_gin_requires_two_trials():
    R = ring(2)
    I = Ideal([parse_polynomial("x0^2", R)])
    with pytest.raises(ValueError):
        gin(I, Lex(), trials=1, seed=0)


def test_gin_keeps_transformed_ideal_with_cache():
    R = ring(4)
    rng = random.Random(10)
    f, g = sample_monic_pair(R, 2, 2, rng)
    result = gin(Ideal([f, g]), Lex(), trials=2, seed=9)
    moved = result.trial_ideals[0]
    assert moved.gb_cache  # the expensive basis is reusable
    assert moved.initial_ideal(Lex()) == result.gin


@settings(max_examples=25, deadline=None)
@given(
    homogeneous_generators([FP_DEFAULT], max_vars=4, max_degree=2),
    st.sampled_from([Lex(), Revlex()]),
    st.integers(0, 10**6),
)
def test_gin_keeps_the_hilbert_function(gens, order, seed):
    I = Ideal(gens)
    result = gin(I, order, trials=2, seed=seed)
    for d in range(6):
        assert len(result.gin.monomials_of_degree(d)) == macaulay_dimension(I, d, Revlex())


def test_gin_in_too_small_characteristic_raises():
    # over F_2 every change maps span(x0^2, x1^2) to itself (Frobenius), so the
    # gin is (x0^2, x1^2): 2-Borel but not Borel-fixed, and p = 2 <= degree 2
    R = ring(2, PrimeField(2))
    I = Ideal([parse_polynomial("x0^2", R), parse_polynomial("x1^2", R)])
    with pytest.raises(CharacteristicTooSmall, match="p = 2 does not exceed .* degree 2"):
        gin(I, Revlex(), trials=2, seed=0)


# ----------------------------------------------------------------------
# a ceiling in place of a second trial: a trial that reaches an upper bound
# of every initial ideal is the gin


def _points_and_segment(s, r, order, seed=3):
    I = vanishing_ideal(random_points(s, r, seed, FP_DEFAULT))
    hf = I.hilbert_function(Revlex(), bound=s + 2)
    seg = segment_ideal_of(hf, order, I.ring, bound=s + 2)
    assert seg.is_ideal
    return I, seg.monomial_ideal()


@pytest.mark.parametrize("order", [Lex(), Revlex()], ids=str)
def test_a_trial_that_reaches_the_ceiling_is_the_certified_gin(order):
    I, ceiling = _points_and_segment(9, 2, order)
    result = gin(I, order, trials=2, seed=1, ceiling=ceiling)
    assert (result.trials_used, result.agreed, result.certified) == (1, True, True)
    assert result.gin == ceiling
    assert len(result.trial_ideals) == 1
    assert gin(I, order, trials=2, seed=1).gin == result.gin


def test_a_ceiling_no_trial_reaches_falls_back_to_agreement():
    # (x0) is no initial ideal of nine points, so no trial reaches it: the
    # protocol runs both trials and certifies nothing
    I, _ = _points_and_segment(9, 2, Lex())
    unreachable = MonomialIdeal.from_strings(I.ring, ["x0"])
    result = gin(I, Lex(), trials=2, seed=1, ceiling=unreachable)
    assert (result.trials_used, result.agreed, result.certified) == (2, True, False)
    plain = gin(I, Lex(), trials=2, seed=1)
    assert result.gin == plain.gin and not plain.certified


def test_points_run_one_trial_per_order(monkeypatch):
    gin_module = sys.modules["ginlab.gin"]  # the package re-exports the function as ``gin``
    orders = []
    trial = gin_module._one_trial

    def counting(I, order, trial_seed):
        orders.append(str(order))
        return trial(I, order, trial_seed)

    monkeypatch.setattr(gin_module, "_one_trial", counting)
    report = experiment_points(20, 3, seed=1)
    assert report.passed
    assert orders == ["lex", "revlex"]


@settings(max_examples=25, deadline=None)
@given(
    homogeneous_generators([FP_DEFAULT], max_vars=4, max_degree=2),
    st.sampled_from([Lex(), Revlex()]),
    st.integers(0, 10**6),
)
def test_no_trial_passes_the_segment(gens, order, seed):
    # in each degree the segment, the dim I_d greatest monomials, leads every
    # space of that dimension in the Pluecker comparison, which compares the
    # spaces' monomials sorted greatest first, lexicographically
    I = Ideal(gens)
    J, _ = _one_trial(I, order, seed)
    for d in range(6):
        u = macaulay_dimension(I, d, Revlex())
        trial = J.monomials_of_degree(d)
        assert len(trial) == u
        segment = greatest_monomials(order, I.ring.nvars, d, u)
        assert sorted(map(order.sort_key, segment)) <= sorted(map(order.sort_key, trial))


# ----------------------------------------------------------------------
# lex trials read in_lex off the partial elimination tower; the oracle is a
# direct lex run on the same moved ideal, and the two must be equal exactly


def _direct_lex_initial_ideal(I):
    basis = buchberger(I.generators, Lex(), I.degree_cap)
    return MonomialIdeal(I.ring, [g.leading_monomial(Lex()) for g in basis])


def _assert_tower_trial_is_direct_lex(I, seed):
    J, moved = _one_trial(I, Lex(), seed)
    # the trial took the tower route: no lex basis of the moved ideal exists
    assert Lex() not in moved.gb_cache
    assert elimination_order(I.ring.nvars, Revlex()) in moved.gb_cache
    assert J == _direct_lex_initial_ideal(moved)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(  # degree 3 in 5 variables can make the direct lex oracle take seconds
        homogeneous_generators([FP_DEFAULT], min_vars=4, max_vars=4, max_degree=3),
        homogeneous_generators([FP_DEFAULT], min_vars=5, max_vars=5, max_degree=2),
    ),
    st.integers(0, 10**6),
)
def test_tower_trial_equals_direct_lex_on_random_ideals(gens, seed):
    _assert_tower_trial_is_direct_lex(Ideal(gens), seed)


def _fixture_ideal(name):
    if name.startswith("points"):
        s, r = (int(x) for x in name.split("-")[1:])
        return vanishing_ideal(random_points(s, r, 3, FP_DEFAULT))
    if name == "curve-2-3-qq":
        f, g = sample_monic_pair(ring(4, QQ), 2, 3, random.Random(1))
        return Ideal([f, g])
    texts = {
        "nonsmooth": ["x0^3 - x1*x2^2", "x1^3 - x2^2*x3"],
        "monomial-binomial": ["x0*x1", "x0*x2^2 - x1*x3^2", "x2^3 - x0*x3^2", "x1^2*x3"],
    }[name]
    R = ring(4)
    return Ideal([parse_polynomial(t, R) for t in texts])


@pytest.mark.parametrize("name", [
    "nonsmooth", "monomial-binomial", "points-12-3", "points-20-3", "points-9-4",
    "curve-2-3-qq",
])
def test_tower_trial_equals_direct_lex_on_fixtures(name):
    _assert_tower_trial_is_direct_lex(_fixture_ideal(name), seed=1)


def test_tower_stops_at_the_largest_x0_degree_when_the_top_level_is_proper():
    # the twisted cubic passes through [1:0:0:0], so no power of x0 lies in
    # the ideal and the top level K_pmax is a proper ideal: the sum runs to
    # pmax and not to a first unit level.  Unmoved coordinates, so this is
    # the identity itself, not genericity.
    R = ring(4)
    I = Ideal([parse_polynomial(t, R) for t in ("x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")])
    basis = I.groebner_basis(elimination_order(4, Revlex()))
    p_max = max(m[0] for g in basis for m in g.terms)
    top = partial_elim_ideals(I, p_max, Revlex()).levels[-1]
    assert p_max >= 1 and top.hilbert_data(Revlex(), bound=2).dimension > 0
    direct = _direct_lex_initial_ideal(I)
    assert not any(g[0] == sum(g) for g in direct.gens)  # no pure power of x0
    assert _tower_lex_initial_ideal(I) == direct
