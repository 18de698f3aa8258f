"""Partial elimination towers, the definition-level oracle, and projection
point counts."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import homogeneous_generators, pei_oracle

from ginlab import groebner
from ginlab.fields import FP_DEFAULT, QQ, PrimeField
from ginlab.gin import apply_change, gin, random_coordinate_change
from ginlab.groebner import Ideal
from ginlab.monomial_ideals import is_borel_fixed
from ginlab.orders import Lex, Revlex, elimination_order
from ginlab.partial_elim import (
    PointCountError,
    _eliminated_count,
    _squarefree_degree_binary,
    count_distinct_points,
    monomial_partial_elim,
    partial_elim_ideals,
    tower_decomposition,
    x0_profile,
)
from ginlab.points import PointSet, vanishing_ideal
from ginlab.poly import Polynomial, parse_polynomial, random_form
from ginlab.rings import RingContext
from ginlab.sylvester import sample_monic_pair


def ring(n=4, field=FP_DEFAULT):
    return RingContext(n, field)


def polys(R, *texts):
    return [parse_polynomial(t, R) for t in texts]


# ----------------------------------------------------------------------
# x0 profiles


def test_x0_profile_read_off():
    R = ring(4)
    prof = x0_profile(parse_polynomial("x0^2*x1 + x0*x2^2 + x3^3", R))
    small = R.drop_first_variable()
    assert prof.x0_degree == 2
    assert prof.initial_coefficient == parse_polynomial("x0", small)  # x1 in the small ring


def test_x0_profile_without_x0():
    R = ring(4)
    prof = x0_profile(parse_polynomial("x1^3", R))
    assert prof.x0_degree == 0
    assert prof.initial_coefficient == parse_polynomial("x0^3", R.drop_first_variable())


def test_x0_profile_pure_power():
    R = ring(4)
    prof = x0_profile(parse_polynomial("x0^3", R))
    assert prof.x0_degree == 3
    assert prof.initial_coefficient == Polynomial.constant(R.drop_first_variable(), 1)
    with pytest.raises(ValueError):
        x0_profile(Polynomial.zero(R))


# ----------------------------------------------------------------------
# towers


def test_tower_of_simple_monomial_ideal():
    R = ring(3)
    I = Ideal(polys(R, "x0^2", "x0*x1"))
    tower = partial_elim_ideals(I, 2, Revlex())
    small = R.drop_first_variable()
    assert tower.levels[0].is_zero
    assert list(tower.levels[1].groebner_basis(Revlex())) == [
        parse_polynomial("x0", small)  # x1 of the big ring
    ]
    assert list(tower.levels[2].groebner_basis(Revlex())) == [
        Polynomial.constant(small, 1)
    ]


def test_tower_levels_certified_without_buchberger():
    R = ring(4)
    rng = random.Random(3)
    f, g = sample_monic_pair(R, 2, 2, rng)
    tower = partial_elim_ideals(Ideal([f, g]), 2, Revlex())
    for level in tower.levels:
        assert Revlex() in level.gb_cache


def test_tower_levels_keep_the_degree_cap():
    R = ring(4)
    f, g = sample_monic_pair(R, 2, 2, random.Random(3))
    tower = partial_elim_ideals(Ideal([f, g], degree_cap=15), 2, Revlex())
    assert [level.degree_cap for level in tower.levels] == [15, 15, 15]


def test_tower_of_a_gin_trial_runs_under_the_cap_of_the_source_ideal():
    # the revlex gin stays within degree 5, but the lex elimination basis of
    # a trial ideal needs degree 19: the trial keeps the cap set on I
    f, g = sample_monic_pair(ring(4), 3, 3, random.Random(1))
    result = gin(Ideal([f, g], degree_cap=10), Revlex(), trials=2, seed=1)
    with pytest.raises(groebner.DegreeCapExceeded) as exc:
        partial_elim_ideals(result.trial_ideals[0], 2, Lex())
    assert (exc.value.degree, exc.value.cap) == (11, 10)


def test_tower_ascending_chain():
    R = ring(4)
    rng = random.Random(5)
    f, g = sample_monic_pair(R, 2, 3, rng)
    moved = apply_change(Ideal([f, g]), random_coordinate_change(R, 15))
    tower = partial_elim_ideals(moved, 2, Revlex())
    for low, high in zip(tower.levels, tower.levels[1:]):
        for h in low.generators:
            assert high.contains(h, Revlex())


def test_tower_decomposition_identity():
    R = ring(4)
    rng = random.Random(7)
    f, g = sample_monic_pair(R, 2, 2, rng)
    moved = apply_change(Ideal([f, g]), random_coordinate_change(R, 16))
    tower = partial_elim_ideals(moved, 2, Lex())
    assert tower_decomposition(tower) == moved.initial_ideal(Lex())


def test_tower_commutes_with_initial_ideal():
    R = ring(4)
    rng = random.Random(9)
    f, g = sample_monic_pair(R, 2, 2, rng)
    moved = apply_change(Ideal([f, g]), random_coordinate_change(R, 17))
    tower = partial_elim_ideals(moved, 2, Lex())
    big_initial = moved.initial_ideal(Lex())
    for p, level in enumerate(tower.levels):
        assert monomial_partial_elim(big_initial, p) == level.initial_ideal(Lex())


def test_tower_levels_borel_in_generic_coordinates():
    R = ring(4)
    rng = random.Random(11)
    f, g = sample_monic_pair(R, 2, 2, rng)
    moved = apply_change(Ideal([f, g]), random_coordinate_change(R, 18))
    tower = partial_elim_ideals(moved, 2, Lex())
    for level in tower.levels:
        assert is_borel_fixed(level.initial_ideal(Lex()))


def test_k0_of_generic_ci_is_principal_of_degree_ab():
    R = ring(4)
    rng = random.Random(13)
    f, g = sample_monic_pair(R, 2, 2, rng)
    tower = partial_elim_ideals(Ideal([f, g]), 0, Revlex())
    basis = tower.levels[0].groebner_basis(Revlex())
    assert len(basis) == 1
    assert basis[0].homogeneous_degree() == 4


# ----------------------------------------------------------------------
# the definition-level oracle


def dims_from_initial(level, inner, d):
    return len(level.initial_ideal(inner).monomials_of_degree(d))


def test_oracle_matches_tower_on_monomial_example():
    R = ring(3)
    I = Ideal(polys(R, "x0^2", "x0*x1"))
    tower = partial_elim_ideals(I, 1, Revlex())
    pieces = pei_oracle(I, 1, 5, Revlex())
    for d in range(6):
        assert len(pieces[d]) == dims_from_initial(tower.levels[1], Revlex(), d)
        for f in pieces[d]:
            assert tower.levels[1].contains(f, Revlex())


def test_oracle_matches_tower_on_generic_ci():
    R = ring(4)
    rng = random.Random(19)
    f, g = sample_monic_pair(R, 2, 2, rng)
    I = Ideal([f, g])
    tower = partial_elim_ideals(I, 2, Revlex())
    for p in (0, 1, 2):
        pieces = pei_oracle(I, p, 6, Revlex())
        for d in range(7):
            assert len(pieces[d]) == dims_from_initial(tower.levels[p], Revlex(), d)
            for h in pieces[d]:
                assert tower.levels[p].contains(h, Revlex())


def test_oracle_k0_equals_intersection_with_small_ring():
    R = ring(3)
    rng = random.Random(23)
    I = Ideal([random_form(R, 2, rng), random_form(R, 2, rng)])
    pieces = pei_oracle(I, 0, 5, Revlex())
    gb = I.groebner_basis(Lex())  # lex eliminates x0
    small_elements = [g for g in gb if all(m[0] == 0 for m in g.terms)]
    small = R.drop_first_variable()
    K0 = Ideal(
        [
            Polynomial(small, {m[1:]: c for m, c in g.terms.items()})
            for g in small_elements
        ],
        ring=small,
    )
    for d in range(6):
        for f in pieces[d]:
            assert K0.contains(f, Revlex()) if not K0.is_zero else f.is_zero


def test_oracle_equivalence_on_random_ideals():
    rng = random.Random(29)
    for _ in range(4):
        nvars = rng.choice((3, 4))
        R = ring(nvars)
        gens = [random_form(R, rng.randint(1, 3), rng) for _ in range(2)]
        I = Ideal(gens)
        p = rng.randint(0, 2)
        tower = partial_elim_ideals(I, p, Revlex())
        pieces = pei_oracle(I, p, 5, Revlex())
        for d in range(6):
            assert len(pieces[d]) == dims_from_initial(tower.levels[p], Revlex(), d)
            for h in pieces[d]:
                assert tower.levels[p].contains(h, Revlex())


# ----------------------------------------------------------------------
# distinct point counting


def count_ring():
    return RingContext(3, FP_DEFAULT, names=("x1", "x2", "x3"))


def test_count_two_reduced_points():
    R = count_ring()
    J = Ideal([parse_polynomial("x1^2", R), parse_polynomial("x2*x3", R)])
    assert count_distinct_points(J, seed=5) == 2


def test_count_one_fat_point():
    R = count_ring()
    J = Ideal(polys(R, "x1^2", "x1*x2", "x2^2"))
    assert count_distinct_points(J, seed=5) == 1


def test_count_rejects_wrong_dimension():
    R = count_ring()
    J = Ideal([parse_polynomial("x0", R)])  # a line, not points
    with pytest.raises(PointCountError):
        count_distinct_points(J, seed=5)
    R4 = ring(4)
    with pytest.raises(PointCountError):
        count_distinct_points(Ideal([parse_polynomial("x0^2", R4)]), seed=5)


def revlex_only(J):
    """A copy of J that caches only its reduced revlex basis, so a point
    count has no elimination basis of J's own to read."""
    copy = Ideal(J.generators, J.ring, J.degree_cap)
    copy.set_groebner_basis(Revlex(), groebner.reduce_groebner_basis(J.generators, Revlex()))
    return copy


def spy_projections(monkeypatch):
    """The seeds of every projected point count, in call order."""
    from ginlab import partial_elim

    projected = []
    project = partial_elim._projected_distinct_count

    def spy(J, seed):
        projected.append(seed)
        return project(J, seed)

    monkeypatch.setattr(partial_elim, "_projected_distinct_count", spy)
    return projected


def test_count_projects_the_reduced_revlex_basis(monkeypatch):
    # K_1 of a generic (3,3) curve: its harvest is long, its reduced revlex
    # basis short; the level is generated by the latter, and the
    # projection moves exactly those generators, once: its count reaches
    # deg K_1 = 18, so no second seed runs
    R = ring(4)
    f, g = sample_monic_pair(R, 3, 3, random.Random(1))
    moved = gin(Ideal([f, g]), Lex(), trials=2, seed=1).trial_ideals[0]
    tower = partial_elim_ideals(moved, p_max=1, inner_order=Revlex())
    k1 = revlex_only(tower.levels[1])
    basis = k1.groebner_basis(Revlex())
    harvest = [prof for prof in map(x0_profile, tower.source_basis) if prof.x0_degree <= 1]
    assert len(basis) < len(harvest)
    assert k1.generators == basis
    calls = []
    substitute = Polynomial.substitute

    def spy(self, matrix):
        calls.append(self)
        return substitute(self, matrix)

    monkeypatch.setattr(Polynomial, "substitute", spy)
    assert count_distinct_points(k1, seed=102) == 18
    assert calls == list(k1.generators)


@pytest.mark.parametrize("kind, seeds", [("curve", [102]), ("nonsmooth", [102, 103])])
def test_a_count_that_reaches_the_degree_takes_one_projection(monkeypatch, kind, seeds):
    # K_1 of a smooth (3,3) curve is 18 distinct points of degree 18, so the
    # first count is proved exact; the nonsmooth K_1 is 11 points of degree
    # 18, so a second seed must confirm its count.  Each K_1 is counted as
    # a copy without the lex basis of its gin trial, so both counts project
    from ginlab import experiments

    count = experiments.count_distinct_points
    monkeypatch.setattr(experiments, "count_distinct_points",
                        lambda J, seed: count(revlex_only(J), seed))
    projected = spy_projections(monkeypatch)
    if kind == "curve":
        report = experiments.experiment_curve(3, 3, seed=1)
    else:
        report = experiments.experiment_nonsmooth(seed=1)
    assert report.passed
    assert projected == seeds


def test_a_gin_trial_lex_basis_counts_k1_before_any_projection(monkeypatch):
    # the lex gin trial leaves a lex basis on its K_1, which is the
    # elimination basis in P^2: the smooth K_1 counts 18 = deg K_1 from it
    # and projects nothing; the nonsmooth one counts 11 of 18 there, and
    # one projection that also counts 11 confirms it
    from ginlab import experiments

    projected = spy_projections(monkeypatch)
    assert experiments.experiment_curve(3, 3, seed=1).passed
    assert projected == []
    assert experiments.experiment_nonsmooth(seed=1).passed
    assert projected == [102]


def three_points_two_on_a_line():
    """Three reduced points, two of them on the line x2 = 0 through
    [1:0:0], with their lex basis cached: projected from [1:0:0] in their
    own coordinates they show 2 points."""
    J = vanishing_ideal(PointSet(FP_DEFAULT, ((0, 1, 0), (1, 1, 0), (0, 0, 1))))
    assert _eliminated_count(J.groebner_basis(Lex())) == 2
    return J


def test_a_short_own_count_falls_back_to_a_projection(monkeypatch):
    J = three_points_two_on_a_line()
    assert J.hilbert_data(Revlex(), bound=4).degree == 3
    projected = spy_projections(monkeypatch)
    assert count_distinct_points(J, seed=5) == 3
    assert projected == [5]


def test_seeds_that_agree_below_the_own_count_fail_loudly(monkeypatch):
    # every count is a lower bound, so two seeds that agree on fewer points
    # than the ideal's own coordinates show have both missed some
    from ginlab import partial_elim

    J = three_points_two_on_a_line()
    monkeypatch.setattr(partial_elim, "_projected_distinct_count", lambda J, seed: 1)
    with pytest.raises(PointCountError, match="disagree"):
        count_distinct_points(J, seed=5)


def binary_form(R, factors):
    """The product of (text, power) factors, each a form in x1 and x2."""
    out = Polynomial.constant(R, 1)
    for text, power in factors:
        factor = parse_polynomial(text, R)
        for _ in range(power):
            out = out * factor
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(101), FP_DEFAULT], ids=repr)
def test_squarefree_degree_with_repeated_roots_and_the_root_at_infinity(field):
    R = ring(3, field)
    # a root at [1:0] is a factor x2; the shared roots are [1:0] (multiplicity
    # at least 1), [1/2:1] (at least 2) and [-1:1] (at least 1)
    f = binary_form(R, [("x2", 1), ("x1 - 1/2*x2", 2), ("x1 + x2", 1), ("2*x1 + 3*x2", 1)])
    g = binary_form(R, [("x2", 2), ("x1 - 1/2*x2", 3), ("x1 + x2", 2), ("3*x1 - 5*x2", 3)])
    assert _squarefree_degree_binary([f]) == 4
    assert _squarefree_degree_binary([g]) == 4
    assert _squarefree_degree_binary([f, g]) == 3
    assert _squarefree_degree_binary([g, f, f]) == 3
    # without the factor x2 the point [1:0] is not a root
    h = binary_form(R, [("x1 - 1/2*x2", 4), ("x1 + x2", 1)])
    assert _squarefree_degree_binary([h]) == 2
    assert _squarefree_degree_binary([h, g]) == 2
    # a lone repeated root at [1:0]
    assert _squarefree_degree_binary([binary_form(R, [("x2", 3)])]) == 1


def test_squarefree_degree_fails_loudly_once_a_root_may_have_multiplicity_p():
    # over F_7 the derivative of (x1 - 2*x2)^7 vanishes, so gcd(u, u') would
    # drop that root: the counts would read 0 and 1 instead of 1 and 2
    R = ring(3, PrimeField(7))
    for factors in ([("x1 - 2*x2", 7)], [("x1 - 2*x2", 7), ("x1 + x2", 1)]):
        with pytest.raises(PointCountError, match="root of multiplicity p = 7"):
            _squarefree_degree_binary([binary_form(R, factors)])
    # below degree p every multiplicity is less than p and the count holds
    assert _squarefree_degree_binary([binary_form(R, [("x1 - 2*x2", 6)])]) == 1
    assert _squarefree_degree_binary([binary_form(R, [("x2", 9), ("x1 + x2", 2)])]) == 2


@settings(max_examples=25, deadline=None)
@given(
    homogeneous_generators([PrimeField(101), FP_DEFAULT], max_vars=4),
    st.sampled_from([Lex(), Revlex()]),
    st.integers(0, 10**6),
)
def test_tower_decomposition_is_the_elimination_initial_ideal(gens, inner, seed):
    R = gens[0].ring
    moved = apply_change(Ideal(gens), random_coordinate_change(R, seed))
    elim = elimination_order(R.nvars, inner)
    p_max = max(x0_profile(g).x0_degree for g in moved.groebner_basis(elim))
    tower = partial_elim_ideals(moved, p_max, inner)
    assert tower_decomposition(tower) == moved.initial_ideal(elim)


def test_revlex_tower_reuses_the_elimination_basis_of_a_lex_gin_trial(monkeypatch):
    # a lex gin trial in 4 variables reads in_lex off the tower of its moved
    # ideal under elimination_order(4, Revlex()); a revlex-inner tower of
    # that ideal reads the same cached basis and runs no Buchberger
    R = ring(4)
    f, g = sample_monic_pair(R, 2, 3, random.Random(1))
    moved = gin(Ideal([f, g]), Lex(), trials=2, seed=1).trial_ideals[0]
    runs = []
    run = groebner.buchberger

    def counting(gens, order, *args, **kwargs):
        runs.append(order)
        return run(gens, order, *args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counting)
    tower = partial_elim_ideals(moved, 2, Revlex())
    assert runs == []
    assert tower.source_basis is moved.groebner_basis(elimination_order(4, Revlex()))
    assert runs == []


def test_curve_pipeline_reads_the_tower_of_its_lex_gin_trial(monkeypatch):
    # the lex gin trial harvests the revlex-inner tower of its moved ideal;
    # the pipeline's own call on that ideal returns those levels and reduces
    # no basis, and each level is generated by its harvest's reduced form
    from ginlab import experiments

    finalized = []
    finalize = groebner._finalize

    def counting_finalize(*args):
        finalized.append(args)
        return finalize(*args)

    towers = []

    def pipeline_call(I, p_max, inner_order=None):
        before = len(finalized)
        tower = partial_elim_ideals(I, p_max, inner_order)
        towers.append((I, tower, len(finalized) - before))
        return tower

    monkeypatch.setattr(groebner, "_finalize", counting_finalize)
    monkeypatch.setattr(experiments, "partial_elim_ideals", pipeline_call)
    report = experiments.experiment_curve(3, 3, seed=1)
    assert report.passed
    [(moved, tower, reductions)] = towers
    assert reductions == 0
    known = moved.towers[Revlex()]
    assert len(tower.levels) == 4 <= len(known.levels)
    assert all(a is b for a, b in zip(tower.levels, known.levels))
    assert tower.source_basis is known.source_basis
    source = [x0_profile(g) for g in tower.source_basis]
    for p, level in enumerate(tower.levels):
        harvest = [prof.initial_coefficient for prof in source if prof.x0_degree <= p]
        assert level.generators == tuple(groebner.reduce_groebner_basis(harvest, Revlex()))
        assert level.generators == level.groebner_basis(Revlex())


def test_a_longer_tower_extends_the_one_harvested():
    R = ring(4)
    f, g = sample_monic_pair(R, 2, 3, random.Random(2))
    I = Ideal([f, g])
    short = partial_elim_ideals(I, 1, Revlex())
    longer = partial_elim_ideals(I, 3, Revlex())
    assert longer.levels[:2] == short.levels
    assert partial_elim_ideals(I, 2, Revlex()).levels == longer.levels[:3]
    assert I.towers[Revlex()].levels == longer.levels
    fresh = partial_elim_ideals(Ideal([f, g]), 3, Revlex())
    for ours, theirs in zip(longer.levels, fresh.levels):
        assert ours.generators == theirs.generators
        assert ours.groebner_basis(Revlex()) == theirs.groebner_basis(Revlex())
    assert Lex() not in I.towers
    partial_elim_ideals(I, 1, Lex())
    assert len(I.towers[Lex()].levels) == 2
