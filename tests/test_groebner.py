"""Division, Buchberger, initial ideals, Hilbert functions, and the
Macaulay-matrix cross-checks."""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    covered_count,
    gebauer_moeller_update,
    homogeneous_generators,
    macaulay_contains,
    macaulay_dimension,
)

from ginlab import groebner
from ginlab.fields import FP_DEFAULT, QQ, PrimeField
from ginlab.gin import apply_change, random_coordinate_change
from ginlab.groebner import (
    DegreeCapExceeded,
    Ideal,
    buchberger,
    normal_form,
)
from ginlab.monomial_ideals import MonomialIdeal
from ginlab.orders import Lex, ProductOrder, Revlex, WeightOrder, elimination_order
from ginlab.poly import Polynomial, parse_polynomial, random_form
from ginlab.rings import RingContext, mono_mul
from ginlab.sylvester import sample_monic_pair


def ring(n=4, field=FP_DEFAULT):
    return RingContext(n, field)


def polys(R, *texts):
    return [parse_polynomial(t, R) for t in texts]


def prepared(engine, f):
    """One form as the engine's (degree, row) pair."""
    return engine.prepare([f], [f.homogeneous_degree()])[0][:2]


# ----------------------------------------------------------------------
# normal form


def test_normal_form_two_division_steps():
    R = ring(2)
    f, g = polys(R, "x0^2", "x0 - x1")
    assert normal_form(f, [g], Lex()) == parse_polynomial("x1^2", R)


def test_normal_form_no_divisibility():
    R = ring(3)
    f, g = polys(R, "x1*x2", "x0")
    assert normal_form(f, [g], Lex()) == f


def test_normal_form_membership_gives_zero():
    R = ring(3)
    f, g = polys(R, "x0^2 + x0*x1", "x0")
    assert normal_form(f, [g], Lex()).is_zero


def test_normal_form_zero_input():
    R = ring(2)
    assert normal_form(Polynomial.zero(R), polys(R, "x0"), Lex()).is_zero


def test_normal_form_uses_first_listed_divisor():
    R = ring(3)
    f = parse_polynomial("x0^2", R)
    g1, g2 = polys(R, "x0 - x1", "x0 - x2")
    # both leading terms divide x0^2; the first listed one must be used at
    # every step, so the remainder is x1^2 (and x2^2 with the order swapped)
    assert normal_form(f, [g1, g2], Lex()) == parse_polynomial("x1^2", R)
    assert normal_form(f, [g2, g1], Lex()) == parse_polynomial("x2^2", R)


def test_normal_form_over_qq_rescales_the_terms_already_moved_out():
    R = ring(3, QQ)
    f, g = polys(R, "x0 + x1", "2*x1 - x2")
    # x0 is irreducible and leaves the working terms before x1 is reduced by
    # a leading coefficient 2; a fraction-free step must rescale it too
    assert normal_form(f, [g], Lex()) == parse_polynomial("x0 + 1/2*x2", R)


def test_reduced_basis_is_monic_and_sorted():
    R = ring(4)
    rng = random.Random(51)
    gens = [random_form(R, 2, rng).scale(7) for _ in range(3)]
    gb = buchberger(gens, Revlex())
    keys = []
    for g in gb:
        lt, c = g.leading_term(Revlex())
        assert c == R.field.one
        keys.append((g.homogeneous_degree(), Revlex().sort_key(lt)))
    assert keys == sorted(keys)
    # tails are reduced: no monomial anywhere is divisible by another lead
    lts = [g.leading_monomial(Revlex()) for g in gb]
    for i, g in enumerate(gb):
        for m in g.terms:
            for j, lt in enumerate(lts):
                if i != j:
                    assert not all(a <= b for a, b in zip(lt, m))
                elif m != lt:
                    assert not all(a <= b for a, b in zip(lt, m))


def test_normal_form_reduces_an_inhomogeneous_form_by_components():
    # each homogeneous component is reduced on its own: under a
    # degree-compatible order a step never leaves its component's degree
    for field in (FP_DEFAULT, QQ):
        R = ring(3, field)
        f = parse_polynomial("x0^2 + 3*x0 + x1", R)
        g = parse_polynomial("x0^2 - x1*x2", R)
        assert normal_form(f, [g], Lex()) == parse_polynomial("x1*x2 + 3*x0 + x1", R)
        with pytest.raises(ValueError, match="homogeneous"):
            normal_form(g, [f], Lex())


def test_normal_form_rejects_a_form_of_another_ring():
    R = ring(3)
    I = Ideal(polys(R, "x0^2 - x1*x2"))
    # a form in more variables, and the generator itself written over QQ
    for other in (ring(4), ring(3, QQ)):
        f = parse_polynomial("x0^2 - x1*x2", other)
        with pytest.raises(ValueError, match="different ring contexts"):
            I.contains(f)
        with pytest.raises(ValueError, match="different ring contexts"):
            normal_form([I.generators[0], f], I.generators, Lex())


def test_normal_form_of_a_list_is_the_list_of_normal_forms():
    for field in (FP_DEFAULT, QQ):
        R = ring(3, field)
        rng = random.Random(7)
        G = buchberger([random_form(R, 2, rng) for _ in range(2)], Revlex())
        forms = [random_form(R, d, rng) for d in (1, 3, 4)] + [G[0] * random_form(R, 2, rng)]
        forms.append(forms[0] + forms[1])  # inhomogeneous
        assert normal_form(forms, G, Revlex()) == [normal_form(f, G, Revlex()) for f in forms]
        assert normal_form(forms[3], G, Revlex()).is_zero
        assert normal_form([], G, Revlex()) == []


def test_normal_form_result_irreducible():
    R = ring(3)
    rng = random.Random(5)
    G = buchberger([random_form(R, 2, rng) for _ in range(2)], Revlex())
    lts = [g.leading_monomial(Revlex()) for g in G]
    for _ in range(10):
        f = random_form(R, 4, rng)
        r = normal_form(f, G, Revlex())
        for m in r.terms:
            assert not any(all(a <= b for a, b in zip(lt, m)) for lt in lts)
        # f - r lies in the ideal
        assert normal_form(f - r, G, Revlex()).is_zero


# ----------------------------------------------------------------------
# buchberger


def test_buchberger_one_spair_by_hand():
    R = ring(2)
    gb = buchberger(polys(R, "x0 - x1", "x0^2"), Lex())
    assert gb == polys(R, "x0 - x1", "x1^2")


def test_buchberger_monomial_input_is_minimalized():
    R = ring(3)
    gb = buchberger(polys(R, "x0*x1", "x0^2*x1", "x2^3"), Lex())
    assert gb == polys(R, "x0*x1", "x2^3")


def test_buchberger_empty_input():
    assert buchberger([], Lex()) == []


def test_buchberger_requires_homogeneous():
    R = ring(2)
    with pytest.raises(ValueError):
        buchberger(polys(R, "x0^2 + x1"), Lex())


def test_degree_cap_below_generators_rejected():
    R = ring(2)
    with pytest.raises(ValueError):
        buchberger(polys(R, "x0^3"), Lex(), degree_cap=2)


def test_ideal_rejects_degree_cap_below_a_generator_degree():
    R = ring(2)
    with pytest.raises(ValueError, match="degree cap 2 is below generator degree 3"):
        Ideal(polys(R, "x0^3"), degree_cap=2)
    assert Ideal(polys(R, "x0^3"), degree_cap=3).degree_cap == 3


def test_degree_cap_abort_carries_degree():
    R = ring(3)
    rng = random.Random(2)
    # a 3-point ideal in P^2 needs its lex basis out to degree 3
    from ginlab.points import random_points, vanishing_ideal

    I = vanishing_ideal(random_points(4, 2, 3, FP_DEFAULT))
    with pytest.raises(DegreeCapExceeded) as err:
        buchberger(list(I.generators), Lex(), degree_cap=2)
    assert err.value.degree > 2


def test_reduced_basis_unique_under_shuffles():
    R = ring(4)
    rng = random.Random(9)
    gens = [random_form(R, 2, rng) for _ in range(3)]
    reference = buchberger(gens, Revlex())
    for s in range(5):
        shuffled = list(gens)
        random.Random(s).shuffle(shuffled)
        assert buchberger(shuffled, Revlex()) == reference


@settings(max_examples=40, deadline=None)
@given(
    homogeneous_generators([PrimeField(101), FP_DEFAULT, QQ]),
    st.sampled_from([Lex(), Revlex()]),
    st.data(),
)
def test_reduced_basis_ignores_generator_order_and_scale(gens, order, data):
    reference = buchberger(gens, order)
    perm = data.draw(st.permutations(range(len(gens))))
    # nonzero in every field drawn: |c| < 101
    scales = data.draw(st.lists(
        st.integers(-100, 100).filter(bool), min_size=len(gens), max_size=len(gens)
    ))
    assert buchberger([gens[i].scale(c) for i, c in zip(perm, scales)], order) == reference


def _redundant(basis, order, rng):
    """A redundant Groebner basis of the ideal of a reduced basis.  First,
    per element g, a multiple of g plus multiples of the other elements
    whose leading monomials are below g's: the same leading monomial as g,
    listed before g, so it is the minimal element picked and its tail must
    be reduced.  Then, shuffled, the reduced basis and a random form times
    each element, so a non-minimal element is often the first listed
    divisor."""
    R = basis[0].ring
    first = []
    for g in basis:
        lead = order.sort_key(g.leading_monomial(order))
        messy = g.scale(rng.randint(2, 9))
        for other in basis:
            e = g.homogeneous_degree() - other.homogeneous_degree()
            for t in R.monomials_of_degree(e) if other is not g and e >= 0 else ():
                m = Polynomial.monomial(R, t, rng.randint(1, 9)) * other
                if order.sort_key(m.leading_monomial(order)) > lead:
                    messy = messy + m
        first.append(messy)
    rest = list(basis) + [random_form(R, rng.randint(1, 2), rng) * g for g in basis]
    rng.shuffle(rest)
    return first + rest


@settings(max_examples=40, deadline=None)
@given(
    homogeneous_generators([FP_DEFAULT, QQ]),
    st.sampled_from([Lex(), Revlex()]),
    st.randoms(use_true_random=False),
)
def test_reducing_a_redundant_basis_gives_the_buchberger_basis(gens, order, rng):
    # the engine reduces each minimal tail against every element, minimal
    # or not; the normal form modulo a Groebner basis is unique, so the
    # result must not change
    reference = buchberger(gens, order)
    reduced = groebner.reduce_groebner_basis(_redundant(reference, order, rng), order)
    assert reduced == reference
    assert reduced.leading_monomials == reference.leading_monomials


# ----------------------------------------------------------------------
# Hilbert-driven pair pruning


def _orders(nvars):
    return [Lex(), Revlex(), elimination_order(nvars)]


@settings(max_examples=40, deadline=None)
@given(
    homogeneous_generators([PrimeField(101), FP_DEFAULT, QQ]),
    st.integers(0, 2),
    st.integers(0, 2),
    st.booleans(),
    st.integers(0, 10**6),
)
def test_witness_leaves_the_reduced_basis_unchanged(gens, which, other, moved, seed):
    R = gens[0].ring
    order, witness_order = _orders(R.nvars)[which], _orders(R.nvars)[other]
    source = gens
    if moved:
        source = apply_change(Ideal(gens), random_coordinate_change(R, seed)).generators
    basis = buchberger(source, witness_order)
    witness = MonomialIdeal(R, [g.leading_monomial(witness_order) for g in basis])
    assert buchberger(gens, order, witness=witness) == buchberger(gens, order)


@settings(max_examples=40, deadline=None)
@given(homogeneous_generators([PrimeField(101), FP_DEFAULT, QQ], max_gens=5), st.integers(0, 2))
def test_covered_counts_the_monomials_some_leading_monomial_divides(gens, which):
    # the count the witness is compared with, read off the divisor tables,
    # after each new element on both fields
    R = gens[0].ring
    order = _orders(R.nvars)[which]
    engine = groebner._DenseEngine(R, order)
    lts = []
    for f in gens:
        engine.add_basis(*prepared(engine, f))
        lts.append(f.leading_monomial(order))
        assert [engine.covered(d) for d in range(7)] == [
            covered_count(lts, R.nvars, d) for d in range(7)]


def _spair_degrees(monkeypatch, runs=None):
    """The degree of each S-pair made, in order; with ``runs``, also one
    list of them per engine, in the order the engines make their first."""
    degrees = []
    spair = groebner._DenseEngine.spair

    def spy(self, i, j):
        d, v = spair(self, i, j)
        degrees.append(d)
        if runs is not None:
            if not hasattr(self, "spy_run"):
                self.spy_run = len(runs)
                runs.append([])
            runs[self.spy_run].append(d)
        return d, v

    monkeypatch.setattr(groebner._DenseEngine, "spair", spy)
    return degrees


def test_witness_never_suppresses_the_degree_cap(monkeypatch):
    from ginlab.points import random_points, vanishing_ideal

    gens = list(vanishing_ideal(random_points(4, 2, 3, FP_DEFAULT)).generators)
    basis = buchberger(gens, Revlex())
    witness = MonomialIdeal(gens[0].ring, [g.leading_monomial(Revlex()) for g in basis])
    degrees = _spair_degrees(monkeypatch)
    expected = buchberger(gens, Lex())
    assert max(degrees) == 5  # without the witness, pairs of degree 5 reduce to zero
    degrees.clear()
    assert buchberger(gens, Lex(), witness=witness) == expected
    assert max(degrees) == 4  # the witness prunes every pair of degree 5 ...
    with pytest.raises(DegreeCapExceeded) as err:  # ... but the cap still sees them
        buchberger(gens, Lex(), degree_cap=4, witness=witness)
    assert (err.value.degree, err.value.cap) == (5, 4)
    # four points cut out by two conics in P^2: the lex basis reaches degree
    # 4, and its own leading monomials prune the pair of degree 5
    R = ring(3)
    rng = random.Random(12)
    gens = [random_form(R, 2, rng) for _ in range(2)]
    expected = buchberger(gens, Lex())
    assert max(g.homogeneous_degree() for g in expected) == 4
    degrees.clear()
    witness = MonomialIdeal(R, expected.leading_monomials)
    assert buchberger(gens, Lex(), witness=witness) == expected
    assert max(degrees) == 4


def test_second_gin_trial_reduces_fewer_pairs(monkeypatch):
    # the first trial computes a revlex witness.  Each lex trial in 4
    # variables then runs the elimination basis, pruned by that witness (the
    # second trial's included), and one lex run per partial elimination
    # level that has more than one form, pruned by the level's revlex
    # initial ideal.  Every witnessed run reduces fewer S-pairs than an
    # unwitnessed run of the same generators under the same order.
    from ginlab.gin import gin

    def per_run_counts():
        runs = []  # [order, witnessed, S-pairs reduced, generators] per buchberger run
        run = groebner.buchberger

        def counting(gens, order, *args, witness=None, **kwargs):
            gens = tuple(gens)
            runs.append([order, witness is not None, 0, gens])
            return run(gens, order, *args, witness=witness, **kwargs)

        spair = groebner._DenseEngine.spair

        def spy(self, i, j):
            runs[-1][2] += 1
            return spair(self, i, j)

        with monkeypatch.context() as patch:
            patch.setattr(groebner, "buchberger", counting)
            patch.setattr(groebner._DenseEngine, "spair", spy)
            R = ring(4)
            f, g = sample_monic_pair(R, 3, 3, random.Random(5))  # curve (3,3), seed 5
            result = gin(Ideal([f, g]), Lex(), trials=2, seed=5)
            assert result.agreed and len(result.trial_ideals) == 2
            for order, witnessed, _, gens in list(runs):
                if witnessed:
                    groebner.buchberger(gens, order)
        return [run[:3] for run in runs]

    first = per_run_counts()
    trial = [elimination_order(4, Revlex()), Lex(), Lex()]
    assert [run[:2] for run in first] == (
        [[Revlex(), False]] + [[order, True] for order in trial * 2]
        + [[order, False] for order in trial * 2]
    )
    witnessed, unwitnessed = [run[2] for run in first[1:7]], [run[2] for run in first[7:]]
    assert all(w < u for w, u in zip(witnessed, unwitnessed))
    assert per_run_counts() == first


def test_each_shared_witness_numerator_is_computed_once(monkeypatch):
    from ginlab import monomial_ideals
    from ginlab.experiments import experiment_curve

    witnesses = []  # the witness of every witnessed run, kept alive so ids stay distinct
    computed = []  # the monomial ideal of every Hilbert numerator computed
    run, numerator = groebner.buchberger, monomial_ideals.hilbert_numerator

    def counting_run(*args, witness=None, **kwargs):
        if witness is not None:
            witnesses.append(witness)
        return run(*args, witness=witness, **kwargs)

    def counting_numerator(J):
        if J._numerator is None:
            computed.append(J)
        return numerator(J)

    monkeypatch.setattr(groebner, "buchberger", counting_run)
    for module in (groebner, monomial_ideals):
        monkeypatch.setattr(module, "hilbert_numerator", counting_numerator)
    assert experiment_curve(3, 3, seed=5).passed
    distinct = list({id(w): w for w in witnesses}.values())
    assert len(witnesses) > len(distinct)  # the witnesses really are shared
    assert [sum(J is w for J in computed) for w in distinct] == [1] * len(distinct)


def test_each_initial_ideal_and_its_numerator_are_computed_once(monkeypatch):
    from ginlab import monomial_ideals

    computed = []  # top-level Hilbert numerator computations
    passed = []  # the monomial ideal behind every hilbert_data call
    depth = {"recursion": 0}
    recurse, data = monomial_ideals._hs_recurse, groebner.hilbert_data

    def counting_recurse(gens, *rest):
        if not depth["recursion"]:
            computed.append(tuple(gens))
        depth["recursion"] += 1
        try:
            return recurse(gens, *rest)
        finally:
            depth["recursion"] -= 1

    def spy_data(J, bound):
        passed.append(J)
        return data(J, bound)

    monkeypatch.setattr(monomial_ideals, "_hs_recurse", counting_recurse)
    monkeypatch.setattr(groebner, "hilbert_data", spy_data)
    R = ring(3)
    rng = random.Random(17)
    I = Ideal([random_form(R, 2, rng) for _ in range(2)])
    for order in (Lex(), Revlex()):
        first = I.initial_ideal(order)
        for bound in (4, 6, 8):
            assert I.initial_ideal(order) is first
            assert I.hilbert_data(order, bound=bound).hf.dims[:4] == (1, 3, 4, 4)
        assert passed == [first] * 3
        passed.clear()
    assert len(computed) == 2  # one numerator per order


def test_seven_points_in_p4_run_dense_at_the_default_cap():
    from ginlab.points import random_points, vanishing_ideal

    I = vanishing_ideal(random_points(7, 4, 1, FP_DEFAULT))
    assert I.hilbert_function(Revlex(), bound=4).dims == (1, 5, 7, 7, 7)


def test_ci22_revlex_initial_ideal_in_generic_coordinates():
    R = ring(4)
    rng = random.Random(21)
    f, g = sample_monic_pair(R, 2, 2, rng)
    moved = apply_change(Ideal([f, g]), random_coordinate_change(R, 77))
    assert moved.initial_ideal(Revlex()) == MonomialIdeal.from_strings(
        R, ["x0^2", "x0*x1", "x1^3"]
    )


def test_sparse_and_dense_engines_agree():
    Rp = ring(3, FP_DEFAULT)
    Rq = ring(3, QQ)
    texts = ["x0^2 - x1*x2", "x0*x1 - x2^2"]
    gb_p = buchberger(polys(Rp, *texts), Lex())
    gb_q = buchberger([parse_polynomial(t, Rq) for t in texts], Lex())
    # compare monomial supports and leading terms degreewise
    assert [sorted(g.terms) for g in gb_p] == [sorted(g.terms) for g in gb_q]
    for fp, fq in zip(gb_p, gb_q):
        assert {m: FP_DEFAULT.of(c) for m, c in fq.terms.items()} == fp.terms


# ----------------------------------------------------------------------
# initial ideals / hilbert functions


def test_initial_ideal_from_hand_basis():
    R = ring(2)
    I = Ideal(polys(R, "x0 - x1", "x0^2"))
    assert I.initial_ideal(Lex()) == MonomialIdeal.from_strings(R, ["x0", "x1^2"])


def test_initial_ideal_of_monomial_ideal_is_itself():
    R = ring(3)
    I = Ideal(polys(R, "x0*x1", "x1^2*x2"))
    assert I.initial_ideal(Revlex()) == MonomialIdeal.from_strings(
        R, ["x0*x1", "x1^2*x2"]
    )


def test_hilbert_function_ci22():
    R = ring(4)
    rng = random.Random(31)
    f, g = sample_monic_pair(R, 2, 2, rng)
    hf = Ideal([f, g]).hilbert_function(Revlex(), bound=6)
    assert hf.dims == (1, 4, 8, 12, 16, 20, 24)


def test_hilbert_function_points():
    from ginlab.points import random_points, vanishing_ideal

    I = vanishing_ideal(random_points(3, 2, 8, FP_DEFAULT))
    hf = I.hilbert_function(Lex(), bound=5)
    assert hf.dims == (1, 3, 3, 3, 3, 3)
    assert hf.stable_value == 3


def test_hilbert_function_unit_ideal():
    R = ring(3)
    I = Ideal([Polynomial.constant(R, 1)])
    assert I.hilbert_function(Lex(), bound=3).dims == (0, 0, 0, 0)


def test_ideal_equal():
    R = ring(2)
    assert Ideal(polys(R, "x0", "x1")).equals(Ideal(polys(R, "x0 + x1", "x1")), Lex())
    assert not Ideal(polys(R, "x0^2")).equals(Ideal(polys(R, "x0")), Lex())


def _spy_on_stores(monkeypatch):
    """Record every (ideal, order) that ``Ideal.set_groebner_basis`` caches,
    and count the ``sort_key`` calls of every order class made while it
    runs."""
    stored = []
    keys_in_store = []
    depth = []
    store = Ideal.set_groebner_basis

    def spying_store(self, order, basis):
        depth.append(1)
        try:
            return store(self, order, basis)
        finally:
            depth.pop()
            stored.append((self, order))

    monkeypatch.setattr(Ideal, "set_groebner_basis", spying_store)
    for cls in (Lex, Revlex, WeightOrder, ProductOrder):
        def spying_key(self, exps, _key=cls.sort_key):
            if depth:
                keys_in_store.append(type(self).__name__)
            return _key(self, exps)
        monkeypatch.setattr(cls, "sort_key", spying_key)
    return stored, keys_in_store


@pytest.mark.parametrize("pipeline", ["curve-3-3", "points-20-3"])
def test_cached_initial_ideals_are_the_engines_leading_monomials(monkeypatch, pipeline):
    # the engine hands its leading monomials to the cache; recomputing them
    # from the cached basis with sort_key must give the same initial ideal
    from ginlab.experiments import experiment_curve, experiment_points

    stored, keys_in_store = _spy_on_stores(monkeypatch)
    if pipeline == "curve-3-3":
        report = experiment_curve(3, 3, seed=1)
    else:
        report = experiment_points(20, 3, seed=1)
    assert report.passed
    assert keys_in_store == []
    assert len(stored) > 10
    orders = {order for _, order in stored}
    assert Revlex() in orders and Lex() in orders
    for ideal, order in stored:
        recomputed = [min(g.terms, key=order.sort_key) for g in ideal.gb_cache[order]]
        assert ideal.initial_ideals[order] == MonomialIdeal(ideal.ring, recomputed)
        assert len(recomputed) == len(ideal.initial_ideals[order].gens)


def test_reduced_basis_carries_the_leading_monomials_of_both_engines():
    R = ring(3)
    texts = ("x0^2 - x1*x2", "x1^3 - x0*x2^2 + x2^3")
    for order in (Lex(), Revlex(), WeightOrder((1, 2, 3), Lex())):
        for field in (FP_DEFAULT, QQ):
            basis = buchberger(polys(RingContext(3, field), *texts), order)
            assert basis.leading_monomials == tuple(g.leading_monomial(order) for g in basis)
    assert buchberger([], Lex()).leading_monomials == ()
    assert groebner.reduce_groebner_basis([], Lex()).leading_monomials == ()
    redundant = polys(R, "x0^2", "x0^3 + x0^2*x1", "x1^2")
    reduced = groebner.reduce_groebner_basis(redundant, Lex())
    assert list(reduced) == polys(R, "x0^2", "x1^2")
    assert reduced.leading_monomials == ((2, 0, 0), (0, 2, 0))


def test_set_groebner_basis_caches_only_a_reduced_basis():
    # an unreduced list must never enter the cache, nor become the witness
    R = ring(3)
    I = Ideal(polys(R, "x0^2", "x0^3 + x0^2*x1", "x1^2"))
    with pytest.raises(TypeError, match="ReducedBasis"):
        I.set_groebner_basis(Lex(), list(I.generators))
    assert I.gb_cache == {} and I.initial_ideals == {} and I.hilbert_witness == []
    reduced = groebner.reduce_groebner_basis(I.generators, Lex())
    assert I.set_groebner_basis(Lex(), reduced) == tuple(reduced)
    assert I.groebner_basis(Lex()) == tuple(polys(R, "x0^2", "x1^2"))
    assert I.hilbert_witness == [I.initial_ideal(Lex())]


def test_gb_cache_regenerates_identically():
    R = ring(3)
    rng = random.Random(13)
    I = Ideal([random_form(R, 2, rng), random_form(R, 2, rng)])
    first = I.groebner_basis(Lex())
    assert I.gb_cache
    again = Ideal(list(I.generators)).groebner_basis(Lex())
    assert first == again


# ----------------------------------------------------------------------
# Macaulay-matrix oracle cross-checks


def random_homogeneous_ideal(R, rng, count=2, maxdeg=3):
    return Ideal([random_form(R, rng.randint(1, maxdeg), rng) for _ in range(count)])


def test_hilbert_matches_macaulay_ranks():
    rng = random.Random(41)
    for nvars in (3, 4):
        R = ring(nvars)
        I = random_homogeneous_ideal(R, rng)
        hf = I.hilbert_function(Revlex(), bound=6)
        for d in range(7):
            assert R.monomial_count(d) - hf.dims[d] == macaulay_dimension(I, d, Lex())


def test_membership_matches_macaulay_rank():
    rng = random.Random(43)
    R = ring(3)
    I = random_homogeneous_ideal(R, rng)
    gb = I.groebner_basis(Revlex())
    for _ in range(20):
        f = random_form(R, rng.randint(2, 5), rng)
        assert I.contains(f, Revlex()) == macaulay_contains(I, f, Lex())
    # known members
    g = I.generators[0] * random_form(R, 2, rng)
    assert I.contains(g, Revlex()) and macaulay_contains(I, g, Lex())


def test_hilbert_invariant_under_coordinate_change():
    rng = random.Random(47)
    R = ring(4)
    f, g = sample_monic_pair(R, 2, 2, rng)
    I = Ideal([f, g])
    hf = I.hilbert_function(Revlex(), bound=5)
    for seed in range(5):
        moved = apply_change(I, random_coordinate_change(R, seed))
        assert moved.hilbert_function(Revlex(), bound=5).dims == hf.dims


# ----------------------------------------------------------------------
# ranking multiples: unit shifts and a dense step's support


def _mulmap_orders(nvars):
    weights = tuple(1 + (3 * i) % (nvars + 1) for i in range(nvars))  # not constant
    return [Lex(), Revlex(), WeightOrder(weights, Revlex())]


def _index(piece):
    return {m: i for i, m in enumerate(piece.monomials())}


def _check_mulmaps(R, order, shapes):
    units = [tuple(int(i == j) for i in range(R.nvars)) for j in range(R.nvars)]
    for src_deg in sorted({src_deg for src_deg, _ in shapes}):
        src = R.graded_piece(src_deg, order).monomials()
        index = _index(R.graded_piece(src_deg + 1, order))
        shifts = R.variable_shifts(src_deg, order)
        assert R.variable_shifts(src_deg, order) is shifts  # cached per (degree, order)
        assert [shift.dtype.name for shift in shifts] == ["int64"] * R.nvars
        assert [shift.tolist() for shift in shifts] == [
            [index[mono_mul(m, unit)] for m in src] for unit in units]
    for src_deg, delta_deg in shapes:
        # one basis element whose support is the whole degree-src_deg piece
        src = R.graded_piece(src_deg, order).monomials()
        engine = groebner._DenseEngine(R, order)
        engine.add_basis(*prepared(
            engine, Polynomial.from_terms(R, [(m, k + 1) for k, m in enumerate(src)])))
        dst = R.graded_piece(src_deg + delta_deg, order)
        index = _index(dst)
        for delta in R.monomials_of_degree(delta_deg):
            at = index[mono_mul(src[0], delta)]
            got = dst.positions_at(engine.basis[0][3] + dst.columns[:, at:at + 1])
            assert got.dtype.name == "int64"
            assert got.tolist() == [index[mono_mul(m, delta)] for m in src]


@pytest.mark.parametrize("nvars", [2, 3, 4, 5])
def test_mulmap_matches_index_oracle(nvars):
    R = ring(nvars)
    shapes = [(src_deg, delta_deg) for src_deg in range(6) for delta_deg in range(3)]
    for order in _mulmap_orders(nvars):
        _check_mulmaps(R, order, shapes)


def test_mulmap_matches_index_oracle_on_a_wide_ring():
    # 3**40 > 2**63: a mixed-radix key of the degree-2 monomials would wrap
    R = ring(40)
    shapes = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    for order in _mulmap_orders(40):
        _check_mulmaps(R, order, shapes)


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_piece_positions_match_an_index_built_from_its_monomials(nvars):
    R = ring(nvars)
    orders = [*_mulmap_orders(nvars)]
    if nvars > 1:
        orders.append(ProductOrder((1, nvars - 1), (Lex(), Revlex())))
    rng = random.Random(nvars)
    for order in orders:
        for d in range(6):
            piece = R.graded_piece(d, order)
            index = _index(piece)
            assert piece.positions(piece.monomials()).tolist() == list(range(len(index)))
            sample = rng.choices(piece.monomials(), k=7)
            assert piece.positions(sample).tolist() == [index[m] for m in sample]


def _arrays(value):
    """Every numpy array inside ``value``, through dicts, tuples and lists."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [array for item in value for array in _arrays(item)]
    return []


def test_rings_cache_only_piece_tables_and_unit_shifts(monkeypatch):
    # no map keyed by a non-unit delta outlives a run: after a whole curve
    # pipeline, each ring holds its pieces' tables and its unit shifts only,
    # and every field of a piece is a read-only array, not a tuple of tuples
    from ginlab.experiments import experiment_curve

    rings = []
    init = RingContext.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        rings.append(self)

    monkeypatch.setattr(RingContext, "__init__", spy)
    experiment_curve(3, 3, seed=1)
    assert [R.nvars for R in rings] == [4, 3]
    for R in rings:
        tables = [array for piece in R._graded.values() for array in piece]
        assert all(isinstance(array, np.ndarray) and not array.flags.writeable
                   for array in tables)
        shifts = [shift for key in R._shifts for shift in R.variable_shifts(*key)]
        assert len(shifts) == R.nvars * len(R._shifts) > 0
        known = {id(array) for array in tables + shifts}
        assert [array.shape for slot in RingContext.__slots__
                for array in _arrays(getattr(R, slot)) if id(array) not in known] == []


@pytest.mark.parametrize("order", _mulmap_orders(4), ids=str)
def test_engines_on_one_ring_share_each_map(order):
    # the maps a dense step reads are the ring's piece tables and unit shifts
    R = ring(4)
    first, second = groebner._DenseEngine(R, order), groebner._DenseEngine(R, order)
    x0 = Polynomial.from_terms(R, [((1, 0, 0, 0), 1)])
    for engine in (first, second):
        engine.add_basis(*prepared(engine, x0))
        engine._divisor_table(4)  # scatters through the unit shifts of degrees 1-3
    for d in range(1, 5):
        got = first._piece(d)
        assert second._piece(d) is got
        assert R.graded_piece(d, order) is got
    assert set(R._shifts) == {(d, order) for d in range(1, 4)}
    # an equal ring is another cache
    assert groebner._DenseEngine(ring(4), order)._piece(3) is not first._piece(3)


def test_second_gin_trial_adds_no_lex_map(monkeypatch):
    import sys

    gin_module = sys.modules["ginlab.gin"]  # the package re-exports the function as ``gin``
    R = ring(4)
    f, g = sample_monic_pair(R, 3, 3, random.Random(5))  # curve (3,3), seed 5
    lex_maps = []  # lex pieces and unit shifts cached after each trial
    trial = gin_module._one_trial

    def counting(*args):
        out = trial(*args)
        # the lex runs are on the partial elimination levels, in the small ring
        lex_maps.append(sum(1 for S in (R, R.drop_first_variable())
                            for cache in (S._graded, S._shifts)
                            for _, o in cache if o == Lex()))
        return out

    monkeypatch.setattr(gin_module, "_one_trial", counting)
    gin_module.gin(Ideal([f, g]), Lex(), trials=2, seed=5)
    assert len(lex_maps) == 2
    assert lex_maps[0] > 0
    assert lex_maps[1] == lex_maps[0]


def test_cached_maps_are_read_only():
    R = ring(3)
    piece = R.graded_piece(2, Revlex())
    for array in (*piece[1:], *R.variable_shifts(2, Revlex())):
        with pytest.raises(ValueError):
            array[...] = 0


# ----------------------------------------------------------------------
# dense divisor tables and pair bookkeeping


@st.composite
def _engine_forms(draw):
    """An order on 2-4 variables and nonzero forms of degree 1-5 over F_101;
    some are multiples or copies of earlier ones, so their leading monomials
    are redundant, and the degrees come in no particular order."""
    nvars = draw(st.integers(2, 4))
    R = RingContext(nvars, PrimeField(101))
    weights = tuple(draw(st.lists(st.integers(1, 4), min_size=nvars, max_size=nvars)))
    order = draw(st.sampled_from(
        [Lex(), Revlex(), WeightOrder(weights, draw(st.sampled_from([Lex(), Revlex()])))]
    ))
    forms = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["new", "multiple", "copy"]) if forms else st.just("new"))
        if kind == "new":
            mons = R.monomials_of_degree(draw(st.integers(1, 5)))
            terms = draw(st.lists(st.tuples(st.sampled_from(mons), st.integers(1, 100)),
                                  min_size=1, max_size=3))
            f = Polynomial.from_terms(R, terms)
            if not f:
                continue
        else:
            f = draw(st.sampled_from(forms))
            if kind == "multiple" and f.homogeneous_degree() < 5:
                x = [0] * nvars
                x[draw(st.integers(0, nvars - 1))] = 1
                f = f * Polynomial.from_terms(R, [(tuple(x), 1)])
            else:
                f = f.scale(draw(st.integers(1, 100)))
        forms.append(f)
    assume(forms)
    return R, order, forms


def _brute_force_divisor_table(lts, monomials):
    """The first listed leading monomial dividing each monomial, or None."""
    return [next((g for g, lt in enumerate(lts) if all(a <= b for a, b in zip(lt, m))), None)
            for m in monomials]


@settings(max_examples=60, deadline=None)
@given(_engine_forms(), st.data())
def test_divisor_tables_match_a_brute_force_first_divisor(case, data):
    R, order, forms = case
    engine = groebner._DenseEngine(R, order)
    split = data.draw(st.integers(0, len(forms)))
    for f in forms[:split]:
        engine.add_basis(*prepared(engine, f))
    for d in data.draw(st.lists(st.integers(0, 8), max_size=3)):
        engine._divisor_table(d)  # tables built before the later adds
    for f in forms[split:]:
        engine.add_basis(*prepared(engine, f))
    lts = [f.leading_monomial(order) for f in forms]
    for d in range(9):
        got = [None if g == groebner._NO_DIVISOR else g
               for g in engine._divisor_table(d).tolist()]
        assert got == _brute_force_divisor_table(lts, R.graded_piece(d, order).monomials())


def test_divisor_tables_rank_no_multiples(monkeypatch):
    import sys

    from ginlab.experiments import experiment_curve
    from ginlab.rings import GradedPiece

    callers = []
    ranks = GradedPiece.positions_times

    def spy(self, src, delta):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's frame
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return ranks(self, src, delta)

    monkeypatch.setattr(GradedPiece, "positions_times", spy)
    experiment_curve(3, 3, seed=1)
    # the unit shifts are the one caller that ranks a whole piece's multiples;
    # the divisor tables read them
    assert set(callers) == {"variable_shifts"}


def test_gm_add_prunes_coprime_and_chain_pairs():
    R = ring(3)
    engine, pairs = groebner._DenseEngine(R, Lex()), {}

    def add(text):
        groebner._gm_add(engine, pairs, *prepared(engine, parse_polynomial(text, R)))

    add("x0^2 + x1*x2")
    add("x1^3 + x2^3")
    assert pairs == {}  # x0^2 and x1^3 are coprime
    add("x0*x1 + x2^2")
    assert pairs == {3: {(0, 2): (2, 1, 0)}, 4: {(1, 2): (1, 3, 0)}}
    # x1^2 divides lcm(x1^3, x0*x1) and its lcms with both differ from it:
    # the pair (1, 2) goes, and with it the batch of degree 4; lcm(x0^2,
    # x1^2) is coprime and a multiple of the kept lcm(x0*x1, x1^2)
    add("x1^2 + x2^2")
    assert pairs == {3: {(0, 2): (2, 1, 0), (2, 3): (1, 2, 0), (1, 3): (0, 3, 0)}}


def test_gm_add_keeps_an_old_pair_whose_lcm_one_new_lcm_equals():
    R = ring(3)
    engine, pairs = groebner._DenseEngine(R, Lex()), {}
    for text in ["x0^2*x1 + x2^3", "x1^2 + x2^2", "x0^2 + x2^2"]:
        groebner._gm_add(engine, pairs, *prepared(engine, parse_polynomial(text, R)))
    # x0^2 divides lcm(x0^2*x1, x1^2) = lcm(x1^2, x0^2): the old pair stays
    assert pairs == {4: {(0, 1): (2, 2, 0)}, 3: {(0, 2): (2, 1, 0)}}


@st.composite
def _leading_monomials(draw):
    """Exponent tuples of degree 1-4 in 3-4 variables, repeats and
    multiples included, and an order to sort lcms by."""
    nvars = draw(st.integers(3, 4))
    mons = draw(st.lists(
        st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars).map(tuple)
        .filter(lambda m: 1 <= sum(m) <= 4), min_size=1, max_size=9))
    weights = tuple(draw(st.lists(st.integers(1, 4), min_size=nvars, max_size=nvars)))
    order = draw(st.sampled_from([Lex(), Revlex(), WeightOrder(weights, Revlex())]))
    return nvars, mons, order


@settings(max_examples=60, deadline=None)
@given(_leading_monomials())
def test_gm_add_installs_the_textbook_update_under_any_order(case):
    # the chain criterion keeps the minimal lcms, so the order they are
    # scanned in does not matter; every batch is nonempty and of its degree
    nvars, mons, order = case
    R = ring(nvars)
    engine, pairs, expected = groebner._DenseEngine(R, Lex()), {}, {}
    for k, m in enumerate(mons):
        groebner._gm_add(engine, pairs, *prepared(engine, Polynomial(R, {m: 1})))
        expected = gebauer_moeller_update(expected, mons[:k + 1], order)
        assert all(batch and {sum(l) for l in batch.values()} == {d}
                   for d, batch in pairs.items())
        assert {ij: l for batch in pairs.values() for ij, l in batch.items()} == expected


@pytest.mark.parametrize("shape, count", [(("curve", 3, 3), 58), (("points", 20, 3), 106)])
def test_spair_counts_at_seed_1_are_pinned(monkeypatch, shape, count):
    # a change to the pair criteria or to the selection shows here
    from ginlab import experiments

    runs = []
    degrees = _spair_degrees(monkeypatch, runs)
    kind, *args = shape
    getattr(experiments, f"experiment_{kind}")(*args, seed=1)
    assert len(degrees) == count
    # each run takes its pairs one degree at a time
    assert len(runs) > 1 and all(run == sorted(run) for run in runs)
