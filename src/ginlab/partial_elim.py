"""Partial elimination ideals K_p.

K_p collects the initial coefficients (with respect to the first variable)
of ideal elements of x0-degree p; it lives in the small ring without x0 and,
set-theoretically, cuts out the points of the projection whose fiber has
length > p.  One Groebner basis under an elimination order yields the whole
ascending tower: the initial coefficients of basis elements of x0-degree
<= p form a Groebner basis of K_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .gin import apply_change, random_coordinate_change
from .groebner import Ideal
from .monomial_ideals import MonomialIdeal
from .orders import Revlex, elimination_order
from .poly import Polynomial


@dataclass(frozen=True)
class X0Profile:
    """x0-degree of a polynomial and its initial coefficient, written in the
    small ring (f = f0*x0^p + lower x0-degree, f0 != 0)."""

    x0_degree: int
    initial_coefficient: Polynomial


def x0_profile(f):
    if f.is_zero:
        raise ValueError("the zero polynomial has no x0-profile")
    small = f.ring.drop_first_variable()
    p = max(m[0] for m in f.terms)
    coeff_terms = {m[1:]: c for m, c in f.terms.items() if m[0] == p}
    return X0Profile(p, Polynomial(small, coeff_terms))


@dataclass
class PartialElimTower:
    """Levels K_0 <= K_1 <= ... <= K_{p_max} as ideals of the small ring,
    each carrying its certified reduced Groebner basis under ``inner_order``
    and the degree cap of the source ideal, plus the big-ring basis they were
    harvested from."""

    levels: list
    inner_order: object
    source_basis: tuple


def partial_elim_ideals(I, p_max, inner_order=None):
    """Compute the tower K_0..K_{p_max} from one elimination-order basis.
    ``I.towers`` keeps the longest tower harvested per inner order: a call
    it covers returns that tower's first p_max + 1 levels, and a longer call
    harvests only the levels past it."""
    inner = inner_order if inner_order is not None else Revlex()
    known = I.towers.get(inner)
    if known is None or len(known.levels) <= p_max:
        G = I.groebner_basis(elimination_order(I.ring.nvars, inner))
        small = I.ring.drop_first_variable()
        profiles = [x0_profile(g) for g in G]
        levels = list(known.levels) if known is not None else []
        for p in range(len(levels), p_max + 1):
            gens = [prof.initial_coefficient for prof in profiles if prof.x0_degree <= p]
            level = Ideal(gens, small, I.degree_cap)
            # the harvested generators are a Groebner basis for K_p; installing
            # their reduced form avoids ever rerunning Buchberger on a level
            level.set_groebner_basis(inner, gens)
            levels.append(level)
        known = I.towers[inner] = PartialElimTower(levels, inner, G)
    return PartialElimTower(known.levels[:p_max + 1], inner, known.source_basis)


def monomial_partial_elim(J: MonomialIdeal, p: int) -> MonomialIdeal:
    """K_p of a monomial ideal: strip x0 from generators of x0-degree <= p."""
    small = J.ring.drop_first_variable()
    gens = [g[1:] for g in J.gens if g[0] <= p]
    return MonomialIdeal(small, gens)


def tower_decomposition(tower):
    """The monomial ideal sum over p of x0^p * in(K_p), which must equal the
    initial ideal of the source under the elimination order."""
    if not tower.source_basis:
        raise ValueError("empty tower has no decomposition")
    big_ring = tower.source_basis[0].ring
    inner = tower.inner_order
    gens = [(p,) + m for p, level in enumerate(tower.levels)
            for m in level.initial_ideal(inner).gens]
    return MonomialIdeal(big_ring, gens)


# ----------------------------------------------------------------------
# distinct-point counting for K_1 (projection to a line)


class PointCountError(Exception):
    pass


def count_distinct_points(J, seed=0):
    """Number of distinct points of a finite subscheme of the projective
    plane, by generic projection to a line.

    Requires dim(S/J) = 1 (checked via the Hilbert series of an initial
    ideal).  A random coordinate change is applied, the first variable is
    eliminated, and the degree of the squarefree part of the resulting
    principal generator is returned.  Two seeds must agree, guarding the
    genericity assumption.  The projections run under the degree cap of
    ``J``.

    What is moved is the reduced revlex basis of ``J`` that the dimension
    check computes, not ``J.generators``: a partial elimination level
    carries its long harvested generator list, while its reduced basis is
    short and of low degree.  Both generate the same ideal, so the moved
    ideals are equal, their reduced elimination-order bases (which are
    unique) agree, and so does the count.
    """
    if J.ring.nvars != 3:
        raise PointCountError("point counting expects an ideal in 3 variables")
    data = J.hilbert_data(Revlex(), bound=4)
    if data.dimension != 1:
        raise PointCountError(
            f"expected a finite point set (dimension 1), got dimension {data.dimension}"
        )
    reduced = Ideal(J.groebner_basis(Revlex()), J.ring, J.degree_cap)
    reduced.hilbert_witness = J.hilbert_witness
    counts = [_projected_distinct_count(reduced, s) for s in (seed, seed + 1)]
    if counts[0] != counts[1]:
        raise PointCountError(f"projection counts disagree across seeds: {counts}")
    return counts[0]


def _projected_distinct_count(J, seed):
    moved = apply_change(J, random_coordinate_change(J.ring, seed))
    elim = elimination_order(3, Revlex())
    basis = moved.groebner_basis(elim)
    eliminated = [g for g in basis if all(m[0] == 0 for m in g.terms)]
    if not eliminated:
        raise PointCountError("elimination produced no binary form (dimension too large?)")
    # the eliminated ideal is principal up to irrelevant-ideal noise; its
    # vanishing locus is cut out by the gcd of the binary forms
    return _squarefree_degree_binary(eliminated)


def _squarefree_degree_binary(forms):
    """Distinct roots in P^1 cut out by binary forms in the last two
    variables of their ring (the squarefree degree of their gcd).

    Over F_p a root whose multiplicity is a multiple of p stays whole in
    gcd(u, u') and goes uncounted, so a gcd u of degree at least p raises
    PointCountError rather than return a count that may be short."""
    field = forms[0].ring.field
    gcd_u = None
    min_inf = None
    for h in forms:
        degree = h.homogeneous_degree()
        if any(m[0] != 0 for m in h.terms):
            raise PointCountError("form is not binary in the last two variables")
        coeffs = [field.zero] * (degree + 1)
        for m, c in h.terms.items():
            coeffs[m[-2]] = c  # exponent of the next-to-last variable
        dprime = max(i for i, c in enumerate(coeffs) if c != field.zero)
        inf_mult = degree - dprime  # multiplicity of the point [1:0]
        u = coeffs[: dprime + 1]
        gcd_u = u if gcd_u is None else _poly_gcd(field, gcd_u, u)
        min_inf = inf_mult if min_inf is None else min(min_inf, inf_mult)
    if field.is_prime_field and field.p <= len(gcd_u) - 1:
        raise PointCountError(
            f"gcd of degree {len(gcd_u) - 1} may hide a root of multiplicity p = {field.p}")
    du = [i * c for i, c in enumerate(gcd_u)][1:]
    g = _poly_gcd(field, gcd_u, du)
    return (1 if min_inf > 0 else 0) + (len(gcd_u) - 1) - (len(g) - 1)


def _poly_gcd(field, a, b):
    """A gcd, up to a unit, of two univariate coefficient lists (constant
    term first), by primitive pseudo-remainders on integers (Collins 1967):
    over F_p every coefficient is reduced mod p; over QQ the denominators
    are cleared and the content is divided out after each remainder.
    Returns integer coefficients without trailing zeros."""
    p = field.p if field.is_prime_field else 0  # 0: exact integers, no modulus
    a, b = _primitive(a, p), _primitive(b, p)
    while b:
        while len(a) >= len(b):  # a <- (lb/k)*a - (la/k)*x^shift*b
            k = gcd(a[-1], b[-1])
            la, lb = a[-1] // k, b[-1] // k
            shift = len(a) - len(b)
            a = [lb * c for c in a[:shift]] + [lb * c - la * d for c, d in zip(a[shift:], b)]
            a = _trim([c % p for c in a] if p else a)
        a, b = b, _primitive(a, p)
    return a


def _primitive(coeffs, p):
    """Integer coefficients of field values without trailing zeros: reduced
    mod p over F_p, with denominators cleared and content divided out over
    QQ."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    if p:
        return _trim([c % p for c in ints])
    content = gcd(*ints) or 1
    return _trim([c // content for c in ints])


def _trim(coeffs):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs
