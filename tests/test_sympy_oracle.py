"""Oracles from sympy, which shares no code with ginlab: the coordinate
change as sympy's expansion of f(Ax) reduced mod p, and reduced Groebner
bases from ``sympy.groebner``.  Skipped when sympy is not installed."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from ginlab.fields import FP_DEFAULT, QQ, PrimeField
from ginlab.gin import apply_change, random_coordinate_change
from ginlab.groebner import Ideal, buchberger
from ginlab.orders import Lex, Revlex
from ginlab.poly import Polynomial
from ginlab.rings import RingContext

FIELDS = [PrimeField(101), FP_DEFAULT, QQ]


def symbols(R):
    return sympy.symbols(f"x0:{R.nvars}")


def to_sympy(f, xs):
    def coeff(c):
        return sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else c

    return sum(coeff(c) * sympy.Mul(*(x**e for x, e in zip(xs, m))) for m, c in f.terms.items())


def from_sympy(expr, R, xs):
    poly = sympy.Poly(expr, *xs)
    return Polynomial.from_terms(R, ((m, Fraction(int(c.p), int(c.q))) for m, c in poly.terms()))


def sparse_form(R, degree, rng, terms=3):
    mons = R.monomials_of_degree(degree)
    return Polynomial.from_terms(
        R, ((rng.choice(mons), rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(terms))
    )


@pytest.mark.parametrize("p", [2, 101, 2147483647])
@pytest.mark.parametrize("seed", range(4))
def test_apply_change_matches_sympy_expansion(p, seed):
    rng = random.Random(seed)
    R = RingContext(rng.randint(2, 4), PrimeField(p))
    xs = symbols(R)
    gens = [f for f in (sparse_form(R, rng.randint(1, 5), rng) for _ in range(3)) if f]
    change = random_coordinate_change(R, seed)
    moved = apply_change(Ideal(gens, ring=R), change)
    images = {x: sum(a * y for a, y in zip(row, xs)) for x, row in zip(xs, change.matrix)}
    for f, g in zip(gens, moved.generators):
        expected = sympy.Poly(sympy.expand(to_sympy(f, xs).xreplace(images)), *xs, modulus=p)
        assert g == from_sympy(expected.as_expr(), R, xs)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("order, name", [(Lex(), "lex"), (Revlex(), "grevlex")])
@pytest.mark.parametrize("seed", range(6))
def test_buchberger_matches_sympy_groebner(field, order, name, seed):
    rng = random.Random(seed)
    nvars = 3 + seed % 2
    R = RingContext(nvars, field)
    xs = symbols(R)
    degrees = [2, 2] if nvars == 4 else [1 + rng.randint(0, 1), 2, 3]
    gens = [f for f in (sparse_form(R, d, rng, terms=4) for d in degrees) if f]
    ours = buchberger(gens, order)
    kwargs = {"modulus": field.p} if field.is_prime_field else {}
    theirs = sympy.groebner([to_sympy(f, xs) for f in gens], *xs, order=name, **kwargs)
    theirs = [from_sympy(g, R, xs).monic(order) for g in theirs.exprs]
    theirs.sort(key=lambda f: (f.homogeneous_degree(), order.sort_key(f.leading_monomial(order))))
    assert ours == theirs
