"""Oracles from sympy, which shares no code with ginlab: the coordinate
change as sympy's expansion of f(Ax), reduced mod p over a prime field, and
reduced Groebner bases from ``sympy.groebner``.  Skipped when sympy is not
installed."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from ginlab import linalg
from ginlab.fields import FP_DEFAULT, QQ, PrimeField
from ginlab.gin import apply_change, random_coordinate_change
from ginlab.groebner import Ideal, buchberger
from ginlab.orders import Lex, Revlex
from ginlab.poly import Polynomial
from ginlab.rings import RingContext

FIELDS = [PrimeField(101), FP_DEFAULT, QQ]


def symbols(R):
    return sympy.symbols(f"x0:{R.nvars}")


def number(c):
    return sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else c


def to_sympy(f, xs):
    return sum(number(c) * sympy.Mul(*(x**e for x, e in zip(xs, m))) for m, c in f.terms.items())


def from_sympy(expr, R, xs):
    poly = sympy.Poly(expr, *xs)
    return Polynomial.from_terms(R, ((m, Fraction(int(c.p), int(c.q))) for m, c in poly.terms()))


def monic(f, order):
    return f.scale(f.ring.field.inv(f.leading_term(order)[1]))


INTEGERS = [-3, -2, -1, 1, 2, 3]
FRACTIONS = [Fraction(-3, 4), Fraction(1, 2), Fraction(5, 3), -2, 1, Fraction(7, 6)]


def sparse_form(R, degree, rng, terms=3, coeffs=INTEGERS):
    mons = R.monomials_of_degree(degree)
    return Polynomial.from_terms(
        R, ((rng.choice(mons), rng.choice(coeffs)) for _ in range(terms))
    )


def fractional_change(R, rng):
    """An invertible matrix over QQ with entries of mixed denominators."""
    while True:
        matrix = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(R.nvars)]
            for _ in range(R.nvars)
        ]
        if linalg.det(QQ, matrix) != 0:
            return matrix


@pytest.mark.parametrize("p", [2, 101, 2147483647, "qq"])
@pytest.mark.parametrize("seed", range(4))
def test_apply_change_matches_sympy_expansion(p, seed):
    rng = random.Random(seed)
    if p == "qq":
        R = RingContext(rng.randint(2, 4), QQ)
        gens = [sparse_form(R, rng.randint(1, 5), rng, coeffs=FRACTIONS) for _ in range(3)]
        matrix, kwargs = fractional_change(R, rng), {}
    else:
        R = RingContext(rng.randint(2, 4), PrimeField(p))
        gens = [sparse_form(R, rng.randint(1, 5), rng) for _ in range(3)]
        matrix, kwargs = random_coordinate_change(R, seed), {"modulus": p}
    gens = [f for f in gens if f]
    xs = symbols(R)
    moved = apply_change(Ideal(gens, ring=R), matrix)
    images = {x: sum(number(a) * y for a, y in zip(row, xs)) for x, row in zip(xs, matrix)}
    for f, g in zip(gens, moved.generators):
        expected = sympy.Poly(sympy.expand(to_sympy(f, xs).xreplace(images)), *xs, **kwargs)
        assert g == from_sympy(expected.as_expr(), R, xs)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("order, name", [(Lex(), "lex"), (Revlex(), "grevlex")])
@pytest.mark.parametrize("seed", range(6))
def test_buchberger_matches_sympy_groebner(field, order, name, seed):
    rng = random.Random(seed)
    nvars = 3 + seed % 2
    R = RingContext(nvars, field)
    degrees = [2, 2] if nvars == 4 else [1 + rng.randint(0, 1), 2, 3]
    gens = [f for f in (sparse_form(R, d, rng, terms=4) for d in degrees) if f]
    assert buchberger(gens, order) == sympy_reduced_basis(gens, order, name)


@pytest.mark.parametrize("order, name", [(Lex(), "lex"), (Revlex(), "grevlex")])
@pytest.mark.parametrize("seed", range(4))
def test_buchberger_over_qq_with_fractional_leading_coefficients_matches_sympy(
    order, name, seed
):
    # the engine clears these denominators and pseudo-divides by leading
    # coefficients other than 1, on integer rows
    rng = random.Random(seed)
    R = RingContext(3, QQ)
    leads = [Fraction(-5, 6), Fraction(7, 4), Fraction(2, 9)]
    gens = []
    for d, lead in zip((2, 2, 3), leads):
        f = sparse_form(R, d, rng, terms=4, coeffs=FRACTIONS)
        if f:
            gens.append(f.scale(lead / f.leading_term(order)[1]))
    assert buchberger(gens, order) == sympy_reduced_basis(gens, order, name)


def sympy_reduced_basis(gens, order, name):
    """sympy's reduced basis, monic and sorted as ``buchberger`` returns it."""
    R = gens[0].ring
    xs = symbols(R)
    kwargs = {"modulus": R.field.p} if R.field.is_prime_field else {}
    theirs = sympy.groebner([to_sympy(f, xs) for f in gens], *xs, order=name, **kwargs)
    theirs = [monic(from_sympy(g, R, xs), order) for g in theirs.exprs]
    theirs.sort(key=lambda f: (f.homogeneous_degree(), order.sort_key(f.leading_monomial(order))))
    return theirs
