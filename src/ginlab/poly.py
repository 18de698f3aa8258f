"""Sparse exact-coefficient polynomials.

A polynomial is a mapping {exponent tuple: nonzero coefficient} plus its ring
context.  Values are immutable by convention: no operation mutates an
existing polynomial, so sharing across threads is safe.

Text grammar (used by every file input): terms joined by ``+``/``-``; a term
is ``coeff*x<i>^<e>*...`` with ``*`` separating factors and ``^`` introducing
exponents, coefficient optional (default 1).  Example: ``x0^2*x1 - 3*x2^3``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

import numpy as np

from .orders import Lex
from .rings import mono_degree, mono_mul

_LEX = Lex()


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms  # dict exps -> nonzero coefficient; not to be mutated

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def constant(cls, ring, c):
        c = ring.field.of(c)
        if c == ring.field.zero:
            return cls(ring, {})
        return cls(ring, {(0,) * ring.nvars: c})

    @classmethod
    def monomial(cls, ring, exps, coeff=None):
        coeff = ring.field.one if coeff is None else ring.field.of(coeff)
        if coeff == ring.field.zero:
            return cls(ring, {})
        return cls(ring, {tuple(exps): coeff})

    @classmethod
    def from_terms(cls, ring, items):
        """Build from (exps, coeff) pairs, collecting and purging zeros."""
        field = ring.field
        terms = {}
        for exps, c in items:
            exps = tuple(exps)
            acc = field.add(terms.get(exps, field.zero), field.of(c))
            if acc == field.zero:
                terms.pop(exps, None)
            else:
                terms[exps] = acc
        return cls(ring, terms)

    # ------------------------------------------------------------------
    # structure

    @property
    def is_zero(self):
        return not self.terms

    def homogeneous_degree(self):
        """The common degree of all terms, or None if inhomogeneous/zero."""
        degs = {mono_degree(m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # ------------------------------------------------------------------
    # arithmetic

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomials belong to different ring contexts")

    def __add__(self, other):
        self._check_ring(other)
        field = self.ring.field
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = field.add(terms.get(m, field.zero), c)
            if acc == field.zero:
                terms.pop(m, None)
            else:
                terms[m] = acc
        return Polynomial(self.ring, terms)

    def __neg__(self):
        field = self.ring.field
        return Polynomial(self.ring, {m: field.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        field = self.ring.field
        c = field.of(c)
        if c == field.zero:
            return Polynomial.zero(self.ring)
        return Polynomial(self.ring, {m: field.mul(v, c) for m, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_ring(other)
        field = self.ring.field
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                v = field.add(acc.get(m, field.zero), field.mul(c1, c2))
                if v == field.zero:
                    acc.pop(m, None)
                else:
                    acc[m] = v
        return Polynomial(self.ring, acc)

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # order-dependent views

    def leading_term(self, order):
        """The order-greatest (monomial, coefficient) pair; errors on zero."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        m = min(self.terms, key=order.sort_key)
        return m, self.terms[m]

    def leading_monomial(self, order):
        return self.leading_term(order)[0]

    # ------------------------------------------------------------------
    # ring maps

    def substitute(self, change):
        """f(A*x) for a form f and a square matrix A of field scalars: each
        x_i becomes sum_j A[i][j]*x_j.  ``change`` is the matrix, or a
        :class:`LinearChange` built for a list of forms that holds this one,
        whose table of powers those forms share.  Entries are coerced with
        ``field.of``; the zero polynomial maps to zero, and an inhomogeneous
        form or a matrix that is not nvars x nvars raises ``ValueError``.

        The image is the weighted sum of the table's columns l^m over the
        support monomials m.  Over F_p each product is reduced mod p before
        the sum, so with p < 2**31 every addend stays below 2**31 and the
        sum far below 2**63.  Over QQ the table holds the powers of the rows
        scaled by the lcm D of the matrix denominators, and the weights are f's coefficients scaled by the lcm
        C of their denominators, so each output coefficient is one
        ``Fraction(total, C * D**d)`` for f of degree d."""
        if not isinstance(change, LinearChange):
            change = LinearChange(self.ring, change, [self])
        if not self.terms:
            return self
        if change.ring != self.ring:
            raise ValueError("substitution of a form from another ring")
        d = self.homogeneous_degree()
        if d is None:
            raise ValueError("substitution needs a homogeneous form")
        columns = change.columns.get(d, {})
        try:
            at = [columns[m] for m in self.terms]
        except KeyError:
            raise ValueError("form outside the forms the change was built for") from None
        p = change.p
        weights = list(self.terms.values())
        if not p:
            C = lcm(*(c.denominator for c in weights))
            weights = [c.numerator * (C // c.denominator) for c in weights]
        powers = change.powers[d][:, at]
        c = np.array(weights, dtype=powers.dtype)
        total = (powers * c % p).sum(axis=1) % p if p else (powers * c).sum(axis=1)
        nz = np.flatnonzero(total)
        support = self.ring.graded_piece(d).monomials(nz)
        if p:
            return Polynomial(self.ring, dict(zip(support, total[nz].tolist())))
        scale = C * change.scale**d
        return Polynomial(self.ring, {m: Fraction(t, scale)
                                      for m, t in zip(support, total[nz].tolist())})

    # ------------------------------------------------------------------
    # text form

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<{format_polynomial(self)}>"


class LinearChange:
    """The coordinate change x_i -> l_i = sum_j A[i][j]*x_j of a ring, with
    its table of powers for a list of forms: l^q = prod_i l_i^q_i, as a
    dense descending-lex vector of the degree-|q| piece, for every prefix q
    of every support monomial of the forms.  The prefixes of m are m and,
    recursively, those of m - e_i with i the last variable of m, so one
    table serves forms of several degrees, and its columns grow with their
    supports, never with a whole piece: a sparse form of high degree stays
    cheap.  The table is built one degree at a time, as l^(q - e_i) * l_i
    scattered through the ring's unit shifts.  Over F_p it holds int64
    residues, reduced mod p after every product, so with p < 2**31 each
    product stays below 2**62 and each sum of reduced terms (one per
    variable) far below 2**63.  Over QQ it holds Python ints in object
    arrays: the rows of A are scaled by the lcm ``scale`` of its
    denominators.  A change is a value for one batch of forms; nothing
    caches it."""

    __slots__ = ("ring", "p", "scale", "columns", "powers")

    def __init__(self, ring, matrix, forms):
        n = ring.nvars
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError(f"substitution needs a {n}x{n} matrix")
        field = ring.field
        self.ring = ring
        self.p = p = field.p if field.is_prime_field else 0  # 0: exact integers, no modulus
        lin = [[field.of(a) for a in row] for row in matrix]
        self.scale = 1
        if not p:
            self.scale = D = lcm(*(a.denominator for row in lin for a in row))
            lin = [[a.numerator * (D // a.denominator) for a in row] for row in lin]
        lin = np.array(lin, dtype=np.int64 if p else object)
        # columns[k]: the column of each degree-k prefix in powers[k]
        self.columns = columns = {}
        for f in forms:
            d = f.homogeneous_degree()
            if d is not None:
                level = columns.setdefault(d, {})
                for m in f.terms:
                    level.setdefault(m, len(level))
        top = max(columns, default=-1)
        # links[k]: per degree-k prefix, its parent's column among the
        # degree-(k-1) prefixes and the variable that leads from one to the other
        links = {}
        for k in range(top, 0, -1):
            parents, step = columns.setdefault(k - 1, {}), []
            for m in columns.setdefault(k, {}):
                i = max(j for j, e in enumerate(m) if e)
                parent = m[:i] + (m[i] - 1,) + m[i + 1:]
                step.append((parents.setdefault(parent, len(parents)), i))
            links[k] = np.array(step, dtype=np.int64)
        powers = np.ones((1, 1), dtype=lin.dtype)  # l^0 = 1
        self.powers = {0: powers}
        for k in range(1, top + 1):
            step = links[k]
            src = powers[:, step[:, 0]]
            coeffs = lin[step[:, 1]].T
            powers = np.zeros((ring.monomial_count(k), len(step)), dtype=lin.dtype)
            for j, dst in enumerate(ring.variable_shifts(k - 1)):
                powers[dst] += src * coeffs[j] % p if p else src * coeffs[j]
            if p:
                powers %= p
            self.powers[k] = powers


def format_polynomial(f):
    """Canonical text form: terms in descending (degree, lex) order."""
    if f.is_zero:
        return "0"
    field = f.ring.field
    pieces = []
    for m, c in sorted(f.terms.items(), key=lambda t: _LEX.sort_key(t[0])):
        text = field.format(c)
        neg = text.startswith("-")
        if neg:
            text = text[1:]
        mono = f.ring.monomial_str(m)
        if mono == "1":
            body = text
        elif text == "1":
            body = mono
        else:
            body = f"{text}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(pieces)


_TERM_SPLIT = re.compile(r"(?<!^)(?<![*^/])\s*([+-])\s*")
_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_NUM_RE = re.compile(r"^\d+(?:/\d+)?$")


class PolynomialParseError(ValueError):
    pass


def parse_polynomial(text, ring):
    """Parse the text grammar into a polynomial over ``ring``."""
    text = text.strip()
    if not text:
        raise PolynomialParseError("empty polynomial text")
    chunks = _TERM_SPLIT.split(text)
    # chunks alternate: term, sign, term, sign, ...
    items = []
    sign = 1
    first = chunks[0].strip()
    if first.startswith("-"):
        sign, first = -1, first[1:].strip()
    elif first.startswith("+"):
        first = first[1:].strip()
    pending = [(sign, first)]
    for i in range(1, len(chunks), 2):
        pending.append((1 if chunks[i] == "+" else -1, chunks[i + 1].strip()))
    for sign, term in pending:
        if not term:
            raise PolynomialParseError("dangling sign in polynomial text")
        items.append(_parse_term(term, ring, sign))
    return Polynomial.from_terms(ring, items)


def _parse_term(term, ring, sign):
    field = ring.field
    coeff = field.one
    exps = [0] * ring.nvars
    for factor in term.split("*"):
        factor = factor.strip()
        if not factor:
            raise PolynomialParseError(f"empty factor in term {term!r}")
        if _NUM_RE.match(factor):
            try:
                value = field.parse(factor)
            except ZeroDivisionError:
                raise PolynomialParseError(
                    f"coefficient {factor!r} has a denominator that is zero in {field!r}"
                ) from None
            coeff = field.mul(coeff, value)
            continue
        m = _VAR_RE.match(factor)
        if not m:
            raise PolynomialParseError(f"cannot parse factor {factor!r}")
        exps[_variable_index(ring, m.group(1))] += int(m.group(2) or 1)
    if sign < 0:
        coeff = field.neg(coeff)
    return tuple(exps), coeff


def _variable_index(ring, digits):
    """Resolve a variable token: a declared name wins (so polynomials from
    derived rings round-trip), otherwise the digits are the position."""
    name = f"x{digits}"
    if name in ring.names:
        return ring.names.index(name)
    idx = int(digits)
    if idx >= ring.nvars:
        raise PolynomialParseError(
            f"variable {name} outside ring with variables {', '.join(ring.names)}"
        )
    return idx


def ideal_file_lines(text):
    """The stripped lines of an ideal file, less blank lines and ``#``
    comments: the one line rule of every file the CLI reads."""
    return [line for line in map(str.strip, text.splitlines())
            if line and not line.startswith("#")]


def random_form(ring, degree, rng):
    """A random homogeneous form of the given degree (dense, nonzero)."""
    field = ring.field
    while True:
        terms = {}
        for m in ring.monomials_of_degree(degree):
            c = field.random(rng)
            if c != field.zero:
                terms[m] = c
        if terms:
            return Polynomial(ring, terms)
