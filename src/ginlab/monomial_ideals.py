"""Monomial ideals: minimal generators, membership, Hilbert series and the
Borel property.

The Hilbert series of S/J is computed exactly as N(t)/(1-t)^n by the
standard splitting recursion; dimension and degree are read off the
numerator (pole order at t=1 and value of the reduced numerator there).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import comb

import numpy as np

from .orders import Lex, variable_ranking
from .rings import mono_degree, mono_divides


class SelfCheckFailed(RuntimeError):
    """Raised when a computed result fails the re-check that certifies it:
    a defect in the computation, never in its input."""


def minimalize_monomials(gens):
    """Drop generators divisible by another; deterministic canonical sort."""
    unique = sorted(set(tuple(g) for g in gens), key=_canon_key)
    out = []
    for m in unique:
        if not any(mono_divides(g, m) for g in out):
            out.append(m)
    return tuple(out)


def _canon_key(m):
    return (mono_degree(m), tuple(-e for e in m))


#: Query-generator pairs compared at once by :meth:`MonomialIdeal.membership`.
_MEMBERSHIP_CHUNK = 1 << 16


class MonomialIdeal:
    """A monomial ideal held by its minimal generators, canonically sorted
    (degree, then descending lex), and by their exponent matrix.  Immutable,
    so :func:`hilbert_numerator` keeps its result in the ``_numerator``
    slot."""

    __slots__ = ("ring", "gens", "_exps", "_numerator")

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = minimalize_monomials(gens)
        self._numerator = None
        for g in self.gens:
            if len(g) != ring.nvars:
                raise ValueError("generator length does not match ring")
        self._exps = np.array(self.gens, dtype=np.int64).reshape(len(self.gens), ring.nvars)
        self._exps.setflags(write=False)

    @classmethod
    def from_strings(cls, ring, texts):
        from .poly import parse_polynomial

        gens = []
        for t in texts:
            f = parse_polynomial(t, ring)
            if len(f.terms) != 1:
                raise ValueError(f"{t!r} is not a monomial")
            gens.append(next(iter(f.terms)))
        return cls(ring, gens)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and other.ring == self.ring
            and other.gens == self.gens
        )

    def __hash__(self):
        return hash((self.ring, self.gens))

    def __repr__(self):
        return f"MonomialIdeal({self})"

    def __str__(self):
        if not self.gens:
            return "(0)"
        return "(" + ", ".join(self.ring.monomial_str(g) for g in self.gens) + ")"

    @property
    def is_zero(self):
        return not self.gens

    def membership(self, monomials):
        """Whether each monomial lies in the ideal, as a boolean array: one
        broadcast comparison of the queries (exponent tuples or the rows of
        an int array) against every generator, in bounded chunks."""
        queries = np.asarray(monomials, dtype=np.int64).reshape(-1, self.ring.nvars)
        out = np.empty(len(queries), dtype=bool)
        step = max(1, _MEMBERSHIP_CHUNK // max(1, len(self.gens)))
        for start in range(0, len(queries), step):
            block = queries[start:start + step, None]
            out[start:start + step] = (self._exps <= block).all(axis=2).any(axis=1)
        return out

    def monomials_of_degree(self, d):
        """Degree-d monomials inside the ideal, canonical order."""
        mons = self.ring.monomials_of_degree(d)
        return tuple(compress(mons, self.membership(mons)))

    def max_generator_degree(self):
        if not self.gens:
            return 0
        return max(mono_degree(g) for g in self.gens)

    def generator_strings(self):
        return tuple(self.ring.monomial_str(g) for g in self.gens)


# ----------------------------------------------------------------------
# Borel property


def is_borel_fixed(J: MonomialIdeal, order=Lex()) -> bool:
    """True if (m / x_i) * x_j is in J for every monomial m of J, x_i | m and
    x_j ranked above x_i, in the ranking ``order`` gives the variables (see
    :func:`variable_ranking`).  A gin under an order is Borel-fixed for that
    order's ranking.  Only generators and adjacent x_j are tested: a move on
    m * w moves a variable of the generator m, or one of w, which leaves a
    multiple of m, and every move is a chain of adjacent ones.  Every move
    of every generator goes to one :meth:`MonomialIdeal.membership` call."""
    nvars = J.ring.nvars
    ranking = variable_ranking(order, nvars)
    steps = np.zeros((nvars - 1, nvars), dtype=np.int64)
    for k, (j, i) in enumerate(zip(ranking, ranking[1:])):
        steps[k, j], steps[k, i] = 1, -1
    moved = J._exps[None] + steps[:, None]  # (step, generator, variable)
    return bool(J.membership(moved[(moved >= 0).all(axis=2)]).all())


# ----------------------------------------------------------------------
# Hilbert series


def hilbert_numerator(J: MonomialIdeal):
    """Numerator N(t) of the Hilbert series N(t)/(1-t)^n of S/J, as a
    coefficient tuple over the integers; computed once per ideal."""
    if J._numerator is None:
        acc = {}
        _hs_recurse(list(J.gens), 0, 1, acc, J.ring.nvars)
        out = [0] * (max(acc, default=0) + 1)
        for k, v in acc.items():
            out[k] = v
        J._numerator = tuple(out)
    return J._numerator


def _hs_recurse(gens, shift, sign, acc, nvars):
    gens = list(minimalize_monomials(gens))
    if not gens:
        acc[shift] = acc.get(shift, 0) + sign
        return
    if not any(gens[0]):  # unit ideal
        return
    if _supports_disjoint(gens):
        # N = prod (1 - t^deg)
        poly = {0: 1}
        for g in gens:
            d = mono_degree(g)
            nxt = {}
            for k, v in poly.items():
                nxt[k] = nxt.get(k, 0) + v
                nxt[k + d] = nxt.get(k + d, 0) - v
            poly = nxt
        for k, v in poly.items():
            if v:
                acc[shift + k] = acc.get(shift + k, 0) + sign * v
        return
    # pivot on the most frequent variable among non-pure-power generators
    counts = [0] * nvars
    for g in gens:
        if sum(1 for e in g if e) > 1:
            for i, e in enumerate(g):
                if e:
                    counts[i] += 1
    var = counts.index(max(counts))
    # J + (x): generators not divisible by x survive, plus x itself
    plus = [g for g in gens if g[var] == 0]
    plus.append(tuple(1 if i == var else 0 for i in range(nvars)))
    # J : x, shifted by t
    colon = [tuple(e - 1 if i == var and e > 0 else e for i, e in enumerate(g)) for g in gens]
    _hs_recurse(plus, shift, sign, acc, nvars)
    _hs_recurse(colon, shift + 1, sign, acc, nvars)


def _supports_disjoint(gens):
    seen = set()
    for g in gens:
        sup = {i for i, e in enumerate(g) if e}
        if sup & seen:
            return False
        seen |= sup
    return True


def _divide_one_minus_t(numer):
    """Exact division of a coefficient list by (1 - t); None if not divisible."""
    if sum(numer) != 0:
        return None
    out = []
    run = 0
    for c in numer[:-1]:
        run += c
        out.append(run)
    return out or [0]


@dataclass(frozen=True)
class HilbertFunction:
    """Values h(d) = dim (S/I)_d for d = 0..bound, plus the eventual constant
    when the quotient has dimension <= 1 (None otherwise)."""

    dims: tuple
    bound: int
    stable_value: object = None

    def h(self, d):
        if d <= self.bound:
            return self.dims[d]
        if self.stable_value is not None and all(
            v == self.stable_value for v in self.dims[-2:]
        ):
            return self.stable_value
        raise ValueError(f"Hilbert function only computed up to degree {self.bound}")

    def ideal_dimension(self, ring, d):
        """dim I_d for the ideal this is the quotient Hilbert function of."""
        return ring.monomial_count(d) - self.h(d)


@dataclass(frozen=True)
class HilbertData:
    hf: HilbertFunction
    dimension: int
    degree: int
    numerator: tuple


def hilbert_data(J: MonomialIdeal, bound: int) -> HilbertData:
    """Exact Hilbert information of S/J: function values to ``bound``, Krull
    dimension (pole order at t=1), and degree (reduced numerator at t=1)."""
    numer = hilbert_numerator(J)
    n = J.ring.nvars
    reduced = list(numer)
    poles = 0
    while any(reduced):
        nxt = _divide_one_minus_t(reduced)
        if nxt is None:
            break
        reduced = nxt
        poles += 1
    if not any(numer):
        dimension = -1  # S/J = 0
        degree = 0
    else:
        dimension = n - poles
        degree = sum(reduced)
    dims = [series_value(numer, n, d) for d in range(bound + 1)]
    stable = None
    if dimension <= 0:
        stable = 0
    elif dimension == 1:
        stable = degree
    return HilbertData(HilbertFunction(tuple(dims), bound, stable), dimension, degree, tuple(numer))


def series_value(numer, nvars, d):
    """Coefficient of t^d in numer(t) / (1-t)^nvars: dim (S/J)_d when numer
    is the Hilbert numerator of S/J."""
    return sum(
        numer[j] * comb(nvars - 1 + d - j, nvars - 1) for j in range(min(d, len(numer) - 1) + 1)
    )
