"""Ring contexts and exponent-tuple monomial utilities.

Monomials are bare tuples of non-negative ints of length ``ring.nvars``; the
degree is the tuple sum.  The ring context owns the one table per (degree,
order) of each graded piece -- its monomials greatest first, their positions
and the suffix sums of their exponents that rank their multiples -- which every
dense computation indexes into, and the lex multiply-by-variable maps between
consecutive degrees built from it.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from typing import NamedTuple

import numpy as np

from .orders import Lex

_LEX = Lex()


def mono_degree(m):
    return sum(m)


def mono_mul(m, n):
    return tuple(a + b for a, b in zip(m, n))


def mono_divides(m, n):
    """True if x^m divides x^n."""
    return all(a <= b for a, b in zip(m, n))


def mono_div(m, n):
    """Exponent tuple of x^m / x^n; requires divisibility."""
    out = tuple(a - b for a, b in zip(m, n))
    if any(e < 0 for e in out):
        raise ValueError("monomial division with negative exponent")
    return out


def mono_lcm(m, n):
    return tuple(a if a > b else b for a, b in zip(m, n))


def _enumerate_degree(nvars, d):
    """Degree-d exponent tuples in descending lex order."""
    if nvars == 0:
        return [()] if d == 0 else []
    if nvars == 1:
        return [(d,)]
    out = []
    for e in range(d, -1, -1):
        for rest in _enumerate_degree(nvars - 1, d - e):
            out.append((e,) + rest)
    return out


def _lex_rank_table(nvars, d):
    """table[t - 1, T] = C(T + t - 1, t), for 1 <= t < nvars and T <= d.

    A degree-d monomial whose last t exponents sum to T_t has descending-lex
    rank sum_t C(T_t + t - 1, t) (the combinatorial number system), and
    every entry is below the piece size C(d + nvars - 1, nvars - 1), so the
    ranks are exact in int64 wherever the piece itself fits in memory."""
    table = [[comb(T + t - 1, t) for T in range(d + 1)] for t in range(1, nvars)]
    return np.array(table, dtype=np.int64).reshape(nvars - 1, d + 1)


def _lex_ranks(table, suffix_sums, delta):
    """Lex ranks of the monomials with these suffix sums times x^delta.

    The last t exponents of m*x^delta sum to T_t(m) + D_t, so its rank is
    sum_t C(T_t(m) + D_t + t - 1, t): one table column per t, read at the
    suffix sums of m shifted by those of delta."""
    rank = np.zeros(suffix_sums.shape[1], dtype=np.int64)
    for column, sums, shift in zip(table, suffix_sums, accumulate(reversed(delta[1:]))):
        rank += column[sums + shift]
    return rank


class GradedPiece(NamedTuple):
    """The degree-d monomials of a ring, greatest first under one order.
    Shared by every caller on the ring, so read-only."""

    monomials: tuple
    index: dict  # monomial -> position in ``monomials``
    suffix_sums: np.ndarray  # row t - 1: sum of the last t exponents of each monomial
    rank_table: np.ndarray  # _lex_rank_table(nvars, d)
    by_lex_rank: np.ndarray  # position in ``monomials`` of the k-th lex monomial

    def positions_times(self, src, delta):
        """``index`` of each monomial of the piece ``src`` times x^delta."""
        return self.by_lex_rank[_lex_ranks(self.rank_table, src.suffix_sums, delta)]


class RingContext:
    """A polynomial ring k[x0..x{n-1}]: variable count, names, and the
    coefficient field.  Immutable after creation; every polynomial refers to
    exactly one context."""

    __slots__ = ("nvars", "field", "names", "_graded", "_shifts", "_small")

    def __init__(self, nvars, field, names=None):
        if nvars < 1:
            raise ValueError("ring needs at least one variable")
        if names is None:
            names = tuple(f"x{i}" for i in range(nvars))
        else:
            names = tuple(names)
        if len(names) != nvars or len(set(names)) != nvars:
            raise ValueError("variable names must be distinct and match nvars")
        self.nvars = nvars
        self.field = field
        self.names = names
        self._graded = {}
        self._shifts = {}
        self._small = None

    def __eq__(self, other):
        return (
            isinstance(other, RingContext)
            and other.nvars == self.nvars
            and other.field == self.field
            and other.names == self.names
        )

    def __hash__(self):
        return hash((self.nvars, self.field, self.names))

    def __repr__(self):
        return f"RingContext({','.join(self.names)}; {self.field})"

    def monomial_count(self, d):
        return comb(self.nvars - 1 + d, self.nvars - 1)

    def graded_piece(self, d, order=_LEX):
        """The degree-d monomials greatest first under ``order``, their index
        map and the tables that rank their multiples; cached on the ring per
        (degree, order)."""
        key = (d, order)
        piece = self._graded.get(key)
        if piece is None:
            mons = _enumerate_degree(self.nvars, d)  # already descending lex
            if order != _LEX:
                mons.sort(key=order.sort_key)
            mons = tuple(mons)
            exps = np.array(mons, dtype=np.int64)
            suffix = np.ascontiguousarray(np.cumsum(exps[:, :0:-1], axis=1).T)
            table = _lex_rank_table(self.nvars, d)
            by_lex = np.empty(len(mons), dtype=np.int64)
            by_lex[_lex_ranks(table, suffix, (0,) * self.nvars)] = np.arange(len(mons))
            for array in (suffix, by_lex):
                array.setflags(write=False)
            index = {m: i for i, m in enumerate(mons)}
            piece = GradedPiece(mons, index, suffix, table, by_lex)
            self._graded[key] = piece
        return piece

    def variable_shifts(self, d):
        """Row j: the lex positions in degree d + 1 of the degree-d monomials
        times x_j, an int64 array of shape (nvars, monomial_count(d));
        cached on the ring per degree."""
        shifts = self._shifts.get(d)
        if shifts is None:
            src, dst = self.graded_piece(d), self.graded_piece(d + 1)
            unit = np.eye(self.nvars, dtype=np.int64)
            shifts = np.stack([dst.positions_times(src, e) for e in unit])
            shifts.setflags(write=False)
            self._shifts[d] = shifts
        return shifts

    def monomials_of_degree(self, d):
        """All degree-d monomials in descending lex order (cached)."""
        return self.graded_piece(d).monomials

    def drop_first_variable(self):
        """The context in one fewer variable (the image ring of projection
        from the first coordinate point); cached on the parent."""
        if self.nvars < 2:
            raise ValueError("cannot drop the only variable")
        if self._small is None:
            self._small = RingContext(self.nvars - 1, self.field, self.names[1:])
        return self._small

    def monomial_str(self, m):
        if not any(m):
            return "1"
        parts = []
        for name, e in zip(self.names, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)
