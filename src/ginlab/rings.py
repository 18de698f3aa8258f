"""Ring contexts and exponent-tuple monomial utilities.

Monomials are bare tuples of non-negative ints of length ``ring.nvars``; the
degree is the tuple sum.  The ring context owns the one table per (degree,
order) of each graded piece -- its monomials greatest first and the rank
columns of their exponents -- which every dense computation indexes into.
One numbering serves every order: a monomial's lex rank, computed from the
suffix sums of its exponents by the combinatorial number system.  A piece
is built by unranking lex ranks 0..N-1 and sorting the rows under its
order, and a monomial is located in it by ranking, so no piece keeps a
monomial-to-position dict.  A multiple m*x^delta is located the same way,
from the rank columns of m shifted by delta, so a dense reduction step
ranks only the support of its reducer.  The one map the ring caches is the
tuple of unit shifts per (degree, order), the positions of the degree-d
monomials times each variable, which divisor tables, the substitution of a
coordinate change, the vanishing ideal and segment closure all reuse.
"""

from __future__ import annotations

from itertools import accumulate, chain
from math import comb
from operator import le, sub
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
    return all(map(le, m, n))


def mono_div(m, n):
    """Exponent tuple of x^m / x^n; requires divisibility."""
    out = tuple(map(sub, m, n))
    if min(out) < 0:
        raise ValueError("monomial division with negative exponent")
    return out


def mono_lcm(m, n):
    return tuple(a if a > b else b for a, b in zip(m, n))


def _lex_rank_table(nvars, d):
    """table[t - 1, T] = C(T + t - 1, t), for 1 <= t < nvars and T <= d.

    A degree-d monomial whose last t exponents sum to T_t has descending-lex
    rank sum_t C(T_t + t - 1, t) (the combinatorial number system), and
    every entry is below the piece size C(d + nvars - 1, nvars - 1), so the
    ranks are exact in int64 wherever the piece itself fits in memory."""
    table = [[comb(T + t - 1, t) for T in range(d + 1)] for t in range(1, nvars)]
    return np.array(table, dtype=np.int64).reshape(nvars - 1, d + 1)


def _suffix_sums(exps):
    """Row t - 1: the sum of the last t exponents of each row of ``exps``."""
    return np.ascontiguousarray(np.cumsum(exps[:, :0:-1], axis=1).T)


def _exponents(suffix_sums, d):
    """The (N, nvars) exponent matrix of degree-d monomials with these
    suffix sums: the last exponent is T_1, exponent n - t is T_t - T_{t-1},
    and the first is d - T_{n-1}."""
    count = suffix_sums.shape[1]
    sums = np.vstack([np.zeros((1, count), np.int64), suffix_sums, np.full((1, count), d)])
    return np.ascontiguousarray(np.diff(sums, axis=0)[::-1].T)


def _unrank(table, count):
    """Suffix sums of the degree-d monomials of lex ranks 0..count-1
    (``table`` is ``_lex_rank_table(nvars, d)``).  The rank
    sum_t C(T_t + t - 1, t) is a combinadic, so it is decoded greedily from
    t = nvars - 1 down: T_t is the last T whose table entry fits in what is
    left of the rank."""
    rest = np.arange(count, dtype=np.int64)
    suffix = np.empty((len(table), count), dtype=np.int64)
    for t in range(len(table), 0, -1):
        suffix[t - 1] = np.searchsorted(table[t - 1], rest, side="right") - 1
        rest -= table[t - 1, suffix[t - 1]]
    return suffix


def _rank_columns(suffix_sums, d):
    """Row t - 1: (t - 1)(d + 1) + T_t, the index of C(T_t + t - 1, t) in the
    flattened ``_lex_rank_table(nvars, d)``, for each column of suffix sums."""
    return suffix_sums + np.arange(0, len(suffix_sums) * (d + 1), d + 1)[:, None]


class GradedPiece(NamedTuple):
    """The degree-d monomials of a ring, greatest first under one order.  A
    monomial's lex rank is the sum of ``rank_table`` at its rank columns,
    and its position is ``by_lex_rank`` there.  The last t exponents of
    m*x^delta sum to T_t(m) + D_t, so the columns of a multiple are those of
    m shifted row by row.  Shared by every caller on the ring, so read-only."""

    monomials: tuple
    columns: np.ndarray  # the _rank_columns of each monomial
    rank_table: np.ndarray  # _lex_rank_table(nvars, d), flattened
    by_lex_rank: np.ndarray  # position in ``monomials`` of the k-th lex monomial

    def positions_at(self, columns):
        """Position of each monomial of the piece's degree with these rank
        columns (one column per monomial)."""
        return self.by_lex_rank[np.add.reduce(self.rank_table.take(columns), 0)]

    def positions(self, monomials):
        """Position in ``monomials`` of each of these exponent tuples, all of
        the piece's degree."""
        nvars = len(self.columns) + 1
        exps = np.fromiter(chain.from_iterable(monomials), np.int64, len(monomials) * nvars)
        suffix = _suffix_sums(exps.reshape(-1, nvars))
        return self.positions_at(_rank_columns(suffix, sum(self.monomials[0])))

    def positions_times(self, src, delta):
        """Position of each monomial of the piece ``src`` times x^delta: row
        t - 1 moves by D_t, and by (t - 1)|delta| for this piece's wider rows."""
        shift = [D + t * sum(delta) for t, D in enumerate(accumulate(reversed(delta[1:])))]
        return self.positions_at(src.columns + np.array(shift, dtype=np.int64)[:, None])


class RingContext:
    """A polynomial ring k[x0..x{n-1}]: variable count, names, and the
    coefficient field.  Immutable after creation; every polynomial refers to
    exactly one context."""

    __slots__ = ("nvars", "field", "names", "_graded", "_shifts", "_small", "_units")

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
        self._units = tuple(tuple(int(i == j) for i in range(nvars)) for j in range(nvars))

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
        """The degree-d monomials greatest first under ``order`` and the
        tables that rank them and their multiples; cached on the ring per
        (degree, order).  Every piece is built the same way: unranking lex
        ranks 0..N-1 gives the suffix sums and so the exponent matrix of the
        whole degree, and one ``np.lexsort`` over the order's
        ``key_columns`` orders its rows (the identity under lex)."""
        key = (d, order)
        piece = self._graded.get(key)
        if piece is None:
            table = _lex_rank_table(self.nvars, d)
            lex_suffix = _unrank(table, self.monomial_count(d))
            exps = _exponents(lex_suffix, d)
            perm = np.lexsort(order.key_columns(exps)[::-1])  # lexsort's primary key is its last
            mons = tuple(map(tuple, exps[perm].tolist()))
            columns = _rank_columns(lex_suffix[:, perm], d)
            by_lex = np.empty(len(mons), dtype=np.int64)
            by_lex[perm] = np.arange(len(mons))
            piece = GradedPiece(mons, columns, table.ravel(), by_lex)
            for array in piece[1:]:
                array.setflags(write=False)
            self._graded[key] = piece
        return piece

    def variable_shifts(self, d, order=_LEX):
        """Entry j: the positions in the degree d + 1 piece under ``order``
        of the degree-d monomials times x_j, as read-only int64 arrays;
        cached on the ring per (degree, order)."""
        key = (d, order)
        shifts = self._shifts.get(key)
        if shifts is None:
            src, dst = self.graded_piece(d, order), self.graded_piece(d + 1, order)
            shifts = tuple(dst.positions_times(src, unit) for unit in self._units)
            for shift in shifts:
                shift.setflags(write=False)
            self._shifts[key] = shifts  # published read-only
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
