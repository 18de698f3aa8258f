"""Degree-compatible term orders on exponent-tuple monomials.

Every order compares total degree first; the within-degree refinement is what
distinguishes them.  Each order ranks monomials two ways, and both list them
*descending* (greatest first), the convention used throughout the package:

- ``sort_key(exponents)`` is a key for one tuple, sorted ascending.  Scalar
  callers use it: a polynomial's leading term, Buchberger's pair selection
  and its final sort, ``variable_ranking``.
- ``key_columns(exps)`` takes an (N, nvars) int64 exponent matrix and returns
  the same key as columns, most significant first: ascending lexicographic
  order over the columns is ascending ``sort_key`` order.  A whole graded
  piece is ordered by one ``np.lexsort`` over them
  (``RingContext.graded_piece``), with no Python tuple per monomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _degree_column(exps):
    return -exps.sum(axis=1)


@dataclass(frozen=True)
class Lex:
    """Lexicographic order (degree first, then leftmost difference)."""

    def sort_key(self, exps):
        return (-sum(exps), tuple(-e for e in exps))

    def key_columns(self, exps):
        return [_degree_column(exps), *(-exps.T)]

    def __str__(self):
        return "lex"


@dataclass(frozen=True)
class Revlex:
    """Degree reverse lexicographic order (rightmost difference, negated)."""

    def sort_key(self, exps):
        return (-sum(exps), tuple(reversed(exps)))

    def key_columns(self, exps):
        return [_degree_column(exps), *exps.T[::-1]]

    def __str__(self):
        return "revlex"


@dataclass(frozen=True)
class WeightOrder:
    """Order by a strictly positive integer weight vector, with a mandatory
    tiebreak order (otherwise ties would break the well-ordering)."""

    weights: tuple
    tiebreak: object

    def __post_init__(self):
        if not self.weights or any(w <= 0 or w != int(w) for w in self.weights):
            raise ValueError("weights must be positive integers")
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if self.tiebreak is None:
            raise ValueError("weight orders require a tiebreak order")

    def sort_key(self, exps):
        if len(exps) != len(self.weights):
            raise ValueError("weight vector length does not match variable count")
        w = sum(a * b for a, b in zip(self.weights, exps))
        return (-sum(exps), -w, self.tiebreak.sort_key(exps))

    def key_columns(self, exps):
        if exps.shape[1] != len(self.weights):
            raise ValueError("weight vector length does not match variable count")
        # int64 holds w.e while every weight and the degree stay below 2**31
        dtype = np.int64 if max(self.weights) < 2**31 else object
        w = exps.astype(dtype) @ np.array(self.weights, dtype=dtype)
        return [_degree_column(exps), -w, *self.tiebreak.key_columns(exps)]

    def __str__(self):
        return "weight:" + ",".join(str(w) for w in self.weights)


@dataclass(frozen=True)
class ProductOrder:
    """Block/product order: compare the leading block of variables by its
    inner order, then the next block, and so on.  With ``block_sizes=(1, r)``
    this is an elimination order for the first variable."""

    block_sizes: tuple
    inners: tuple

    def __post_init__(self):
        if len(self.block_sizes) != len(self.inners):
            raise ValueError("one inner order per block required")
        if any(s < 1 for s in self.block_sizes):
            raise ValueError("block sizes must be positive")

    def sort_key(self, exps):
        if len(exps) != sum(self.block_sizes):
            raise ValueError("block sizes do not match variable count")
        parts = []
        start = 0
        for size, inner in zip(self.block_sizes, self.inners):
            parts.append(inner.sort_key(exps[start:start + size]))
            start += size
        return (-sum(exps), tuple(parts))

    def key_columns(self, exps):
        if exps.shape[1] != sum(self.block_sizes):
            raise ValueError("block sizes do not match variable count")
        columns = [_degree_column(exps)]
        start = 0
        for size, inner in zip(self.block_sizes, self.inners):
            columns += inner.key_columns(exps[:, start:start + size])
            start += size
        return columns

    def __str__(self):
        return "product(" + ",".join(map(str, self.block_sizes)) + ")"


def elimination_order(nvars, inner=None):
    """Product order eliminating the first variable, with ``inner`` on the
    remaining ones (defaults to revlex, the cheap choice).

    Where that product is lex it is built as ``Lex()`` itself, so it shares
    lex's Groebner bases, graded pieces and multiplication maps:
    - under a lex inner order, since a product of lex blocks compares
      exponents variable by variable, as lex does;
    - under a revlex inner order in at most 3 variables, since revlex on the
      at most two remaining variables is lex (Cox-Little-O'Shea, *Ideals,
      Varieties, and Algorithms*, ch. 3 sec. 1): two monomials of one degree
      compare by their last exponent, the smaller one winning, which is by
      the first, the larger one winning.  So counting K_1's points in P^2
      eliminates under lex."""
    if nvars < 2:
        raise ValueError("elimination must leave at least one variable")
    if inner is None:
        inner = Revlex()
    if isinstance(inner, Lex) or (isinstance(inner, Revlex) and nvars <= 3):
        return Lex()
    return ProductOrder((1, nvars - 1), (Lex(), inner))


def variable_ranking(order, nvars):
    """The variable indices, greatest first, as ``order`` ranks the degree-1
    monomials x0..x_{nvars-1}: (0, 1, ..., nvars-1) under lex and revlex,
    (2, 1, 0) under ``weight:1,2,3``."""
    units = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    return tuple(sorted(range(nvars), key=lambda i: order.sort_key(units[i])))


def order_from_spec(spec: str, nvars: int):
    """Parse a CLI order name: lex | revlex | weight:<w,...> | elim."""
    spec = spec.strip().lower()
    if spec == "lex":
        return Lex()
    if spec == "revlex":
        return Revlex()
    if spec == "elim":
        return elimination_order(nvars)
    if spec.startswith("weight:"):
        weights = tuple(int(w) for w in spec[len("weight:"):].split(","))
        if len(weights) != nvars:
            raise ValueError(f"weight vector needs {nvars} entries")
        return WeightOrder(weights, Lex())
    raise ValueError(f"unknown order {spec!r}")
