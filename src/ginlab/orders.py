"""Degree-compatible term orders on exponent-tuple monomials.

Every order compares total degree first; the within-degree refinement is what
distinguishes them.  Each order exposes ``sort_key(exponents)`` such that
sorting by the key ascending lists monomials in *descending* order (greatest
first), which is the convention used throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Lex:
    """Lexicographic order (degree first, then leftmost difference)."""

    def sort_key(self, exps):
        return (-sum(exps), tuple(-e for e in exps))

    def __str__(self):
        return "lex"


@dataclass(frozen=True)
class Revlex:
    """Degree reverse lexicographic order (rightmost difference, negated)."""

    def sort_key(self, exps):
        return (-sum(exps), tuple(reversed(exps)))

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

    def __str__(self):
        return "product(" + ",".join(map(str, self.block_sizes)) + ")"


def elimination_order(nvars, inner=None):
    """Product order eliminating the first variable, with ``inner`` on the
    remaining ones (defaults to revlex, the cheap choice).  A lex inner order
    gives ``Lex()`` itself: a product of lex blocks compares exponents
    variable by variable, as lex does, so both share one Groebner basis and
    one table per graded piece."""
    if nvars < 2:
        raise ValueError("elimination must leave at least one variable")
    if inner is None:
        inner = Revlex()
    if isinstance(inner, Lex):
        return inner
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
