"""Finite point sets, their vanishing ideals, and evaluation matrices.

Vanishing ideals are assembled from per-degree kernels of the evaluation
matrix X_d (rows = points, columns = degree-d monomials in descending lex
order): exact, simple, and independently checkable.  The pieces stop at
the regularity reg = d0 + 1, where d0 is the first degree in which the
Hilbert function reaches the point count s (so d0 < s); past it every
graded piece is S_1 times the one below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from . import linalg
from .groebner import DEFAULT_DEGREE_CAP, Ideal
from .poly import Polynomial
from .rings import RingContext


@dataclass(frozen=True)
class PointSet:
    """s projective points given by coordinate tuples of length r+1; no zero
    tuples, pairwise distinct projectively."""

    field: object
    points: tuple

    def __post_init__(self):
        if not self.points:
            raise ValueError("point set is empty")
        length = len(self.points[0])
        for pt in self.points:
            if len(pt) != length:
                raise ValueError("points have inconsistent coordinate length")
            if all(c == self.field.zero for c in pt):
                raise ValueError("the zero tuple is not a projective point")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points are not pairwise distinct")
        for a, b in combinations(self.points, 2):
            if _proportional(self.field, a, b):
                raise ValueError("points are not projectively distinct")

    @property
    def size(self):
        return len(self.points)

    @property
    def r(self):
        return len(self.points[0]) - 1

    def ring(self):
        return RingContext(self.r + 1, self.field)


def _proportional(field, a, b):
    lead = next(i for i, c in enumerate(a) if c != field.zero)
    if b[lead] == field.zero:
        return False
    ratio = field.div(b[lead], a[lead])
    return all(field.mul(x, ratio) == y for x, y in zip(a, b))


def random_points(s, r, seed, field):
    """s distinct points with uniform coordinates, normalized to last
    coordinate 1 (so distinct tuples are distinct projectively);
    deterministic in the seed.  Over F_p only p^r such points exist, so
    s > p^r (or r < 1) raises ValueError rather than redraw forever."""
    if r < 1:
        raise ValueError(f"random points need r >= 1, got r = {r}")
    if field.is_prime_field and s > field.p**r:
        raise ValueError(f"cannot draw {s} distinct points of P^{r} with last coordinate 1 "
                         f"over F_{field.p}: only {field.p**r} exist")
    rng = random.Random(seed)
    pts = set()
    while len(pts) < s:
        pts.add(tuple(field.random(rng) for _ in range(r)) + (field.one,))
    return PointSet(field, tuple(sorted(pts, key=str)))


def evaluation_matrix(P: PointSet, d, ring=None):
    """The s x C(r+d, r) matrix of degree-d monomials (descending lex order)
    evaluated at the points."""
    ring = ring if ring is not None else P.ring()
    field = P.field
    mons = ring.monomials_of_degree(d)
    rows = []
    for pt in P.points:
        row = []
        for m in mons:
            v = field.one
            for coord, e in zip(pt, m):
                for _ in range(e):
                    v = field.mul(v, coord)
            row.append(v)
        rows.append(row)
    return rows


class DegeneratePointsError(Exception):
    pass


def vanishing_ideal(P: PointSet, degree_cap=DEFAULT_DEGREE_CAP):
    """The homogeneous ideal of the point set, generated by a minimal basis
    of its graded pieces, with ``degree_cap`` as its degree cap (see
    :class:`Ideal`).

    The Hilbert function of s reduced points rises strictly until it first
    equals s in some degree d0, and reg I = d0 + 1, so every minimal
    generator has degree at most d0 + 1 and the pieces stop there.  No
    degree bound is needed: s distinct points impose independent conditions
    on forms of degree s - 1, so h(s - 1) = s and d0 + 1 <= s.

    Raises DegeneratePointsError if the Hilbert function fails to stay at s
    by degree s."""
    ring = P.ring()
    s = P.size
    field = P.field
    gens = []
    prev_kernel = []
    hf = [1]
    for d in range(1, s + 1):
        mons = ring.monomials_of_degree(d)
        x_d = evaluation_matrix(P, d, ring)
        kernel = linalg.kernel_basis(field, x_d, len(mons))
        hf.append(len(mons) - len(kernel))
        # seed an echelon with the span of S_1 * I_{d-1}, each x_i * f
        # scattered through the ring's shift map; kernel vectors that still
        # enlarge it are the new minimal generators in degree d
        echelon = linalg.Echelon(field)
        shifts = [shift.tolist() for shift in ring.variable_shifts(d - 1)]
        for vec in prev_kernel:
            for shift in shifts:
                row = [field.zero] * len(mons)
                for k, c in zip(shift, vec):
                    row[k] = c
                echelon.add(row)
        for vec in kernel:
            if echelon.add(vec):
                gens.append(_vector_to_poly(ring, mons, vec))
        prev_kernel = kernel
        if hf[d - 1] == s:  # d - 1 = d0, so d is the regularity
            break
    if hf[-2:] != [s, s]:
        raise DegeneratePointsError(
            f"Hilbert function {hf} fails to stabilize at {s} points by degree {s}"
        )
    return Ideal(gens, ring, degree_cap)


def _vector_to_poly(ring, mons, vec):
    field = ring.field
    return Polynomial(ring, {m: c for m, c in zip(mons, vec) if c != field.zero})
