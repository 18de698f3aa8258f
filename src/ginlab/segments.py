"""Segment spaces and segment ideals, Macaulay lex ideals, Borel-fixed
enumeration by Hilbert function, and weight-order segment witnesses.

The degree-d segment for an order is the span of the top dim I_d monomials;
taking it in every degree gives a graded monomial space that is an ideal
for lex (Macaulay) but not in general.  A segment ideal is read off its
standard sets, the h(d) smallest monomials of each degree, and no graded
piece.  Whether a monomial ideal is a segment for *some* degree-compatible
weight order reduces to an exact strict-inequality feasibility problem
solved by Fourier-Motzkin: positive weights w with min w . m over the
ideal's degree-d monomials above max w . n over the others, in each
degree.  Only the monomials that may be extreme on their side enter it.
A minimum or maximum of w . m over a finite set is reached at a vertex of
its convex hull, and a vertex is never the midpoint m of two other members
m + v and m - v, so dropping such midpoints (for v = e_i - e_j) leaves the
set of solutions as it is.  ``feasible_point`` back-substitutes the
greatest lower and least upper bound of each projection of that set, so
the weights it returns do not move either.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .fourier_motzkin import feasible_point, primitive_integers
from .groebner import ResourceLimitExceeded
from .monomial_ideals import (
    HilbertFunction, MonomialIdeal, SelfCheckFailed, hilbert_data, is_borel_fixed,
)
from .orders import Lex, variable_ranking


@dataclass(frozen=True)
class SegmentSpace:
    """The u order-greatest monomials of one degree (an upper set within the
    degree: anything larger than a member is a member)."""

    degree: int
    monomials: tuple


def segment_space(d, u, order, ring) -> SegmentSpace:
    piece = ring.graded_piece(d, order)
    if not 0 <= u <= len(piece.exponents):
        raise ValueError(f"segment size {u} out of range for degree {d}")
    return SegmentSpace(d, piece.monomials(slice(u)))


@dataclass(frozen=True)
class SegmentIdealResult:
    """Whether the segments of a Hilbert function close under multiplication
    by linear forms and, if so, the ideal they span up to the bound."""

    is_ideal: bool
    ideal: MonomialIdeal | None

    def monomial_ideal(self) -> MonomialIdeal:
        if not self.is_ideal:
            raise ValueError("segment spaces do not form an ideal")
        return self.ideal


def _moved(m, j, step):
    """m times x_j (step 1) or divided by x_j (step -1)."""
    return m[:j] + (m[j] + step,) + m[j + 1:]


def _expand(monomials, nvars):
    """S_1 times a set of monomials: every m * x_j."""
    return {_moved(m, j, 1) for m in monomials for j in range(nvars)}


def segment_ideal_of(hf: HilbertFunction, order, ring, bound) -> SegmentIdealResult:
    """Whether the segments of ``hf`` close in degrees 0..bound (S_1 * Seg(d)
    inside Seg(d+1)), from the standard sets B_d, the h(d) order-smallest
    monomials of degree d.  With s the least monomial of Seg(d) and x the
    smallest variable, s*x is the least of S_1 * Seg(d) and every monomial
    below it is in S_1 * B_d.  So they close at d if s*x is not among the
    h(d+1) smallest of S_1 * B_d and s*x, which are B_{d+1}; the next is the
    least of Seg(d+1), and the rest of S_1 * B_d whose divisors all lie in
    B_d are the generators of degree d + 1."""
    if bound < 0:
        raise ValueError(f"segment bound must be at least 0, got {bound}")
    sizes = [hf.h(d) for d in range(bound + 1)]
    for d, h in enumerate(sizes):
        if not 0 <= h <= ring.monomial_count(d):
            raise ValueError(f"inconsistent Hilbert function at degree {d}")
    n = ring.nvars
    smallest = variable_ranking(order, n)[-1]
    one = (0,) * n
    # B_0, the least monomial of Seg(0) (None while Seg(d) is empty), generators
    standard, least, gens = ({one}, None, []) if sizes[0] else (set(), one, [one])
    for h in sizes[1:]:
        candidates = _expand(standard, n)
        if least is not None:
            bottom = _moved(least, smallest, 1)
            candidates.add(bottom)
        ranked = sorted(candidates, key=order.sort_key, reverse=True)  # least first
        if least is not None and ranked.index(bottom) < h:
            return SegmentIdealResult(False, None)
        below, standard = standard, set(ranked[:h])
        least = ranked[h] if h < len(ranked) else None
        gens.extend(m for m in ranked[h:]
                    if all(_moved(m, j, -1) in below for j in range(n) if m[j]))
    return SegmentIdealResult(True, MonomialIdeal(ring, gens))


def lex_ideal_of_hf(hf: HilbertFunction, ring, bound) -> MonomialIdeal:
    """The lex-segment ideal with the given Hilbert function (generators
    collected up to ``bound``).  Failure of segment closure certifies the
    input is not an achievable Hilbert function."""
    result = segment_ideal_of(hf, Lex(), ring, bound)
    if not result.is_ideal:
        raise ValueError("lex segments fail ideal closure: not an O-sequence")
    return result.monomial_ideal()


# ----------------------------------------------------------------------
# Borel-fixed enumeration


def enumerate_borel_by_hf(hf: HilbertFunction, ring, bound):
    """All Borel-fixed monomial ideals with the given Hilbert function,
    found by exhaustive degree-by-degree search over Borel-closed monomial
    sets of the required dimension.

    Small instances only (ResourceLimitExceeded beyond them); every
    returned ideal is verified to be Borel-fixed and to reproduce the
    Hilbert function exactly."""
    if ring.nvars > 3 or bound > 10:
        raise ResourceLimitExceeded("enumeration is restricted to <= 3 variables, bound <= 10")
    # branches: (frozen degree-d monomial set, generators found so far)
    branches = [(frozenset(), ())]
    for d in range(1, bound + 1):
        want = hf.ideal_dimension(ring, d)
        mons = ring.monomials_of_degree(d)
        nxt = {}
        for space, gens in branches:
            base = frozenset(_expand(space, ring.nvars))
            if len(base) > want:
                continue
            for filled in _borel_closed_fills(base, want, mons):
                nxt[filled, gens + tuple(sorted(filled - base))] = None
        branches = list(nxt)
        if not branches:
            return []
    out = {}
    for space, gens in branches:
        J = MonomialIdeal(ring, gens)
        if J in out:
            continue
        if not is_borel_fixed(J):
            continue
        data = hilbert_data(J, bound)
        if tuple(data.hf.dims) != tuple(hf.dims[: bound + 1]):
            continue
        if hf.stable_value is not None and data.hf.stable_value != hf.stable_value:
            continue
        out[J] = None
    return sorted(out, key=lambda J: J.gens)


def _borel_parents(m):
    """Monomials forced into any Borel-closed set containing m."""
    out = []
    for i, e in enumerate(m):
        if e == 0:
            continue
        for j in range(i):
            parent = list(m)
            parent[i] -= 1
            parent[j] += 1
            out.append(tuple(parent))
    return out


def _borel_closed_fills(base, size, mons):
    """All Borel-closed supersets of ``base`` of exactly ``size`` monomials
    within one degree."""
    if len(base) == size:
        return [base]
    current = {base}
    for _ in range(size - len(base)):
        nxt = set()
        for s in current:
            for m in mons:
                if m in s:
                    continue
                if all(p in s for p in _borel_parents(m)):
                    nxt.add(s | {m})
        current = nxt
        if not current:
            return []
    return sorted(current, key=sorted)


# ----------------------------------------------------------------------
# weight-order segment witnesses


@dataclass(frozen=True)
class WeightWitness:
    """A positive weight vector certifying that an ideal is a segment in all
    degrees of the certified range."""

    weights: tuple
    certified_degrees: tuple


def segment_witness(J: MonomialIdeal, degree_range=None):
    """A weight vector making J a segment degreewise over ``degree_range``
    (default: degrees 1 through max generator degree + 1), or None when the
    strict system is infeasible (certified by Fourier-Motzkin).

    The system is w_i > 0 and min_in w . m > max_out w . n per degree.  The
    minimum or maximum of w . m over a finite set is reached at a vertex of
    its convex hull, and a vertex is never the midpoint of two other points
    of the set, so only the differences m - n of the monomials that
    :func:`_extreme_rows` keeps on each side go to Fourier-Motzkin.  They
    cut out the same set of weights as every inside/outside pair, and
    ``feasible_point`` returns a point that depends on that set alone, so
    the weights are those of the full system.  A vector that fails the full
    re-check of :func:`verify_weight_witness` raises SelfCheckFailed.  An
    empty or negative range would certify nothing, so it raises
    ValueError."""
    if degree_range is None:
        degree_range = (1, J.max_generator_degree() + 1)
    lo, hi = _checked_range(degree_range)
    nvars = J.ring.nvars
    constraints = [(unit, True) for unit in np.eye(nvars, dtype=np.int64).tolist()]
    for d in range(lo, hi + 1):
        exps = J.ring.graded_piece(d).exponents
        inside = J.membership(exps)
        if inside.all() or not inside.any():
            continue
        keep = _extreme_rows(J, exps, inside)
        diffs = (exps[keep & inside][:, None] - exps[keep & ~inside]).reshape(-1, nvars)
        constraints.extend((diff, True) for diff in set(map(tuple, diffs.tolist())))
    point = feasible_point(constraints, nvars)
    if point is None:
        return None
    weights = primitive_integers(point)
    if not verify_weight_witness(J, weights, (lo, hi)):
        raise SelfCheckFailed(f"weight vector {weights} fails its own segment re-check")
    return WeightWitness(weights, (lo, hi))


def _extreme_rows(J, exps, inside):
    """Which rows of the degree-d exponent matrix ``exps`` are not the
    midpoint m of m + v and m - v, both on m's side of J (``inside`` is the
    membership of each row), for any v = e_i - e_j.  Every vertex of either
    side's convex hull is kept."""
    nvars = exps.shape[1]
    unit = np.eye(nvars, dtype=np.int64)
    moves = np.array([unit[i] - unit[j] for i, j in combinations(range(nvars), 2)],
                     dtype=np.int64).reshape(-1, nvars)
    ends = np.stack([exps + moves[:, None], exps - moves[:, None]])  # (sign, move, row, var)
    same_side = J.membership(ends.reshape(-1, nvars)).reshape(ends.shape[:3]) == inside
    midpoint = ((ends >= 0).all(axis=3) & same_side).all(axis=0)
    return ~midpoint.any(axis=0)


def _checked_range(degree_range):
    lo, hi = degree_range
    if not 0 <= lo <= hi:
        raise ValueError(f"degree range {lo}:{hi} is not lo:hi with 0 <= lo <= hi")
    return lo, hi


def verify_weight_witness(J: MonomialIdeal, weights, degree_range) -> bool:
    """Check w . (m - n) > 0 for every in/out pair in the degree range, over
    every inside and outside monomial of each degree.  An empty or negative
    range raises ValueError, as in :func:`segment_witness`."""
    lo, hi = _checked_range(degree_range)
    if len(weights) != J.ring.nvars or any(w <= 0 for w in weights):
        return False
    for d in range(lo, hi + 1):
        exps = J.ring.graded_piece(d).exponents
        inside = J.membership(exps)
        if inside.all() or not inside.any():
            continue
        values = exps.astype(object) @ weights  # exact: weights may pass int64
        if not values[inside].min() > values[~inside].max():
            return False
    return True
