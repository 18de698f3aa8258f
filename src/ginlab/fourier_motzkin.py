"""Exact Fourier-Motzkin elimination for homogeneous strict/weak systems.

Constraints are pairs (coefficients, strict) meaning coeffs . w > 0 or
coeffs . w >= 0 over the rationals.  Strictness is tracked exactly through
every positive combination (never by epsilon perturbation), so feasibility
verdicts are certificates: an eliminated system is infeasible exactly when
a strict constraint collapses to 0 > 0.

Every constraint is a primitive integer tuple: the input is normalized on
entry, and each combination of two constraints is an integer tuple made
primitive by the gcd of its entries.  So a system is a set of distinct
half-spaces, each strict or weak.

When the bounds of the eliminated variable involve at most one other
variable v, combining a lower bound (a1, b1) (the coefficients of the
variable and of v, a1 > 0) with an upper bound (a2, b2) (a2 < 0) gives a
positive multiple of (b1/a1 + b2/(-a2)) * e_v, strict when either bound is.
The extreme ratios in each strictness class tell which of +e_v and -e_v
occur, strict or weak, and equal ratios tell whether a pair with a strict
member sums to 0 (infeasible).  That is the set the all-pairs loop yields,
in linear time and in another order.  Back-substitution takes the greatest
lower and the least upper bound at each stage, which depend on the set
alone, so the point returned is the same.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def primitive_integers(coeffs):
    """Scale integer or Fraction coefficients to a primitive integer tuple
    (sign preserved)."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = gcd(*ints)
    return tuple([c // g for c in ints] if g > 1 else ints)


def feasible_point(constraints, nvars):
    """A rational solution of the homogeneous system, or None if infeasible.

    Eliminates variables in reverse index order, recording the constraint
    systems, then back-substitutes midpoints of the surviving bounds.
    """
    system = []
    seen = set()
    for coeffs, strict in constraints:
        coeffs = primitive_integers(coeffs)
        if len(coeffs) != nvars:
            raise ValueError("constraint arity mismatch")
        if not any(coeffs):
            if strict:
                return None  # 0 > 0
            continue
        key = (coeffs, strict)
        if key not in seen:
            seen.add(key)
            system.append(key)
    stages = []
    for var in range(nvars - 1, -1, -1):
        stages.append((var, system))
        system = _eliminate(system, var)
        if system is None:
            return None
    point = [None] * nvars
    for var, stage in reversed(stages):
        point[var] = _choose_value(stage, var, point)
    return point


def _eliminate(system, var):
    """One Fourier-Motzkin step; None when a contradiction appears."""
    lowers, uppers, rest = [], [], []
    for coeffs, strict in system:
        a = coeffs[var]
        if a > 0:
            lowers.append((coeffs, strict))
        elif a < 0:
            uppers.append((coeffs, strict))
        else:
            rest.append((coeffs, strict))
    others = {i for coeffs, _ in lowers + uppers for i, c in enumerate(coeffs) if c} - {var}
    if lowers and uppers and len(others) <= 1:
        # with no other variable, v = var makes every ratio +1 or -1, so every
        # sum is 0, as every combination is
        out = _extreme_ratios(lowers, uppers, var, others.pop() if others else var)
    else:
        out = _all_pairs(lowers, uppers, var)
    if out is None:
        return None
    seen = set(out)
    return out + [key for key in rest if key not in seen]


def _all_pairs(lowers, uppers, var):
    """The distinct primitive combinations of every lower with every upper
    bound of ``var``; None when a pair with a strict member sums to 0."""
    out = []
    seen = set()
    for lc, ls in lowers:
        for uc, us in uppers:
            scale_l, scale_u = -uc[var], lc[var]
            combo = [scale_l * l + scale_u * u for l, u in zip(lc, uc)]
            g = gcd(*combo)
            if not g:
                if ls or us:
                    return None
                continue
            key = (tuple([c // g for c in combo] if g > 1 else combo), ls or us)
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


def _extreme_ratios(lowers, uppers, var, v):
    """The combinations of every lower with every upper bound of ``var``, all
    multiples of e_v, from the extreme ratios in each strictness class; None
    when a pair with a strict member sums to 0."""
    lo, up = {True: [], False: []}, {True: [], False: []}
    for coeffs, strict in lowers:
        lo[strict].append(Fraction(coeffs[v], coeffs[var]))
    for coeffs, strict in uppers:
        up[strict].append(Fraction(coeffs[v], -coeffs[var]))
    lo_all, up_all = lo[True] + lo[False], up[True] + up[False]
    if set(lo[True]) & {-r for r in up_all} or set(lo_all) & {-r for r in up[True]}:
        return None
    # pairs with a strict member, then weak-weak pairs
    classes = ((True, ((lo[True], up_all), (lo_all, up[True]))), (False, ((lo[False], up[False]),)))
    out = []
    for sign, extreme in ((1, max), (-1, min)):
        unit = tuple(sign if i == v else 0 for i in range(len(lowers[0][0])))
        for strict, pairs in classes:
            if any(ls and us and sign * (extreme(ls) + extreme(us)) > 0 for ls, us in pairs):
                out.append((unit, strict))
    return out


def _choose_value(stage, var, point):
    """Pick a value for ``var`` inside the bounds the stage imposes, given
    the values already fixed for the variables before it."""
    den = lcm(*(point[i].denominator for i in range(var)))
    fixed = [point[i].numerator * (den // point[i].denominator) for i in range(var)]
    lows, ups = [], []
    for coeffs, _ in stage:
        a = coeffs[var]
        if a:
            bound = Fraction(-sum(c * x for c, x in zip(coeffs, fixed)), a * den)
            (lows if a > 0 else ups).append(bound)
    if not lows:
        return min(ups) - 1 if ups else Fraction(1)
    if not ups:
        return max(lows) + 1
    lower, upper = max(lows), min(ups)
    if lower == upper:
        return lower  # feasibility guarantees both bounds are weak here
    return (lower + upper) / 2
