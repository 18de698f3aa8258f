"""Exact Fourier-Motzkin elimination for homogeneous strict/weak systems.

Constraints are pairs (coefficients, strict) meaning coeffs . w > 0 or
coeffs . w >= 0 over the rationals.  Strictness is tracked exactly through
every positive combination (never by epsilon perturbation), so feasibility
verdicts are certificates: an eliminated system is infeasible exactly when
a strict constraint collapses to 0 > 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _normalize(coeffs, strict):
    """Scale to a primitive integer vector (sign preserved)."""
    denom = 1
    for c in coeffs:
        if isinstance(c, Fraction):
            denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    if g > 1:
        ints = [c // g for c in ints]
    return tuple(ints), strict


def feasible_point(constraints, nvars):
    """A rational solution of the homogeneous system, or None if infeasible.

    Eliminates variables in reverse index order, recording the constraint
    systems, then back-substitutes midpoints of the surviving bounds.
    """
    system = []
    seen = set()
    for coeffs, strict in constraints:
        coeffs, strict = _normalize(coeffs, strict)
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
    out = []
    seen = set()
    for lc, ls in lowers:
        for uc, us in uppers:
            scale_l, scale_u = -uc[var], lc[var]
            combo = tuple(
                scale_l * l + scale_u * u for l, u in zip(lc, uc)
            )
            strict = ls or us
            if not any(combo):
                if strict:
                    return None
                continue
            key = _normalize(combo, strict)
            if key not in seen:
                seen.add(key)
                out.append(key)
    for key in rest:
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def _choose_value(stage, var, point):
    """Pick a value for ``var`` inside the bounds the stage imposes, given
    values already fixed for the later variables."""
    lower = None  # (value, strict)
    upper = None
    for coeffs, strict in stage:
        a = coeffs[var]
        if a == 0:
            continue
        rest = sum(
            Fraction(c) * point[i]
            for i, c in enumerate(coeffs)
            if i != var and c
        )
        bound = -Fraction(rest) / a
        if a > 0:
            if lower is None or bound > lower[0] or (bound == lower[0] and strict):
                lower = (bound, strict)
        else:
            if upper is None or bound < upper[0] or (bound == upper[0] and strict):
                upper = (bound, strict)
    if lower is None and upper is None:
        return Fraction(1)
    if lower is None:
        return upper[0] - 1
    if upper is None:
        return lower[0] + 1
    if lower[0] == upper[0]:
        return lower[0]  # feasibility guarantees both bounds are weak here
    return (lower[0] + upper[0]) / 2
