"""Independent test oracles based on per-degree (Macaulay matrix) linear
algebra.  These deliberately avoid the Groebner code paths they are used to
verify.  Also a hypothesis strategy for the small homogeneous generator
lists the property tests draw, a naive all-pairs Fourier-Motzkin
elimination, and set-based segment closure."""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm

from hypothesis import assume, strategies as st

from ginlab import linalg
from ginlab.poly import Polynomial
from ginlab.rings import RingContext


def graded_piece_rows(generators, ring, d, column_order):
    """Coefficient rows spanning I_d, as multiples m * g of the generators."""
    columns = sorted(ring.monomials_of_degree(d), key=column_order.sort_key)
    index = {m: i for i, m in enumerate(columns)}
    rows = []
    for g in generators:
        gdeg = g.homogeneous_degree()
        if gdeg is None or gdeg > d:
            continue
        for m in ring.monomials_of_degree(d - gdeg):
            shifted = g.term_mul(m)
            row = [ring.field.zero] * len(columns)
            for mm, c in shifted.terms.items():
                row[index[mm]] = c
            rows.append(row)
    return rows, columns


def _rank(field, rows):
    return len(linalg.rref(field, rows)[1])


def macaulay_dimension(I, d, column_order):
    """dim I_d by row rank (independent of any Groebner basis)."""
    rows, _ = graded_piece_rows(I.generators, I.ring, d, column_order)
    return _rank(I.ring.field, rows)


def macaulay_contains(I, f, column_order):
    """f in I_d membership by rank comparison."""
    d = f.homogeneous_degree()
    rows, columns = graded_piece_rows(I.generators, I.ring, d, column_order)
    index = {m: i for i, m in enumerate(columns)}
    frow = [I.ring.field.zero] * len(columns)
    for m, c in f.terms.items():
        frow[index[m]] = c
    return _rank(I.ring.field, rows + [frow]) == _rank(I.ring.field, rows)


@st.composite
def homogeneous_generators(draw, fields, max_vars=3, max_degree=3, max_gens=3):
    """Nonzero homogeneous forms of a few terms each, with small integer
    coefficients, in a ring of 2..max_vars variables over one of ``fields``."""
    ring = RingContext(draw(st.integers(2, max_vars)), draw(st.sampled_from(fields)))
    gens = []
    for _ in range(draw(st.integers(1, max_gens))):
        mons = ring.monomials_of_degree(draw(st.integers(1, max_degree)))
        terms = draw(st.lists(
            st.tuples(st.sampled_from(mons), st.integers(-5, 5)), min_size=1, max_size=4
        ))
        f = Polynomial.from_terms(ring, terms)
        if f:
            gens.append(f)
    assume(gens)
    return gens


def naive_feasible_point(constraints, nvars):
    """Fourier-Motzkin on sets of primitive integer half-spaces (coeffs,
    strict), meaning coeffs . w > 0 (strict) or >= 0: eliminate the last
    variable first by combining every lower with every upper bound; None
    once a strict constraint reduces to 0 > 0.  Then fix the variables in
    index order: the midpoint of the tightest bounds, the bound itself when
    both meet, one past a lone bound, 1 when there is none."""

    def primitive(coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        ints = [int(c * den) for c in coeffs]
        g = gcd(*ints) or 1
        return tuple(c // g for c in ints)

    system = set()
    for coeffs, strict in constraints:
        coeffs = primitive(coeffs)
        if any(coeffs):
            system.add((coeffs, strict))
        elif strict:
            return None
    stages = []
    for var in reversed(range(nvars)):
        stages.append(system)
        system = {(c, s) for c, s in system if c[var] == 0}
        for lc, ls in stages[-1]:
            for uc, us in stages[-1]:
                if lc[var] > 0 > uc[var]:
                    combo = primitive([-uc[var] * l + lc[var] * u for l, u in zip(lc, uc)])
                    if any(combo):
                        system.add((combo, ls or us))
                    elif ls or us:
                        return None
    point = []
    for var, stage in enumerate(reversed(stages)):
        lows, ups = [], []
        for coeffs, _ in stage:
            if coeffs[var]:
                bound = -sum(c * x for c, x in zip(coeffs, point)) / Fraction(coeffs[var])
                (lows if coeffs[var] > 0 else ups).append(bound)
        if lows and ups:
            point.append((max(lows) + min(ups)) / 2)
        elif lows or ups:
            point.append(max(lows) + 1 if lows else min(ups) - 1)
        else:
            point.append(Fraction(1))
    return point


def segment_oracle(ideal_dims, order, nvars):
    """Segments as sets: in each degree d, the ideal_dims[d] greatest degree-d
    monomials under ``order``, enumerated and sorted here.  Returns whether
    x_j times every member of degree d lies in degree d + 1 for each d, and
    the members of each degree that are not such a product (the minimal
    generators, when the segments close)."""

    def greatest(d, u):
        mons = []
        for combo in combinations_with_replacement(range(nvars), d):
            exps = [0] * nvars
            for j in combo:
                exps[j] += 1
            mons.append(tuple(exps))
        return set(sorted(mons, key=order.sort_key)[:u])

    def times_variables(space):
        return {m[:j] + (m[j] + 1,) + m[j + 1:] for m in space for j in range(nvars)}

    spaces = [greatest(d, u) for d, u in enumerate(ideal_dims)]
    closed = all(times_variables(low) <= high for low, high in zip(spaces, spaces[1:]))
    gens = set(spaces[0])
    for low, high in zip(spaces, spaces[1:]):
        gens |= high - times_variables(low)
    return closed, gens
