"""Independent test oracles.  None of them shares code with the path it
checks: each enumerates its own monomials and builds its own matrices, and
row reduction is ``linalg.rref``, which no Groebner or partial elimination
path calls.

- Per-degree (Macaulay matrix) linear algebra: ``macaulay_dimension`` and
  ``macaulay_contains`` for Groebner bases, and ``pei_oracle``, the
  partial elimination ideals K_p read straight off their definition.
- ``ek_betti``: the Eliahou-Kervaire Betti table of a Borel-fixed ideal,
  whose Euler characteristic checks the Hilbert numerator.
- ``borel_fixed_oracle``: the Borel property by every move on every
  monomial of the ideal up to its top generator degree.
- ``covered_count``: the degree-d monomials some leading monomial
  divides, the count Buchberger's Hilbert criterion compares.
- ``gebauer_moeller_update``: the pairs Buchberger keeps after a new
  leading monomial, by the textbook sorted scan of the chain criterion.
- ``evaluate``: a polynomial at a point, for vanishing-ideal checks.
- ``substituted``: a linear change of coordinates in a form, expanded by
  products of polynomials, for the dense power table of
  ``Polynomial.substitute``.
- ``naive_feasible_point``: all-pairs Fourier-Motzkin elimination.
- ``greatest_monomials`` and ``segment_oracle``: segments as sets, and
  their closure.
- ``homogeneous_generators``: a hypothesis strategy for the small
  homogeneous generator lists the property tests draw.
- ``explicit_points`` and the two boundary point fixtures of P^3.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, lcm

from hypothesis import assume, strategies as st

from ginlab import linalg
from ginlab.orders import elimination_order
from ginlab.points import PointSet
from ginlab.poly import Polynomial
from ginlab.rings import RingContext


def _monomials(nvars, d):
    """Every degree-d exponent tuple in nvars variables, in no fixed order."""
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        exps = [0] * nvars
        for j in combo:
            exps[j] += 1
        out.append(tuple(exps))
    return out


def graded_piece_rows(generators, ring, d, column_order):
    """Coefficient rows spanning I_d, as multiples m * g of the generators,
    and their columns: the degree-d monomials greatest first under
    ``column_order``."""
    columns = sorted(_monomials(ring.nvars, d), key=column_order.sort_key)
    index = {m: i for i, m in enumerate(columns)}
    rows = []
    for g in generators:
        gdeg = g.homogeneous_degree()
        if gdeg is None or gdeg > d:
            continue
        for m in _monomials(ring.nvars, d - gdeg):
            row = [ring.field.zero] * len(columns)
            for mm, c in g.terms.items():
                row[index[tuple(a + b for a, b in zip(mm, m))]] = c
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


def pei_oracle(I, p, degree_bound, inner_order):
    """Graded pieces of K_p straight from the definition (M. Green, "Generic
    initial ideals", 1998): for each d <= degree_bound, row reduce a
    spanning set of I_{d+p} against the degree-(d+p) monomials sorted by
    decreasing x0-degree, then ``inner_order``, and keep the initial
    coefficient of each row whose leading monomial has x0-degree exactly p.
    Returns {d: small-ring polynomials spanning (K_p)_d}."""
    ring, field = I.ring, I.ring.field
    small = ring.drop_first_variable()
    elim = elimination_order(ring.nvars, inner_order)
    out = {}
    for d in range(degree_bound + 1):
        rows, columns = graded_piece_rows(I.generators, ring, d + p, elim)
        red, pivots = linalg.rref(field, rows)
        out[d] = [
            Polynomial(small, {m[1:]: c for m, c in zip(columns, red[r])
                               if m[0] == p and c != field.zero})
            for r, pc in enumerate(pivots)
            if columns[pc][0] == p
        ]
    return out


def ek_betti(gens):
    """Graded Betti numbers {(i, i + d): beta_{i, i+d}} of the Borel-fixed
    ideal minimally generated by the exponent tuples ``gens``, from the
    Eliahou-Kervaire resolution (J. Algebra 129, 1990): a generator u of
    degree d adds C(max(u), i) to beta_{i, i+d}, where max(u) is the largest
    index of a variable dividing u.  Only valid for Borel-fixed ideals; the
    caller checks that."""
    table = {}
    for u in gens:
        top = max((i for i, e in enumerate(u) if e), default=0)
        for i in range(top + 1):
            key = (i, i + sum(u))
            table[key] = table.get(key, 0) + comb(top, i)
    return table


def borel_fixed_oracle(gens, order, nvars):
    """Whether the monomial ideal generated by the exponent tuples ``gens``
    is Borel-fixed for the ranking ``order`` gives the variables: every
    monomial of the ideal up to the top generator degree, every x_i dividing
    it and every x_j ranked above x_i, with membership read off divisibility
    by a generator."""
    units = [tuple(int(i == j) for i in range(nvars)) for j in range(nvars)]
    ranked = sorted(range(nvars), key=lambda j: order.sort_key(units[j]))  # greatest first

    def member(m):
        return any(all(a <= b for a, b in zip(g, m)) for g in gens)

    for d in range(max((sum(g) for g in gens), default=0) + 1):
        for m in filter(member, _monomials(nvars, d)):
            for k, i in enumerate(ranked):
                for j in ranked[:k] if m[i] else ():
                    moved = list(m)
                    moved[i] -= 1
                    moved[j] += 1
                    if not member(moved):
                        return False
    return True


def covered_count(leading_monomials, nvars, d):
    """Number of degree-d monomials that some exponent tuple of
    ``leading_monomials`` divides, trying every pair."""
    return sum(any(all(a <= b for a, b in zip(lt, m)) for lt in leading_monomials)
               for m in _monomials(nvars, d))


def gebauer_moeller_update(pairs, leading_monomials, order):
    """The pairs {(i, j): lcm} after the last of ``leading_monomials``, t,
    joins the basis.  An old pair goes when t divides its lcm and that lcm
    differs from the lcms of t with both members (the B-test).  The lcms of
    t with the older monomials are scanned by degree, then ``order``; an
    lcm is kept when no kept lcm divides it, and a kept lcm installs the
    pair of t with its first member unless some member is coprime to t."""
    *old, t = leading_monomials
    lcms = [tuple(max(a, b) for a, b in zip(m, t)) for m in old]

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    out = {(i, j): l for (i, j), l in pairs.items()
           if l in (lcms[i], lcms[j]) or not divides(t, l)}
    kept = []
    for l in sorted(set(lcms), key=lambda m: (sum(m), order.sort_key(m))):
        if any(divides(k, l) for k in kept):
            continue
        kept.append(l)
        members = [i for i, m in enumerate(lcms) if m == l]
        if all(sum(old[i]) + sum(t) != sum(l) for i in members):
            out[(members[0], len(old))] = l
    return out


def evaluate(f, point):
    """f at a tuple of field scalars, one term at a time."""
    field = f.ring.field
    total = field.zero
    for m, c in f.terms.items():
        for coord, e in zip(point, m):
            for _ in range(e):
                c = field.mul(c, coord)
        total = field.add(total, c)
    return total


def substituted(f, matrix):
    """f(A*x), each x_i replaced by l_i = sum_j A[i][j]*x_j: the sum over
    the terms c*x^m of f of c * prod_i l_i^m_i, by sparse products."""
    ring = f.ring
    units = [tuple(int(k == j) for k in range(ring.nvars)) for j in range(ring.nvars)]
    images = [Polynomial.from_terms(ring, zip(units, row)) for row in matrix]
    out = Polynomial.zero(ring)
    for m, c in f.terms.items():
        prod = Polynomial.constant(ring, c)
        for image, e in zip(images, m):
            for _ in range(e):
                prod = prod * image
        out = out + prod
    return out


@st.composite
def homogeneous_generators(draw, fields, max_vars=3, max_degree=3, max_gens=3, min_vars=2):
    """Nonzero homogeneous forms of a few terms each, with small integer
    coefficients, in a ring of min_vars..max_vars variables over one of
    ``fields``."""
    ring = RingContext(draw(st.integers(min_vars, max_vars)), draw(st.sampled_from(fields)))
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


def greatest_monomials(order, nvars, d, u):
    """The u greatest degree-d monomials under ``order``, enumerated and
    sorted here, as a set."""
    return set(sorted(_monomials(nvars, d), key=order.sort_key)[:u])


def segment_oracle(ideal_dims, order, nvars):
    """Segments as sets: in each degree d, the ideal_dims[d] greatest
    degree-d monomials.  Returns whether x_j times every member of
    degree d lies in degree d + 1 for each d, and the members of each degree
    that are not such a product (the minimal generators, when the segments
    close)."""

    def times_variables(space):
        return {m[:j] + (m[j] + 1,) + m[j + 1:] for m in space for j in range(nvars)}

    spaces = [greatest_monomials(order, nvars, d, u) for d, u in enumerate(ideal_dims)]
    closed = all(times_variables(low) <= high for low, high in zip(spaces, spaces[1:]))
    gens = set(spaces[0])
    for low, high in zip(spaces, spaces[1:]):
        gens |= high - times_variables(low)
    return closed, gens


def explicit_points(field, coords):
    """Wrap explicit integer coordinates as a PointSet over the field."""
    pts = tuple(tuple(field.of(c) for c in pt) for pt in coords)
    return PointSet(field, pts)


#: Seven points of P^3 whose quadrics all share a linear factor even though
#: the Hilbert function is the generic one; pins the boundary of the
#: segment-ideal theorem.
SEVEN_POINTS_SHARED_FACTOR = (
    (0, 0, 0, 1),
    (0, 0, 1, 1),
    (0, 0, 2, 1),
    (0, 1, 0, 1),
    (0, 1, 1, 1),
    (0, 2, 0, 1),
    (1, 0, 0, 1),
)

#: The ten lattice points (a, b, c, 1) with a+b+c <= 2 in P^3: generic
#: Hilbert function, but every generic projection lands on a plane cubic.
TEN_POINTS_LATTICE_SIMPLEX = tuple(
    (a, b, c, 1)
    for a in range(3)
    for b in range(3)
    for c in range(3)
    if a + b + c <= 2
)
