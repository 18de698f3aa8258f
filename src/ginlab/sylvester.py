"""Truncated Sylvester matrices, determinantal ideals, and regularity
formulas.

For f, g monic in x0 with homogeneous small-ring coefficients, the maximal
minors of the matrix made of the first a+b-p rows of their Sylvester matrix
generate K_p for sufficiently general coefficients (p <= r-2), and unit
reduction shrinks the matrix to an (a-p) x a shape whose Eagon-Northcott
regularity is a closed formula in (a, b, p).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .groebner import Ideal, ResourceLimitExceeded
from .orders import Revlex
from .partial_elim import x0_profile
from .poly import Polynomial

MAX_MINOR_COLUMNS = 12


@dataclass
class PolyMatrix:
    """A rectangular matrix of polynomials in one ring.  ``row_degrees`` and
    ``col_degrees`` form the degree ledger: when present, every nonzero
    entry (i, j) is homogeneous of degree row_degrees[i] + col_degrees[j] > 0
    (so the ledger is only attached once no unit entries remain)."""

    ring: object
    entries: list
    row_degrees: tuple = None
    col_degrees: tuple = None

    @property
    def shape(self):
        return len(self.entries), len(self.entries[0]) if self.entries else 0

    def validate_ledger(self):
        if self.row_degrees is None or self.col_degrees is None:
            return
        rows, cols = self.shape
        for i in range(rows):
            for j in range(cols):
                e = self.entries[i][j]
                if e.is_zero:
                    continue
                want = self.row_degrees[i] + self.col_degrees[j]
                if want <= 0 or e.homogeneous_degree() != want:
                    raise ValueError(
                        f"entry ({i},{j}) breaks the degree ledger "
                        f"(expected homogeneous of degree {want})"
                    )


def build_sylp(f, g, p):
    """First a+b-p rows of the Sylvester matrix of f and g.

    Both polynomials must be homogeneous and monic in x0, with
    deg_x0(f) = a <= deg_x0(g) = b and 0 <= p < a.  Columns are b shifted
    copies of f's x0-coefficient sequence followed by a shifted copies of
    g's.  Entries live in the small ring (without x0).
    """
    fa = _monic_x0_coefficients(f, "f")
    gb = _monic_x0_coefficients(g, "g")
    a, b = len(fa) - 1, len(gb) - 1
    if a > b:
        raise ValueError(f"expected deg_x0(f) <= deg_x0(g), got {a} > {b}")
    if not 0 <= p < a:
        raise ValueError(f"truncation level must satisfy 0 <= p < a = {a}")
    ring = fa[0].ring
    rows = a + b - p
    zero = Polynomial.zero(ring)

    def entry(i, j):  # 1-indexed, matching the classical layout
        if j <= b:
            k = i - j
            return fa[k] if 0 <= k <= a else zero
        k = i - (j - b)
        return gb[k] if 0 <= k <= b else zero

    entries = [[entry(i, j) for j in range(1, a + b + 1)] for i in range(1, rows + 1)]
    return PolyMatrix(ring, entries)


def _monic_x0_coefficients(f, label):
    """[f_0, ..., f_a] with f = sum f_i x0^(a-i); validates monic and
    homogeneity (f_i homogeneous of degree i)."""
    if f.is_zero:
        raise ValueError(f"{label} must be nonzero")
    if f.homogeneous_degree() is None:
        raise ValueError(f"{label} must be homogeneous")
    prof = x0_profile(f)
    a = prof.x0_degree
    small = f.ring.drop_first_variable()
    one = Polynomial.constant(small, 1)
    if prof.initial_coefficient != one:
        raise ValueError(f"{label} must be monic in x0")
    if f.homogeneous_degree() != a:
        raise ValueError(f"{label} must have total degree equal to its x0-degree")
    coeffs = []
    for i in range(a + 1):
        terms = {m[1:]: c for m, c in f.terms.items() if m[0] == a - i}
        coeffs.append(Polynomial(small, terms))
    return coeffs


def maximal_minors(M: PolyMatrix):
    """All maximal minors (nonzero ones), by cofactor expansion over column
    subsets with shared-subdeterminant memoization."""
    rows, cols = M.shape
    if rows > cols:
        raise ValueError("maximal minors expect rows <= cols")
    if cols > MAX_MINOR_COLUMNS:
        raise ResourceLimitExceeded(f"resource guard: more than {MAX_MINOR_COLUMNS} columns")
    ring = M.ring
    one = Polynomial.constant(ring, 1)
    memo = {(): one}

    def det(colset):
        # determinant of the top len(colset) rows restricted to colset
        if colset in memo:
            return memo[colset]
        k = len(colset) - 1  # expand along row k (the last of the block)
        acc = Polynomial.zero(ring)
        for pos, c in enumerate(colset):
            e = M.entries[k][c]
            if e.is_zero:
                continue
            sub = det(colset[:pos] + colset[pos + 1:])
            if sub.is_zero:
                continue
            term = e * sub
            acc = acc + term if (k + pos) % 2 == 0 else acc - term
        memo[colset] = acc
        return acc

    out = []
    for cs in combinations(range(cols), rows):
        d = det(cs)
        if not d.is_zero:
            out.append(d)
    return out


def unit_reduce(M: PolyMatrix) -> PolyMatrix:
    """Repeatedly eliminate a unit entry: moving it to the bottom-right
    corner and replacing n_ij = m_ij - m_pj * m_iq / m_pq leaves the
    maximal-minors ideal unchanged while dropping one row and one column.
    Iterates to a fixpoint and then attaches the degree ledger."""
    entries = [list(row) for row in M.entries]
    field = M.ring.field
    while True:
        unit = _find_unit(entries, field)
        if unit is None:
            break
        pi, pj = unit
        pivot = entries[pi][pj]
        inv = field.inv(next(iter(pivot.terms.values())))
        reduced = []
        for i, row in enumerate(entries):
            if i == pi:
                continue
            new_row = []
            for j, e in enumerate(row):
                if j == pj:
                    continue
                correction = entries[pi][j] * row[pj]
                new_row.append(e - correction.scale(inv))
            reduced.append(new_row)
        entries = reduced
        if not entries or not entries[0]:
            break
    out = PolyMatrix(M.ring, entries)
    ledger = _derive_ledger(entries)
    if ledger is not None:
        out.row_degrees, out.col_degrees = ledger
        out.validate_ledger()
    return out


def _find_unit(entries, field):
    for i, row in enumerate(entries):
        for j, e in enumerate(row):
            if not e.is_zero and e.homogeneous_degree() == 0:
                return i, j
    return None


def _derive_ledger(entries):
    """Consistent (row, col) degree split of the nonzero entries, normalized
    so the smallest column degree is 0; None when no consistent split
    exists or the matrix is empty."""
    if not entries or not entries[0]:
        return None
    rows, cols = len(entries), len(entries[0])
    row_deg = [None] * rows
    col_deg = [None] * cols
    row_deg[0] = 0
    changed = True
    while changed:
        changed = False
        for i in range(rows):
            for j in range(cols):
                e = entries[i][j]
                if e.is_zero:
                    continue
                d = e.homogeneous_degree()
                if d is None:
                    return None
                if row_deg[i] is not None and col_deg[j] is None:
                    col_deg[j] = d - row_deg[i]
                    changed = True
                elif col_deg[j] is not None and row_deg[i] is None:
                    row_deg[i] = d - col_deg[j]
                    changed = True
                elif row_deg[i] is not None and col_deg[j] is not None:
                    if row_deg[i] + col_deg[j] != d:
                        return None
    if any(d is None for d in row_deg) or any(d is None for d in col_deg):
        return None  # disconnected degree pattern; caller keeps no ledger
    shift = min(col_deg)
    return (
        tuple(d + shift for d in row_deg),
        tuple(d - shift for d in col_deg),
    )


def en_regularity(row_degrees, col_degrees) -> int:
    """Eagon-Northcott regularity of a maximal-minors ideal with the given
    degree ledger: sum(a_i) + sum(b_j) + (max(a_i) - 1)(n - m).  Valid when
    the minors have the expected codimension n - m + 1 (caller's
    responsibility)."""
    m, n = len(row_degrees), len(col_degrees)
    if m > n:
        raise ValueError("expected at most as many rows as columns")
    return sum(row_degrees) + sum(col_degrees) + (max(row_degrees) - 1) * (n - m)


def kp_regularity_formula(a, b, p) -> int:
    """Closed-form regularity of K_p for a generic monic pair of x0-degrees
    (a, b): ab + C(a-p+1, 2) - C(a+1, 2) + p(a-p-1)."""
    if not (1 <= p < a <= b):
        raise ValueError(f"arguments must satisfy 1 <= p < a <= b, got {(a, b, p)}")
    return a * b + comb(a - p + 1, 2) - comb(a + 1, 2) + p * (a - p - 1)


def codimension(I: Ideal, order=None) -> int:
    """Number of variables minus the Krull dimension of S/I (from the exact
    Hilbert series of an initial ideal)."""
    order = order if order is not None else Revlex()
    data = I.hilbert_data(order, bound=2)
    return I.ring.nvars - data.dimension


def sample_monic_pair(ring, a, b, rng):
    """Random homogeneous f, g of degrees a <= b, monic in x0, with dense
    random small-ring coefficient forms (x0^a + f_1 x0^{a-1} + ... + f_a)."""
    from .poly import random_form

    if not 1 <= a <= b:
        raise ValueError("degrees must satisfy 1 <= a <= b")

    def build(deg):
        small = ring.drop_first_variable()
        f = Polynomial.monomial(ring, (deg,) + (0,) * (ring.nvars - 1))
        for i in range(1, deg + 1):
            coeff = random_form(small, i, rng)
            lifted = Polynomial(
                ring, {(deg - i,) + m: c for m, c in coeff.terms.items()}
            )
            f = f + lifted
        return f

    return build(a), build(b)
