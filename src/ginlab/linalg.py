"""Exact dense linear algebra over the coefficient fields.

Each field has one elimination loop: prime-field matrices are reduced with
vectorized numpy int64 arithmetic (products of two residues < 2**31 stay
inside int64), rational matrices with Fraction row operations.  ``rref``,
``kernel_basis`` and ``det`` are built on that loop; ``Echelon`` keeps its
own one-vector-at-a-time reducer.  Everything returns exact results.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _fp_rref(rows, p):
    """Reduced row echelon form mod p.  Returns (array, pivot column list,
    product of the pivots negated once per row swap)."""
    a = np.array(rows, dtype=np.int64) % p
    nrows, ncols = a.shape
    pivots = []
    scale = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
            scale = -scale
        scale = scale * int(a[r, c]) % p
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots, scale


def _qq_rref(rows):
    """Reduced row echelon form over QQ, with the same triple as _fp_rref."""
    a = [[Fraction(x) for x in r] for r in rows]
    nrows, ncols = len(a), len(a[0])
    pivots = []
    scale = Fraction(1)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            scale = -scale
        scale *= a[r][c]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots, scale


def _rref(field, rows):
    if field.is_prime_field:
        return _fp_rref(rows, field.p)
    return _qq_rref(rows)


def rref(field, rows):
    """Reduced row echelon form; returns (rows as lists of scalars, pivots)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    a, pivots, _ = _rref(field, rows)
    if field.is_prime_field:
        a = [[int(x) for x in row] for row in a]
    return a, pivots


def kernel_basis(field, rows, ncols):
    """Basis of {v : rows @ v = 0}, one vector per free column, exact and
    deterministic (free columns in ascending order)."""
    if not rows:
        red, pivots = [], []
    else:
        red, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fcol in free:
        v = [field.zero] * ncols
        v[fcol] = field.one
        for r, pcol in enumerate(pivots):
            v[pcol] = field.neg(red[r][fcol])
        basis.append(v)
    return basis


def det(field, rows):
    """Determinant of a square scalar matrix: the rref's pivot product and
    swap sign when it reaches the identity, zero otherwise."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return field.one
    _, pivots, scale = _rref(field, rows)
    return scale if len(pivots) == n else field.zero


class Echelon:
    """Incremental row echelon form: feed vectors one at a time and learn
    whether each one enlarges the span."""

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.rows = {}  # pivot column -> normalized row

    def add(self, vec):
        """Reduce ``vec`` against the current rows; returns True (and keeps
        the reduced vector) if it is independent of them."""
        field = self.field
        if field.is_prime_field:
            p = field.p
            v = np.array(vec, dtype=np.int64) % p
            while True:
                nz = np.flatnonzero(v)
                if nz.size == 0:
                    return False
                c = int(nz[0])
                row = self.rows.get(c)
                if row is None:
                    self.rows[c] = v * pow(int(v[c]), -1, p) % p
                    return True
                v = (v - int(v[c]) * row) % p
        v = list(vec)
        while True:
            c = next((i for i, x in enumerate(v) if x != 0), None)
            if c is None:
                return False
            row = self.rows.get(c)
            if row is None:
                inv = field.inv(v[c])
                self.rows[c] = [field.mul(x, inv) for x in v]
                return True
            f = v[c]
            v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, row)]
