"""Exact dense linear algebra over the coefficient fields.

Rows are numpy arrays: int64 residues mod p over F_p (products of two
residues < 2**31 stay inside int64, and every row operation reduces mod p),
``Fraction`` objects in ``dtype=object`` arrays over QQ.  One Gauss-Jordan
loop serves both fields, and ``rref``, ``kernel_basis`` and ``det`` are
built on it; ``Echelon`` reduces one vector at a time against the rows it
keeps in the same form.  Everything returns exact results.
"""

from __future__ import annotations

import numpy as np


def _modulus(field):
    return field.p if field.is_prime_field else 0  # 0: exact Fractions, no modulus


def _array(rows, p):
    """``rows`` (a matrix or one vector) as an array in the field's form;
    over QQ the first pivot division turns int entries into Fractions."""
    return np.array(rows, dtype=np.int64) % p if p else np.array(rows, dtype=object)


def _rref(field, rows):
    """Reduced row echelon form of a nonempty matrix.  Returns (array, pivot
    column list, product of the pivots negated once per row swap)."""
    p = _modulus(field)
    a = _array(rows, p)
    nrows, ncols = a.shape
    pivots = []
    scale = field.one
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
            scale = field.neg(scale)
        pivot = a.item(r, c)  # a Python int or Fraction
        scale = field.mul(scale, pivot)
        a[r] = a[r] * field.inv(pivot) % p if p else a[r] * field.inv(pivot)
        col = a[:, c].copy()
        col[r] = 0
        a = a - np.outer(col, a[r])
        if p:
            a %= p
        pivots.append(c)
        r += 1
    return a, pivots, scale


def rref(field, rows):
    """Reduced row echelon form; returns (rows as lists of scalars, pivots)."""
    if not len(rows):
        return [], []
    a, pivots, _ = _rref(field, rows)
    return a.tolist(), pivots


def kernel_basis(field, rows, ncols):
    """Basis of {v : rows @ v = 0}, one vector per free column, exact and
    deterministic (free columns in ascending order)."""
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

    def __init__(self, field):
        self.field = field
        self.p = _modulus(field)
        self.rows = {}  # pivot column -> row array scaled to a leading one

    def add(self, vec):
        """Reduce ``vec`` against the current rows; returns True (and keeps
        the reduced vector) if it is independent of them."""
        field, p = self.field, self.p
        v = _array(vec, p)
        while True:
            nz = np.flatnonzero(v)
            if nz.size == 0:
                return False
            c = int(nz[0])
            row = self.rows.get(c)
            if row is None:
                v = v * field.inv(v.item(c))
                self.rows[c] = v % p if p else v
                return True
            v = v - v.item(c) * row
            if p:
                v %= p
