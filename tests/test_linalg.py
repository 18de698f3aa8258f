"""Exact linear algebra: determinants against the Leibniz formula and
kernel bases against their defining equations, over F_p and QQ."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from ginlab import linalg
from ginlab.fields import FP_DEFAULT, QQ, PrimeField

FIELDS = [FP_DEFAULT, PrimeField(101), QQ]


def leibniz_det(field, rows):
    """Sum over permutations of sign * product of entries."""
    n = len(rows)
    total = field.zero
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = field.one
        for i, j in enumerate(perm):
            term = field.mul(term, rows[i][j])
        total = field.add(total, field.neg(term) if inversions % 2 else term)
    return total


def matrix(field, ints):
    return [[field.of(x) for x in row] for row in ints]


def random_matrix(field, rng, nrows, ncols, lo=-9, hi=9):
    return [[field.of(rng.randint(lo, hi)) for _ in range(ncols)] for _ in range(nrows)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_det_of_empty_matrix_is_one(field):
    assert linalg.det(field, []) == field.one


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_det_of_singular_matrices_is_zero(field):
    for ints in (
        [[1, 2], [2, 4]],
        [[0, 0, 0], [1, 2, 3], [4, 5, 6]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[0, 1, 2], [0, 3, 4], [0, 5, 6]],
    ):
        rows = matrix(field, ints)
        assert linalg.det(field, rows) == field.zero == leibniz_det(field, rows)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_det_with_row_swaps(field):
    # zero leading entries force one and two swaps
    for ints, value in (
        ([[0, 1], [1, 0]], -1),
        ([[0, 2, 0], [0, 0, 3], [5, 0, 0]], 30),
        ([[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]], -1),
    ):
        rows = matrix(field, ints)
        assert linalg.det(field, rows) == field.of(value) == leibniz_det(field, rows)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_matches_leibniz_on_random_matrices(field, n):
    rng = random.Random(100 + n)
    for _ in range(6):
        rows = random_matrix(field, rng, n, n, lo=-2, hi=2)
        assert linalg.det(field, rows) == leibniz_det(field, rows)


def test_det_over_small_prime_reduces_mod_p():
    field = PrimeField(7)
    rows = matrix(field, [[3, 1], [1, 5]])  # 14 = 0 mod 7
    assert linalg.det(field, rows) == 0
    value = linalg.det(field, matrix(field, [[3, 0], [0, 3]]))
    assert value == 2 and type(value) is int  # a field element, not a numpy scalar


def test_det_over_qq_stays_exact():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    value = linalg.det(QQ, rows)
    assert value == Fraction(1, 14) - Fraction(1, 15)
    assert isinstance(value, Fraction)


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.det(QQ, matrix(QQ, [[1, 2, 3], [4, 5, 6]]))


def mat_vec(field, rows, v):
    out = []
    for row in rows:
        acc = field.zero
        for a, b in zip(row, v):
            acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("shape", [(3, 5), (4, 4), (5, 3), (6, 8)])
def test_kernel_basis_solves_and_has_full_dimension(field, shape):
    rng = random.Random(sum(shape))
    nrows, ncols = shape
    rows = random_matrix(field, rng, nrows, ncols)
    if nrows > 1:
        rows[-1] = [field.add(a, b) for a, b in zip(rows[0], rows[1])]  # force a dependency
    kernel = linalg.kernel_basis(field, rows, ncols)
    _, pivots = linalg.rref(field, rows)
    assert len(kernel) == ncols - len(pivots)
    for v in kernel:
        assert mat_vec(field, rows, v) == [field.zero] * nrows
    # the basis is independent: its vectors have full rank
    if kernel:
        _, kpivots = linalg.rref(field, kernel)
        assert len(kpivots) == len(kernel)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_kernel_basis_of_no_rows_is_the_standard_basis(field):
    kernel = linalg.kernel_basis(field, [], 3)
    assert kernel == [[field.one if i == j else field.zero for j in range(3)] for i in range(3)]


def test_qq_elimination_of_integer_entries_stays_exact():
    # plain ints must not turn into floats through 1 / pivot
    red, pivots = linalg.rref(QQ, [[2, 1], [1, 3]])
    assert pivots == [0, 1]
    assert all(isinstance(x, Fraction) for row in red for x in row)
    assert linalg.kernel_basis(QQ, [[3, 1, 1]], 3)[0] == [Fraction(-1, 3), 1, 0]
    assert linalg.det(QQ, [[1, 2], [3, 4]]) == -2


@pytest.mark.parametrize("field", [FP_DEFAULT, PrimeField(7), QQ], ids=repr)
def test_echelon_add_reports_exactly_when_the_span_grows(field):
    rng = random.Random(13)
    ncols = 6
    base = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(4)]
    mod_7 = field == PrimeField(7)
    vectors = [[7 * x for x in base[0]]] + base + [  # the first is zero mod 7
        [a + b for a, b in zip(base[0], base[1])],  # dependent over every field
        [2 * a - 3 * b for a, b in zip(base[2], base[3])],
        [0] * ncols,
        base[0][:-1] + [base[0][-1] + 7],  # base[0] + 7 * e_5: dependent only mod 7
    ] + [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(4)]
    echelon = linalg.Echelon(field)
    fed, outcomes = [], []
    for v in vectors:
        rank = len(linalg.rref(field, fed)[1])
        fed.append(v)
        outcomes.append(echelon.add(v))
        assert outcomes[-1] is (len(linalg.rref(field, fed)[1]) > rank)
    assert outcomes[:2] == [not mod_7, mod_7]
    assert outcomes[5:9] == [False, False, False, not mod_7]
    assert sum(outcomes) == len(linalg.rref(field, vectors)[1]) == len(echelon.rows)
    for c, row in echelon.rows.items():
        # stored entries are field elements (reduced residues over F_p)
        assert [field.of(x) for x in row] == list(row)
        assert list(row[:c + 1]) == [field.zero] * c + [field.one]
        if field == QQ:
            assert all(isinstance(x, Fraction) for x in row)
