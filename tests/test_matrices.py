"""The zero-skipping matrix kernels against naive entry-by-entry references."""

import random
from fractions import Fraction

import pytest

from mfkit import matrices as mx
from mfkit.poly import Polynomial

from conftest import X, Y, Z, rand_poly

SHAPES = [(1, 1), (1, 5), (5, 1), (3, 4), (4, 3), (6, 6)]
DENSITIES = [0.0, 0.1, 0.3, 0.6, 1.0]


def rand_entry(rng, rational):
    e = rand_poly(rng, (X, Y, Z), nonzero=True)
    return e * Fraction(rng.randint(1, 5), rng.randint(1, 7)) if rational else e


def rand_matrix(rng, rows, cols, density, rational=False):
    return mx.from_rows(
        [[rand_entry(rng, rational) if rng.random() < density else 0
          for _ in range(cols)] for _ in range(rows)])


def naive_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[Polynomial.zero() for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            for k in range(inner):
                out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def naive_kron(a, b):
    return [[a[i][j] * b[r][s] for j in range(len(a[0])) for s in range(len(b[0]))]
            for i in range(len(a)) for r in range(len(b))]


CASES = pytest.mark.parametrize("rows, cols, density, rational", [
    (rows, cols, density, rational)
    for rows, cols in SHAPES for density in DENSITIES for rational in (False, True)
])


def case_rng(*case):
    return random.Random(repr(case))


def assert_same(got, want):
    assert mx.shape(got) == (len(want), len(want[0]) if want else 0)
    for got_row, want_row in zip(got, want):
        assert isinstance(got_row, tuple)
        assert list(got_row) == list(want_row)


@CASES
def test_mul_matches_triple_loop(rows, cols, density, rational):
    rng = case_rng(rows, cols, density, rational)
    # inner 1 makes outer products (k x 1 times 1 x k), inner 5 with a
    # 1 x 1 shape an inner product (1 x 5 times 5 x 1).
    for inner in (1, 5):
        a = rand_matrix(rng, rows, inner, density, rational)
        b = rand_matrix(rng, inner, cols, rng.choice(DENSITIES), rational)
        assert_same(mx.mul(a, b), naive_mul(a, b))


@CASES
def test_entrywise_kernels_match_references(rows, cols, density, rational):
    rng = case_rng(rows, cols, density, rational)
    a = rand_matrix(rng, rows, cols, density, rational)
    b = rand_matrix(rng, rows, cols, rng.choice(DENSITIES), rational)
    assert_same(mx.add(a, b), [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
    assert_same(mx.sub(a, b), [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
    assert_same(mx.neg(a), [[-x for x in row] for row in a])
    assert_same(mx.add(a, mx.neg(a)), [[0] * cols for _ in range(rows)])
    c = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), rng.choice(DENSITIES),
                    rational)
    assert_same(mx.kron(a, c), naive_kron(a, c))
    assert_same(mx.kron(c, a), naive_kron(c, a))


def test_zero_rows_and_columns():
    a = mx.from_rows([[0, 0, 0], [1, Polynomial.var(X), 0], [0, 0, 0]])
    b = mx.from_rows([[Polynomial.var(Y), 0], [0, 0], [2, 0]])
    assert_same(mx.mul(a, b), naive_mul(a, b))
    assert mx.is_zero(mx.mul(a, mx.zeros(3, 4)))
    assert mx.is_zero(mx.mul(mx.zeros(2, 3), a))
    assert mx.is_zero(mx.kron(mx.zeros(2, 2), a))
    assert mx.eq(mx.add(mx.zeros(3, 3), a), a)
    assert mx.is_zero(mx.neg(mx.zeros(2, 5)))


def test_mul_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        mx.mul(mx.zeros(2, 3), mx.zeros(2, 3))
    with pytest.raises(ValueError):
        mx.mul(mx.identity(1), mx.zeros(2, 1))
