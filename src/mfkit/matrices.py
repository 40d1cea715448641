"""Matrices of polynomials, as immutable tuples of tuples.

Plumbing for the factorization modules: exact products, Kronecker products
in row-major block orientation ((A kron B)[i*m+r, j*m+s] = A[i,j]*B[r,s]),
block assembly, and entrywise substitution.

The matrices the constructions build -- Kronecker-with-identity blocks,
Koszul differentials, unitor chunks -- are mostly zeros, so the kernels skip
zero entries: ``mul`` multiplies only nonzero pairs, and every kernel puts
one shared zero polynomial wherever the result entry is zero by
construction.  ``mul`` and ``kron`` test an entry for zero by reading its
``terms`` map, which is cheaper per entry than the polynomial's
``__bool__``.  ``mul`` groups each row's nonzero pairs by
output column, counts the product's term products and operand terms as it
goes, and hands the pair lists of the whole product to one
``poly.sum_of_products`` call.  The kernel accumulates each entry's term
products in one term map, so it builds one polynomial per nonzero entry and
none per term product, and the counts tell it whether to encode each
operand once for the whole product.  Polynomials are immutable and their
form is unique, so the results equal the entry-by-entry ones exactly.
"""

from __future__ import annotations

from collections import defaultdict

from .poly import Polynomial, as_poly, substitute, sum_of_products

TYPE_CHECKING = False
if TYPE_CHECKING:  # an annotation-only name, see ``poly``
    from .poly import Scalar

Matrix = tuple  # tuple of tuples of Polynomial

# The zero entry of every kernel's result; polynomials are immutable, so one
# object serves every matrix, and no kernel builds one per call.
_ZERO = Polynomial.zero()


def from_rows(rows) -> Matrix:
    """A matrix from rows of ints, Fractions or polynomials; a tuple of
    tuples of polynomials is already one and is returned as it is."""
    if type(rows) is tuple and all(
            type(row) is tuple and all(type(e) is Polynomial for e in row)
            for row in rows):
        mat = rows
    else:
        mat = tuple(tuple(as_poly(e) for e in row) for row in rows)
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("ragged matrix")
    return mat


def shape(a: Matrix) -> tuple:
    return (len(a), len(a[0]) if a else 0)


def zeros(r: int, c: int) -> Matrix:
    return ((_ZERO,) * c,) * r


def identity(n: int) -> Matrix:
    return scalar_matrix(n, 1)


def scalar_matrix(n: int, c) -> Matrix:
    c = as_poly(c)
    return tuple(tuple(c if i == j else _ZERO for j in range(n)) for i in range(n))


def add(a: Matrix, b: Matrix) -> Matrix:
    if shape(a) != shape(b):
        raise ValueError(f"shape mismatch {shape(a)} vs {shape(b)}")
    return tuple(
        tuple(x + y if x and y else x or y or _ZERO for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def sub(a: Matrix, b: Matrix) -> Matrix:
    return add(a, neg(b))


def neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x if x else _ZERO for x in row) for row in a)


def scale(a: Matrix, c: Scalar) -> Matrix:
    """``c * a`` for a scalar ``c``."""
    return tuple(tuple(x * c if x else _ZERO for x in row) for row in a)


def mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"cannot multiply {shape(a)} by {shape(b)}")
    # Per row of b: its nonzero (j, y), and the terms of those y.
    b_nonzero = []
    terms = 0
    for row in b:
        nonzero = []
        n = 0
        for j, y in enumerate(row):
            if y.terms:
                nonzero.append((j, y))
                n += len(y.terms)
        b_nonzero.append((nonzero, n))
        terms += n
    work = 0
    rows = []  # per row of a: output column -> its nonzero (x, y)
    batch = []  # every entry's pairs, row by row
    for row in a:
        pairs = defaultdict(list)
        for x, (b_row, n) in zip(row, b_nonzero):
            if n and x.terms:
                k = len(x.terms)
                work += k * n
                terms += k
                for j, y in b_row:
                    pairs[j].append((x, y))
        rows.append(pairs)
        batch += pairs.values()
    entries = iter(sum_of_products(batch, work, terms))
    out = []
    for pairs in rows:
        acc = [_ZERO] * cb
        for j, entry in zip(pairs, entries):
            acc[j] = entry
        out.append(tuple(acc))
    return tuple(out)


def kron(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x * y if x.terms and y.terms else _ZERO for x in row_a for y in row_b)
        for row_a in a
        for row_b in b
    )


def block(rows_of_blocks) -> Matrix:
    """Assemble a matrix from a 2-d grid of blocks."""
    out = []
    for row_blocks in rows_of_blocks:
        heights = {shape(blk)[0] for blk in row_blocks}
        if len(heights) != 1:
            raise ValueError("block heights differ within a row")
        h = heights.pop()
        for r in range(h):
            out.append(tuple(e for blk in row_blocks for e in blk[r]))
    mat = tuple(out)
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("block widths inconsistent")
    return mat


def map_entries(fn, a: Matrix) -> Matrix:
    return tuple(tuple(fn(e) for e in row) for row in a)


def subs_matrix(a: Matrix, mapping) -> Matrix:
    return map_entries(lambda e: substitute(e, mapping), a)


def is_zero(a: Matrix) -> bool:
    return all(not e for row in a for e in row)


def first_nonzero(a: Matrix):
    """(i, j, entry) of the first nonzero entry in row-major order, or None."""
    for i, row in enumerate(a):
        for j, e in enumerate(row):
            if e:
                return (i, j, e)
    return None
