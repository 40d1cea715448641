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

``first_difference`` decides a*b = w*I or a*b = c*d without building
either product: it gathers the pairs as ``mul`` does and hands each entry's
pairs, signed, to the kernel's zero test ``poly.first_nonzero_sum``.  The
eager checks of ``matfac`` run on it.  ``first_difference_both_ways``
decides a*b = b*a = w*I, a factorization's check, with each matrix's
nonzero entries listed once and one zero test for both products.
"""

from __future__ import annotations

from collections import defaultdict

from .poly import Polynomial, as_poly, first_nonzero_sum, substitute, sum_of_products

TYPE_CHECKING = False
if TYPE_CHECKING:  # an annotation-only name, see ``poly``
    from .poly import Scalar

Matrix = tuple  # tuple of tuples of Polynomial

# The zero entry of every kernel's result; polynomials are immutable, so one
# object serves every matrix, and no kernel builds one per call.
_ZERO = Polynomial.zero()
_ONE = Polynomial.const(1)


def from_rows(rows) -> Matrix:
    """A matrix from rows of ints, Fractions or polynomials; a tuple of
    tuples of polynomials is already one and is returned as it is."""
    if type(rows) is tuple and all(
            type(row) is tuple and {Polynomial}.issuperset(map(type, row))
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


def _nonzero_rows(a: Matrix) -> list:
    """Per row of a: its nonzero (j, entry), and the terms of those
    entries."""
    out = []
    for row in a:
        nonzero = []
        n = 0
        for j, y in enumerate(row):
            if y.terms:
                nonzero.append((j, y))
                n += len(y.terms)
        out.append((nonzero, n))
    return out


def _gather(a_rows: list, b_rows: list) -> tuple:
    """The pair lists of a*b from the ``_nonzero_rows`` of a and b: per row
    of a, a map from each output column to its nonzero (x, y), with the
    product's term products and operand terms counted as the kernel's path
    choice reads them."""
    terms = sum(n for _, n in b_rows)
    work = 0
    rows = []
    for a_row, _ in a_rows:
        pairs = defaultdict(list)
        for k, x in a_row:
            b_row, n = b_rows[k]
            if n:
                t = len(x.terms)
                work += t * n
                terms += t
                for j, y in b_row:
                    pairs[j].append((x, y))
        rows.append(pairs)
    return rows, work, terms


def _product_pairs(a: Matrix, b: Matrix) -> tuple:
    """``_gather`` of a*b, once a*b is known to be defined."""
    if shape(a)[1] != shape(b)[0]:
        raise ValueError(f"cannot multiply {shape(a)} by {shape(b)}")
    return _gather(_nonzero_rows(a), _nonzero_rows(b))


def mul(a: Matrix, b: Matrix) -> Matrix:
    rows, work, terms = _product_pairs(a, b)
    batch = []  # every entry's pairs, row by row
    for pairs in rows:
        batch += pairs.values()
    entries = iter(sum_of_products(batch, work, terms))
    cb = len(b[0]) if b else 0
    out = []
    for pairs in rows:
        acc = [_ZERO] * cb
        for j, entry in zip(pairs, entries):
            acc[j] = entry
        out.append(tuple(acc))
    return tuple(out)


def _scalar_rows(w: Polynomial, n: int):
    """The pair lists of w*I_n: the one pair (w, 1) at each diagonal entry,
    and no pair at all when w is zero."""
    if not w.terms:
        return ({},) * n
    diagonal = ((w, _ONE),)
    return [{i: diagonal} for i in range(n)]


def _signed_entries(plus_rows, minus_rows, batch: list, where: list) -> None:
    """Append each entry of plus - minus to ``batch`` as its signed pair
    lists, row by row in column order, and its (i, j) to ``where``."""
    for i, (plus, minus) in enumerate(zip(plus_rows, minus_rows)):
        for j in sorted(plus.keys() | minus.keys() if minus else plus):
            batch.append((plus.get(j, ()), minus.get(j, ())))
            where.append((i, j))


def first_difference(a: Matrix, b: Matrix, w: Polynomial = None,
                     c: Matrix = None, d: Matrix = None):
    """(i, j) of the first entry, in row-major order, where a*b differs
    from w*I (when ``w`` is given) or from c*d, or None where none does.

    Neither product is built: each entry of a*b - w*I or a*b - c*d goes to
    ``poly.first_nonzero_sum`` as its signed pair lists, gathered as
    ``mul`` gathers them.  A diagonal entry of a*b - w*I subtracts the one
    pair (w, 1), so one with no pairs of a*b but w != 0 differs.  The
    counts of a*b, plus those of c*d, choose the kernel's path.
    """
    rows, work, terms = _product_pairs(a, b)
    if w is None:
        minus_rows, more_work, more_terms = _product_pairs(c, d)
        if shape(c)[0] != len(rows) or shape(d)[1] != shape(b)[1]:
            raise ValueError(f"cannot compare a {len(rows)}x{shape(b)[1]} "
                             f"product with a {shape(c)[0]}x{shape(d)[1]} one")
        work += more_work
        terms += more_terms
    else:
        if shape(b)[1] != len(rows):
            raise ValueError(f"a {len(rows)}x{shape(b)[1]} product has no diagonal")
        minus_rows = _scalar_rows(w, len(rows))
    batch = []
    where = []
    _signed_entries(rows, minus_rows, batch, where)
    index = first_nonzero_sum(batch, work, terms)
    return None if index is None else where[index]


def first_difference_both_ways(a: Matrix, b: Matrix, w: Polynomial):
    """``(0, i, j)`` for the first entry, in row-major order, where a*b
    differs from w*I, else ``(1, i, j)`` for the first where b*a does, or
    None where neither does; a and b are square and of one size.

    ``first_difference(a, b, w)`` and then ``first_difference(b, a, w)``,
    with each matrix's nonzero entries listed once for both products, and
    the entries of both in one ``poly.first_nonzero_sum`` call, so each
    operand is packed at most once.  The counts of both products choose the
    kernel's path.
    """
    n = len(a)
    if shape(a) != (n, n) or shape(b) != (n, n):
        raise ValueError(f"expected square matrices of equal size, "
                         f"got {shape(a)} and {shape(b)}")
    a_rows = _nonzero_rows(a)
    b_rows = _nonzero_rows(b)
    ab, work, terms = _gather(a_rows, b_rows)
    ba, more_work, more_terms = _gather(b_rows, a_rows)
    diagonal = _scalar_rows(w, n)
    batch = []
    where = []
    _signed_entries(ab, diagonal, batch, where)
    split = len(where)
    _signed_entries(ba, diagonal, batch, where)
    index = first_nonzero_sum(batch, work + more_work, terms + more_terms)
    if index is None:
        return None
    return (0 if index < split else 1, *where[index])


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
