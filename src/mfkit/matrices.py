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

``first_difference`` is the one zero test: each check mfkit makes is one
call of it, or of ``failure``, over all the check's equations.  An
equation is a list of signed products ``(a, b, sign)`` and reads
sum(sign * a*b) = w*I, or = 0 without w: P*Q = Q*P = w*I, the two morphism
squares, rho.psi = id, a naturality square, a homotopy witness's two
equations.  No product is built.  Each distinct matrix is listed once for
all the equations, each distinct entry object and w are encoded once as
packed monomials with integer numerators (``poly._pack``, in fields wide
enough for the products and for w), and each row of an equation is summed
in one map keyed by packed monomial and column, over the row's common
denominator (none when every entry and w are integral).  A builder that
wrote a matrix hands its rows' nonzero entries in (``rows``), so the test
walks only those; the packing's fields name every variable of the entries
and of w, which a factorization's ``vars`` reads (``variables``).  The
first row with a nonzero value names the entry; nothing is decoded and no
``Fraction`` is made.  ``PACK_RATIO`` plays no part here: it chooses only
how ``mul`` builds a product.  ``failure`` runs the same test and, only
when an equation fails, builds every equation's residual by ``mul``
(``residual``) to word the failure; residuals that do not show the entry
the test named are an internal error.
"""

from __future__ import annotations

from collections import defaultdict
from math import lcm

from .poly import Polynomial, _pack, as_poly, substitute, sum_of_products

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
    """Per row of a: its nonzero (j, entry)."""
    out = []
    for row in a:
        nonzero = []
        for j, y in enumerate(row):
            if y.terms:
                nonzero.append((j, y))
        out.append(nonzero)
    return out


def _from_nonzero_rows(rows: list, cols: int) -> Matrix:
    """The matrix with ``cols`` columns whose rows have the nonzero
    ``(j, entry)`` lists ``rows``; the inverse of ``_nonzero_rows``."""
    out = []
    for pairs in rows:
        row = [_ZERO] * cols
        for j, e in pairs:
            row[j] = e
        out.append(tuple(row))
    return tuple(out)


def _gather(a: Matrix, b: Matrix) -> tuple:
    """The pair lists of a*b: per row of a, a map from each output column
    to its nonzero (x, y), with the product's term products and operand
    terms counted as the kernel's path choice reads them."""
    b_rows = _nonzero_rows(b)
    b_terms = [sum(len(y.terms) for _, y in row) for row in b_rows]
    terms = sum(b_terms)
    work = 0
    rows = []
    for a_row in _nonzero_rows(a):
        pairs = defaultdict(list)
        for k, x in a_row:
            n = b_terms[k]
            if n:
                t = len(x.terms)
                work += t * n
                terms += t
                for j, y in b_rows[k]:
                    pairs[j].append((x, y))
        rows.append(pairs)
    return rows, work, terms


def mul(a: Matrix, b: Matrix) -> Matrix:
    if shape(a)[1] != shape(b)[0]:
        raise ValueError(f"cannot multiply {shape(a)} by {shape(b)}")
    rows, work, terms = _gather(a, b)
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


def _right_rows(rows: list, packed: dict, width: int) -> list:
    """Per row of a matrix, from its ``_nonzero_rows``, as the right factor
    of a zero test reads it: the lcm r of the row's denominators, and its
    terms as ``(packed monomial + (column << width), numerator over r)``."""
    out = []
    for row in rows:
        r = 1
        for _, y in row:
            if y.den != 1:
                r = lcm(r, y.den)
        out.append((r, [(m + (j << width), c * (r // y.den))
                        for j, y in row for m, c in packed[id(y)]]))
    return out


def _first_row_difference(products, w, packed: dict, width: int, integral: bool):
    """(i, j) of the first nonzero entry, in row-major order, of the sum of
    sign * left*right over ``products``, less w*I when ``w`` is given; or
    None.  A product is ``(left, right, sign)``: the ``_nonzero_rows`` of
    its left factor and the ``_right_rows`` of its right one.

    Row by row, every term product of the row goes into one map keyed by
    ``packed monomial + (column << width)``, as an integer numerator over
    the row's common denominator: the lcm of its pairs' denominators (and
    of w's).  When every operand and w are ``integral`` no row has one, and
    each row is summed as it is.  The row's entries are all zero exactly
    when every value of the map is.
    """
    w_terms = packed[id(w)] if w is not None else ()
    w_den = w.den if w is not None else 1
    den = 1
    for i in range(len(products[0][0])):
        if not integral:
            den = w_den
            for left, right, _ in products:
                for k, x in left[i]:
                    d = x.den * right[k][0]
                    if d != 1:
                        den = lcm(den, d)
        acc: dict = {}
        get = acc.get
        for left, right, sign in products:
            for k, x in left[i]:
                r, ys = right[k]
                s = sign if den == 1 else sign * den // (x.den * r)
                for m1, c1 in packed[id(x)]:
                    if s != 1:
                        c1 *= s
                    for m2, c2 in ys:
                        m = m1 + m2
                        acc[m] = get(m, 0) + c1 * c2
        if w_terms:
            s = den // w_den
            for m, c in w_terms:
                m += i << width
                acc[m] = get(m, 0) - c * s
        if any(acc.values()):
            return i, min(m for m, c in acc.items() if c) >> width
    return None


def first_difference(*equations, w: Polynomial = None, rows: dict = None,
                     variables: set = None):
    """``(k, i, j)`` of the first entry, in row-major order, where equation
    k, the first that fails, does not hold; or None where all hold.

    An equation is a list of ``(a, b, sign)`` terms, sign 1 or -1, and reads
    sum(sign * a*b) = w*I when ``w`` is given, else = 0.  No product is
    built, and no entry is decoded: each distinct matrix (by ``id``) is
    listed once, each distinct entry and w are packed once for all the
    equations, and each row of an equation is summed in one map of integer
    numerators (``_first_row_difference``).

    ``rows`` maps the id of a matrix to its ``_nonzero_rows``, where the
    caller already has them (a builder that wrote the matrix does); every
    other matrix is listed here.  ``variables``, when given, is a set that
    gets the packing's variables: those of every nonzero entry and of w.
    """
    rows = dict(rows or ())  # id of a matrix -> its _nonzero_rows
    for terms in equations:
        if not terms:
            raise ValueError("an equation has no term")
        a, b, _ = terms[0]
        n, m = len(a), len(b[0]) if b else 0
        if w is not None and n != m:
            raise ValueError(f"a {n}x{m} product has no diagonal")
        for a, b, _ in terms:
            if (len(a[0]) if a else 0) != len(b):
                raise ValueError(f"cannot multiply {shape(a)} by {shape(b)}")
            if len(a) != n or (len(b[0]) if b else 0) != m:
                raise ValueError(f"cannot add a {len(a)}x{shape(b)[1]} product "
                                 f"to a {n}x{m} one")
            if id(a) not in rows:
                rows[id(a)] = _nonzero_rows(a)
            if id(b) not in rows:
                rows[id(b)] = _nonzero_rows(b)
    operands = {id(y): y for a in rows.values() for row in a for _, y in row}
    if w is not None:
        operands[id(w)] = w
    packed, fields, width = _pack(operands)
    if variables is not None:
        variables.update(v for v, _, _ in fields)
    integral = all(y.den == 1 for y in operands.values())
    right = {}  # id of a matrix -> its _right_rows
    for k, terms in enumerate(equations):
        for _, b, _ in terms:
            if id(b) not in right:
                right[id(b)] = _right_rows(rows[id(b)], packed, width)
        products = [(rows[id(a)], right[id(b)], sign) for a, b, sign in terms]
        hit = _first_row_difference(products, w, packed, width, integral)
        if hit is not None:
            return (k, *hit)
    return None


def residual(terms, w: Polynomial = None) -> Matrix:
    """sum(sign * a*b) over the ``(a, b, sign)`` terms of an equation, less
    w*I when ``w`` is given: the equation's residual, built by ``mul``."""
    out = None
    for a, b, sign in terms:
        prod = mul(a, b) if sign == 1 else neg(mul(a, b))
        out = prod if out is None else add(out, prod)
    if w is not None:
        out = sub(out, scalar_matrix(len(out), w))
    return out


def failure(*equations, w: Polynomial = None, rows: dict = None,
            variables: set = None):
    """None where every equation holds (``first_difference``, which reads
    ``rows`` and fills ``variables``), else ``(k, i, j, residuals)``: the
    first failing entry, and each equation's ``residual``.  Only a failure
    builds the residuals."""
    hit = first_difference(*equations, w=w, rows=rows, variables=variables)
    if hit is None:
        return None
    residuals = tuple(residual(terms, w) for terms in equations)
    first = next(((k, *at[:2]) for k, r in enumerate(residuals)
                  if (at := first_nonzero(r))), None)
    if first != hit:
        raise RuntimeError(f"the zero test named entry {hit}, but the "
                           f"residuals' first nonzero entry is {first}")
    return (*hit, residuals)


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


def first_nonzero(a: Matrix):
    """(i, j, entry) of the first nonzero entry in row-major order, or None."""
    for i, row in enumerate(a):
        for j, e in enumerate(row):
            if e:
                return (i, j, e)
    return None
