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
all the equations, each distinct atom (below) and w are encoded once as
packed monomials with integer numerators (``poly._pack``, in fields wide
enough for the products and for w), and each row of an equation is summed
in one map keyed by packed monomial and column, over the row's common
denominator (none when every entry and w are integral).  The first row
with a nonzero value names the entry; nothing is decoded and no
``Fraction`` is made.  ``PACK_RATIO`` plays no part here: it chooses only
how ``mul`` builds a product.  ``failure`` runs the same test and, only
when an equation fails, builds every equation's residual by ``mul``
(``residual``) to word the failure; residuals that do not show the entry
the test named are an internal error.

A builder that wrote a matrix hands the test its signed rows (``rows``):
per row, each nonzero entry as ``(column, atom, sign)``, where the atom is
an unsigned polynomial object and the entry is sign * atom, with the
atoms themselves (``atoms``).  The builder builds the matrix it returns
from exactly those rows (``_from_signed_rows``, one negation per atom), so
the test decides the matrix the caller gets, walks only its nonzero
entries, and packs only the atoms.  Every other matrix is listed by the
test (``_signed_rows``), each entry its own atom of sign 1.  The packing's
fields name every variable of the entries and of w, which a
factorization's ``vars`` reads (``variables``).

A product of two handed matrices, when some handed atom has more than one
term, sums its row's pairs of atoms before it expands them: each pair with
a multi-term atom adds its sign at its unordered pair of atoms and its
column, and only the pairs whose signs do not sum to 0 are expanded, times
that sum.  A
builder's signs come from a rule -- the Koszul relations x*y - y*x of a
unit, the a*b - b*a blocks of a tensor layout -- so most of a unit's pairs
cancel there before any term product is made.  Every other pair is
expanded as it is read.  A pair of one-term atoms is one term product
either way.  A listed matrix carries no signs, and its pairs (outside
input, morphism squares, rho.psi, witness re-checks) seldom meet again
as atoms, so summing them first would mostly add a map update per pair.  The
regrouped sum is the same sum, so the test accepts, refuses and names
exactly what it did without it.
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


def _signed_rows(a: Matrix, atoms: dict) -> list:
    """Per row of a, its nonzero entries as ``(j, entry, 1)``: each entry
    is its own atom, and goes into ``atoms`` by id."""
    out = []
    for row in a:
        nonzero = []
        for j, y in enumerate(row):
            if y.terms:
                nonzero.append((j, y, 1))
                atoms[id(y)] = y
        out.append(nonzero)
    return out


def _from_signed_rows(rows: list, cols: int, negs: dict) -> Matrix:
    """The matrix with ``cols`` columns whose rows have the nonzero
    ``(j, atom, sign)`` lists ``rows``: entry j is the atom itself where
    the sign is 1, else its negation, made once per atom and kept in
    ``negs`` (by id) for the caller's other matrices."""
    out = []
    for pairs in rows:
        row = [_ZERO] * cols
        for j, a, s in pairs:
            if s == 1:
                row[j] = a
            else:
                e = negs.get(id(a))
                if e is None:
                    e = negs[id(a)] = -a
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


def _right_rows(rows: list, packed: dict, width: int, grouping: tuple = None) -> list:
    """Per row of a matrix, from its signed rows, as the right factor of a
    zero test reads it: the lcm r of the row's denominators, and its terms
    as ``(packed monomial + (column << width), sign * numerator over r)``.

    With ``grouping`` (``_first_row_difference``) only the single-term
    atoms' terms are listed, and the row also gets ``(bit + (column <<
    shift), sign)`` for its multi-term atoms, and for all of them."""
    out = []
    for row in rows:
        r = 1
        for _, y, _ in row:
            if y.den != 1:
                r = lcm(r, y.den)
        if grouping is None:
            out.append((r, [(m + (j << width), c * (s * r // y.den))
                            for j, y, s in row for m, c in packed[id(y)]]))
            continue
        bits, _, shift = grouping
        ys, multi, every = [], [], []
        for j, y, s in row:
            terms = packed[id(y)]
            key = (bits[id(y)] + (j << shift), s)
            every.append(key)
            if len(terms) > 1:
                multi.append(key)
            else:
                m, c = terms[0]
                ys.append((m + (j << width), c * (s * r // y.den)))
        out.append((r, ys, multi, every))
    return out


def _first_row_difference(products, w, packed: dict, width: int, integral: bool,
                          grouping: tuple = None):
    """(i, j) of the first nonzero entry, in row-major order, of the sum of
    sign * left*right over ``products``, less w*I when ``w`` is given; or
    None.  A product is ``(left, right, sign, grouped)``: the signed rows
    of its left factor and the ``_right_rows`` of its right one.

    Row by row, every term product of the row goes into one map keyed by
    ``packed monomial + (column << width)``, as an integer numerator over
    the row's common denominator: the lcm of its pairs' denominators (and
    of w's).  When every operand and w are ``integral`` no row has one, and
    each row is summed as it is.  The row's entries are all zero exactly
    when every value of the map is.

    In a ``grouped`` product both factors' atoms are handed.  A pair of
    atoms x, y at output column j, one of them with more than one term, is
    not expanded at once: its sign is added at the key ``bits[x] + bits[y]
    + (j << shift)`` of a second map, where ``grouping`` is ``(bits,
    order, shift)``.  ``bits`` gives the n-th handed atom, ``order[n]``,
    the bit 1 << n, so the key's low ``shift`` bits are two set bits for x
    != y and the one bit of x << 1 for x = y: the unordered pair, whichever
    factor each atom came from.  After the row only the keys with a nonzero
    sum c are expanded, as c * x*y, into the first map.  So a pair that
    cancels (a*b - b*a) costs one addition and no term product.  Every
    other pair is expanded as it is read.
    """
    w_terms = packed[id(w)] if w is not None else ()
    w_den = w.den if w is not None else 1
    if grouping is not None:
        bits, order, shift = grouping
        mask = (1 << shift) - 1
    den = 1
    for i in range(len(products[0][0])):
        if not integral:
            den = w_den
            for left, right, _, _ in products:
                for k, x, _ in left[i]:
                    d = x.den * right[k][0]
                    if d != 1:
                        den = lcm(den, d)
        acc: dict = {}
        get = acc.get
        if grouping is not None:
            groups: dict = {}
            add = groups.get
        for left, right, sign, grouped in products:
            if not grouped:
                for k, x, sx in left[i]:
                    r, ys = right[k]
                    s = sign * sx if den == 1 else sign * sx * den // (x.den * r)
                    for m1, c1 in packed[id(x)]:
                        if s != 1:
                            c1 *= s
                        for m2, c2 in ys:
                            m = m1 + m2
                            acc[m] = get(m, 0) + c1 * c2
                continue
            for k, x, sx in left[i]:
                r, ys, multi, every = right[k]
                s = sign * sx
                ix = id(x)
                xs = packed[ix]
                if len(xs) == 1:
                    keys = multi
                    if ys:
                        m1, c1 = xs[0]
                        c1 *= s if den == 1 else s * den // (x.den * r)
                        for m2, c2 in ys:
                            m = m1 + m2
                            acc[m] = get(m, 0) + c1 * c2
                else:
                    keys = every
                bx = bits[ix]
                for key, sy in keys:
                    key += bx
                    groups[key] = add(key, 0) + s * sy
        if grouping is not None:
            for key, c in groups.items():
                if not c:
                    continue
                pair = key & mask
                hi = pair.bit_length() - 1
                lo = (pair - (1 << hi)).bit_length() - 1
                if lo < 0:  # x = y: its bit, doubled
                    hi = lo = hi - 1
                x, y = order[hi], order[lo]
                s = c if den == 1 else c * den // (x.den * y.den)
                col = key >> shift << width
                ys = packed[id(y)]
                for m1, c1 in packed[id(x)]:
                    m1 += col
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
                     atoms: dict = None, variables: set = None):
    """``(k, i, j)`` of the first entry, in row-major order, where equation
    k, the first that fails, does not hold; or None where all hold.

    An equation is a list of ``(a, b, sign)`` terms, sign 1 or -1, and reads
    sum(sign * a*b) = w*I when ``w`` is given, else = 0.  No product is
    built, and no entry is decoded: each distinct matrix (by ``id``) is
    listed once, each distinct atom and w are packed once for all the
    equations, and each row of an equation is summed in one map of integer
    numerators (``_first_row_difference``).

    ``rows`` maps the id of a matrix to its signed rows, where the caller
    wrote the matrix from them (``_from_signed_rows``): per row, its
    nonzero entries as ``(column, atom, sign)``, the entry being sign *
    atom.  ``atoms`` maps the id of each atom of those rows to it.  Every
    other matrix is listed here (``_signed_rows``), each entry its own
    atom.  A product of two handed matrices groups its pairs of atoms when
    some handed atom has more than one term; no other product does.
    ``variables``, when given, is a set that gets the packing's variables:
    those of every nonzero entry and of w.
    """
    signed = dict(rows or ())  # id of a matrix -> its signed rows
    operands = dict(atoms or ())
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
            if id(a) not in signed:
                signed[id(a)] = _signed_rows(a, operands)
            if id(b) not in signed:
                signed[id(b)] = _signed_rows(b, operands)
    if w is not None:
        operands[id(w)] = w
    packed, fields, width = _pack(operands)
    if variables is not None:
        variables.update(v for v, _, _ in fields)
    integral = all(y.den == 1 for y in operands.values())
    grouping = None
    if rows and any(len(packed[key]) > 1 for key in atoms):
        order = list(atoms.values())
        grouping = ({id(y): 1 << n for n, y in enumerate(order)}, order, len(order) + 1)
    right = {}  # (id of a matrix, grouped) -> its _right_rows
    for k, terms in enumerate(equations):
        products = []
        for a, b, sign in terms:
            grouped = grouping is not None and id(a) in rows and id(b) in rows
            if (id(b), grouped) not in right:
                right[id(b), grouped] = _right_rows(signed[id(b)], packed, width,
                                                    grouping if grouped else None)
            products.append((signed[id(a)], right[id(b), grouped], sign, grouped))
        hit = _first_row_difference(products, w, packed, width, integral, grouping)
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
            atoms: dict = None, variables: set = None):
    """None where every equation holds (``first_difference``, which reads
    ``rows`` and ``atoms`` and fills ``variables``), else ``(k, i, j,
    residuals)``: the first failing entry, and each equation's
    ``residual``.  Only a failure builds the residuals."""
    hit = first_difference(*equations, w=w, rows=rows, atoms=atoms,
                           variables=variables)
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
