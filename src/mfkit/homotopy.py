"""Homotopy witnesses between morphisms of matrix factorizations.

Two morphisms phi, psi: X -> Y are homotopic when there is an odd pair
lambda = (lambda0: X_even -> Y_odd, lambda1: X_odd -> Y_even) with

    q_Y * lambda0 + lambda1 * p_X == psi.alpha - phi.alpha   (even part)
    p_Y * lambda1 + lambda0 * q_X == psi.beta  - phi.beta    (odd part)

`check_witness` evaluates both residuals exactly.  `find_witness` searches
for lambda with entries of bounded total degree: each candidate entry is a
linear combination of all monomials up to the bound with unknown rational
coefficients, and the two equations become an exact linear system over Q.
An unknown is the coefficient of the k-th monomial, in graded-lex order, of
entry [i][j] of lambda_b, numbered by the int ((b*|Y| + i)*|X| + j)*N + k for
N candidate monomials: ints order as the tuples (b, i, j, k) do, and hash and
compare faster.  A search with more than `MAX_UNKNOWNS` unknowns is refused
before any row is built.  Each distinct entry of d_X and d_Y is expanded once
per search into its shift table -- each of its terms times each candidate
monomial -- and every equation entry that multiplies it reads that table.
The rows, sparse {unknown: coeff} with their right-hand sides, are then
built from the tables one equation entry at a time, as the solve reads
them, so a search with no witness stops building at its first inconsistent
equation.  The equation count and that equation's place, which the
`NotFoundWithinDegree` text names, are counted from the result monomials of
the tables and right-hand sides, with no row built.  The solve is a reduced
row echelon form whose pivot is always the smallest unknown of a row, with
free unknowns pinned to 0.  That form is unique, so the witness does not
depend on row order and its printed bytes are stable; a cheaper pivot
choice (Markowitz) would change which unknowns are free, and so the witness.

The elimination runs over integer rows, with no `Fraction` arithmetic: each
row is cleared of denominators once (a row of ints needs no clearing) and
then only combined as
a*row - b*pivot_row and divided by the gcd of its entries.  Scaling a row
changes neither its support nor, up to that scale, its values, so the pivots,
the rank, the first inconsistent equation and the solution -- each pivot
value is rhs/c, read once at the end -- are exactly those of the reduced
form over Q, and the witness bytes with them.  The solution is checked
against every input row, and a found witness is re-checked before it is
returned.  `NotFoundWithinDegree` only ever means "no witness with entries
of this degree" -- nothing about higher degrees; it names the system's size,
its rank and the first inconsistent equation.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm
from operator import add, mul

from . import matrices as mx
from .matfac import (
    MatrixFactorization,
    Morphism,
    Record,
    ShapeMismatch,
    _set,
    zero_morphism,
)
from .poly import Polynomial, poly_to_str

# A witness search has 2*|Y|*|X|*C(v + d, d) unknowns for v variables and
# degree d.  The limit bounds the unknowns, not the time, which grows with
# the fill-in of the elimination: on a 2-core VM, whose speed varied 2x from
# hour to hour, the Jacobian search on a size-8 product in four variables
# took 2.7-5.5 s at degree 3 (4480 unknowns, 14912 rows, rank 3824) and
# about 50 s at degree 4 (8960 unknowns), nearly all of it in the solve.
# Larger searches are refused before any row is built.
MAX_UNKNOWNS = 20000


class NotFoundWithinDegree(Exception):
    def __init__(self, max_degree: int, detail: str):
        self.max_degree = max_degree
        super().__init__(
            f"no homotopy witness with entry degree <= {max_degree} "
            f"(no claim about higher degrees): {detail}"
        )


class HomotopyWitness(Record):
    __slots__ = ("lambda0", "lambda1", "max_degree")

    def __init__(self, lambda0, lambda1, max_degree):
        _set(self, "lambda0", lambda0)  # X_even -> Y_odd
        _set(self, "lambda1", lambda1)  # X_odd  -> Y_even
        _set(self, "max_degree", max_degree)


class WitnessReport(Record):
    __slots__ = ("ok", "even_residual", "odd_residual")

    def __init__(self, ok, even_residual, odd_residual):
        _set(self, "ok", ok)
        _set(self, "even_residual", even_residual)
        _set(self, "odd_residual", odd_residual)

    def __bool__(self) -> bool:
        return self.ok


def _check_setup(x, y, phi: Morphism, psi: Morphism) -> None:
    for m in (phi, psi):
        if m.source != x or m.target != y:
            raise ShapeMismatch("morphisms must go from x to y")


def check_witness(
    x: MatrixFactorization,
    y: MatrixFactorization,
    phi: Morphism,
    psi: Morphism,
    w: HomotopyWitness,
) -> WitnessReport:
    """Evaluate both homotopy equations for the given witness, exactly."""
    _check_setup(x, y, phi, psi)
    l0 = mx.from_rows(w.lambda0)
    l1 = mx.from_rows(w.lambda1)
    want = (y.size, x.size)
    if mx.shape(l0) != want or mx.shape(l1) != want:
        raise ShapeMismatch(f"witness blocks must be {want}")
    even = mx.sub(
        mx.add(mx.mul(y.q, l0), mx.mul(l1, x.p)),
        mx.sub(psi.alpha, phi.alpha),
    )
    odd = mx.sub(
        mx.add(mx.mul(y.p, l1), mx.mul(l0, x.q)),
        mx.sub(psi.beta, phi.beta),
    )
    return WitnessReport(
        ok=mx.is_zero(even) and mx.is_zero(odd),
        even_residual=even,
        odd_residual=odd,
    )


def _monomials_of_degree(nvars: int, total: int):
    """Exponent vectors of length ``nvars`` >= 1 summing to ``total``,
    ascending."""
    if nvars == 1:
        yield (total,)
        return
    for e in range(total + 1):
        for rest in _monomials_of_degree(nvars - 1, total - e):
            yield (e,) + rest


def _monomials_up_to(nvars: int, degree: int) -> list:
    """Exponent vectors of total degree <= ``degree``, in graded-lex order:
    ``(total, vector)`` ascending."""
    if nvars == 0:
        return [()]
    return [m for total in range(degree + 1)
            for m in _monomials_of_degree(nvars, total)]


def _integer_row(coeffs, rhs) -> list:
    """``[{unknown: int}, int]``: the row times the lcm of its denominators,
    with its zero coefficients dropped; a row of ints is only copied."""
    if type(rhs) is int and {int}.issuperset(map(type, coeffs.values())):
        if all(coeffs.values()):
            return [dict(coeffs), rhs]
        return [{u: c for u, c in coeffs.items() if c}, rhs]
    den = lcm(rhs.denominator, *(c.denominator for c in coeffs.values()))
    return [{u: c.numerator * (den // c.denominator) for u, c in coeffs.items() if c},
            rhs.numerator * (den // rhs.denominator)]


def _eliminate(row: list, u, pivot_row: list) -> None:
    """``row = a*row - b*pivot_row`` in place, with a/b the lowest-terms
    ratio of the two coefficients of ``u``, so ``u`` drops out of ``row``;
    ``a`` > 0 whenever the coefficient of ``u`` in ``pivot_row`` is."""
    coeffs, pivot_coeffs = row[0], pivot_row[0]
    g = gcd(coeffs[u], pivot_coeffs[u])
    a, b = pivot_coeffs[u] // g, coeffs[u] // g
    if a != 1:
        for v in coeffs:
            coeffs[v] *= a
    for v, c in pivot_coeffs.items():
        x = coeffs.pop(v, 0) - b * c
        if x:
            coeffs[v] = x
    row[1] = a * row[1] - b * pivot_row[1]


def _make_primitive(row: list, p) -> None:
    """Divide ``row`` by the gcd of its entries, signed so that the
    coefficient of ``p`` is positive."""
    coeffs = row[0]
    g = gcd(row[1], *coeffs.values())
    if coeffs[p] < 0:
        g = -g
    if g != 1:
        for v in coeffs:
            coeffs[v] //= g
        row[1] //= g


def _solve_gauss_jordan(rows, nunknowns: int):
    """Exact sparse solve of ``rows``, a sized iterable of
    ``({unknown: coeff}, rhs)`` over the unknowns ``0 .. nunknowns - 1``; an
    unknown that no row names is free.  ``rows`` is read once, in order, and
    not past the first inconsistent row; the rows read are kept for the
    final check of every one of them, which alone needs ``nunknowns``.
    ``bench/tracer.py`` takes ``len(rows)`` and iterates ``rows`` before
    this function does, so a lazily built ``rows`` must allow both.

    Returns ``(solution, rank, bad)``.  ``solution`` maps each pivot unknown
    to its value (free unknowns are 0) and ``bad`` is None; or the system is
    inconsistent, ``solution`` is None and ``bad`` is the index of the first
    row that reduces to ``0 = rhs != 0``, with ``rank`` the rank before it.

    Every pivot row is a primitive integer row with a positive pivot, a
    multiple of the reduced row over Q; its value is ``rhs / c`` for pivot
    coefficient ``c`` (see the module docstring).
    """
    pivots = {}  # pivot unknown -> primitive integer row, free of other pivots
    # unknown -> pivots whose rows may name it: every unknown a pivot row has
    # ever held, so a new pivot is back-eliminated without scanning all rows
    holders = defaultdict(set)
    read = []
    for n, given in enumerate(rows):
        read.append(given)
        row = _integer_row(*given)
        for u in [u for u in row[0] if u in pivots]:
            _eliminate(row, u, pivots[u])
        if not row[0]:
            if row[1]:
                return None, len(pivots), n
            continue
        p = min(row[0])
        _make_primitive(row, p)
        for q in holders.pop(p, ()):
            other = pivots[q]
            if p in other[0]:
                _eliminate(other, p, row)
                _make_primitive(other, q)
                for v in row[0]:
                    holders[v].add(q)
        for v in row[0]:
            holders[v].add(p)
        pivots[p] = row
    sol = {}
    for p, (coeffs, rhs) in pivots.items():
        c = coeffs[p]
        sol[p] = rhs // c if rhs % c == 0 else Fraction(rhs, c)
    # Check every input row exactly, in integers over the common denominator.
    den = lcm(*(v.denominator for v in sol.values()))
    scaled = [0] * nunknowns
    for u, v in sol.items():
        scaled[u] = v.numerator * (den // v.denominator)
    for n, (coeffs, rhs) in enumerate(read):
        if sum(map(mul, coeffs.values(), map(scaled.__getitem__, coeffs))) != rhs * den:
            raise RuntimeError(f"internal: solution fails equation {n}")
    return sol, len(pivots), None


def _shift_table(poly: Polynomial, vars_m: tuple, monos: list) -> list:
    """``[(result monomial, k, coeff)]``: each term of ``poly`` times each
    candidate monomial ``monos[k]``, as exponent vectors over ``vars_m``."""
    return [(tuple(map(add, km, mo)), k, kc)
            for km, kc in poly.dense_terms(vars_m).items()
            for k, mo in enumerate(monos)]


class _Rows:
    """The rows ``({unknown: coeff}, rhs)`` of both homotopy equations,
    entry by entry, even before odd, each entry's rows in ascending result
    monomial.  Sized and re-iterable; an iteration builds an entry's rows
    only when it reaches that entry.

    Unknown ``(b, i, j, k)`` is numbered ``((b*ny + i)*nxs + j)*nm + k``.
    One equation entry names each unknown entry of lambda once, in one
    product with one known entry, so each (result monomial, unknown) pair
    is written once: a store, never a sum."""

    def __init__(self, x, y, phi, psi, vars_m: tuple, monos: list):
        self._vars_m = vars_m
        self._shape = (y.size, x.size, len(monos))
        self._supports = {}  # id of a shift table -> its result monomials
        tables = {}  # known entry -> its shift table, built once per search

        def shift_tables(m):
            out = []
            for row in m:
                out.append([])
                for e in row:
                    table = tables.get(e) if e else ()
                    if table is None:
                        table = tables[e] = _shift_table(e, vars_m, monos)
                    out[-1].append(table)
            return out

        # even entry (i, j): sum_k qY[i,k] l0[k,j] + l1[i,k] pX[k,j]
        # odd entry (i, j):  sum_k pY[i,k] l1[k,j] + l0[i,k] qX[k,j]
        # so d_Y multiplies lambda_b and d_X multiplies lambda_(1-b); per
        # part, the tables of d_Y by row and of d_X by column.
        self._parts = [
            (part, b, shift_tables(d_y), list(zip(*shift_tables(d_x))), rhs_m)
            for part, b, d_y, d_x, rhs_m in (
                ("even", 0, y.q, x.p, mx.sub(psi.alpha, phi.alpha)),
                ("odd", 1, y.p, x.q, mx.sub(psi.beta, phi.beta)))]

    def _entries(self):
        """Per equation entry, in row order: ``(part, i, j, factors, rhs)``,
        ``factors`` the ``(shift table, number of its unknown k = 0)`` of
        each product and ``rhs`` the dense terms of the right-hand side."""
        ny, nxs, nm = self._shape

        def first(b, i, j):
            """The number of unknown (b, i, j, 0)."""
            return ((b * ny + i) * nxs + j) * nm

        for i in range(ny):
            for j in range(nxs):
                for part, b, y_rows, x_cols, rhs_m in self._parts:
                    # entries [k][j] of lambda_b, then [i][k] of lambda_(1-b)
                    right = range(first(b, 0, j), first(b, ny, j), nxs * nm)
                    left = range(first(1 - b, i, 0), first(1 - b, i, nxs), nm)
                    yield (part, i, j,
                           chain(zip(y_rows[i], right), zip(x_cols[j], left)),
                           rhs_m[i][j].dense_terms(self._vars_m))

    def __iter__(self):
        for _, _, _, factors, rhs in self._entries():
            eq = {}  # result monomial -> {unknown: coeff}
            for table, base in factors:
                for res, k, kc in table:
                    terms = eq.get(res)
                    if terms is None:
                        eq[res] = {base + k: kc}
                    else:
                        terms[base + k] = kc
            for res in sorted(eq.keys() | rhs.keys()):
                yield eq.get(res, {}), rhs.get(res, 0)

    def _entry_supports(self):
        """Per equation entry, in row order: ``(part, i, j, support)``, the
        result monomials of its rows -- those of its shift tables and its
        right-hand side -- counted without building the rows."""
        for part, i, j, factors, rhs in self._entries():
            support = set(rhs)
            for table, _ in factors:
                # the tables live as long as self, so their ids are stable
                known = self._supports.get(id(table))
                if known is None:
                    known = self._supports[id(table)] = {res for res, _, _ in table}
                support |= known
            yield part, i, j, support

    def __len__(self) -> int:
        return sum(len(support) for *_, support in self._entry_supports())

    def where(self, n: int) -> tuple:
        """``(part, i, j, result monomial)`` of row ``n``."""
        for part, i, j, support in self._entry_supports():
            if n < len(support):
                return part, i, j, sorted(support)[n]
            n -= len(support)
        raise IndexError(n)


def find_witness(
    x: MatrixFactorization,
    y: MatrixFactorization,
    phi: Morphism,
    psi: Morphism,
    max_degree: int,
) -> HomotopyWitness:
    """Solve for a witness with entry total degree <= max_degree."""
    _check_setup(x, y, phi, psi)
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    vars_m = tuple(sorted(set(x.vars) | set(y.vars)))
    ny, nxs = y.size, x.size
    nunknowns = 2 * ny * nxs * comb(len(vars_m) + max_degree, max_degree)
    if nunknowns > MAX_UNKNOWNS:
        raise ValueError(
            f"a witness search with entry degree <= {max_degree} has {nunknowns} "
            f"unknowns, above the limit of {MAX_UNKNOWNS}")
    monos = _monomials_up_to(len(vars_m), max_degree)
    rows = _Rows(x, y, phi, psi, vars_m, monos)
    sol, rank, bad = _solve_gauss_jordan(rows, nunknowns)
    if sol is None:
        part, i, j, res = rows.where(bad)
        mono = poly_to_str(Polynomial.from_dense(vars_m, {res: Fraction(1)}))
        raise NotFoundWithinDegree(max_degree, (
            f"{nunknowns} unknowns, {len(rows)} equations, rank {rank} at the "
            f"first inconsistent equation, {part} entry [{i}][{j}], monomial {mono}"))

    def rebuild(b):
        nm = len(monos)
        return tuple(tuple(
            Polynomial.from_dense(vars_m, {
                mo: c for k, mo in enumerate(monos)
                if (c := sol.get(((b * ny + i) * nxs + j) * nm + k))})
            for j in range(nxs)) for i in range(ny))

    witness = HomotopyWitness(
        lambda0=rebuild(0), lambda1=rebuild(1), max_degree=max_degree
    )
    report = check_witness(x, y, phi, psi, witness)
    if not report.ok:
        raise RuntimeError("internal: solved witness failed re-check")
    return witness


def is_null_homotopic(
    x: MatrixFactorization,
    y: MatrixFactorization,
    phi: Morphism,
    max_degree: int,
) -> tuple:
    """(found, witness-or-None) for phi ~ 0, searching up to max_degree."""
    try:
        w = find_witness(x, y, phi, zero_morphism(x, y), max_degree)
        return (True, w)
    except NotFoundWithinDegree:
        return (False, None)
