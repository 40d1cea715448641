"""Homotopy witnesses between morphisms of matrix factorizations.

Two morphisms phi, psi: X -> Y are homotopic when there is an odd pair
lambda = (lambda0: X_even -> Y_odd, lambda1: X_odd -> Y_even) with

    q_Y * lambda0 + lambda1 * p_X == psi.alpha - phi.alpha   (even part)
    p_Y * lambda1 + lambda0 * q_X == psi.beta  - phi.beta    (odd part)

`check_witness` decides both equations exactly, in one zero test
(`matrices.failure`) with psi - phi entered as two terms against the
identity; it builds the residual matrices only when an equation fails, and
a passing report holds zero matrices.  `find_witness` searches
for lambda with entries of bounded total degree: each candidate entry is a
linear combination of all monomials up to the bound with unknown rational
coefficients, and the two equations become an exact linear system over Q.
An unknown is the coefficient of the k-th monomial, in graded-lex order, of
entry [i][j] of lambda_b, numbered by the int ((b*|Y| + i)*|X| + j)*N + k for
N candidate monomials: ints order as the tuples (b, i, j, k) do, and hash and
compare faster.  A search with more than `MAX_UNKNOWNS` unknowns is refused
before any row is built.  The search lists its equation entries once, in
row order, each with the entries of d_X and d_Y it reads, the unknowns they
multiply and its entries of psi and phi, and expands nothing more.  The
rows, sparse {unknown: coeff} with their right-hand sides, are built from
that list one equation entry at a time, as the solve reads them.  The
first time an entry is reached, each entry of d_X and d_Y it reads is
expanded into its shift table -- each of its terms times each candidate
monomial -- once per distinct value in a search, and its right-hand side
into the dense terms of psi - phi.  So a search with no witness expands
only the entries up to its first inconsistent equation.  The
`NotFoundWithinDegree` text names the equation count and that equation's
place, counted from the same list, with no row built but with every entry
expanded; a search's exception works them out only when its message is
first read, so `is_null_homotopic`, which reads no message, never pays for
them.  The solve is a reduced row echelon form whose pivot is always the
smallest unknown of a row, with free unknowns pinned to 0.  That form is
unique, so the witness does not depend on row order and its printed bytes
are stable; a cheaper pivot choice (Markowitz) would change which unknowns
are free, and so the witness.

The rows split into connected components, two unknowns joined when a row
names both, and the solve eliminates only the rows of the components that
carry a nonzero right-hand side.  Each row read merges the components it
names into one.  If the row has a nonzero right-hand side or names a live
unknown, that component is live: its waiting rows are reduced, then the
row.  Otherwise the row waits with the component's other rows.  The reduced
form is block-diagonal over the components, and a component whose
right-hand sides are all 0 is homogeneous: each of its pivot values is 0,
and the witness keeps no zero coefficient, so leaving it unreduced leaves
the witness bytes as they were.  In a Jacobian search d_v(w) * id ~ 0 on a
size-4 product at degree 2, for one, a single component of 40 carries the
right-hand side, with 24 of the 956 rows.

The elimination runs over integer rows, with no `Fraction` arithmetic: each
row is cleared of denominators once (a row of ints needs no clearing) and
then only combined as a*row - b*pivot_row and divided by the gcd of its
entries.  Scaling a row changes neither its support nor, up to that scale,
its values, so the pivots, the rank, the first inconsistent equation and
the solution -- each pivot value is rhs/c, read once at the end -- are
exactly those of the reduced form over Q, and the witness bytes with them.
The solution is checked against every input row, those left unreduced too,
and a found witness is re-checked (`check_witness`, no product built)
before it is returned.
`NotFoundWithinDegree` only ever means "no witness with entries of this
degree" -- nothing about higher degrees; it names the system's size, its
rank and the first inconsistent equation.
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
# the fill-in of the elimination of the components that carry a nonzero
# right-hand side.  The worst case is one such component over the whole
# system: on a 2-core VM, whose speed varied 2x from hour to hour, the
# Jacobian search on the size-8 product of (v + 1, v^2 - v + 1) in four
# variables took 6.8-7.4 s at degree 3 (4480 unknowns, 14912 rows, rank
# 3824) and 59 s at degree 4 (8960 unknowns), nearly all of it in the
# solve; on the product of (v, v^2), whose right-hand side sits in one of
# many components, it took 0.06 and 0.10 s.  Larger searches are refused
# before any row is built.
MAX_UNKNOWNS = 20000


class NotFoundWithinDegree(Exception):
    """No witness with entries of degree <= ``max_degree``; ``detail`` names
    the system searched.  A search raises it unworded: the detail is worked
    out when the message is first read (``str``, or a pickle or copy), and
    the exception then drops its reference to the search."""

    _word = None  # until the detail is worded: the call that words it

    def __init__(self, max_degree: int, detail: str):
        super().__init__(max_degree, detail)
        self.max_degree = max_degree

    def __str__(self) -> str:
        if self._word is not None:
            self.args = (self.max_degree, self._word())
            del self._word
        return (f"no homotopy witness with entry degree <= {self.max_degree} "
                f"(no claim about higher degrees): {self.args[1]}")

    def __reduce__(self):
        str(self)
        return type(self), self.args


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
    declared = set(x.vars).union(y.vars)
    for name, m in (("phi", phi), ("psi", psi)):
        if m.source != x or m.target != y:
            raise ShapeMismatch("morphisms must go from x to y")
        for row in chain(m.alpha, m.beta):
            for e in row:
                for mono in e.terms:
                    for v, _ in mono:
                        if v not in declared:
                            raise ShapeMismatch(
                                f"{name} names the variable {v}, which neither "
                                "factorization declares")


def check_witness(
    x: MatrixFactorization,
    y: MatrixFactorization,
    phi: Morphism,
    psi: Morphism,
    w: HomotopyWitness,
) -> WitnessReport:
    """Decide both homotopy equations for the given witness exactly, in one
    ``matrices.failure`` call: only a failure builds the residual matrices,
    and a pass holds zero matrices."""
    _check_setup(x, y, phi, psi)
    l0 = mx.from_rows(w.lambda0)
    l1 = mx.from_rows(w.lambda1)
    want = (y.size, x.size)
    if mx.shape(l0) != want or mx.shape(l1) != want:
        raise ShapeMismatch(f"witness blocks must be {want}")
    # psi - phi enters each equation as two terms against the identity.
    i_x = mx.identity(x.size)
    hit = mx.failure(
        [(y.q, l0, 1), (l1, x.p, 1), (psi.alpha, i_x, -1), (phi.alpha, i_x, 1)],
        [(y.p, l1, 1), (l0, x.q, 1), (psi.beta, i_x, -1), (phi.beta, i_x, 1)])
    if hit is None:
        zero = mx.zeros(*want)
        return WitnessReport(ok=True, even_residual=zero, odd_residual=zero)
    even, odd = hit[3]
    return WitnessReport(ok=False, even_residual=even, odd_residual=odd)


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
    this function does, so a lazily built ``rows`` must allow both; its
    ``len`` expands every equation entry of a ``_Rows`` before the solve,
    and that time lands in the tracer's own hook time
    (``trace.overhead_frac``), not in ``homotopy.assemble_s``.

    Only the rows of live components are eliminated.  Two unknowns are in
    one component when a chain of rows names them, and a component is live
    once one of its rows has rhs != 0.  Each row read merges the components
    it names into one, by one rule: if the merged component is live -- the
    row has rhs != 0 or names a live unknown -- its waiting rows are
    reduced, then the row; if not, the row waits with them, unreduced.  The
    reduced form is block-diagonal over the components, and a component
    whose rows all have rhs 0 is homogeneous, so each of its pivot values is
    0: leaving it unreduced changes no value of the solution.  Nor does it
    move the first inconsistent row: a row with rhs 0 is never inconsistent,
    and whether a row is depends only on the rows of its own component, all
    reduced when it arrives.

    Returns ``(solution, rank, bad)``.  ``solution`` maps each pivot unknown
    of the live components to its value (every other unknown is 0), ``rank``
    counts those pivots, and ``bad`` is None; or the system is
    inconsistent, ``solution`` is None and ``bad`` is the index of the first
    row that reduces to ``0 = rhs != 0``, with ``rank`` the rank of all the
    rows before it: the rows still waiting are reduced first.

    Every pivot row is a primitive integer row with a positive pivot, a
    multiple of the reduced row over Q; its value is ``rhs / c`` for pivot
    coefficient ``c`` (see the module docstring).
    """
    pivots = {}  # pivot unknown -> primitive integer row, free of other pivots
    # unknown -> pivots whose rows may name it: every unknown a pivot row has
    # ever held, so a new pivot is back-eliminated without scanning all rows
    holders = defaultdict(set)

    def reduce(given) -> bool:
        """Make ``given`` a pivot row, or find it dependent; False if it
        reduces to ``0 = rhs != 0``."""
        row = _integer_row(*given)
        for u in [u for u in row[0] if u in pivots]:
            _eliminate(row, u, pivots[u])
        if not row[0]:
            return not row[1]
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
        return True

    # A union-find over the unknowns whose find is one list read: comp[u] is
    # the id c of u's component, or ``live`` once that component is live.
    # members[c] lists c's unknowns once it has more than one (no step reads
    # ``live``'s), and waiting[c] its rows read but not reduced.  Each
    # row merges the components it names into one target: ``live`` if the
    # merged component is live, else the largest of them.  The others are
    # relabelled to the target, and their waiting rows move to it, or, when
    # it is ``live``, are reduced before the row.
    live = -1
    comp = list(range(nunknowns))
    members = {}
    waiting = defaultdict(list)
    find = comp.__getitem__
    read = []
    for n, given in enumerate(rows):
        read.append(given)
        ids = set(map(find, given[0]))
        if given[1] or live in ids or not ids:
            target = live
        elif len(ids) == 1:
            target = ids.pop()
        else:
            target = max(ids, key=lambda c: len(members.get(c, ())))
        ids.discard(target)
        stale = waiting[target]
        for c in ids:
            moved = members.pop(c, (c,))
            for u in moved:
                comp[u] = target
            members.setdefault(target, [target]).extend(moved)
            stale += waiting.pop(c, ())
        if target != live:
            stale.append(given)
            continue
        for waited in stale:
            reduce(waited)  # rhs 0 throughout, so never inconsistent
        stale.clear()
        if not reduce(given):
            # Reduce the rows still waiting, so that the rank is that of
            # every row before row n.
            for stale in waiting.values():
                for waited in stale:
                    reduce(waited)
            return None, len(pivots), n
    sol = {}
    for p, (coeffs, rhs) in pivots.items():
        c = coeffs[p]
        sol[p] = rhs // c if rhs % c == 0 else Fraction(rhs, c)
    # Check every input row exactly, in integers over the common denominator:
    # the rows still waiting, whose unknowns are all 0, too.
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

    ``__init__`` lists the equation entries once, in row order, and expands
    nothing: ``(part, i, j, known, sides)``, with ``known`` the ``(known
    entry, number of its unknown k = 0)`` of each product with a nonzero
    known entry and ``sides`` the entries of psi and phi.  The first walk
    (``_walk``) to reach an equation entry builds what it reads and keeps
    it: the shift table of each of its known entries, once per distinct
    value (looked up by object first, so a value is hashed once per
    object), and its right-hand side, the dense terms of psi - phi, with a
    zero side not expanded.  Iteration, ``len`` and ``where`` all walk that
    list, so a search that stops in its first equation entry expands that
    entry alone.
    Unknown ``(b, i, j, k)`` is numbered ``first(b, i, j) + k``.  One
    equation entry names each unknown entry of lambda once, in one product
    with one known entry, so each (result monomial, unknown) pair is written
    once: a store, never a sum."""

    def __init__(self, x, y, phi, psi, vars_m: tuple, monos: list):
        ny, nxs, nm = self._shape = (y.size, x.size, len(monos))
        self._vars_m, self._monos = vars_m, monos
        first = self.first
        # even entry (i, j): sum_k qY[i,k] l0[k,j] + l1[i,k] pX[k,j]
        # odd entry (i, j):  sum_k pY[i,k] l1[k,j] + l0[i,k] qX[k,j]
        # so d_Y multiplies lambda_b and d_X multiplies lambda_(1-b); per
        # part, the known entries of d_Y by row and of d_X by column.
        parts = [(part, b, d_y, list(zip(*d_x)), psi_m, phi_m)
                 for part, b, d_y, d_x, psi_m, phi_m in (
                     ("even", 0, y.q, x.p, psi.alpha, phi.alpha),
                     ("odd", 1, y.p, x.q, psi.beta, phi.beta))]
        self._entries = []
        for i in range(ny):
            for j in range(nxs):
                for part, b, y_rows, x_cols, psi_m, phi_m in parts:
                    # entries [k][j] of lambda_b, then [i][k] of lambda_(1-b)
                    bases = chain(range(first(b, 0, j), first(b, ny, j), nxs * nm),
                                  range(first(1 - b, i, 0), first(1 - b, i, nxs), nm))
                    known = [(e, base) for e, base
                             in zip(chain(y_rows[i], x_cols[j]), bases) if e]
                    self._entries.append(
                        (part, i, j, known, (psi_m[i][j], phi_m[i][j])))
        self._tables = {}  # id of a known entry -> its shift table, once built
        self._by_value = {}  # known entry -> its shift table, once built
        self._rhs = [None] * len(self._entries)  # entry -> dense rhs, once built

    def first(self, b: int, i: int, j: int) -> int:
        """The number of unknown (b, i, j, 0)."""
        ny, nxs, nm = self._shape
        return ((b * ny + i) * nxs + j) * nm

    def _walk(self):
        """Per equation entry, in row order, ``(factors, rhs)``: the ``(shift
        table, number of its unknown k = 0)`` of each product and the dense
        terms of the right-hand side, each built the first time a walk reads
        it."""
        tables, by_value, rhs_of = self._tables, self._by_value, self._rhs
        for n, (_, _, _, known, (psi_e, phi_e)) in enumerate(self._entries):
            factors = []
            for e, base in known:
                t = tables.get(id(e))
                if t is None:
                    t = by_value.get(e)
                    if t is None:
                        t = by_value[e] = _shift_table(e, self._vars_m, self._monos)
                    tables[id(e)] = t
                factors.append((t, base))
            rhs = rhs_of[n]
            if rhs is None:
                # psi - phi on dense terms: no Polynomial arithmetic, which
                # bench/tracer.py would time inside its hook on the solve
                rhs = rhs_of[n] = psi_e.dense_terms(self._vars_m) if psi_e else {}
                if phi_e:
                    for m, c in phi_e.dense_terms(self._vars_m).items():
                        c = rhs.pop(m, 0) - c
                        if c:
                            rhs[m] = c
            yield factors, rhs

    def __iter__(self):
        for factors, rhs in self._walk():
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
        """Per equation entry, in row order, the result monomials of its
        rows -- those of its shift tables and its right-hand side -- counted
        without building the rows."""
        known = {}  # id of a shift table -> its result monomials
        for factors, rhs in self._walk():
            support = set(rhs)
            for table, _ in factors:
                if id(table) not in known:
                    known[id(table)] = {res for res, _, _ in table}
                support |= known[id(table)]
            yield support

    def __len__(self) -> int:
        return sum(map(len, self._entry_supports()))

    def _locate(self, n: int) -> tuple:
        """``(number of rows, (part, i, j, result monomial) of row n)``, from
        one walk of the supports; the place is None past the last row."""
        count, at = 0, None
        for (part, i, j, _, _), support in zip(self._entries, self._entry_supports()):
            if at is None and n < count + len(support):
                at = part, i, j, sorted(support)[n - count]
            count += len(support)
        return count, at

    def where(self, n: int) -> tuple:
        """``(part, i, j, result monomial)`` of row ``n``."""
        at = self._locate(n)[1]
        if at is None:
            raise IndexError(n)
        return at


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
        def word():
            nrows, (part, i, j, res) = rows._locate(bad)
            mono = poly_to_str(Polynomial.from_dense(vars_m, {res: Fraction(1)}))
            return (f"{nunknowns} unknowns, {nrows} equations, rank {rank} at the "
                    f"first inconsistent equation, {part} entry [{i}][{j}], monomial {mono}")

        err = NotFoundWithinDegree(max_degree, None)
        err._word = word
        raise err

    def entry(base):
        return Polynomial.from_dense(vars_m, {
            mo: c for k, mo in enumerate(monos) if (c := sol.get(base + k))})

    def rebuild(b):
        return tuple(tuple(entry(rows.first(b, i, j)) for j in range(nxs))
                     for i in range(ny))

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
