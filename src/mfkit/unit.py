"""Koszul unit factorizations and the unitor morphisms rho / psi.

The unit factorization of f in variables x_1..x_n doubles the variables and
acts on the exterior algebra over n generators: the differential is

    d = sum_i [(x_i - x_i') t_i^* + d_i(f) t_i wedge].

Reading off matrices in the subset bases ordered by (length, lex) -- empty
word first -- gives a factorization of f(x) - f(x') with block rank
2^(n-1).  `koszul_unit` writes those matrices straight from the signed word
maps of `mfkit.exterior`: on a basis word, generator i either deletes
itself (`exterior.delete`; coefficient x_i - x_i') or inserts itself
(`exterior.insert`; coefficient d_i(f)).  So every column has exactly n
nonzero entries, each a sign times one of the x_i - x_i' or the n
difference quotients, all computed once per call.  Each row's nonzero
entries are written as signed rows (column, atom, sign), the matrices are
built from them with one negation per atom, and the rows and atoms are
handed to the eager check.  There the Koszul relations cancel as pairs
of atoms before any is expanded: for i != j, a product of generator i's
and generator j's coefficients, such as (x_i - x_i')*d_j(f), meets the
same product taken in the other order, with the opposite sign.
The tests compare the matrices with the element-level differential of
their exterior-algebra oracle.

The right unitor for X (a factorization of g(z) - f(x)) is built on the
collapsed product Z of X with that unit, the unit restricted to the
diagonal x' = x.  Z, rho and psi come from the word bases and f's partials
alone; no unit factorization is built:

1.  on the diagonal the contraction coefficients x_i - x_i' vanish and the
    difference quotients become the partials d_i(f), so the collapsed unit
    K has the same word maps with deletion entries 0 and insertion entries
    +-d_i(f); Z is the standard tensor layout of X with K (potential g - f),
    written from their entries by ``tensor._write_layout``, checked once
    on the rows the writer hands over;
2.  the two matrices of that layout are swapped (a grading shift), so that
    the X tensor empty-word slice sits in the even half.  The even part is
    then [X^1*D^1 | X^0*D^0] and the odd part [X^0*D^1 | X^1*D^0], where
    D^0/D^1 are the unit's parities.  The tests keep the gluing chain this
    replaces as Z's oracle: rename the unit's unprimed variables to fresh
    middles, take the standard tensor product with X, identify middle -> x
    and x' -> x, and swap;
3.  rho projects the second chunks onto the empty-word coordinate, the
    first of the m = 2^(n-1) even words -- a chain map because K has no
    output along the empty word (contraction coefficients die on the
    diagonal, wedge raises word length);
4.  psi embeds X on the empty-word coordinate and corrects with components
    against the nonempty words.  The component C_W at word W for input
    X-parity eps is built recursively from C_empty = identity:

        C_W = (1/|W|) * sum_{i in W}
              s * (-1)^(eps+|W|-1) * sgn(i, W-i) * d_i(D) * C_{W-i}

    where s = -1 (right side) or +1 (left side), d_i(D) is the entrywise
    partial derivative of p_X or q_X (whichever maps the intermediate
    parity), and sgn(i, W-i), the sign of inserting i into W-i, is that of
    deleting i from W (`exterior.delete`).  This is the terminating
    exponential series of the operator sum_i d_i(d_X) t_i wedge; it reduces
    to the bare embedding exactly when the glued potential-side derivatives
    all vanish (constant f).

Even words contribute to the X-parity-preserving chunks, odd words to the
parity-swapping ones.  One exact zero test (``matfac._decide``) decides,
in order, Z's P*Q = w*I (both products over w = 0), rho's and psi's squares
and rho . psi = id before a bundle is returned, and a failure raises what
the check alone raises; ``naturality_check`` decides its Z and rho checks,
the p tensor id squares and the square the same way.  The left unitor
mirrors the construction with the unit taken in the z-variables, collapsed
on z' = z; the correction sign flips because the z-derivative of the
potential has the opposite sign.  X may not use a primed generator variable
(x' on the right, z' on the left): that is ``tensor.VariableOverlap``.  Nor
may X.potential + f (right) or X.potential - g (left) use a generator, since
X must factor g - f: that is ``matfac.PotentialMismatch``, raised before any
matrix is built.
"""

from __future__ import annotations

from fractions import Fraction

from . import matrices as mx
from .exterior import delete, even_words, insert, odd_words, theta_words
from .matfac import (
    MatrixFactorization,
    Morphism,
    PotentialMismatch,
    Record,
    _decide,
    _factorization_check,
    _identity_check,
    _set,
    _squares,
    make_factorization,
)
from .poly import (
    Polynomial,
    derivative,
    diff_quotient,
    t_shift,
    unprimed_vars,
)
from .tensor import (
    Variant,
    _product_vars,
    _require_disjoint,
    _tensor_blocks,
    _write_layout,
)


class UnitFactorization(Record):
    """The unit factorization of f together with its basis bookkeeping."""

    __slots__ = ("mf", "n", "basis_even", "basis_odd", "f", "xvars")

    def __init__(self, mf, n, basis_even, basis_odd, f, xvars):
        _set(self, "mf", mf)
        _set(self, "n", n)
        # Even-length words in (length, lex) order, () first.
        _set(self, "basis_even", basis_even)
        _set(self, "basis_odd", basis_odd)
        _set(self, "f", f)
        _set(self, "xvars", xvars)

    @property
    def rank(self) -> int:
        return len(self.basis_even)


def _word_matrix(in_words, out_words, lin, dq) -> list:
    """The unit differential from ``in_words`` to ``out_words`` by the
    signed word maps, as signed rows: per out word, its nonzero ``(column,
    atom, sign)``, where the atom ``lin[i-1]`` or ``dq[i-1]`` is generator
    i's deletion or insertion coefficient and the sign is the word map's."""
    n = len(lin)
    row_of = {w: r for r, w in enumerate(out_words)}
    nonzero = [[] for _ in out_words]
    for col, w in enumerate(in_words):
        for i in range(1, n + 1):
            if i in w:
                image, odd = delete(i, w)
                atom = lin[i - 1]
            else:
                image, odd = insert(i, w)
                atom = dq[i - 1]
            if atom.terms:
                nonzero[row_of[image]].append((col, atom, -1 if odd else 1))
    return nonzero


def _generators(f: Polynomial, xvars):
    """The checked generator variables of f's unit (default: f's unprimed
    variables) and its even and odd words in (length, lex) order, () first."""
    xs = tuple(xvars) if xvars is not None else unprimed_vars(f)
    n = len(xs)
    if n < 1:
        raise ValueError("need at least one variable (pass xvars for constants)")
    if len(set(xs)) != n:
        raise ValueError("duplicate variables")
    if any(v.prime_level != 0 for v in xs):
        raise ValueError("unit variables must be unprimed")
    if not set(f.vars) <= set(xs):
        raise ValueError("potential uses variables outside the given list")
    return xs, tuple(even_words(n)), tuple(odd_words(n))


def koszul_unit(f: Polynomial, xvars=None) -> UnitFactorization:
    """Matrices of the unit differential of f over doubled variables.

    Column w of p (even word w -> odd words) and of q (odd -> even) holds the
    image of w under the differential, written by ``_word_matrix`` with
    deletion coefficients x_i - x_i' and insertion coefficients d_i(f), each
    computed once; the tests' element-level oracle ``koszul_diff`` applied
    to w gives the same column.
    """
    xs, ev, od = _generators(f, xvars)
    n = len(xs)
    # The deletion and insertion coefficients of generator i.
    lin = [Polynomial.var(x) - Polynomial.var(x.primed()) for x in xs]
    dq = [diff_quotient(f, i, xs) for i in range(1, n + 1)]
    p_rows = _word_matrix(ev, od, lin, dq)
    q_rows = _word_matrix(od, ev, lin, dq)
    negs: dict = {}
    p = mx._from_signed_rows(p_rows, len(ev), negs)
    q = mx._from_signed_rows(q_rows, len(od), negs)
    atoms = {id(a): a for a in lin + dq if a.terms}
    primed = tuple(v.primed() for v in xs)
    potential = f - t_shift(f, n, xs)
    mf = make_factorization(p, q, potential, extra_vars=xs + primed,
                            _rows=(p_rows, q_rows, atoms))
    return UnitFactorization(
        mf=mf, n=n, basis_even=ev, basis_odd=od, f=f, xvars=xs
    )


class UnitorBundle(Record):
    """Collapsed product Z with the projection rho and its right inverse psi,
    built from the word bases and f's partials (no unit factorization).

    Invariants (asserted at construction): rho and psi are valid morphisms
    and rho . psi is the identity on X.  psi . rho is *not* the identity --
    it kills every coordinate outside the image slice -- which is the
    homotopy module's business.
    """

    __slots__ = ("z", "rho", "psi", "side")

    def __init__(self, z, rho, psi, side):
        _set(self, "z", z)
        _set(self, "rho", rho)
        _set(self, "psi", psi)
        _set(self, "side", side)


def _correction_components(x: MatrixFactorization, gen_vars, sign: int):
    """C[(word, eps)] per the recursion in the module docstring."""
    n = len(gen_vars)
    r = x.size
    dp = [mx.map_entries(lambda e, v=v: derivative(e, v), x.p) for v in gen_vars]
    dq = [mx.map_entries(lambda e, v=v: derivative(e, v), x.q) for v in gen_vars]
    comp = {((), 0): mx.identity(r), ((), 1): mx.identity(r)}
    for word in theta_words(n):
        k = len(word)
        if k == 0:
            continue
        for eps in (0, 1):
            acc = mx.zeros(r, r)
            for i in word:
                rest, odd = delete(i, word)
                mid_parity = (eps + k - 1) % 2
                d_block = dp[i - 1] if mid_parity == 0 else dq[i - 1]
                factor = sign * (1 if mid_parity == 0 else -1) * (-1 if odd else 1)
                if k == 1:
                    # C_() is the identity and 1/|W| is 1: C_(i) is +-d_i(D).
                    acc = d_block if factor > 0 else mx.neg(d_block)
                else:
                    term = mx.mul(d_block, comp[(rest, eps)])
                    acc = mx.add(acc, term) if factor > 0 else mx.sub(acc, term)
            comp[(word, eps)] = acc if k == 1 else mx.scale(acc, Fraction(1, k))
    return comp


def _collapsed_product(x: MatrixFactorization, f: Polynomial, fvars, side="right"):
    """``((xs, even words, odd words), Z, rho, Z's check)``: f's unit's
    generators and word bases, the collapsed product and the projection
    (unchecked), and Z's check.  ``side`` is where the unit is glued."""
    xs, even, odd = _generators(f, fvars)
    n, m, r = len(xs), len(even), x.size
    _require_disjoint(x.vars, [v.primed() for v in xs])
    _require_matching_potential(x, f, xs, side)

    # The unit on the diagonal x' = x: contraction coefficients vanish and
    # the difference quotients become the partials of f.
    dq = [derivative(f, v) for v in xs]
    lin = [Polynomial.zero()] * n
    atoms = {id(d): d for d in dq if d.terms}
    xp, xq = (mx._signed_rows(mat, atoms) for mat in (x.p, x.q))
    p, q, p_rows, q_rows = _write_layout(Variant.STANDARD, xp, xq,
                                         _word_matrix(even, odd, lin, dq),
                                         _word_matrix(odd, even, lin, dq))
    # Grading shift: swap the two matrices so the empty-word slice is even.
    z = MatrixFactorization(p=q, q=p, potential=x.potential, size=len(p),
                            vars=_product_vars(x.vars + xs, x.potential, atoms))
    # X's rows are handed too: the squares of rho and psi read X.p and X.q.
    check = _factorization_check(q, p, x.potential, (
        {id(q): q_rows, id(p): p_rows, id(x.p): xp, id(x.q): xq}, atoms))
    # rho's row i is 1 at the empty word of X's i-th slice in Z's second chunk.
    one = Polynomial.const(1)
    proj = tuple(tuple(one if j == (r + i) * m else mx._ZERO for j in range(2 * r * m))
                 for i in range(r))
    rho = Morphism(alpha=proj, beta=proj, source=z, target=x)
    return (xs, even, odd), z, rho, check


def _require_matching_potential(x: MatrixFactorization, f: Polynomial, xs, side: str):
    """Refuse a unit potential that X does not factor against: X factors
    g - f, so X.potential + f (right side, f in xs) or X.potential - g (left
    side, g in xs) must not use the generators."""
    leftover, name = (x.potential + f, "f") if side == "right" else (x.potential - f, "g")
    used = set(leftover.vars)
    stray = [str(v) for v in xs if v in used]
    if stray:
        plural = "s" if len(stray) > 1 else ""
        op = "+" if side == "right" else "-"
        raise PotentialMismatch(
            f"the potential does not match X: X.potential {op} {name} = {leftover} "
            f"uses the {name}-side variable{plural} {', '.join(stray)}")


def _build_bundle(x: MatrixFactorization, f: Polynomial, fvars, side: str):
    (xs, even, odd), z, rho, z_check = _collapsed_product(x, f, fvars, side)
    r = x.size
    comp = _correction_components(x, xs, -1 if side == "right" else 1)
    # Odd words' chunk over even words' chunk; row i*m + wi of a chunk is
    # row i of the component at word wi.
    alpha_psi, beta_psi = (tuple(comp[(w, eps)][i] for words in (odd, even)
                                 for i in range(r) for w in words)
                           for eps in (0, 1))
    psi = Morphism(alpha=alpha_psi, beta=beta_psi, source=x, target=z)
    _decide(z_check, _squares(rho), _squares(psi), _identity_check(
        rho, psi, lambda k, i, j, res: RuntimeError(
            f"unitor invariant failed: rho . psi is not the identity: "
            f"{('alpha', 'beta')[k]}[{i}][{j}] deviates by {res[k][i][j]}")))
    return UnitorBundle(z=z, rho=rho, psi=psi, side=side)


def unitor_right(x: MatrixFactorization, f: Polynomial, fvars=None) -> UnitorBundle:
    """Unit glued on the f side of X (a factorization of g - f)."""
    return _build_bundle(x, f, fvars, "right")


def unitor_left(x: MatrixFactorization, g: Polynomial, gvars=None) -> UnitorBundle:
    """Unit glued on the g side of X (a factorization of g - f)."""
    return _build_bundle(x, g, gvars, "left")


class NaturalityReport(Record):
    __slots__ = ("ok", "alpha_residual", "beta_residual")

    def __init__(self, ok, alpha_residual, beta_residual):
        _set(self, "ok", ok)
        _set(self, "alpha_residual", alpha_residual)
        _set(self, "beta_residual", beta_residual)

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        """``ok``, or the first entry of the first block where the two
        composites differ, with the residual rho_Y.(p x id) - p.rho_X."""
        if self.ok:
            return "ok"
        for name, res in (("alpha", self.alpha_residual),
                          ("beta", self.beta_residual)):
            hit = mx.first_nonzero(res)
            if hit:
                i, j, e = hit
                return f"{name}[{i}][{j}] deviates by {e}"
        return "ok"


def naturality_check(p: Morphism, f: Polynomial, fvars=None) -> NaturalityReport:
    """Does rho commute with p: rho_Y . (p tensor id) == p . rho_X ?

    Builds the collapsed products of p's source and target with their
    projections rho (no psi is needed; an endomorphism builds one), and
    forms the tensored morphism on them (``tensor_morphisms``' blocks,
    swapped to the shifted layout).  Their checks and both blocks' squares
    are decided in one exact zero test (``matfac._decide``): a failing
    square's report holds the residuals rho_Y.(p tensor id) - p.rho_X.
    """
    (_, even, _), zx, rho_x, check = _collapsed_product(p.source, f, fvars)
    checks = [check, _squares(rho_x)]
    if p.source is p.target:
        zy, rho_y = zx, rho_x
    else:
        _, zy, rho_y, check = _collapsed_product(p.target, f, fvars)
        checks += [check, _squares(rho_y)]
    i_m = mx.identity(len(even))
    # Z swaps the tensor layout's two matrices, so its blocks swap too.
    beta, alpha = _tensor_blocks(p.alpha, p.beta, i_m, i_m)
    p_tensor_id = Morphism(alpha=alpha, beta=beta, source=zx, target=zy)
    square = ([[(rho_y.alpha, p_tensor_id.alpha, 1), (p.alpha, rho_x.alpha, -1)],
               [(rho_y.beta, p_tensor_id.beta, 1), (p.beta, rho_x.beta, -1)]],
              None, lambda k, i, j, res: NaturalityReport(False, *res), (None, None))
    report = _decide(*checks, _squares(p_tensor_id), square)
    if report is None:
        zero = mx.zeros(p.target.size, zx.size)
        return NaturalityReport(ok=True, alpha_residual=zero, beta_residual=zero)
    return report
