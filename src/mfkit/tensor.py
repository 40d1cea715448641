"""Tensor products of matrix factorizations over disjoint variable sets.

For X = (p, q) of f (size n) and Y = (p', q') of g (size m) the product is a
size-2nm factorization of f + g made of Kronecker blocks.  Writing
a = p⊗I, b = I⊗p', c = q⊗I, d = I⊗q', the four layouts are

    standard:  P = [[ a,  b], [-d,  c]]     Q = [[ c, -b], [ d,  a]]
    v1:        P = [[ b,  c], [ a, -d]]     Q = [[ d,  c], [ a, -b]]
    v2:        P = [[ c, -d], [ b,  a]]     Q = [[ a,  d], [-b,  c]]
    v3:        P = [[-d,  a], [ c,  b]]     Q = [[-b,  a], [ c,  d]]

``_LAYOUTS`` is this table.  P and Q are written from it row by row, with
no Kronecker product: row i*m + r of p⊗I is row i of p at columns j*m + r,
and of I⊗p' is row r of p' at columns i*m + s.  So each entry is a factor's
own polynomial, its negation or the shared zero, and nothing is multiplied.
The writer takes each factor as signed rows -- per row, its nonzero
``(column, atom, sign)`` -- and writes P's and Q's signed rows over the
same atoms, each sign the factor's times the layout's.  It builds P and Q
from them with one negation per atom and hands them, with the atoms, to
``make_factorization``'s check: the product's zeros are never read, and
the a*b - b*a pairs of the layout cancel there as atoms, before any term
product is made.  ``yoshino`` lists each factor's entries as atoms of sign
1; the unitors' collapsed product passes the unit's signed word maps
through.

All four are valid and pairwise distinct as matrix pairs; v1/v2/v3 arise
from the standard pair by rotating P's blocks anticlockwise and Q's
clockwise once, twice, three times (a property test pins that down).  So v2
is the standard product conjugated by the block swap S = [[0, I], [I, 0]]
(P_v2 = S P S, Q_v2 = S Q S), and (S, S) is an isomorphism from the standard
product to v2.  What v1 and v3 are isomorphic to is not settled here.

Variables of the two factors must be disjoint; ``rename_vars`` makes them so
(injectively), while ``identify_vars`` substitutes non-injectively (the
tests glue a unitor's collapsed product with it, as an oracle for the
direct construction in ``unit``).
"""

from __future__ import annotations

import enum

from . import matrices as mx
from .matfac import (
    MatrixFactorization,
    Morphism,
    make_factorization,
    make_morphism,
)
from .poly import Polynomial, Variable, substitute


class VariableOverlap(ValueError):
    pass


class NonInjectiveRename(ValueError):
    pass


class Variant(enum.Enum):
    STANDARD = "standard"
    V1 = "v1"
    V2 = "v2"
    V3 = "v3"


def _require_disjoint(xvars, yvars) -> None:
    shared = set(xvars) & set(yvars)
    if shared:
        raise VariableOverlap(
            "variable sets overlap: " + ", ".join(str(v) for v in sorted(shared))
        )


# P's and Q's quadrants, row-major; "-" negates a block.
_LAYOUTS = {
    Variant.STANDARD: ("a b -d c", "c -b d a"),
    Variant.V1: ("b c a -d", "d c a -b"),
    Variant.V2: ("c -d b a", "a d -b c"),
    Variant.V3: ("-d a c b", "-b a c d"),
}


def _write_layout(variant: Variant, xp, xq, yp, yq) -> tuple:
    """``(P, Q, P's rows, Q's rows)`` of ``variant``'s layout of a = xp⊗I,
    b = I⊗yp, c = xq⊗I and d = I⊗yq, where each factor is given by its
    signed rows: per row, its nonzero ``(column, atom, sign)``.  The rows
    of P and Q are signed rows over the same atoms, each sign the factor's
    times the layout's, and the matrices are built from them with one
    negation per atom (``matrices._from_signed_rows``)."""
    if variant not in _LAYOUTS:
        raise ValueError(f"unknown variant {variant!r}")
    n, m = len(xp), len(yp)
    nm = n * m
    tokens = " ".join(_LAYOUTS[variant]).split()  # P's quadrants, then Q's
    signed = dict(zip("abcd", (xp, yp, xq, yq)))
    for t in set(tokens) - set(signed):  # "-a" and the like
        signed[t] = [[(j, e, -s) for j, e, s in row] for row in signed[t[1]]]
    negs: dict = {}
    out = []
    for half in (tokens[:4], tokens[4:]):
        nonzero = [[] for _ in range(2 * nm)]
        # Quadrants in row-major order, so each row gets its left block's
        # pairs before its right block's, each in column order.
        for k, t in enumerate(half):
            top, off = k // 2 * nm, k % 2 * nm
            if t[-1] in "ac":  # xp or xq ⊗ I: row i at columns j*m + r
                for i, row in enumerate(signed[t]):
                    for j, e, s in row:
                        for r in range(m):
                            nonzero[top + i * m + r].append((off + j * m + r, e, s))
            else:  # I ⊗ yp or yq: row r at columns i*m + c
                for r, row in enumerate(signed[t]):
                    for i in range(n):
                        dest = nonzero[top + i * m + r]
                        for c, e, s in row:
                            dest.append((off + i * m + c, e, s))
        out.append((mx._from_signed_rows(nonzero, 2 * nm, negs), nonzero))
    (p, p_rows), (q, q_rows) = out
    return p, q, p_rows, q_rows


def yoshino(
    x: MatrixFactorization,
    y: MatrixFactorization,
    variant: Variant = Variant.STANDARD,
) -> MatrixFactorization:
    """The tensor product factorization of f + g in the chosen layout."""
    _require_disjoint(x.vars, y.vars)
    atoms: dict = {}
    factors = [mx._signed_rows(m, atoms) for m in (x.p, x.q, y.p, y.q)]
    p, q, p_rows, q_rows = _write_layout(variant, *factors)
    return make_factorization(p, q, x.potential + y.potential,
                              extra_vars=x.vars + y.vars,
                              _rows=(p_rows, q_rows, atoms))


def tensor_morphisms(b: Morphism, a: Morphism) -> Morphism:
    """Tensor of morphisms on standard products: yoshino(a.*, b.*).

    Note the argument order: ``a`` lives over the first factor's potential f,
    ``b`` over the second's g.  Both morphisms are even, so the blocks
    Kronecker together without auxiliary signs:

        alpha = diag(alpha_a ⊗ beta_b,  beta_a ⊗ alpha_b)
        beta  = diag(beta_a  ⊗ beta_b,  alpha_a ⊗ alpha_b)

    The products are built and checked once each: when both morphisms are
    endomorphisms, the one product is source and target.  The result is
    checked eagerly (``make_morphism``).
    """
    for xa in (a.source, a.target):
        for xb in (b.source, b.target):
            _require_disjoint(xa.vars, xb.vars)
    src = yoshino(a.source, b.source)
    if a.source is a.target and b.source is b.target:
        tgt = src
    else:
        tgt = yoshino(a.target, b.target)
    alpha, beta = _tensor_blocks(a.alpha, a.beta, b.alpha, b.beta)
    return make_morphism(alpha, beta, src, tgt)


def _tensor_blocks(a_alpha, a_beta, b_alpha, b_beta) -> tuple:
    """``(alpha, beta)`` of the tensor of two even morphisms, by the block
    formula in ``tensor_morphisms``."""
    rows, cols = mx.shape(a_alpha)
    b_rows, b_cols = mx.shape(b_alpha)
    z_r = mx.zeros(rows * b_rows, cols * b_cols)
    alpha = mx.block([
        [mx.kron(a_alpha, b_beta), z_r],
        [z_r, mx.kron(a_beta, b_alpha)],
    ])
    beta = mx.block([
        [mx.kron(a_beta, b_beta), z_r],
        [z_r, mx.kron(a_alpha, b_alpha)],
    ])
    return alpha, beta


def _substituted(x: MatrixFactorization, var_map, declared) -> MatrixFactorization:
    poly_map = {v: Polynomial.var(w) for v, w in var_map.items()}
    return make_factorization(
        mx.subs_matrix(x.p, poly_map),
        mx.subs_matrix(x.q, poly_map),
        substitute(x.potential, poly_map),
        extra_vars=declared,
    )


def rename_vars(x: MatrixFactorization, var_map) -> MatrixFactorization:
    """Injective variable renaming; potential renames along."""
    for v, w in var_map.items():
        if not isinstance(v, Variable) or not isinstance(w, Variable):
            raise TypeError("rename map must send Variable to Variable")
    preimages = {}
    for v in x.vars:
        preimages.setdefault(var_map.get(v, v), []).append(v)
    clashes = [f"{', '.join(map(str, vs))} -> {w}"
               for w, vs in preimages.items() if len(vs) > 1]
    if clashes:
        raise NonInjectiveRename("rename map is not injective: " + "; ".join(clashes))
    return _substituted(x, var_map, tuple(sorted(preimages)))


def identify_vars(x: MatrixFactorization, var_map) -> MatrixFactorization:
    """Non-injective identification (gluing); always validates, because
    substitution is a ring map applied to both products."""
    for v, w in var_map.items():
        if not isinstance(v, Variable) or not isinstance(w, Variable):
            raise TypeError("identification map must send Variable to Variable")
    total = {v: var_map.get(v, v) for v in x.vars}
    return _substituted(x, var_map, tuple(sorted(set(total.values()))))
