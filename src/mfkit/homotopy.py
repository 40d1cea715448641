"""Homotopy witnesses between morphisms of matrix factorizations.

Two morphisms phi, psi: X -> Y are homotopic when there is an odd pair
lambda = (lambda0: X_even -> Y_odd, lambda1: X_odd -> Y_even) with

    q_Y * lambda0 + lambda1 * p_X == psi.alpha - phi.alpha   (even part)
    p_Y * lambda1 + lambda0 * q_X == psi.beta  - phi.beta    (odd part)

`check_witness` evaluates both residuals exactly.  `find_witness` searches
for lambda with entries of bounded total degree: each candidate entry is a
linear combination of all monomials up to the bound with unknown rational
coefficients, the two equations become an exact linear system, and the
system is solved by deterministic Gauss-Jordan elimination over Fraction
(pivot = first nonzero in fixed unknown order; free unknowns pinned to 0).
A found witness is re-checked before it is returned.  `NotFoundWithinDegree`
only ever means "no witness with entries of this degree" -- nothing about
higher degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import matrices as mx
from .matfac import (
    MatrixFactorization,
    Morphism,
    ShapeMismatch,
    zero_morphism,
)
from .poly import Polynomial


class NotFoundWithinDegree(Exception):
    def __init__(self, max_degree: int):
        self.max_degree = max_degree
        super().__init__(
            f"no homotopy witness with entry degree <= {max_degree} "
            "(no claim about higher degrees)"
        )


@dataclass(frozen=True)
class HomotopyWitness:
    lambda0: tuple  # X_even -> Y_odd
    lambda1: tuple  # X_odd  -> Y_even
    max_degree: int


@dataclass(frozen=True)
class WitnessReport:
    ok: bool
    even_residual: tuple
    odd_residual: tuple

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


def _monomials_up_to(nvars: int, degree: int) -> list:
    out = [[]]
    for _ in range(nvars):
        out = [m + [e] for m in out for e in range(degree + 1)]
    monos = [tuple(m) for m in out if sum(m) <= degree]
    monos.sort(key=lambda m: (sum(m), m))
    return monos


def _solve_gauss_jordan(rows, nunknowns: int):
    """Exact solve; returns a full solution vector with free unknowns = 0,
    or None when the system is inconsistent."""
    rows = [r for r in rows if any(r[0]) or r[1]]
    rank = 0
    pivot_cols = []
    for col in range(nunknowns):
        piv = None
        for k in range(rank, len(rows)):
            if rows[k][0][col]:
                piv = k
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        coeffs, rhs = rows[rank]
        inv = Fraction(1) / coeffs[col]
        coeffs = [c * inv for c in coeffs]
        rhs = rhs * inv
        rows[rank] = (coeffs, rhs)
        for k in range(len(rows)):
            if k == rank or not rows[k][0][col]:
                continue
            f = rows[k][0][col]
            rows[k] = (
                [a - f * b for a, b in zip(rows[k][0], coeffs)],
                rows[k][1] - f * rhs,
            )
        pivot_cols.append(col)
        rank += 1
        if rank == len(rows):
            break
    for coeffs, rhs in rows[rank:]:
        if rhs and not any(coeffs):
            return None
    # Inconsistency can also hide in unreduced rows below the rank when we
    # broke early; re-scan everything against the solution instead.
    sol = [Fraction(0)] * nunknowns
    for r, col in enumerate(pivot_cols):
        sol[col] = rows[r][1]
    for coeffs, rhs in rows:
        acc = sum((c * s for c, s in zip(coeffs, sol) if c), Fraction(0))
        if acc != rhs:
            return None
    return sol


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
    monos = _monomials_up_to(len(vars_m), max_degree)
    ny, nxs = y.size, x.size

    index = {}
    for b in (0, 1):
        for i in range(ny):
            for j in range(nxs):
                for mo in monos:
                    index[(b, i, j, mo)] = len(index)
    nunknowns = len(index)

    def known(poly: Polynomial) -> dict:
        return poly.dense_terms(vars_m)

    # eq_terms: per matrix entry of each equation, a map
    #   result monomial -> {unknown -> coeff}
    def accumulate(eq, kpoly, b, ur, uc, left: bool):
        # left: known * unknown(b, ur, uc); else unknown * known.
        for km, kc in known(kpoly).items():
            for mo in monos:
                res = tuple(a + c for a, c in zip(km, mo))
                eq.setdefault(res, {})
                idx = index[(b, ur, uc, mo)]
                eq[res][idx] = eq[res].get(idx, Fraction(0)) + kc

    rows = []

    def emit(eq, rhs_poly):
        rhs = known(rhs_poly)
        for res in set(eq) | set(rhs):
            coeffs = [Fraction(0)] * nunknowns
            for idx, c in eq.get(res, {}).items():
                coeffs[idx] = c
            rows.append((coeffs, rhs.get(res, Fraction(0))))

    d_alpha = mx.sub(psi.alpha, phi.alpha)
    d_beta = mx.sub(psi.beta, phi.beta)
    for i in range(ny):
        for j in range(nxs):
            # even equation entry (i, j): sum_k qY[i,k] l0[k,j] + l1[i,k] pX[k,j]
            eq = {}
            for k in range(ny):
                accumulate(eq, y.q[i][k], 0, k, j, left=True)
            for k in range(nxs):
                accumulate(eq, x.p[k][j], 1, i, k, left=False)
            emit(eq, d_alpha[i][j])
            # odd equation entry (i, j): sum_k pY[i,k] l1[k,j] + l0[i,k] qX[k,j]
            eq = {}
            for k in range(ny):
                accumulate(eq, y.p[i][k], 1, k, j, left=True)
            for k in range(nxs):
                accumulate(eq, x.q[k][j], 0, i, k, left=False)
            emit(eq, d_beta[i][j])

    sol = _solve_gauss_jordan(rows, nunknowns)
    if sol is None:
        raise NotFoundWithinDegree(max_degree)

    def rebuild(b):
        out = []
        for i in range(ny):
            row = []
            for j in range(nxs):
                terms = {mo: sol[index[(b, i, j, mo)]] for mo in monos}
                row.append(Polynomial.from_dense(vars_m, terms))
            out.append(tuple(row))
        return tuple(out)

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
