from fractions import Fraction

import pytest

from mfkit import matrices as mx
from mfkit.exterior import ExtElement, koszul_diff
from mfkit.matfac import (
    NotAMorphism,
    compose_morphisms,
    direct_sum,
    identity_morphism,
    make_factorization,
    make_morphism,
    scalar_morphism,
    validate_morphism,
)
from mfkit.poly import Polynomial, Variable, substitute, t_shift
from mfkit.tensor import yoshino
from mfkit.unit import (
    koszul_unit,
    naturality_check,
    pi_row,
    unitor_left,
    unitor_right,
)

from conftest import PX, PY, PZ, X, Y, Z

XP = Polynomial.var(X.primed())
YP = Polynomial.var(Y.primed())

POTENTIALS = [
    (PX ** 3, (X,)),
    (PX - PY, (X, Y)),
    (PX ** 2 + PY ** 2, (X, Y)),
    (PX ** 2 * PY + PZ ** 3, (X, Y, Z)),
]


def test_unit_of_x():
    u = koszul_unit(PX)
    assert u.mf.p == mx.from_rows([[1]])
    assert u.mf.q == mx.from_rows([[PX - XP]])
    assert u.rank == 1


def test_unit_of_x_cubed():
    u = koszul_unit(PX ** 3)
    assert u.mf.p == mx.from_rows([[PX ** 2 + PX * XP + XP ** 2]])
    assert u.mf.q == mx.from_rows([[PX - XP]])


def test_unit_of_x_minus_y():
    u = koszul_unit(PX - PY)
    assert u.basis_even == ((), (1, 2))
    assert u.basis_odd == ((1,), (2,))
    assert u.mf.p == mx.from_rows([[1, -(PY - YP)], [-1, PX - XP]])
    assert u.mf.q == mx.from_rows([[PX - XP, PY - YP], [1, 1]])


@pytest.mark.parametrize("f,xs", POTENTIALS)
def test_unit_validates_with_expected_rank(f, xs):
    u = koszul_unit(f, xs)
    assert u.rank == 2 ** (len(xs) - 1)
    assert u.mf.size == u.rank
    assert u.mf.potential == f - t_shift(f, len(xs), xs)


@pytest.mark.parametrize("f,xs", POTENTIALS)
def test_pi_row_annihilates_collapsed_differential(f, xs):
    u = koszul_unit(f, xs)
    collapse = {v.primed(): Polynomial.var(v) for v in xs}
    q_bar = mx.subs_matrix(u.mf.q, collapse)
    assert mx.is_zero(mx.mul(pi_row(u), q_bar))


def _cubic_sum(n):
    xs = tuple(Variable(f"x{i}") for i in range(1, n + 1))
    f = Polynomial.zero()
    for i, v in enumerate(xs, start=1):
        f = f + Polynomial.var(v) ** 3 * Fraction(2 * i - 1, i + 1)
    return f, xs


@pytest.mark.parametrize("f, xs", [_cubic_sum(n) for n in range(1, 6)] + [
    (PX ** 2 * PY - PY * PZ ** 2 + PZ ** 3 * Fraction(1, 3), (X, Y, Z)),
], ids=[f"cubic-n{n}" for n in range(1, 6)] + ["mixed"])
def test_unit_matrices_match_koszul_diff(f, xs):
    # Entry [r][c] of p (q) is the coefficient of odd (even) word r in the
    # Koszul differential of even (odd) word c.
    u = koszul_unit(f, xs)
    for mat, words_in, words_out in ((u.mf.p, u.basis_even, u.basis_odd),
                                     (u.mf.q, u.basis_odd, u.basis_even)):
        for c, w in enumerate(words_in):
            image = koszul_diff(f, ExtElement.word(u.n, w), xs)
            assert [mat[r][c] for r in range(len(words_out))] == [
                image.coeff(v) for v in words_out]


def test_pi_row_shape():
    u = koszul_unit(PX ** 2 + PY ** 2)
    assert mx.shape(pi_row(u)) == (1, 2)
    assert pi_row(u)[0][0] == 1
    assert pi_row(u)[0][1] == 0


def test_unit_rejects_primed_potential():
    with pytest.raises(ValueError):
        koszul_unit(PX - XP)


def test_unit_rejects_variables_outside_list():
    with pytest.raises(ValueError):
        koszul_unit(PX + PY, (X,))


def test_unit_rejects_empty_variable_list():
    with pytest.raises(ValueError):
        koszul_unit(Polynomial.const(1), ())


def test_unit_constant_potential():
    u = koszul_unit(Polynomial.const(2), (X,))
    assert u.mf.potential == Polynomial.zero()
    assert u.mf.q == mx.from_rows([[PX - XP]])


# ---------------------------------------------------------------------------
# unitors

X_RANK1 = make_factorization([[1]], [[PZ - PX]], PZ - PX)
X_RANK2 = direct_sum(
    X_RANK1, make_factorization([[PZ - PX]], [[1]], PZ - PX)
)


def _is_identity(m):
    ident = identity_morphism(m.source)
    return mx.eq(m.alpha, ident.alpha) and mx.eq(m.beta, ident.beta)


def test_right_unitor_rank1_frozen():
    b = unitor_right(X_RANK1, PX, (X,))
    assert b.side == "right"
    assert b.z.p == mx.from_rows([[PZ - PX, -1], [0, 1]])
    assert b.z.q == mx.from_rows([[1, 1], [0, PZ - PX]])
    assert b.rho.alpha == mx.from_rows([[0, 1]])
    assert b.rho.beta == mx.from_rows([[0, 1]])
    assert b.psi.alpha == mx.from_rows([[0], [1]])
    assert b.psi.beta == mx.from_rows([[-1], [1]])


def test_left_unitor_rank1_frozen():
    b = unitor_left(X_RANK1, PZ, (Z,))
    assert b.side == "left"
    assert b.z.p == mx.from_rows([[PZ - PX, -1], [0, 1]])
    assert b.z.q == mx.from_rows([[1, 1], [0, PZ - PX]])
    assert b.psi.alpha == mx.from_rows([[0], [1]])
    assert b.psi.beta == mx.from_rows([[-1], [1]])


@pytest.mark.parametrize("x", [X_RANK1, X_RANK2], ids=["rank1", "rank2"])
@pytest.mark.parametrize("side", ["right", "left"])
def test_unitor_one_sided_inverse(x, side):
    if side == "right":
        b = unitor_right(x, PX, (X,))
    else:
        b = unitor_left(x, PZ, (Z,))
    assert validate_morphism(b.rho).ok
    assert validate_morphism(b.psi).ok
    assert _is_identity(compose_morphisms(b.rho, b.psi))
    assert not _is_identity(compose_morphisms(b.psi, b.rho))


def test_unitor_collapsed_block_structure():
    """Z agrees with the closed-form blocks built from X and collapsed unit."""
    a = make_factorization([[1]], [[Polynomial.var(Variable("z1")) - PX ** 2]],
                           Polynomial.var(Variable("z1")) - PX ** 2)
    b = make_factorization([[1]], [[Polynomial.var(Variable("z2")) - PY ** 2]],
                           Polynomial.var(Variable("z2")) - PY ** 2)
    xy = yoshino(a, b)
    f = PX ** 2 + PY ** 2
    bundle = unitor_right(xy, f, (X, Y))
    u = koszul_unit(f, (X, Y))
    collapse = {X.primed(): PX, Y.primed(): PY}
    p_bar = mx.subs_matrix(u.mf.p, collapse)
    q_bar = mx.subs_matrix(u.mf.q, collapse)
    n, m = xy.size, u.rank
    i_n, i_m = mx.identity(n), mx.identity(m)
    want_p = mx.block([
        [mx.kron(xy.q, i_m), mx.neg(mx.kron(i_n, p_bar))],
        [mx.kron(i_n, q_bar), mx.kron(xy.p, i_m)],
    ])
    want_q = mx.block([
        [mx.kron(xy.p, i_m), mx.kron(i_n, p_bar)],
        [mx.neg(mx.kron(i_n, q_bar)), mx.kron(xy.q, i_m)],
    ])
    assert mx.eq(bundle.z.p, want_p)
    assert mx.eq(bundle.z.q, want_q)
    assert bundle.z.size == 2 * n * m


def test_unitor_rank2_generators_both_sides():
    z1, z2 = Variable("z1"), Variable("z2")
    a = make_factorization([[1]], [[Polynomial.var(z1) - PX ** 2]],
                           Polynomial.var(z1) - PX ** 2)
    b = make_factorization([[1]], [[Polynomial.var(z2) - PY ** 2]],
                           Polynomial.var(z2) - PY ** 2)
    xy = yoshino(a, b)
    right = unitor_right(xy, PX ** 2 + PY ** 2, (X, Y))
    left = unitor_left(xy, Polynomial.var(z1) + Polynomial.var(z2), (z1, z2))
    for bundle in (right, left):
        assert _is_identity(compose_morphisms(bundle.rho, bundle.psi))
        assert not _is_identity(compose_morphisms(bundle.psi, bundle.rho))


def test_unitor_constant_potential_consistent():
    xc = make_factorization([[1]], [[PZ - 2]], PZ - 2)
    b = unitor_right(xc, Polynomial.const(2), (X,))
    assert _is_identity(compose_morphisms(b.rho, b.psi))
    assert not _is_identity(compose_morphisms(b.psi, b.rho))


def test_unitor_rejects_inconsistent_potential():
    # X factors z - x, which pins f = x; f = 2 cannot be a unit for it
    with pytest.raises(NotAMorphism):
        unitor_right(X_RANK1, Polynomial.const(2), (X,))


def test_unitor_includes_its_unit():
    b = unitor_right(X_RANK1, PX, (X,))
    assert b.unit.f == PX
    assert b.unit.rank == 1


# ---------------------------------------------------------------------------
# naturality


def test_naturality_identity_and_scalar():
    for p in (identity_morphism(X_RANK2), scalar_morphism(3, X_RANK2)):
        report = naturality_check(p, PX, (X,))
        assert report.ok
        assert mx.is_zero(report.alpha_residual)
        assert mx.is_zero(report.beta_residual)


def test_naturality_nontrivial_morphism():
    inclusion = make_morphism(
        [[1], [0]], [[1], [0]], X_RANK1, X_RANK2
    )
    assert naturality_check(inclusion, PX, (X,)).ok
