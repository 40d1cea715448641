import random
from fractions import Fraction

import pytest

from mfkit import matrices as mx
from mfkit.matfac import (
    compose_morphisms,
    direct_sum,
    identity_morphism,
    make_factorization,
    make_morphism,
    scalar_morphism,
    validate_morphism,
)
from mfkit.poly import Polynomial, Variable
from mfkit.tensor import (
    NonInjectiveRename,
    VariableOverlap,
    Variant,
    identify_vars,
    rename_vars,
    tensor_morphisms,
    yoshino,
)

from conftest import PX, PY, PZ, X, Y, Z, rand_factorization, rand_poly

A1 = make_factorization([[1]], [[PX]], PX)
B1 = make_factorization([[1]], [[PY]], PY)


def test_standard_product_blocks():
    z = yoshino(A1, B1)
    assert z.p == mx.from_rows([[1, 1], [-PY, PX]])
    assert z.q == mx.from_rows([[PX, -1], [PY, 1]])
    assert z.potential == PX + PY


def test_variant_by_value():
    assert Variant("standard") is Variant.STANDARD
    assert Variant("v2") is Variant.V2
    with pytest.raises(ValueError):
        Variant("v4")


def test_all_variants_validate_and_differ():
    results = {v: yoshino(A1, B1, v) for v in Variant}
    for z in results.values():
        assert z.size == 2
        assert z.potential == PX + PY
    pairs = list(results.values())
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            assert not (
                pairs[i].p == pairs[j].p and pairs[i].q == pairs[j].q
            )


def test_variants_on_random_pairs():
    rng = random.Random(21)
    for _ in range(10):
        a = rand_factorization(rng, (X,))
        b = rand_factorization(rng, (Y, Z))
        for v in Variant:
            z = yoshino(a, b, v)
            assert z.size == 2 * a.size * b.size
            assert z.potential == a.potential + b.potential


def _quadrants(m):
    h = len(m) // 2

    def sub(r0, c0):
        return tuple(tuple(row[c0:c0 + h]) for row in m[r0:r0 + h])

    return sub(0, 0), sub(0, h), sub(h, 0), sub(h, h)


def _anticlockwise(m):
    a, b, c, d = _quadrants(m)
    return mx.block([[b, d], [a, c]])


def _clockwise(m):
    a, b, c, d = _quadrants(m)
    return mx.block([[c, a], [d, b]])


def test_variants_are_block_rotations_of_standard():
    """P rotates one block-step anticlockwise per variant, Q clockwise."""
    rng = random.Random(22)
    for _ in range(5):
        a = rand_factorization(rng, (X,))
        b = rand_factorization(rng, (Y,))
        std = yoshino(a, b)
        p, q = std.p, std.q
        for v in (Variant.V1, Variant.V2, Variant.V3):
            p, q = _anticlockwise(p), _clockwise(q)
            got = yoshino(a, b, v)
            assert got.p == p
            assert got.q == q


def _of_rank(rng, variables, rank):
    """A factorization of u*v for random u, v, of block rank 1 (u, v), 2 (the
    anti-diagonal self-pair) or 3 (their direct sum)."""
    u = rand_poly(rng, variables, nonzero=True)
    v = rand_poly(rng, variables, nonzero=True)
    one = make_factorization([[u]], [[v]], u * v)
    zero = Polynomial.zero()
    anti = [[zero, u], [v, zero]]
    two = make_factorization(anti, anti, u * v)
    return {1: one, 2: two, 3: direct_sum(two, one)}[rank]


@pytest.mark.parametrize("rx", [1, 2, 3])
@pytest.mark.parametrize("ry", [1, 2, 3])
def test_block_swap_is_an_isomorphism_from_standard_to_v2(rx, ry):
    rng = random.Random(100 + 10 * rx + ry)
    a = _of_rank(rng, (X,), rx)
    b = _of_rank(rng, (Y, Z), ry)
    std, v2 = yoshino(a, b), yoshino(a, b, Variant.V2)
    h = rx * ry
    swap = mx.block([[mx.zeros(h, h), mx.identity(h)],
                     [mx.identity(h), mx.zeros(h, h)]])
    assert mx.mul(mx.mul(swap, std.p), swap) == v2.p
    assert mx.mul(mx.mul(swap, std.q), swap) == v2.q
    there = make_morphism(swap, swap, std, v2)
    back = make_morphism(swap, swap, v2, std)
    assert compose_morphisms(back, there) == identity_morphism(std)
    assert compose_morphisms(there, back) == identity_morphism(v2)


def test_graded_differential_squares():
    rng = random.Random(23)
    for _ in range(10):
        a = rand_factorization(rng, (X,))
        b = rand_factorization(rng, (Y,))
        total = mx.scalar_matrix(2 * a.size * b.size, a.potential + b.potential)
        for v in (Variant.STANDARD, Variant.V2):
            z = yoshino(a, b, v)
            assert mx.mul(z.q, z.p) == total
            assert mx.mul(z.p, z.q) == total


def test_rejects_shared_variables():
    with pytest.raises(VariableOverlap):
        yoshino(A1, make_factorization([[1]], [[PX + PY]], PX + PY))


# ---------------------------------------------------------------------------
# morphisms under tensor


def test_tensor_of_identities_is_identity():
    got = tensor_morphisms(identity_morphism(B1), identity_morphism(A1))
    want = identity_morphism(yoshino(A1, B1))
    assert got.alpha == want.alpha
    assert got.beta == want.beta


def test_tensor_morphisms_validate():
    a = scalar_morphism(PX ** 2, A1)
    b = scalar_morphism(PY + 3, B1)
    got = tensor_morphisms(b, a)
    assert validate_morphism(got).ok
    assert got.source == yoshino(A1, B1)


def test_tensor_morphisms_of_rational_scalars_store_ints():
    a = make_factorization([[0, PX], [PX ** 2, 0]], [[0, PX], [PX ** 2, 0]],
                           PX ** 3)
    got = tensor_morphisms(scalar_morphism(Fraction(3, 2), B1),
                           scalar_morphism(2, a))
    coeffs = [c for m in (got.alpha, got.beta) for row in m for e in row
              for c in e.terms.values()]
    assert coeffs == [3] * 8
    assert {type(c) for c in coeffs} == {int}


def test_tensor_morphisms_interchange():
    a1 = scalar_morphism(PX, A1)
    a2 = scalar_morphism(PX + 1, A1)
    b1 = scalar_morphism(2, B1)
    b2 = scalar_morphism(PY, B1)
    lhs = tensor_morphisms(
        compose_morphisms(b2, b1), compose_morphisms(a2, a1)
    )
    rhs = compose_morphisms(tensor_morphisms(b2, a2), tensor_morphisms(b1, a1))
    assert lhs.alpha == rhs.alpha
    assert lhs.beta == rhs.beta


def test_tensor_morphisms_nontrivial_blocks():
    m = make_factorization([[0, PX], [PX ** 2, 0]], [[0, PX], [PX ** 2, 0]],
                           PX ** 3)
    r = make_factorization([[1]], [[PX ** 3]], PX ** 3)
    alpha = [[1], [PX]]
    beta = mx.mul(m.p, mx.from_rows(alpha))
    f = make_morphism(alpha, beta, r, m)
    got = tensor_morphisms(identity_morphism(B1), f)
    assert validate_morphism(got).ok
    assert got.source == yoshino(r, B1)
    assert got.target == yoshino(m, B1)


def test_tensor_morphisms_reject_overlap():
    with pytest.raises(VariableOverlap):
        tensor_morphisms(identity_morphism(A1), identity_morphism(A1))


# ---------------------------------------------------------------------------
# renaming and identification


def test_rename_vars():
    w = Variable("w")
    z = rename_vars(A1, {X: w})
    assert z.potential == Polynomial.var(w)
    assert z.q == mx.from_rows([[Polynomial.var(w)]])


def test_rename_rejects_collision():
    both = yoshino(A1, B1)
    with pytest.raises(NonInjectiveRename, match=r"^rename map is not injective: x, y -> y$"):
        rename_vars(both, {X: Y})


def test_rename_rejects_non_injective_map():
    both = yoshino(A1, B1)
    w = Variable("w")
    with pytest.raises(NonInjectiveRename, match=r"^rename map is not injective: x, y -> w$"):
        rename_vars(both, {X: w, Y: w})


def test_identify_vars_glues():
    both = yoshino(A1, B1)
    glued = identify_vars(both, {Y: X})
    assert glued.potential == 2 * PX
    assert glued.size == both.size


def test_identify_collapse_of_unit_style_pair():
    xp = X.primed()
    u = make_factorization(
        [[1]], [[PX - Polynomial.var(xp)]], PX - Polynomial.var(xp)
    )
    collapsed = identify_vars(u, {xp: X})
    assert collapsed.potential == Polynomial.zero()
