import random
from fractions import Fraction

import pytest

from mfkit import matrices as mx
from mfkit import matfac, poly, tensor, unit
from mfkit.matfac import (
    MatrixFactorization,
    Morphism,
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

from conftest import (PX, PY, PZ, X, Y, Z, check_handed_rows, rand_factorization,
                      rand_poly, record_zero_tests)

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


def _of_rank(rng, variables, rank, c=1):
    """A factorization of u*v for random u, v (u scaled by ``c``), of block
    rank 1 (u, v), 2 (the anti-diagonal self-pair) or 3 (their direct sum)."""
    u = rand_poly(rng, variables, nonzero=True) * c
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


def kron_oracle(variant, x, y):
    """P and Q of ``variant`` assembled from the Kronecker blocks a = p⊗I,
    b = I⊗p', c = q⊗I, d = I⊗q' by ``mx.kron``, ``mx.neg`` and
    ``mx.block``: the layout table of ``mfkit.tensor``'s docstring, written
    out here apart from the table ``yoshino`` reads."""
    i_n, i_m = mx.identity(x.size), mx.identity(y.size)
    a, b = mx.kron(x.p, i_m), mx.kron(i_n, y.p)
    c, d = mx.kron(x.q, i_m), mx.kron(i_n, y.q)
    n = mx.neg
    p, q = {
        Variant.STANDARD: ([[a, b], [n(d), c]], [[c, n(b)], [d, a]]),
        Variant.V1: ([[b, c], [a, n(d)]], [[d, c], [a, n(b)]]),
        Variant.V2: ([[c, n(d)], [b, a]], [[a, d], [n(b), c]]),
        Variant.V3: ([[n(d), a], [c, b]], [[n(b), a], [c, d]]),
    }[variant]
    return mx.block(p), mx.block(q)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("rx", [1, 2, 3])
@pytest.mark.parametrize("ry", [1, 2, 3])
def test_yoshino_matches_the_kronecker_oracle(variant, rx, ry):
    """Rational entries and zero entries, with n != m in most cases, so a
    sign or an offset out of place shows."""
    rng = random.Random(300 + 10 * rx + ry)
    a = _of_rank(rng, (X,), rx, Fraction(1, 2))
    b = _of_rank(rng, (Y, Z), ry, Fraction(-2, 3))
    got = yoshino(a, b, variant)
    assert (got.p, got.q) == kron_oracle(variant, a, b)
    assert all(e is mx._ZERO for m in (got.p, got.q) for row in m
               for e in row if not e)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("rx", [1, 2, 3])
@pytest.mark.parametrize("ry", [1, 2, 3])
def test_yoshino_hands_its_nonzero_rows_to_the_check(monkeypatch, variant, rx, ry):
    """The product is rebuilt from the layout writer's signed rows, over
    rational factors with zero entries; its one zero test decides P*Q =
    w*I on those rows; and ``vars`` (the factors' declared variables, the
    atoms' and the potential's) is the walked set."""
    rng = random.Random(500 + 10 * rx + ry)
    a = _of_rank(rng, (X,), rx, Fraction(1, 2))
    b = _of_rank(rng, (Y, Z), ry, Fraction(-2, 3))
    calls = record_zero_tests(monkeypatch)
    got = yoshino(a, b, variant)
    [(equations, w, rows, atoms)] = calls
    [[(p, q, sign)]] = equations
    assert (p, q, sign, w) == (got.p, got.q, 1, got.potential)
    assert p is got.p and q is got.q and rows.keys() == {id(p), id(q)}
    check_handed_rows([(p, q, w, a.vars + b.vars, (rows[id(p)], rows[id(q)], atoms), got)])


def test_handed_rows_spare_the_slot_by_slot_walks(monkeypatch):
    """With the rows handed, ``make_factorization`` neither coerces P and
    Q (``from_rows``) nor lists their rows (``_signed_rows``,
    ``_nonzero_rows``), and builds the factorization the unhanded call
    builds."""
    rng = random.Random(41)
    a = _of_rank(rng, (X,), 3, Fraction(1, 3))
    b = _of_rank(rng, (Y,), 2)
    atoms = {}
    factors = [mx._signed_rows(m, atoms) for m in (a.p, a.q, b.p, b.q)]
    p, q, p_rows, q_rows = tensor._write_layout(Variant.V3, *factors)
    w = a.potential + b.potential
    plain = make_factorization(p, q, w)

    def refuse(*args):
        raise AssertionError("P or Q was walked slot by slot")

    monkeypatch.setattr(mx, "from_rows", refuse)
    monkeypatch.setattr(mx, "_signed_rows", refuse)
    monkeypatch.setattr(mx, "_nonzero_rows", refuse)
    assert make_factorization(p, q, w, _rows=(p_rows, q_rows, atoms)) == plain


def _refuse_products(monkeypatch):
    """From here on, any polynomial product, Kronecker product or block
    assembly raises."""
    def refuse(*args, **kwargs):
        raise AssertionError("a product was formed")

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Polynomial, name, refuse)
    for owner, name in ((poly, "sum_of_products"), (mx, "sum_of_products"),
                        (mx, "kron"), (mx, "block")):
        monkeypatch.setattr(owner, name, refuse)


def test_yoshino_writes_the_factors_own_entries(monkeypatch):
    rng = random.Random(31)
    x = yoshino(_of_rank(rng, (X,), 2), _of_rank(rng, (Y,), 2))
    y = _of_rank(rng, (Z,), 2, Fraction(1, 3))
    assert (x.size, y.size) == (8, 2)
    _refuse_products(monkeypatch)
    got = yoshino(x, y)
    assert got.size == 32
    # a = p⊗I puts p[i][j] at (i*m + r, j*m + r); b = I⊗p' puts p'[r][s]
    # at (i*m + r, nm + i*m + s); here m = 2 and nm = 16.
    i, j, e = mx.first_nonzero(x.p)
    assert got.p[2 * i][2 * j] is e
    assert got.p[2 * i + 1][2 * j + 1] is e
    r, s, e = mx.first_nonzero(y.p)
    assert got.p[r][16 + s] is e
    assert got.p[2 * 7 + r][16 + 2 * 7 + s] is e


def test_collapsed_product_writes_the_factors_own_entries(monkeypatch):
    """The unitor's Z, for X of z^2 - x*y and f = x*y: size 2 * 2 * 2."""
    pxy = PX * PY
    x = make_factorization([[PZ, PX], [PY, PZ]], [[PZ, -PX], [-PY, PZ]],
                           PZ * PZ - pxy)
    with monkeypatch.context() as refused:
        _refuse_products(refused)
        _, z, rho, check = unit._collapsed_product(x, pxy, (X, Y))
        # The unitor's zero test on Z's and X's handed rows forms no product.
        assert matfac._decide(check, matfac._squares(rho)) is None
    assert make_factorization(z.p, z.q, z.potential, extra_vars=z.vars) == z
    assert z.size == 8
    # Z's Q is the standard layout's P: its a = p⊗I block, with m = 2.
    assert z.q[0][0] is x.p[0][0]
    assert z.q[1][1] is x.p[0][0]
    assert z.q[2][0] is x.p[1][0]


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


def test_tensor_of_endomorphisms_builds_one_product(monkeypatch):
    """Two endomorphisms' product is built once, as source and target; it
    equals the tensor of the same blocks between distinct equal objects."""
    m = make_factorization([[0, PX], [PX ** 2, 0]], [[0, PX], [PX ** 2, 0]],
                           PX ** 3)
    m_copy = make_factorization(m.p, m.q, m.potential)
    b1_copy = make_factorization([[1]], [[PY]], PY)
    a, b = scalar_morphism(PX + Fraction(1, 2), m), scalar_morphism(PY, B1)
    apart = tensor_morphisms(make_morphism(b.alpha, b.beta, B1, b1_copy),
                             make_morphism(a.alpha, a.beta, m, m_copy))
    built = []
    product = tensor._product

    def counted(*args):
        built.append(args)
        return product(*args)

    monkeypatch.setattr(tensor, "_product", counted)
    got = tensor_morphisms(b, a)
    assert len(built) == 1
    assert got.source is got.target
    assert got == apart
    built.clear()
    tensor_morphisms(b, make_morphism(a.alpha, a.beta, m, m_copy))
    assert len(built) == 2


def _raised(build):
    """The exception ``build()`` raises: its type and its message."""
    with pytest.raises(Exception) as err:
        build()
    return type(err.value), str(err.value)


def test_a_failing_tensor_of_morphisms_raises_what_its_check_raises():
    """The products' checks and the squares are decided in one zero test,
    and a failure raises what the failing check raises on its own: the
    first product's, the second's, then ``make_morphism``'s."""
    bad = MatrixFactorization(p=mx.from_rows([[1]]), q=mx.from_rows([[PX + 1]]),
                              potential=PX, size=1, vars=(X,))
    into_bad = Morphism(alpha=[[1]], beta=[[1]], source=A1, target=bad)
    not_a_morphism = Morphism(alpha=[[PX]], beta=[[1]], source=A1, target=A1)
    b = identity_morphism(B1)
    for a, want in ((identity_morphism(bad), lambda: yoshino(bad, B1)),
                    (into_bad, lambda: yoshino(bad, B1)),
                    (not_a_morphism, lambda: make_morphism(
                        *tensor._tensor_blocks(not_a_morphism.alpha, not_a_morphism.beta,
                                               b.alpha, b.beta),
                        yoshino(A1, B1), yoshino(A1, B1)))):
        assert _raised(lambda: tensor_morphisms(b, a)) == _raised(want)
    assert _raised(lambda: tensor_morphisms(b, into_bad))[0] is matfac.NotAFactorization
    assert _raised(lambda: tensor_morphisms(b, not_a_morphism))[0] is matfac.NotAMorphism


def test_tensor_blocks_equal_the_kronecker_blocks():
    """``_tensor_blocks`` writes diag(A⊗B, C⊗D) row by row; the oracle
    assembles it from ``kron`` and ``block``."""
    rng = random.Random(61)
    for shapes in (((1, 1), (1, 1)), ((2, 1), (1, 3)), ((2, 2), (3, 2))):
        (r, c), (br, bc) = shapes
        a_alpha, a_beta = (mx.from_rows([[rand_poly(rng, (X,)) for _ in range(c)]
                                         for _ in range(r)]) for _ in range(2))
        b_alpha, b_beta = (mx.from_rows([[rand_poly(rng, (Y,)) for _ in range(bc)]
                                         for _ in range(br)]) for _ in range(2))
        zero = mx.zeros(r * br, c * bc)
        want = tuple(mx.block([[mx.kron(a, b), zero], [zero, mx.kron(c_, d)]])
                     for (a, b), (c_, d) in (((a_alpha, b_beta), (a_beta, b_alpha)),
                                             ((a_beta, b_beta), (a_alpha, b_alpha))))
        got = tensor._tensor_blocks(a_alpha, a_beta, b_alpha, b_beta)
        assert got == want
        assert all(e is mx._ZERO for m in got for row in m for e in row if not e)


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
