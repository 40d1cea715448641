from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfkit import matrices as mx
from mfkit import poly, unit
from mfkit.matfac import (
    Morphism,
    NotAFactorization,
    NotAMorphism,
    PotentialMismatch,
    compose_morphisms,
    direct_sum,
    identity_morphism,
    make_factorization,
    make_morphism,
    scalar_morphism,
    serialize_factorization,
    validate_morphism,
)
from mfkit.poly import Polynomial, Variable, substitute, t_shift
from mfkit.tensor import (
    VariableOverlap,
    _tensor_blocks,
    _write_layout,
    identify_vars,
    rename_vars,
    tensor_morphisms,
    yoshino,
)
from mfkit.unit import (
    NaturalityReport,
    _collapsed_product,
    _correction_components,
    koszul_unit,
    naturality_check,
    unitor_left,
    unitor_right,
)

from conftest import (PX, PY, PZ, X, Y, Z, check_handed_rows, record_factorizations,
                      record_zero_tests)
from exterior_oracle import ExtElement, koszul_diff

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
    empty_word_row = [[1] + [0] * (u.rank - 1)]
    assert mx.first_nonzero(mx.mul(mx.from_rows(empty_word_row), q_bar)) is None


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


@pytest.mark.parametrize("k", [10, 20])
def test_unit_of_a_dense_binomial_power_passes_its_eager_check(k):
    # make_factorization checks P*Q = Q*P = (f - t_1 t_2 f)*I entry by entry,
    # over entries of up to k terms in x, x', y, y'.
    f = (PX + PY) ** k
    u = koszul_unit(f, (X, Y))
    assert u.rank == 2
    assert u.mf.potential == f - t_shift(f, 2, (X, Y))


def test_pi_row_shape():
    # The row picking the empty-word coordinate is [1, 0, ..., 0] of width
    # rank: the empty word is the first even word.
    u = koszul_unit(PX ** 2 + PY ** 2)
    assert u.rank == 2
    assert u.basis_even[0] == ()


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
    return m.alpha == ident.alpha and m.beta == ident.beta


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
    assert bundle.z.p == want_p
    assert bundle.z.q == want_q
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
    with pytest.raises(PotentialMismatch) as err:
        unitor_right(X_RANK1, Polynomial.const(2), (X,))
    assert str(err.value) == (
        "the potential does not match X: X.potential + f = -1*x + z + 2 "
        "uses the f-side variable x")


ZX = make_factorization([[PZ - PX]], [[PZ ** 2 + PZ * PX + PX ** 2]], PZ ** 3 - PX ** 3)


@pytest.mark.parametrize("build, pot, gens, message", [
    ("right", PX ** 2, (X,),
     "X.potential + f = -1*x^3 + z^3 + x^2 uses the f-side variable x"),
    ("right", 2 * PX ** 3, (X,),
     "X.potential + f = x^3 + z^3 uses the f-side variable x"),
    ("right", PX ** 3 + PY, (X, Y),
     "X.potential + f = z^3 + y uses the f-side variable y"),
    ("right", PX ** 4 - PY ** 2, (X, Y),
     "X.potential + f = x^4 - x^3 + z^3 - y^2 uses the f-side variables x, y"),
    ("left", 2 * PZ ** 3, (Z,),
     "X.potential - g = -1*x^3 - z^3 uses the g-side variable z"),
    ("left", PZ ** 3 + PZ, (Z,),
     "X.potential - g = -1*x^3 - z uses the g-side variable z"),
    ("naturality", PX ** 2, (X,),
     "X.potential + f = -1*x^3 + z^3 + x^2 uses the f-side variable x"),
], ids=["x2", "2x3", "extra-generator", "two-generators", "left-2z3", "left-z3+z",
        "naturality"])
def test_unitors_refuse_a_potential_that_does_not_match_x(monkeypatch, build, pot,
                                                        gens, message):
    """X factors z^3 - x^3, so only f = x^3 (right) and g = z^3 (left) leave
    no generator in X.potential + f or X.potential - g.  The refusal comes
    before any matrix of Z is built."""
    def no_build(*_):
        raise AssertionError("built Z")

    monkeypatch.setattr("mfkit.unit._word_matrix", no_build)
    call = {"right": lambda: unitor_right(ZX, pot, gens),
            "left": lambda: unitor_left(ZX, pot, gens),
            "naturality": lambda: naturality_check(identity_morphism(ZX), pot, gens),
            }[build]
    with pytest.raises(PotentialMismatch) as err:
        call()
    assert str(err.value) == "the potential does not match X: " + message
    monkeypatch.undo()
    assert unitor_right(ZX, PX ** 3, (X,)).side == "right"
    assert unitor_left(ZX, PZ ** 3, (Z,)).side == "left"
    assert naturality_check(identity_morphism(ZX), PX ** 3, (X,)).ok


@pytest.mark.parametrize("build", ["right", "left", "naturality"])
@pytest.mark.parametrize("gens, message", [
    (lambda v: (), "need at least one variable (pass xvars for constants)"),
    (lambda v: (v, v), "duplicate variables"),
    (lambda v: (v.primed(),), "unit variables must be unprimed"),
    (lambda v: (v,), "potential uses variables outside the given list"),
], ids=["empty", "repeated", "primed", "missing"])
def test_unitors_refuse_bad_generator_lists(build, gens, message):
    """koszul_unit's generator checks, with its messages and in its order,
    run before anything else: X uses x' and z', the primed generators of
    both sides, yet the refusal is not a VariableOverlap.  The potential
    uses the generator v and y, so (v,) misses y."""
    gen = Z if build == "left" else X
    pot = Polynomial.var(gen) + PY
    bad = Polynomial.var(Z.primed()) - XP
    x = make_factorization([[1]], [[bad]], bad)
    call = {
        "right": lambda vs: unitor_right(x, pot, vs),
        "left": lambda vs: unitor_left(x, pot, vs),
        "naturality": lambda vs: naturality_check(identity_morphism(x), pot, vs),
    }[build]
    for refuse in (call, lambda vs: koszul_unit(pot, vs)):
        with pytest.raises(ValueError) as err:
            refuse(gens(gen))
        assert type(err.value) is ValueError
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# the collapsed product against the gluing chain


def _glued_bundle(x, f, fvars, side):
    """Z, rho's block and psi's blocks built the long way, as the oracle.

    Z: rename the unit's unprimed variables to fresh middles, take the
    standard tensor product with X, identify middle -> generator and
    primed -> generator (in that order on the right, reversed on the left)
    and swap the two matrices.  psi: each component C_W placed in the
    word-W slot by a Kronecker product with a unit column, summed.
    """
    u = koszul_unit(f, fvars)
    mids = tuple(Variable(v.name + "_mid") for v in fvars)
    assert not set(mids) & set(x.vars)
    z0 = yoshino(x, rename_vars(u.mf, dict(zip(fvars, mids))))
    mid_to_gen = dict(zip(mids, fvars))
    primed_to_gen = {v.primed(): v for v in fvars}
    steps = [mid_to_gen, primed_to_gen]
    if side == "left":
        steps.reverse()
    z2 = identify_vars(identify_vars(z0, steps[0]), steps[1])
    z = make_factorization(z2.q, z2.p, z2.potential, extra_vars=z2.vars)

    r, m = x.size, u.rank
    e_row = mx.from_rows([[1] + [0] * (m - 1)])
    proj = mx.block([[mx.zeros(r, r * m), mx.kron(mx.identity(r), e_row)]])

    comp = _correction_components(x, fvars, -1 if side == "right" else 1)

    def chunk(words, eps):
        acc = mx.zeros(r * m, r)
        for wi, w in enumerate(words):
            e_col = mx.from_rows([[1 if i == wi else 0] for i in range(m)])
            acc = mx.add(acc, mx.kron(comp[(w, eps)], e_col))
        return acc

    psi_alpha, psi_beta = (
        mx.block([[chunk(u.basis_odd, eps)], [chunk(u.basis_even, eps)]])
        for eps in (0, 1))
    return z, proj, psi_alpha, psi_beta


def _ws(n):
    return tuple(Variable(f"w{i}") for i in range(1, n + 1))


def _sum_of_cubes(vs, weights=None):
    f = Polynomial.zero()
    for i, v in enumerate(vs):
        w = weights[i] if weights else 1
        f = f + Polynomial.var(v) ** 3 * w
    return f


def _oracle_cases():
    """(id, X, f, fvars, g, gvars): X factors g(w) - f(x), rank 1, 2, 4."""
    cases = []
    pots = [(f"cubic-n{n}", xs, _sum_of_cubes(xs, [Fraction(2 * i + 1, i + 2)
                                                   for i in range(n)]))
            for n, xs in ((1, (X,)), (2, (X, Y)), (3, (X, Y, Z)))]
    pots.append(("mixed", (X, Y), PX ** 2 * PY - PY ** 3 + PX ** 3 * Fraction(1, 3)))
    for name, xs, f in pots:
        ws = _ws(len(xs))
        g = _sum_of_cubes(ws) - Polynomial.var(ws[0]) * Fraction(1, 2)
        one = make_factorization([[1]], [[g - f]], g - f)
        two = yoshino(make_factorization([[1]], [[g]], g),
                      make_factorization([[-f]], [[1]], -f))
        cases.append((f"{name}-rank1", one, f, xs, g, ws))
        cases.append((f"{name}-rank2", two, f, xs, g, ws))
    # X = tensor of the pairs (w_i - x_i, w_i^2 + w_i x_i + x_i^2).
    for n in (1, 2, 3):
        xs, ws = (X, Y, Z)[:n], _ws(n)
        x = None
        for v, w in zip(xs, ws):
            pv, pw = Polynomial.var(v), Polynomial.var(w)
            pair = make_factorization([[pw - pv]], [[pw ** 2 + pw * pv + pv ** 2]],
                                      pw ** 3 - pv ** 3)
            x = pair if x is None else yoshino(x, pair)
        cases.append((f"pairs-n{n}", x, _sum_of_cubes(xs), xs, _sum_of_cubes(ws), ws))
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("x, f, fvars, g, gvars",
                         [c[1:] for c in ORACLE_CASES],
                         ids=[c[0] for c in ORACLE_CASES])
def test_unitor_matches_gluing_chain(x, f, fvars, g, gvars, side):
    if side == "right":
        b = unitor_right(x, f, fvars)
        z, proj, psi_alpha, psi_beta = _glued_bundle(x, f, fvars, "right")
    else:
        b = unitor_left(x, g, gvars)
        z, proj, psi_alpha, psi_beta = _glued_bundle(x, g, gvars, "left")
    assert serialize_factorization(b.z) == serialize_factorization(z)
    assert (b.z.p, b.z.q, b.z.potential, b.z.vars) == (z.p, z.q, z.potential, z.vars)
    assert b.rho.alpha == proj and b.rho.beta == proj
    assert b.psi.alpha == psi_alpha
    assert b.psi.beta == psi_beta


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_koszul_unit_hands_its_nonzero_rows_to_the_check(monkeypatch, n):
    """Rational coefficients, and for n >= 2 a last generator f does not
    use, so its difference quotient is zero and its slots are skipped."""
    xs = (X, Y, Z, Variable("w"))[:n]
    f = _sum_of_cubes(xs[:max(1, n - 1)], [Fraction(2 * i + 1, 3) for i in range(n)])
    if n >= 3:
        f = f + PX * PY * Fraction(-1, 2)
    calls = record_factorizations(monkeypatch, unit)
    u = koszul_unit(f, xs)
    assert [c[-1] for c in calls] == [u.mf]
    check_handed_rows(calls)
    if n >= 2:  # d_n(f) = 0: fewer than n nonzero entries per column of P
        assert sum(map(len, calls[0][4][0])) < n * len(u.basis_even)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("x, f, fvars, g, gvars",
                         [c[1:] for c in ORACLE_CASES],
                         ids=[c[0] for c in ORACLE_CASES])
def test_collapsed_product_hands_its_nonzero_rows_to_the_check(
        monkeypatch, x, f, fvars, g, gvars, side):
    """The unitor's one zero test is handed the signed rows Z was written
    from, and X's rows as the test would list them: Z is not walked slot by
    slot, its atoms are all the handed ones, and its vars are a walk's."""
    calls = record_zero_tests(monkeypatch)
    if side == "right":
        b, gens = unitor_right(x, f, fvars), fvars
    else:
        b, gens = unitor_left(x, g, gvars), gvars
    ((_, _, rows, atoms),) = calls
    z = b.z
    check_handed_rows([(z.p, z.q, z.potential, x.vars + gens,
                        (rows[id(z.p)], rows[id(z.q)], atoms), z)])
    assert rows.keys() == {id(m) for m in (z.p, z.q, x.p, x.q)}
    for m in (x.p, x.q):
        assert rows[id(m)] == mx._signed_rows(m, {})


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("x, f, fvars, g, gvars",
                         [c[1:] for c in ORACLE_CASES],
                         ids=[c[0] for c in ORACLE_CASES])
def test_unitor_bundle_stores_integral_coefficients_as_ints(x, f, fvars, g, gvars, side):
    """psi's components are scaled by 1/k and Z's entries are derivatives of
    f, the unit's entries difference quotients of f; every integral
    coefficient among them is an int, not a Fraction."""
    if side == "right":
        b, u = unitor_right(x, f, fvars), koszul_unit(f, fvars)
    else:
        b, u = unitor_left(x, g, gvars), koszul_unit(g, gvars)
    mats = (b.z.p, b.z.q, b.psi.alpha, b.psi.beta, b.rho.alpha, b.rho.beta,
            u.mf.p, u.mf.q)
    coeffs = [c for m in mats for row in m for e in row for c in e.terms.values()]
    assert [c for c in coeffs if type(c) is not int and c.denominator == 1] == []


@pytest.mark.parametrize("side", ["right", "left"])
def test_unitor_refuses_primed_generator_like_the_chain(side):
    gen = X if side == "right" else Z
    # X factors z - x' (right) or z' - x (left): it uses the primed generator.
    bad = PZ - XP if side == "right" else Polynomial.var(Z.primed()) - PX
    x = make_factorization([[1]], [[bad]], bad)
    build = unitor_right if side == "right" else unitor_left
    with pytest.raises(VariableOverlap) as direct:
        build(x, Polynomial.var(gen), (gen,))
    with pytest.raises(VariableOverlap) as glued:
        _glued_bundle(x, Polynomial.var(gen), (gen,), side)
    assert str(direct.value) == str(glued.value) == f"variable sets overlap: {gen}'"


# ---------------------------------------------------------------------------
# naturality


def test_naturality_identity_and_scalar():
    for p in (identity_morphism(X_RANK2), scalar_morphism(3, X_RANK2)):
        report = naturality_check(p, PX, (X,))
        assert report.ok
        assert mx.first_nonzero(report.alpha_residual) is None
        assert mx.first_nonzero(report.beta_residual) is None


def test_naturality_nontrivial_morphism():
    inclusion = make_morphism(
        [[1], [0]], [[1], [0]], X_RANK1, X_RANK2
    )
    assert naturality_check(inclusion, PX, (X,)).ok


def test_naturality_builds_no_psi(monkeypatch):
    """Naturality reads only Z and rho, so it never builds psi's components."""
    def no_psi(*_):
        raise AssertionError("naturality_check built psi")

    monkeypatch.setattr("mfkit.unit._correction_components", no_psi)
    x, f, xs, _, _ = {c[0]: c[1:] for c in ORACLE_CASES}["pairs-n2"]
    for p in (identity_morphism(x), scalar_morphism(Fraction(-2, 3), x)):
        report = naturality_check(p, f, xs)
        assert report.ok
        assert mx.first_nonzero(report.alpha_residual) is None
        assert mx.first_nonzero(report.beta_residual) is None
    assert naturality_check(identity_morphism(X_RANK2), PX, (X,)).ok
    with pytest.raises(AssertionError, match="built psi"):
        unitor_right(x, f, xs)


def test_unitors_and_naturality_build_no_unit(monkeypatch):
    """Z, rho and psi come from the word bases and f's partials; neither
    unitor nor the naturality check builds the unit factorization."""
    def no_unit(*_):
        raise AssertionError("koszul_unit called")

    monkeypatch.setattr("mfkit.unit.koszul_unit", no_unit)
    x, f, xs, g, zs = {c[0]: c[1:] for c in ORACLE_CASES}["pairs-n2"]
    assert unitor_right(x, f, xs).side == "right"
    assert unitor_left(x, g, zs).side == "left"
    assert naturality_check(identity_morphism(x), f, xs).ok
    assert naturality_check(scalar_morphism(PX, X_RANK2), PX, (X,)).ok


# X_RANK1 built a second time: equal to it, but a distinct object, so a
# morphism between the two is not an endomorphism.
X_RANK1_COPY = make_factorization([[1]], [[PZ - PX]], PZ - PX)


def test_naturality_failure_names_the_entry(monkeypatch):
    """A broken square: the target's rho is doubled, so the two composites
    differ by rho_Y.(p x id) = p.rho_X, and describe() names the first
    block, entry and residual."""
    def doubled_target(x, f, fvars):
        gens, z, rho, check = _collapsed_product(x, f, fvars)
        if x is X_RANK1_COPY:
            rho = compose_morphisms(scalar_morphism(2, x), rho)
        return gens, z, rho, check

    p = make_morphism(mx.identity(1), mx.identity(1), X_RANK1, X_RANK1_COPY)
    monkeypatch.setattr("mfkit.unit._collapsed_product", doubled_target)
    report = naturality_check(p, PX, (X,))
    assert not report.ok
    assert report.describe() == "alpha[0][1] deviates by 1"
    monkeypatch.undo()
    assert naturality_check(p, PX, (X,)).describe() == "ok"


def test_unitor_invariant_failure_names_the_entry(monkeypatch):
    """rho . psi = id is checked entry by entry; a failure names the block,
    the entry and its residual.  Doubling psi's components keeps psi a
    morphism and makes rho . psi twice the identity."""
    def doubled(x, gen_vars, sign):
        return {key: mx.scale(c, 2)
                for key, c in _correction_components(x, gen_vars, sign).items()}

    monkeypatch.setattr("mfkit.unit._correction_components", doubled)
    with pytest.raises(RuntimeError) as err:
        unitor_right(X_RANK1, PX, (X,))
    assert str(err.value) == (
        "unitor invariant failed: rho . psi is not the identity: "
        "alpha[0][0] deviates by 1")


# ---------------------------------------------------------------------------
# one zero test per construction: every check of a unitor or a naturality
# check is decided in one call, and a failure raises (or reports) what the
# failing check raises on its own.


# A factor over a variable no oracle case uses, to tensor with.
U_SQUARED = make_factorization([[Polynomial.var(Variable("u"))]],
                               [[Polynomial.var(Variable("u"))]],
                               Polynomial.var(Variable("u")) ** 2)


@pytest.mark.parametrize("case", ["cubic-n1-rank1", "mixed-rank2", "pairs-n2"])
def test_each_construction_makes_one_zero_test(monkeypatch, case):
    x, f, xs, g, ws = {c[0]: c[1:] for c in ORACLE_CASES}[case]
    copy = make_factorization(x.p, x.q, x.potential, extra_vars=x.vars)
    to_copy = make_morphism(mx.identity(x.size), mx.identity(x.size), x, copy)
    calls = record_zero_tests(monkeypatch)
    for build in (lambda: unitor_right(x, f, xs), lambda: unitor_left(x, g, ws),
                  lambda: naturality_check(identity_morphism(x), f, xs),
                  lambda: naturality_check(scalar_morphism(PX - 1, x), f, xs),
                  lambda: naturality_check(to_copy, f, xs),
                  lambda: koszul_unit(f, xs), lambda: yoshino(x, U_SQUARED),
                  lambda: tensor_morphisms(identity_morphism(U_SQUARED), to_copy),
                  lambda: tensor_morphisms(scalar_morphism(2, U_SQUARED),
                                           scalar_morphism(PX - 1, x))):
        calls.clear()
        build()
        assert len(calls) == 1


def test_the_unitor_decides_its_equations_in_order(monkeypatch):
    """Z's P*Q = w*I, rho's squares, psi's squares, then rho.alpha * psi.alpha
    = I and rho.beta * psi.beta = I, each with its own right-hand side."""
    x, f, xs, _, _ = {c[0]: c[1:] for c in ORACLE_CASES}["pairs-n2"]
    calls = record_zero_tests(monkeypatch)
    b = unitor_right(x, f, xs)
    ((equations, w, _, _),) = calls
    z, rho, psi = b.z, b.rho, b.psi
    assert equations == (
        [(z.p, z.q, 1)],
        [(rho.beta, z.p, 1), (x.p, rho.alpha, -1)], [(rho.alpha, z.q, 1), (x.q, rho.beta, -1)],
        [(psi.beta, x.p, 1), (z.p, psi.alpha, -1)], [(psi.alpha, x.q, 1), (z.q, psi.beta, -1)],
        [(rho.alpha, psi.alpha, 1)], [(rho.beta, psi.beta, 1)])
    assert w == (z.potential, None, None, None, None, Polynomial.const(1),
                 Polynomial.const(1))


def _raised(build):
    """The exception ``build()`` raises: its type and its message."""
    with pytest.raises(Exception) as err:
        build()
    return type(err.value), str(err.value)


def _recording_morphisms(monkeypatch):
    """A list that gets each ``Morphism`` ``unit`` builds from here on."""
    built = []

    def record(*args, **kwargs):
        built.append(Morphism(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(unit, "Morphism", record)
    return built


def _breaking_layout(monkeypatch, which):
    """From here on the ``which``-th layout ``unit`` writes (0 first) has the
    sign of its P's first handed entry flipped; returns the list that gets
    each written (P, Q) pair."""
    written = []

    def write(*args):
        p, q, p_rows, q_rows = _write_layout(*args)
        if len(written) == which:
            p_rows = [list(row) for row in p_rows]
            j, atom, sign = p_rows[0][0]
            p_rows[0][0] = (j, atom, -sign)
            p = mx._from_signed_rows(p_rows, len(p), {})
        written.append((p, q))
        return p, q, p_rows, q_rows

    monkeypatch.setattr(unit, "_write_layout", write)
    return written


def _breaking_rho(monkeypatch, source):
    """From here on the collapsed product of ``source`` returns rho with its
    odd block doubled, which breaks its even square; returns the list that
    gets each rho so broken."""
    broken = []

    def collapsed(x, f, fvars, side="right"):
        gens, z, rho, check = _collapsed_product(x, f, fvars, side)
        if x is source:
            rho = Morphism(rho.alpha, mx.scale(rho.beta, 2), z, x)
            broken.append(rho)
        return gens, z, rho, check

    monkeypatch.setattr(unit, "_collapsed_product", collapsed)
    return broken


@pytest.mark.parametrize("side", ["right", "left"])
def test_each_failing_stage_of_a_unitor_raises_what_its_check_raises(monkeypatch, side):
    x, f, xs, g, ws = {c[0]: c[1:] for c in ORACLE_CASES}["pairs-n2"]
    build = (lambda: unitor_right(x, f, xs)) if side == "right" else (
        lambda: unitor_left(x, g, ws))
    with monkeypatch.context() as patch:  # Z
        written = _breaking_layout(patch, 0)
        got = _raised(build)
    ((p, q),) = written  # Z swaps the layout's two matrices
    assert got == _raised(lambda: make_factorization(q, p, x.potential))
    assert got[0] is NotAFactorization
    with monkeypatch.context() as patch:  # rho's squares
        broken = _breaking_rho(patch, x)
        got = _raised(build)
    (rho,) = broken
    assert got == (NotAMorphism, str(NotAMorphism(validate_morphism(rho))))
    with monkeypatch.context() as patch:  # psi's squares: psi embeds X alone
        patch.setattr(unit, "_correction_components", lambda x, gens, sign: {
            key: c if not key[0] else mx.zeros(x.size, x.size)
            for key, c in _correction_components(x, gens, sign).items()})
        built = _recording_morphisms(patch)
        got = _raised(build)
    rho, psi = built
    assert not validate_morphism(psi).ok
    assert got == (NotAMorphism, str(NotAMorphism(validate_morphism(psi))))
    assert compose_morphisms(rho, psi).alpha == mx.identity(x.size)


def test_each_failing_stage_of_naturality_raises_what_its_check_raises(monkeypatch):
    """Between X and an equal copy: X's Z and rho, the copy's Z and rho and
    the p tensor id squares each raise what the check raises alone; a
    broken naturality square is a report (as the composites give it)."""
    x, f, xs, _, _ = {c[0]: c[1:] for c in ORACLE_CASES}["mixed-rank2"]
    copy = make_factorization(mx.from_rows([list(row) for row in x.p]), x.q,
                              x.potential, extra_vars=x.vars)
    p = make_morphism(mx.identity(x.size), mx.identity(x.size), x, copy)

    def check():
        return naturality_check(p, f, xs)

    assert check().ok
    for k in (0, 1):
        with monkeypatch.context() as patch:
            written = _breaking_layout(patch, k)
            got = _raised(check)
        zp, zq = written[k][1], written[k][0]
        assert got == _raised(lambda: make_factorization(zp, zq, x.potential))
        assert got[0] is NotAFactorization
    for source in (x, copy):
        with monkeypatch.context() as patch:
            broken = _breaking_rho(patch, source)
            got = _raised(check)
        (rho,) = broken
        assert got == (NotAMorphism, str(NotAMorphism(validate_morphism(rho))))
    with monkeypatch.context() as patch:
        patch.setattr(unit, "_tensor_blocks", lambda *blocks: (
            lambda beta, alpha: (mx.scale(beta, 2), alpha))(*_tensor_blocks(*blocks)))
        built = _recording_morphisms(patch)
        got = _raised(check)
    p_tensor_id = built[-1]
    assert got == (NotAMorphism, str(NotAMorphism(validate_morphism(p_tensor_id))))


def _checked_collapsed_product(x, f, fvars):
    """``(gens, Z, rho)`` of ``unit._collapsed_product`` (as patched), with
    Z and rho checked on their own: Z is the factorization
    ``make_factorization`` builds from its matrices, and rho a morphism."""
    gens, z, rho, _ = unit._collapsed_product(x, f, fvars)
    assert make_factorization(z.p, z.q, z.potential, extra_vars=z.vars) == z
    return gens, z, make_morphism(rho.alpha, rho.beta, rho.source, rho.target)


def _naturality_by_composites(p, f, fvars):
    """The naturality report as the composites give it: both collapsed
    products built and checked (``_checked_collapsed_product``), both
    composites composed and compared."""
    (_, even, _), zx, rho_x = _checked_collapsed_product(p.source, f, fvars)
    _, zy, rho_y = _checked_collapsed_product(p.target, f, fvars)
    i_m = mx.identity(len(even))
    beta, alpha = _tensor_blocks(p.alpha, p.beta, i_m, i_m)
    p_tensor_id = make_morphism(alpha=alpha, beta=beta, source=zx, target=zy)
    left = compose_morphisms(rho_y, p_tensor_id)
    right = compose_morphisms(p, rho_x)
    return NaturalityReport(
        ok=left == right,
        alpha_residual=mx.sub(left.alpha, right.alpha),
        beta_residual=mx.sub(left.beta, right.beta),
    )


def test_naturality_of_an_endomorphism_builds_one_collapsed_product(monkeypatch):
    x, f, xs, _, _ = {c[0]: c[1:] for c in ORACLE_CASES}["pairs-n2"]
    built = []

    def counted(x, f, fvars):
        built.append(x)
        return _collapsed_product(x, f, fvars)

    monkeypatch.setattr("mfkit.unit._collapsed_product", counted)
    for p in (identity_morphism(x), scalar_morphism(Fraction(-2, 3), x),
              scalar_morphism(PX - 1, X_RANK2)):
        fvars = xs if p.source is x else (X,)
        pot = f if p.source is x else PX
        built.clear()
        report = naturality_check(p, pot, fvars)
        assert built == [p.source]
        assert report.ok
        assert report == _naturality_by_composites(p, pot, fvars)


# Products, sums and differences of the entries only: the checks are zero
# tests, and only a failing one builds a product.
def _refuse(*_):
    raise AssertionError("a product was built")


@pytest.mark.parametrize("case", ["cubic-n1-rank1", "cubic-n1-rank2", "pairs-n1"])
def test_unitors_with_one_generator_build_no_product(monkeypatch, case):
    """With one generator, psi's components are +-d(D) and rho . psi = id is
    a zero test: no matrix or kernel product is formed."""
    x, f, xs, g, ws = {c[0]: c[1:] for c in ORACLE_CASES}[case]
    want = (unitor_right(x, f, xs), unitor_left(x, g, ws))
    monkeypatch.setattr(mx, "mul", _refuse)
    monkeypatch.setattr(mx, "sum_of_products", _refuse)
    monkeypatch.setattr(poly, "sum_of_products", _refuse)
    assert (unitor_right(x, f, xs), unitor_left(x, g, ws)) == want


def test_naturality_builds_no_product(monkeypatch):
    x, f, xs, _, _ = {c[0]: c[1:] for c in ORACLE_CASES}["pairs-n2"]
    inclusion = make_morphism([[1], [0]], [[1], [0]], X_RANK1, X_RANK2)
    cases = [(identity_morphism(x), f, xs), (scalar_morphism(Fraction(3, 4), x), f, xs),
             (inclusion, PX, (X,)), (scalar_morphism(PZ, X_RANK2), PX, (X,))]
    monkeypatch.setattr(mx, "mul", _refuse)
    monkeypatch.setattr(mx, "sum_of_products", _refuse)
    monkeypatch.setattr(poly, "sum_of_products", _refuse)
    for p, pot, fvars in cases:
        report = naturality_check(p, pot, fvars)
        assert report.ok and report.describe() == "ok"
        assert mx.first_nonzero(report.alpha_residual) is None
        assert mx.first_nonzero(report.beta_residual) is None


X_RANK2_COPY = direct_sum(
    X_RANK1_COPY, make_factorization([[PZ - PX]], [[1]], PZ - PX))
SCALARS = [Polynomial.const(0), Polynomial.const(1), Polynomial.const(Fraction(-3, 2)),
           PX, PZ - 2, PX * PZ + Fraction(1, 3)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(X_RANK1, X_RANK1_COPY), (X_RANK2, X_RANK2_COPY)]),
       st.sampled_from(["endo", "to copy", "from copy", "copy endo"]),
       st.sampled_from(SCALARS), st.sampled_from(SCALARS))
def test_naturality_matches_the_composites(pair, direction, scalar, rho_scale):
    """The report of the zero tests equals the one the composites give, on
    passing squares and on squares broken by scaling the copy's rho (an
    endomorphism of the copy scales both sides and still passes)."""
    x, copy = pair
    source, target = {"endo": (x, x), "to copy": (x, copy),
                      "from copy": (copy, x), "copy endo": (copy, copy)}[direction]
    m = mx.scalar_matrix(x.size, scalar)
    p = make_morphism(m, m, source, target)

    def scaled_copy(y, f, fvars):
        gens, z, rho, check = _collapsed_product(y, f, fvars)
        if y is copy:
            rho = compose_morphisms(scalar_morphism(rho_scale, y), rho)
        return gens, z, rho, check

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("mfkit.unit._collapsed_product", scaled_copy)
        got = naturality_check(p, PX, (X,))
        want = _naturality_by_composites(p, PX, (X,))
    assert got == want
    assert got.describe() == want.describe()
    broken = direction in ("to copy", "from copy") and rho_scale != 1 and scalar != 0
    assert got.ok is not broken
