"""Acceptance gate: the ten required checks, one pass/fail line each
(criterion 9, a check's second equation following from its first, has two).

Every check is exact -- no tolerances anywhere.  `pytest tests/test_acceptance.py -v`
shows one test per criterion; with `-s` the printed summary lines appear too.
"""

import functools
import random

from mfkit import matrices as mx
from mfkit.exterior import theta_words
from mfkit.homotopy import HomotopyWitness, check_witness, find_witness
from mfkit.matfac import (
    Morphism,
    compose_morphisms,
    direct_sum,
    identity_morphism,
    make_factorization,
    parse_factorization,
    scalar_morphism,
    serialize_factorization,
    validate_morphism,
    zero_morphism,
)
from mfkit.poly import Polynomial, diff_quotient, t_shift
from mfkit.tensor import Variant, yoshino
from mfkit.unit import koszul_unit, naturality_check, unitor_left, unitor_right

from conftest import PX, PY, PZ, X, Y, Z, rand_poly
from exterior_oracle import ExtElement, contract, wedge

XP = Polynomial.var(X.primed())


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"FAIL criterion {num}: {label}")
                raise
            print(f"PASS criterion {num}: {label}")

        return wrapper

    return deco


@criterion(1, "worked example validation")
def test_criterion_01_worked_examples():
    m = [[0, PX], [PX ** 2, 0]]
    assert make_factorization(m, m, PX ** 3).size == 2
    assert make_factorization([[1]], [[PX ** 3]], PX ** 3).size == 1
    for n, q in ((3, 1), (5, 2), (7, 3)):
        mq = [[0, PX ** q], [PX ** (n - q), 0]]
        assert make_factorization(mq, mq, PX ** n).size == 2


@criterion(2, "tensor product and variants")
def test_criterion_02_variants():
    a = make_factorization([[1]], [[PX]], PX)
    b = make_factorization([[1]], [[PY]], PY)
    built = [yoshino(a, b, v) for v in Variant]
    for z in built:
        assert z.potential == PX + PY
        assert z.size == 2
    for i in range(len(built)):
        for j in range(i + 1, len(built)):
            same = built[i].p == built[j].p and built[i].q == built[j].q
            assert not same


@criterion(3, "graded differential identity on 20 random pairs")
def test_criterion_03_graded_differential():
    rng = random.Random(103)
    for _ in range(20):
        a = rand_factorization_disjoint(rng, (X,))
        b = rand_factorization_disjoint(rng, (Y, Z))
        total = mx.scalar_matrix(
            2 * a.size * b.size, a.potential + b.potential
        )
        for v in (Variant.STANDARD, Variant.V2):
            z = yoshino(a, b, v)
            assert mx.mul(z.q, z.p) == total
            assert mx.mul(z.p, z.q) == total


def rand_factorization_disjoint(rng, variables):
    # block rank <= 2, entry degree <= 3, never the zero potential shape
    u = rand_poly(rng, variables, max_terms=2, max_deg=3, nonzero=True)
    v = rand_poly(rng, variables, max_terms=2, max_deg=3, nonzero=True)
    pick = rng.randrange(3)
    if pick == 0:
        return make_factorization([[u]], [[v]], u * v)
    if pick == 1:
        m = [[Polynomial.zero(), u], [v, Polynomial.zero()]]
        return make_factorization(m, m, u * v)
    return direct_sum(
        make_factorization([[u]], [[v]], u * v),
        make_factorization([[v]], [[u]], u * v),
    )


@criterion(4, "difference-quotient suite")
def test_criterion_04_difference_quotients():
    assert diff_quotient(PX - PY, 1, (X, Y)) == 1
    assert diff_quotient(PX - PY, 2, (X, Y)) == -1
    rng = random.Random(104)
    xs = (X, Y, Z)
    for _ in range(50):
        f = rand_poly(rng, xs)
        g = rand_poly(rng, xs)
        for i in (1, 2, 3):
            lhs = diff_quotient(f * g, i, xs)
            rhs = diff_quotient(f, i, xs) * t_shift(g, i, xs) + t_shift(
                f, i - 1, xs
            ) * diff_quotient(g, i, xs)
            assert lhs == rhs
    for k in range(50):
        sub = xs[: (k % 3) + 1]
        f = rand_poly(rng, sub)
        total = Polynomial.zero()
        for i, v in enumerate(sub, start=1):
            delta = Polynomial.var(v) - Polynomial.var(v.primed())
            total = total + delta * diff_quotient(f, i, sub)
        assert total == f - t_shift(f, len(sub), sub)


UNIT_POTENTIALS = [
    (PX ** 3, (X,)),
    (PX - PY, (X, Y)),
    (PX ** 2 + PY ** 2, (X, Y)),
    (PX ** 2 * PY + PZ ** 3, (X, Y, Z)),
]


@criterion(5, "Koszul unit and operator identities")
def test_criterion_05_koszul_unit():
    u = koszul_unit(PX)
    assert u.mf.p == mx.from_rows([[1]])
    assert u.mf.q == mx.from_rows([[PX - XP]])
    for f, xs in UNIT_POTENTIALS:
        built = koszul_unit(f, xs)
        assert built.rank == 2 ** (len(xs) - 1)
    for f, xs in UNIT_POTENTIALS:
        n = len(xs)

        def a_op(i, e):
            lin = Polynomial.var(xs[i - 1]) - Polynomial.var(
                xs[i - 1].primed()
            )
            return contract(i, e).scale(lin)

        def b_op(i, e):
            return wedge(i, e).scale(diff_quotient(f, i, xs))

        for w in theta_words(n):
            e = ExtElement.word(n, w)
            for i in range(1, n + 1):
                assert not a_op(i, a_op(i, e))
                assert not b_op(i, b_op(i, e))
                lin = Polynomial.var(xs[i - 1]) - Polynomial.var(
                    xs[i - 1].primed()
                )
                diag = lin * diff_quotient(f, i, xs)
                assert a_op(i, b_op(i, e)) + b_op(i, a_op(i, e)) == e.scale(diag)
                for j in range(1, n + 1):
                    if i != j:
                        assert a_op(i, a_op(j, e)) == -a_op(j, a_op(i, e))
                        assert b_op(i, b_op(j, e)) == -b_op(j, b_op(i, e))
                        assert a_op(i, b_op(j, e)) == -b_op(j, a_op(i, e))


@criterion(6, "projection annihilates the collapsed differential")
def test_criterion_06_pi_lemma():
    for f, xs in UNIT_POTENTIALS:
        u = koszul_unit(f, xs)
        collapse = {v.primed(): Polynomial.var(v) for v in xs}
        q_bar = mx.subs_matrix(u.mf.q, collapse)
        empty_word_row = [[1] + [0] * (u.rank - 1)]
        assert mx.first_nonzero(mx.mul(mx.from_rows(empty_word_row), q_bar)) is None


X_RANK1 = make_factorization([[1]], [[PZ - PX]], PZ - PX)
X_RANK2 = direct_sum(
    X_RANK1, make_factorization([[PZ - PX]], [[1]], PZ - PX)
)


def _is_identity(m):
    ident = identity_morphism(m.source)
    return m.alpha == ident.alpha and m.beta == ident.beta


@criterion(7, "unitor one-sided inverses")
def test_criterion_07_unitors():
    for x in (X_RANK1, X_RANK2):
        for side, build, pot, pvars in (
            ("right", unitor_right, PX, (X,)),
            ("left", unitor_left, PZ, (Z,)),
        ):
            bundle = build(x, pot, pvars)
            assert _is_identity(compose_morphisms(bundle.rho, bundle.psi))
            assert not _is_identity(compose_morphisms(bundle.psi, bundle.rho))
    for p in (identity_morphism(X_RANK2), scalar_morphism(3, X_RANK2)):
        assert naturality_check(p, PX, (X,)).ok


@criterion(8, "homotopy witnesses")
def test_criterion_08_homotopy():
    bundle = unitor_right(X_RANK1, PX, (X,))
    x = bundle.rho.target
    round_trip = compose_morphisms(bundle.rho, bundle.psi)
    zero_w = HomotopyWitness(
        lambda0=mx.zeros(1, 1), lambda1=mx.zeros(1, 1), max_degree=0
    )
    assert check_witness(
        x, x, round_trip, identity_morphism(x), zero_w
    ).ok
    r = make_factorization([[1]], [[PX]], PX)
    phi = scalar_morphism(PX, r)
    w = find_witness(r, r, phi, zero_morphism(r), 1)
    assert check_witness(r, r, phi, zero_morphism(r), w).ok


@criterion(9, "either morphism square implies the other")
def test_criterion_09_square_equivalence():
    rng = random.Random(109)
    r_cubed = make_factorization([[1]], [[PX ** 3]], PX ** 3)
    m = [[0, PX], [PX ** 2, 0]]
    m_cubed = make_factorization(m, m, PX ** 3)
    fixtures = [
        (r_cubed, r_cubed),
        (r_cubed, m_cubed),
        (m_cubed, m_cubed),
    ]
    for x, y in fixtures:
        assert x.potential != 0
        for k in range(100):
            mode = k % 3
            if mode == 0:
                g0, g1 = _valid_pair(rng, x, y)
            elif mode == 1:
                g0, g1 = _valid_pair(rng, x, y)
                g0 = _perturb(rng, g0)
            else:
                g0 = _rand_matrix(rng, y.size, x.size)
                g1 = _rand_matrix(rng, y.size, x.size)
            report = validate_morphism(Morphism(g0, g1, x, y))
            assert ((mx.first_nonzero(report.eq1_residual) is None)
                    == (mx.first_nonzero(report.eq2_residual) is None))


@criterion(9, "over a nonzero potential P*Q = w*I implies Q*P = w*I")
def test_criterion_09_product_implies_its_reverse():
    # make_factorization decides P*Q alone when w != 0; here both residuals
    # are built independently, on valid, perturbed and random pairs.
    rng = random.Random(119)
    valid = [make_factorization([[1]], [[PX ** 3]], PX ** 3), X_RANK1, X_RANK2,
             yoshino(X_RANK1, make_factorization([[PY]], [[PY + 1]], PY ** 2 + PY)),
             koszul_unit(PX ** 3 + PY ** 2, (X, Y)).mf]
    valid += [rand_factorization_disjoint(rng, (X, Y)) for _ in range(10)]
    for k in range(90):
        fx = valid[k % len(valid)]
        p, q, w = fx.p, fx.q, fx.potential
        mode = k % 3
        if mode == 1 and rng.random() < 0.5:
            p = _perturb(rng, p)
        elif mode == 1:
            q = _perturb(rng, q)
        elif mode == 2:
            p, q = (_rand_matrix(rng, fx.size, fx.size) for _ in "pq")
        assert w != 0
        pq = mx.first_nonzero(mx.residual([(p, q, 1)], w)) is None
        qp = mx.first_nonzero(mx.residual([(q, p, 1)], w)) is None
        assert pq == qp
        assert pq or mode != 0
    # Over w = 0 the two sides are independent.
    p, q = mx.from_rows([[0, 1], [0, 0]]), mx.from_rows([[1, 0], [0, 0]])
    zero = Polynomial.zero()
    assert mx.first_nonzero(mx.residual([(p, q, 1)], zero)) is None
    assert mx.first_nonzero(mx.residual([(q, p, 1)], zero)) is not None


def _rand_matrix(rng, rows, cols):
    return mx.from_rows(
        [[rand_poly(rng, (X,), max_terms=2, max_deg=2) for _ in range(cols)]
         for _ in range(rows)]
    )


def _valid_pair(rng, x, y):
    c = rand_poly(rng, (X,), max_terms=2, max_deg=2)
    if x is y:
        s = mx.scalar_matrix(x.size, c)
        return s, s
    # column embedding into the 2x2 pair, beta forced by the even square
    alpha = mx.from_rows([[c], [c * PX]])
    beta = mx.mul(y.p, alpha)
    return alpha, beta


def _perturb(rng, m):
    rows, cols = mx.shape(m)
    i = rng.randrange(rows)
    j = rng.randrange(cols)
    bump = rand_poly(rng, (X,), max_terms=1, max_deg=1, nonzero=True)
    rows = [list(row) for row in m]
    rows[i][j] = rows[i][j] + bump
    return mx.from_rows(rows)


@criterion(10, "byte-identical serialization round trip")
def test_criterion_10_round_trip():
    fixtures = [
        make_factorization([[0, PX], [PX ** 2, 0]],
                           [[0, PX], [PX ** 2, 0]], PX ** 3),
        make_factorization([[1]], [[PX ** 3]], PX ** 3),
        X_RANK1,
        X_RANK2,
    ]
    a = make_factorization([[1]], [[PX]], PX)
    b = make_factorization([[1]], [[PY]], PY)
    fixtures += [yoshino(a, b, v) for v in Variant]
    fixtures += [koszul_unit(f, xs).mf for f, xs in UNIT_POTENTIALS]
    fixtures.append(unitor_right(X_RANK1, PX, (X,)).z)
    fixtures.append(unitor_left(X_RANK2, PZ, (Z,)).z)
    rng = random.Random(110)
    fixtures += [rand_factorization_disjoint(rng, (X, Y)) for _ in range(10)]
    for fx in fixtures:
        text = serialize_factorization(fx)
        assert serialize_factorization(parse_factorization(text)) == text
