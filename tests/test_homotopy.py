import random
from fractions import Fraction

import pytest

from mfkit import matrices as mx
from mfkit.cli import run
from mfkit.homotopy import (
    HomotopyWitness,
    NotFoundWithinDegree,
    _solve_gauss_jordan,
    check_witness,
    find_witness,
    is_null_homotopic,
)
from mfkit.matfac import (
    ShapeMismatch,
    compose_morphisms,
    identity_morphism,
    make_factorization,
    scalar_morphism,
    validate_morphism,
    serialize_factorization,
    zero_morphism,
    Morphism,
)
from mfkit.poly import Polynomial, derivative
from mfkit.tensor import Variant, yoshino
from mfkit.unit import unitor_right

from conftest import PX, PY, PZ, X, Y, Z, rand_poly

R = make_factorization([[1]], [[PX]], PX)
M = make_factorization([[0, PX], [PX ** 2, 0]], [[0, PX], [PX ** 2, 0]],
                       PX ** 3)


def zero_witness(x, y):
    return HomotopyWitness(
        lambda0=mx.zeros(y.size, x.size),
        lambda1=mx.zeros(y.size, x.size),
        max_degree=0,
    )


def half_d_witness(x):
    """lambda = d/2 -- certifies 0 ~ h*id over the rationals."""
    half = Fraction(1, 2)
    return HomotopyWitness(
        lambda0=mx.scale(x.p, half),
        lambda1=mx.scale(x.q, half),
        max_degree=max(0, x.potential.degree()),
    )


# ---------------------------------------------------------------------------
# check_witness


@pytest.mark.parametrize("x", [R, M], ids=["rank1", "antidiag"])
def test_zero_witness_for_equal_morphisms(x):
    phi = scalar_morphism(PX + 1, x)
    report = check_witness(x, x, phi, phi, zero_witness(x, x))
    assert report.ok
    assert mx.is_zero(report.even_residual)


@pytest.mark.parametrize("x", [R, M], ids=["rank1", "antidiag"])
def test_half_d_certifies_potential_times_identity(x):
    h_id = scalar_morphism(x.potential, x)
    report = check_witness(
        x, x, zero_morphism(x), h_id, half_d_witness(x)
    )
    assert report.ok


def test_zero_witness_certifies_unitor_round_trip():
    b = unitor_right(make_factorization([[1]], [[PZ - PX]], PZ - PX), PX, (X,))
    x = b.rho.target
    round_trip = compose_morphisms(b.rho, b.psi)
    report = check_witness(
        x, x, round_trip, identity_morphism(x), zero_witness(x, x)
    )
    assert report.ok


def test_wrong_witness_reports_residuals():
    phi = scalar_morphism(PX, R)
    report = check_witness(R, R, phi, zero_morphism(R), zero_witness(R, R))
    assert not report.ok
    assert report.even_residual[0][0] == PX


def test_check_witness_shape_guards():
    phi = scalar_morphism(PX, R)
    with pytest.raises(ShapeMismatch):
        check_witness(M, M, phi, phi, zero_witness(M, M))
    with pytest.raises(ShapeMismatch):
        check_witness(R, R, phi, phi, zero_witness(M, M))


# ---------------------------------------------------------------------------
# find_witness


def test_equal_morphisms_found_at_degree_zero():
    phi = scalar_morphism(PX, M)
    w = find_witness(M, M, phi, phi, 0)
    assert mx.is_zero(mx.from_rows(w.lambda0))
    assert mx.is_zero(mx.from_rows(w.lambda1))
    assert w.max_degree == 0


def test_potential_times_identity_is_null_homotopic():
    phi = scalar_morphism(PX, R)
    found, w = is_null_homotopic(R, R, phi, 1)
    assert found
    assert check_witness(R, R, phi, zero_morphism(R), w).ok


def test_trivial_factorization_identity_is_null_homotopic():
    # ([1],[x]) is contractible: lambda0 = 0, lambda1 = -1 already works
    found, w = is_null_homotopic(R, R, identity_morphism(R), 0)
    assert found
    assert check_witness(
        R, R, identity_morphism(R), zero_morphism(R), w
    ).ok


def test_identity_on_nontrivial_pair_not_found():
    with pytest.raises(NotFoundWithinDegree) as err:
        find_witness(M, M, zero_morphism(M), identity_morphism(M), 3)
    assert err.value.max_degree == 3
    assert "no claim" in str(err.value)


def test_not_found_names_the_system_and_first_inconsistent_equation():
    # Two constant unknowns l0, l1; the even entry reads x*l0 + l1*x = x^2 + x.
    # Its x term, l0 + l1 = 1, has rank 1; its x^2 term, 0 = 1, fails.
    a = make_factorization([[PX]], [[PX]], PX ** 2)
    phi = scalar_morphism(PX ** 2 + PX, a)
    with pytest.raises(NotFoundWithinDegree) as err:
        find_witness(a, a, zero_morphism(a), phi, 0)
    assert str(err.value) == (
        "no homotopy witness with entry degree <= 0 (no claim about higher "
        "degrees): 2 unknowns, 4 equations, rank 1 at the first inconsistent "
        "equation, even entry [0][0], monomial x^2"
    )


def test_is_null_homotopic_returns_flag_and_witness():
    found, w = is_null_homotopic(M, M, identity_morphism(M), 2)
    assert not found
    assert w is None


def test_unitor_psi_rho_vs_identity_recorded():
    # the reverse composite: a witness exists already at entry degree 0
    b = unitor_right(make_factorization([[1]], [[PZ - PX]], PZ - PX), PX, (X,))
    zf = b.z
    reverse = compose_morphisms(b.psi, b.rho)
    w = find_witness(zf, zf, reverse, identity_morphism(zf), 0)
    assert check_witness(zf, zf, reverse, identity_morphism(zf), w).ok


def test_find_witness_is_deterministic():
    phi = scalar_morphism(PX ** 2, M)
    w1 = find_witness(M, M, zero_morphism(M), phi, 2)
    w2 = find_witness(M, M, zero_morphism(M), phi, 2)
    assert w1 == w2


def test_find_witness_rejects_negative_degree():
    with pytest.raises(ValueError):
        find_witness(R, R, identity_morphism(R), identity_morphism(R), -1)


# ---------------------------------------------------------------------------
# the equivalence relation, at the witness level


def witness_neg(w):
    return HomotopyWitness(
        lambda0=mx.neg(mx.from_rows(w.lambda0)),
        lambda1=mx.neg(mx.from_rows(w.lambda1)),
        max_degree=w.max_degree,
    )


def witness_add(a, b):
    return HomotopyWitness(
        lambda0=mx.add(mx.from_rows(a.lambda0), mx.from_rows(b.lambda0)),
        lambda1=mx.add(mx.from_rows(a.lambda1), mx.from_rows(b.lambda1)),
        max_degree=max(a.max_degree, b.max_degree),
    )


def test_homotopy_is_an_equivalence_relation():
    phi = zero_morphism(M)
    psi = scalar_morphism(M.potential, M)
    chi = scalar_morphism(2 * M.potential, M)
    # reflexive
    assert check_witness(M, M, phi, phi, zero_witness(M, M)).ok
    # symmetric: negate the witness
    w = half_d_witness(M)
    assert check_witness(M, M, phi, psi, w).ok
    assert check_witness(M, M, psi, phi, witness_neg(w)).ok
    # transitive: add witnesses
    w2 = find_witness(M, M, psi, chi, 2)
    assert check_witness(M, M, phi, chi, witness_add(w, w2)).ok


def test_witness_stable_under_null_homotopic_shift():
    """Adding d_Y*mu + mu*d_X to psi keeps phi ~ psi, witness shifted by mu."""
    rng = random.Random(51)
    phi = zero_morphism(M)
    psi = scalar_morphism(M.potential, M)
    w = half_d_witness(M)
    for _ in range(10):
        mu0 = mx.from_rows(
            [[rand_poly(rng, (X,)) for _ in range(2)] for _ in range(2)]
        )
        mu1 = mx.from_rows(
            [[rand_poly(rng, (X,)) for _ in range(2)] for _ in range(2)]
        )
        shift_alpha = mx.add(mx.mul(M.q, mu0), mx.mul(mu1, M.p))
        shift_beta = mx.add(mx.mul(M.p, mu1), mx.mul(mu0, M.q))
        shifted = Morphism(
            alpha=mx.add(psi.alpha, shift_alpha),
            beta=mx.add(psi.beta, shift_beta),
            source=M,
            target=M,
        )
        assert validate_morphism(shifted).ok
        w_shift = witness_add(
            w, HomotopyWitness(lambda0=mu0, lambda1=mu1, max_degree=0)
        )
        assert check_witness(M, M, phi, shifted, w_shift).ok


# ---------------------------------------------------------------------------
# the sparse solver, on hand-written and seeded random systems


def satisfies(rows, sol):
    return all(
        sum(c * sol.get(u, 0) for u, c in coeffs.items()) == rhs
        for coeffs, rhs in rows
    )


def test_solver_inconsistency_after_the_rank_is_reached():
    rows = [({0: 1}, 1), ({0: 1}, 2)]
    assert _solve_gauss_jordan(rows, 1) == (None, 1, 1)


def test_solver_dependent_duplicate_rows():
    rows = [({0: 1, 1: 1}, 2), ({0: 1, 1: 1}, 2), ({0: 2, 1: 2}, 4)]
    assert _solve_gauss_jordan(rows, 2) == ({0: 2}, 1, None)


def test_solver_underdetermined_pivots_leftmost_free_unknowns_zero():
    rows = [({0: 1, 1: 1}, 2), ({1: 1, 2: 1}, 3)]
    assert _solve_gauss_jordan(rows, 3) == ({0: -1, 1: 3}, 2, None)


def test_solver_ignores_zero_coefficients():
    rows = [({0: 0, 1: 2}, 4), ({}, 0)]
    assert _solve_gauss_jordan(rows, 2) == ({1: 2}, 1, None)


def random_system(rng, nunknowns, nrows):
    """Sparse rows with rhs = A*s for a random s: consistent by design."""
    s = {u: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for u in range(nunknowns)}
    rows = []
    for _ in range(nrows):
        coeffs = {u: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
                  for u in rng.sample(range(nunknowns), rng.randint(1, min(4, nunknowns)))}
        rows.append((coeffs, sum(c * s[u] for u, c in coeffs.items())))
    return rows


def combination(rng, rows):
    """A random combination of two or three of the rows, as one row."""
    coeffs, rhs = {}, Fraction(0)
    for c, r in rng.sample(rows, min(len(rows), rng.randint(2, 3))):
        f = Fraction(rng.choice([-2, -1, 1, 3]))
        for u, a in c.items():
            coeffs[u] = coeffs.get(u, 0) + f * a
        rhs += f * r
    return coeffs, rhs


@pytest.mark.parametrize("seed", range(20))
def test_solver_random_consistent_systems(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 14)
    rows = random_system(rng, n, rng.randint(2, 18))
    rows.append(combination(rng, rows))
    sol, rank, bad = _solve_gauss_jordan(rows, n)
    assert bad is None and satisfies(rows, sol)
    assert rank == len(sol) <= n
    # the reduced form is unique, so the row order does not matter
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert _solve_gauss_jordan(shuffled, n) == (sol, rank, None)


@pytest.mark.parametrize("seed", range(20))
def test_solver_random_inconsistent_systems(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(3, 14)
    rows = random_system(rng, n, rng.randint(2, 18))
    coeffs, rhs = combination(rng, rows)
    rows.insert(rng.randint(0, len(rows)), (coeffs, rhs + rng.choice([-1, 1, Fraction(1, 2)])))
    sol, _, bad = _solve_gauss_jordan(rows, n)
    assert sol is None and bad is not None


# ---------------------------------------------------------------------------
# pinned witness bytes: the solver's pivot rule fixes the printed witness


def test_readme_homotopy_witness_text(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(serialize_factorization(M))
    assert run(["homotopy", str(path), "--phi", "scalar:x", "--psi", "zero",
                "--max-degree", "2"]) == 0
    assert capsys.readouterr().out == (
        "witness found (entry degree <= 2); re-check: ok\n"
        "lambda0:\n"
        "  [  0   0 ]\n"
        "  [ -1   0 ]\n"
        "lambda1:\n"
        "  [  0   0 ]\n"
        "  [ -1   0 ]\n"
    )


def test_size4_jacobian_witness_text():
    u, v = PX + PY, PX * PX - 2 * PY
    zero = Polynomial.zero()
    anti = [[zero, u], [v, zero]]
    a = make_factorization(anti, anti, u * v)
    b = make_factorization([[PZ - 1]], [[Fraction(1, 2) * PZ ** 2]],
                           (PZ - 1) * Fraction(1, 2) * PZ ** 2)
    x4 = yoshino(a, b, Variant.STANDARD)
    phi = scalar_morphism(derivative(x4.potential, X), x4)
    w = find_witness(x4, x4, phi, zero_morphism(x4), 2)
    text = [[str(e) for e in row] for row in w.lambda0 + w.lambda1]
    block = [["0", "-1", "0", "0"], ["-2*x", "0", "0", "0"],
             ["0", "0", "0", "-1"], ["0", "0", "-2*x", "0"]]
    assert text == block + block


# ---------------------------------------------------------------------------
# Jacobian null-homotopy oracle: d(PQ) = d(w) makes (d_v P, d_v Q) a witness
# for d_v w * id ~ 0 (Dyckerhoff, Compact generators in categories of matrix
# factorizations, 2011).


def random_rank1(rng, v):
    u = rand_poly(rng, (v,), nonzero=True)
    w = rand_poly(rng, (v,), nonzero=True)
    return make_factorization([[u]], [[w]], u * w)


def random_product(rng, size):
    variants = list(Variant)
    x = yoshino(random_rank1(rng, X), random_rank1(rng, Y), rng.choice(variants))
    if size == 4:
        x = yoshino(x, random_rank1(rng, Z), rng.choice(variants))
    return x


@pytest.mark.parametrize("size", [2, 4])
@pytest.mark.parametrize("seed", range(4))
def test_jacobian_null_homotopy_oracle(size, seed):
    x = random_product(random.Random(1000 * size + seed), size)
    assert x.size == size
    zero = zero_morphism(x)
    for v in x.vars:
        phi = scalar_morphism(derivative(x.potential, v), x)
        dp = mx.from_rows([[derivative(e, v) for e in row] for row in x.p])
        dq = mx.from_rows([[derivative(e, v) for e in row] for row in x.q])
        degree = max(0, max(e.degree() for m in (dp, dq) for row in m for e in row))
        oracle = HomotopyWitness(lambda0=dp, lambda1=dq, max_degree=degree)
        assert check_witness(x, x, zero, phi, oracle).ok
        w = find_witness(x, x, zero, phi, degree)
        assert check_witness(x, x, zero, phi, w).ok
