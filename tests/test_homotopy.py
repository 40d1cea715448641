import copy
import pickle
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfkit import matrices as mx
from mfkit.cli import run
from mfkit.homotopy import (
    MAX_UNKNOWNS,
    HomotopyWitness,
    NotFoundWithinDegree,
    _Rows,
    _monomials_up_to,
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
from mfkit.poly import Polynomial, Variable, derivative, poly_to_str
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
    assert mx.first_nonzero(report.even_residual) is None


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
    assert mx.first_nonzero(mx.from_rows(w.lambda0)) is None
    assert mx.first_nonzero(mx.from_rows(w.lambda1)) is None
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


def test_not_found_in_a_later_odd_entry():
    # psi moves beta[1][0] of the zero morphism by x (it is no morphism; the
    # search solves the two equations as written).  Every equation before
    # odd entry [1][0] holds with lambda = 0, and that entry is
    # x^2*l1[0][0] + x^2*l0[1][1] = x, which no l of degree <= 1 meets.
    zero = Polynomial.zero()
    psi = Morphism(alpha=mx.zeros(2, 2), beta=mx.from_rows([[zero, zero], [PX, zero]]),
                   source=M, target=M)
    with pytest.raises(NotFoundWithinDegree) as err:
        find_witness(M, M, zero_morphism(M), psi, 1)
    assert str(err.value) == (
        "no homotopy witness with entry degree <= 1 (no claim about higher "
        "degrees): 16 unknowns, 21 equations, rank 10 at the first inconsistent "
        "equation, odd entry [1][0], monomial x"
    )


def counted_expansions(monkeypatch):
    """A list that gets the terms of each polynomial expanded by
    ``dense_terms`` from here on (terms, not the polynomial, whose repr
    would expand it again)."""
    calls = []
    dense_terms = Polynomial.dense_terms

    def counted(self, variables):
        calls.append(self.terms)
        return dense_terms(self, variables)

    monkeypatch.setattr(Polynomial, "dense_terms", counted)
    return calls


@pytest.mark.parametrize("case", ["identity", "later odd entry", "jacobian"])
def test_a_search_with_no_witness_expands_each_entry_once(case, monkeypatch):
    # Iterating the rows, counting them and locating the failing one all
    # read the one list of equation entries: once the message is read, each
    # distinct nonzero known entry has been expanded once for its shift
    # table, each nonzero right-hand side once, and the printed monomial
    # once.  A right-hand side psi - phi of zero is not expanded.
    if case == "identity":
        x, phi, psi, degree = M, identity_morphism(M), zero_morphism(M), 2
    elif case == "later odd entry":
        zero = Polynomial.zero()
        psi = Morphism(alpha=mx.zeros(2, 2), beta=mx.from_rows([[zero, zero], [PX, zero]]),
                       source=M, target=M)
        x, phi, degree = M, zero_morphism(M), 1
    else:
        x = cube_product(4, True)
        phi = scalar_morphism(derivative(x.potential, Y), x)
        psi, degree = zero_morphism(x), 0
    known = {e for d in (x.p, x.q) for row in d for e in row if e}
    # one side of each equation entry is zero: psi - phi is the other side
    sides = sum(1 for m in (phi, psi) for b in (m.alpha, m.beta) for row in b for e in row if e)
    assert sides == {"identity": 4, "later odd entry": 1, "jacobian": 8}[case]
    calls = counted_expansions(monkeypatch)
    with pytest.raises(NotFoundWithinDegree) as err:
        find_witness(x, x, phi, psi, degree)
    assert str(err.value).startswith("no homotopy witness")
    assert len(calls) == len(known) + sides + 1
    assert len(calls) == {"identity": 7, "later odd entry": 4, "jacobian": 19}[case]


def test_an_unread_not_found_expands_only_the_failing_entry(monkeypatch):
    # The identity search on M fails at row 0, the constant term of even
    # entry [0][0] = qY[0][1]*l0[1][0] + l1[0][1]*pX[1][0] = 0 - 1: with the
    # message unread, only x and x^2 and the 1 of phi = id are expanded.
    phi, psi = identity_morphism(M), zero_morphism(M)
    calls = counted_expansions(monkeypatch)
    with pytest.raises(NotFoundWithinDegree):
        find_witness(M, M, phi, psi, 2)
    assert calls == [PX.terms, (PX ** 2).terms, {(): 1}]
    calls.clear()
    assert is_null_homotopic(M, M, phi, 2) == (False, None)
    assert calls == [PX.terms, (PX ** 2).terms, {(): 1}]


def test_not_found_survives_pickle_and_copy():
    def round_trips(err):
        yield pickle.loads(pickle.dumps(err))
        yield copy.copy(err)
        yield copy.deepcopy(err)

    hand_built = NotFoundWithinDegree(3, "x")
    want = "no homotopy witness with entry degree <= 3 (no claim about higher degrees): x"
    for got in round_trips(hand_built):
        assert type(got) is NotFoundWithinDegree
        assert (got.max_degree, str(got)) == (3, want)
    # a search's exception, pickled before its message is read
    with pytest.raises(NotFoundWithinDegree) as err:
        find_witness(M, M, identity_morphism(M), zero_morphism(M), 2)
    got = pickle.loads(pickle.dumps(err.value))
    want = ("no homotopy witness with entry degree <= 2 (no claim about higher "
            "degrees): 24 unknowns, 32 equations, rank 0 at the first "
            "inconsistent equation, even entry [0][0], monomial 1")
    assert (got.max_degree, str(got)) == (2, want)
    assert str(err.value) == want
    assert "_word" not in vars(err.value)  # worded: the search is dropped
    for got in round_trips(err.value):
        assert (got.max_degree, str(got)) == (2, want)


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


def test_find_witness_refuses_a_variable_neither_factorization_declares():
    x = make_factorization([[PX + 1]], [[PX ** 2 - PX + 1]], PX ** 3 + 1)
    foreign = scalar_morphism(PY, x)
    for degree in range(3):
        with pytest.raises(ShapeMismatch, match=(
                "^phi names the variable y, which neither factorization declares$")):
            find_witness(x, x, foreign, zero_morphism(x), degree)
    with pytest.raises(ShapeMismatch, match="^psi names the variable y,"):
        find_witness(x, x, zero_morphism(x), foreign, 0)
    with pytest.raises(ShapeMismatch, match="^phi names the variable y,"):
        check_witness(x, x, foreign, foreign, zero_witness(x, x))


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


def as_total(sol, nunknowns):
    """The value of every unknown, an unknown ``sol`` leaves out being 0."""
    return [sol.get(u, 0) for u in range(nunknowns)]


class ReadOnceUpTo:
    """Sized rows that may be iterated once, and fail the test if a row
    past ``last`` is read."""

    def __init__(self, rows, last):
        self.rows, self.last, self.iterated = rows, last, False

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        assert not self.iterated, "rows iterated twice"
        self.iterated = True
        for n, row in enumerate(self.rows):
            assert n <= self.last, f"row {n} read past row {self.last}"
            yield row


def test_solver_inconsistency_after_the_rank_is_reached():
    rows = [({0: 1}, 1), ({0: 1}, 2)]
    assert _solve_gauss_jordan(rows, 1) == (None, 1, 1)


def test_solver_stops_reading_at_the_first_inconsistent_row():
    rows = [({0: 1, 1: 1}, 1), ({0: 2, 1: 2}, 3), ({1: 1}, 0), ({0: 1}, 5)]
    assert _solve_gauss_jordan(ReadOnceUpTo(rows, 1), 2) == (None, 1, 1)


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
    assert as_total(sol, n) == as_total(fraction_gauss_jordan(rows)[0], n)
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
# the integer-row solver against the Fraction Gauss-Jordan it replaced


def _sub_scaled(row, f, other):
    coeffs = row[0]
    for u, c in other[0].items():
        v = coeffs.pop(u, 0) - f * c
        if v:
            coeffs[u] = v
    row[1] -= f * other[1]


def fraction_gauss_jordan(rows):
    """The reduced row echelon solve over Fraction, every pivot scaled to 1:
    the oracle for ``_solve_gauss_jordan``, which eliminates over integer
    rows and must return the same ``(solution, rank, bad)``."""
    pivots = {}
    for n, (coeffs, rhs) in enumerate(rows):
        row = [{u: Fraction(c) for u, c in coeffs.items() if c}, Fraction(rhs)]
        for u in [u for u in row[0] if u in pivots]:
            _sub_scaled(row, row[0][u], pivots[u])
        if not row[0]:
            if row[1]:
                return None, len(pivots), n
            continue
        p = min(row[0])
        inv = 1 / row[0][p]
        row = [{u: c * inv for u, c in row[0].items()}, row[1] * inv]
        for other in pivots.values():
            if p in other[0]:
                _sub_scaled(other, other[0][p], row)
        pivots[p] = row
    return {p: rhs for p, (_, rhs) in pivots.items()}, len(pivots), None


def assert_solves_like_the_oracle(rows, nunknowns):
    """The oracle's ``(None, rank, bad)`` on an inconsistent system.  On a
    consistent one, the oracle's value of every unknown; the solver leaves
    out the components it did not eliminate, so it returns at most the
    oracle's pivots, and ``rank`` counts those it returns."""
    want = fraction_gauss_jordan(rows)
    last = len(rows) if want[2] is None else want[2]
    got = _solve_gauss_jordan(ReadOnceUpTo(rows, last), nunknowns)
    if want[0] is None:
        assert got == want
        return got
    sol, rank, bad = got
    assert bad is None and rank == len(sol) <= want[1]
    assert sol.keys() <= want[0].keys()
    assert as_total(sol, nunknowns) == as_total(want[0], nunknowns)
    assert all(type(v) is int or v.denominator > 1 for v in sol.values())
    return got


COEFFS = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=6))


@st.composite
def sparse_systems(draw):
    """``(rows, nunknowns, consistent)``: up to four int or Fraction
    coefficients per row, zeros and empty rows among them, and some rows
    repeated or scaled; the rhs is drawn freely, or is A*s for a drawn s."""
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(
        st.dictionaries(st.integers(0, n - 1), COEFFS, max_size=4), max_size=16))
    if rows:
        for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=4)):
            f = draw(st.sampled_from([1, -1, 3, Fraction(-2, 5)]))
            rows.append({u: f * c for u, c in rows[i].items()})
    rows = draw(st.permutations(rows))
    consistent = draw(st.booleans())
    if consistent:
        s = {u: draw(COEFFS) for u in range(n)}
        rhs = [sum(c * s[u] for u, c in row.items()) for row in rows]
    else:
        rhs = [draw(COEFFS) for _ in rows]
    return list(zip(rows, rhs)), n, consistent


@given(sparse_systems())
def test_solver_matches_the_fraction_oracle(system):
    rows, n, consistent = system
    sol, rank, bad = assert_solves_like_the_oracle(rows, n)
    if consistent:
        assert bad is None and satisfies(rows, sol)
    if bad is not None:
        # the rows before the first inconsistent one are consistent, and
        # the rank at it is theirs
        assert fraction_gauss_jordan(rows[:bad])[1:] == (rank, None)


def dead_unknowns(rows):
    """The unknowns of the components whose rows all have rhs 0, two
    unknowns being in one component when a chain of rows names both."""
    groups = []  # [unknowns, whether a row of them has rhs != 0]
    for coeffs, rhs in rows:
        merged = [set(coeffs), bool(rhs)]
        for group in [g for g in groups if not g[0].isdisjoint(coeffs)]:
            groups.remove(group)
            merged[0] |= group[0]
            merged[1] |= group[1]
        groups.append(merged)
    return set().union(*(unknowns for unknowns, live in groups if not live))


@st.composite
def systems_with_a_homogeneous_block(draw):
    """``(rows, nunknowns)``: a ``sparse_systems`` draw with rows of rhs 0
    over further unknowns shuffled in."""
    rows, n, _ = draw(sparse_systems())
    m = draw(st.integers(1, 6))
    block = draw(st.lists(st.dictionaries(st.integers(n, n + m - 1), COEFFS,
                                          min_size=1, max_size=3), max_size=6))
    return draw(st.permutations(rows + [(coeffs, 0) for coeffs in block])), n + m


@given(systems_with_a_homogeneous_block())
def test_solution_names_no_unknown_of_a_homogeneous_component(system):
    rows, n = system
    sol, _, _ = assert_solves_like_the_oracle(rows, n)
    if sol is not None:
        assert dead_unknowns(rows).isdisjoint(sol)


def test_solver_reduces_a_waiting_component_when_a_row_joins_it_to_a_live_one():
    # {0, 1} waits with two rows, {2} goes live at row 2, row 3 joins them;
    # {3, 4} waits to the end and is left out
    rows = [({0: 1, 1: -1}, 0), ({0: 2, 1: -2}, 0), ({3: 1, 4: 1}, 0),
            ({2: 1}, 3), ({1: 1, 2: 1}, 5)]
    assert assert_solves_like_the_oracle(rows, 5) == ({0: 2, 1: 2, 2: 3}, 3, None)
    assert fraction_gauss_jordan(rows)[1] == 4


def test_solver_rank_at_an_inconsistent_row_counts_the_waiting_rows():
    # {0, 1} and {2, 3} still wait when row 4 fails
    rows = [({0: 1, 1: 1}, 0), ({2: 1, 3: -1}, 0), ({2: 3, 3: -3}, 0),
            ({4: 1}, 1), ({4: 2}, 3), ({0: 1}, 1)]
    assert assert_solves_like_the_oracle(rows, 5) == (None, 3, 4)


def test_solver_single_inhomogeneous_component():
    # rows 0 and 1 wait until row 2, with rhs != 0, makes their component live
    rows = [({0: 1, 1: 1}, 0), ({1: 1, 2: 1}, 0), ({0: 1, 2: 1}, 2)]
    assert assert_solves_like_the_oracle(rows, 3) == ({0: 1, 1: -1, 2: 1}, 3, None)


def test_solver_dense_system_with_large_coefficients():
    """40 dense rows over 40 unknowns with 12-digit coefficients and a
    rational solution, three of the rows dependent: the integer rows grow
    and are divided back by their gcd on every step."""
    rng = random.Random(40)
    n = 40

    def big():
        return rng.randint(-10 ** 12, 10 ** 12)

    rows = [{u: big() for u in range(n)} for _ in range(n - 3)]
    for _ in range(3):
        a, b = rng.sample(rows, 2)
        rows.append({u: 3 * a[u] - 5 * b[u] for u in range(n)})
    rng.shuffle(rows)
    s = {u: Fraction(big(), rng.randint(1, 10 ** 6)) for u in range(n)}
    system = [(row, sum(c * s[u] for u, c in row.items())) for row in rows]
    sol, rank, bad = assert_solves_like_the_oracle(system, n)
    assert (rank, bad) == (n - 3, None) and satisfies(system, sol)
    broken = system[:5] + [(rows[2], system[2][1] + Fraction(1, 3))] + system[5:]
    assert assert_solves_like_the_oracle(broken, n) == (None, 5, 5)


# ---------------------------------------------------------------------------
# the unknowns: their order and their budget


def filtered_monomials(nvars, degree):
    """Every vector with entries <= degree, filtered to total degree <=
    degree and sorted: the definition that ``_monomials_up_to`` replaced."""
    vecs = [()]
    for _ in range(nvars):
        vecs = [m + (e,) for m in vecs for e in range(degree + 1)]
    return sorted((m for m in vecs if sum(m) <= degree), key=lambda m: (sum(m), m))


def test_monomials_up_to_matches_the_filtered_enumeration():
    for nvars in range(5):
        for degree in range(5):
            assert _monomials_up_to(nvars, degree) == filtered_monomials(nvars, degree)
    assert len(_monomials_up_to(8, 4)) == comb(12, 4) == 495


def test_find_witness_refuses_more_unknowns_than_the_budget():
    # M is 2x2 in one variable: 2*2*2*C(1 + d, d) = 8(d + 1) unknowns
    degree = MAX_UNKNOWNS // 8
    want = f"has {8 * (degree + 1)} unknowns, above the limit of {MAX_UNKNOWNS}"
    with pytest.raises(ValueError, match=want):
        find_witness(M, M, identity_morphism(M), zero_morphism(M), degree)


def test_cli_homotopy_refuses_a_huge_degree_naming_the_count(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(serialize_factorization(M))
    assert run(["homotopy", str(path), "--phi", "id", "--psi", "zero",
                "--max-degree", str(10 ** 9)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: a witness search with entry degree <= {10 ** 9} has "
        f"{8 * (10 ** 9 + 1)} unknowns, above the limit of {MAX_UNKNOWNS}\n")


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


# ---------------------------------------------------------------------------
# the assembly against the tuple-keyed loop it replaced


def tuple_keyed_assembly(x, y, phi, psi, vars_m, monos):
    """``(rows, where)`` with unknown ``(b, i, j, k)`` as a tuple and every
    known entry expanded where it is used, summing into each row: the
    reference for ``_assemble``."""
    def known(poly):
        return poly.dense_terms(vars_m)

    def accumulate(eq, kpoly, b, ur, uc):
        for km, kc in known(kpoly).items():
            for k, mo in enumerate(monos):
                res = tuple(a + c for a, c in zip(km, mo))
                terms = eq.setdefault(res, {})
                terms[(b, ur, uc, k)] = terms.get((b, ur, uc, k), 0) + kc

    rows, where = [], []

    def emit(eq, rhs_poly, part, i, j):
        rhs = known(rhs_poly)
        for res in sorted(set(eq) | set(rhs)):
            rows.append((eq.get(res, {}), rhs.get(res, 0)))
            where.append((part, i, j, res))

    d_alpha = mx.sub(psi.alpha, phi.alpha)
    d_beta = mx.sub(psi.beta, phi.beta)
    for i in range(y.size):
        for j in range(x.size):
            eq = {}
            for k in range(y.size):
                accumulate(eq, y.q[i][k], 0, k, j)
            for k in range(x.size):
                accumulate(eq, x.p[k][j], 1, i, k)
            emit(eq, d_alpha[i][j], "even", i, j)
            eq = {}
            for k in range(y.size):
                accumulate(eq, y.p[i][k], 1, k, j)
            for k in range(x.size):
                accumulate(eq, x.q[k][j], 0, i, k)
            emit(eq, d_beta[i][j], "odd", i, j)
    return rows, where


def unknown_index(ny, nxs, nm):
    return lambda b, i, j, k: ((b * ny + i) * nxs + j) * nm + k


def test_unknown_index_orders_as_the_tuples():
    ny, nxs, nm = 3, 2, 4
    tuples = sorted((b, i, j, k) for b in range(2) for i in range(ny)
                    for j in range(nxs) for k in range(nm))
    index = unknown_index(ny, nxs, nm)
    assert [index(*u) for u in tuples] == list(range(2 * ny * nxs * nm))


def search_inputs(rng, shapes, degree, homotopic):
    """``(x, y, phi, psi, degree)``: small X and Y over x and y with one
    potential, of the drawn ``shapes`` (size 1 or 2 each), and blocks phi and
    psi of the right shape with some non-integral coefficients (the rows
    encode the equations whether or not they are morphisms).  If
    ``homotopic``, psi is phi + (d_Y*mu + mu*d_X) for a drawn mu with
    entries of degree <= ``degree``, then moved at one drawn entry of alpha
    or beta by a drawn polynomial, which may be zero: the equations before
    that entry are consistent, so a search fails there or not at all."""
    u = rand_poly(rng, (X, Y), nonzero=True)
    v = rand_poly(rng, (X, Y), nonzero=True)
    zero = Polynomial.zero()
    forms = {"rank1": ([[u]], [[v]]), "swapped": ([[v]], [[u]]),
             "antidiag": ([[zero, u], [v, zero]], [[zero, u], [v, zero]])}
    x, y = (make_factorization(*forms[shape], u * v, extra_vars=(X, Y))
            for shape in shapes)

    def block(max_deg=3):
        return mx.from_rows([[rand_poly(rng, (X, Y), max_deg=max_deg)
                              * Fraction(1, rng.randint(1, 3))
                              for _ in range(x.size)] for _ in range(y.size)])

    phi = Morphism(alpha=block(), beta=block(), source=x, target=y)
    if homotopic:
        mu0, mu1 = block(degree), block(degree)
        alpha = mx.add(phi.alpha, mx.add(mx.mul(y.q, mu0), mx.mul(mu1, x.p)))
        beta = mx.add(phi.beta, mx.add(mx.mul(y.p, mu1), mx.mul(mu0, x.q)))
        blocks = [[list(row) for row in alpha], [list(row) for row in beta]]
        moved = rng.choice(blocks)
        i, j = rng.randrange(y.size), rng.randrange(x.size)
        moved[i][j] = moved[i][j] + rand_poly(rng, (X, Y))
        alpha, beta = (mx.from_rows(b) for b in blocks)
    else:
        alpha, beta = block(), block()
    psi = Morphism(alpha=alpha, beta=beta, source=x, target=y)
    return x, y, phi, psi, degree


SHAPES = st.sampled_from(["antidiag", "rank1", "swapped"])


@st.composite
def assembly_inputs(draw):
    """``search_inputs`` with every choice drawn."""
    return search_inputs(draw(st.randoms(use_true_random=False)),
                         (draw(SHAPES), draw(SHAPES)), draw(st.integers(0, 2)),
                         draw(st.booleans()))


@given(assembly_inputs())
def test_assembly_matches_the_tuple_keyed_loop(inputs):
    x, y, phi, psi, degree = inputs
    vars_m = tuple(sorted((X, Y)))
    monos = _monomials_up_to(2, degree)
    rows = _Rows(x, y, phi, psi, vars_m, monos)
    got = list(rows)
    # sized and re-iterable, each iteration building equal rows
    assert len(rows) == len(got)
    assert list(rows) == got
    want_rows, want_where = tuple_keyed_assembly(x, y, phi, psi, vars_m, monos)
    assert [rows.where(n) for n in range(len(rows))] == want_where
    with pytest.raises(IndexError):
        rows.where(len(rows))
    index = unknown_index(y.size, x.size, len(monos))
    assert len(got) == len(want_rows)
    for (coeffs, rhs), (want_coeffs, want_rhs) in zip(got, want_rows):
        assert rhs == want_rhs
        # the same row, and its unknowns in the same order
        assert coeffs == {index(*u): c for u, c in want_coeffs.items()}
        assert sorted(coeffs) == [index(*u) for u in sorted(want_coeffs)]


def assert_search_matches_the_oracle(x, y, phi, psi, degree):
    """Run ``find_witness`` and the Fraction Gauss-Jordan on the tuple-keyed
    rows: a witness is found iff the oracle solves the system, and is the
    oracle's solution; else the message names the oracle's first
    inconsistent row.  Returns that row's ``(part, i, j)``, or None."""
    vars_m = tuple(sorted((X, Y)))
    monos = _monomials_up_to(2, degree)
    rows, where = tuple_keyed_assembly(x, y, phi, psi, vars_m, monos)
    sol, rank, bad = fraction_gauss_jordan(rows)
    nunknowns = 2 * y.size * x.size * len(monos)
    try:
        w = find_witness(x, y, phi, psi, degree)
    except NotFoundWithinDegree as e:
        assert sol is None
        part, i, j, res = where[bad]
        mono = poly_to_str(Polynomial.from_dense(vars_m, {res: 1}))
        assert str(e) == _not_found(degree, nunknowns, len(rows), rank,
                                    f"{part} entry [{i}][{j}], monomial {mono}")
        return part, i, j
    assert sol is not None
    for b, got in enumerate((w.lambda0, w.lambda1)):
        assert got == tuple(tuple(
            Polynomial.from_dense(vars_m, {mo: sol.get((b, i, j, k), 0)
                                           for k, mo in enumerate(monos)})
            for j in range(x.size)) for i in range(y.size))
    return None


@given(assembly_inputs())
def test_search_outcome_matches_the_fraction_oracle(inputs):
    assert_search_matches_the_oracle(*inputs)


def test_moved_searches_fail_past_the_first_entry_and_in_both_parts():
    """The homotopic draws of the oracle test reach failures after even
    entry [0][0], in both parts."""
    places = set()
    for seed in range(30):
        rng = random.Random(seed)
        places.add(assert_search_matches_the_oracle(
            *search_inputs(rng, ("antidiag", "antidiag"), rng.randint(0, 2), True)))
    places.discard(None)
    assert {part for part, _, _ in places} == {"even", "odd"}
    assert places - {("even", 0, 0)}


# ---------------------------------------------------------------------------
# pinned outcomes: witness bytes and the not-found text, by family and degree


def search_families():
    """Name -> (X, phi, psi): a Jacobian null-homotopy with rational
    witnesses, the identity on a product of (x, x^2) and (y, y^2), and
    psi.rho against the identity on the collapsed product of
    (z - x, z^2 + zx + x^2) with f = x^3."""
    a = make_factorization([[2 * PX + 1]], [[PX ** 2 - Fraction(1, 3)]],
                           (2 * PX + 1) * (PX ** 2 - Fraction(1, 3)))
    b = make_factorization([[PY + 3]], [[PY ** 2 + PY]], (PY + 3) * (PY ** 2 + PY))
    jac = yoshino(a, b, Variant.V2)
    cubes = yoshino(make_factorization([[PX]], [[PX ** 2]], PX ** 3),
                    make_factorization([[PY]], [[PY ** 2]], PY ** 3), Variant.V1)
    zx = make_factorization([[PZ - PX]], [[PZ ** 2 + PZ * PX + PX ** 2]],
                            PZ ** 3 - PX ** 3)
    bundle = unitor_right(zx, PX ** 3, (X,))
    return {
        "jacobian": (jac, zero_morphism(jac),
                     scalar_morphism(derivative(jac.potential, X), jac)),
        "identity": (cubes, identity_morphism(cubes), zero_morphism(cubes)),
        "psi_rho": (bundle.z, compose_morphisms(bundle.psi, bundle.rho),
                    identity_morphism(bundle.z)),
    }


def _not_found(degree, unknowns, equations, rank=0,
               place="even entry [0][0], monomial 1"):
    return (f"no homotopy witness with entry degree <= {degree} (no claim about "
            f"higher degrees): {unknowns} unknowns, {equations} equations, rank "
            f"{rank} at the first inconsistent equation, {place}")


JAC_HIGH = ("0, 1/3*x*y - 2/3*x + 2/9*y - 4/9; 1/3*x + 2/9, 6 | "
            "6, -1/3*x*y + 2/3*x - 2/9*y + 4/9; -1/3*x - 2/9, 0")
PINNED = {
    ("jacobian", 1): "1, 1/18*y - 1/9; 1/18, 6 | 6, -1/18*y + 1/9; -1/18, 1",
    ("jacobian", 2): JAC_HIGH,
    ("jacobian", 3): JAC_HIGH,
    ("identity", 1): _not_found(1, 24, 63),
    ("identity", 2): _not_found(2, 48, 102),
    ("identity", 3): _not_found(3, 80, 149),
    ("psi_rho", 1): _not_found(1, 24, 67),
    ("psi_rho", 2): _not_found(2, 48, 106),
    ("psi_rho", 3): _not_found(3, 80, 153),
}


@pytest.mark.parametrize("family, degree", sorted(PINNED))
def test_pinned_search_outcome(family, degree):
    x, phi, psi = search_families()[family]
    try:
        w = find_witness(x, x, phi, psi, degree)
    except NotFoundWithinDegree as e:
        got = str(e)
    else:
        got = " | ".join("; ".join(", ".join(str(e) for e in row) for row in m)
                         for m in (w.lambda0, w.lambda1))
    assert got == PINNED[family, degree]


# ---------------------------------------------------------------------------
# the witnesses of the Jacobian searches against the Fraction oracle on all
# rows: the solver leaves out the components with no rhs != 0, and the
# printed witness must not change


def cube_product(size, shifted):
    """The product of (v, v^2), or of (v + 1, v^2 - v + 1) if ``shifted``,
    over enough of x, y, z, w to reach ``size``."""
    x = None
    for v in (X, Y, Z, Variable("w"))[:size.bit_length()]:
        pv = Polynomial.var(v)
        u, w = (pv + 1, pv ** 2 - pv + 1) if shifted else (pv, pv ** 2)
        factor = make_factorization([[u]], [[w]], u * w)
        x = factor if x is None else yoshino(x, factor, Variant.STANDARD)
    assert x.size == size
    return x


@pytest.mark.parametrize("shifted, size, degree", [
    *((False, size, degree) for size in (2, 4, 8) for degree in (1, 2, 3)),
    *((True, size, degree) for size in (2, 4) for degree in (1, 2, 3)),
    (True, 8, 1)])
def test_jacobian_witness_matches_the_oracle_on_all_rows(shifted, size, degree):
    x = cube_product(size, shifted)
    phi = scalar_morphism(derivative(x.potential, X), x)
    zero = zero_morphism(x)
    vars_m = tuple(sorted(x.vars))
    monos = _monomials_up_to(len(vars_m), degree)
    rows = _Rows(x, x, phi, zero, vars_m, monos)
    sol, _, bad = fraction_gauss_jordan(list(rows))
    assert bad is None

    def entry(base):
        return Polynomial.from_dense(vars_m, {
            mo: c for k, mo in enumerate(monos) if (c := sol.get(base + k))})

    w = find_witness(x, x, phi, zero, degree)
    assert [[poly_to_str(e) for e in row] for row in w.lambda0 + w.lambda1] == [
        [poly_to_str(entry(rows.first(b, i, j))) for j in range(size)]
        for b in (0, 1) for i in range(size)]
