"""The zero-skipping matrix kernels against naive entry-by-entry references.

The references multiply term by term (``conftest.ref_sum_of_products``), not
through ``Polynomial.__mul__``, which shares ``mul``'s kernel.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfkit import matrices as mx
from mfkit import poly
from mfkit.matfac import make_factorization
from mfkit.poly import Polynomial, Variable, sum_of_products
from mfkit.tensor import yoshino
from mfkit.unit import koszul_unit

from conftest import X, Y, Z, kernel_path, rand_poly, ref_sum_of_products

SHAPES = [(1, 1), (1, 5), (5, 1), (3, 4), (4, 3), (6, 6)]
DENSITIES = [0.0, 0.1, 0.3, 0.6, 1.0]


def rand_entry(rng, rational):
    e = rand_poly(rng, (X, Y, Z), nonzero=True)
    return e * Fraction(rng.randint(1, 5), rng.randint(1, 7)) if rational else e


def rand_matrix(rng, rows, cols, density, rational=False):
    return mx.from_rows(
        [[rand_entry(rng, rational) if rng.random() < density else 0
          for _ in range(cols)] for _ in range(rows)])


def naive_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [[Polynomial(ref_sum_of_products([(a[i][k], b[k][j]) for k in range(inner)]))
             for j in range(cols)] for i in range(rows)]


def naive_kron(a, b):
    return [[Polynomial(ref_sum_of_products([(a[i][j], b[r][s])]))
             for j in range(len(a[0])) for s in range(len(b[0]))]
            for i in range(len(a)) for r in range(len(b))]


def assert_exact_form(m):
    """No stored coefficient is zero or a float, so equal entries are
    structurally identical, and ``den`` is the lcm of the denominators."""
    for row in m:
        for e in row:
            for c in e.terms.values():
                assert c and type(c) in (int, Fraction), (e, c)
            assert e.den == lcm(*(c.denominator for c in e.terms.values())), e


CASES = pytest.mark.parametrize("rows, cols, density, rational", [
    (rows, cols, density, rational)
    for rows, cols in SHAPES for density in DENSITIES for rational in (False, True)
])


def case_rng(*case):
    return random.Random(repr(case))


def assert_same(got, want):
    assert mx.shape(got) == (len(want), len(want[0]) if want else 0)
    for got_row, want_row in zip(got, want):
        assert isinstance(got_row, tuple)
        assert list(got_row) == list(want_row)


@CASES
def test_mul_matches_triple_loop(rows, cols, density, rational):
    rng = case_rng(rows, cols, density, rational)
    # inner 1 makes outer products (k x 1 times 1 x k), inner 5 with a
    # 1 x 1 shape an inner product (1 x 5 times 5 x 1).
    for inner in (1, 5):
        a = rand_matrix(rng, rows, inner, density, rational)
        b = rand_matrix(rng, inner, cols, rng.choice(DENSITIES), rational)
        got = mx.mul(a, b)
        assert_same(got, naive_mul(a, b))
        assert_exact_form(got)


@CASES
def test_entrywise_kernels_match_references(rows, cols, density, rational):
    rng = case_rng(rows, cols, density, rational)
    a = rand_matrix(rng, rows, cols, density, rational)
    b = rand_matrix(rng, rows, cols, rng.choice(DENSITIES), rational)
    assert_same(mx.add(a, b), [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
    assert_same(mx.sub(a, b), [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
    assert_same(mx.neg(a), [[-x for x in row] for row in a])
    assert_same(mx.add(a, mx.neg(a)), [[0] * cols for _ in range(rows)])
    for k in (0, -1, Fraction(-3, 7)):
        got = mx.scale(a, k)
        assert_same(got, [[x * k for x in row] for row in a])
        assert_exact_form(got)
    c = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), rng.choice(DENSITIES),
                    rational)
    assert_same(mx.kron(a, c), naive_kron(a, c))
    assert_same(mx.kron(c, a), naive_kron(c, a))


def test_zero_rows_and_columns():
    a = mx.from_rows([[0, 0, 0], [1, Polynomial.var(X), 0], [0, 0, 0]])
    b = mx.from_rows([[Polynomial.var(Y), 0], [0, 0], [2, 0]])
    assert_same(mx.mul(a, b), naive_mul(a, b))
    assert mx.first_nonzero(mx.mul(a, mx.zeros(3, 4))) is None
    assert mx.first_nonzero(mx.mul(mx.zeros(2, 3), a)) is None
    assert mx.first_nonzero(mx.kron(mx.zeros(2, 2), a)) is None
    assert mx.add(mx.zeros(3, 3), a) == a
    assert mx.first_nonzero(mx.neg(mx.zeros(2, 5))) is None


def test_mul_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        mx.mul(mx.zeros(2, 3), mx.zeros(2, 3))
    with pytest.raises(ValueError):
        mx.mul(mx.identity(1), mx.zeros(2, 1))


def test_cancelling_rational_products_leave_exact_zeros():
    # Row [p, q] against column [q*c, -p*c] sums to p*q*c - q*p*c = 0; the
    # off-diagonal entries keep their terms, some of which cancel too.
    rng = random.Random(5)
    for _ in range(20):
        p, q, r, s = (rand_entry(rng, True) for _ in range(4))
        c = Fraction(rng.randint(1, 9), rng.randint(2, 9))
        d = Fraction(-rng.randint(1, 9), rng.randint(2, 9))
        a = mx.from_rows([[p, q], [r, s]])
        b = mx.from_rows([[q * c, s * d], [-p * c, -r * d]])
        got = mx.mul(a, b)
        for i in range(2):
            assert not got[i][i]
            assert got[i][i].terms == {}
        assert_same(got, naive_mul(a, b))
        assert_exact_form(got)
    half = Polynomial.var(X) * Fraction(1, 2)
    assert not mx.mul(mx.from_rows([[half, half]]),
                      mx.from_rows([[1], [-1]]))[0][0].terms


PRIMED = (X, X.primed(), Y, Y.primed())


@st.composite
def rational_polys(draw):
    """A polynomial built straight from its term map, over x, x', y, y'."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        mono = tuple((v, e) for v in PRIMED
                     if (e := draw(st.integers(min_value=0, max_value=2))))
        terms[mono] = Fraction(draw(st.integers(min_value=-4, max_value=4)),
                               draw(st.integers(min_value=1, max_value=3)))
    return Polynomial(terms)


@given(st.lists(st.tuples(rational_polys(), rational_polys()), max_size=4))
def test_sum_of_products_matches_term_by_term_reference(pairs):
    [got] = sum_of_products([pairs])
    assert got.terms == ref_sum_of_products(pairs)
    assert_exact_form([[got]])


def rational_matrices(rows, cols):
    return st.lists(st.lists(st.one_of(st.just(Polynomial.zero()), rational_polys()),
                             min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(mx.from_rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=2, max_value=3),
       st.integers(min_value=1, max_value=3), st.data())
def test_mul_matches_the_fraction_reference(rows, inner, cols, data):
    """matrices.mul against the entry-by-entry Fraction reference.  b's last
    column is (a01, -a00, 0, ...), so a's first row meets it in
    a00*a01 - a01*a00, which cancels to 0."""
    a = data.draw(rational_matrices(rows, inner))
    b = data.draw(rational_matrices(inner, cols))
    cancel = [a[0][1], -a[0][0]] + [Polynomial.zero()] * (inner - 2)
    b = mx.from_rows([row + (c,) for row, c in zip(b, cancel)])
    got = mx.mul(a, b)
    assert_same(got, naive_mul(a, b))
    assert_exact_form(got)
    assert got[0][cols].terms == {}


# ---------------------------------------------------------------------------
# from_rows and scale


def test_from_rows_returns_a_polynomial_matrix_as_it_is():
    px, py, zero = Polynomial.var(X), Polynomial.var(Y), Polynomial.zero()
    m = ((px, zero), (Polynomial.const(2), py))
    assert mx.from_rows(m) is m
    with pytest.raises(ValueError, match="ragged"):
        mx.from_rows(((px,), (px, py)))
    # lists, ints and Fractions are still coerced, also inside tuples
    coerced = mx.from_rows([[1, Fraction(1, 2)], (px, 0)])
    assert coerced == ((Polynomial.const(1), Polynomial.const(Fraction(1, 2))),
                       (px, zero))
    mixed = mx.from_rows(((px, 3),))
    assert mixed == ((px, Polynomial.const(3)),)
    for mat in (coerced, mixed):
        assert all(type(row) is tuple for row in mat)
        assert all(type(e) is Polynomial for row in mat for e in row)


def test_scale_stores_integral_coefficients_as_ints():
    px, py = Polynomial.var(X), Polynomial.var(Y)
    a = mx.from_rows([[2 * px + 1, 0], [Fraction(3, 2) * py, 4]])
    got = mx.scale(a, Fraction(2, 3))
    assert got == mx.from_rows([[Fraction(4, 3) * px + Fraction(2, 3), 0],
                                [py, Fraction(8, 3)]])
    assert got[1][0].terms == {((Y, 1),): 1}
    assert type(got[1][0].terms[((Y, 1),)]) is int
    assert {type(c) for c in mx.scale(a, Fraction(2))[0][0].terms.values()} == {int}


# ---------------------------------------------------------------------------
# whole products on both kernel paths


def koszul_blocks(n):
    """P and Q of the Koszul unit of a rational cubic sum in n variables."""
    xs = tuple(Variable(f"x{i}") for i in range(1, n + 1))
    f = sum((Polynomial.var(v) ** 3 * Fraction(i + 1, i + 2)
             for i, v in enumerate(xs)), Polynomial.zero())
    u = koszul_unit(f, xs)
    return u.mf.p, u.mf.q


def monomial_chain():
    """P and Q of (x, x^2) (x) (y, y^3) (x) (z^2, z), with x, y, z renamed per
    factor: the integer monomial entries of a tensor chain."""
    def pair(name, a, b):
        v = Polynomial.var(Variable(name))
        return make_factorization([[v ** a]], [[v ** b]], v ** (a + b))
    z = yoshino(yoshino(pair("x", 1, 2), pair("y", 1, 3)), pair("z", 2, 1))
    return z.p, z.q


PRODUCTS = {f"koszul_n{n}": (lambda n=n: koszul_blocks(n)) for n in (3, 4, 5)}
PRODUCTS["monomial_chain"] = monomial_chain


@pytest.mark.parametrize("path", ["tuple", "packed"])
@pytest.mark.parametrize("name", PRODUCTS)
def test_mul_on_both_paths_matches_the_naive_product(name, path):
    p, q = PRODUCTS[name]()
    for a, b in ((p, q), (q, p)):
        with kernel_path(path):
            got = mx.mul(a, b)
        assert [list(row) for row in got] == naive_mul(a, b)
        assert_exact_form(got)


def packed_calls(monkeypatch):
    """The batches ``poly._packed_products`` is called with from now on."""
    calls = []
    packed = poly._packed_products
    monkeypatch.setattr(poly, "_packed_products",
                        lambda batch: calls.append(batch) or packed(batch))
    return calls


@pytest.mark.parametrize("name, packs", [
    ("koszul_n3", True), ("koszul_n4", True), ("koszul_n5", True),
    ("monomial_chain", False)])
def test_mul_packs_the_koszul_products_and_not_the_monomial_ones(monkeypatch, name, packs):
    p, q = PRODUCTS[name]()
    calls = packed_calls(monkeypatch)
    mx.mul(p, q)
    assert len(calls) == (1 if packs else 0)


def test_one_pair_products_pack_only_when_both_factors_are_long(monkeypatch):
    """x*y packs when its term products outnumber PACK_RATIO (2.8) times
    the factors' terms: 11 * 11 > 2.8 * 22, but not 11 * 2 or 1 * 1."""
    s = Polynomial.var(X) + Polynomial.var(Y)
    long = s ** 10
    calls = packed_calls(monkeypatch)
    assert long * s == s ** 11 and Polynomial.var(X) * Polynomial.var(Y)
    assert calls == []
    assert long * long == s ** 20
    assert len(calls) == 1


@pytest.mark.parametrize("path", ["tuple", "packed"])
@pytest.mark.parametrize("name", ["koszul_n3", "monomial_chain"])
def test_kron_on_both_paths_matches_the_naive_product(name, path):
    p, q = PRODUCTS[name]()
    with kernel_path(path):
        got = mx.kron(p, q)
    assert [list(row) for row in got] == naive_kron(p, q)
    assert_exact_form(got)


# ---------------------------------------------------------------------------
# the zero test against the full product
#
# An equation is a list of (a, b, sign) terms and reads sum(sign * a*b) = w*I
# (or = 0 without w).  The oracle builds each residual with mul, add and neg
# and names its first nonzero entry.


def oracle_residual(terms, w=None):
    """sum(sign * a*b) over ``terms``, less w*I when ``w`` is given, by
    ``mul``, ``add`` and ``neg``."""
    out = None
    for a, b, sign in terms:
        prod = mx.mul(a, b)
        if sign == -1:
            prod = mx.neg(prod)
        out = prod if out is None else mx.add(out, prod)
    if w is not None:
        out = mx.add(out, mx.neg(mx.scalar_matrix(len(out), w)))
    return out


def oracle(equations, w=None):
    """The residuals of ``equations``, and ``(k, i, j)`` of the first
    nonzero entry of the first nonzero one, or None."""
    residuals = tuple(oracle_residual(terms, w) for terms in equations)
    for k, res in enumerate(residuals):
        for i, row in enumerate(res):
            for j, e in enumerate(row):
                if e:
                    return (k, i, j), residuals
    return None, residuals


def check_zero_test(*equations, w=None):
    """``first_difference`` and ``failure`` against the oracle, on all the
    equations at once and on each alone; returns ``(k, i, j)`` or None."""
    for terms in equations:
        assert mx.first_difference(terms, w=w) == oracle([terms], w)[0]
    want, residuals = oracle(equations, w)
    assert mx.first_difference(*equations, w=w) == want
    got = mx.failure(*equations, w=w)
    assert got == (None if want is None else (*want, residuals))
    return want


def check_first_difference(path, *equations, w=None):
    """``check_zero_test`` with the products built on ``path``."""
    with kernel_path(path):
        return check_zero_test(*equations, w=w)


def small_fractions(nonzero=False):
    values = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return values.filter(bool) if nonzero else values


def invertible_pair(data, n):
    """A row-permuted upper triangular n x n matrix U over Q and its
    inverse V, as lists of Fractions: U*V = V*U = I."""
    u = [[data.draw(small_fractions(nonzero=True)) if i == j
          else data.draw(small_fractions()) if j > i else Fraction(0)
          for j in range(n)] for i in range(n)]
    v = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        v[j][j] = 1 / u[j][j]
        for i in range(j - 1, -1, -1):
            v[i][j] = -sum(u[i][k] * v[k][j] for k in range(i + 1, j + 1)) / u[i][i]
    order = data.draw(st.permutations(range(n)))
    return [u[k] for k in order], [[row[k] for k in order] for row in v]


@pytest.mark.parametrize("path", ["tuple", "packed"])
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_first_difference_against_w_times_identity(path, n, data):
    """a = f*U and b = g*U^-1 factor w = f*g, and their off-diagonal pairs
    cancel; an added entry or a zeroed row of a (a diagonal entry with no
    pairs) breaks them.  f or g may be 0, and so w."""
    f, g = data.draw(rational_polys()), data.draw(rational_polys())
    u, v = invertible_pair(data, n)
    a = [[f * c for c in row] for row in u]
    b = mx.from_rows([[g * c for c in row] for row in v])
    if data.draw(st.booleans()):
        r, s = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        a[r][s] = a[r][s] + data.draw(rational_polys())
    if data.draw(st.booleans()):
        a[data.draw(st.integers(0, n - 1))] = [0] * n
    a = mx.from_rows(a)
    check_first_difference(path, [(a, b, 1)], [(b, a, 1)], w=f * g)


@pytest.mark.parametrize("path", ["tuple", "packed"])
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3), st.data())
def test_first_difference_against_another_product(path, rows, inner, cols, data):
    """c = [a | u] and d = [b ; v], their inner index permuted, so
    a*b - c*d = -u*v: the pairs of a*b cancel against those of c*d, and the
    entries differ exactly where u_i * v_j != 0.  Zero rows and columns
    come from the zero entries the matrices draw."""
    a = data.draw(rational_matrices(rows, inner))
    b = data.draw(rational_matrices(inner, cols))
    u = data.draw(rational_matrices(rows, 1))
    v = data.draw(rational_matrices(1, cols))
    order = data.draw(st.permutations(range(inner + 1)))
    c = mx.from_rows([[(row + col)[k] for k in order] for row, col in zip(a, u)])
    d = mx.from_rows([(b + v)[k] for k in order])
    want = check_first_difference(path, [(a, b, 1), (c, d, -1)])
    assert (want is None) == (mx.first_nonzero(mx.mul(u, v)) is None)
    check_first_difference(path, [(c, d, 1), (a, b, -1)])


@st.composite
def equations(draw):
    """``(equations, w)``: 1-2 equations of 1-4 signed terms over one output
    shape, with or without w.  One square matrix s is drawn once and may
    stand on either side of any term of any equation; a term may be w*I
    written as (w*I) * I; and the terms drawn may be followed by each again
    with the opposite sign (the same objects), so that they cancel."""
    n = draw(st.integers(min_value=1, max_value=3))
    w = draw(st.one_of(st.none(), rational_polys()))
    m = n if w is not None else draw(st.integers(min_value=1, max_value=3))
    s = draw(rational_matrices(n, n))
    kinds = ["s*b", "a*b"] + (["a*s", "s*s"] if m == n else []) + (
        ["w*I"] if w is not None else [])

    def term():
        kind = draw(st.sampled_from(kinds))
        if kind == "w*I":
            return (mx.scalar_matrix(n, w), mx.identity(n), 1), kind
        k = n if kind != "a*b" else draw(st.integers(min_value=1, max_value=3))
        a = s if kind in ("s*b", "s*s") else draw(rational_matrices(n, k))
        b = s if kind in ("a*s", "s*s") else draw(rational_matrices(k, m))
        return (a, b, draw(st.sampled_from((1, -1)))), kind

    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        drawn = [term() for _ in range(draw(st.integers(min_value=1, max_value=2)))]
        terms = [t for t, _ in drawn]
        if draw(st.booleans()):
            terms += [(a, b, -sign) for (a, b, sign), kind in drawn if kind != "w*I"]
        out.append(terms)
    return out, w


@settings(max_examples=150, deadline=None)
@given(equations())
def test_first_difference_and_failure_on_general_equations(drawn):
    """Shared matrix objects across terms and equations, signs, cancelling
    terms and w*I terms: the first failing entry and every residual are
    the oracle's."""
    eqs, w = drawn
    check_zero_test(*eqs, w=w)


def test_first_difference_names_a_diagonal_entry_without_pairs():
    px = Polynomial.var(X)
    a = mx.from_rows([[px, 0], [0, 0]])
    b = mx.from_rows([[px ** 2, 0], [0, px ** 2]])
    for path in ("tuple", "packed"):
        assert check_first_difference(path, [(a, b, 1)], w=px ** 3) == (0, 1, 1)
        assert check_first_difference(path, [(a, b, 1)], w=Polynomial.zero()) == (0, 0, 0)
        assert check_first_difference(path, [(mx.zeros(2, 2), b, 1)],
                                      w=Polynomial.zero()) is None


def test_first_difference_reads_each_row_in_column_order():
    # Row 0 of a*b gathers column 1 before column 0 (x meets b's row 0,
    # whose only entry is in column 1); the first difference is still [0][0].
    px, py = Polynomial.var(X), Polynomial.var(Y)
    a = mx.from_rows([[px, py], [0, 0]])
    b = mx.from_rows([[0, 1], [1, 0]])
    for path in ("tuple", "packed"):
        assert check_first_difference(path, [(a, b, 1)], w=Polynomial.zero()) == (0, 0, 0)
        assert check_first_difference(
            path, [(a, b, 1), (mx.from_rows([[py, 0], [0, 0]]), mx.identity(2), -1)]
        ) == (0, 0, 1)


def test_first_difference_rejects_shape_mismatch():
    zero = Polynomial.zero()
    bad = [
        # a 2x2 product against a 2x3 one
        ([[(mx.zeros(2, 3), mx.zeros(3, 2), 1), (mx.zeros(2, 2), mx.zeros(2, 3), -1)]], None),
        # a 2x3 product has no diagonal
        ([[(mx.zeros(2, 3), mx.zeros(3, 3), 1)]], zero),
        # 2 columns against 3 rows, in the second equation
        ([[(mx.zeros(2, 2), mx.zeros(2, 2), 1)], [(mx.zeros(2, 2), mx.zeros(3, 3), 1)]], zero),
        # an equation with no term
        ([[]], None),
    ]
    for eqs, w in bad:
        for check in (mx.first_difference, mx.failure):
            with pytest.raises(ValueError):
                check(*eqs, w=w)
    # Two factors of different sizes whose products both have a diagonal.
    a, b = mx.zeros(2, 3), mx.zeros(3, 2)
    assert check_zero_test([(a, b, 1)], [(b, a, 1)], w=zero) is None
    assert check_zero_test([(a, b, 1)], [(b, a, 1)], w=Polynomial.var(X)) == (0, 0, 0)


def test_a_disagreeing_zero_test_is_an_internal_error(monkeypatch):
    """``failure`` compares the entry the zero test names with the first
    nonzero entry of the residuals it builds."""
    p = mx.from_rows([[Polynomial.var(X)]])
    for named in ((0, 0, 0), (1, 0, 0)):
        monkeypatch.setattr(mx, "first_difference",
                            lambda *eqs, w=None, rows=None, atoms=None,
                            variables=None, named=named: named)
        with pytest.raises(RuntimeError) as err:
            mx.failure([(p, p, 1)], [(p, p, 1)], w=p[0][0] ** 2)
        assert str(err.value) == (f"the zero test named entry {named}, but the "
                                  "residuals' first nonzero entry is None")
    monkeypatch.setattr(mx, "first_difference",
                        lambda *eqs, w=None, rows=None, atoms=None,
                        variables=None: (1, 0, 0))
    with pytest.raises(RuntimeError, match=r"first nonzero entry is \(0, 0, 0\)"):
        mx.failure([(p, p, 1)], [(p, p, 1)], w=Polynomial.zero())


# ---------------------------------------------------------------------------
# the one packed zero test: shared objects, wide potentials, denominators


def both_ways(a, b):
    """The two equations of a factorization: a*b = w*I and b*a = w*I."""
    return [(a, b, 1)], [(b, a, 1)]


def against(a, b, c, d):
    """The equation a*b = c*d."""
    return [(a, b, 1), (c, d, -1)]


def permuted_pair(a, b, order):
    """c and d with c*d = a*b: a's columns and b's rows in ``order``; every
    entry is a's or b's own object."""
    return (mx.from_rows([[row[k] for k in order] for row in a]),
            mx.from_rows([b[k] for k in order]))


def test_zero_test_with_one_object_at_many_places_of_both_sides():
    """One rational object s sits at many places of a and of b, beside
    entries over 3 in a and over 5 in b, so each row's common denominator
    mixes both sides'."""
    px, py = Polynomial.var(X), Polynomial.var(Y)
    s = px * Fraction(1, 2) + py
    u = (px - 1) * Fraction(1, 3)
    v = py * Fraction(2, 5) + Fraction(1, 5)
    a = mx.from_rows([[s, u, s, 0], [s, s, 0, u], [0, s, s, s], [u, 0, s, s]])
    b = mx.from_rows([[s, v, 0, s], [v, s, s, 0], [s, 0, s, v], [s, s, v, s]])
    c, d = permuted_pair(a, b, [2, 0, 3, 1])
    assert check_zero_test(against(a, b, c, d)) is None
    assert check_zero_test(*both_ways(a, b), w=s * s) is not None
    for i, j in [(0, 0), (0, 2), (2, 3), (3, 1)]:
        e = [list(row) for row in d]
        e[i][j] = e[i][j] + Fraction(1, 7)
        assert check_zero_test(against(a, b, c, mx.from_rows(e))) is not None


def test_zero_test_with_a_potential_wider_than_every_entry_product():
    """x*x has x at degree 2, and y does not occur in it: a potential's
    x^9 and y must still get bit fields of their own."""
    px, py = Polynomial.var(X), Polynomial.var(Y)
    p = mx.from_rows([[px]])
    assert check_zero_test(*both_ways(p, p), w=px ** 9 + py) == (0, 0, 0)
    for w in (py, px ** 2 + py, px ** 2 + px ** 8, px ** 3, py ** 5 * px ** 2):
        assert check_zero_test(*both_ways(p, p), w=w) == (0, 0, 0)
    assert check_zero_test(*both_ways(p, p), w=px ** 2) is None
    two = mx.from_rows([[px, 0], [0, px ** 2]])
    assert check_zero_test(*both_ways(two, two), w=px ** 9 + py) == (0, 0, 0)
    assert check_zero_test(*both_ways(two, mx.from_rows([[px, 0], [0, 1]])),
                           w=px ** 2) is None
    # x^3 * x^3 needs a field for x^6: in one for x^3 alone, it would carry
    # into the column bits and read as x^2 in column 1, which c*d holds.
    cube = mx.from_rows([[px ** 3]])
    assert check_zero_test(against(cube, mx.from_rows([[px ** 3, 0]]),
                                   mx.from_rows([[px]]), mx.from_rows([[0, px]]))
                           ) == (0, 0, 0)


def test_zero_test_of_a_square_whose_variables_occur_only_in_c_and_d():
    py = Polynomial.var(Y)
    a = mx.from_rows([[1, 2]])
    b = mx.from_rows([[3], [4]])
    assert check_zero_test(against(a, b, mx.from_rows([[py, 1]]),
                                   mx.from_rows([[py], [11 - py ** 2]]))) is None
    assert check_zero_test(against(a, b, mx.from_rows([[py]]),
                                   mx.from_rows([[py]]))) == (0, 0, 0)
    assert check_zero_test(against(mx.zeros(1, 2), b, mx.from_rows([[py, -py]]),
                                   mx.from_rows([[py], [py]]))) is None
    a, b = mx.identity(2), mx.from_rows([[1, 0], [0, 2]])
    c = mx.from_rows([[py, 1], [0, 1]])
    assert check_zero_test(against(a, b, c, mx.from_rows([[0, 0], [1, 2]]))) == (0, 0, 1)
    assert check_zero_test(against(a, b, c, mx.from_rows([[py ** 9, 0], [1, 2]]))
                           ) == (0, 0, 0)


def first_primes(n):
    primes = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def test_zero_test_of_a_12x12_matrix_with_distinct_prime_denominators():
    """Each of the 144 entries of a has its own prime denominator, so no
    two rows share a common denominator."""
    px, py = Polynomial.var(X), Polynomial.var(Y)
    primes = iter(first_primes(144))
    a = mx.from_rows([[(px + j - i) * Fraction(1, next(primes)) for j in range(12)]
                      for i in range(12)])
    b = mx.from_rows([[py ** (k % 3) * (k - j) if (k + j) % 3 else 0 for j in range(12)]
                      for k in range(12)])
    c, d = permuted_pair(a, b, [(5 * k) % 12 for k in range(12)])
    assert check_zero_test(against(a, b, c, d)) is None
    for i, j in [(0, 0), (6, 11), (11, 11)]:
        e = [list(row) for row in d]
        e[i][j] = e[i][j] + Fraction(1, 2)
        assert check_zero_test(against(a, b, c, mx.from_rows(e))) is not None
    assert check_zero_test(*both_ways(a, b), w=px) is not None
    assert check_zero_test(*both_ways(a, mx.zeros(12, 12)), w=Polynomial.zero()) is None


def test_zero_tests_do_not_read_the_pack_ratio(monkeypatch):
    """``PACK_RATIO`` chooses how products are built; a zero test packs
    whatever it says, so one that cannot be compared is never compared."""
    px = Polynomial.var(X)
    w = px ** 3
    p = mx.from_rows([[0, px], [px ** 2, 0]])
    monkeypatch.setattr(poly, "PACK_RATIO", object())
    assert mx.first_difference([(p, p, 1)], w=w) is None
    assert mx.first_difference([(p, p, 1)], w=px) == (0, 0, 0)
    assert mx.first_difference(against(p, p, p, p)) is None
    assert mx.first_difference(*both_ways(p, p), w=w) is None
    assert mx.failure(*both_ways(p, p), w=w) is None
    assert make_factorization(p, p, w).size == 2
