import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfkit import matfac, poly, unit
from mfkit import matrices as mx
from mfkit.exterior import even_words, odd_words
from mfkit.homotopy import HomotopyWitness, WitnessReport, check_witness, find_witness
from mfkit.matfac import (
    MatrixFactorization,
    Morphism,
    MorphismReport,
    NotAFactorization,
    NotAMorphism,
    PotentialMismatch,
    ShapeMismatch,
    compose_morphisms,
    direct_sum,
    identity_morphism,
    make_factorization,
    make_morphism,
    parse_factorization,
    scalar_morphism,
    serialize_factorization,
    validate_morphism,
    zero_morphism,
)
from mfkit.poly import Polynomial, Variable, poly_to_str
from mfkit.tensor import Variant, _tensor_blocks, _write_layout, tensor_morphisms, yoshino
from mfkit.unit import NaturalityReport, koszul_unit, naturality_check, unitor_right

from conftest import (PX, PY, PZ, X, Y, Z, rand_factorization, rand_poly,
                      record_factorizations, walked_vars)

M_BLOCKS = [[0, PX], [PX ** 2, 0]]


@pytest.fixture
def m_cubed():
    return make_factorization(M_BLOCKS, M_BLOCKS, PX ** 3)


@pytest.fixture
def rank_one_cubed():
    return make_factorization([[1]], [[PX ** 3]], PX ** 3)


def test_antidiagonal_square_pair_validates(m_cubed):
    assert m_cubed.size == 2
    assert m_cubed.potential == PX ** 3


def test_anti_diagonal_family():
    for n, q in ((3, 1), (5, 2), (7, 3)):
        m = [[0, PX ** q], [PX ** (n - q), 0]]
        x = make_factorization(m, m, PX ** n)
        assert x.size == 2


def test_rejects_wrong_potential():
    with pytest.raises(NotAFactorization) as err:
        make_factorization([[1]], [[PX]], PX ** 2)
    e = err.value
    assert (e.which, e.row, e.col) == ("P*Q", 0, 0)
    assert e.residual == PX - PX ** 2
    assert "deviates" in str(e)


def _size8_factors():
    a = make_factorization(M_BLOCKS, M_BLOCKS, PX ** 3)
    half = PY * Fraction(2, 3)
    b = make_factorization([[0, PY], [half, 0]], [[0, PY], [half, 0]], PY * half)
    return a, b


def _size8_product():
    return yoshino(*_size8_factors())


@pytest.mark.parametrize("matrix, row, col, want", [
    ("P", 5, 2, ("P*Q", 5, 0, "1/2*x^2*y")),
    ("Q", 5, 2, ("P*Q", 0, 2, "1/2*y^2")),
    ("P", 0, 2, ("P*Q", 0, 0, "1/2*x^2*y")),
    ("Q", 7, 7, ("P*Q", 2, 7, "1/2*y^2")),
])
def test_check_names_first_failing_entry(matrix, row, col, want):
    # One corrupted entry breaks a whole row or column of the product; the
    # error names the first broken entry in row-major order.
    z = _size8_product()
    assert z.size == 8
    p, q = [list(r) for r in z.p], [list(r) for r in z.q]
    corrupted = p if matrix == "P" else q
    corrupted[row][col] = corrupted[row][col] + PY * Fraction(1, 2)
    with pytest.raises(NotAFactorization) as err:
        make_factorization(p, q, z.potential)
    e = err.value
    assert (e.which, e.row, e.col, poly_to_str(e.residual)) == want
    assert str(e) == f"({want[0]})[{want[1]}][{want[2]}] deviates from the potential by {want[3]}"


def test_rejects_one_sided_product():
    # Over potential 0 the two products are independent: P*Q vanishes here
    # but Q*P does not, and the error says which side broke.
    p = [[0, 1], [0, 0]]
    q = [[1, 0], [0, 0]]
    with pytest.raises(NotAFactorization) as err:
        make_factorization(p, q, 0)
    assert err.value.which == "Q*P"
    assert err.value.residual == 1


# The outcome of a check -- None on acceptance, else the failing product, row,
# column and residual -- by make_factorization, and by the oracle that decides
# both P*Q = w*I and Q*P = w*I whatever w is.

def _outcome(p, q, w, **kwargs):
    try:
        make_factorization(p, q, w, **kwargs)
    except NotAFactorization as e:
        return e.which, e.row, e.col, e.residual
    return None


def _handed(p, q):
    """``make_factorization``'s ``_rows`` for p and q, each nonzero entry
    its own atom of sign 1."""
    atoms = {}
    return mx._signed_rows(p, atoms), mx._signed_rows(q, atoms), atoms


def _oracle(p, q, w):
    p, q = mx.from_rows(p), mx.from_rows(q)
    hit = mx.failure([(p, q, 1)], [(q, p, 1)], w=poly.as_poly(w))
    if hit is None:
        return None
    k, i, j, residuals = hit
    return ("P*Q", "Q*P")[k], i, j, residuals[k][i][j]


def _poly_from_terms(terms, variables):
    out = Polynomial.zero()
    for c, exps in terms:
        term = Polynomial.const(c)
        for v, e in zip(variables, exps):
            term = term * Polynomial.var(v) ** e
        out = out + term
    return out


def _polys(variables, nonzero=False):
    coeffs = st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=3)
    terms = st.lists(st.tuples(coeffs, st.tuples(*[st.integers(0, 2)] * len(variables))),
                     min_size=int(nonzero), max_size=3)
    polys = terms.map(lambda t: _poly_from_terms(t, variables))
    if nonzero:
        polys = polys.map(lambda f: f or Polynomial.var(variables[0]) + 1)
    return polys


def _square(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def _small_factorizations(draw, variables):
    """A rank-one or anti-diagonal factorization over ``variables``."""
    u, v = draw(_polys(variables, True)), draw(_polys(variables, True))
    if draw(st.booleans()):
        return make_factorization([[u]], [[v]], u * v)
    m = [[0, u], [v, 0]]
    return make_factorization(m, m, u * v)


@st.composite
def _valid_factorizations(draw):
    """A factorization: rank one, anti-diagonal, a Yoshino product of two
    of those, or a Koszul unit."""
    kind = draw(st.sampled_from(["rank1", "antidiag", "yoshino", "unit"]))
    if kind == "yoshino":
        return yoshino(draw(_small_factorizations((X, Y))),
                       draw(_small_factorizations((Z,))),
                       draw(st.sampled_from(list(Variant))))
    if kind == "unit":
        return koszul_unit(draw(_polys((X, Y))), (X, Y)).mf
    return draw(_small_factorizations((X, Y)))


@st.composite
def _check_inputs(draw):
    """(p, q, w) for make_factorization: a valid factorization, the same with
    one entry changed, random square matrices, or a pair over w = 0."""
    kind = draw(st.sampled_from(["valid", "changed", "random", "zero"]))
    if kind in ("valid", "changed"):
        mf = draw(_valid_factorizations())
        p, q = [list(r) for r in mf.p], [list(r) for r in mf.q]
        if kind == "changed":
            m = draw(st.sampled_from([p, q]))
            i, j = draw(st.integers(0, mf.size - 1)), draw(st.integers(0, mf.size - 1))
            m[i][j] = m[i][j] + draw(_polys((X, Y), True))
        return p, q, mf.potential
    entries = _polys((X, Y))
    n = draw(st.integers(1, 3))
    if kind == "random":
        return draw(_square(n, entries)), draw(_square(n, entries)), draw(entries)
    # Over w = 0: strictly upper triangular pairs, whose products both
    # vanish at size 2, and pairs with a zero P*Q but possibly not Q*P.
    a, b, c, d = (draw(entries) for _ in range(4))
    return draw(st.sampled_from([
        ([[0, a], [0, 0]], [[0, b], [0, 0]], 0),
        ([[0, a], [0, 0]], [[b, c], [0, 0]], 0),
        ([[0, a], [0, 0]], [[b, c], [0, d]], 0),
        (draw(_square(n, entries)), draw(_square(n, entries)), 0),
    ]))


def _atoms_of(*matrix_rows):
    """The atoms of signed rows, by id."""
    return {id(a): a for rows in matrix_rows for row in rows for _, a, _ in row}


@st.composite
def _signed_check_inputs(draw):
    """(p, q, w, handed rows): signed rows whose P*Q has pairs of atoms that
    cancel, and the matrices built from them.  The rows are a Koszul unit's
    word maps, a tensor layout of two small factorizations, or rows
    s_i * (x, y) against columns t_j * (y, -x), with x = y allowed; each as
    built, or with one entry's sign flipped or a term added to it, in its
    row and its matrix alike."""
    kind = draw(st.sampled_from(["unit", "layout", "commutator"]))
    if kind == "unit":
        xs = draw(st.sampled_from([(X, Y), (X, Y, Z)]))
        f = draw(_polys(xs))
        lin = [Polynomial.var(v) - Polynomial.var(v.primed()) for v in xs]
        dq = [poly.diff_quotient(f, i, xs) for i in range(1, len(xs) + 1)]
        ev, od = tuple(even_words(len(xs))), tuple(odd_words(len(xs)))
        p_rows = unit._word_matrix(ev, od, lin, dq)
        q_rows = unit._word_matrix(od, ev, lin, dq)
        w = f - poly.t_shift(f, len(xs), xs)
    elif kind == "layout":
        x, y = draw(_small_factorizations((X, Y))), draw(_small_factorizations((Z,)))
        factors = [mx._signed_rows(m, {}) for m in (x.p, x.q, y.p, y.q)]
        _, _, p_rows, q_rows = _write_layout(draw(st.sampled_from(list(Variant))),
                                             *factors)
        w = x.potential + y.potential
    else:
        n = draw(st.integers(2, 3))
        a = draw(_polys((X, Y), True))
        b = a if draw(st.booleans()) else draw(_polys((X, Y), True))
        signs = st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)
        p_rows = [[(0, a, s), (1, b, s)] for s in draw(signs)]
        t = draw(signs)
        q_rows = ([[(j, b, t[j]) for j in range(n)], [(j, a, -t[j]) for j in range(n)]]
                  + [[] for _ in range(n - 2)])
        w = draw(st.sampled_from([Polynomial.zero(), a * b]))
    if draw(st.booleans()):
        rows = draw(st.sampled_from([p_rows, q_rows]))
        i, k = draw(st.sampled_from([(i, k) for i, row in enumerate(rows)
                                     for k in range(len(row))]))
        j, atom, s = rows[i][k]
        changed = atom + draw(_polys((X, Y), True))
        if draw(st.booleans()) or not changed.terms:
            rows[i][k] = (j, atom, -s)
        else:
            rows[i][k] = (j, changed, s)
    negs = {}
    p = mx._from_signed_rows(p_rows, len(p_rows), negs)
    q = mx._from_signed_rows(q_rows, len(q_rows), negs)
    return p, q, w, (p_rows, q_rows, _atoms_of(p_rows, q_rows))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_check_inputs().map(lambda args: (*args, None)),
                 _signed_check_inputs()))
def test_outcome_equals_the_two_sided_oracle(args):
    """Deciding P*Q alone over a nonzero potential accepts and refuses what
    deciding both products does, and names the same entry and residual;
    so does grouping the pairs of handed signed rows, where pairs of atoms
    cancel, and where one of them was changed."""
    p, q, w, handed = args
    want = _oracle(p, q, w)
    assert _outcome(p, q, w) == want
    p, q = mx.from_rows(p), mx.from_rows(q)
    assert _outcome(p, q, w, _rows=_handed(p, q)) == want
    if handed is not None:
        assert _outcome(p, q, w, _rows=handed) == want


def _cancelling_pair(p_rows, q_rows):
    """``(i, k, j)``: P[i][k]*Q[k][j] is the first pair of P*Q whose atoms
    meet again in row i, column j, with the opposite sign."""
    for i, row in enumerate(p_rows):
        signs = {}
        for k, x, sx in row:
            for j, y, sy in q_rows[k]:
                signs.setdefault((frozenset((id(x), id(y))), j), []).append((k, sx * sy))
        for (_, j), pairs in signs.items():
            if sorted(s for _, s in pairs) == [-1, 1]:
                return i, pairs[0][0], j
    return None


@pytest.mark.parametrize("change", ["sign", "term"])
@pytest.mark.parametrize("side", ["P", "Q"])
@pytest.mark.parametrize("n", [3, 4])
def test_a_changed_cancelling_pair_is_refused_as_the_residual_shows(
        monkeypatch, n, side, change):
    """One entry of a cancelling pair of a Koszul unit's P*Q gets its sign
    flipped or a term added, in the matrix and the handed row alike: the
    check refuses it, naming the entry and residual ``mx.residual`` shows,
    as it does with the rows listed by the test itself."""
    xs = (X, Y, Z, Variable("w"))[:n]
    f = PX ** 3 * Fraction(1, 3) + PY ** 3 * 2 - PX * PY * PZ
    if n == 4:
        f = f + Polynomial.var(xs[3]) ** 3
    calls = record_factorizations(monkeypatch, unit)
    koszul_unit(f, xs)
    p, q, w, extra, (p_rows, q_rows, _), _ = calls[0]
    i, k, j = _cancelling_pair(p_rows, q_rows)
    rows, at = (p_rows, i) if side == "P" else (q_rows, k)
    pos, (col, atom, s) = next((pos, e) for pos, e in enumerate(rows[at])
                               if e[0] == (k if side == "P" else j))
    rows[at][pos] = (col, atom, -s) if change == "sign" else (col, atom + PX ** 5, s)
    negs = {}
    p = mx._from_signed_rows(p_rows, len(p), negs)
    q = mx._from_signed_rows(q_rows, len(q), negs)
    at_i, at_j, residual = mx.first_nonzero(mx.residual([(p, q, 1)], w))
    want = ("P*Q", at_i, at_j, residual)
    assert _outcome(p, q, w, extra_vars=extra,
                    _rows=(p_rows, q_rows, _atoms_of(p_rows, q_rows))) == want
    assert _outcome(p, q, w, extra_vars=extra) == want


def test_only_handed_pairs_with_a_multi_term_atom_group(monkeypatch):
    """A product groups its pairs only when both of its matrices were
    handed and some handed atom has more than one term: a unit and a
    product of multi-term factors do; a product of monomial factors, the
    same matrices listed by the test, and morphism squares do not."""
    seen = []
    real = mx._first_row_difference

    def record(products, *args):
        seen.append([grouped for _, _, _, grouped in products])
        return real(products, *args)

    monkeypatch.setattr(mx, "_first_row_difference", record)

    def grouped(check):
        seen.clear()
        check()
        return seen

    def rank_one(u, v):
        return make_factorization([[u]], [[v]], u * v)

    assert grouped(lambda: koszul_unit(PX ** 3 + PY ** 3, (X, Y))) == [[True]]
    x, y = rank_one(PX + 1, PX - 1), rank_one(PY, PY ** 2 + PY)
    z = yoshino(x, y)
    assert grouped(lambda: yoshino(x, y)) == [[True]]
    monomials = rank_one(PX, PX), rank_one(PY, 2 * PY)
    assert grouped(lambda: yoshino(*monomials)) == [[False]]
    assert grouped(lambda: make_factorization(z.p, z.q, z.potential)) == [[False]]
    assert grouped(lambda: validate_morphism(identity_morphism(z))) == [[False, False]] * 2


@settings(max_examples=50, deadline=None)
@given(_valid_factorizations())
def test_builders_accept_what_the_oracle_accepts(mf):
    assert _oracle(mf.p, mf.q, mf.potential) is None


def test_a_nonzero_potential_decides_p_times_q_alone(monkeypatch):
    """make_factorization hands the zero test one equation, P*Q = w*I, over
    a nonzero potential, and both, P*Q first, over w = 0; builders too (the
    last check a builder makes is its result's)."""
    seen = []
    real = mx.first_difference

    def record(*equations, **kwargs):
        seen.append(equations)
        return real(*equations, **kwargs)

    monkeypatch.setattr(mx, "first_difference", record)

    def equations(build):
        seen.clear()
        try:
            mf = build()
        except NotAFactorization:
            pass
        else:
            mf = getattr(mf, "mf", mf)
            p_q, q_p = [(mf.p, mf.q, 1)], [(mf.q, mf.p, 1)]
            assert seen[-1] in ((p_q,), (p_q, q_p))
        return len(seen[-1])

    nilpotent = [[0, 1], [0, 0]]
    assert equations(lambda: make_factorization(M_BLOCKS, M_BLOCKS, PX ** 3)) == 1
    assert equations(lambda: make_factorization([[1]], [[PX]], PX ** 2)) == 1
    assert equations(lambda: make_factorization(nilpotent, nilpotent, 0)) == 2
    assert equations(lambda: make_factorization(nilpotent, [[1, 0], [0, 0]], 0)) == 2
    assert equations(_size8_product) == 1
    assert equations(lambda: koszul_unit(PX ** 3 + PY ** 2, (X, Y))) == 1
    assert equations(lambda: koszul_unit(Polynomial.const(5), (X,))) == 2


def test_rejects_bad_shapes():
    with pytest.raises(ShapeMismatch):
        make_factorization([[1, 0]], [[1], [0]], PX)
    with pytest.raises(ShapeMismatch):
        make_factorization([[1]], [[1, 0], [0, 1]], PX)
    with pytest.raises(ShapeMismatch):
        make_factorization([], [], PX)


def test_factorization_is_frozen(m_cubed):
    with pytest.raises(AttributeError):
        m_cubed.size = 3


def test_direct_sum(m_cubed, rank_one_cubed):
    s = direct_sum(m_cubed, rank_one_cubed)
    assert s.size == 3
    assert s.p[0][2] == 0 and s.p[2][0] == 0
    assert s.p[2][2] == 1


def test_direct_sum_potential_mismatch(rank_one_cubed):
    other = make_factorization([[1]], [[PX]], PX)
    with pytest.raises(PotentialMismatch):
        direct_sum(rank_one_cubed, other)


# ---------------------------------------------------------------------------
# morphisms


def embedding(m_cubed, rank_one_cubed, alpha_col):
    """Morphism ([1],[x^3]) -> M with beta forced by the even square."""
    alpha = [[alpha_col[0]], [alpha_col[1]]]
    beta = mx.mul(m_cubed.p, mx.from_rows(alpha))
    return make_morphism(alpha, beta, rank_one_cubed, m_cubed)


def test_nontrivial_morphism(m_cubed, rank_one_cubed):
    m = embedding(m_cubed, rank_one_cubed, (Polynomial.const(1), PX))
    assert validate_morphism(m).ok


def test_morphism_constructor_checks_shape(m_cubed, rank_one_cubed):
    with pytest.raises(ShapeMismatch):
        Morphism(
            alpha=[[1]], beta=[[1]], source=rank_one_cubed, target=m_cubed
        )


def test_morphism_constructor_checks_potential(m_cubed):
    other = make_factorization([[1]], [[PX]], PX)
    with pytest.raises(PotentialMismatch):
        Morphism(
            alpha=mx.zeros(2, 1),
            beta=mx.zeros(2, 1),
            source=other,
            target=m_cubed,
        )


def test_invalid_squares_are_constructible(m_cubed):
    bad = Morphism(
        alpha=[[1, 0], [0, 0]],
        beta=[[1, 0], [0, 0]],
        source=m_cubed,
        target=m_cubed,
    )
    report = validate_morphism(bad)
    assert not report.ok
    assert mx.first_nonzero(report.eq1_residual) is not None
    assert "residual at" in report.describe()


def test_make_morphism_raises_with_report(m_cubed):
    with pytest.raises(NotAMorphism) as err:
        make_morphism([[1, 0], [0, 0]], [[1, 0], [0, 0]], m_cubed, m_cubed)
    assert not err.value.report.ok


def test_identity_and_scalar_validate(m_cubed):
    assert validate_morphism(identity_morphism(m_cubed)).ok
    assert validate_morphism(scalar_morphism(PX + 2, m_cubed)).ok
    assert validate_morphism(zero_morphism(m_cubed)).ok


def test_zero_morphism_between_different_objects(m_cubed, rank_one_cubed):
    z = zero_morphism(rank_one_cubed, m_cubed)
    assert validate_morphism(z).ok
    assert mx.shape(z.alpha) == (2, 1)


def test_compose_and_identity_laws(m_cubed, rank_one_cubed):
    f = embedding(m_cubed, rank_one_cubed, (Polynomial.const(1), PX))
    left = compose_morphisms(identity_morphism(m_cubed), f)
    right = compose_morphisms(f, identity_morphism(rank_one_cubed))
    assert left == f
    assert right == f


def test_compose_associates(m_cubed):
    a = scalar_morphism(PX, m_cubed)
    b = scalar_morphism(PX + 1, m_cubed)
    c = scalar_morphism(2, m_cubed)
    assert compose_morphisms(compose_morphisms(a, b), c) == compose_morphisms(
        a, compose_morphisms(b, c)
    )


def test_compose_shape_mismatch(m_cubed, rank_one_cubed):
    f = embedding(m_cubed, rank_one_cubed, (Polynomial.const(1), PX))
    with pytest.raises(ShapeMismatch):
        compose_morphisms(f, f)


# A factorization of 0 whose two squares are independent: in a morphism
# X -> X, either can fail while the other holds.
SPLIT = make_factorization([[0, 0], [0, PX]], [[PX, 0], [0, 0]], 0)


SPLIT_SQUARES = [
    ([[1, 0], [0, 1]], [[1, 0], [0, Fraction(1, 3)]],
     "even square residual at [1][1]: -2/3*x"),
    ([[Fraction(1, 2), 0], [0, 1]], [[1, 0], [0, 1]],
     "odd square residual at [0][0]: -1/2*x"),
    ([[0, 0], [0, 1]], [[1, 0], [0, 0]],
     "even square residual at [1][1]: -1*x; odd square residual at [0][0]: -1*x"),
]


@pytest.mark.parametrize("alpha, beta, want", SPLIT_SQUARES)
def test_not_a_morphism_names_the_failing_square(alpha, beta, want):
    with pytest.raises(NotAMorphism) as err:
        make_morphism(alpha, beta, SPLIT, SPLIT)
    assert str(err.value) == want
    assert err.value.report.describe() == want


# A factorization of x^3 of size 1 beside M's size 2, a valid morphism
# between them, a potential with a unit, and X factoring z^3 - x^3: the
# homotopy, naturality and unitor checks on them, at different sizes.
R_CUBED = make_factorization([[PX]], [[PX ** 2]], PX ** 3)
ZX = make_factorization([[PZ - PX]], [[PZ ** 2 + PX * PZ + PX ** 2]], PZ ** 3 - PX ** 3)


def _r_to_m(m_cubed):
    return make_morphism([[1], [0]], [[0], [PX]], R_CUBED, m_cubed)


def _morphism_report_by_products(m):
    """The morphism report as both products give it: each square's
    residual by ``mul`` and ``sub``."""
    x, y = m.source, m.target
    eq1 = mx.sub(mx.mul(m.beta, x.p), mx.mul(y.p, m.alpha))
    eq2 = mx.sub(mx.mul(m.alpha, x.q), mx.mul(y.q, m.beta))
    ok = mx.first_nonzero(eq1) is None and mx.first_nonzero(eq2) is None
    return MorphismReport(ok=ok, eq1_residual=eq1, eq2_residual=eq2)


def _witness_report_by_products(x, y, phi, psi, w):
    """The witness report as the products give it: each homotopy
    equation's residual by ``mul``, ``add`` and ``sub``."""
    l0, l1 = mx.from_rows(w.lambda0), mx.from_rows(w.lambda1)
    even = mx.sub(mx.add(mx.mul(y.q, l0), mx.mul(l1, x.p)), mx.sub(psi.alpha, phi.alpha))
    odd = mx.sub(mx.add(mx.mul(y.p, l1), mx.mul(l0, x.q)), mx.sub(psi.beta, phi.beta))
    ok = mx.first_nonzero(even) is None and mx.first_nonzero(odd) is None
    return WitnessReport(ok=ok, even_residual=even, odd_residual=odd)


def _naturality_report_by_products(p, f, fvars):
    """The naturality report as the products give it: both collapsed
    products (by ``unit._collapsed_product`` as patched), and each square's
    residual rho_Y.(p x id) - p.rho_X by ``mul`` and ``sub``."""
    (_, even, _), zx, rho_x = unit._collapsed_product(p.source, f, fvars)
    _, zy, rho_y = unit._collapsed_product(p.target, f, fvars)
    i_m = mx.identity(len(even))
    beta, alpha = _tensor_blocks(p.alpha, p.beta, i_m, i_m)
    p_id = make_morphism(alpha=alpha, beta=beta, source=zx, target=zy)
    alpha_res, beta_res = (mx.sub(mx.mul(a, b), mx.mul(c, d)) for a, b, c, d in (
        (rho_y.alpha, p_id.alpha, p.alpha, rho_x.alpha),
        (rho_y.beta, p_id.beta, p.beta, rho_x.beta)))
    ok = mx.first_nonzero(alpha_res) is None and mx.first_nonzero(beta_res) is None
    return NaturalityReport(ok=ok, alpha_residual=alpha_res, beta_residual=beta_res)


def test_valid_inputs_build_no_product(monkeypatch, m_cubed):
    """Every check decides valid inputs by the zero test alone: none calls
    the product kernel or builds a product, and the residuals of a passing
    report are zero matrices."""
    xs = tuple(Variable(f"x{i}") for i in range(1, 4))
    f = sum((Polynomial.var(v) ** 3 * Fraction(i + 1, i + 2) for i, v in enumerate(xs)),
            Polynomial.zero())
    unit_mf = koszul_unit(f, xs).mf
    a, b = _size8_factors()
    z = yoshino(a, b)
    tensored = tensor_morphisms(scalar_morphism(PY, b), scalar_morphism(PX + 2, a))
    morphisms = [scalar_morphism(Polynomial.var(xs[0]) + Fraction(1, 2), unit_mf),
                 scalar_morphism(PX * PY, z), tensored, _r_to_m(m_cubed)]
    assert (unit_mf.size, z.size, tensored.source.size) == (4, 8, 8)
    s_x, zero = scalar_morphism(PX, m_cubed), zero_morphism(m_cubed)
    found = find_witness(m_cubed, m_cubed, s_x, zero, 2)
    searches = [(m_cubed, m_cubed, s_x, zero, 2), (R_CUBED, m_cubed, _r_to_m(m_cubed),
                                                   _r_to_m(m_cubed), 1)]
    found_too = [find_witness(*args) for args in searches]
    bundle = unitor_right(ZX, PX ** 3, (X,))

    def refuse(*args):
        raise AssertionError("an eager check built a product")

    monkeypatch.setattr(poly, "sum_of_products", refuse)
    monkeypatch.setattr(mx, "sum_of_products", refuse)
    monkeypatch.setattr(mx, "mul", refuse)
    for x in (unit_mf, z):
        assert make_factorization(x.p, x.q, x.potential, extra_vars=x.vars) == x
    for m in morphisms:
        assert make_morphism(m.alpha, m.beta, m.source, m.target) == m
        zeros = mx.zeros(m.target.size, m.source.size)
        assert validate_morphism(m) == MorphismReport(True, zeros, zeros)
    zeros = mx.zeros(2, 2)
    assert check_witness(m_cubed, m_cubed, s_x, zero, found) == WitnessReport(
        True, zeros, zeros)
    assert [find_witness(*args) for args in searches] == found_too
    assert naturality_check(scalar_morphism(PZ, ZX), PX ** 3, (X,)).ok
    assert unitor_right(ZX, PX ** 3, (X,)) == bundle


def test_reports_equal_the_reports_the_products_give(monkeypatch, m_cubed):
    """Each report, passing or failing, is the one the products give."""
    r_to_m = _r_to_m(m_cubed)
    morphisms = [identity_morphism(m_cubed), scalar_morphism(PX + 2, m_cubed), r_to_m,
                 Morphism([[1, 0], [0, 0]], [[1, 0], [0, 0]], m_cubed, m_cubed),
                 Morphism([[1], [PX]], [[0], [PX]], R_CUBED, m_cubed)]
    morphisms += [Morphism(alpha, beta, SPLIT, SPLIT) for alpha, beta, _ in SPLIT_SQUARES]
    for m in morphisms:
        assert validate_morphism(m) == _morphism_report_by_products(m)
    assert [validate_morphism(m).ok for m in morphisms] == [True] * 3 + [False] * 5

    s_x, zero = scalar_morphism(PX, m_cubed), zero_morphism(m_cubed)
    found = find_witness(m_cubed, m_cubed, s_x, zero, 2)
    nudged = HomotopyWitness(mx.add(found.lambda0, mx.identity(2)), found.lambda1, 2)
    r_zero = zero_morphism(R_CUBED, m_cubed)
    flat = HomotopyWitness(mx.zeros(2, 1), mx.zeros(2, 1), 0)
    searches = [(m_cubed, m_cubed, s_x, zero, found), (m_cubed, m_cubed, s_x, zero, nudged),
                (m_cubed, m_cubed, identity_morphism(m_cubed), zero, found),
                (R_CUBED, m_cubed, r_zero, r_zero, flat), (R_CUBED, m_cubed, r_to_m, r_zero, flat),
                (m_cubed, R_CUBED, zero_morphism(m_cubed, R_CUBED),
                 zero_morphism(m_cubed, R_CUBED), HomotopyWitness(
                     mx.zeros(1, 2), mx.from_rows([[0, PX]]), 1))]
    for args in searches:
        assert check_witness(*args) == _witness_report_by_products(*args)
    assert [check_witness(*args).ok for args in searches] == [True, False, False,
                                                              True, False, False]

    for p in (identity_morphism(ZX), scalar_morphism(PZ - 1, ZX)):
        assert naturality_check(p, PX ** 3, (X,)) == _naturality_report_by_products(
            p, PX ** 3, (X,))
    zx_copy = make_factorization(ZX.p, ZX.q, ZX.potential)
    collapsed = unit._collapsed_product

    def doubled_target(x, f, fvars):
        gens, z, rho = collapsed(x, f, fvars)
        if x is zx_copy:
            rho = compose_morphisms(scalar_morphism(2, x), rho)
        return gens, z, rho

    p = make_morphism(mx.identity(1), mx.identity(1), ZX, zx_copy)
    monkeypatch.setattr(unit, "_collapsed_product", doubled_target)
    report = naturality_check(p, PX ** 3, (X,))
    assert not report.ok
    assert report == _naturality_report_by_products(p, PX ** 3, (X,))


def test_a_difference_the_product_does_not_show_is_an_internal_error(
        monkeypatch, m_cubed):
    """A zero test that names an entry the residuals do not hold is an
    internal error, raised by ``matrices.failure`` for every check."""
    phi = scalar_morphism(PX, m_cubed)
    witness = HomotopyWitness(mx.zeros(2, 2), mx.zeros(2, 2), 0)
    checks = [lambda: make_factorization(M_BLOCKS, M_BLOCKS, PX ** 3),
              lambda: make_morphism(mx.identity(2), mx.identity(2), m_cubed, m_cubed),
              lambda: check_witness(m_cubed, m_cubed, phi, phi, witness)]
    for named in ((0, 0, 0), (1, 0, 0)):
        monkeypatch.setattr(mx, "first_difference",
                            lambda *equations, w=None, rows=None, atoms=None,
                            variables=None, named=named: named)
        for check in checks:
            with pytest.raises(RuntimeError) as err:
                check()
            assert str(err.value) == (f"the zero test named entry {named}, but the "
                                      "residuals' first nonzero entry is None")


# ---------------------------------------------------------------------------
# the file format

GOLDEN = (
    '{\n'
    '  "vars": [\n'
    '    "x"\n'
    '  ],\n'
    '  "potential": "x",\n'
    '  "P": [\n'
    '    [\n'
    '      "1"\n'
    '    ]\n'
    '  ],\n'
    '  "Q": [\n'
    '    [\n'
    '      "x"\n'
    '    ]\n'
    '  ]\n'
    '}\n'
)


def test_serialize_golden():
    x = make_factorization([[1]], [[PX]], PX)
    assert serialize_factorization(x) == GOLDEN


def test_parse_golden():
    x = parse_factorization(GOLDEN)
    assert x.potential == PX
    assert x.size == 1


def test_round_trip_bytes():
    rng = random.Random(41)
    for _ in range(15):
        x = rand_factorization(rng, (X, Y))
        text = serialize_factorization(x)
        assert serialize_factorization(parse_factorization(text)) == text


@pytest.mark.parametrize("seed", range(12))
def test_vars_come_from_the_packing(seed):
    """With no declared variables, ``vars`` is exactly the set of a
    slot-by-slot walk of the entries and the potential, whether the rows
    are listed by the check or handed to it; declared ones join it."""
    rng = random.Random(700 + seed)
    x = rand_factorization(rng, (X, Y, Variable("x", 1)))
    y = rand_factorization(rng, (Z, Variable("u")))
    for mf in (x, y, direct_sum(x, x)):
        want = walked_vars(mf.p, mf.q, mf.potential)
        rows = _handed(mf.p, mf.q)
        assert make_factorization(mf.p, mf.q, mf.potential).vars == want
        assert make_factorization(mf.p, mf.q, mf.potential, _rows=rows).vars == want
        declared = (Variable("v"), X)
        assert make_factorization(mf.p, mf.q, mf.potential, extra_vars=declared,
                                  _rows=rows).vars == tuple(sorted(set(want) | set(declared)))
    # A variable that only the potential holds would make the check fail;
    # one that cancels from the potential is still an entry's variable.
    p = [[PX, PY], [0, PX]]
    q = [[PX, -PY], [0, PX]]
    assert make_factorization(p, q, PX ** 2).vars == (X, Y)


def test_round_trip_keeps_declared_but_unused_vars():
    x = make_factorization([[1]], [[PX]], PX, extra_vars=(Y,))
    text = serialize_factorization(x)
    assert '"y"' in text
    again = parse_factorization(text)
    assert serialize_factorization(again) == text


def test_parse_rejects_bad_documents():
    with pytest.raises(ValueError):
        parse_factorization("not json at all {")
    with pytest.raises(ValueError):
        parse_factorization('["a", "list"]')
    with pytest.raises(ValueError):
        parse_factorization('{"vars": ["x"], "potential": "x", "P": [["1"]]}')
    extra = GOLDEN.rstrip()[:-1] + ', "note": "hi"}'
    with pytest.raises(ValueError):
        parse_factorization(extra)
    with pytest.raises(ValueError):
        parse_factorization(GOLDEN.replace('"x"', "5", 1))


def test_parse_reads_each_distinct_entry_text_once(monkeypatch):
    texts = []
    parse_poly = matfac.parse_poly
    monkeypatch.setattr(matfac, "parse_poly",
                        lambda text, names: texts.append(text) or parse_poly(text, names))
    doc = {"vars": ["x"], "potential": "x^3",
           "P": [["0", "x"], ["x^2", "0"]], "Q": [["0", "x"], ["x^2", "0"]]}
    x = parse_factorization(json.dumps(doc))
    assert sorted(texts) == ["0", "x", "x^2", "x^3"]
    assert x.p[0][1] is x.q[0][1]
    # A bad entry after repeated texts is still named as before.
    doc["Q"][1][1] = 0
    with pytest.raises(ValueError, match="expected a polynomial string in 'Q', got 0"):
        parse_factorization(json.dumps(doc))


def test_parse_rejects_undeclared_entry_variable():
    with pytest.raises(ValueError):
        parse_factorization(GOLDEN.replace('"potential": "x"', '"potential": "w"'))


def test_parse_rejects_invalid_math():
    bad = GOLDEN.replace('"potential": "x"', '"potential": "x^2"')
    with pytest.raises(NotAFactorization):
        parse_factorization(bad)
