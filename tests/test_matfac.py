import json
import random
from fractions import Fraction

import pytest

from mfkit import matfac, poly
from mfkit import matrices as mx
from mfkit.matfac import (
    MatrixFactorization,
    Morphism,
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
from mfkit.tensor import tensor_morphisms, yoshino
from mfkit.unit import koszul_unit

from conftest import PX, PY, X, Y, rand_factorization, rand_poly

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
    assert not mx.is_zero(report.eq1_residual)
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


@pytest.mark.parametrize("alpha, beta, want", [
    ([[1, 0], [0, 1]], [[1, 0], [0, Fraction(1, 3)]],
     "even square residual at [1][1]: -2/3*x"),
    ([[Fraction(1, 2), 0], [0, 1]], [[1, 0], [0, 1]],
     "odd square residual at [0][0]: -1/2*x"),
    ([[0, 0], [0, 1]], [[1, 0], [0, 0]],
     "even square residual at [1][1]: -1*x; odd square residual at [0][0]: -1*x"),
])
def test_not_a_morphism_names_the_failing_square(alpha, beta, want):
    with pytest.raises(NotAMorphism) as err:
        make_morphism(alpha, beta, SPLIT, SPLIT)
    assert str(err.value) == want
    assert err.value.report.describe() == want


def test_valid_inputs_build_no_product(monkeypatch):
    """make_factorization and make_morphism decide valid inputs by the zero
    test alone: neither calls the product kernel nor builds a product."""
    xs = tuple(Variable(f"x{i}") for i in range(1, 4))
    f = sum((Polynomial.var(v) ** 3 * Fraction(i + 1, i + 2) for i, v in enumerate(xs)),
            Polynomial.zero())
    unit = koszul_unit(f, xs).mf
    a, b = _size8_factors()
    z = yoshino(a, b)
    tensored = tensor_morphisms(scalar_morphism(PY, b), scalar_morphism(PX + 2, a))
    morphisms = [scalar_morphism(Polynomial.var(xs[0]) + Fraction(1, 2), unit),
                 scalar_morphism(PX * PY, z), tensored]
    assert (unit.size, z.size, tensored.source.size) == (4, 8, 8)

    def refuse(*args):
        raise AssertionError("an eager check built a product")

    monkeypatch.setattr(poly, "sum_of_products", refuse)
    monkeypatch.setattr(mx, "sum_of_products", refuse)
    monkeypatch.setattr(mx, "mul", refuse)
    for x in (unit, z):
        assert make_factorization(x.p, x.q, x.potential, extra_vars=x.vars) == x
    for m in morphisms:
        assert make_morphism(m.alpha, m.beta, m.source, m.target) == m


def test_a_difference_the_product_does_not_show_is_an_internal_error(
        monkeypatch, m_cubed):
    for product in (0, 1):
        monkeypatch.setattr(mx, "first_difference_both_ways",
                            lambda *args, product=product: (product, 0, 0))
        with pytest.raises(RuntimeError) as err:
            make_factorization(M_BLOCKS, M_BLOCKS, PX ** 3)
        assert str(err.value) == (f"the zero test found {('P*Q', 'Q*P')[product]} "
                                  "!= w*I, but its product matches")
    monkeypatch.setattr(mx, "first_difference", lambda *args, **kwargs: (0, 0))
    with pytest.raises(RuntimeError, match="zero test"):
        make_morphism(mx.identity(2), mx.identity(2), m_cubed, m_cubed)


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
