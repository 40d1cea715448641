import copy
import pickle
import random
from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfkit import matrices as mx
from mfkit.matfac import make_factorization
from mfkit.poly import (
    MAX_DIGITS,
    _mono_mul,
    PolyParseError,
    Polynomial,
    UndeclaredVariable,
    Variable,
    derivative,
    diff_quotient,
    parse_poly,
    poly_to_str,
    substitute,
    sum_of_products,
    t_shift,
)
from mfkit.unit import koszul_unit, unitor_right

from conftest import (PX, PY, PZ, X, Y, Z, kernel_counts, kernel_path, rand_poly,
                      ref_mono_mul, ref_sum_of_products)


@st.composite
def polys(draw, variables=(X, Y), max_deg=3):
    out = Polynomial.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        c = Fraction(
            draw(st.integers(min_value=-5, max_value=5)),
            draw(st.integers(min_value=1, max_value=3)),
        )
        term = Polynomial.const(c)
        for v in variables:
            term = term * Polynomial.var(v) ** draw(
                st.integers(min_value=0, max_value=max_deg)
            )
        out = out + term
    return out


# ---------------------------------------------------------------------------
# printing and parsing


def test_print_canonical_order():
    f = PX + PY ** 2 + 3
    assert poly_to_str(f) == "y^2 + x + 3"
    # graded-lex over dense exponent vectors, not over (variable, exponent)
    # pairs, which would put y^2 before x*z and x'^2 before x*y'
    assert poly_to_str(PY ** 2 + PX * PZ) == "x*z + y^2"
    text = "x*y' + x'^2 + y"
    assert poly_to_str(parse_poly(text, ["x", "y"])) == text


def test_print_leading_negative_keeps_factor():
    assert poly_to_str(-PX + PY) == "-1*x + y"
    assert poly_to_str(-PX) == "-1*x"


def test_print_separators_and_powers():
    f = 2 * PX ** 3 * PY - PY + Polynomial.const(Fraction(1, 2))
    assert poly_to_str(f) == "2*x^3*y - y + 1/2"


def test_print_zero():
    assert poly_to_str(Polynomial.zero()) == "0"


def test_print_primed_variable():
    xp = Polynomial.var(X.primed())
    assert poly_to_str(PX - xp) == "x - x'"


def test_parse_basic():
    f = parse_poly("x^2 + 2*y - 3", ["x", "y"])
    assert f == PX ** 2 + 2 * PY - 3


def test_parse_rationals():
    f = parse_poly("1/2*x - 3/4", ["x"])
    assert f == Polynomial.const(Fraction(1, 2)) * PX - Fraction(3, 4)


def test_parse_negative_first_term():
    assert parse_poly("-1*x + y", ["x", "y"]) == -PX + PY


def test_parse_primes_of_declared_base():
    f = parse_poly("x - x'", ["x"])
    assert f == PX - Polynomial.var(X.primed())


def test_parse_undeclared_variable():
    with pytest.raises(UndeclaredVariable):
        parse_poly("x + q", ["x"])


def test_parse_error_carries_position():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x + + y", ["x", "y"])
    assert err.value.position is not None


def test_parse_caps_the_exponent():
    assert parse_poly("x^1000", ["x"]) == PX ** 1000
    with pytest.raises(PolyParseError) as err:
        parse_poly("y + x^1001", ["x", "y"])
    assert err.value.position == 6
    assert "1001" in str(err.value)


@pytest.mark.parametrize("template, position", [
    ("{big}*x^3", 0),
    ("x^{big}", 2),
    ("-{big}", 1),
    ("x + 1/{big}", 6),
    ("({big} + x)", 1),
])
def test_parse_refuses_oversized_number_literals(template, position):
    with pytest.raises(PolyParseError) as err:
        parse_poly(template.replace("{big}", "1" * 5000), ["x"])
    assert err.value.position == position
    assert f"5000 digits is above the limit of {MAX_DIGITS}" in str(err.value)


def test_parse_accepts_numbers_up_to_the_digit_limit():
    big = 10 ** MAX_DIGITS - 1
    assert parse_poly(f"{big}*x + 1/{big}", ["x"]) == PX * big + Fraction(1, big)


def test_print_round_trips_numbers_up_to_the_digit_limit():
    big = 10 ** MAX_DIGITS - 1
    f = PX * big - Fraction(1, big)
    assert parse_poly(poly_to_str(f), ["x"]) == f


@pytest.mark.parametrize("coeff", [
    10 ** MAX_DIGITS, -10 ** MAX_DIGITS, Fraction(1, 10 ** MAX_DIGITS),
], ids=["numerator", "negative", "denominator"])
def test_print_refuses_numbers_above_the_digit_limit(coeff):
    with pytest.raises(ValueError, match=f"limit of {MAX_DIGITS} digits"):
        poly_to_str(PX * coeff + 1)


def test_parse_rejects_zero_denominator():
    with pytest.raises(PolyParseError):
        parse_poly("1/0", ["x"])


def test_parse_rejects_unbalanced_parens():
    with pytest.raises(PolyParseError):
        parse_poly("(x + y", ["x", "y"])


def test_parse_parenthesized_products():
    f = parse_poly("(x + y)*(x - y)", ["x", "y"])
    assert f == PX ** 2 - PY ** 2


@given(polys())
def test_print_parse_round_trip(f):
    assert parse_poly(poly_to_str(f), ["x", "y"]) == f


def test_round_trip_with_primes():
    rng = random.Random(11)
    for _ in range(25):
        f = rand_poly(rng, (X, X.primed(), Y, Y.primed()))
        assert parse_poly(poly_to_str(f), ["x", "y"]) == f


# ---------------------------------------------------------------------------
# ring laws


class TestRingLaws:
    @given(polys(), polys())
    def test_add_commutes(self, f, g):
        assert f + g == g + f

    @given(polys(), polys(), polys())
    def test_add_associates(self, f, g, h):
        assert (f + g) + h == f + (g + h)

    @given(polys(), polys())
    def test_mul_commutes(self, f, g):
        assert f * g == g * f

    @given(polys(), polys(), polys())
    @settings(max_examples=50)
    def test_mul_associates(self, f, g, h):
        assert (f * g) * h == f * (g * h)

    @given(polys(), polys(), polys())
    def test_distributes(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @given(polys())
    def test_additive_inverse(self, f):
        assert f - f == Polynomial.zero()
        assert f + (-f) == 0

    @given(polys())
    def test_one_and_zero(self, f):
        assert f * 1 == f
        assert f * 0 == Polynomial.zero()
        assert f + 0 == f

    @given(polys(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=50)
    def test_pow_is_repeated_mul(self, f, k):
        expect = Polynomial.const(1)
        for _ in range(k):
            expect = expect * f
        assert f ** k == expect


def test_degree():
    assert Polynomial.zero().degree() == -1
    assert Polynomial.const(5).degree() == 0
    assert (PX ** 2 * PY + PX).degree() == 3


def test_equality_with_numbers():
    assert Polynomial.const(3) == 3
    assert Polynomial.const(Fraction(1, 2)) == Fraction(1, 2)
    assert PX != 3
    assert Polynomial.const(3) == Fraction(3)
    assert Polynomial.zero() == 0
    assert (PX == "x") is False
    assert (PX != "x") is True
    with pytest.raises(TypeError):
        PX * 1.5


XP = X.primed()


@pytest.mark.parametrize("a, b", [
    (((X, 1),), ((Y, 2),)),                      # all before
    (((Y, 2),), ((X, 1), (XP, 3))),              # all after
    (((X, 1), (Y, 1)), ((XP, 2),)),              # interleaved: x*y times x'
    (((XP, 1),), ((X, 2), (Y, 1))),              # interleaved, other side
    (((X, 1), (XP, 1)), ((X, 2), (Y, 1))),       # shared x
    (((Y, 1),), ((Y, 4),)),                      # shared, single variable
    ((), ((X, 1), (Y, 1))),                      # empty monomial
    (((XP, 2),), ()),
    ((), ()),
])
def test_mono_mul_matches_dict_merge(a, b):
    assert _mono_mul(a, b) == ref_mono_mul(a, b)
    assert _mono_mul(b, a) == ref_mono_mul(a, b)


_MONOMIALS = st.dictionaries(
    st.sampled_from([X, XP, Y, Y.primed(), Z]), st.integers(1, 5), max_size=4,
).map(lambda exps: tuple(sorted(exps.items())))


@given(_MONOMIALS, _MONOMIALS)
@example(((X, 2),), ((X, 3),))                          # one shared variable
@example(((X, 1), (Y, 2)), ((X, 3), (Y, 1), (Z, 1)))    # several shared
@example(((X, 1), (XP, 2)), ((X, 1), (XP, 1)))          # primed twins shared
@example(((XP, 1),), ((X, 4),))                         # twins, none shared
@settings(max_examples=300, deadline=None)
def test_mono_mul_property(a, b):
    assert _mono_mul(a, b) == ref_mono_mul(a, b)
    assert _mono_mul(b, a) == ref_mono_mul(a, b)


def test_float_scalars_are_refused():
    with pytest.raises(TypeError):
        Polynomial.const(0.5)
    with pytest.raises(TypeError):
        PX * 0.5
    with pytest.raises(TypeError):
        PX + 0.5


def test_vars_are_the_variables_that_occur():
    assert (PX * PZ + PY).vars == (X, Y, Z)
    assert ((PX + PY) - PY).vars == (X,)


def test_hash_follows_equality():
    assert hash(PX + PY) == hash(PY + PX)
    # A polynomial compares equal to a scalar, so the two must hash equal.
    values = [0, 1, 2, -3, Fraction(1, 2), Fraction(4, 2), Fraction(-2, 3),
              Polynomial(), Polynomial.const(2), Polynomial.const(Fraction(1, 2)),
              Polynomial.const(Fraction(-2, 3)), PX, PX + 2]
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
    assert {2: "a"}.get(Polynomial.const(2)) == "a"
    assert {0: "z"}.get(Polynomial()) == "z"
    assert {Fraction(1, 2): "h"}.get(Polynomial.const(Fraction(1, 2))) == "h"


# ---------------------------------------------------------------------------
# substitution


def test_substitute_is_simultaneous():
    f = PX ** 2 - PY
    swapped = substitute(f, {X: PY, Y: PX})
    assert swapped == PY ** 2 - PX


def test_substitute_collapse_primes():
    xp = Polynomial.var(X.primed())
    f = PX - xp
    assert substitute(f, {X.primed(): PX}) == Polynomial.zero()


@given(polys(), polys(variables=(Z,)))
@settings(max_examples=50)
def test_substitute_evaluates_ring_hom(f, g):
    # x -> g is a ring homomorphism: check it against a direct rebuild
    h = substitute(f, {X: g})
    rebuilt = substitute(f, {X: g})
    assert h == rebuilt
    assert substitute(f + PX, {X: g}) == h + g


# ---------------------------------------------------------------------------
# shifts, difference quotients, derivatives


XP1, YP2 = X.primed(), Y.primed().primed()


@settings(max_examples=150, deadline=None)
@given(polys(variables=(X, XP1, Y, YP2, Z), max_deg=2), st.integers(0, 3),
       st.sampled_from([(X, Y, Z), (X, XP1, Y), (Y, X, YP2), (XP1, X)]))
@example(PX - Polynomial.var(XP1), 1, (X, Y, Z))
@example(PX * Polynomial.var(XP1) + PX ** 2, 2, (X, XP1, Y))
def test_t_shift_renames_like_the_substitution(f, k, xs):
    """Renaming each monomial's variables gives what substituting x_j' for
    x_j gives, where a renamed variable meets its twin (exponents merge)
    and where terms cancel."""
    k = min(k, len(xs))
    got = t_shift(f, k, xs)
    want = substitute(f, {x: Polynomial.var(x.primed()) for x in xs[:k]})
    assert got == want
    assert poly_to_str(got) == poly_to_str(want)


def test_t_shift_replaces_prefix():
    f = PX * PY + PZ
    shifted = t_shift(f, 2, (X, Y, Z))
    xp, yp = Polynomial.var(X.primed()), Polynomial.var(Y.primed())
    assert shifted == xp * yp + PZ


def test_diff_quotient_of_linear_difference():
    f = PX - PY
    assert diff_quotient(f, 1, (X, Y)) == 1
    assert diff_quotient(f, 2, (X, Y)) == -1


def test_diff_quotient_single_variable():
    assert diff_quotient(PX, 1, (X,)) == 1
    got = diff_quotient(PX ** 3, 1, (X,))
    xp = Polynomial.var(X.primed())
    assert got == PX ** 2 + PX * xp + xp ** 2


def test_diff_quotient_leibniz():
    rng = random.Random(5)
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


def test_diff_quotient_telescoping():
    rng = random.Random(6)
    xs = (X, Y, Z)
    for _ in range(50):
        f = rand_poly(rng, xs)
        total = Polynomial.zero()
        for i, v in enumerate(xs, start=1):
            delta = Polynomial.var(v) - Polynomial.var(v.primed())
            total = total + delta * diff_quotient(f, i, xs)
        assert total == f - t_shift(f, len(xs), xs)


def test_derivative_matches_collapsed_quotient():
    rng = random.Random(7)
    xs = (X, Y)
    collapse = {X.primed(): PX, Y.primed(): PY}
    for _ in range(40):
        f = rand_poly(rng, xs)
        for i, v in enumerate(xs, start=1):
            assert derivative(f, v) == substitute(
                diff_quotient(f, i, xs), collapse
            )


def test_diff_quotient_examples():
    xp = Polynomial.var(X.primed())
    assert diff_quotient(PX * xp, 1, (X,)) == xp
    assert diff_quotient(PX ** 2 * PY, 1, (X, Y)) == PX * PY + xp * PY
    assert diff_quotient(PX ** 2 * PY, 2, (X, Y)) == xp ** 2
    # x listed twice: both shifts prime it, so the quotient is zero
    assert diff_quotient(PX ** 2, 2, (X, X)) == 0


_DQ_POOL = (X, Y, Z, X.primed(), Y.primed())


@given(polys(variables=_DQ_POOL, max_deg=2),
       st.lists(st.sampled_from(_DQ_POOL), min_size=1, max_size=4, unique=True),
       st.data())
@settings(max_examples=80, deadline=None)
def test_diff_quotient_times_difference_is_the_shift_difference(f, xs, data):
    # f may hold primed variables, and xs comes shuffled and may list one.
    i = data.draw(st.integers(min_value=1, max_value=len(xs)))
    xi = xs[i - 1]
    delta = Polynomial.var(xi) - Polynomial.var(xi.primed())
    assert (diff_quotient(f, i, xs) * delta
            == t_shift(f, i - 1, xs) - t_shift(f, i, xs))


def test_diff_quotient_rejects_bad_index():
    with pytest.raises(IndexError):
        diff_quotient(PX, 0, (X,))
    with pytest.raises(IndexError):
        diff_quotient(PX, 2, (X,))


# ---------------------------------------------------------------------------
# Variable basics


def test_variable_ordering_and_primes():
    assert X < Y
    assert X < X.primed()
    assert str(X.primed()) == "x'"


def test_variable_name_validation():
    with pytest.raises(ValueError):
        Variable("2bad")
    with pytest.raises(ValueError):
        Variable("")
    with pytest.raises(ValueError, match="bad variable name"):
        Variable("x'")


def test_variable_is_its_name_and_prime_level_pair():
    pairs = [("x", 0), ("x", 1), ("x", 2), ("y", 0), ("x_1", 3), ("X", 1)]
    vs = [Variable(*p) for p in pairs]
    assert sorted(vs) == [Variable(*p) for p in sorted(pairs)]
    for v, p in zip(vs, pairs):
        assert v == p and tuple(v) == p
        assert hash(v) == hash(p)
        assert (v.name, v.prime_level) == p
    assert hash(Variable("x", 1)) == hash(("x", 1))
    assert Variable.__hash__ is tuple.__hash__
    assert Variable(name="x", prime_level=1) == X.primed()
    assert len({X, Variable("x"), Variable("x", 0)}) == 1


def test_variable_pickles_and_copies_as_a_variable():
    v = Variable("x_2", 3)
    copies = [copy.copy(v), copy.deepcopy(v)]
    copies += [pickle.loads(pickle.dumps(v, proto))
               for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for w in copies:
        assert type(w) is Variable and w == v and str(w) == "x_2'''"


@pytest.mark.parametrize("f", [PX ** 2 - 3 * PY + 1,
                               PX * Fraction(1, 2) - PY * Fraction(5, 6) + 2,
                               Polynomial.zero()], ids=["int", "fraction", "zero"])
def test_polynomial_pickles_and_copies_as_a_polynomial(f):
    copies = [copy.copy(f), copy.deepcopy(f)]
    copies += [pickle.loads(pickle.dumps(f, proto))
               for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for g in copies:
        assert type(g) is Polynomial and g == f and str(g) == str(f)
        assert g.den == f.den and _stored_form_ok(g)
    # Rebuilt from the terms alone, so ``den`` is derived again, not copied.
    assert f.__reduce__() == (Polynomial, (f.terms,))


def test_variable_is_read_only_and_validated():
    with pytest.raises(AttributeError):
        X.name = "y"
    with pytest.raises(AttributeError):
        X.prime_level = 1
    with pytest.raises(ValueError, match="prime_level must be >= 0"):
        Variable("x", -1)
    with pytest.raises(ValueError, match="prime_level must be >= 0"):
        Variable(name="x", prime_level=-2)


# ---------------------------------------------------------------------------
# coefficient types: an integral coefficient is an int, never a float


def _coeff_types(f):
    return {type(c) for c in f.terms.values()}


def test_integral_coefficients_are_ints():
    assert _coeff_types(Polynomial.var(X)) == {int}
    assert _coeff_types(Polynomial.const(Fraction(6, 3))) == {int}
    assert _coeff_types(parse_poly("6/3*x", ["x"])) == {int}
    assert _coeff_types(parse_poly("2*x^2 - 3*y + 7", ["x", "y"])) == {int}
    assert _coeff_types(parse_poly("1/2*x", ["x"])) == {Fraction}
    assert _coeff_types(substitute(PX ** 2 * PY, {X: PZ})) == {int}
    assert type(Polynomial.zero().constant_value()) is int
    assert type(parse_poly("x + 4/2", ["x"]).constant_value()) is int


def _stored_form_ok(f):
    """Every coefficient is an int, or a Fraction that is not integral, and
    ``den`` is the lcm of the stored denominators."""
    coeffs = f.terms.values()
    return (all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
                for c in coeffs)
            and f.den == lcm(*(c.denominator for c in coeffs)))


def test_den_is_the_lcm_of_the_denominators_and_read_only():
    f = parse_poly("1/2*x + 5/6*y + 3", ["x", "y"])
    assert f.den == 6
    assert (f * 6).den == 1 and (f * Fraction(1, 4)).den == 24
    assert PX.den == 1 and Polynomial.zero().den == 1
    assert Polynomial({(): Fraction(4, 2)}).den == 1
    with pytest.raises(AttributeError, match="immutable"):
        f.den = 1
    with pytest.raises(AttributeError, match="immutable"):
        PX.den = 2
    for name in ("den", "terms"):
        with pytest.raises(AttributeError, match="immutable"):
            delattr(f, name)
    assert f.den == 6 and PX.den == 1 and f * 6 == parse_poly("3*x + 5*y + 18", ["x", "y"])


def test_ring_operations_store_integral_coefficients_as_ints():
    half, third = PX * Fraction(1, 2), PY * Fraction(2, 3)
    assert (half + half).terms == {((X, 1),): 1}
    assert _coeff_types(half + half) == {int}
    assert _coeff_types(third * (PX * Fraction(3, 2))) == {int}
    assert _coeff_types(half * 2) == {int}
    assert _coeff_types(Polynomial({(): Fraction(4, 2)})) == {int}


@pytest.mark.parametrize("value", [0.5, 0.0, "1", "1/2"])
def test_constructor_refuses_a_value_that_is_not_exact(value):
    with pytest.raises(TypeError, match="ints or Fractions"):
        Polynomial({(): value})
    with pytest.raises(TypeError, match="ints or Fractions"):
        Polynomial.const(value)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys().filter(bool),
       st.fractions(min_value=-4, max_value=4, max_denominator=4),
       st.integers(min_value=0, max_value=3))
def test_every_operation_stores_integral_coefficients_as_ints(f, g, h, c, k):
    a = mx.from_rows([[f, g], [h, 0]])
    b = mx.from_rows([[g, 0], [f, h]])
    results = [
        f + g, f - g, -f, f * g, f * c, c * f, f ** k,
        substitute(f, {X: g, Y: h}), derivative(f, X),
        diff_quotient(f, 1, (X, Y)), diff_quotient(f, 2, (X, Y)),
        *sum_of_products([[(f, g), (g, h)], [(h, f)]]),
    ]
    for m in (mx.scale(a, c), mx.mul(a, b), mx.kron(a, b)):
        results += [e for row in m for e in row]
    assert all(_stored_form_ok(r) for r in [f, g, h] + results)


# ---------------------------------------------------------------------------
# the multiplication kernel against term-by-term Fraction arithmetic

MIXED_COEFFS = st.one_of(st.integers(min_value=-3, max_value=3),
                         st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def mixed_polys(draw):
    """Int and Fraction coefficients on few enough monomials over x and y
    that term products collide, and often cancel or sum to integers."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        mono = tuple((v, e) for v in (X, Y)
                     if (e := draw(st.integers(min_value=0, max_value=2))))
        terms[mono] = draw(MIXED_COEFFS)
    return Polynomial(terms)


HALF, THIRD = Fraction(1, 2), Fraction(1, 3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(mixed_polys(), mixed_polys()), max_size=4),
       st.integers(min_value=0, max_value=4))
# Products that cancel to 0, and rational ones that sum to integers.
@example([(PX * HALF, PY * 2 * THIRD), (PX * -THIRD, PY)], 0)
@example([(PX * HALF, PX * HALF), (PX * 3 * HALF * HALF, PX)], 0)
@example([(Polynomial.const(3 * HALF), Polynomial.const(2 * THIRD))], 0)
@example([(PX + HALF, PX - HALF), (PY * THIRD, PY * 3)], 1)
def test_kernel_matches_the_fraction_reference(pairs, cancelled):
    """sum_of_products and Polynomial.__mul__ give the reference's values in
    the stored form; the first ``cancelled`` pairs are repeated negated, so
    their products cancel to 0."""
    pairs = pairs + [(x, -y) for x, y in pairs[:cancelled]]
    [got] = sum_of_products([pairs])
    assert got.terms == ref_sum_of_products(pairs)
    assert _stored_form_ok(got)
    for x, y in pairs:
        prod = x * y
        assert prod.terms == ref_sum_of_products([(x, y)])
        assert _stored_form_ok(prod)


def test_kernel_cancels_to_zero_and_to_integers():
    zero, whole = sum_of_products([
        [(PX * HALF, PY * 2 * THIRD), (PX * -THIRD, PY)],
        [(PX * HALF, PX * HALF), (PX * 3 * HALF * HALF, PX)],
    ])
    assert zero.terms == {}
    assert whole.terms == {((X, 2),): 1} and type(whole.terms[((X, 2),)]) is int
    assert whole.den == 1
    assert (Polynomial.const(3 * HALF) * Polynomial.const(2 * THIRD)).terms == {(): 1}
    mixed = (PX + HALF) * (PX - HALF)
    assert mixed.terms == {((X, 2),): 1, (): Fraction(-1, 4)} and mixed.den == 4


def test_unitor_bundle_has_no_float_coefficient():
    f = PX ** 3 * Fraction(2, 3) + PY ** 3 - PX * PY
    w = Variable("w")
    g = Polynomial.var(w) ** 3
    x = make_factorization([[1]], [[g - f]], g - f)
    b, u = unitor_right(x, f, (X, Y)), koszul_unit(f, (X, Y))
    mats = (b.z.p, b.z.q, b.rho.alpha, b.rho.beta, b.psi.alpha, b.psi.beta,
            u.mf.p, u.mf.q)
    seen = set()
    for m in mats:
        for row in m:
            for e in row:
                seen |= _coeff_types(e)
    seen |= _coeff_types(b.z.potential)
    assert seen <= {int, Fraction}
    assert int in seen and Fraction in seen


# ---------------------------------------------------------------------------
# the kernel's two monomial paths: merged tuples and packed ints

XP = X.primed()
PATHS = pytest.mark.parametrize("path", ["tuple", "packed"])


def mono(*factors, c=1):
    """c times the product of the (variable, exponent) factors."""
    return Polynomial({tuple(sorted(factors)): c})


@st.composite
def shared_batches(draw):
    """A batch whose operands come from a small pool, so one object occurs
    in several pairs and on both sides; monomials over x < x' < y with
    exponents up to 7, so exponent sums fill and overflow 3-bit fields."""
    pool = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        terms = {}
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            mono_ = tuple((v, e) for v in (X, XP, Y)
                          if (e := draw(st.integers(min_value=0, max_value=7))))
            terms[mono_] = draw(MIXED_COEFFS)
        pool.append(Polynomial(terms))
    index = st.integers(min_value=0, max_value=len(pool) - 1)
    entries = draw(st.lists(st.lists(st.tuples(index, index), max_size=4), max_size=4))
    return [[(pool[i], pool[j]) for i, j in entry] for entry in entries]


@settings(max_examples=150, deadline=None)
@given(shared_batches(), st.sampled_from(["tuple", "packed"]))
def test_both_kernel_paths_match_the_fraction_reference(batch, path):
    with kernel_path(path):
        got = sum_of_products(batch, *kernel_counts(batch))
    assert len(got) == len(batch)
    for entry, pairs in zip(got, batch):
        assert entry.terms == ref_sum_of_products(pairs)
        assert _stored_form_ok(entry)


KERNEL_CASES = {
    # x: 3 + 4 = 7 fills a 3-bit field; y: 1 + 3 = 4 needs a third bit.
    "field_filled": [(mono((X, 3), (Y, 1)), mono((X, 4), (Y, 3)))],
    "one_more_bit": [(mono((X, 4), (Y, 1)), mono((X, 4), (Y, 1)))],
    "x7_times_x": [(mono((X, 7), (XP, 1), (Y, 2)), mono((X, 1), (XP, 3), (Y, 1)))],
    "x_xprime_y": [(mono((X, 1), (Y, 1)), mono((XP, 1))),
                   (mono((XP, 2)), mono((X, 1), (Y, 1), c=-3))],
    "constants": [(Polynomial.const(3), PX), (PX + PY, Polynomial.const(HALF)),
                  (Polynomial.const(THIRD), Polynomial.const(6))],
    "zero_operands": [(Polynomial.zero(), PX), (PX, PY), (PY, Polynomial.zero())],
    "cancels_to_zero": [(PX + PY, PX - PY), (PY, PY), (-PX, PX)],
    "mixed_denominators": [(PX * HALF + PY * THIRD, PX * Fraction(1, 5)),
                           (PY * Fraction(1, 7), Polynomial.const(3)),
                           (PX, PX * Fraction(3, 10))],
    "no_pairs": [],
}


@PATHS
@pytest.mark.parametrize("name", KERNEL_CASES)
def test_kernel_paths_on_edge_cases(name, path):
    pairs = KERNEL_CASES[name]
    with kernel_path(path):
        [got] = sum_of_products([pairs], *kernel_counts([pairs]))
    assert got.terms == ref_sum_of_products(pairs)
    assert _stored_form_ok(got)


@PATHS
def test_kernel_paths_keep_entries_apart_and_in_order(path):
    x2y, x3 = mono((X, 2), (Y, 1)), mono((X, 3), c=THIRD)
    batch = [[(x2y, x3)], [], [(x3, x3), (x3, -x3)], [(x2y, PY), (PX, x2y)]]
    with kernel_path(path):
        got = sum_of_products(batch, *kernel_counts(batch))
    assert [g.terms for g in got] == [ref_sum_of_products(p) for p in batch]
    assert got[1].terms == got[2].terms == {}
    with kernel_path(path):
        assert sum_of_products([], 0, 0) == []


# ---------------------------------------------------------------------------
# closed-form oracles for dense products


# Powers multiply one factor at a time, which the kernel's counts keep on the
# tuple path; both paths are run here.
@PATHS
@pytest.mark.parametrize("k", range(31))
def test_binomial_powers_hold_the_binomial_coefficients(k, path):
    with kernel_path(path):
        f = parse_poly(f"(x+y)^{k}", ["x", "y"])
    want = {tuple((v, e) for v, e in ((X, i), (Y, k - i)) if e): comb(k, i)
            for i in range(k + 1)}
    assert f.terms == want


@PATHS
@pytest.mark.parametrize("k", range(31))
def test_trinomial_powers_hold_the_multinomial_coefficients(k, path):
    with kernel_path(path):
        f = parse_poly(f"(x+y+z)^{k}", ["x", "y", "z"])
    want = {}
    for i in range(k + 1):
        for j in range(k + 1 - i):
            mono_ = tuple((v, e) for v, e in ((X, i), (Y, j), (Z, k - i - j)) if e)
            want[mono_] = factorial(k) // (factorial(i) * factorial(j) * factorial(k - i - j))
    assert f.terms == want
