import random

import pytest

from mfkit.exterior import delete, even_words, insert, odd_words, theta_words
from mfkit.poly import Polynomial, diff_quotient, substitute

from conftest import PX, PY, X, Y, Z, rand_poly
from exterior_oracle import ExtElement, contract, koszul_diff, wedge


def test_theta_words_order():
    assert theta_words(3) == [
        (),
        (1,),
        (2,),
        (3,),
        (1, 2),
        (1, 3),
        (2, 3),
        (1, 2, 3),
    ]


def test_even_odd_split():
    assert even_words(2) == [(), (1, 2)]
    assert odd_words(2) == [(1,), (2,)]
    assert len(even_words(3)) == len(odd_words(3)) == 4


def test_element_rejects_unsorted_word():
    with pytest.raises(ValueError):
        ExtElement(3, {(2, 1): 1})
    with pytest.raises(ValueError):
        ExtElement(2, {(1, 3): 1})


def test_element_drops_zero_coefficients():
    e = ExtElement(2, {(1,): PX - PX})
    assert not e
    assert e == ExtElement.zero(2)


def test_parity_part():
    e = ExtElement(2, {(): 1, (1,): 2, (1, 2): 3})
    assert e.parity_part(0) == ExtElement(2, {(): 1, (1, 2): 3})
    assert e.parity_part(1) == ExtElement(2, {(1,): 2})


# ---------------------------------------------------------------------------
# wedge and contraction


def test_wedge_squares_to_zero():
    assert not wedge(1, ExtElement.word(3, (1,)))


def test_wedge_anticommutation_example():
    assert wedge(2, ExtElement.word(3, (1,))) == ExtElement(3, {(1, 2): -1})


def test_wedge_front_insertion():
    assert wedge(1, ExtElement.word(3, (2, 3))) == ExtElement.word(3, (1, 2, 3))


def test_contract_worked_example():
    # position of 4 in t2^t4^t7 is 2, so the sign is -1
    got = contract(4, ExtElement.word(7, (2, 4, 7)))
    assert got == ExtElement(7, {(2, 7): -1})


def test_contract_delta():
    assert contract(1, ExtElement.word(2, (1,))) == ExtElement.word(2, ())
    assert not contract(2, ExtElement.word(2, (1,)))


def test_index_out_of_range():
    e = ExtElement.word(2, (1,))
    with pytest.raises(IndexError):
        wedge(3, e)
    with pytest.raises(IndexError):
        contract(0, e)


@pytest.mark.parametrize("n", range(7))
def test_word_maps_match_the_oracle(n):
    # A word map's image and sign is the oracle's single output term; the
    # map the oracle sends to zero is refused.
    for w in theta_words(n):
        e = ExtElement.word(n, w)
        for i in range(1, n + 1):
            if i in w:
                got, refused = delete(i, w), insert
                term, zero = contract(i, e), wedge(i, e)
            else:
                got, refused = insert(i, w), delete
                term, zero = wedge(i, e), contract(i, e)
            assert not zero
            with pytest.raises(ValueError):
                refused(i, w)
            [(image, coeff)] = term.terms.items()
            assert coeff in (1, -1)
            assert got == (image, 0 if coeff == 1 else 1)


def test_wedge_anticommutes_as_operator():
    for n in (2, 3):
        for w in theta_words(n):
            e = ExtElement.word(n, w)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    lhs = wedge(i, wedge(j, e))
                    rhs = wedge(j, wedge(i, e))
                    assert lhs == -rhs


def test_contract_twice_is_zero():
    for n in (1, 2, 3):
        for w in theta_words(n):
            e = ExtElement.word(n, w)
            for i in range(1, n + 1):
                assert not contract(i, contract(i, e))


def test_wedge_contract_flip_parity():
    for w in theta_words(3):
        e = ExtElement.word(3, w)
        start = len(w) % 2
        for i in (1, 2, 3):
            for out in (wedge(i, e), contract(i, e)):
                assert not out.parity_part(start)


# ---------------------------------------------------------------------------
# the differential


def test_koszul_diff_linear_potential():
    # f = x on one generator: d(h*t1) = (x - x')*h
    e = ExtElement.word(1, (1,))
    got = koszul_diff(PX, e)
    xp = Polynomial.var(X.primed())
    assert got == ExtElement(1, {(): PX - xp})


def test_koszul_diff_empty_word():
    got = koszul_diff(PX - PY, ExtElement.word(2, ()), (X, Y))
    assert got == ExtElement(2, {(1,): 1, (2,): -1})


def test_koszul_diff_top_word():
    got = koszul_diff(PX - PY, ExtElement.word(2, (1, 2)), (X, Y))
    xp, yp = Polynomial.var(X.primed()), Polynomial.var(Y.primed())
    assert got == ExtElement(2, {(2,): PX - xp, (1,): -(PY - yp)})


def test_koszul_diff_rejects_primed_potential():
    xp = Polynomial.var(X.primed())
    with pytest.raises(ValueError):
        koszul_diff(PX - xp, ExtElement.word(1, (1,)))


def test_koszul_diff_squares_to_potential_difference():
    rng = random.Random(31)
    for xs in ((X,), (X, Y), (X, Y, Z)):
        n = len(xs)
        for _ in range(12):
            f = rand_poly(rng, xs, max_deg=4)
            jump = f - substitute(
                f, {v: Polynomial.var(v.primed()) for v in xs}
            )
            for w in theta_words(n):
                e = ExtElement.word(n, w)
                dd = koszul_diff(f, koszul_diff(f, e, xs), xs)
                assert dd == e.scale(jump)


def _ab_operators(f, xs):
    def a(i, e):
        lin = Polynomial.var(xs[i - 1]) - Polynomial.var(xs[i - 1].primed())
        return contract(i, e).scale(lin)

    def b(i, e):
        return wedge(i, e).scale(diff_quotient(f, i, xs))

    return a, b


def test_operator_algebra():
    """The five anticommutation relations plus the diagonal identity."""
    rng = random.Random(32)
    for xs in ((X,), (X, Y), (X, Y, Z)):
        n = len(xs)
        f = rand_poly(rng, xs, max_deg=3, nonzero=True)
        a, b = _ab_operators(f, xs)
        for w in theta_words(n):
            e = ExtElement.word(n, w)
            for i in range(1, n + 1):
                assert not a(i, a(i, e))
                assert not b(i, b(i, e))
                lin = Polynomial.var(xs[i - 1]) - Polynomial.var(
                    xs[i - 1].primed()
                )
                scale = lin * diff_quotient(f, i, xs)
                assert a(i, b(i, e)) + b(i, a(i, e)) == e.scale(scale)
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    assert a(i, a(j, e)) == -a(j, a(i, e))
                    assert b(i, b(j, e)) == -b(j, b(i, e))
                    assert a(i, b(j, e)) == -b(j, a(i, e))


def test_projection_of_differential_collapses_to_zero():
    # theta-degree-0 component of d(w), with x' -> x, vanishes for every w
    rng = random.Random(33)
    for xs in ((X,), (X, Y), (X, Y, Z)):
        n = len(xs)
        f = rand_poly(rng, xs, nonzero=True)
        collapse = {v.primed(): Polynomial.var(v) for v in xs}
        for w in theta_words(n):
            d = koszul_diff(f, ExtElement.word(n, w), xs)
            scalar = d.coeff(())
            assert not substitute(scalar, collapse)
