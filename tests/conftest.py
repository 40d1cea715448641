"""Shared builders for the test suite, and the zero-test oracle.

Random objects are always drawn from a caller-seeded random.Random so that
every test run sees the same sample; hypothesis covers the genuinely
randomized side.

Every test runs with ``matrices.first_difference`` wrapped: each verdict it
returns is re-decided by ``zero_test_oracle.ref_first_difference`` and must
be the same.  A test that sets ``first_difference`` itself replaces the
wrapper for its own run.  A replacement that calls the function it found
(a recorder) still calls the wrapper, so its verdicts are still checked; one
that returns a made-up verdict is not checked, since it tests what happens
when the zero test is wrong.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import pytest

from mfkit import matrices as mx
from mfkit import poly
from mfkit.poly import Polynomial, Variable
from mfkit import direct_sum, make_factorization
from zero_test_oracle import ref_first_difference, ref_mono_mul

X = Variable("x")
Y = Variable("y")
Z = Variable("z")

PX = Polynomial.var(X)
PY = Polynomial.var(Y)
PZ = Polynomial.var(Z)


@pytest.fixture(autouse=True)
def zero_test_oracle(monkeypatch):
    """Check every verdict of ``matrices.first_difference`` against the
    naive oracle (see the module docstring).  A disagreement raises at the
    call, and fails the test at teardown too, in case the code under test
    caught the error (the CLI turns some into exit codes)."""
    real = mx.first_difference
    disagreements = []

    def checked(*equations, w=None, **kwargs):
        got = real(*equations, w=w, **kwargs)
        want = ref_first_difference(equations, w)
        if got != want:
            disagreements.append((got, want))
            raise AssertionError(f"the zero test gave {got}, its oracle {want}")
        return got

    monkeypatch.setattr(mx, "first_difference", checked)
    yield
    assert not disagreements, f"(zero test, oracle) disagreed: {disagreements}"


def ref_sum_of_products(pairs):
    """The term map of the sum of x*y over (x, y), term product by term
    product in ``Fraction`` arithmetic, without the library's multiplication
    or its common denominator.  Its values equal the stored ints and
    Fractions they should be; the stored types are checked apart."""
    acc = {}
    for x, y in pairs:
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                m = ref_mono_mul(m1, m2)
                acc[m] = acc.get(m, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {m: c for m, c in acc.items() if c}


def kernel_counts(batch):
    """The counts ``sum_of_products`` chooses its path by: the batch's term
    products, and its operands' terms with each pair's operands counted."""
    pairs = [pair for entry in batch for pair in entry]
    return (sum(len(x.terms) * len(y.terms) for x, y in pairs),
            sum(len(x.terms) + len(y.terms) for x, y in pairs))


@contextmanager
def kernel_path(path):
    """Run ``sum_of_products`` on one monomial path, "tuple" or "packed":
    a ``PACK_RATIO`` of 0 packs every batch with a term product, an
    infinite one none.  ``PACK_RATIO`` chooses only how products are
    built: the zero tests of ``matrices`` have one packed path, so under
    either setting they run the same code."""
    saved = poly.PACK_RATIO
    poly.PACK_RATIO = 0 if path == "packed" else math.inf
    try:
        yield
    finally:
        poly.PACK_RATIO = saved


def rand_poly(rng, variables, max_terms=3, max_deg=3, nonzero=False):
    """Small random polynomial in the given variables."""
    out = Polynomial.zero()
    for _ in range(rng.randint(0, max_terms)):
        term = Polynomial.const(Fraction(rng.randint(-4, 4)))
        for _ in range(rng.randint(0, max_deg)):
            term = term * Polynomial.var(rng.choice(variables))
        out = out + term
    if nonzero and not out:
        out = Polynomial.var(rng.choice(variables)) + rng.randint(1, 3)
    return out


def rand_factorization(rng, variables, max_size=2):
    """Random factorization of block rank <= max_size over the variables.

    Shapes drawn: rank one (u, v); the anti-diagonal 2x2 self-pair; and the
    rank-two diagonal sum of (u, v) with (v, u).  All have potential u*v.
    """
    u = rand_poly(rng, variables, nonzero=True)
    v = rand_poly(rng, variables, nonzero=True)
    shapes = ["rank1"]
    if max_size >= 2:
        shapes += ["antidiag", "diagsum"]
    shape = rng.choice(shapes)
    if shape == "rank1":
        return make_factorization([[u]], [[v]], u * v)
    if shape == "antidiag":
        m = [[Polynomial.zero(), u], [v, Polynomial.zero()]]
        return make_factorization(m, m, u * v)
    return direct_sum(
        make_factorization([[u]], [[v]], u * v),
        make_factorization([[v]], [[u]], u * v),
    )


def walked_vars(p, q, potential, extra=()):
    """The sorted variables of every entry of p and q, of the potential and
    of ``extra``, read slot by slot."""
    vs = set(extra)
    for m in (p, q):
        for row in m:
            for e in row:
                vs.update(e.vars)
    vs.update(potential.vars)
    return tuple(sorted(vs))


def record_factorizations(monkeypatch, module):
    """A list that gets ``(p, q, potential, extra_vars, handed rows,
    result)`` for each ``make_factorization`` call ``module`` makes from
    here on; the handed rows are None where the caller hands none."""
    calls = []
    real = module.make_factorization

    def record(p, q, potential, extra_vars=None, **kwargs):
        mf = real(p, q, potential, extra_vars, **kwargs)
        calls.append((p, q, potential, extra_vars, kwargs.get("_rows"), mf))
        return mf

    monkeypatch.setattr(module, "make_factorization", record)
    return calls


def rebuilt(rows, cols):
    """The matrix with ``cols`` columns whose rows have the nonzero
    ``(column, atom, sign)`` lists ``rows``: sign * atom there, 0 elsewhere."""
    out = [[Polynomial.zero()] * cols for _ in rows]
    for i, row in enumerate(rows):
        for j, a, s in row:
            out[i][j] = a if s == 1 else -a
    return mx.from_rows(out)


def check_handed_rows(calls):
    """Each recorded builder handed the check signed rows ``(column, atom,
    sign)`` over the atoms it handed, in column order, and returned the P
    and Q it checked: the matrices rebuilt from those rows.  An entry of
    sign 1 is its atom's own object, one of sign -1 is the one negation of
    its atom in P and Q, and the result's ``vars`` are those of a
    slot-by-slot walk."""
    assert calls
    for p, q, potential, extra, rows, mf in calls:
        assert rows is not None
        p_rows, q_rows, atoms = rows
        seen, negs = {}, {}
        for m, m_rows in zip((p, q), (p_rows, q_rows)):
            assert m == rebuilt(m_rows, len(m[0]))
            for i, row in enumerate(m_rows):
                assert [j for j, _, _ in row] == sorted({j for j, _, _ in row})
                for j, a, s in row:
                    assert a.terms and s in (1, -1)
                    seen[id(a)] = a
                    if s == 1:
                        assert m[i][j] is a
                    else:
                        assert negs.setdefault(id(a), m[i][j]) is m[i][j]
        assert seen == atoms and all(seen[k] is a for k, a in atoms.items())
        assert mf.p is p and mf.q is q
        assert mf.vars == walked_vars(p, q, potential, extra or ())
