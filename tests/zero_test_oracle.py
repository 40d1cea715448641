"""A naive zero test: the oracle for ``mfkit.matrices.first_difference``.

``first_difference`` decides sum(sign * a*b) = w*I (or = 0), with a w of
its own for each equation where it is given a tuple of them, on packed
monomials, with handed signed rows, an integral fast path and atom pairs
grouped under bitmask keys.  This module decides the same equations from
the matrices' entries alone: it reads ``Polynomial.terms``, keeps each
monomial a sorted tuple of ``(variable, exponent)`` and each coefficient the
stored int or ``Fraction``, and sums every entry of every product, exactly,
term product by term product.  It imports none of ``poly``'s kernels or
``matrices``' helpers, so the two share no code.  ``conftest.py`` checks
every call the test suite makes against it.
"""


def ref_mono_mul(a, b):
    """Monomial product by merging exponents in a dict, with no shortcut."""
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def ref_first_difference(equations, w=None):
    """``(k, i, j)`` of the first entry, in row-major order, where equation
    k, the first that fails, does not hold; or None where all hold.  An
    equation is a list of ``(a, b, sign)`` terms, of valid shapes, and reads
    sum(sign * a*b) = w*I when its ``w`` is given, else = 0.  ``w`` is one
    polynomial (or None) for every equation, or a tuple of one per
    equation."""
    ws = list(w) if type(w) is tuple else [w] * len(equations)
    assert len(ws) == len(equations), (len(ws), len(equations))
    for k, (terms, w) in enumerate(zip(equations, ws)):
        first_a, first_b, _ = terms[0]
        for i in range(len(first_a)):
            for j in range(len(first_b[0]) if first_b else 0):
                acc = {}
                for a, b, sign in terms:
                    for left, b_row in zip(a[i], b):
                        for m1, c1 in left.terms.items():
                            for m2, c2 in b_row[j].terms.items():
                                m = ref_mono_mul(m1, m2)
                                acc[m] = acc.get(m, 0) + sign * c1 * c2
                if w is not None and i == j:
                    for m, c in w.terms.items():
                        acc[m] = acc.get(m, 0) - c
                if any(acc.values()):
                    return k, i, j
    return None
