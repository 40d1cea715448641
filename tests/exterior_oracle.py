"""The element-level exterior algebra: the oracle for ``mfkit.exterior``'s
word maps and for ``mfkit.unit``'s matrices.

An element maps ascending words over 1..n to nonzero polynomial coefficients
in K[x, x'].  Every operation writes out its own anticommutation sign; none
calls ``mfkit.exterior.delete`` or ``insert``, so checking those maps (or the
matrices built from them) against this module checks two implementations of
the sign rule against each other:

* ``wedge(i, e)``     -- left multiplication by t_i, insertion sign
                         (-1)^(number of indices in the word below i);
* ``contract(i, e)``  -- the odd derivation t_i^* with sign (-1)^(p+1),
                         p the 1-based position of i in the word;
* ``koszul_diff(f, e)`` -- sum over i of
                         (x_i - x_i')*contract(i, e) + d_i(f)*wedge(i, e),
  the differential whose square is multiplication by f(x) - f(x').
"""

from __future__ import annotations

from mfkit.poly import Polynomial, as_poly, diff_quotient, unprimed_vars


class ExtElement:
    """Immutable exterior-algebra element: {ascending word -> Polynomial}."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        if n < 0:
            raise ValueError("generator count must be >= 0")
        clean = {}
        for word, c in (terms or {}).items():
            word = tuple(word)
            if list(word) != sorted(set(word)):
                raise ValueError(f"word {word} is not strictly ascending")
            if word and not (1 <= word[0] and word[-1] <= n):
                raise ValueError(f"word {word} out of range 1..{n}")
            c = as_poly(c)
            if c:
                clean[word] = clean.get(word, Polynomial.zero()) + c
        clean = {w: c for w, c in clean.items() if c}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("ExtElement is immutable")

    @staticmethod
    def zero(n: int) -> "ExtElement":
        return ExtElement(n, {})

    @staticmethod
    def word(n: int, indices, coeff=1) -> "ExtElement":
        return ExtElement(n, {tuple(indices): as_poly(coeff)})

    def coeff(self, word) -> Polynomial:
        return self.terms.get(tuple(word), Polynomial.zero())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other: "ExtElement") -> "ExtElement":
        if self.n != other.n:
            raise ValueError("generator counts differ")
        acc = dict(self.terms)
        for w, c in other.terms.items():
            acc[w] = acc.get(w, Polynomial.zero()) + c
        return ExtElement(self.n, acc)

    def __neg__(self) -> "ExtElement":
        return ExtElement(self.n, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "ExtElement") -> "ExtElement":
        return self + (-other)

    def scale(self, c) -> "ExtElement":
        c = as_poly(c)
        return ExtElement(self.n, {w: cc * c for w, cc in self.terms.items()})

    def parity_part(self, parity: int) -> "ExtElement":
        """Terms whose word length is == parity mod 2."""
        return ExtElement(
            self.n, {w: c for w, c in self.terms.items() if len(w) % 2 == parity % 2}
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            word_s = "^".join(f"t{i}" for i in w) if w else "1"
            bits.append(f"({self.terms[w]}) * {word_s}")
        return " + ".join(bits)


def _check_index(i: int, n: int) -> None:
    if not 1 <= i <= n:
        raise IndexError(f"generator index {i} out of range 1..{n}")


def wedge(i: int, e: ExtElement) -> ExtElement:
    """Left wedge by t_i; words already containing i are annihilated."""
    _check_index(i, e.n)
    acc = {}
    for w, c in e.terms.items():
        if i in w:
            continue
        below = sum(1 for j in w if j < i)
        new = tuple(sorted(w + (i,)))
        sign = -1 if below % 2 else 1
        acc[new] = acc.get(new, Polynomial.zero()) + c * sign
    return ExtElement(e.n, acc)


def contract(i: int, e: ExtElement) -> ExtElement:
    """The contraction t_i^*: delete i with sign (-1)^(p+1), p its position."""
    _check_index(i, e.n)
    acc = {}
    for w, c in e.terms.items():
        if i not in w:
            continue
        p = w.index(i) + 1
        new = tuple(j for j in w if j != i)
        sign = 1 if p % 2 else -1
        acc[new] = acc.get(new, Polynomial.zero()) + c * sign
    return ExtElement(e.n, acc)


def koszul_diff(f: Polynomial, e: ExtElement, xvars=None) -> ExtElement:
    """d(e) = sum_i [(x_i - x_i')*contract(i, e) + d_i(f)*wedge(i, e)].

    ``xvars`` ties generator i to a variable; it defaults to f's own unprimed
    variables and must have length e.n.  Every output term has parity
    opposite to the input term it came from, and d(d(e)) = (f(x)-f(x'))*e.
    """
    if any(v.prime_level != 0 for v in f.vars):
        raise ValueError("potential must use unprimed variables only")
    xs = tuple(xvars) if xvars is not None else unprimed_vars(f)
    if len(xs) != e.n:
        raise ValueError(
            f"variable list has length {len(xs)} but element has {e.n} generators"
        )
    out = ExtElement.zero(e.n)
    for i, xi in enumerate(xs, start=1):
        lin = Polynomial.var(xi) - Polynomial.var(xi.primed())
        out = out + contract(i, e).scale(lin)
        out = out + wedge(i, e).scale(diff_quotient(f, i, xs))
    return out
