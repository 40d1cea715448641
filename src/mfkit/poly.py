"""Exact multivariate polynomial arithmetic over Q, with doubled variables.

A polynomial is stored sparsely as a map from monomials to nonzero
coefficients.  The ``Polynomial`` constructor, and nothing else, fixes a
coefficient's stored form: an ``int`` where it is integral, else a
``Fraction``, so integral terms do not pay for ``Fraction`` arithmetic.  In
the same pass it records ``den``, the lcm of the stored denominators (1 when
every coefficient is an ``int``), a second slot derived from the terms.  A
monomial names its own variables: it is a tuple of
``(Variable, exponent)`` pairs with every exponent >= 1, sorted by variable,
and ``()`` is the constant monomial.  A variable is a base name plus a prime
level (``x`` vs ``x'``), stored as the plain pair ``(name, prime_level)`` so
that hashing and comparing monomials runs in C.  No zero exponent and no zero
coefficient is ever stored, so the form is unique by construction -- two
equal polynomials are structurally identical, which the byte-exact printing
contract relies on -- and operands over different variables need no
alignment: a sum merges two term maps, a product merges monomials.  ``vars``,
the sorted variables that occur, is derived from the terms.  Disjointness
checks, where they matter, live at the matrix-factorization level.

Term order is observable in two places only: the printer and the unknown
order of the homotopy solver.  Each converts terms to dense exponent vectors
over sorted variables with ``Polynomial.dense_terms`` and orders those
graded-lex.

Besides ring operations this module provides:

* ``sum_of_products``, the one multiplication kernel.  It takes a batch,
  the pair lists of every entry of one matrix product, and returns each
  entry's sum of x*y, accumulated in one term map.  Rational operands are
  scaled to integer numerators once per batch, over each entry's common
  denominator, and each output term is divided once instead of normalising
  a ``Fraction`` per term product.  When the caller's counts show enough
  term products per operand term (``PACK_RATIO``), each operand is encoded
  once as packed exponent ints (Monagan and Pearce, CASC 2007), so a
  monomial product is one integer addition.  ``matrices.mul`` calls it
  once per product, and ``Polynomial.__mul__`` makes the same choice for
  its one pair from the two term counts,
* ``_pack``, that encoding: packed monomials with integer numerators, in
  fields wide enough for the product of any two of the encoded
  polynomials.  The zero tests of ``matrices`` (the eager checks of
  ``matfac``) always run on it, whatever ``PACK_RATIO`` says,
* ``parse_poly`` / canonical printing for the expression grammar used by the
  CLI and the JSON file format,
* ``substitute`` (simultaneous), and the prime-shift maps ``t_shift`` that
  replace x_1..x_k by their primed twins by renaming monomials,
* ``diff_quotient``, the difference quotient
  d_i(f) = [(t_1..t_{i-1} f) - (t_1..t_i f)] / (x_i - x_i'), computed term by
  term in closed form, which collapses to the partial derivative on the
  diagonal x' = x.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import itemgetter

# Names used only in annotations, which ``from __future__ import annotations``
# leaves unevaluated, so no CLI start-up pays for importing ``typing``.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Mapping, Union

    Scalar = Union[int, Fraction]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Variable(tuple):
    """A polynomial variable: base name plus prime level (x, x', x'', ...).

    A ``Variable`` is the 2-tuple ``(name, prime_level)``, so it hashes,
    compares and orders as that tuple, all in C.  Ordering is by
    (name, prime_level); the monomial order and therefore every printed
    artifact depends on it.
    """

    __slots__ = ()

    def __new__(cls, name: str, prime_level: int = 0) -> "Variable":
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"bad variable name {name!r}")
        if prime_level < 0:
            raise ValueError("prime_level must be >= 0")
        return tuple.__new__(cls, (name, prime_level))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    name = property(itemgetter(0), doc="The base name.")
    prime_level = property(itemgetter(1), doc="The number of primes.")

    def primed(self) -> "Variable":
        return Variable(self.name, self.prime_level + 1)

    def __str__(self) -> str:
        return self.name + "'" * self.prime_level

    def __repr__(self) -> str:
        return f"Variable({str(self)!r})"


def _mono_mul(a: tuple, b: tuple) -> tuple:
    """Product of two monomials: exponents of shared variables add."""
    if not a:
        return b
    if not b:
        return a
    # Every variable of one before every variable of the other (disjoint
    # tensor factors, x against x'): the concatenation is already sorted.
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    if len(a) == 1 == len(b):  # one shared variable: x^i * x^j
        return ((a[0][0], a[0][1] + b[0][1]),)
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


class Polynomial:
    """Immutable sparse polynomial: ``terms`` maps monomials to coefficients,
    and ``den`` is the lcm of their denominators (1 when all are integral)."""

    __slots__ = ("terms", "den")

    def __init__(self, terms: Mapping = None):
        """Keys are monomials and values ints or Fractions.  Zeros are dropped,
        an integral ``Fraction`` is stored as an ``int``, and any other value
        (a float, a str) raises ``TypeError``."""
        # A loop: a 3.11 comprehension's call outweighs the 1-2 terms of most maps.
        kept = {}
        den = 1
        try:
            for m, c in (terms or {}).items():
                if type(c) is not int:
                    d = c.denominator
                    if d == 1:
                        c = c.numerator
                    else:
                        den = lcm(den, d)
                if c:
                    kept[m] = c
        except AttributeError:
            raise TypeError("coefficients must be ints or Fractions") from None
        _set_terms(self, kept)
        _set_den(self, den)

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # Rebuilt through the constructor, so ``den`` is derived again.
        return (Polynomial, (self.terms,))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def const(c: Scalar) -> "Polynomial":
        return Polynomial({(): c})

    @staticmethod
    def var(v: Variable) -> "Polynomial":
        return Polynomial({((v, 1),): 1})

    @staticmethod
    def from_dense(variables: tuple, terms: Mapping) -> "Polynomial":
        """Inverse of ``dense_terms`` over the same sorted ``variables``."""
        return Polynomial({
            tuple((v, e) for v, e in zip(variables, vec) if e): c
            for vec, c in terms.items()
        })

    # -- structure ---------------------------------------------------------

    @property
    def vars(self) -> tuple:
        """The variables that occur, sorted."""
        return tuple(sorted({v for m in self.terms for v, _ in m}))

    def dense_terms(self, variables: tuple) -> dict:
        """``terms`` keyed by exponent vectors over ``variables``, a sorted
        tuple containing ``vars``; graded-lex order compares these vectors."""
        index = {v: i for i, v in enumerate(variables)}
        out = {}
        for mono, c in self.terms.items():
            vec = [0] * len(variables)
            for v, e in mono:
                vec[index[v]] = e
            out[tuple(vec)] = c
        return out

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        # Polynomial first: ``isinstance(x, Fraction)`` goes through the
        # slower ABC check, and most comparisons are polynomial to polynomial.
        if isinstance(other, Polynomial):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Polynomial.const(other).terms
        return NotImplemented

    def __hash__(self) -> int:
        # A constant or zero polynomial equals its coefficient, so it hashes
        # as that coefficient.
        terms = self.terms
        if len(terms) > 1 or (terms and () not in terms):
            return hash(frozenset(terms.items()))
        return hash(terms.get((), 0))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e for _, e in m) for m in self.terms), default=-1)

    def constant_value(self) -> Scalar:
        """The coefficient of the empty monomial."""
        return self.terms.get((), 0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        acc = dict(self.terms)
        for m, c in as_poly(other).terms.items():
            acc[m] = acc.get(m, 0) + c
        return Polynomial(acc)

    def __radd__(self, other) -> "Polynomial":
        return self.__add__(other)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self.__add__(-as_poly(other))

    def __rsub__(self, other) -> "Polynomial":
        return as_poly(other).__sub__(self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            # The kernel's choice, from the two term counts, before any batch
            # is built: most products here are small and take the tuple path.
            n, k = len(self.terms), len(other.terms)
            if PACK_RATIO * (n + k) < n * k:
                return _packed_products((((self, other),),))[0]
            return _tuple_sum(((self, other),))
        if isinstance(other, (int, Fraction)):
            return Polynomial({m: c * other for m, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = Polynomial.const(1)
        for _ in range(k):
            out = out * self
        return out

    # -- convenience -------------------------------------------------------

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"Polynomial({poly_to_str(self)!r})"


# The slots' own setters: they bypass the ``__setattr__`` that refuses
# assignment, and cost less per construction than ``object.__setattr__``.
_set_terms = Polynomial.terms.__set__
_set_den = Polynomial.den.__set__


# A batch is multiplied with packed monomials when it makes more than this
# many term products per operand term: packing passes over every operand
# term and every output term once, and pays back a little on every term
# product.  Timed one by one, the matrix products of the benchmark's
# in-process workloads ran slower packed at ratios up to 2.73 and faster at
# every ratio above it (README, "Products").  It chooses only how products
# are built: the zero tests of ``matrices`` decode nothing, and always pack.
PACK_RATIO = 2.8


def sum_of_products(batch, work: int = 0, terms: int = 0) -> list:
    """For each entry of ``batch``, a sequence of ``(x, y)`` pairs of
    polynomials, the sum of x*y over its pairs: a list of polynomials.

    The one multiplication kernel.  Every term product of an entry is
    accumulated into one term map, and one polynomial is built at the end,
    which drops the coefficients that cancelled.  Over an entry's common
    denominator D, the lcm of its pairs' ``x.den * y.den``, the products are
    summed as ints: each rational operand's coefficients are scaled to
    integer numerators once per batch, a pair's products by
    D // (x.den * y.den), and each output term is divided by D once.  With
    D = 1 the coefficients are multiplied as they are.

    ``work`` and ``terms`` are the batch's term products and the terms of
    its operands, which the caller counts while it builds the batch.
    Monomials are multiplied in one of two ways, with the same result.  When
    ``work`` is more than ``PACK_RATIO`` times ``terms``, each operand is
    encoded once as packed ints and a monomial product is one integer
    addition (``_packed_products``); otherwise, and when no counts are
    given, the monomial tuples are merged (``_tuple_sum``).
    """
    if PACK_RATIO * terms < work:
        return _packed_products(batch)
    scaled: dict = {}
    return [_tuple_sum(pairs, scaled) for pairs in batch]


def _tuple_sum(pairs, scaled: dict = None) -> Polynomial:
    """The sum of x*y over ``pairs``, merging monomial tuples; ``scaled``,
    when given, keeps the numerators of the batch's rational operands."""
    # The entry's common denominator and its integral sum, inline here: as
    # helper calls per entry, they made ``matrices.mul`` 1.5-5 % slower on
    # small monomial products.
    den = 1
    for x, y in pairs:
        d = x.den * y.den
        if d != 1:
            den = lcm(den, d)
    acc: dict = {}
    get = acc.get
    if den == 1:
        for x, y in pairs:
            y_terms = y.terms.items()
            for m1, c1 in x.terms.items():
                for m2, c2 in y_terms:
                    m = _mono_mul(m1, m2)
                    acc[m] = get(m, 0) + c1 * c2
        return Polynomial(acc)
    for x, y in pairs:
        scale = den // (x.den * y.den)
        y_terms = _scaled(y, scaled)
        for m1, n1 in _scaled(x, scaled):
            n1 *= scale
            for m2, n2 in y_terms:
                m = _mono_mul(m1, m2)
                acc[m] = get(m, 0) + n1 * n2
    return _over(acc, den)


def _over(acc: dict, den: int) -> Polynomial:
    """The polynomial with terms ``n / den`` for the ``(m, n)`` of ``acc``.
    A cancelled term is dropped before its division, not after it."""
    return Polynomial({m: Fraction(n, den) for m, n in acc.items() if n})


def _numerators(p: Polynomial):
    """p's terms with each coefficient multiplied by ``p.den``, as ints."""
    den = p.den
    if den == 1:
        return p.terms.items()
    return [(m, c.numerator * (den // c.denominator)) for m, c in p.terms.items()]


def _scaled(p: Polynomial, done: dict):
    """``_numerators(p)``, computed once per ``done`` map, or each time
    without one (a one-pair product uses each operand once)."""
    if done is None:
        return _numerators(p)
    got = done.get(id(p))
    if got is None:
        got = done[id(p)] = _numerators(p)
    return got


def _pack(operands: dict) -> tuple:
    """The packed encoding of the polynomials ``operands``, a map from id to
    polynomial: a map from each id to its ``(packed monomial, integer
    numerator)`` list, with each coefficient multiplied by the polynomial's
    ``den``; the ``(variable, shift, mask)`` fields that decode a packed
    monomial, highest bits first; the fields' total width; and whether every
    operand is integral (its ``den`` is 1).

    Each variable gets a bit field as wide as the largest exponent it can
    reach in a product of two operands: the bit length of twice its largest
    exponent among them.  The fields follow the sorted variables, the last
    in the lowest bits.  A monomial is then one int, the sum of its
    exponents shifted into their fields, and no field overflows into the
    next, so the product of two monomials is the sum of their ints, and it
    is below ``1 << width``.  Each operand is encoded once.
    """
    top: dict = {}
    for p in operands.values():
        for m in p.terms:
            for v, e in m:
                if e > top.get(v, 0):
                    top[v] = e
    shifts = {}
    fields = []
    shift = 0
    for v in sorted(top, reverse=True):
        shifts[v] = shift
        width = (2 * top[v]).bit_length()
        fields.append((v, shift, (1 << width) - 1))
        shift += width
    fields.reverse()
    packed = {}
    integral = True
    for key, p in operands.items():
        enc = []
        integral &= p.den == 1
        for m, n in p.terms.items() if p.den == 1 else _numerators(p):
            k = 0
            for v, e in m:
                k += e << shifts[v]
            enc.append((k, n))
        packed[key] = enc
    return packed, fields, shift, integral


def _packed_products(batch) -> list:
    """``sum_of_products`` over packed monomials (``_pack``): each distinct
    output monomial that survives cancellation is decoded once."""
    operands = {}
    for pairs in batch:
        for x, y in pairs:
            operands[id(x)] = x
            operands[id(y)] = y
    packed, fields, _, _ = _pack(operands)
    decoded: dict = {}
    out = []
    for pairs in batch:
        den = 1
        for x, y in pairs:
            d = x.den * y.den
            if d != 1:
                den = lcm(den, d)
        acc: dict = {}
        get = acc.get
        for x, y in pairs:
            scale = den // (x.den * y.den)
            y_terms = packed[id(y)]
            for k1, n1 in packed[id(x)]:
                n1 *= scale
                for k2, n2 in y_terms:
                    k = k1 + k2
                    acc[k] = get(k, 0) + n1 * n2
        terms = {}
        for k, n in acc.items():
            if n:
                m = decoded.get(k)
                if m is None:
                    m = []
                    for v, s, mask in fields:
                        e = k >> s & mask
                        if e:
                            m.append((v, e))
                    m = decoded[k] = tuple(m)
                terms[m] = n
        out.append(Polynomial(terms) if den == 1 else _over(terms, den))
    return out


def as_poly(x) -> Polynomial:
    """Coerce an int/Fraction/Polynomial to a Polynomial."""
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.const(x)
    raise TypeError(f"cannot treat {type(x).__name__} as a polynomial")


def _grlex(m) -> tuple:
    return (sum(m), m)


def substitute(f: Polynomial, mapping: Mapping[Variable, object]) -> Polynomial:
    """Simultaneous substitution; variables not in the map stay unchanged."""
    subs = {v: as_poly(p) for v, p in mapping.items()}
    out = Polynomial.zero()
    for mono, c in f.terms.items():
        acc = Polynomial.const(c)
        for v, e in mono:
            base = subs.get(v)
            if base is None:
                acc = acc * Polynomial({((v, e),): 1})
            else:
                acc = acc * base ** e
        out = out + acc
    return out


def unprimed_vars(f: Polynomial) -> tuple:
    """The sorted prime-level-0 variables that occur in f."""
    return tuple(v for v in f.vars if v.prime_level == 0)


def t_shift(f: Polynomial, k: int, xvars=None) -> Polynomial:
    """Apply the composite t_1...t_k: substitute x_j -> x_j' for j <= k.

    ``xvars`` fixes the indexing; it defaults to f's own unprimed variables
    but callers relating several polynomials (Leibniz!) must pass a shared
    list.  Each monomial's variables are renamed, and no polynomial product
    is formed.
    """
    xs = tuple(xvars) if xvars is not None else unprimed_vars(f)
    if not 0 <= k <= len(xs):
        raise IndexError(f"t-shift index {k} out of range for {len(xs)} variables")
    shifted = {x: x.primed() for x in xs[:k]}
    acc: dict = {}
    for mono, c in f.terms.items():
        # x and x' are adjacent in the variable order, so renaming keeps a
        # monomial sorted; a renamed x that meets x' merges with it.
        exps: dict = {}
        for v, e in mono:
            v = shifted.get(v, v)
            exps[v] = exps.get(v, 0) + e
        mono = tuple(exps.items())
        acc[mono] = acc.get(mono, 0) + c
    return Polynomial(acc)


def diff_quotient(f: Polynomial, i: int, xvars=None) -> Polynomial:
    """The i-th difference quotient of f (1-based variable index).

    d_i(f) = [(t_1..t_{i-1} f) - (t_1..t_i f)] / (x_i - x_i'), in closed
    form, one term of f at a time: a term c*m in which x_i has exponent
    a >= 1 gives c * R * sum_{k<a} x_i^k x_i'^(a-1-k), where R is m without
    its x_i factor and with x_1..x_{i-1} primed; a term without x_i gives
    nothing.
    """
    xs = tuple(xvars) if xvars is not None else unprimed_vars(f)
    if not 1 <= i <= len(xs):
        raise IndexError(f"variable index {i} out of range for {len(xs)} variables")
    shifted = {x: x.primed() for x in xs[:i - 1]}
    xi = xs[i - 1]
    xi_primed = xi.primed()
    acc: dict = {}
    for mono, c in f.terms.items():
        rest = {}
        a = 0
        for v, e in mono:
            # Shifted first: an x_i listed again among x_1..x_{i-1} is primed
            # by both shifts, so its terms cancel and give nothing.
            if v in shifted:
                v = shifted[v]
            elif v == xi:
                a = e
                continue
            rest[v] = rest.get(v, 0) + e
        for k in range(a):
            exps = dict(rest)
            for v, e in ((xi, k), (xi_primed, a - 1 - k)):
                if e:
                    exps[v] = exps.get(v, 0) + e
            m = tuple(sorted(exps.items()))
            acc[m] = acc.get(m, 0) + c
    return Polynomial(acc)


def derivative(f: Polynomial, v: Variable) -> Polynomial:
    """Formal partial derivative df/dv.

    Coincides with the difference quotient collapsed to the diagonal
    x' = x (a property test pins the two against each other).
    """
    acc = {}
    for mono, c in f.terms.items():
        for pos, (u, e) in enumerate(mono):
            if u == v:
                lowered = ((u, e - 1),) if e > 1 else ()
                acc[mono[:pos] + lowered + mono[pos + 1:]] = c * e
    return Polynomial(acc)

# -- parsing ---------------------------------------------------------------

class PolyParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UndeclaredVariable(PolyParseError):
    pass


# ``**`` multiplies once per unit of exponent, so the parser refuses larger
# exponents rather than run for a time proportional to them.
MAX_EXPONENT = 1000
# Longer number tokens are refused at their position; below the interpreter's
# own limit on int/str conversion (4300 digits by default), so the outcome
# does not depend on it.
MAX_DIGITS = 4000

_TOKEN_RE = re.compile(
    r"(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*'*)|(?P<op>[-+*^()/])"
)


def _tokenize(text: str):
    toks = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PolyParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "num":
            toks.append(("num", m.group(), pos))
        elif m.lastgroup == "name":
            raw = m.group()
            base = raw.rstrip("'")
            toks.append(("name", (base, len(raw) - len(base)), pos))
        else:
            toks.append((m.group(), m.group(), pos))
        pos = m.end()
    return toks


class _Parser:
    def __init__(self, toks, text_len, declared):
        self.toks = toks
        self.i = 0
        self.end = text_len
        self.declared = set(declared)

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, self.end)

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def expect_end(self):
        kind, _, pos = self._peek()
        if kind is not None:
            raise PolyParseError("unexpected trailing input", pos)

    def parse_expr(self) -> Polynomial:
        node = self.parse_term()
        while self._peek()[0] in ("+", "-"):
            op, _, _ = self._next()
            rhs = self.parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term(self) -> Polynomial:
        node = self.parse_factor()
        while self._peek()[0] == "*":
            self._next()
            node = node * self.parse_factor()
        return node

    def parse_factor(self) -> Polynomial:
        node = self.parse_base()
        if self._peek()[0] == "^":
            self._next()
            kind, val, pos = self._next()
            if kind != "num":
                raise PolyParseError("expected natural number after '^'", pos)
            e = self._number(val, pos)
            if e > MAX_EXPONENT:
                raise PolyParseError(
                    f"exponent {e} is above the limit {MAX_EXPONENT}", pos)
            node = node ** e
        return node

    def parse_base(self) -> Polynomial:
        kind, val, pos = self._peek()
        if kind == "-":
            self._next()
            kind2, val2, pos2 = self._peek()
            if kind2 != "num":
                raise PolyParseError("expected number after sign", pos2)
            self._next()
            return Polynomial.const(-self._rational(val2, pos2))
        if kind == "num":
            self._next()
            return Polynomial.const(self._rational(val, pos))
        if kind == "name":
            self._next()
            v = Variable(val[0], val[1])
            if v.name not in self.declared or v.prime_level > 1:
                raise UndeclaredVariable(f"undeclared variable {v}", pos)
            return Polynomial.var(v)
        if kind == "(":
            self._next()
            node = self.parse_expr()
            kind2, _, pos2 = self._next()
            if kind2 != ")":
                raise PolyParseError("expected ')'", pos2)
            return node
        raise PolyParseError("expected a polynomial term", pos)

    @staticmethod
    def _number(token: str, pos: int) -> int:
        """The value of a number token, refused above ``MAX_DIGITS`` digits."""
        if len(token) > MAX_DIGITS:
            raise PolyParseError(
                f"number of {len(token)} digits is above the limit of "
                f"{MAX_DIGITS} digits", pos)
        return int(token)

    def _rational(self, token: str, pos: int) -> Scalar:
        numerator = self._number(token, pos)
        if self._peek()[0] == "/":
            self._next()
            kind, val, pos2 = self._next()
            if kind != "num":
                raise PolyParseError("malformed rational", pos2)
            den = self._number(val, pos2)
            if den == 0:
                raise PolyParseError("malformed rational (zero denominator)", pos2)
            return Fraction(numerator, den)
        return numerator


def parse_poly(text: str, declared) -> Polynomial:
    """Parse the expression grammar; every variable must be declared.

    ``declared`` is an iterable of base names; a name declares the unprimed
    variable and implicitly admits its primed twin (prime level 1).
    """
    toks = _tokenize(text)
    parser = _Parser(toks, len(text), declared)
    try:
        result = parser.parse_expr()
    except RecursionError:
        pos = parser._peek()[2]
        raise PolyParseError("expression nested too deeply", pos) from None
    parser.expect_end()
    return result


# -- printing --------------------------------------------------------------

# Printed numbers keep to the parser's digit limit, so every printed
# document re-parses and no conversion meets the interpreter's own limit.
_DIGIT_BOUND = 10 ** MAX_DIGITS


def _fmt_fraction(c: Scalar) -> str:
    if abs(c.numerator) >= _DIGIT_BOUND or c.denominator >= _DIGIT_BOUND:
        raise ValueError(
            f"cannot print a coefficient above mfkit's limit of {MAX_DIGITS} digits")
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def poly_to_str(f: Polynomial) -> str:
    """Canonical rendering: graded-lex descending, explicit '*', '^' for >= 2.

    The grammar has no unary minus, so a leading negative term keeps its
    numeric factor: "-1*x + y" rather than "-x + y".
    """
    if not f.terms:
        return "0"
    variables = f.vars
    dense = f.dense_terms(variables)
    parts = []
    for idx, mono in enumerate(sorted(dense, key=_grlex, reverse=True)):
        c = dense[mono]
        factors = []
        for v, e in zip(variables, mono):
            if e:
                factors.append(str(v) if e == 1 else f"{v}^{e}")
        varpart = "*".join(factors)
        mag = abs(c)
        if varpart and mag == 1:
            body = varpart
        elif varpart:
            body = f"{_fmt_fraction(mag)}*{varpart}"
        else:
            body = _fmt_fraction(mag)
        if idx == 0:
            if c < 0:
                head = f"-{_fmt_fraction(mag)}"
                parts.append(f"{head}*{varpart}" if varpart else head)
            else:
                parts.append(body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)
