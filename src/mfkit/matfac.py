"""Matrix factorizations of a polynomial potential, and their morphisms.

A factorization of f is a pair (p, q) of n x n polynomial matrices with

    p * q == q * p == f * I_n

where p is read as the even-to-odd map and q as the odd-to-even map of the
Z2-graded differential.  Construction is eager: `make_factorization` refuses
anything whose products do not come out exactly, reporting the first
offending entry and its residual.  The check is one exact zero test over
integer numerators (`matrices.failure`), which builds no product; only a
failure builds the residuals, for the diagnostic.  Over a nonzero f it
decides p*q = f*I alone, since that implies q*p = f*I (Eisenbud 1980):

    p and q are square and of the same size n (checked before the test);
    Q[x] is a domain, so det p * det q = f^n != 0 and p is nonsingular;
    p*(q*p - f*I) = (p*q - f*I)*p = 0, so q*p = f*I.

Over f = 0 the two products are independent (p = [[0, 1], [0, 0]] and
q = [[1, 0], [0, 0]] have p*q = 0 but q*p != 0), so both are decided, in
that order.  Either way a failure names the first failing entry of p*q
when p*q fails.  A builder (`tensor.yoshino`, the unitors'
collapsed product, `unit.koszul_unit`) hands the test the signed rows it
wrote P and Q from, each nonzero entry as (column, atom, sign), so P and Q
are not walked slot by slot, and pairs of atoms that cancel by the
builder's signs are summed away before any is expanded; other input is
coerced and type-checked entry by entry.  `vars` is read off the
test's packing: the variables of every nonzero entry and of the
potential, plus the declared ones.

A morphism (alpha, beta): X -> Y consists of an even block alpha and an odd
block beta satisfying the two squares

    beta * p_X == p_Y * alpha        (even sources)
    alpha * q_X == q_Y * beta        (odd sources)

`Morphism(...)` itself only checks shapes and potentials, so invalid pairs
can be built and inspected; `validate_morphism` decides both squares in one
zero test, and builds their residual matrices only when one fails (a pass
holds zero matrices); `make_morphism` is `Morphism` plus that check, which
the unitors make with their other checks (`_decide`).  Over a nonzero
potential either square implies the other, but only when p_X, q_X, p_Y and
q_Y are themselves factorizations: a `MatrixFactorization` built directly,
or unpickled, is not checked.  So `validate_morphism` decides both squares,
as do the other morphism checks (rho.psi = id, naturality,
`homotopy.check_witness`), and the acceptance tests check the implication.

The JSON file format lives here too: canonical, byte-stable output --
`serialize(parse(serialize(x)))` is the identity on bytes.
"""

from __future__ import annotations

import json
from operator import attrgetter

from . import matrices as mx
from .poly import Polynomial, Variable, as_poly, parse_poly, poly_to_str


class NotAFactorization(ValueError):
    """A matrix pair whose product misses potential * I."""

    def __init__(self, which: str, row: int, col: int, residual: Polynomial):
        self.which = which
        self.row = row
        self.col = col
        self.residual = residual
        super().__init__(
            f"({which})[{row}][{col}] deviates from the potential by {residual}"
        )


class PotentialMismatch(ValueError):
    pass


class ShapeMismatch(ValueError):
    pass


class Record:
    """Base of mfkit's frozen record types.

    A subclass names its fields in ``__slots__`` and sets each of them once
    in its own ``__init__`` through ``_set`` (``object.__setattr__``), so it
    is built by position or keyword as fast as a dataclass.  Records compare
    field-wise, and only with records of the same class; equal records hash
    equal; assigning or deleting a field raises ``AttributeError``.  Copies
    and pickles are built by position from the field values.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # The tuple of field values (every record has at least two fields).
        cls._values = property(attrgetter(*cls.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __reduce__(self):
        return (self.__class__, self._values)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values)
        )
        return f"{self.__class__.__qualname__}({fields})"


_set = object.__setattr__


class NotAMorphism(ValueError):
    """Raised by make_morphism when a commuting square fails."""

    def __init__(self, report: "MorphismReport"):
        self.report = report
        super().__init__(report.describe())


class MatrixFactorization(Record):
    __slots__ = ("p", "q", "potential", "size", "vars")

    def __init__(self, p, q, potential, size, vars):
        _set(self, "p", p)  # even -> odd
        _set(self, "q", q)  # odd -> even
        _set(self, "potential", potential)
        _set(self, "size", size)
        # The sorted Variables: those in the entries plus extra_vars.
        _set(self, "vars", vars)

    def __repr__(self) -> str:
        return (
            f"<MatrixFactorization size={self.size} potential={self.potential}>"
        )


def make_factorization(p, q, potential, extra_vars=None, *,
                       _rows=None) -> MatrixFactorization:
    """Validate and build: p*q == q*p == potential*I, exactly.

    Over a nonzero potential w only p*q = w*I is tested, since it implies
    q*p = w*I (module docstring); over w = 0 both are, p*q first.  A
    failure raises ``NotAFactorization`` naming the first failing entry.

    ``extra_vars`` declares variables that may occur in no entry (a zero
    block keeps its variables so); ``vars`` is them and the zero test's
    packing's: those of every nonzero entry and of the potential.

    A builder hands the signed rows it built p and q from by
    ``matrices._from_signed_rows`` as ``_rows=(p_rows, q_rows, atoms)``, so
    the test decides what is returned without walking either matrix slot by
    slot, and pairs of atoms that cancel by the builder's signs (a unit's
    x*y - y*x, a layout's a*b - b*a) make no term product.  Any other input
    is coerced and type-checked by ``matrices.from_rows``.
    """
    if _rows is None:
        p = mx.from_rows(p)
        q = mx.from_rows(q)
        handed = None, None
    else:
        p_rows, q_rows, atoms = _rows
        handed = {id(p): p_rows, id(q): q_rows}, atoms
    potential = as_poly(potential)
    n = len(p)
    if n == 0:
        raise ShapeMismatch("empty matrix")
    if len(p[0]) != n or len(q) != n or len(q[0]) != n:
        raise ShapeMismatch(
            f"expected square matrices of equal size, got {mx.shape(p)} and {mx.shape(q)}"
        )
    variables = set(extra_vars or ())
    _decide(_factorization_check(p, q, potential, handed), variables=variables)
    return MatrixFactorization(p=p, q=q, potential=potential, size=n,
                               vars=tuple(sorted(variables)))


def _factorization_check(p, q, potential, handed=(None, None)) -> tuple:
    """The check (``_decide``) of P*Q = w*I, and over w = 0 of Q*P = 0 too."""
    equations = [[(p, q, 1)]] if potential.terms else [[(p, q, 1)], [(q, p, 1)]]
    return equations, potential, lambda k, i, j, res: NotAFactorization(
        ("P*Q", "Q*P")[k], i, j, res[k][i][j]), handed


def _decide(*checks, variables: set = None):
    """Decide every check's equations, in order, in one exact zero test
    that fills ``variables``; None where all hold.  A check is ``(equations,
    w, fail, (rows, atoms))``: equations over w (0 where w is None) and the
    rows and atoms a builder hands, or None.  On a failure, decided again by
    ``matrices.failure``, the first failing check's equation k, at (i, j),
    gives ``fail(k, i, j, its residuals)``: an error, raised, or a report."""
    equations, ws, _, (rows, atoms) = checks[0]
    if len(checks) > 1:  # merging one check costs a size-2 Yoshino product 2%
        equations, ws, rows, atoms = [], (), {}, {}
        for eqs, w, _, handed in checks:
            equations += eqs
            ws += (w,) * len(eqs)
            rows.update(handed[0] or ())
            atoms.update(handed[1] or ())
    if mx.first_difference(*equations, w=ws, rows=rows, atoms=atoms,
                           variables=variables) is None:
        return None
    k, i, j, residuals = mx.failure(*equations, w=ws, rows=rows, atoms=atoms)
    for eqs, _, fail, _ in checks:
        if k < len(eqs):
            got = fail(k, i, j, residuals[:len(eqs)])
            if isinstance(got, Exception):
                raise got
            return got
        k -= len(eqs)
        residuals = residuals[len(eqs):]


def direct_sum(x: MatrixFactorization, y: MatrixFactorization) -> MatrixFactorization:
    if x.potential != y.potential:
        raise PotentialMismatch(
            f"potentials differ: {x.potential} vs {y.potential}"
        )
    zl = mx.zeros(x.size, y.size)
    zr = mx.zeros(y.size, x.size)
    p = mx.block([[x.p, zl], [zr, y.p]])
    q = mx.block([[x.q, zl], [zr, y.q]])
    return make_factorization(p, q, x.potential, extra_vars=x.vars + y.vars)


class Morphism(Record):
    """A pair of blocks between factorizations; shapes checked at creation.

    The commuting squares are *not* enforced here -- see make_morphism and
    validate_morphism -- so that failing candidates can be examined.
    """

    __slots__ = ("alpha", "beta", "source", "target")

    def __init__(self, alpha, beta, source, target):
        alpha = mx.from_rows(alpha)  # even block, target.size x source.size
        beta = mx.from_rows(beta)  # odd block, same shape
        want = (target.size, source.size)
        if mx.shape(alpha) != want or mx.shape(beta) != want:
            raise ShapeMismatch(
                f"morphism blocks must be {want}, got "
                f"{mx.shape(alpha)} and {mx.shape(beta)}"
            )
        if source.potential != target.potential:
            raise PotentialMismatch(
                f"potentials differ: {source.potential} vs {target.potential}"
            )
        _set(self, "alpha", alpha)
        _set(self, "beta", beta)
        _set(self, "source", source)
        _set(self, "target", target)


class MorphismReport(Record):
    __slots__ = ("ok", "eq1_residual", "eq2_residual")

    def __init__(self, ok, eq1_residual, eq2_residual):
        _set(self, "ok", ok)
        _set(self, "eq1_residual", eq1_residual)  # beta*p_X - p_Y*alpha
        _set(self, "eq2_residual", eq2_residual)  # alpha*q_X - q_Y*beta

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "ok"
        bits = []
        for name, res in (("even square", self.eq1_residual),
                          ("odd square", self.eq2_residual)):
            hit = mx.first_nonzero(res)
            if hit:
                i, j, e = hit
                bits.append(f"{name} residual at [{i}][{j}]: {e}")
        return "; ".join(bits) or "ok"


def _squares(m: Morphism) -> tuple:
    """The check (``_decide``) of m's two commuting squares."""
    x, y = m.source, m.target
    return ([[(m.beta, x.p, 1), (y.p, m.alpha, -1)], [(m.alpha, x.q, 1), (y.q, m.beta, -1)]],
            None, lambda *hit: NotAMorphism(MorphismReport(False, *hit[3])), (None, None))


def validate_morphism(m: Morphism) -> MorphismReport:
    """Check both commuting squares exactly, in one ``matrices.failure``
    call; only a failure builds the residual matrices, and a pass holds zero
    matrices."""
    hit = mx.failure(*_squares(m)[0])
    if hit is None:
        zero = mx.zeros(m.target.size, m.source.size)
        return MorphismReport(ok=True, eq1_residual=zero, eq2_residual=zero)
    return MorphismReport(False, *hit[3])


def make_morphism(alpha, beta, source, target) -> Morphism:
    """Construct a morphism and insist both squares hold."""
    m = Morphism(alpha=alpha, beta=beta, source=source, target=target)
    _decide(_squares(m))
    return m


def identity_morphism(x: MatrixFactorization) -> Morphism:
    i = mx.identity(x.size)
    return Morphism(alpha=i, beta=i, source=x, target=x)


def zero_morphism(x: MatrixFactorization, y: MatrixFactorization = None) -> Morphism:
    y = x if y is None else y
    z = mx.zeros(y.size, x.size)
    return Morphism(alpha=z, beta=z, source=x, target=y)


def scalar_morphism(c, x: MatrixFactorization) -> Morphism:
    """c * id as a morphism X -> X (polynomial scalars are central)."""
    m = mx.scalar_matrix(x.size, c)
    return Morphism(alpha=m, beta=m, source=x, target=x)


def compose_morphisms(g: Morphism, f: Morphism) -> Morphism:
    """g after f: blocks multiply; the result is validated."""
    if f.target != g.source:
        raise ShapeMismatch("inner factorizations do not match")
    return make_morphism(
        alpha=mx.mul(g.alpha, f.alpha),
        beta=mx.mul(g.beta, f.beta),
        source=f.source,
        target=g.target,
    )


def _identity_check(g: Morphism, f: Morphism, fail=None) -> tuple:
    """The check (``_decide``) that g after f is the identity, block by block."""
    return ([[(g.alpha, f.alpha, 1)], [(g.beta, f.beta, 1)]], Polynomial.const(1), fail,
            (None, None))


def _composes_to_identity(g: Morphism, f: Morphism) -> bool:
    """Is g after f the identity?  Both blocks are decided in one exact
    zero test, ``matrices.first_difference``; no product is built."""
    equations, w, _, _ = _identity_check(g, f)
    return mx.first_difference(*equations, w=w) is None


# -- file format -----------------------------------------------------------

def _base_names(vars_t) -> list:
    return sorted({v.name for v in vars_t})


def serialize_factorization(x: MatrixFactorization) -> str:
    """Canonical JSON text; stable down to the byte."""
    doc = {
        "vars": _base_names(x.vars),
        "potential": poly_to_str(x.potential),
        "P": [[poly_to_str(e) for e in row] for row in x.p],
        "Q": [[poly_to_str(e) for e in row] for row in x.q],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_factorization(text: str) -> MatrixFactorization:
    """Parse the JSON document and validate the factorization it describes."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"not valid JSON: {e}") from e
    except RecursionError:
        raise ValueError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("top-level JSON value must be an object")
    missing = {"vars", "potential", "P", "Q"} - doc.keys()
    if missing:
        raise ValueError(f"missing keys: {sorted(missing)}")
    extra = doc.keys() - {"vars", "potential", "P", "Q"}
    if extra:
        raise ValueError(f"unknown keys: {sorted(extra)}")
    names = doc["vars"]
    if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
        raise ValueError("'vars' must be a list of variable names")
    if len(set(names)) != len(names):
        raise ValueError(f"'vars' repeats a name: {names}")
    declared = tuple(Variable(n) for n in names)
    # Each distinct text is parsed once: most entries of a large document
    # repeat a few texts ("0" above all), and polynomials are immutable.
    parsed = {}

    def parse_entry(text, label):
        if not isinstance(text, str):
            raise ValueError(
                f"expected a polynomial string in '{label}', got {text!r}")
        got = parsed.get(text)
        if got is None:
            got = parsed[text] = parse_poly(text, names)
        return got

    def parse_matrix(rows, label):
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError(f"'{label}' must be a list of rows")
        return [[parse_entry(e, label) for e in row] for row in rows]

    potential = parse_entry(doc["potential"], "potential")
    p = parse_matrix(doc["P"], "P")
    q = parse_matrix(doc["Q"], "Q")
    return make_factorization(p, q, potential, extra_vars=declared)
