"""The frozen record types: construction, equality, hashing, immutability
and reprs.  The expected reprs and messages are those the records had when
they were dataclasses."""

import copy
import pickle

import pytest

from mfkit import matrices as mx
from mfkit.homotopy import HomotopyWitness, WitnessReport, find_witness
from mfkit.matfac import (
    MatrixFactorization,
    Morphism,
    MorphismReport,
    PotentialMismatch,
    ShapeMismatch,
    identity_morphism,
    make_factorization,
    scalar_morphism,
    validate_morphism,
)
from mfkit.poly import derivative
from mfkit.tensor import Variant, yoshino
from mfkit.unit import (
    NaturalityReport,
    UnitFactorization,
    UnitorBundle,
    koszul_unit,
    naturality_check,
    unitor_right,
)

from conftest import PX, PY, PZ, X, Y

A = make_factorization([[1]], [[PX]], PX)
B = make_factorization([[1]], [[PX ** 2]], PX ** 2)
XZ = make_factorization([[1]], [[PZ - PX]], PZ - PX)
S2 = yoshino(A, make_factorization([[1]], [[PY]], PY), Variant.STANDARD)


def _witness():
    jac = derivative(S2.potential, X)
    return find_witness(S2, S2, scalar_morphism(jac, S2), scalar_morphism(0, S2), 1)


# Each record type, its field names in order, and a builder of one value.
RECORDS = [
    (MatrixFactorization, ("p", "q", "potential", "size", "vars"), lambda: A),
    (Morphism, ("alpha", "beta", "source", "target"),
     lambda: scalar_morphism(PX, A)),
    (MorphismReport, ("ok", "eq1_residual", "eq2_residual"),
     lambda: validate_morphism(Morphism([[1]], [[0]], A, A))),
    (HomotopyWitness, ("lambda0", "lambda1", "max_degree"), _witness),
    (WitnessReport, ("ok", "even_residual", "odd_residual"),
     lambda: WitnessReport(True, mx.zeros(1, 1), mx.zeros(1, 1))),
    (UnitFactorization, ("mf", "n", "basis_even", "basis_odd", "f", "xvars"),
     lambda: koszul_unit(PX - PY, (X, Y))),
    (UnitorBundle, ("z", "rho", "psi", "side"),
     lambda: unitor_right(XZ, PX, (X,))),
    (NaturalityReport, ("ok", "alpha_residual", "beta_residual"),
     lambda: naturality_check(identity_morphism(XZ), PX, (X,))),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls,fields,build", RECORDS, ids=IDS)
def test_construction_by_position_and_keyword(cls, fields, build):
    rec = build()
    assert type(rec) is cls
    values = tuple(getattr(rec, f) for f in fields)
    by_pos = cls(*values)
    by_kw = cls(**dict(zip(fields, values)))
    for other in (by_pos, by_kw):
        assert tuple(getattr(other, f) for f in fields) == values
        assert other == rec and not (other != rec)
        assert hash(other) == hash(rec)
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, None)


@pytest.mark.parametrize("cls,fields,build", RECORDS, ids=IDS)
def test_pickles_and_copies_as_the_same_record(cls, fields, build):
    rec = build()
    copies = [copy.copy(rec), copy.deepcopy(rec)]
    copies += [pickle.loads(pickle.dumps(rec, proto))
               for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is cls and other == rec and hash(other) == hash(rec)
        assert repr(other) == repr(rec)


@pytest.mark.parametrize("cls,fields,build", RECORDS, ids=IDS)
def test_frozen(cls, fields, build):
    rec = build()
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(rec, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(rec, name)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        rec.extra = 1


def test_equality_is_field_wise_and_same_class_only():
    assert A == make_factorization([[1]], [[PX]], PX)
    assert A != B
    # Same field values, different classes: never equal.
    res = mx.zeros(1, 1)
    reports = [MorphismReport(True, res, res), WitnessReport(True, res, res),
               NaturalityReport(True, res, res)]
    for i, a in enumerate(reports):
        for j, b in enumerate(reports):
            assert (a == b) == (i == j)
            assert (a != b) == (i != j)
    # A record is not a tuple of its fields.
    assert A != (A.p, A.q, A.potential, A.size, A.vars)
    assert A.__eq__((A.p, A.q, A.potential, A.size, A.vars)) is NotImplemented
    assert MorphismReport(True, res, res) != MorphismReport(False, res, res)
    assert identity_morphism(A) == Morphism([[1]], [[1]], A, A)
    assert identity_morphism(A) != scalar_morphism(2, A)


def test_reprs():
    assert repr(A) == "<MatrixFactorization size=1 potential=x>"
    assert repr(identity_morphism(A)) == (
        "Morphism(alpha=((Polynomial('1'),),), beta=((Polynomial('1'),),), "
        "source=<MatrixFactorization size=1 potential=x>, "
        "target=<MatrixFactorization size=1 potential=x>)")
    assert repr(validate_morphism(Morphism([[1]], [[0]], A, A))) == (
        "MorphismReport(ok=False, eq1_residual=((Polynomial('-1'),),), "
        "eq2_residual=((Polynomial('x'),),))")
    assert repr(WitnessReport(True, mx.zeros(1, 1), mx.zeros(1, 1))) == (
        "WitnessReport(ok=True, even_residual=((Polynomial('0'),),), "
        "odd_residual=((Polynomial('0'),),))")
    assert repr(HomotopyWitness(((PX,),), ((1,),), 1)) == (
        "HomotopyWitness(lambda0=((Polynomial('x'),),), lambda1=((1,),), "
        "max_degree=1)")


def test_morphism_checks_at_construction():
    with pytest.raises(ShapeMismatch) as err:
        Morphism([[1, 0]], [[1]], A, A)
    assert str(err.value) == "morphism blocks must be (1, 1), got (1, 2) and (1, 1)"
    with pytest.raises(PotentialMismatch) as err:
        Morphism(alpha=[[1]], beta=[[1]], source=A, target=B)
    assert str(err.value) == "potentials differ: x vs x^2"
    # The blocks are coerced to tuples of tuples of polynomials.
    m = Morphism(alpha=[[1]], beta=[[0]], source=A, target=A)
    assert m.alpha == mx.from_rows([[1]]) and isinstance(m.alpha, tuple)
