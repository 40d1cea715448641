"""The worked examples that ``mfkit demo paper`` replays.

Only the ``demo`` subcommand imports this module, so no other subcommand
compiles or loads it.
"""

from __future__ import annotations

from . import matrices as mx
from .exterior import delete
from .homotopy import HomotopyWitness, check_witness
from .matfac import (_composes_to_identity, compose_morphisms, identity_morphism,
                     make_factorization)
from .poly import Polynomial, Variable, diff_quotient
from .tensor import Variant, yoshino
from .unit import koszul_unit, unitor_right


def paper_checks() -> list:
    """``[(description, check)]``: each check returns True when the example
    holds, and may raise."""
    xv, yv, zv = Variable("x"), Variable("y"), Variable("z")
    px, py, pz = (Polynomial.var(v) for v in (xv, yv, zv))

    def m_square():
        m = [[0, px], [px ** 2, 0]]
        make_factorization(m, m, px ** 3)
        return True

    def rank_one_cube():
        make_factorization([[1]], [[px ** 3]], px ** 3)
        return True

    def m_q():
        for n, q in ((3, 1), (5, 2), (7, 3)):
            m = [[0, px ** q], [px ** (n - q), 0]]
            make_factorization(m, m, px ** n)
        return True

    f_xy = px - py

    def dq_first():
        return diff_quotient(f_xy, 1, (xv, yv)) == 1

    def dq_second():
        return diff_quotient(f_xy, 2, (xv, yv)) == -1

    def theta_contraction():
        return delete(4, (2, 4, 7)) == ((2, 7), 1)

    def delta_x():
        u = koszul_unit(px)
        xp = Polynomial.var(xv.primed())
        return u.mf.p == mx.from_rows([[1]]) and u.mf.q == mx.from_rows(
            [[px - xp]]
        )

    def delta_x_minus_y():
        u = koszul_unit(f_xy)
        dx = px - Polynomial.var(xv.primed())
        dy = py - Polynomial.var(yv.primed())
        want_p = mx.from_rows([[1, -dy], [-1, dx]])
        want_q = mx.from_rows([[dx, dy], [1, 1]])
        return u.mf.p == want_p and u.mf.q == want_q and u.rank == 2

    def four_variants():
        a = make_factorization([[1]], [[px]], px)
        b = make_factorization([[1]], [[py]], py)
        results = [yoshino(a, b, v) for v in Variant]
        for i in range(len(results)):
            for j in range(i + 1, len(results)):
                if results[i].p == results[j].p and results[i].q == results[j].q:
                    return False
        return all(r.size == 2 for r in results)

    def unitor_assertions():
        x = make_factorization([[1]], [[pz - px]], pz - px)
        bundle = unitor_right(x, px, (xv,))
        return not _composes_to_identity(bundle.psi, bundle.rho)

    def zero_witness():
        x = make_factorization([[1]], [[pz - px]], pz - px)
        bundle = unitor_right(x, px, (xv,))
        round_trip = compose_morphisms(bundle.rho, bundle.psi)
        w = HomotopyWitness(
            lambda0=mx.zeros(1, 1), lambda1=mx.zeros(1, 1), max_degree=0
        )
        report = check_witness(x, x, round_trip, identity_morphism(x), w)
        return report.ok

    return [
        ("matrix pair [[0,x],[x^2,0]] with itself factors x^3", m_square),
        ("rank-one pair ([1],[x^3]) factors x^3", rank_one_cube),
        ("anti-diagonal pairs factor x^n at (3,1), (5,2), (7,3)", m_q),
        ("first difference quotient of x - y is 1", dq_first),
        ("second difference quotient of x - y is -1", dq_second),
        ("contraction t4* of t2^t4^t7 is -t2^t7", theta_contraction),
        ("unit factorization of x is ([1], [x - x'])", delta_x),
        ("unit factorization of x - y has the expected 2x2 blocks", delta_x_minus_y),
        ("four tensor layouts of ([1],[x]), ([1],[y]) are valid and distinct", four_variants),
        ("unitor: rho∘psi = id while psi∘rho != id", unitor_assertions),
        ("zero witness certifies rho∘psi ~ id", zero_witness),
    ]
