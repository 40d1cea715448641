"""Seeded op lists for the four benchmark workloads.

Every workload is a fixed list of ops built from ``--seed``.  An op is one
call into mfkit's public API (or one ``mfkit`` CLI subprocess), a canonical
rendering of its output that the runner hashes, and a cheap check of the
properties the output must have whatever the seed.  Each op is ``small`` or
``large`` by definition -- by the size of its input -- never by its measured
time, so a speed-up cannot move an op from one class to the other.  A seed
changes coefficients only: exponent splits, tensor layouts and derivative
variables follow the op's position, so an op's cost does not depend on the
seed.

Ops reach mfkit through module attributes (``M.tensor.yoshino``), looked up
at call time, so the tracer's rebinding of those attributes is seen.

The counts per kind place the small-op p50 and p90 and the large-op p50 in
the middle of a run of ops of one kind, not on the border between two kinds
whose times differ; a border would make the percentile jump between seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

SMALL = "small"
LARGE = "large"
CLI_TIMEOUT_S = 120


class Op(NamedTuple):
    id: str
    cls: str  # SMALL or LARGE
    run: Callable[[], object]
    canon: Callable[[object], object]  # result -> str or bytes to hash
    check: Callable[[object], Optional[str]]  # result -> problem or None
    # The same op run inside this process (the CLI workload's traced run).
    inproc: Optional[Callable[[], object]] = None


def _coeff(rng) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, 9)


def _rational(rng) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5))


def _interleave(small: list, large: list) -> list:
    """Spread the large ops evenly through the small ones."""
    out = []
    step = len(small) / (len(large) + 1)
    pos = 0.0
    for op in large:
        nxt = pos + step
        out.extend(small[round(pos):round(nxt)])
        out.append(op)
        pos = nxt
    out.extend(small[round(pos):])
    return out


# -- canonical renderings ----------------------------------------------------

def _matrix_text(M, m) -> str:
    return "\n".join("\t".join(M.poly.poly_to_str(e) for e in row) for row in m)


def _morphism_text(M, m) -> str:
    return f"alpha\n{_matrix_text(M, m.alpha)}\nbeta\n{_matrix_text(M, m.beta)}\n"


def _search_text(M, found_witness) -> str:
    found, w = found_witness
    if not found:
        return "not found\n"
    return (f"found\nlambda0\n{_matrix_text(M, w.lambda0)}\n"
            f"lambda1\n{_matrix_text(M, w.lambda1)}\n")


def _expect_factorization(size, potential):
    def check(x):
        if x.size != size:
            return f"size {x.size}, expected {size}"
        if x.potential != potential:
            return f"potential {x.potential}, expected {potential}"
        return None
    return check


def _expect_search(found: bool):
    def check(result):
        if result[0] != found:
            return f"witness found = {result[0]}, expected {found}"
        return None
    return check


# -- shared input builders ---------------------------------------------------

class _Factors:
    """Monomial factorizations of c * v^3 over one variable: (c1 v^k,
    c2 v^(3-k)) with seeded c1, c2.  The split k alternates rather than
    being drawn, so that each op's cost does not depend on the seed."""

    def __init__(self, M, rng):
        self.M = M
        self.rng = rng
        self.made = 0

    def pair(self, v):
        P = self.M.poly.Polynomial
        k = 1 + self.made % 2
        self.made += 1
        x = P.var(v)
        return x ** k * _coeff(self.rng), x ** (3 - k) * _coeff(self.rng)

    def rank1(self, v):
        u, w = self.pair(v)
        return self.M.matfac.make_factorization([[u]], [[w]], u * w)

    def antidiag(self, v):
        u, w = self.pair(v)
        z = self.M.poly.Polynomial.zero()
        m = [[z, u], [w, z]]
        return self.M.matfac.make_factorization(m, m, u * w)


def _cube_vars(M, n):
    V = M.poly.Variable
    suffix = (lambda i: str(i + 1)) if n > 1 else (lambda i: "")
    return (tuple(V(f"x{suffix(i)}") for i in range(n)),
            tuple(V(f"z{suffix(i)}") for i in range(n)))


def _cube_sum(M, coeffs, vs):
    """sum c_i v_i^3"""
    out = M.poly.Polynomial.zero()
    for c, v in zip(coeffs, vs):
        out = out + M.poly.Polynomial.var(v) ** 3 * c
    return out


def _cube_pairs(M, coeffs):
    """X = tensor of (z_i - x_i, c_i(z_i^2 + z_i x_i + x_i^2)), a
    factorization of g - f with f = sum c_i x_i^3, g = sum c_i z_i^3;
    returns X, f, g, xs, zs."""
    P = M.poly.Polynomial
    xs, zs = _cube_vars(M, len(coeffs))
    x_mf = None
    for c, xv, zv in zip(coeffs, xs, zs):
        x, z = P.var(xv), P.var(zv)
        pair = M.matfac.make_factorization(
            [[z - x]], [[(z * z + z * x + x * x) * c]], (z ** 3 - x ** 3) * c)
        x_mf = pair if x_mf is None else M.tensor.yoshino(x_mf, pair)
    return x_mf, _cube_sum(M, coeffs, xs), _cube_sum(M, coeffs, zs), xs, zs


# -- tensor_chain --------------------------------------------------------------

def tensor_chain(M, rng, workdir):
    """Yoshino products of rank-1 and anti-diagonal rank-2 factorizations
    with integer coefficients over disjoint variables, cycling the four
    layouts; plus tensor products of scalar morphisms at size 4."""
    fac = _Factors(M, rng)
    V = M.poly.Variable
    x1, x2, x3 = V("x1"), V("x2"), V("x3")
    variants = list(M.tensor.Variant)
    small, large = [], []

    def product(out, kind, a, b):
        variant = variants[(len(small) + len(large)) % len(variants)]
        check = _expect_factorization(2 * a.size * b.size, a.potential + b.potential)
        out.append(Op(
            f"{kind}-{variant.value}", SMALL if out is small else LARGE,
            lambda: M.tensor.yoshino(a, b, variant),
            M.matfac.serialize_factorization, check))

    def morphisms():
        a = fac.antidiag(x1)
        b = fac.rank1(x2)
        fa = M.matfac.scalar_morphism(_coeff(rng), a)
        fb = M.matfac.scalar_morphism(_rational(rng), b)

        def check(m):
            if (m.source.size, m.target.size) != (4, 4):
                return f"tensor morphism between sizes {m.source.size}, {m.target.size}"
            return None
        small.append(Op("tm4", SMALL, lambda: M.tensor.tensor_morphisms(fb, fa),
                        lambda m: _morphism_text(M, m), check))

    for _ in range(16):
        product(small, "r1xr1-2", fac.rank1(x1), fac.rank1(x2))
    for _ in range(8):
        product(small, "r1xad-4", fac.rank1(x1), fac.antidiag(x2))
        product(small, "adxr1-4", fac.antidiag(x1), fac.rank1(x2))
    for _ in range(4):
        morphisms()
    for _ in range(4):
        product(small, "adxad-8", fac.antidiag(x1), fac.antidiag(x2))
    for _ in range(8):
        s4 = M.tensor.yoshino(fac.rank1(x1), fac.antidiag(x2))
        product(small, "s4xr1-8", s4, fac.rank1(x3))
    for i in range(4):
        s8 = M.tensor.yoshino(fac.antidiag(x1), fac.antidiag(x2), variants[i])
        product(large, "s8xad-32", s8, fac.antidiag(x3))
    return _numbered(_interleave(small, large))


def _numbered(ops: list) -> list:
    return [op._replace(id=f"{i:03d}-{op.id}") for i, op in enumerate(ops)]


# -- unitor --------------------------------------------------------------------

def unitor(M, rng, workdir):
    """Koszul units of sum c_i x_i^3 (rational c_i), unitors of the product
    of the pairs (z_i - x_i, c_i(z_i^2 + z_i x_i + x_i^2)), naturality."""
    small, large = [], []

    def unit_op(out, n):
        xs, _ = _cube_vars(M, n)
        f = _cube_sum(M, [_rational(rng) for _ in range(n)], xs)

        def check(u):
            if u.rank != 2 ** (n - 1) or u.mf.size != 2 ** (n - 1):
                return f"unit rank {u.rank}, expected {2 ** (n - 1)}"
            return None
        out.append(Op(f"koszul_unit-n{n}", SMALL if out is small else LARGE,
                      lambda: M.unit.koszul_unit(f, xs),
                      lambda u: M.matfac.serialize_factorization(u.mf), check))

    def unitor_op(out, n, side):
        x, f, g, xs, zs = _cube_pairs(M, [_rational(rng) for _ in range(n)])
        if side == "right":
            run = lambda: M.unit.unitor_right(x, f, xs)  # noqa: E731
        else:
            run = lambda: M.unit.unitor_left(x, g, zs)  # noqa: E731
        size = 2 * x.size * 2 ** (n - 1)

        def check(b):
            if b.side != side or b.z.size != size:
                return f"{b.side} unitor of size {b.z.size}, expected {side} {size}"
            return None

        def canon(b):
            return (M.matfac.serialize_factorization(b.z)
                    + _morphism_text(M, b.rho) + _morphism_text(M, b.psi))
        out.append(Op(f"unitor_{side}-n{n}", SMALL if out is small else LARGE,
                      run, canon, check))

    def naturality_op(out, n):
        x, f, _, xs, _ = _cube_pairs(M, [_rational(rng) for _ in range(n)])
        p = M.matfac.scalar_morphism(_rational(rng), x)

        def canon(r):
            return (f"ok={r.ok}\n{_matrix_text(M, r.alpha_residual)}\n"
                    f"{_matrix_text(M, r.beta_residual)}\n")
        out.append(Op(f"naturality-n{n}", SMALL if out is small else LARGE,
                      lambda: M.unit.naturality_check(p, f, xs), canon,
                      lambda r: None if r.ok else "naturality square fails"))

    for _ in range(6):
        unit_op(small, 2)
    for _ in range(5):
        unitor_op(small, 1, "right")
    for _ in range(8):
        unitor_op(small, 1, "left")
    for _ in range(5):
        naturality_op(small, 1)
    for _ in range(6):
        unit_op(small, 3)
    # Four of the seven large ops are koszul_unit n=5, so the large p50
    # reads one of them (or naturality n=2, of about the same cost).
    unitor_op(large, 2, "right")
    unitor_op(large, 2, "left")
    naturality_op(large, 2)
    for _ in range(4):
        unit_op(large, 5)
    return _numbered(_interleave(small, large))


# -- homotopy --------------------------------------------------------------------

def homotopy(M, rng, workdir):
    """Witness searches with both outcomes: the Jacobian null-homotopy
    d_v(w) * id ~ 0 (found), id on a non-contractible product and
    psi.rho vs id on the collapsed product of (z - x, z^2 + zx + x^2) with
    f = x^3 (not found)."""
    fac = _Factors(M, rng)
    V = M.poly.Variable
    a, b, c = V("a"), V("b"), V("c")
    variants = list(M.tensor.Variant)
    small, large = [], []

    def size2():
        return M.tensor.yoshino(fac.rank1(a), fac.rank1(b), variants[1])

    def jacobian(out, x, degree, kind):
        phi = M.matfac.scalar_morphism(M.poly.derivative(x.potential, a), x)
        out.append(Op(f"jacobian-{kind}-d{degree}", SMALL if out is small else LARGE,
                      lambda: M.homotopy.is_null_homotopic(x, x, phi, degree),
                      lambda r: _search_text(M, r), _expect_search(True)))

    def identity(degree):
        x = size2()
        phi = M.matfac.identity_morphism(x)
        small.append(Op(f"identity-s2-d{degree}", SMALL,
                        lambda: M.homotopy.is_null_homotopic(x, x, phi, degree),
                        lambda r: _search_text(M, r), _expect_search(False)))

    # The psi.rho searches keep the paper's example unchanged; a witness
    # was not found up to degree 5, so the outcome is hashed as it is.
    zx, f, _, xs, _ = _cube_pairs(M, [1])
    bundle = M.unit.unitor_right(zx, f, xs)
    collapsed = bundle.z
    psi_rho = M.matfac.compose_morphisms(bundle.psi, bundle.rho)
    ident = M.matfac.identity_morphism(collapsed)

    def psi_rho_op(degree):
        def run():
            try:
                w = M.homotopy.find_witness(collapsed, collapsed, psi_rho, ident, degree)
            except M.homotopy.NotFoundWithinDegree:
                return (False, None)
            return (True, w)
        small.append(Op(f"psi_rho-s2-d{degree}", SMALL, run,
                        lambda r: _search_text(M, r), _expect_search(False)))

    for degree, copies in ((1, 4), (2, 10), (3, 2)):
        for _ in range(copies):
            jacobian(small, size2(), degree, "s2")
    for degree, copies in ((1, 4), (2, 4), (3, 2)):
        for _ in range(copies):
            identity(degree)
    for degree, copies in ((1, 3), (2, 3), (3, 8)):
        for _ in range(copies):
            psi_rho_op(degree)
    for _ in range(2):
        # Both large ops have one structure; only their coefficients differ.
        big = _Factors(M, rng)
        x4 = M.tensor.yoshino(M.tensor.yoshino(big.rank1(a), big.rank1(b), variants[1]),
                              big.rank1(c), variants[2])
        jacobian(large, x4, 2, "s4")
    return _numbered(_interleave(small, large))


# -- cli ---------------------------------------------------------------------------

def cli(M, rng, workdir):
    """``python -m mfkit.cli`` runs on JSON files generated here, with the
    checkout's ``src`` on PYTHONPATH."""
    fac = _Factors(M, rng)
    P, V = M.poly.Polynomial, M.poly.Variable
    x, y, z, w = V("x"), V("y"), V("z"), V("w")
    variants = list(M.tensor.Variant)
    serialize = M.matfac.serialize_factorization
    os.makedirs(workdir, exist_ok=True)
    small, large = [], []

    def write(name, mf):
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(serialize(mf))

    def command(out, kind, argv, code, check=None, output=None):
        def run():
            proc = subprocess.run(
                [sys.executable, "-m", "mfkit.cli", *argv], cwd=workdir,
                capture_output=True, timeout=CLI_TIMEOUT_S)
            return (proc.returncode, proc.stdout, _read(workdir, output))

        def inproc():
            buf = io.StringIO()
            old = os.getcwd()
            os.chdir(workdir)
            try:
                with contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(io.StringIO()):
                    exit_code = M.cli.run(argv)
            finally:
                os.chdir(old)
            return (exit_code, buf.getvalue().encode("utf-8"), _read(workdir, output))

        def canon(r):
            exit_code, stdout, written = r
            return b"exit %d\n" % exit_code + stdout + b"\n--\n" + written

        def full_check(r):
            if r[0] != code:
                return f"exit code {r[0]}, expected {code}"
            return check(r[1].decode("utf-8"), r[2]) if check else None
        out.append(Op(kind, SMALL if out is small else LARGE,
                      run, canon, full_check, inproc))

    def factorization_doc(size, potential=None):
        def check(stdout, _written):
            doc = json.loads(stdout)
            if len(doc["P"]) != size or potential is not None and (
                    doc["potential"] != str(potential)):
                return f"document of size {len(doc['P'])}, potential {doc['potential']}"
            return None
        return check

    def validated(*names_and_mfs):
        def check(stdout, _written):
            want = "".join(f"{n}: ok (size {mf.size}, potential {mf.potential})\n"
                           for n, mf in names_and_mfs)
            return None if stdout == want else f"validate printed {stdout!r}"
        return check

    # Inputs of the small commands: sizes 1 to 8.
    r1x = fac.rank1(x)
    r1y = fac.rank1(y)
    adx = fac.antidiag(x)
    ady = fac.antidiag(y)
    s2 = M.tensor.yoshino(r1x, r1y, variants[0])
    s4 = M.tensor.yoshino(adx, r1y, variants[1])
    s8 = M.tensor.yoshino(adx, ady, variants[2])
    for name, mf in (("r1x", r1x), ("r1y", r1y), ("adx", adx), ("ady", ady),
                     ("s2", s2), ("s4", s4), ("s8", s8)):
        write(f"{name}.json", mf)
    zx, fx, gz, _, _ = _cube_pairs(M, [_rational(rng)])
    write("zx.json", zx)
    cz, cw = _coeff(rng), _coeff(rng)
    unit_pot = P.var(z) ** 3 * cz + P.var(w) ** 3 * cw
    jac = M.poly.derivative(s2.potential, x)
    # Inputs of the large commands: a size-8 product tensored to size 32,
    # and validation of the size-32 file that the tensor command wrote.
    big8 = M.tensor.yoshino(fac.antidiag(x), fac.antidiag(y), variants[3])
    big_ad = fac.antidiag(z)
    write("big8.json", big8)
    write("bigad.json", big_ad)
    big32_pot = big8.potential + big_ad.potential

    def tensor_32():
        variant = variants[len(large) % 4].value
        command(large, f"tensor-32-{variant}",
                ["tensor", "--variant", variant, "big8.json", "bigad.json",
                 "-o", "big32.json"], 0,
                _wrote("big32.json", 32, big32_pot), output="big32.json")

    def validate_32():
        command(large, "validate-32", ["validate", "big32.json"], 0,
                lambda stdout, _w: None if stdout == (
                    f"big32.json: ok (size 32, potential {big32_pot})\n")
                else f"validate printed {stdout!r}")

    for _ in range(4):
        command(small, "validate-s8-s4", ["validate", "s8.json", "s4.json"], 0,
                validated(("s8.json", s8), ("s4.json", s4)))
        command(small, "print-s4", ["print", "s4.json"], 0,
                lambda stdout, _w: None if stdout.startswith("size: 4\n")
                else "print does not start with the size")
        variant = variants[len(small) % 4].value
        command(small, f"tensor-4-{variant}",
                ["tensor", "--variant", variant, "adx.json", "r1y.json"], 0,
                factorization_doc(4, adx.potential + r1y.potential))
        command(small, "tensor-2", ["tensor", "r1x.json", "r1y.json"], 0,
                factorization_doc(2, r1x.potential + r1y.potential))
        command(small, "unit-n2",
                ["unit", f"--potential={unit_pot}", "--vars", "z,w"], 0,
                factorization_doc(2))
        command(small, "unitor-right",
                ["unitor", "zx.json", f"--potential={fx}", "--var-split", "x:z"], 0,
                _unitor_ok)
        command(small, "unitor-left",
                ["unitor", "zx.json", "--side", "left", f"--potential={gz}",
                 "--var-split", "x:z"], 0, _unitor_ok)
    for _ in range(3):
        command(small, "homotopy-jacobian-d1",
                ["homotopy", "s2.json", "--phi", f"scalar:{jac}", "--psi", "zero",
                 "--max-degree", "1"], 0,
                lambda stdout, _w: None if stdout.startswith("witness found")
                else "no witness reported")
        command(small, "homotopy-identity-d1",
                ["homotopy", "s2.json", "--phi", "id", "--psi", "zero",
                 "--max-degree", "1"], 1)
    # validate-32 reads the file the tensor-32 op before it wrote.
    tensor_32()
    validate_32()
    tensor_32()
    return _numbered(_interleave(small, large))


def _read(workdir, name) -> bytes:
    if name is None:
        return b""
    with open(os.path.join(workdir, name), "rb") as fh:
        return fh.read()


def _wrote(name, size, potential):
    def check(stdout, written):
        if stdout != f"wrote {name} (size {size}, potential {potential})\n":
            return f"tensor printed {stdout!r}"
        doc = json.loads(written)
        if len(doc["P"]) != size or doc["potential"] != str(potential):
            return f"{name} holds size {len(doc['P'])}, potential {doc['potential']}"
        return None
    return check


def _unitor_ok(stdout, _written):
    if not stdout.startswith("rho∘psi = id: PASS; psi∘rho = id: FAIL (expected)\n"):
        return f"unitor printed {stdout!r}"
    return None


WORKLOADS = {
    "tensor_chain": tensor_chain,
    "unitor": unitor,
    "homotopy": homotopy,
    "cli": cli,
}
