"""Command-line interface.

Subcommands: validate | tensor | unit | unitor | homotopy | demo | print.
Exit codes: 0 when every check passes, 1 when a mathematical check fails
(residual diagnostics on stderr) or an internal invariant breaks ("internal
error: ..."), 2 on usage, parse, or IO errors.  Results go to stdout,
diagnostics to stderr.  Factorizations travel as the JSON documents of
`matfac.serialize_factorization`; polynomials on flags use the expression
grammar of `poly.parse_poly`.
"""

from __future__ import annotations

import argparse
import sys

from .matfac import (
    NotAFactorization,
    NotAMorphism,
    _composes_to_identity,
    identity_morphism,
    parse_factorization,
    scalar_morphism,
    serialize_factorization,
    validate_morphism,
    zero_morphism,
)
from .poly import Variable, parse_poly, poly_to_str

# Every subcommand needs matfac and poly (and matrices, beneath matfac).  The
# others are imported where they run, so that validate and print load none of
# unit, homotopy, demo and the word maps in exterior; the parser takes
# --variant from tensor.


class _MathFailure(Exception):
    """A check that ran and came out false (exit code 1)."""


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror or e}") from e
    return parse_factorization(text)


def _emit(x, output, summary: str) -> None:
    text = serialize_factorization(x)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {output} ({summary})")
    else:
        sys.stdout.write(text)


def _matrix_lines(label: str, m) -> list:
    cells = [[poly_to_str(e) for e in row] for row in m]
    lines = [f"{label}:"]
    if not cells:
        return lines + ["  []"]
    widths = [
        max(len(cells[i][j]) for i in range(len(cells)))
        for j in range(len(cells[0]))
    ]
    for row in cells:
        lines.append(
            "  [ " + "   ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]"
        )
    return lines


# -- subcommands -----------------------------------------------------------

def _cmd_validate(args) -> int:
    # Exit 2 if any file could not be read or parsed, else 1 if any failed
    # its check.  A read error (raised from an OSError) names its file.
    status = 0
    for path in args.files:
        try:
            x = _load(path)
        except NotAFactorization as e:
            print(f"{path}: FAIL - {e}", file=sys.stderr)
            status = max(status, 1)
            continue
        except ValueError as e:
            named = len(args.files) > 1 and not isinstance(e.__cause__, OSError)
            print(f"error: {path}: {e}" if named else f"error: {e}", file=sys.stderr)
            status = 2
            continue
        print(f"{path}: ok (size {x.size}, potential {x.potential})")
    return status


def _cmd_tensor(args) -> int:
    from .tensor import Variant, yoshino

    a = _load(args.a)
    b = _load(args.b)
    z = yoshino(a, b, Variant(args.variant))
    _emit(z, args.output, f"size {z.size}, potential {z.potential}")
    return 0


def _split_names(raw: str) -> list:
    return [s.strip() for s in raw.split(",") if s.strip()]


def _cmd_unit(args) -> int:
    from .unit import koszul_unit

    names = _split_names(args.vars)
    if not names:
        raise ValueError("--vars must list at least one variable")
    # The names are checked before the expression is parsed against them.
    variables = tuple(Variable(n) for n in names)
    f = parse_poly(args.potential, names)
    u = koszul_unit(f, variables)
    _emit(
        u.mf,
        args.output,
        f"block rank {u.rank}, potential {u.mf.potential}",
    )
    return 0


def _parse_var_split(raw: str):
    """The f-side and g-side names of ``--var-split``, each checked as a
    variable name, and no name on both sides."""
    parts = raw.split(":")
    if len(parts) != 2:
        raise ValueError("--var-split must look like 'x,y:z' (f-side : g-side)")
    fside, gside = _split_names(parts[0]), _split_names(parts[1])
    for name in fside + gside:
        Variable(name)
    both = [name for name in fside if name in gside]
    if both:
        raise ValueError(f"--var-split names {', '.join(both)} on both sides")
    return fside, gside


def _cmd_unitor(args) -> int:
    from .unit import unitor_left, unitor_right

    x = _load(args.file)
    fside, gside = _parse_var_split(args.var_split)
    names = fside if args.side == "right" else gside
    if not names:
        raise ValueError(f"--var-split gives no variables for side {args.side!r}")
    pvars = tuple(Variable(n) for n in names)
    pot = parse_poly(args.potential, names)
    if args.side == "right":
        bundle = unitor_right(x, pot, pvars)
    else:
        bundle = unitor_left(x, pot, pvars)
    # rho . psi = id was asserted during construction; probe psi . rho.
    if _composes_to_identity(bundle.psi, bundle.rho):
        print("rho∘psi = id: PASS; psi∘rho = id: PASS (unexpected)")
        raise _MathFailure("psi∘rho unexpectedly equals the identity")
    print("rho∘psi = id: PASS; psi∘rho = id: FAIL (expected)")
    print(
        f"collapsed product: size {bundle.z.size}, potential {bundle.z.potential}"
    )
    return 0


def _morphism_from_spec(spec: str, x, y):
    if spec == "zero":
        m = zero_morphism(x, y)
    elif spec == "id":
        if x != y:
            raise ValueError("'id' needs identical source and target")
        m = identity_morphism(x)
    elif spec.startswith("scalar:"):
        if x != y:
            raise ValueError("'scalar:' needs identical source and target")
        names = sorted({v.name for v in x.vars} | {v.name for v in y.vars})
        c = parse_poly(spec[len("scalar:"):], names)
        m = scalar_morphism(c, x)
    else:
        raise ValueError(
            f"bad morphism spec {spec!r}; use zero | id | scalar:<poly>"
        )
    report = validate_morphism(m)
    if not report.ok:
        raise _MathFailure(f"morphism {spec!r} is not valid: {report.describe()}")
    return m


def _cmd_homotopy(args) -> int:
    from .homotopy import NotFoundWithinDegree, find_witness

    x = _load(args.file)
    y = _load(args.second) if args.second else x
    phi = _morphism_from_spec(args.phi, x, y)
    psi = _morphism_from_spec(args.psi, x, y)
    try:
        w = find_witness(x, y, phi, psi, args.max_degree)
    except NotFoundWithinDegree as e:
        raise _MathFailure(str(e)) from e
    print(f"witness found (entry degree <= {w.max_degree}); re-check: ok")
    for line in _matrix_lines("lambda0", w.lambda0):
        print(line)
    for line in _matrix_lines("lambda1", w.lambda1):
        print(line)
    return 0


def _cmd_print(args) -> int:
    x = _load(args.file)
    print(f"size: {x.size}")
    print("vars: " + ", ".join(str(v) for v in x.vars))
    print(f"potential: {x.potential}")
    for line in _matrix_lines("P", x.p):
        print(line)
    for line in _matrix_lines("Q", x.q):
        print(line)
    return 0


# -- demo ------------------------------------------------------------------

def _cmd_demo(args) -> int:
    from .demo import paper_checks

    checks = paper_checks()
    failures = 0
    for name, fn in checks:
        try:
            ok = fn()
            detail = ""
        except Exception as e:  # a demo check must never crash the runner
            ok = False
            detail = f" ({type(e).__name__}: {e})"
        if ok:
            print(f"ok   {name}")
        else:
            failures += 1
            print(f"FAIL {name}", file=sys.stderr)
            if detail:
                print(f"     {detail.strip()}", file=sys.stderr)
    total = len(checks)
    print(f"{total - failures}/{total} checks passed")
    return 1 if failures else 0


# -- wiring ----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    from .tensor import Variant

    p = argparse.ArgumentParser(
        prog="mfkit",
        description="exact matrix factorizations: build, combine, verify",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("validate", help="validate factorization files")
    v.add_argument("files", nargs="+")
    v.set_defaults(func=_cmd_validate)

    t = sub.add_parser("tensor", help="tensor product of two factorizations")
    t.add_argument("--variant", choices=[x.value for x in Variant],
                   default="standard")
    t.add_argument("a")
    t.add_argument("b")
    t.add_argument("-o", "--output")
    t.set_defaults(func=_cmd_tensor)

    u = sub.add_parser("unit", help="unit factorization of a potential")
    u.add_argument("--potential", required=True)
    u.add_argument("--vars", required=True,
                   help="comma-separated generator variables, in order")
    u.add_argument("-o", "--output")
    u.set_defaults(func=_cmd_unit)

    un = sub.add_parser("unitor", help="unitor bundle and its assertions")
    un.add_argument("file")
    un.add_argument("--side", choices=["right", "left"], default="right")
    un.add_argument("--potential", required=True,
                    help="f for --side right, g for --side left")
    un.add_argument("--var-split", required=True, dest="var_split",
                    help="f-side:g-side variable names, e.g. x,y:z")
    un.set_defaults(func=_cmd_unitor)

    h = sub.add_parser("homotopy", help="search for a homotopy witness")
    h.add_argument("file")
    h.add_argument("second", nargs="?",
                   help="target factorization (defaults to the first file)")
    h.add_argument("--phi", required=True,
                   help="morphism spec: zero | id | scalar:<poly>")
    h.add_argument("--psi", required=True)
    h.add_argument("--max-degree", required=True, type=int, dest="max_degree")
    h.set_defaults(func=_cmd_homotopy)

    d = sub.add_parser("demo", help="replay the worked examples")
    d.add_argument("topic", choices=["paper"])
    d.set_defaults(func=_cmd_demo)

    pr = sub.add_parser("print", help="human-readable rendering of a file")
    pr.add_argument("file")
    pr.set_defaults(func=_cmd_print)

    return p


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
        return 0 if code == 0 else 2
    # Some argparse versions drop a lone "--" given as a value ("--vars=--")
    # and leave an empty list where a string belongs.
    if [] in vars(args).values():
        print("error: an option is missing its value", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (_MathFailure, NotAFactorization, NotAMorphism) as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except RuntimeError as e:
        # A broken internal invariant, not a property of the input.
        print(f"internal error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
