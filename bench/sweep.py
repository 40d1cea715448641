"""Scaling sweep: how the constructions grow with their size.

    python3 bench/sweep.py

Run from the root of a checkout.  Each case runs once untraced (its time)
and once traced (its per-layer counts), and prints one row; all rows go to
``.bench_out/sweep.json``.  The cases follow the baseline table of
ROADMAP.md:

* ``koszul_unit`` of f = sum x_i^3, n = 1..6;
* one tensor step of a chain of ([x_i], [x_i^2]) to sizes 4..64;
* ``unitor_right`` / ``unitor_left`` of the product of the pairs
  (z_i - x_i, z_i^2 + z_i x_i + x_i^2), n = 1..3;
* ``find_witness`` for id ~ 0 on a size-2 product, by degree, with the
  unknowns and equations of its linear system.

The sweep is single, uncalibrated runs and is not gated: it keeps the
growth on record.  It takes about three minutes on a 2-core x86-64 VM.
"""

from __future__ import annotations

import sys
from time import perf_counter

import run
import tracer as tracing
import workloads


def cases(M):
    P, V = M.poly.Polynomial, M.poly.Variable

    def chain_step(size):
        factors = [M.matfac.make_factorization([[P.var(V(f"x{i}"))]],
                                               [[P.var(V(f"x{i}")) ** 2]],
                                               P.var(V(f"x{i}")) ** 3)
                   for i in range(size.bit_length())]
        x = factors[0]
        for y in factors[1:-1]:
            x = M.tensor.yoshino(x, y)
        return lambda: M.tensor.yoshino(x, factors[-1])

    for n in range(1, 7):
        xs, _ = workloads._cube_vars(M, n)
        f = workloads._cube_sum(M, [1] * n, xs)
        yield "koszul_unit", f"n={n}", lambda f=f, xs=xs: M.unit.koszul_unit(f, xs)
    for size in (4, 8, 16, 32, 64):
        yield "tensor_step", f"size={size}", chain_step(size)
    for side in ("right", "left"):
        for n in (1, 2, 3):
            x, f, g, xs, zs = workloads._cube_pairs(M, [1] * n)
            if side == "right":
                fn = lambda x=x, f=f, xs=xs: M.unit.unitor_right(x, f, xs)  # noqa: E731
            else:
                fn = lambda x=x, g=g, zs=zs: M.unit.unitor_left(x, g, zs)  # noqa: E731
            yield f"unitor_{side}", f"n={n}", fn
    a, b = V("a"), V("b")
    x = M.tensor.yoshino(
        M.matfac.make_factorization([[P.var(a)]], [[P.var(a) ** 2]], P.var(a) ** 3),
        M.matfac.make_factorization([[P.var(b)]], [[P.var(b) ** 2]], P.var(b) ** 3))
    ident = M.matfac.identity_morphism(x)
    for degree in (1, 2, 3, 4):
        yield "find_witness", f"degree={degree}", (
            lambda d=degree: M.homotopy.is_null_homotopic(x, x, ident, d))


COLUMNS = ("poly.construct_calls", "poly.term_products", "matrices.entry_products",
           "poly.diff_quotient_calls", "homotopy.unknowns", "homotopy.equations")


def main() -> int:
    if not run.use_checkout_sources():
        return 2
    M = run.fresh_import()
    tracer = tracing.Tracer(M.by_layer())
    rows = []
    print(f"{'case':14s} {'size':10s} {'seconds':>9s} {'traced_s':>9s} "
          + " ".join(f"{c.split('.')[1]:>16s}" for c in COLUMNS))
    for family, size, fn in cases(M):
        start = perf_counter()
        fn()
        seconds = perf_counter() - start
        tracer.reset()
        tracer.install()
        try:
            start = perf_counter()
            tracer.run_op(0, f"{family}-{size}", fn)
            traced = perf_counter() - start
        finally:
            tracer.uninstall()
        counts = tracer.layer_counts()
        rows.append({"case": family, "size": size, "seconds": seconds,
                     "traced_seconds": traced, "counts": counts,
                     "layer_seconds": tracer.layer_times()})
        print(f"{family:14s} {size:10s} {seconds:9.3f} {traced:9.3f} "
              + " ".join(f"{counts[c]:16d}" for c in COLUMNS), flush=True)
    run.write_json(run.OUT / "sweep.json", {"rows": rows})
    return 0


if __name__ == "__main__":
    sys.exit(main())
