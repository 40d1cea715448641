"""Per-layer tracing of mfkit, installed from outside the package.

``Tracer.install`` wraps every public function of each mfkit module, the
operators and constructor of ``Polynomial``, and
``homotopy._solve_gauss_jordan``.  It rebinds the wrapper in every module
that holds the original, because ``tensor``, ``unit``, ``exterior`` and the
others import names with ``from .poly import ...``.  ``uninstall`` puts the
originals back.

Each call records its inclusive time (outermost call of a name only), its
self time (inclusive time minus the time of wrapped callees) and a call
count.  Calls other than the hot polynomial ones also record a span
``(id, parent, name, start, end, op)`` in memory.  The time the wrappers and
their counters spend is measured and taken out of every enclosing call, so
self times stay close to untraced ones; ``trace.overhead_frac`` reports what
is left.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("poly", "matrices", "matfac", "tensor", "exterior", "unit", "homotopy", "cli")
# Private entry points the per-layer metrics need.
EXTRA = {"homotopy": ("_solve_gauss_jordan",)}
POLY_METHODS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__pow__")
# Called too often to keep a span per call; they are counted and timed only.
HOT = {f"Polynomial.{m}" for m in POLY_METHODS} | {"poly.as_poly"}
# Calls whose result or exception feeds a counter.
FINISHED = {"matfac.make_factorization", "unit.koszul_unit", "homotopy.find_witness"}


def _nterms(p) -> int:
    """Terms of a polynomial operand; a scalar operand counts as one term."""
    return len(p.terms) if hasattr(p, "terms") else (1 if p else 0)


class Tracer:
    def __init__(self, modules):
        """``modules`` maps a layer name to the imported mfkit module."""
        self.modules = modules
        self.on = False
        self._saved = []
        self._hooks = {
            "Polynomial.__mul__": self._count_mul,
            "Polynomial.__add__": self._count_add,
            "poly.diff_quotient": self._count_diff_quotient,
            "matrices.mul": self._count_matmul,
            "homotopy._solve_gauss_jordan": self._count_system,
        }
        self.reset()

    def reset(self) -> None:
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.spans = []
        self._stack = []
        self._depth = Counter()
        self._overhead = 0.0
        self._next_id = 1
        self._op = -1
        self._dq_seen = set()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            mod = self.modules.get(layer)
            if mod is None:
                continue
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and (
                        not name.startswith("_") or name in EXTRA.get(layer, ())):
                    originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        poly_cls = self.modules["poly"].Polynomial
        for meth in POLY_METHODS:
            fn = vars(poly_cls)[meth]
            self._saved.append((poly_cls, meth, fn))
            setattr(poly_cls, meth, self._wrap(f"Polynomial.{meth}", fn))
        for mod in self.modules.values():
            for name, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, name, value))
                    setattr(mod, name, hit[1])
        self.on = True

    def uninstall(self) -> None:
        self.on = False
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        tr = self
        hook = self._hooks.get(name)
        hot = name in HOT
        finish = name in FINISHED

        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            t_enter = perf_counter()
            if hook is not None:
                hook(args)
            stack = tr._stack
            parent = stack[-1] if stack else None
            if hot:
                span_id = parent[2] if parent else 0
            else:
                span_id = tr._next_id
                tr._next_id += 1
            frame = [0.0, tr._overhead, span_id]
            stack.append(frame)
            tr._depth[name] += 1
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tr._depth[name] -= 1
                dur = end - start - (tr._overhead - frame[1])
                tr.calls[name] += 1
                tr.self_s[name] += dur - frame[0]
                if not tr._depth[name]:
                    tr.incl[name] += dur
                if parent is not None:
                    parent[0] += dur
                if not hot:
                    tr.spans.append((span_id, parent[2] if parent else 0, name,
                                     start, end, tr._op))
                if finish:
                    tr._finish(name, result, exc)
                tr._overhead += (start - t_enter) + (perf_counter() - end)

        return wrapper

    def run_op(self, index: int, op_id: str, fn):
        """Run one op under a root span named after it."""
        self._op = index
        self._dq_seen = set()
        return self._wrap(f"op:{op_id}", fn)()

    # -- counters -------------------------------------------------------------

    def _count_mul(self, args):
        self.counts["poly.term_products"] += _nterms(args[0]) * _nterms(args[1])
        self._count_add(args)

    def _count_add(self, args):
        if not args[0].terms or not _nterms(args[1]):
            self.counts["poly.zero_operands"] += 1

    def _count_diff_quotient(self, args):
        f, i = args[0], args[1]
        xs = args[2] if len(args) > 2 else None
        key = (f.vars, frozenset(f.terms.items()), i, None if xs is None else tuple(xs))
        if key not in self._dq_seen:
            self._dq_seen.add(key)
            self.counts["poly.diff_quotient_distinct"] += 1

    def _count_matmul(self, args):
        a, b = args[0], args[1]
        if not a or not b:
            return
        rows, inner, cols = len(a), len(b), len(b[0])
        col_nnz = [0] * inner
        for row in a:
            for k, e in enumerate(row):
                if e:
                    col_nnz[k] += 1
        both = sum(col_nnz[k] * sum(1 for e in b[k] if e) for k in range(inner))
        self.counts["matrices.entry_products"] += rows * inner * cols
        self.counts["matrices.nonzero_products"] += both

    def _count_system(self, args):
        rows, nunknowns = args[0], args[1]
        self.counts["homotopy.unknowns"] += nunknowns
        self.counts["homotopy.equations"] += len(rows)
        self.counts["homotopy.row_cells"] += len(rows) * nunknowns
        self.counts["homotopy.row_nonzeros"] += sum(
            1 for coeffs, _ in rows for c in coeffs if c)

    def _finish(self, name, result, exc):
        if name == "matfac.make_factorization" and exc is None:
            self.counts["matfac.checked_entries"] += 2 * result.size * result.size
        elif name == "unit.koszul_unit" and exc is None:
            self.counts["unit.max_rank"] = max(self.counts["unit.max_rank"], result.rank)
        elif name == "homotopy.find_witness":
            self.counts["homotopy.found" if exc is None else "homotopy.not_found"] += 1

    # -- results ----------------------------------------------------------------

    def layer_counts(self) -> dict:
        """Exact counts; two traced passes over the same ops must agree."""
        c, calls = self.counts, self.calls
        searches = c["homotopy.found"] + c["homotopy.not_found"]
        add_mul = calls["Polynomial.__add__"] + calls["Polynomial.__mul__"]
        return {
            "poly.construct_calls": calls["Polynomial.__init__"],
            "poly.mul_calls": calls["Polynomial.__mul__"],
            "poly.add_calls": calls["Polynomial.__add__"],
            "poly.term_products": c["poly.term_products"],
            "poly.zero_operand_frac": _ratio(c["poly.zero_operands"], add_mul),
            "poly.diff_quotient_calls": calls["poly.diff_quotient"],
            "poly.diff_quotient_distinct": c["poly.diff_quotient_distinct"],
            "matrices.mul_calls": calls["matrices.mul"],
            "matrices.entry_products": c["matrices.entry_products"],
            "matrices.nonzero_product_frac": _ratio(c["matrices.nonzero_products"],
                                                    c["matrices.entry_products"]),
            "matfac.checked_entries": c["matfac.checked_entries"],
            "exterior.koszul_diff_calls": calls["exterior.koszul_diff"],
            "exterior.wedge_contract_calls": calls["exterior.wedge"] + calls["exterior.contract"],
            "unit.max_rank": c["unit.max_rank"],
            "homotopy.unknowns": c["homotopy.unknowns"],
            "homotopy.equations": c["homotopy.equations"],
            "homotopy.row_nonzero_frac": _ratio(c["homotopy.row_nonzeros"],
                                                c["homotopy.row_cells"]),
            "homotopy.found_frac": _ratio(c["homotopy.found"], searches),
        }

    def idle_metrics(self) -> list:
        """The per-layer metrics whose calls did not run (see READS)."""
        return [m for m, names in READS.items() if not any(self.calls[n] for n in names)]

    def layer_times(self) -> dict:
        """Seconds per traced pass.  ``_s`` is inclusive time unless the
        name says self time (see bench/README.md)."""
        incl, self_s = self.incl, self.self_s
        return {
            "poly.self_s": sum(v for k, v in self_s.items()
                               if k.startswith(("poly.", "Polynomial."))),
            "poly.parse_s": incl["poly.parse_poly"],
            "poly.print_s": incl["poly.poly_to_str"],
            "matrices.mul_s": incl["matrices.mul"],
            "matrices.kron_s": incl["matrices.kron"],
            "matrices.block_s": incl["matrices.block"],
            "matfac.check_s": self_s["matfac.make_factorization"],
            "matfac.validate_morphism_s": incl["matfac.validate_morphism"],
            "matfac.compose_s": incl["matfac.compose_morphisms"],
            "matfac.parse_s": incl["matfac.parse_factorization"],
            "matfac.serialize_s": incl["matfac.serialize_factorization"],
            "tensor.yoshino_s": self_s["tensor.yoshino"],
            "tensor.identify_vars_s": incl["tensor.identify_vars"],
            "tensor.tensor_morphisms_s": incl["tensor.tensor_morphisms"],
            "exterior.koszul_diff_s": incl["exterior.koszul_diff"],
            "unit.koszul_unit_s": self_s["unit.koszul_unit"],
            "unit.unitor_s": incl["unit.unitor_right"] + incl["unit.unitor_left"],
            "unit.naturality_s": incl["unit.naturality_check"],
            "homotopy.assemble_s": self_s["homotopy.find_witness"],
            "homotopy.eliminate_s": incl["homotopy._solve_gauss_jordan"],
            "homotopy.recheck_s": incl["homotopy.check_witness"],
            "cli.run_s": incl["cli.run"],
        }


# The wrapped calls each per-layer metric reads.  A metric none of whose
# calls ran in a pass reads 0 and is idle: for a count or a time that 0 is
# what was measured, for a fraction it stands for 0/0.
_POLY_ARITH = ("Polynomial.__add__", "Polynomial.__mul__")
READS = {
    "poly.self_s": ("Polynomial.__init__",),
    "poly.construct_calls": ("Polynomial.__init__",),
    "poly.mul_calls": ("Polynomial.__mul__",),
    "poly.add_calls": ("Polynomial.__add__",),
    "poly.term_products": ("Polynomial.__mul__",),
    "poly.zero_operand_frac": _POLY_ARITH,
    "poly.diff_quotient_calls": ("poly.diff_quotient",),
    "poly.diff_quotient_distinct": ("poly.diff_quotient",),
    "poly.parse_s": ("poly.parse_poly",),
    "poly.print_s": ("poly.poly_to_str",),
    "matrices.mul_s": ("matrices.mul",),
    "matrices.mul_calls": ("matrices.mul",),
    "matrices.entry_products": ("matrices.mul",),
    "matrices.nonzero_product_frac": ("matrices.mul",),
    "matrices.kron_s": ("matrices.kron",),
    "matrices.block_s": ("matrices.block",),
    "matfac.check_s": ("matfac.make_factorization",),
    "matfac.checked_entries": ("matfac.make_factorization",),
    "matfac.validate_morphism_s": ("matfac.validate_morphism",),
    "matfac.compose_s": ("matfac.compose_morphisms",),
    "matfac.parse_s": ("matfac.parse_factorization",),
    "matfac.serialize_s": ("matfac.serialize_factorization",),
    "tensor.yoshino_s": ("tensor.yoshino",),
    "tensor.identify_vars_s": ("tensor.identify_vars",),
    "tensor.tensor_morphisms_s": ("tensor.tensor_morphisms",),
    "exterior.koszul_diff_calls": ("exterior.koszul_diff",),
    "exterior.koszul_diff_s": ("exterior.koszul_diff",),
    "exterior.wedge_contract_calls": ("exterior.wedge", "exterior.contract"),
    "unit.koszul_unit_s": ("unit.koszul_unit",),
    "unit.max_rank": ("unit.koszul_unit",),
    "unit.unitor_s": ("unit.unitor_right", "unit.unitor_left"),
    "unit.naturality_s": ("unit.naturality_check",),
    "homotopy.assemble_s": ("homotopy.find_witness",),
    "homotopy.found_frac": ("homotopy.find_witness",),
    "homotopy.eliminate_s": ("homotopy._solve_gauss_jordan",),
    "homotopy.unknowns": ("homotopy._solve_gauss_jordan",),
    "homotopy.equations": ("homotopy._solve_gauss_jordan",),
    "homotopy.row_nonzero_frac": ("homotopy._solve_gauss_jordan",),
    "homotopy.recheck_s": ("homotopy.check_witness",),
    "cli.run_s": ("cli.run",),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0
