"""Any input to any subcommand ends in a defined exit code.

``cli.run`` is called in process with arbitrary bytes as the input files and
arbitrary text on the polynomial and variable flags; it must return 0, 1 or
2 without raising, and print no traceback.  Input sizes are capped so the
examples stay fast.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from mfkit.cli import run
from mfkit.matfac import make_factorization, serialize_factorization

from conftest import PX, PY, PZ

_M = [[0, PX], [PX ** 2, 0]]
DOCS = [
    serialize_factorization(make_factorization([[1]], [[PX]], PX)),
    serialize_factorization(make_factorization([[1]], [[PZ - PX]], PZ - PX)),
    serialize_factorization(make_factorization(_M, _M, PX ** 3)),
    serialize_factorization(make_factorization([[PY]], [[PX]], PX * PY)),
]

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_doc_shaped = st.fixed_dictionaries({
    "vars": st.lists(st.sampled_from(["x", "y", "z", ""]), max_size=3) | _json_values,
    "potential": st.text(alphabet="xyz0123^+-*/() ", max_size=6) | _json_values,
    "P": _json_values,
    "Q": _json_values,
})

# File contents: raw bytes, JSON of the document's shape, and valid
# documents, whole or cut short.
file_bytes = st.one_of(
    st.binary(max_size=200),
    _doc_shaped.map(lambda d: json.dumps(d).encode()),
    st.sampled_from(DOCS).map(str.encode),
    st.tuples(st.sampled_from(DOCS), st.integers(0, 200)).map(
        lambda dc: dc[0][:dc[1]].encode()),
)
# Flag text: anything, text over the expression grammar, and valid values.
# The grammar text stays under 8 characters: "(x+y)^99" would run for
# minutes in `unit`, which has no term budget yet.
flag_text = st.one_of(
    st.text(max_size=12),
    st.text(alphabet="xyz0123^+-*/(),: '", max_size=7),
    st.sampled_from(["x", "x,y", "z", "x:z", "z:x", "x,y:z", "x^3", "z - x",
                     "x*y", "zero", "id", "scalar:x", "scalar:1/2"]),
)


def _run(argv, files):
    """Write ``files`` into a fresh directory, run ``argv`` there."""
    out, err = io.StringIO(), io.StringIO()
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        finally:
            os.chdir(old)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    return code


@settings(max_examples=150, deadline=None)
@given(file_bytes, st.booleans())
def test_validate_and_print(data, validate):
    _run(["validate" if validate else "print", "a.json"], {"a.json": data})


@settings(max_examples=100, deadline=None)
@given(file_bytes, file_bytes,
       st.sampled_from(["standard", "v1", "v2", "v3"]) | st.text(max_size=6),
       st.booleans())
def test_tensor(a, b, variant, to_file):
    argv = ["tensor", "--variant", variant, "a.json", "b.json"]
    _run(argv + ["-o", "out.json"] if to_file else argv, {"a.json": a, "b.json": b})


@settings(max_examples=150, deadline=None)
@given(flag_text, flag_text)
def test_unit(potential, names):
    _run(["unit", f"--potential={potential}", f"--vars={names}"], {})


@settings(max_examples=100, deadline=None)
@given(file_bytes, flag_text, flag_text, st.sampled_from(["right", "left"]))
def test_unitor(data, potential, split, side):
    _run(["unitor", "x.json", "--side", side, f"--potential={potential}",
          f"--var-split={split}"], {"x.json": data})


@settings(max_examples=100, deadline=None)
@given(file_bytes, st.none() | file_bytes, flag_text, flag_text,
       st.integers(-1, 2))
def test_homotopy(a, b, phi, psi, degree):
    files = {"a.json": a}
    argv = ["homotopy", "a.json"]
    if b is not None:
        files["b.json"] = b
        argv.append("b.json")
    _run(argv + [f"--phi={phi}", f"--psi={psi}", f"--max-degree={degree}"], files)
