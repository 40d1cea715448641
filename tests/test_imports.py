"""What importing mfkit loads.  Each check runs in a fresh ``python -S``
interpreter, so no site hook has preloaded a module, with the checkout's
``src`` first on PYTHONPATH."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from mfkit.matfac import make_factorization, serialize_factorization

from conftest import PX

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh(code: str):
    """Run ``code`` in a fresh interpreter; return what it prints as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_mfkit_loads_no_submodule():
    loaded = _fresh("""
        import json, sys
        import mfkit
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("mfkit"))))
    """)
    assert loaded == ["mfkit"]


def test_import_cli_loads_no_typing():
    # poly's annotation-only names (Scalar, Mapping) need no ``typing``.
    loaded = _fresh("""
        import json, sys
        import mfkit.cli
        print(json.dumps(sorted(m for m in ("typing", "dataclasses") if m in sys.modules)))
    """)
    assert loaded == []


def test_validate_and_print_load_only_their_layers(tmp_path):
    path = tmp_path / "m.json"
    m = [[0, PX], [PX ** 2, 0]]
    path.write_text(serialize_factorization(make_factorization(m, m, PX ** 3)))
    for cmd in ("validate", "print"):
        code, loaded = _fresh(f"""
            import contextlib, io, json, sys
            from mfkit.cli import run
            with contextlib.redirect_stdout(io.StringIO()):
                code = run([{cmd!r}, {str(path)!r}])
            print(json.dumps([code, sorted(sys.modules)]))
        """)
        assert code == 0
        for name in ("dataclasses", "mfkit.unit", "mfkit.homotopy", "mfkit.exterior",
                     "mfkit.demo"):
            assert name not in loaded, (cmd, name)
        assert {"mfkit.poly", "mfkit.matrices", "mfkit.matfac"} <= set(loaded)


def test_exports_resolve_to_their_definitions():
    result = _fresh("""
        import json, sys
        import mfkit
        names = list(mfkit.__all__)
        wrong = [n for n in names
                 if getattr(mfkit, n) is not getattr(
                     sys.modules[getattr(mfkit, n).__module__], n)]
        star = {}
        exec("from mfkit import *", star)
        print(json.dumps({
            "count": len(names),
            "wrong": wrong,
            "homes": sorted({getattr(mfkit, n).__module__ for n in names}),
            "missing_from_dir": sorted(set(names) - set(dir(mfkit))),
            "missing_from_star": sorted(set(names) - set(star)),
        }))
    """)
    assert result["count"] == 45
    assert result["wrong"] == []
    assert result["homes"] == ["mfkit.homotopy", "mfkit.matfac", "mfkit.poly",
                               "mfkit.tensor", "mfkit.unit"]
    assert result["missing_from_dir"] == []
    assert result["missing_from_star"] == []


def test_unknown_attribute_is_named():
    message = _fresh("""
        import json
        import mfkit
        try:
            mfkit.no_such_name
        except AttributeError as e:
            print(json.dumps(str(e)))
    """)
    assert "no_such_name" in message
