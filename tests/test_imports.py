import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(code: str, *flags: str) -> str:
    """Run ``code`` in a fresh interpreter, started with ``flags``, with the
    package on its path and return its stdout; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_leaves_numpy_out():
    # A fresh interpreter, because pytest plugins may already have imported
    # numpy into this one.
    probe = "import sys, hglattice, hglattice.cli; print('numpy' in sys.modules)"
    assert _fresh_python(probe).strip() == "False"


def test_cli_import_leaves_pathlib_and_typing_out():
    # -S skips the site module, which may import both modules itself.
    probe = (
        "import sys, hglattice.cli\n"
        "print(*(m for m in ('pathlib', 'typing') if m in sys.modules))"
    )
    assert _fresh_python(probe, "-S").strip() == ""


def test_cli_import_leaves_oracle_and_generate_out():
    # The package resolves their names on first access, and the CLI imports
    # them only for build --verify, gen and bench.
    probe = (
        "import sys, hglattice.cli\n"
        "print(*(m for m in ('hglattice.oracle', 'hglattice.generate')"
        " if m in sys.modules))"
    )
    assert _fresh_python(probe, "-S").strip() == ""


def test_star_import_resolves_all():
    # A stale name in __all__ makes the star import raise AttributeError.
    probe = (
        "from hglattice import *\n"
        "import hglattice\n"
        "print(*(n for n in hglattice.__all__ if n not in globals()))"
    )
    assert _fresh_python(probe).strip() == ""


def test_oracle_imports_only_core():
    # The oracle is the independent check of the lattice code, so it may
    # share the core primitives but nothing else of the package.
    tree = ast.parse((SRC / "hglattice" / "oracle.py").read_text())
    relative, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            (relative if node.level else absolute).add(node.module)
        elif isinstance(node, ast.Import):
            absolute.update(alias.name for alias in node.names)
    assert relative == {"core"}
    assert not any(name.split(".")[0] == "hglattice" for name in absolute)
