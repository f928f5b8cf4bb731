import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_numpy_out():
    # A fresh interpreter, because pytest plugins may already have imported
    # numpy into this one.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    probe = "import sys, hglattice, hglattice.cli; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


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
