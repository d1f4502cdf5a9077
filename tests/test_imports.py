"""Source hygiene: no module of the package imports a name it never uses,
no private helper outlives its last caller, and the exact paths never load
numpy.

Core claims:
    - every name a ``src/cubesense`` module imports is read somewhere in
      that module, in code or in a quoted annotation, so a helper that
      loses its last caller cannot leave its import behind
      (``__init__.py`` re-exports by design and is skipped)
    - every private top-level function or class of ``src/cubesense`` is
      named somewhere in ``src/cubesense`` outside its own definition;
      the one exception is ``witness._restricted_rows``, the whole
      restricted system that tests and the benchmark's reference recorder
      keep as their oracle
    - ``import cubesense``, an exact ``witness`` and an exact
      ``verify-operator`` at n = 4 leave numpy unloaded: only the float
      path imports it, so exact runs do not pay its start-up time
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cubesense"


def _imported(tree: ast.Module) -> dict:
    """Each name an import statement binds, mapped to its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _read(tree: ast.Module) -> set:
    """Every name the module reads, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if annotation is None:
            continue
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                quoted = ast.parse(part.value, mode="eval")
                names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def test_no_unused_imports():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _read(tree)
        stale = [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in read]
        if stale:
            unused[path.name] = stale
    assert unused == {}


ORACLES_KEPT_IN_SRC = {("witness.py", "_restricted_rows")}


def test_no_unreferenced_private_definitions():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    unreferenced = [
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in referenced
    ]
    assert sorted(unreferenced) == sorted(ORACLES_KEPT_IN_SRC)


NUMPY_FREE = """
import contextlib, io, sys
import cubesense
from cubesense import cli
assert "numpy" not in sys.modules, "import cubesense"
for argv in (
    ["witness", "--n", "4", "--subgraph", "random:9:0", "--mode", "exact"],
    ["verify-operator", "--n", "4", "--a", "2", "--b", "3", "--mode", "exact"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
"""


def test_exact_paths_never_load_numpy():
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
