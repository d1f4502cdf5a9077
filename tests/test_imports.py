"""Source hygiene: no module of the package imports a name it never uses,
no helper outlives its last caller, the public surface is one list that
something outside the tests uses, and the exact paths never load numpy.

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
    - every public top-level name and public method of ``src/cubesense``
      is used somewhere other than the unit tests: in ``src`` outside its
      own definition, in perfbench's code, in a README code span or block,
      or in ``tests/test_acceptance.py``; the three exceptions are listed
      in ``USED_ONLY_BY_TESTS`` with their reasons
    - ``__all__`` is exactly the names ``__init__.py``'s imports bind, and
      ``from cubesense import *`` binds exactly ``__all__``
    - the Python example under README "## Library" runs
    - ``import cubesense``, an exact ``witness`` and an exact
      ``verify-operator`` at n = 4 leave numpy unloaded: only the float
      path imports it, so exact runs do not pay its start-up time
"""

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import cubesense

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cubesense"


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


def _public_definitions(tree: ast.Module):
    """``(name, node)`` for each public top-level function, class and
    assigned name, and ``(Class.method, node)`` for each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, node


def _names_used(node: ast.AST) -> Counter:
    """How often each name appears under ``node`` as a Name or Attribute."""
    used = Counter()
    for part in ast.walk(node):
        if isinstance(part, ast.Name):
            used[part.id] += 1
        elif isinstance(part, ast.Attribute):
            used[part.attr] += 1
    return used


def _perfbench_names() -> set:
    """Names perfbench's code reads, with the attribute names its tracer
    looks up by string; docstrings and other bare strings are prose."""
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        prose = {node.value for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        names |= set(_names_used(tree))
        names |= {node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier() and node not in prose}
    return names


def _readme_names() -> set:
    """Identifiers inside README code blocks, their comments left out, and
    inside inline code spans."""
    text = (ROOT / "README.md").read_text()
    blocks = [re.sub(r"#.*", "", block) for block in re.findall(r"```.*?```", text, re.S)]
    spans = re.findall(r"`[^`]+`", re.sub(r"```.*?```", "", text, flags=re.S))
    return {name for code in blocks + spans for name in re.findall(r"[A-Za-z_]\w*", code)}


USED_ONLY_BY_TESTS = {
    "exhaustive.cross_check_with_witness":
        "the one tie between the spectral and the brute-force halves",
    "matrices.four_cycle_products_negative":
        "the B_n bridge to Huang's own matrix, an acceptance criterion",
    "scalars.QuadraticScalar.rational_value":
        "API-edge value whose behaviour the scalar oracle test compares",
}


def test_every_public_name_is_used_outside_the_unit_tests():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    in_src = sum((_names_used(tree) for tree in trees.values()), Counter())
    elsewhere = (_perfbench_names()
                 | _readme_names()
                 | set(_names_used(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))))
    unused = set()
    for module, tree in trees.items():
        for qualified, node in _public_definitions(tree):
            name = qualified.rsplit(".", 1)[-1]
            if in_src[name] > _names_used(node)[name] or name in elsewhere:
                continue
            unused.add(f"{module}.{qualified}")
    assert unused == set(USED_ONLY_BY_TESTS)


def test_one_export_list():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert sorted(cubesense.__all__) == sorted(imported)
    namespace = {}
    exec("from cubesense import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(cubesense.__all__)


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text()
    example = re.search(r"^## Library\n\n```python\n(.*?)^```", text, re.S | re.M).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    assert "'certified': True" in out.getvalue()


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
