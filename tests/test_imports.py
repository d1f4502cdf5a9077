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
    - every public top-level name, public method and public annotated
      field of ``src/cubesense`` is used somewhere other than the unit
      tests: in ``src`` outside its own definition, in perfbench's code, in
      a README code span or block, or in ``tests/test_acceptance.py``; a
      method or field counts as used only through an attribute access
      (``x.name``), so a builtin or local of the same name does not hide
      it, and one that overrides a base class's member is exempt; the
      three exceptions are listed in ``USED_ONLY_BY_TESTS`` with their
      reasons
    - ``__all__`` is exactly the names ``__init__.py``'s imports bind, and
      ``from cubesense import *`` binds exactly ``__all__``
    - the Python example under README "## Library" runs
    - ``import cubesense``, an exact ``witness`` and an exact
      ``verify-operator`` at n = 4 leave numpy unloaded: only the float
      path imports it, so exact runs do not pay its start-up time
"""

import ast
import contextlib
import importlib
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
    assigned name, and ``(Class.member, node)`` for each public method and
    annotated field of any class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        name = item.name
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        name = item.target.id
                    else:
                        continue
                    if not name.startswith("_"):
                        yield f"{node.name}.{name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, node


def _names_used(node: ast.AST, members: bool = False) -> Counter:
    """How often each name appears under ``node`` as a Name or Attribute;
    with ``members``, as an Attribute (``x.name``) only."""
    used = Counter()
    for part in ast.walk(node):
        if isinstance(part, ast.Name) and not members:
            used[part.id] += 1
        elif isinstance(part, ast.Attribute):
            used[part.attr] += 1
    return used


def _perfbench_names(members: bool = False) -> set:
    """Names perfbench's code reads (as attributes only, with ``members``),
    with the attribute names its tracer looks up by string; docstrings and
    other bare strings are prose."""
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        prose = {node.value for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        names |= set(_names_used(tree, members))
        names |= {node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier() and node not in prose}
    return names


def _readme_names(members: bool = False) -> set:
    """Identifiers inside README code blocks, their comments left out, and
    inside inline code spans; with ``members``, only those after a dot."""
    text = (ROOT / "README.md").read_text()
    blocks = [re.sub(r"#.*", "", block) for block in re.findall(r"```.*?```", text, re.S)]
    spans = re.findall(r"`[^`]+`", re.sub(r"```.*?```", "", text, flags=re.S))
    pattern = r"\.([A-Za-z_]\w*)" if members else r"[A-Za-z_]\w*"
    return {name for code in blocks + spans for name in re.findall(pattern, code)}


def _overrides(module: str, qualified: str) -> bool:
    """Whether ``Class.member`` redefines a member of a base class, which
    code outside the package (such as argparse) calls."""
    class_name, name = qualified.split(".")
    cls = getattr(importlib.import_module(f"cubesense.{module}"), class_name)
    return any(hasattr(base, name) for base in cls.__mro__[1:])


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
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    in_src, elsewhere = {}, {}
    for members in (False, True):
        in_src[members] = sum((_names_used(tree, members) for tree in trees.values()), Counter())
        elsewhere[members] = (_perfbench_names(members)
                              | _readme_names(members)
                              | set(_names_used(acceptance, members)))
    unused = set()
    for module, tree in trees.items():
        for qualified, node in _public_definitions(tree):
            members = "." in qualified
            name = qualified.rsplit(".", 1)[-1]
            if in_src[members][name] > _names_used(node, members)[name] or name in elsewhere[members]:
                continue
            if members and _overrides(module, qualified):
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
