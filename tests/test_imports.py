"""Every name a library module imports is used in that module, every
private top-level function and constant is used somewhere in the package,
every error type in errors.py is raised somewhere in the package, and the
README's Layout block names every module and oracle and no file that is
missing from both the package and tests/.

The package's __init__.py re-exports what it imports, so it is left out of
the import guard."""

import ast
import re
from itertools import chain
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "localsurfaces"
MODULES = sorted(
    path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # import a.b binds a
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def references(tree: ast.AST) -> list[str]:
    """The names a tree reads: loaded names, attributes and imported names."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names += [a.name for a in node.names]
    return names


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, node) of each private top-level function and constant."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in found
            if name.startswith("_") and not name.startswith("__")]


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """module:name of each private top-level function or constant that no
    code outside its own definition reads, in any of the given sources."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    counts: dict[str, int] = {}
    for tree in trees.values():
        for name in references(tree):
            counts[name] = counts.get(name, 0) + 1
    return [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, node in private_definitions(tree)
        if counts.get(name, 0) == references(node).count(name)
    ]


def test_guard_sees_unused_and_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re as regex\n"
        "from typing import Optional, Tuple\n"
        "def f(x: Optional[int]) -> int:\n"
        "    return os.path.sep, x\n"
    )
    assert unused_imports(source) == ["regex", "Tuple"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_dead_and_used_helpers():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_UNUSED = 4\n"
            "def _helper(x):\n"
            "    return x + _LIMIT\n"
            "def _recursive(x):\n"
            "    return _recursive(x - 1) if x else 0\n"
            "def public(x):\n"
            "    return _helper(x)\n"
        ),
        "b.py": "from .c import _shared\n",
        "c.py": "def _shared():\n    return 1\n",
    }
    assert dead_helpers(sources) == ["a.py:_UNUSED", "a.py:_recursive"]


def test_every_private_helper_is_used():
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in PACKAGE.glob("*.py")
    }
    assert dead_helpers(sources) == []


def error_types(source: str) -> list[str]:
    """The classes a module derives from LocalSurfacesError, directly or
    through another such class, in definition order."""
    found = ["LocalSurfacesError"]
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id in found
            for base in node.bases
        ):
            found.append(node.name)
    return found[1:]


def raised_names(sources) -> set[str]:
    """The names the sources raise, as raise X, raise X(...) or
    raise module.X(...)."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                if isinstance(exc, ast.Call):
                    exc = exc.func
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_guard_sees_raised_and_unraised_errors():
    errors = (
        "class LocalSurfacesError(Exception):\n    pass\n"
        "class Used(LocalSurfacesError):\n    pass\n"
        "class Dead(LocalSurfacesError):\n    pass\n"
        "class Child(Used):\n    pass\n"
        "class Other(ValueError):\n    pass\n"
    )
    assert error_types(errors) == ["Used", "Dead", "Child"]
    sources = [
        "def f(x):\n    if x:\n        raise Used('x')\n    raise Other\n",
        "def g():\n    raise errors.Child\n",
    ]
    assert raised_names(sources) == {"Used", "Other", "Child"}


def test_every_error_type_is_raised():
    errors = (PACKAGE / "errors.py").read_text(encoding="utf-8")
    raised = raised_names(
        path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")
    )
    assert [name for name in error_types(errors) if name not in raised] == []


def test_readme_layout_names_every_module_and_oracle():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Layout\n", 1)[1].split("```")[1]
    oracles = [path for path in sorted((ROOT / "tests").glob("*_oracle.py"))
               if not path.name.startswith("test_")]
    files = MODULES + oracles
    named = set(re.findall(r"\w+\.py", block))
    assert [path.name for path in files if path.name not in named] == []
    existing = {path.name for path in chain(PACKAGE.glob("*.py"),
                                            (ROOT / "tests").glob("*.py"))}
    assert sorted(named - existing) == []
