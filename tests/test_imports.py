"""No name is imported without being referenced, and no private helper of
the package is left without a caller (AST checks; no linter needed).

The import check covers every module of the package except
``__init__.py``, whose imports are the public re-exports, and every test
module.  The helper check covers the package only: a helper that only
tests call is dead code.

Every CLI call starts a fresh interpreter, so importing ``spencerlab.cli``
must stay cheap: it loads neither ``dataclasses`` nor ``inspect`` (with
``ast``, ``dis`` and ``tokenize`` behind it).
"""

import ast
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PACKAGE = os.path.join(ROOT, "src", "spencerlab")
TESTS = os.path.join(ROOT, "tests")


def _checked_files():
    out = [
        os.path.join("src", "spencerlab", name)
        for name in sorted(os.listdir(PACKAGE))
        if name.endswith(".py") and name != "__init__.py"
    ]
    out += [
        os.path.join("tests", name)
        for name in sorted(os.listdir(TESTS))
        if name.endswith(".py")
    ]
    return out


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never loaded anywhere else."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys as system\nfrom a.b import c, d\nprint(d, os.sep)\n"
    assert unused_imports(source) == [(2, "system"), (3, "c")]


@pytest.mark.parametrize("path", _checked_files())
def test_no_unused_imports(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def unreferenced_private_helpers(sources: dict) -> list:
    """Module-level ``_name`` functions and classes referred to nowhere else.

    ``sources`` maps a path to its source text; a reference is a name or an
    attribute in any of them, outside the helper's own definition.
    """
    defined = []
    referenced = set()
    for path, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if stmt.name.startswith("_") and not stmt.name.startswith("__"):
                    defined.append((path, stmt.lineno, stmt.name))
                    names.discard(stmt.name)
            referenced |= names
    return sorted(d for d in defined if d[2] not in referenced)


def test_the_check_sees_an_unreferenced_helper():
    helpers = (
        "def _used():\n    pass\n\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n\n"
        "class _Gone:\n    pass\n\n"
        "def _called_elsewhere():\n    pass\n"
    )
    caller = "import m\n\ndef public():\n    return _used(), m._called_elsewhere()\n"
    assert unreferenced_private_helpers({"m.py": helpers, "n.py": caller}) == [
        ("m.py", 4, "_recursive"),
        ("m.py", 7, "_Gone"),
    ]


def test_no_unreferenced_private_helpers():
    sources = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                sources[name] = fh.read()
    assert unreferenced_private_helpers(sources) == []


def test_cold_cli_import_loads_no_dataclasses_or_inspect():
    # -S: no site-packages hooks, so only the package's own imports count
    code = "import sys, spencerlab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"
