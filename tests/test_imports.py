"""No name is imported without being referenced (an AST check; no linter needed).

Covers every module of the package except ``__init__.py``, whose imports
are the public re-exports, and every test module.
"""

import ast
import os

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
