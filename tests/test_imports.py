"""No name is imported without being referenced, no private helper of the
package is left without a caller, no module of the package but ``linalg``
imports a private name of ``linalg``, names a private member of
``LinearMap`` or names the pivot-row storage of ``GradedPiece``, and no
defaulted parameter of the package is left unset by every call or passed
by every call (AST checks; no linter needed).

The import check covers every module of the package except
``__init__.py``, whose imports are the public re-exports, and every test
module.  The helper check covers the package's module-level ``_name``
functions and classes and the ``_name`` methods of its module-level
classes, and counts references in the package only: a helper that only
tests call is dead code.  The parameter check reads the package's
definitions and the calls in the package and the tests: a default that
no call overrides is a knob with one value, and a default that every call
overrides is never used.

Every CLI call starts a fresh interpreter, so importing ``spencerlab.cli``
must stay cheap: it loads neither ``dataclasses`` nor ``inspect`` (with
``ast``, ``dis`` and ``tokenize`` behind it).
"""

import ast
import os
import subprocess
import sys
from collections import Counter

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


def _name_counts(node) -> Counter:
    """How often each name is loaded, as a name or an attribute, under ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def unreferenced_private_helpers(sources: dict) -> list:
    """``_name`` helpers referred to nowhere else.

    A helper is a module-level function or class, or a method defined in
    the body of a module-level class.  ``sources`` maps a path to its
    source text; a reference is a name or an attribute in any of them,
    outside the helper's own definition.
    """
    everywhere: Counter = Counter()
    defined = []  # (path, line, name, references inside its own definition)
    for path, source in sources.items():
        tree = ast.parse(source)
        everywhere += _name_counts(tree)
        for stmt in tree.body:
            members = stmt.body if isinstance(stmt, ast.ClassDef) else []
            for node in (stmt, *members):
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                ):
                    defined.append((path, node.lineno, node.name, _name_counts(node)[node.name]))
    return sorted(
        (path, line, name) for path, line, name, own in defined if everywhere[name] <= own
    )


def test_the_check_sees_an_unreferenced_helper():
    helpers = (
        "def _used():\n    pass\n\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n\n"
        "class _Gone:\n    pass\n\n"
        "def _called_elsewhere():\n    pass\n\n"
        "class K:\n"
        "    def __init__(self):\n        self._helper()\n\n"
        "    def _helper(self):\n        return self._loop()\n\n"
        "    def _loop(self):\n        return self._loop()\n\n"
        "    def _orphan(self):\n        return self._orphan()\n\n"
        "    def _method_called_elsewhere(self):\n        pass\n"
    )
    caller = (
        "import m\n\ndef public():\n"
        "    return _used(), m._called_elsewhere(), m.K()._method_called_elsewhere()\n"
    )
    assert unreferenced_private_helpers({"m.py": helpers, "n.py": caller}) == [
        ("m.py", 4, "_recursive"),
        ("m.py", 7, "_Gone"),
        ("m.py", 23, "_orphan"),
    ]


def test_no_unreferenced_private_helpers():
    sources = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                sources[name] = fh.read()
    assert unreferenced_private_helpers(sources) == []


def private_linalg_imports(source: str) -> list:
    """``(line, name)`` of each ``_name`` imported from the package's ``linalg``.

    ``linalg`` is the one module that clears, indexes and eliminates; the
    other modules reach it through its public names.
    """
    return sorted(
        (node.lineno, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.module, node.level) in (("linalg", 1), ("spencerlab.linalg", 0))
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_the_check_sees_a_private_linalg_import():
    source = (
        "from .linalg import GradedPiece, _integer_row\n"
        "from spencerlab.linalg import _eliminate as eliminate\n"
        "from .rings import _private\n"
        "from . import linalg\n"
        "from ..linalg import _elsewhere\n"
    )
    assert private_linalg_imports(source) == [(1, "_integer_row"), (2, "_eliminate")]


@pytest.mark.parametrize(
    "name", sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py") and n != "linalg.py")
)
def test_no_private_linalg_imports(name):
    with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
        assert private_linalg_imports(fh.read()) == []


def private_linear_map_members(source: str) -> list:
    """``(line, name)`` of each ``LinearMap._name`` (or ``linalg.LinearMap._name``).

    ``LinearMap`` has one constructor; a private member named outside
    ``linalg`` would be a second way in.
    """
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and (
            (isinstance(node.value, ast.Name) and node.value.id == "LinearMap")
            or (isinstance(node.value, ast.Attribute) and node.value.attr == "LinearMap")
        )
    )


def test_the_check_sees_a_private_linear_map_member():
    source = (
        "m = LinearMap._from_int_columns(s, t, cols, den)\n"
        "n = linalg.LinearMap.__new__(linalg.LinearMap)\n"
        "z = LinearMap.zero(s, t)._store\n"
        "w = OtherMap._hidden\n"
    )
    assert private_linear_map_members(source) == [(1, "_from_int_columns"), (2, "__new__")]


@pytest.mark.parametrize(
    "name", sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py") and n != "linalg.py")
)
def test_no_private_linear_map_members(name):
    with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
        assert private_linear_map_members(fh.read()) == []


PIECE_STORAGE = ("_sparse_rows", "_pivots", "_basis_pos")


def piece_storage_names(source: str) -> list:
    """``(line, name)`` of each attribute that names how a ``GradedPiece`` stores its relations.

    Only ``linalg`` reads a piece's pivot rows; other modules compare,
    reduce and re-present pieces through its public methods.
    """
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in PIECE_STORAGE
    )


def test_the_check_sees_a_piece_storage_name():
    source = (
        "same = a._sparse_rows == b._sparse_rows\n"
        "pivots = piece._pivots\n"
        "pos = self.piece(i, d)._basis_pos[j]\n"
        "rows = piece.relation_rows()\n"
        "index = piece._index\n"
    )
    assert piece_storage_names(source) == [
        (1, "_sparse_rows"), (1, "_sparse_rows"), (2, "_pivots"), (3, "_basis_pos")
    ]


@pytest.mark.parametrize(
    "name", sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py") and n != "linalg.py")
)
def test_no_piece_storage_names(name):
    with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
        assert piece_storage_names(fh.read()) == []


def test_cold_cli_import_loads_no_dataclasses_or_inspect():
    # -S: no site-packages hooks, so only the package's own imports count
    code = "import sys, spencerlab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


def _defaulted_parameter_calls(sources: dict) -> list:
    """Each defaulted parameter of the package with the calls that may reach it.

    ``sources`` maps a path to its source text.  Definitions are read from
    the paths under ``src``: module-level functions and the methods of
    module-level classes.  Calls are read from every source and matched by
    the called name, so a call to any function of that name counts.  A
    call passes a parameter by keyword, or positionally when it has enough
    positional arguments (``self`` and ``cls`` not counted); a call with
    ``*args`` or ``**kwargs`` passes everything.  A class's ``__init__`` is
    matched by calls to the class name; other dunders are exempt.

    Returns ``(path, line, "owner.function", parameter, passes)`` where
    ``passes`` holds one flag per matched call: whether it passes the parameter.
    """
    defs = []  # (path, owning class or None, function definition)
    calls: dict = {}  # called name -> [(positional count or None, keywords)]
    for path, source in sources.items():
        tree = ast.parse(source)
        if path.startswith(os.path.join("src", "")):
            for stmt in tree.body:
                if isinstance(stmt, ast.FunctionDef):
                    defs.append((path, None, stmt))
                elif isinstance(stmt, ast.ClassDef):
                    for fn in stmt.body:
                        if isinstance(fn, ast.FunctionDef):
                            defs.append((path, stmt, fn))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            else:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            )
            npos = None if starred else len(node.args)
            calls.setdefault(name, []).append((npos, {k.arg for k in node.keywords}))
    out = []
    for path, owner, fn in defs:
        name = fn.name
        if name.startswith("__") and name.endswith("__"):
            if owner is None or name != "__init__":
                continue
            name = owner.name
        a = fn.args
        positional = a.posonlyargs + a.args
        decorators = {d.id for d in fn.decorator_list if isinstance(d, ast.Name)}
        if owner is not None and "staticmethod" not in decorators:
            positional = positional[1:]
        defaulted = [
            (i, p.arg) for i, p in enumerate(positional)
            if i >= len(positional) - len(a.defaults)
        ]
        defaulted += [
            (None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
        ]
        where = f"{owner.name}.{fn.name}" if owner else fn.name
        for i, param in defaulted:
            passes = [
                npos is None or param in kws or (i is not None and npos > i)
                for npos, kws in calls.get(name, ())
            ]
            out.append((path, fn.lineno, where, param, passes))
    return out


def unset_parameters(sources: dict) -> list:
    """Defaulted parameters of the package that no call passes.

    A default that no call overrides is a knob with one value.
    """
    return sorted(
        (path, line, where, param)
        for path, line, where, param, passes in _defaulted_parameter_calls(sources)
        if not any(passes)
    )


def always_passed_parameters(sources: dict) -> list:
    """Defaulted parameters of the package that every call passes.

    A parameter with at least one call, each of which passes it, has a
    default that nothing uses: it should be required.
    """
    return sorted(
        (path, line, where, param)
        for path, line, where, param, passes in _defaulted_parameter_calls(sources)
        if passes and all(passes)
    )


def test_the_check_sees_an_unset_parameter():
    package = (
        "def f(a, b=1, c=2, *, d=3):\n    pass\n\n"
        "class K:\n"
        "    def __init__(self, x, y=None):\n        pass\n\n"
        "    def m(self, z=0):\n        pass\n\n"
        "    def __setattr__(self, name, value=None):\n        pass\n\n"
        "    @staticmethod\n"
        "    def s(u=0, v=0):\n        pass\n\n"
        "def g(e=0):\n    pass\n"
    )
    caller = (
        "f(0, 1)\nf(0, d=4)\nK(1)\nk.m(z=1)\nK.s(5)\n"
        "args = ()\ng(*args)\n"
    )
    sources = {os.path.join("src", "m.py"): package, os.path.join("tests", "t.py"): caller}
    assert unset_parameters(sources) == [
        (os.path.join("src", "m.py"), 1, "f", "c"),
        (os.path.join("src", "m.py"), 5, "K.__init__", "y"),
        (os.path.join("src", "m.py"), 15, "K.s", "v"),
    ]


def _checked_sources() -> dict:
    sources = {}
    for path in _checked_files():
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            sources[path] = fh.read()
    return sources


def test_no_unset_parameters():
    assert unset_parameters(_checked_sources()) == []


def test_the_check_sees_an_always_passed_parameter():
    package = (
        "def f(a, b=1, c=2, *, d=3):\n    pass\n\n"
        "class K:\n"
        "    def __init__(self, x, y=None):\n        pass\n\n"
        "def g(e=0):\n    pass\n\n"
        "def h(u=0):\n    pass\n"
    )
    caller = (
        "f(0, 1, d=4)\nf(0, 2, c=3, d=5)\nK(1, 2)\nK(1, y=3)\n"
        "args = ()\ng(*args)\n"
    )
    sources = {os.path.join("src", "m.py"): package, os.path.join("tests", "t.py"): caller}
    assert always_passed_parameters(sources) == [
        (os.path.join("src", "m.py"), 1, "f", "b"),
        (os.path.join("src", "m.py"), 1, "f", "d"),
        (os.path.join("src", "m.py"), 5, "K.__init__", "y"),
        (os.path.join("src", "m.py"), 8, "g", "e"),
    ]


def test_no_always_passed_parameters():
    assert always_passed_parameters(_checked_sources()) == []
