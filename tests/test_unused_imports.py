"""Every name a module imports is used in that module, every function,
class and method the library defines is named again somewhere, and every
parameter default the library offers is overridden by some call.

No linter is a dependency of this project, so this walks the syntax tree of
each module of the library, the tests and the scripts, and compares the
names its imports bind with the names it reads.  Package ``__init__``
modules are skipped: their imports are re-exports.

The dead-code check is a text search over the library, the tests, the
scripts and the benchmark, so a name that only appears in a string, as the
benchmark's tracer names the functions it wraps, counts as named.

The option check matches calls to definitions by name alone, across the same
files: a parameter counts as passed when some call uses its keyword, or some
call of a function or method of that name passes enough positional arguments
to reach it.
"""

import ast
import math
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for pattern in ("tests/*.py", "scripts/*.py", "src/setmaxima/*.py")
    for path in ROOT.glob(pattern)
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names that ``source``'s imports bind and nothing else reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = "import os, sys\nimport os.path\nfrom math import pi as tau, e\nprint(sys, e)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: tau"]


CORPUS = sorted(
    path
    for pattern in ("src/**/*.py", "tests/*.py", "scripts/*.py", "perfbench/*.py")
    for path in ROOT.glob(pattern)
)


def unnamed_definitions(module: str, words: Counter) -> list[str]:
    """The functions, classes and methods that ``module`` defines (dunder
    methods aside) and ``words``, the word counts of every source file, hold
    no more often than ``module`` defines them."""
    defined = Counter(
        node.name
        for node in ast.walk(ast.parse(module))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )
    return sorted(name for name, times in defined.items() if words[name] <= times)


def test_library_names_every_definition_again():
    words = Counter(word for path in CORPUS for word in re.findall(r"\w+", path.read_text()))
    library = sorted((ROOT / "src" / "setmaxima").glob("*.py"))
    unnamed = {
        str(path.relative_to(ROOT)): unnamed_definitions(path.read_text(), words)
        for path in library
    }
    assert {path: names for path, names in unnamed.items() if names} == {}


def test_unnamed_definitions_are_found():
    source = (
        "class Used:\n    def __init__(self): pass\n    def spare(self): pass\n"
        "def helper(): return Used()\n"
    )
    words = Counter(re.findall(r"\w+", source + "helper()\n"))
    assert unnamed_definitions(source, words) == ["spare"]


def defaulted_parameters(module: str) -> list[tuple[str, str, int | None]]:
    """``(callee, parameter, position)`` for each parameter with a default
    that a function or method of ``module`` takes.  ``callee`` is the name a
    call uses (the class name for ``__init__``); ``position`` counts the
    call's positional arguments before it, or is None for keyword-only."""
    tree = ast.parse(module)
    methods = {
        id(node): cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if id(node) in methods else 0  # self or cls
        callee = methods[id(node)] if node.name == "__init__" and skip else node.name
        first = len(positional) - len(args.defaults)
        found += [(callee, arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
        found += [
            (callee, arg.arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
    return found


def calls_made(sources: list[str]) -> tuple[set[str], dict[str, float]]:
    """The keywords any call in ``sources`` passes, and for each callee
    name the most positional arguments one call passes (inf with ``*args``)."""
    keywords: set[str] = set()
    reach: dict[str, float] = {}
    for source in sources:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            keywords.update(kw.arg for kw in call.keywords if kw.arg)
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if name:
                starred = any(isinstance(arg, ast.Starred) for arg in call.args)
                reach[name] = max(reach.get(name, 0), math.inf if starred else len(call.args))
    return keywords, reach


def unset_options(module: str, calls: tuple[set[str], dict[str, float]]) -> list[str]:
    """The defaulted parameters of ``module``'s functions that none of
    ``calls`` passes, by keyword or by enough positional arguments."""
    keywords, reach = calls
    return [
        f"{callee}.{name}"
        for callee, name, position in defaulted_parameters(module)
        if name not in keywords and (position is None or reach.get(callee, 0) <= position)
    ]


def test_every_option_is_passed_somewhere():
    calls = calls_made([path.read_text() for path in CORPUS])
    library = sorted((ROOT / "src" / "setmaxima").glob("*.py"))
    unset = {
        str(path.relative_to(ROOT)): unset_options(path.read_text(), calls) for path in library
    }
    assert {path: names for path, names in unset.items() if names} == {}


def test_unset_options_are_found():
    module = (
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "class C:\n    def __init__(self, x=0, y=1): pass\n"
        "    def g(self, z=0): pass\n"
        "    @staticmethod\n    def h(w=0): pass\n"
    )
    calls = "f(0, 1, e=5)\nC(0)\nC().g()\nC.h(*ws)\n"
    assert unset_options(module, calls_made([module, calls])) == ["f.c", "f.d", "C.y", "g.z"]
