"""Every name a module imports is used in that module, and every function,
class and method the library defines is named again somewhere.

No linter is a dependency of this project, so this walks the syntax tree of
each module of the library, the tests and the scripts, and compares the
names its imports bind with the names it reads.  Package ``__init__``
modules are skipped: their imports are re-exports.

The dead-code check is a text search over the library, the tests, the
scripts and the benchmark, so a name that only appears in a string, as the
benchmark's tracer names the functions it wraps, counts as named.
"""

import ast
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
