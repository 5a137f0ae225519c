"""Every name a module imports is used in that module.

No linter is a dependency of this project, so this walks the syntax tree of
each module of the library, the tests and the scripts, and compares the
names its imports bind with the names it reads.  Package ``__init__``
modules are skipped: their imports are re-exports.
"""

import ast
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
