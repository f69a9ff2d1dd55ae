"""No module of the package, its tests or its scripts imports a name it never uses.

An ``ast`` scan stands in for a linter.  Each name that an ``import`` binds
(``import a.b`` binds ``a``) must be read somewhere in its module, as a
name or as the base of an attribute.  ``from __future__`` imports are
directives, and ``src/symspaces/__init__.py`` imports only to re-export.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REEXPORTS = ROOT / "src" / "symspaces" / "__init__.py"


def unused_imports(source: str) -> list:
    """``(line, name)`` of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom a import b, c\nos.sep\nc()\n"
    assert unused_imports(source) == [(3, "np"), (4, "b")]


def test_no_module_imports_a_name_it_never_uses():
    files = sorted(path for top in ("src", "tests", "scripts") for path in (ROOT / top).rglob("*.py"))
    assert REEXPORTS in files and len(files) > 40
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in files
        if path != REEXPORTS
        for line, name in unused_imports(path.read_text())
    ]
    assert not unused, unused
