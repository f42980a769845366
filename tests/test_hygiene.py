"""Source hygiene: every module in src/ and tests/ uses each name it imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(source):
    """Names bound by an import statement and never read as a name.

    ``import a.b`` binds ``a``; an attribute chain ``a.b.c`` reads ``a``.
    ``from __future__ import ...`` is a compiler directive, not a binding.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_detected():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from math import comb, inf\n"
              "print(os.path.sep, comb(3, 2))\n")
    assert _unused_imports(source) == ["np", "inf"]


def test_no_unused_imports():
    # __init__.py imports names to re-export them
    modules = sorted(path for top in ("src", "tests")
                     for path in (ROOT / top).rglob("*.py")
                     if path.name != "__init__.py")
    assert len(modules) > 10
    unused = [f"{path.relative_to(ROOT)}: {name}" for path in modules
              for name in _unused_imports(path.read_text())]
    assert unused == []
