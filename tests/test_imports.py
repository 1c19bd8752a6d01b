"""Source hygiene: no module imports a name it never reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    """Names that the imports of a module bind and nothing in it reads.

    `from __future__` imports are compiler directives, not names, and are
    skipped; `import a.b` binds `a`, which any `a.x` reads.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, a.b\nfrom x import y as z, w\nw(a.b)\n"
    assert unused_imports(source) == [(2, "os"), (3, "z")]


def test_no_unused_imports():
    # an __init__.py imports names to re-export them, so it is not checked
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for folder in ("src", "tests", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
