"""Every name a module imports is read in it.  A stale import hides what a
module really depends on; `__init__.py` re-exports and `from __future__`
imports are exempt."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for name, line in imported.items() if name not in read]


def test_every_imported_name_is_read():
    modules = [p for p in sorted((ROOT / "src" / "regulus").glob("*.py")) if p.name != "__init__.py"]
    modules += sorted((ROOT / "tests").glob("*.py"))
    assert len(modules) > 20
    assert [u for p in modules for u in unused_imports(p)] == []
