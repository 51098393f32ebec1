"""Every public function, class and method of `regulus` has a caller outside
the tests.  A name that only its own tests reach is API nobody uses: it goes,
moves to `tests/`, or is kept below with the reason.  A name counts as
reached when some module of `src/regulus/` other than `__init__.py` names it
outside its own definition, or when a benchmark file (`perfbench/*.py`)
names it.  A private top-level helper must be named in `src/regulus/`
outside its own definition: one that only tests call goes."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KEEP = {
    "adjunction_transfer": "states the paper's adjunction theorem; criterion 8 runs it",
    "adjunction_inverse": "states the paper's adjunction theorem; criterion 8 runs it",
}


def _modules() -> list[Path]:
    return [p for p in sorted((ROOT / "src" / "regulus").glob("*.py")) if p.name != "__init__.py"]


def public_definitions(path: Path) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each public top-level function or
    class and each public method."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            found += [(f.name, f.lineno, f.end_lineno) for f in node.body
                      if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    return found


def named_lines(path: Path) -> dict[str, set[int]]:
    """Each identifier the module reads, as a name or an attribute, with the
    lines that read it."""
    lines: dict[str, set[int]] = {}
    for node in ast.walk(ast.parse(path.read_text())):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)):
            lines.setdefault(name, set()).add(node.lineno)
    return lines


def named_elsewhere(name: str, path: Path, first: int, last: int, uses: dict) -> bool:
    """Whether a module in `uses` names `name` outside lines first..last of
    `path`."""
    return any(
        any(not (p == path and first <= line <= last) for line in lines.get(name, ()))
        for p, lines in uses.items()
    )


def unreached() -> list[str]:
    modules = _modules()
    uses = {p: named_lines(p) for p in modules}
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    out = []
    for path in modules:
        for name, first, last in public_definitions(path):
            reached = named_elsewhere(name, path, first, last, uses) or re.search(
                rf"\b{name}\b", bench
            )
            if not reached and name not in KEEP:
                out.append(f"{path.stem}.{name}")
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    assert len(_modules()) >= 10
    assert unreached() == []


def test_every_kept_name_is_still_defined():
    defined = {name for p in _modules() for name, _, _ in public_definitions(p)}
    assert set(KEEP) <= defined


def test_every_private_helper_is_named_in_src():
    modules = sorted((ROOT / "src" / "regulus").glob("*.py"))
    uses = {p: named_lines(p) for p in modules}
    unnamed = [
        f"{path.stem}.{node.name}"
        for path in modules
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and not named_elsewhere(node.name, path, node.lineno, node.end_lineno, uses)
    ]
    assert len(modules) >= 10
    assert unnamed == []
