"""The package exports nothing that only its own unit tests use.

Every public top-level function or class in `src/minidet3d`, and every
public method of such a class, must be used as an identifier (a name, an
attribute or an imported name) somewhere in `src/` outside its own
definition, in `perfbench/`, or in `tests/test_acceptance.py`. A word in a
comment, docstring or string is not a use, and a re-export in `__init__.py`
is not a caller. A name that fails this belongs in the tests (as an oracle)
or nowhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def public_definitions(tree: ast.Module):
    """(qualified name, bare name, first line, last line) of each public
    top-level function or class in a module, and of each public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def identifiers(tree: ast.AST, skip=range(0)) -> set[str]:
    """Every name, attribute name and imported name the code of `tree` uses,
    also inside f-strings, but not a word in a comment, docstring or other
    string; nodes that start on a line in `skip` are left out."""
    found = set()
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
    return found


def uncalled(package: Path, callers: list[Path]) -> list[str]:
    """Public names of `package` that no module of it (outside the name's own
    definition, and not counting `__init__.py`) and no file in `callers` uses
    as an identifier."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}
    outside = set().union(*(identifiers(ast.parse(p.read_text(encoding="utf-8"))) for p in callers))
    found = []
    for path, tree in trees.items():
        used = outside.union(*(identifiers(t) for p, t in trees.items()
                               if p != path and p.name != "__init__.py"))
        for qualified, name, first, last in public_definitions(tree):
            if name not in used | identifiers(tree, range(first, last + 1)):
                found.append(f"{path.stem}.{qualified}")
    return found


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    callers = sorted((ROOT / "perfbench").rglob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    assert uncalled(ROOT / "src" / "minidet3d", callers) == []


def test_the_scan_flags_a_name_only_its_definition_and_a_re_export_use(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .core import Kept, dropped, used\n")
    (package / "core.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def dropped():\n    return dropped()\n\n\n"
        "def prose():\n    pass\n\n\n"
        "def formatted():\n    pass\n\n\n"
        "class Kept:\n    def method(self):\n        return Kept\n\n"
        "    def _private(self):\n        pass\n"
    )
    # `prose` appears only in a docstring, a comment and a string: no caller
    (package / "cli.py").write_text(
        '"""Like prose()."""\nfrom .core import used  # not prose\nNAME = "prose"\n'
    )
    caller = tmp_path / "acceptance.py"
    caller.write_text('Kept()\nprint(f"{formatted()}")\n')
    assert uncalled(package, [caller]) == ["core.dropped", "core.prose", "core.Kept.method"]
