"""The package exports nothing that only its own unit tests use.

Every public top-level function or class in `src/minidet3d`, and every
public method of such a class, must be named somewhere in `src/` outside its
own definition, in `perfbench/`, or in `tests/test_acceptance.py`. A
re-export in `__init__.py` is not a caller. A name that fails this belongs in
the tests (as an oracle) or nowhere.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def public_definitions(path: Path):
    """(qualified name, bare name, first line, last line) of each public
    top-level function or class in a module, and of each public method."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def uncalled(package: Path, callers: list[Path]) -> list[str]:
    """Public names of `package` that no module of it (outside the name's own
    definition, and not counting `__init__.py`) and no file in `callers` names."""
    modules = {p: p.read_text(encoding="utf-8").splitlines() for p in sorted(package.glob("*.py"))}
    outside = "\n".join(p.read_text(encoding="utf-8") for p in callers)
    found = []
    for path, lines in modules.items():
        for qualified, name, first, last in public_definitions(path):
            rest = lines[: first - 1] + lines[last:]
            texts = [outside, "\n".join(rest)] + [
                "\n".join(other) for p, other in modules.items()
                if p != path and p.name != "__init__.py"
            ]
            if not any(re.search(rf"\b{re.escape(name)}\b", t) for t in texts):
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
        "class Kept:\n    def method(self):\n        return Kept\n\n"
        "    def _private(self):\n        pass\n"
    )
    (package / "cli.py").write_text("from .core import used\n")
    caller = tmp_path / "acceptance.py"
    caller.write_text("Kept()\n")
    assert uncalled(package, [caller]) == ["core.dropped", "core.Kept.method"]
