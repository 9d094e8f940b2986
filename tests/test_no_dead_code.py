"""Every top-level function, class and constant of the package has a reader.

A definition counts as read when its name is referenced in code, not only in
prose, somewhere in ``src/sawkit`` or ``demos``; the tests do not count, so a
function or constant kept alive only by its own test shows up here.  Dunder
names such as ``__all__`` are read by Python itself and are not checked.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "sawkit").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "demos").glob("*.py"))


def referenced_names(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def defined_names(path):
    """The functions, classes and assigned names at the top level of ``path``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id


def test_every_top_level_definition_is_referenced():
    used = referenced_names(READERS)
    unread = [f"{path.name}:{name}" for path in SOURCES for name in defined_names(path)
              if name not in used]
    assert unread == []
