"""Every top-level function and class of the package has a reader.

A definition counts as read when its name is referenced in code, not only in
prose, somewhere in ``src/sawkit`` or ``demos``; the tests do not count, so a
function kept alive only by its own test shows up here.
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
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_top_level_definition_is_referenced():
    used = referenced_names(READERS)
    unread = [f"{path.name}:{node.name}" for path in SOURCES
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in used]
    assert unread == []
