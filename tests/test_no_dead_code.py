"""Every top-level function, class and constant of the package, and every
method and property of its classes, has a reader.

A definition counts as read when its name is referenced in code, not only in
prose, somewhere in ``src/sawkit`` or ``demos``; the tests do not count, so a
function or constant kept alive only by its own test shows up here.  Dunder
names such as ``__all__`` or ``__post_init__`` are read by Python itself and
are not checked.  A method is matched by its name alone, so one that shares
its name with a read attribute of another type passes.
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


def defined_methods(path):
    """``Class.name`` and ``name`` of each method and property of the
    top-level classes of ``path``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_top_level_definition_is_referenced():
    used = referenced_names(READERS)
    unread = [f"{path.name}:{name}" for path in SOURCES for name in defined_names(path)
              if name not in used]
    assert unread == []


def test_every_method_and_property_is_referenced():
    used = referenced_names(READERS)
    unread = [f"{path.name}:{label}" for path in SOURCES
              for label, name in defined_methods(path) if name not in used]
    assert unread == []
