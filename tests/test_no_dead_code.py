"""Every definition under ``src/repro`` is reached by the program.

This ``ast`` scan collects each module-level function and class and each
non-dunder method of a module-level class, then fails on any whose name
``src/``, ``jobs/`` and ``trbench/`` never mention. A mention is an
identifier, an attribute, an imported name, or a string constant equal to
the name (``trbench/`` wraps methods by string). Tests do not count: code
that only a test calls is a test helper and lives under ``tests/``.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
READERS = sorted(p for d in ("src", "jobs", "trbench") for p in (ROOT / d).rglob("*.py"))

# name -> why it stays although no program path calls it
ALLOWED = {
    "segment_time_stats": "the Spark SQL reference that tests/test_trmma_train.py checks "
                          "segment_time_stats_trajs against (DESIGN.md §2)",
}


def definitions(source: str) -> list[str]:
    """Module-level functions and classes, and non-dunder methods of
    module-level classes, as ``name`` or ``Class.name``."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out.extend(f"{node.name}.{m.name}" for m in node.body
                       if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not (m.name.startswith("__") and m.name.endswith("__")))
    return out


def mentions(source: str) -> set[str]:
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
            if node.asname:
                out.add(node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            out.add(node.value)
    return out


def test_every_definition_is_reached():
    named = set().union(*(mentions(p.read_text()) for p in READERS)) | ALLOWED.keys()
    found = sorted(f"{p.relative_to(SRC)}: {d}" for p in SRC.rglob("*.py") for d in definitions(p.read_text())
                   if d.split(".")[-1] not in named)
    assert found == []


def test_allowlisted_names_still_exist():
    defined = {d.split(".")[-1] for p in SRC.rglob("*.py") for d in definitions(p.read_text())}
    assert ALLOWED.keys() <= defined


def test_scan_sees_definitions_and_mentions():
    src = (
        "import a.b as c\n"
        "class K:\n"
        "    def __init__(self): pass\n"
        "    def used(self): return self.other()\n"
        "    def other(self): pass\n"
        "def f():\n"
        "    def inner(): pass\n"
        "    return getattr(K, '_by_string'), 'not a name'\n"
    )
    assert definitions(src) == ["K", "K.used", "K.other", "f"]
    m = mentions(src)
    assert {"a", "b", "c", "other", "K", "getattr", "_by_string"} <= m
    assert "used" not in m and "f" not in m and "not a name" not in m
