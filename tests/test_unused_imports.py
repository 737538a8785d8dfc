"""No program module imports a name it never uses.

The project depends on no linter, so this is a small ``ast`` scan over
``src/``, ``jobs/`` and ``benchmarks/``. A name counts as used when it
appears anywhere in the module as an identifier (annotations included) or
in ``__all__``. Import lines marked ``# noqa: F401`` are skipped: they
re-export a name or keep it where a caller looks it up.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "jobs", "benchmarks") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line number
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
                continue
            for alias in node.names:
                if alias.name != "*" and not (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in getattr(node.value, "elts", []) if isinstance(e, ast.Constant))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in FILES}
    assert {f: names for f, names in found.items() if names} == {}


def test_scan_flags_unused_and_honours_noqa():
    src = "import os\nimport sys  # noqa: F401\nfrom a import (b,\n    c)\nx: b = 1\n"
    assert unused_imports(src) == ["line 1: os", "line 3: c"]
