"""The program has one shortest-path search.

``repro.roadnet.routing.shortest_paths`` is the only Dijkstra under
``src/``; route planning, network distances and the trajectory generator
call it. This ``ast`` scan fails if any other module imports ``heapq``,
the usual first line of a second hand-written search.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SEARCH = SRC / "repro" / "roadnet" / "routing.py"


def imports_heapq(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "heapq" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "heapq":
            return True
    return False


def test_only_routing_imports_heapq():
    found = sorted(str(p.relative_to(SRC)) for p in SRC.rglob("*.py") if p != SEARCH and imports_heapq(p.read_text()))
    assert found == []
    assert imports_heapq(SEARCH.read_text())


def test_scan_sees_local_and_from_imports():
    assert imports_heapq("def f():\n    import heapq\n")
    assert imports_heapq("from heapq import heappush\n")
    assert not imports_heapq("import heapq_like\nx = 'import heapq'\n")
