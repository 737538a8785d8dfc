"""Each layer and model step has one forward pass.

``forward`` runs on plain arrays or builds the autodiff graph, as its
input's type says, so no second, forward-only copy is needed. This ``ast``
scan fails if any module under ``src/repro`` defines a method named like
such a copy: ending in ``_np``, or ``_encode_graph``.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def forked_methods(source: str) -> list[str]:
    out = []
    for cls in ast.walk(ast.parse(source)):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    node.name.endswith("_np") or node.name == "_encode_graph"
                ):
                    out.append(f"{cls.name}.{node.name}")
    return out


def test_no_module_defines_a_second_forward():
    found = sorted(f"{p.relative_to(SRC)}: {m}" for p in SRC.rglob("*.py") for m in forked_methods(p.read_text()))
    assert found == []


def test_scan_sees_forked_methods():
    assert forked_methods("class A:\n    def forward_np(self, x):\n        pass\n") == ["A.forward_np"]
    assert forked_methods("class B:\n    def _encode_graph(self, s):\n        pass\n") == ["B._encode_graph"]
    assert forked_methods("class C:\n    def forward(self, x):\n        pass\ndef helper_np():\n    pass\n") == []
