"""The trainers only consume their training inputs.

``train_mma`` and ``train_trmma`` take their samples and Node2Vec
embeddings from the caller, which builds them once and can share them
across model variants (Table IV's -C, -DI and -DF). This ``ast`` scan
fails if either trainer's body calls a builder of those inputs again.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
TRAINERS = {SRC / "mma" / "train.py": "train_mma", SRC / "trmma" / "train.py": "train_trmma"}
BUILDERS = {"node2vec_embeddings", "mma_training_samples", "trmma_training_samples", "augmented_trajs"}


def builders_called(source: str, func: str) -> set[str]:
    """Names of ``BUILDERS`` called anywhere in the body of the module-level
    function ``func`` (plain or attribute calls)."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == func:
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    f = call.func
                    name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                    if name in BUILDERS:
                        out.add(name)
            return out
    raise AssertionError(f"{func} is not defined")


def test_trainers_build_no_inputs():
    # the scan itself: builder calls anywhere in the named function's body,
    # plain or attribute, and nothing else
    source = (
        "def train(city, n2v=None):\n"
        "    if n2v is None:\n"
        "        n2v = node2vec.node2vec_embeddings(city.net)\n"
        "    return [augmented_trajs(city, 5) for _ in range(2)]\n"
        "def other(city):\n"
        "    return mma_training_samples(city)\n"
    )
    assert builders_called(source, "train") == {"node2vec_embeddings", "augmented_trajs"}
    assert builders_called(source, "other") == {"mma_training_samples"}
    assert builders_called("def train(samples, n2v):\n    return 'node2vec_embeddings'\n", "train") == set()

    assert {func: builders_called(path.read_text(), func) for path, func in TRAINERS.items()} == {
        func: set() for func in TRAINERS.values()
    }
