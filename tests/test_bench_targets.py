"""The benchmark's span tracer wraps package entry points by name; every
name it lists must still resolve, so renaming or deleting a traced entry
point fails here and not only in a traced benchmark run."""

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_tracer_targets_resolve():
    targets = _targets()
    assert targets
    for module, path in targets:
        obj = importlib.import_module(f"jordanbounds.{module}")
        for part in path.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, path)
