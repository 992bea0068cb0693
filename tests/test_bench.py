"""The traced benchmark run wraps library functions by name; every name it
wraps must still exist, or `bench/run.py --trace 1` fails on an attribute
error that no other test would see."""

import ast
import importlib
import os

BENCH_TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracing.py"
)


def _bindings():
    tree = ast.parse(open(BENCH_TRACING, encoding="utf-8").read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BINDINGS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no BINDINGS")


def test_traced_bindings_resolve():
    bindings = _bindings()
    assert bindings
    for span, names in bindings.items():
        for name in names:
            module, attr = name.split(".")
            mod = importlib.import_module(f"mistkernel.{module}")
            assert callable(getattr(mod, attr, None)), f"{span}: {name} is missing"
