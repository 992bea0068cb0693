"""The traced benchmark run wraps library functions by name; every name it
wraps must still exist, or `bench/run.py --trace 1` fails on an attribute
error that no other test would see.  The traced run also checks that each
workload's spans fire and that its outputs are correct."""

import ast
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_TRACING = os.path.join(ROOT, "bench", "tracing.py")


def _bindings():
    tree = ast.parse(Path(BENCH_TRACING).read_text(encoding="utf-8"))
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


@pytest.mark.parametrize("workload", ["rule3-star", "exact-small", "dfs-large"])
def test_traced_run_passes_its_self_test(tmp_path, workload):
    # a copy of bench/ and src/, so the run keeps its state out of the checkout
    ignore = shutil.ignore_patterns("__pycache__")
    for part in ("bench", "src"):
        shutil.copytree(os.path.join(ROOT, part), tmp_path / part, ignore=ignore)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
