"""The cyclic-collector pause around parsing, generation and kernelization."""

import gc
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import mistkernel
from mistkernel import Graph, PreconditionError, kernelize
from mistkernel.fileformats import FormatError, parse_edge_list, serialize_edge_list
from mistkernel.generate import generate
from mistkernel.graph import _nogc

# each paused function with a call that returns and a call that raises
CALLS = [
    (lambda: parse_edge_list("p 2 1\ne 0 1\n"),
     lambda: parse_edge_list("p 2 1\ne 0 x\n"), FormatError),
    (lambda: generate("tree-plus", 8, 9, seed=1),
     lambda: generate("tree-plus", 8, 3, seed=1), PreconditionError),
    (lambda: kernelize(Graph(4, [(0, 1), (1, 2), (2, 3)]), 2),
     lambda: kernelize(Graph(4, [(0, 1), (2, 3)]), 1), PreconditionError),
]


@pytest.mark.parametrize("ok, bad, error", CALLS)
def test_collector_is_enabled_again(ok, bad, error):
    assert gc.isenabled()
    ok()
    assert gc.isenabled()
    with pytest.raises(error):
        bad()
    assert gc.isenabled()


@pytest.mark.parametrize("ok, bad, error", CALLS)
def test_a_disabled_collector_stays_disabled(ok, bad, error):
    gc.disable()
    try:
        ok()
        assert not gc.isenabled()
        with pytest.raises(error):
            bad()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_no_collection_while_a_large_graph_is_parsed_and_kernelized():
    assert gc.isenabled()
    text = serialize_edge_list(generate("tree-plus", 10000, 12000, seed=1))
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(count)
    try:
        res = kernelize(parse_edge_list(text), 2500)
    finally:
        gc.callbacks.remove(count)
    assert res.outcome == "solved"
    assert started == []


def test_exactly_three_functions_are_paused():
    paused = _nogc(lambda: None).__code__
    modules = [importlib.import_module(f"mistkernel.{m.name}")
               for m in pkgutil.iter_modules(mistkernel.__path__)]
    names = {
        f"{mod.__name__}.{name}"
        for mod in modules
        for name, obj in inspect.getmembers(mod, inspect.isfunction)
        if obj.__code__ is paused and obj.__module__ == mod.__name__
    }
    assert names == {
        "mistkernel.fileformats.parse_edge_list",
        "mistkernel.generate.generate",
        "mistkernel.kernelizer.kernelize",
    }


def test_one_place_disables_the_collector():
    src = Path(mistkernel.__file__).parent
    hits = [p.name for p in sorted(src.glob("*.py"))
            for line in p.read_text().splitlines() if "gc.disable" in line]
    assert hits == ["graph.py"]
