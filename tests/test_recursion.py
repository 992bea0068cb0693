"""An inventory of the functions in `src/` that call themselves.

Python raises RecursionError about 1000 frames deep, so a recursion whose
depth grows with the input would crash on large valid input.  Each
recursive function is listed here with the reason its depth is bounded; a
new one fails the inventory until it is given such a reason or rewritten
with an explicit stack.
"""

import ast
from pathlib import Path

from mistkernel.oracle import MAX_N

SRC = Path(__file__).resolve().parent.parent / "src"


def _calls_itself(fn) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                return True
            if (isinstance(f, ast.Attribute) and f.attr == fn.name
                    and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
                return True
    return False


def recursive_functions() -> list:
    """Qualified names (module.outer.inner) of the self-calling functions."""
    found = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef) and _calls_itself(child):
                    found.append(name)
                walk(child, name)
            else:
                walk(child, prefix)

    for path in sorted(SRC.rglob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_finds_self_calls():
    tree = ast.parse(
        "def f(x):\n    return f(x - 1) if x else 0\n"
        "class C:\n    def g(self):\n        return self.g()\n"
        "def h():\n    def inner():\n        return inner()\n    return h\n"
    )
    fns = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    assert {fn.name for fn in fns if _calls_itself(fn)} == {"f", "g", "inner"}


def test_every_recursion_is_bounded():
    # oracle._branch_and_bound.rec: one frame per edge decided, so its
    # depth is at most m + 1.  The search runs only on kernels with n <=
    # MAX_N vertices, so m <= MAX_N (MAX_N - 1) / 2 = 153 and the depth is
    # at most 154.
    assert recursive_functions() == ["oracle._branch_and_bound.rec"]
    assert MAX_N * (MAX_N - 1) // 2 + 1 == 154
