"""No function of the package calls itself.

A recursive function can hit ``RecursionError`` on a large valid input.
The scan parses every module of ``src/nearnormal`` and lists each function
whose body calls it by its bare name or as ``self.<name>``; nested
functions are named after their enclosing ones.  It must find none: the
searches keep explicit stacks, and the offline corpus generator and
isomorphism test live outside the package, in ``scripts/`` and ``tests/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nearnormal"


def _calls_itself(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id == fn.name:
            return True
        if (isinstance(callee, ast.Attribute) and callee.attr == fn.name
                and isinstance(callee.value, ast.Name) and callee.value.id == "self"):
            return True
    return False


def recursive_functions(path: Path) -> set[str]:
    found = set()
    stack = [(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef) and _calls_itself(child):
                    found.add(name)
                stack.append((child, name))
            else:
                stack.append((child, prefix))
    return found


def test_the_scan_finds_a_recursive_function(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def fact(n):\n    return 1 if n < 2 else n * fact(n - 1)\n\n"
        "class Walker:\n    def walk(self, node):\n        for child in node:\n            self.walk(child)\n\n"
        "def outer():\n    def inner(k):\n        return inner(k - 1) if k else 0\n    return inner(3)\n\n"
        "def flat(xs):\n    return sorted(xs)\n"
    )
    assert recursive_functions(path) == {"sample.fact", "sample.Walker.walk", "sample.outer.inner"}


def test_no_function_of_the_package_recurses():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= recursive_functions(path)
    assert found == set(), sorted(found)
