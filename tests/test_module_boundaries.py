"""Each exwave module keeps its underscore names to itself."""

import ast
from pathlib import Path

import exwave

SRC = Path(exwave.__file__).resolve().parent


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "exwave"
            if internal:
                found += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    assert found == []


def _is_cyclic_predecessor(node):
    """``(x - 1) % k``: the cyclic coupling's index rule."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mod)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Sub)
        and isinstance(node.left.right, ast.Constant)
        and node.left.right.value == 1
    )


def test_only_exponents_writes_the_cyclic_coupling():
    """Component l is forced by component (l - 1) mod k; every other module
    reads that order from ``ExponentVector.sources``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "exponents.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _is_cyclic_predecessor(node)
    ]
    assert found == []
