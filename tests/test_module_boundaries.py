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
