"""Each exwave module keeps its underscore names to itself."""

import ast
from pathlib import Path

import exwave
from exwave.exponents import BoundForm

SRC = Path(exwave.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def test_no_module_imports_a_process_or_thread_pool():
    """A sweep steps its epsilons in one lockstep ladder: no exwave module
    imports ``concurrent.futures`` or ``multiprocessing``."""
    pools = ("concurrent", "multiprocessing")
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}: {module}"
                for module in modules
                if module.split(".")[0] in pools
            ]
    assert found == []


def test_every_imported_name_is_used_by_its_module():
    """A module imports a name only to use it: no re-export, no dead
    import.  A name counts as used where the module's code reads it, so
    listing it in ``__all__`` does not count."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{path.name}:{node.lineno}: {name}"
                    for alias in node.names
                    if (name := alias.asname or alias.name.split(".")[0]) not in used
                ]
    assert found == []


def _is_cyclic_neighbour(node):
    """``(x - 1) % k`` or ``(x + 1) % k``: the cyclic coupling's index rule,
    read in either direction."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mod)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, (ast.Sub, ast.Add))
        and isinstance(node.left.right, ast.Constant)
        and node.left.right.value == 1
    )


def test_only_exponents_writes_the_cyclic_coupling():
    """Component l is forced by component (l - 1) mod k; every other module
    reads that order, or the component l forces, from
    ``ExponentVector.sources``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "exponents.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _is_cyclic_neighbour(node)
    ]
    assert found == []


def test_config_spells_no_default():
    """The INI loaders leave every default to the dataclass field a key
    fills, so config.py holds no int or float constant."""
    path = SRC / "config.py"
    found = [
        f"config.py:{node.lineno}: {node.value!r}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    ]
    assert found == []


def test_only_exponents_spells_a_regime_name():
    """Every other module names a lifespan regime by its ``BoundForm``
    member, never by the member's string value."""
    names = {form.value for form in BoundForm}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "exponents.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and node.value in names
    ]
    assert found == []


def test_no_source_line_is_wider_than_99_columns():
    wide = [
        f"{path.name}:{number}: {len(line)} columns"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > 99
    ]
    assert wide == []


def _memo_decorator(node):
    """'cache' or 'lru_cache' when ``node`` (a decorator, or the function a
    decorator call calls) names that functools memo, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        name = node.attr if node.value.id == "functools" else None
    else:
        name = node.id if isinstance(node, ast.Name) else None
    return name if name in ("cache", "lru_cache") else None


def _finite_maxsize(call):
    """The int maxsize an ``lru_cache(...)`` call names, else None."""
    args = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    value = args[0].value if args and isinstance(args[0], ast.Constant) else None
    return value if isinstance(value, int) and not isinstance(value, bool) else None


def test_every_process_wide_memo_is_bounded():
    """A memo lives as long as the process: no module uses ``functools.cache``,
    and every ``lru_cache`` names a finite ``maxsize``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [
                    f"{path.name}:{node.lineno}: imports cache"
                    for alias in node.names
                    if alias.name == "cache"
                ]
            if _memo_decorator(node) == "cache" and isinstance(node, ast.Attribute):
                found.append(f"{path.name}:{node.lineno}: functools.cache")
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                if _memo_decorator(dec.func if call else dec) == "lru_cache" and (
                    call is None or _finite_maxsize(call) is None
                ):
                    found.append(f"{path.name}:{dec.lineno}: lru_cache without a finite maxsize")
    assert found == []


def _traced_names():
    """The dotted names of ``perfbench/tracer.py``'s ``TRACED``, read
    without importing it."""
    for node in ast.parse(TRACER.read_text(), filename=str(TRACER)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    raise AssertionError(f"{TRACER} assigns no TRACED")


def _private_definitions(tree):
    """(qualified name, node) of every private function, method and class."""
    found = []

    def visit(parent, prefix):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not name.endswith("__"):
                    found.append((prefix + name, node))
                visit(node, f"{prefix}{name}.")
            else:
                visit(node, prefix)

    visit(tree, "")
    return found


def test_every_private_helper_is_named_by_its_module():
    """A private function, method or class that its own module never names
    outside its own body is dead code, unless the benchmark's tracer
    patches it by name."""
    traced = _traced_names()
    orphans = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, definition in _private_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            name = definition.name
            named = any(
                id(node) not in inside
                and (
                    (isinstance(node, ast.Name) and node.id == name)
                    or (isinstance(node, ast.Attribute) and node.attr == name)
                )
                for node in ast.walk(tree)
            )
            if not named and f"{path.stem}.{qualname}" not in traced:
                orphans.append(f"{path.name}: {qualname}")
    assert orphans == []


def test_every_public_member_is_read_outside_the_tests():
    """A public method or property of an exwave class is read somewhere in
    ``src/exwave`` outside its own body, or by the benchmark in
    ``perfbench/``: a member that only tests read is surface no command,
    config or workload needs."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SRC.glob("*.py")}
    bench = [ast.parse(path.read_text(), filename=str(path)) for path in PERFBENCH.glob("*.py")]
    read_by_bench = {
        node.attr for tree in bench for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }
    reads = [
        (id(node), node.attr)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    ]
    unread = []
    for path, tree in sorted(trees.items()):
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for member in cls.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = member.name
                if name.startswith("_") or name in read_by_bench:
                    continue
                inside = {id(node) for node in ast.walk(member)}
                if not any(attr == name and key not in inside for key, attr in reads):
                    unread.append(f"{path.name}: {cls.name}.{name}")
    assert unread == []
