"""Layering guards: the package's imports, and one home for let shapes.

Every import of a `linlog` module sits at the top of its module, and the
top-level imports form no cycle: the modules depend on each other in the
order lll -> linear_a -> frontend/translate -> autodiff -> oracle -> gen ->
checks -> cli.  No module of the package or of the tests imports a
`linlog` or `tests` name it never reads.  The modules that read let spines
recognise let shapes only through `lll.lets`.  Every error the package
raises is a `LinlogError` or one of a few builtin ones.  The scan reads the source
with `ast`, so it sees code that no test runs.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import linlog

SRC = Path(linlog.__file__).parent
TESTS = Path(__file__).parent
PERFBENCH = TESTS.parent / "perfbench"


def modules() -> dict[str, ast.Module]:
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = ast.parse(path.read_text(), str(path))
    return out


def linlog_targets(node: ast.stmt) -> list[str]:
    """The `linlog` modules an import statement names (relative imports
    count as `linlog` ones: the package has no other)."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] == "linlog"]
    if isinstance(node, ast.ImportFrom):
        if node.level or (node.module or "").split(".")[0] == "linlog":
            mod = node.module or ""
            return [mod] + [f"{mod}.{a.name}" for a in node.names]
    return []


def test_no_function_imports_a_linlog_module():
    local = set()
    for name, tree in modules().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
                for node in ast.walk(fn):
                    if linlog_targets(node):
                        local.add(f"{name}:{node.lineno}")
    assert not local, f"{len(local)} function-local imports: {sorted(local)}"


def test_top_level_imports_are_acyclic():
    mods = modules()
    graph = {name: sorted({t for node in tree.body
                           for t in linlog_targets(node) if t in mods} - {name})
             for name, tree in mods.items()}
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as e:
        raise AssertionError("import cycle: " + " -> ".join(e.args[1])) from None


def imported_names(tree: ast.Module, lines: list[str]):
    """(name, line) for each name an import of a `linlog` or `tests`
    module binds, except on `# noqa` lines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            ours = node.level or (node.module or "").split(".")[0] in (
                "linlog", "tests")
            bound = [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            ours = True
            bound = [a.asname or a.name.split(".")[0] for a in node.names
                     if a.name.split(".")[0] in ("linlog", "tests")]
        else:
            continue
        if ours and "# noqa" not in lines[node.lineno - 1]:
            yield from ((name, node.lineno) for name in bound)


def test_no_module_imports_a_name_it_never_reads():
    """Re-exports in a package's `__init__` are exempt."""
    paths = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py"))
    unused = []
    for path in paths:
        text = path.read_text()
        tree = ast.parse(text, str(path))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{path.relative_to(SRC.parent.parent)}:{line} {name}"
                   for name, line in imported_names(tree, text.splitlines())
                   if name not in read]
    assert not unused, f"{len(unused)} unused imports: {unused}"


def test_no_module_imports_a_private_name_of_another():
    """A name with one leading underscore is its module's own: no module of
    the package imports one from another `linlog` module."""
    found = []
    for name, tree in modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and linlog_targets(node):
                found += [f"{name}:{node.lineno} {a.name}" for a in node.names
                          if a.name.startswith("_")
                          and not a.name.startswith("__")]
    assert not found, found


def reads(node: ast.AST) -> set[str]:
    """The names a node reads: as a bare name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_definition_is_read():
    """Each top-level public function and class of the package is read
    somewhere in the package, the tests or the benchmark harness, outside
    its own definition; a re-export in an `__init__` is not a read."""
    read, defined = set(), []
    for path in [*SRC.rglob("*.py"), *TESTS.glob("*.py"),
                 *PERFBENCH.glob("*.py")]:
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            own = getattr(node, "name", None)
            read |= reads(node) - {own}
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and path.is_relative_to(SRC) and not own.startswith("_")):
                defined.append((path.relative_to(SRC.parent), own))
    unread = [f"{path} {name}" for path, name in defined if name not in read]
    assert not unread, unread


LEVELS = {"linlog.lll": 0, "linlog.linear_a": 1, "linlog.frontend": 2,
          "linlog.translate": 2, "linlog.autodiff": 3, "linlog.oracle": 4,
          "linlog.gen": 5, "linlog.checks": 6, "linlog.cli": 7}


def layer(mod: str) -> str | None:
    return next((top for top in LEVELS
                 if mod == top or mod.startswith(top + ".")), None)


def test_each_layer_imports_only_lower_ones():
    mods = modules()
    upward = []
    for name, tree in mods.items():
        for node in tree.body:
            for t in [t for t in linlog_targets(node) if t in mods]:
                a, b = layer(name), layer(t)
                if a and b and a != b and LEVELS[b] >= LEVELS[a]:
                    upward.append(f"{name} -> {t}")
    assert not upward, upward


# The modules that read let spines; `lll.reduce` (the reference rewriting
# engine) and `frontend` read terms on their own.
LET_READERS = ("linlog.autodiff", "linlog.lll.sorts", "linlog.lll.workload",
               "linlog.lll.machine")


def class_name(node: ast.expr) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def matches_class(pattern: ast.pattern, name: str) -> bool:
    """Whether `pattern` (under `as` and `|`) is a class pattern `name(...)`."""
    if isinstance(pattern, ast.MatchAs) and pattern.pattern is not None:
        return matches_class(pattern.pattern, name)
    if isinstance(pattern, ast.MatchOr):
        return any(matches_class(p, name) for p in pattern.patterns)
    return isinstance(pattern, ast.MatchClass) and class_name(pattern.cls) == name


def test_let_shapes_are_classified_in_one_place():
    """No `App(Abs(...))` class pattern in the modules that read lets: they
    go through `lll.lets` (`spine` and `let_kind`)."""
    mods = modules()
    found = []
    for name in LET_READERS:
        for node in ast.walk(mods[name]):
            if isinstance(node, ast.MatchClass) and class_name(node.cls) == "App":
                fn = node.patterns[:1] + [p for k, p in zip(
                    node.kwd_attrs, node.kwd_patterns) if k == "fn"]
                if any(matches_class(p, "Abs") for p in fn):
                    found.append(f"{name}:{node.lineno}")
    assert not found, found


# The fields of the evaluator's values and of the nodes of terms, patterns,
# types and Linear-A expressions, none of which is frozen: a value is shared
# between frames and closures and a node between terms, so no code may
# change one in place.  Only the free-name caches of terms (`_fv`) and the
# typechecker's walks of patterns (`_walk`) are filled later.
VALUE_FIELDS = {"left", "right", "inner", "value", "values", "partial", "fn",
                "arg", "pat", "body", "name", "ty", "dom", "cod"}


def test_no_code_assigns_to_a_value_field():
    found = []
    for name, tree in modules().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in VALUE_FIELDS
                    and isinstance(node.ctx, (ast.Store, ast.Del))):
                found.append(f"{name}:{node.lineno} .{node.attr}")
            elif (isinstance(node, ast.Call)
                  and class_name(node.func) in ("setattr", "__setattr__")
                  and any(isinstance(a, ast.Constant)
                          and a.value in VALUE_FIELDS for a in node.args)):
                found.append(f"{name}:{node.lineno} {class_name(node.func)}")
    assert not found, found


# The builtin exceptions the package may raise: a broken invariant, a bad
# argument of a public function, a missing key and an exit status.
BUILTIN_RAISES = {"AssertionError", "ValueError", "KeyError", "SystemExit"}


def test_every_raise_names_a_linlog_error_or_an_allowed_builtin():
    """A bare `raise` re-raises; any other names a class derived from
    `LinlogError`, which a caller can tell from a fault in the program, or
    one of `BUILTIN_RAISES`."""
    mods = modules()
    bases = {node.name: {class_name(b) for b in node.bases}
             for tree in mods.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    ours = {"LinlogError"}
    while grown := {c for c, bs in bases.items() if bs & ours} - ours:
        ours |= grown
    found = []
    for name, tree in mods.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if class_name(exc) not in ours | BUILTIN_RAISES:
                    found.append(f"{name}:{node.lineno} {class_name(exc)}")
    assert not found, found
