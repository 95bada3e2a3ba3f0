"""Source hygiene of the package: no unused imports, no dead private names,
no unread local variables, no class checks against `typing` aliases, no
module-level container that a function changes, and no import of
`dataclasses` or `inspect`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "xorsleuth"


def modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def loaded(tree):
    """The names a module reads: as a name, or as an attribute of anything."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def imported(tree):
    """The names a module binds by import, ``from __future__`` aside."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return out


def private_definitions(tree):
    """The ``_``-prefixed names a module defines at its top level."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in out if name.startswith("_") and not name.startswith("__")}


def test_every_import_is_used():
    unused = sorted(
        f"{name}.{imp}" for name, tree in modules().items() for imp in imported(tree) - loaded(tree)
    )
    assert unused == []


def test_every_private_module_name_is_read_somewhere():
    trees = modules()
    everywhere = set().union(*map(loaded, trees.values()))
    dead = sorted(
        f"{name}.{private}" for name, tree in trees.items() for private in private_definitions(tree) - everywhere
    )
    assert dead == []


def typing_names(tree):
    """The names a module binds to classes of ``typing``, and those it binds
    to the module ``typing`` itself."""
    classes, whole = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "typing":
            classes.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            whole.update(alias.asname or alias.name for alias in node.names if alias.name == "typing")
    return classes, whole


def test_no_class_check_against_typing():
    # `isinstance(x, typing.Mapping)` goes through typing's alias machinery
    # and costs about 2.5 times the check against `collections.abc.Mapping`
    slow = []
    for name, tree in modules().items():
        classes, typing_modules = typing_names(tree)
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass")
                and len(node.args) == 2
            ):
                continue
            second = node.args[1]
            for cls in second.elts if isinstance(second, ast.Tuple) else [second]:
                if (isinstance(cls, ast.Name) and cls.id in classes) or (
                    isinstance(cls, ast.Attribute) and isinstance(cls.value, ast.Name) and cls.value.id in typing_modules
                ):
                    slow.append(f"{name}:{node.lineno}: {ast.unparse(cls)}")
    assert slow == []


def _own_nodes(func):
    """The nodes of a function's or a lambda's body, without those of the
    functions, lambdas and classes defined in it."""
    stack = list(func.body) if isinstance(func.body, list) else [func.body]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def assigned_locals(func):
    """The names a function's own body assigns, augmented assignment and
    unpacking included, less those it declares global or nonlocal; an item
    stored into ``x[i]`` or an attribute into ``x.a`` assigns no name."""
    stored, declared = set(), set()
    for node in _own_nodes(func):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.NamedExpr)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names = (n for n in ast.walk(target) if isinstance(n, ast.Name))
                stored.update(n.id for n in names if isinstance(n.ctx, ast.Store))
    return stored - declared


def test_every_local_variable_is_read():
    # a nested function may read what its enclosing function assigns, so the
    # reads are those of the whole function; an augmented assignment stores
    # its target without counting as a read of it
    unread = []
    for name, tree in modules().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                reads = {n.id for n in ast.walk(func) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                unread += [f"{name}.{func.name}: {v}" for v in sorted(assigned_locals(func) - reads - {"_"})]
    assert unread == []


# The types of a mutable container, as a module may call them to build one.
CONTAINER_TYPES = frozenset({"dict", "set", "list", "defaultdict", "OrderedDict", "Counter", "deque"})
CONTAINER_DISPLAYS = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp)
# The methods that change a dict, a set, a list or a deque in place.
MUTATORS = frozenset(
    {
        "add", "append", "appendleft", "clear", "difference_update", "discard", "extend", "extendleft",
        "insert", "intersection_update", "pop", "popitem", "remove", "reverse", "setdefault", "sort",
        "symmetric_difference_update", "update", "__setitem__", "__delitem__",
    }
)


def module_containers(tree):
    """The names a module binds at its top level to a new dict, set or list
    (a display, a comprehension or a call of a container type)."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            called = value.func if isinstance(value, ast.Call) else None
            name = called.id if isinstance(called, ast.Name) else getattr(called, "attr", None)
            if isinstance(value, CONTAINER_DISPLAYS) or name in CONTAINER_TYPES:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out.update(t.id for t in targets if isinstance(t, ast.Name))
    return out


def function_scopes(node, bound=frozenset()):
    """Each function and lambda under ``node``, with the names it or a
    function around it binds: its parameters and its locals."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = child.args
            params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a}
            inner = bound | params | assigned_locals(child)
            yield child, inner
            yield from function_scopes(child, inner)
        else:
            yield from function_scopes(child, bound)


def _container_name(node):
    """The name a subscript chain such as ``x[i][j]`` starts from."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def container_mutations(tree, containers):
    """Each place where a function changes one of ``containers`` (names of
    the module's own scope): an item stored or deleted, a mutating method
    called, or the name declared global to be rebound."""
    out = []
    for func, bound in function_scopes(tree):
        seen = containers - bound
        for node in _own_nodes(func):
            if isinstance(node, ast.Global):
                changed = sorted(seen & set(node.names))
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                changed = [_container_name(node.value)]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
                changed = [_container_name(node.func.value)]
            else:
                continue
            out += [(node.lineno, getattr(func, "name", "lambda"), name) for name in changed if name in seen]
    return [f"{func}:{line}: {name}" for line, func, name in sorted(out)]


def test_no_function_changes_a_module_level_container():
    # a container kept at module level and filled by calls carries work from
    # one call, or one analysis, into the next: results would depend on what
    # ran before, and the benchmark, which clears only the `functools`
    # caches between items, would time work done for an earlier item
    trees = modules()
    own = {name: module_containers(tree) for name, tree in trees.items()}
    changed = []
    for name, tree in trees.items():
        containers = set(own[name])
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in own:
                containers.update(a.asname or a.name for a in node.names if a.name in own[node.module])
        changed += [f"{name}.{where}" for where in container_mutations(tree, containers)]
    assert changed == []


def test_module_level_container_changes_are_found():
    tree = ast.parse(
        """
import collections
_CACHE = {}
_SEEN: set = set()
_QUEUE = collections.deque()
_ROWS = [1]
_FIXED = (1,)

def remember(key, value):
    _CACHE[key] = value
    _SEEN.add(key)
    _QUEUE.append(key)
    _ROWS[0] += 1
    del _CACHE[key]

def shadows(_CACHE, key):
    _CACHE[key] = 1
    _ROWS = []
    _ROWS.append(key)
    f = lambda k: _SEEN.discard(k)

def rebinds():
    global _ROWS
    _ROWS = []

def reads(key):
    return _CACHE.get(key), key in _SEEN, _FIXED[0]
"""
    )
    containers = module_containers(tree)
    assert containers == {"_CACHE", "_SEEN", "_QUEUE", "_ROWS"}
    found = container_mutations(tree, containers)
    assert found == [
        "remember:10: _CACHE",
        "remember:11: _SEEN",
        "remember:12: _QUEUE",
        "remember:13: _ROWS",
        "remember:14: _CACHE",
        "lambda:20: _SEEN",
        "rebinds:23: _ROWS",
    ]


def imported_modules(tree):
    """The modules a module imports, by their full names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module)
        elif isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
    return out


# `dataclasses` generates and compiles the methods of every class it builds
# when the module is imported, and it loads `inspect`, which loads `ast`,
# `dis` and `tokenize`: together about 25 ms of every CLI process's start
# (Python 3.11, 2-vCPU container), more than the package's other import work
SLOW_TO_IMPORT = ("dataclasses", "inspect")


def test_no_module_imports_dataclasses_or_inspect():
    found = sorted(
        f"{name}: {module}"
        for name, tree in modules().items()
        for module in imported_modules(tree)
        if module.split(".")[0] in SLOW_TO_IMPORT
    )
    assert found == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh process without site hooks (-S), which could import either
    code = "import sys, xorsleuth.cli; print(sorted(m for m in sys.argv[1:] if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *SLOW_TO_IMPORT], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
