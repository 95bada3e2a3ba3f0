"""Source hygiene of the package: no unused imports, no dead private names,
no unread local variables, no class checks against `typing` aliases."""

import ast
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
    """The nodes of a function's body, without those of the functions,
    lambdas and classes defined in it."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def assigned_locals(func):
    """The names a function's own body assigns, augmented assignment and
    unpacking included, less those it declares global or nonlocal."""
    stored, declared = set(), set()
    for node in _own_nodes(func):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.NamedExpr)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                stored.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
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
