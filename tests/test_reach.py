"""The product ships only what a command, an example script or the benchmark
reaches: every function, class and method defined in ``src/wres`` is named
by code in ``src/wres``, ``scripts/`` or ``perfbench/``, or exported by
``wres.__all__``, every attribute a class of ``src/wres`` stores on
``self`` is read by that code, and every parameter with a default is passed
by some call in it.  Test references live in ``tests/references.py``."""

import ast
from pathlib import Path

import wres

ROOT = Path(__file__).resolve().parent.parent
PRODUCT = ROOT / "src" / "wres"
CALLERS = (PRODUCT, ROOT / "scripts", ROOT / "perfbench")


def _definitions(tree):
    """(qualified name, node) of each module-level function and class and of
    each method of a module-level class; closures are local names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _names(node):
    """Every name that code under ``node`` uses: variables, attributes and
    imports.  Strings, docstrings among them, name nothing."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias):
            out.append(sub.name.rsplit(".", 1)[-1])
    return out


def _trees():
    return {path: ast.parse(path.read_text(), str(path))
            for folder in CALLERS for path in sorted(folder.rglob("*.py"))}


def unreached_definitions() -> list[str]:
    """The definitions of ``src/wres`` that no product code names, outside
    their own body, and that ``wres.__all__`` does not export.  Dunder
    methods are called by the language and count as reached."""
    trees = _trees()
    used: dict[str, int] = {}
    for tree in trees.values():
        for name in _names(tree):
            used[name] = used.get(name, 0) + 1
    out = []
    for path, tree in trees.items():
        if PRODUCT not in path.parents:
            continue
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in wres.__all__:
                continue
            if used.get(name, 0) > _names(node).count(name):
                continue
            out.append(f"{path.stem}.{qualname}")
    return out


def test_every_definition_in_wres_has_a_product_caller():
    unreached = unreached_definitions()
    assert not unreached, "no product code reaches " + ", ".join(unreached)


def _stored_fields(cls):
    """The attributes that the methods of class ``cls`` assign on ``self``,
    tuple targets included."""
    out = set()
    for sub in ast.walk(cls):
        if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
            out.add(sub.attr)
    return out


def unread_fields() -> list[str]:
    """The attributes that a class of ``src/wres`` stores on ``self`` and
    that no product code reads as an attribute of anything."""
    trees = _trees()
    read = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    out = []
    for path, tree in trees.items():
        if PRODUCT not in path.parents:
            continue
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            out += [f"{path.stem}.{cls.name}.{field}"
                    for field in sorted(_stored_fields(cls) - read)]
    return out


def test_every_stored_field_has_a_product_reader():
    unread = unread_fields()
    assert not unread, "no product code reads " + ", ".join(unread)


def _defaulted_parameters(qualname, node):
    """(position among the arguments a call writes, name) of each parameter
    of function ``node`` that has a default; a keyword-only one has position
    None.  A call writes no self or cls."""
    args = node.args
    positional = args.posonlyargs + args.args
    if "." in qualname and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                   for d in node.decorator_list):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    out = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
    out += [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _may_pass(call, position, name):
    """Whether ``call`` may pass the parameter: by keyword, through ``**``,
    or at its position, which a ``*`` argument may reach."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and (len(call.args) > position or any(
        isinstance(a, ast.Starred) for a in call.args))


def unpassed_parameters() -> list[str]:
    """The parameters with a default, of the functions and methods of
    ``src/wres``, that no call in product code passes, so that the default
    is the only value they take.  Calls are matched by the called name alone,
    which can only add callers; a class's calls are its ``__init__``'s.  The
    other dunder methods, which the language calls, and the names that
    ``wres.__all__`` exports are left out."""
    trees = _trees()
    calls: dict[str, list] = {}
    for tree in trees.values():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Call):
                func = sub.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(sub)
    out = []
    for path, tree in trees.items():
        if PRODUCT not in path.parents:
            continue
        for qualname, node in _definitions(tree):
            if isinstance(node, ast.ClassDef):
                continue
            called = qualname.split(".")[0] if node.name == "__init__" else node.name
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if dunder and node.name != "__init__" or called in wres.__all__:
                continue
            out += [f"{path.stem}.{qualname}({name})"
                    for position, name in _defaulted_parameters(qualname, node)
                    if not any(_may_pass(c, position, name) for c in calls.get(called, ()))]
    return out


def test_every_defaulted_parameter_is_passed_by_product_code():
    unpassed = unpassed_parameters()
    assert not unpassed, "no product code passes " + ", ".join(unpassed)
