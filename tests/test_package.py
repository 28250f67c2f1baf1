"""Static checks of the package source: no unread parameters, no defaults nothing overrides, no dangling
exports, no orphans, no unused imports."""

import ast
from collections import Counter, defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ncprecode"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
BENCH = sorted((SRC.parent.parent / "bench").glob("*.py"))

# Functions whose signature a caller fixes: numpy's errstate callback is
# called as call(err, flag).
EXEMPT = {("solver", "_raise_singular")}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _params(fn):
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    return names + [p.arg for p in (a.vararg, a.kwarg) if p is not None]


def _unread_params(tree):
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {
            node.id
            for stmt in body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        name = getattr(fn, "name", "<lambda>")
        for param in _params(fn):
            if param not in read:
                yield name, param


def _defined(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    unread = [
        f"{fn}({param})"
        for fn, param in _unread_params(_tree(path))
        if (path.stem, fn) not in EXEMPT
    ]
    assert not unread, f"{path.name}: parameters never read: {', '.join(unread)}"


def _functions(tree):
    """Every function with the number of leading parameters a call does not pass (self or cls)."""
    for node in ast.walk(tree):
        body = node.body if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) else []
        for fn in body:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
                yield fn, int(isinstance(node, ast.ClassDef) and not static)


def _defaults(fn):
    """(name, position or None, default node) of each parameter that has a default."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    for pos, (param, default) in enumerate(zip(positional[first:], a.defaults), first):
        yield param.arg, pos, default
    for param, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield param.arg, None, default


def _sets(call, param, pos, default):
    """Whether `call` may pass `param` a value other than its default."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(kw.arg is None for kw in call.keywords):
        return True   # *args or **kwargs: cannot tell, so assume it does
    values = [kw.value for kw in call.keywords if kw.arg == param]
    if pos is not None and pos < len(call.args):
        values.append(call.args[pos])
    return any(ast.dump(v) != ast.dump(default) for v in values)


def test_every_default_is_overridden_somewhere():
    # A defaulted parameter that no call in the package, its tests or the
    # benchmark sets to another value only ever takes its default: it is a
    # constant, not a setting.
    calls = defaultdict(list)
    for path in MODULES + TESTS + BENCH:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                calls[getattr(node.func, "id", None) or node.func.attr].append(node)
    fixed = [
        f"{path.stem}.{fn.name}({param})"
        for path in MODULES
        for fn, skip in _functions(_tree(path))
        for param, pos, default in _defaults(fn)
        if not any(_sets(call, param, None if pos is None else pos - skip, default) for call in calls[fn.name])
    ]
    assert not fixed, f"parameters that only ever take their default: {', '.join(fixed)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_export_is_defined(path):
    tree = _tree(path)
    missing = sorted(set(_exports(tree)) - _defined(tree))
    assert not missing, f"{path.name}: __all__ names not defined: {', '.join(missing)}"


def _named(paths):
    """How often each name is loaded, read as an attribute or imported."""
    named = Counter()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                named[node.id] += 1
            elif isinstance(node, ast.Attribute):
                named[node.attr] += 1
            elif isinstance(node, ast.alias):
                named[node.name] += 1
    return named


def test_every_top_level_definition_is_named_elsewhere():
    # A helper that lost its last caller (or test) is dead code; a name that
    # appears only in __all__ does not count as a use.
    named = _named(MODULES + TESTS)
    orphans = [
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not named[node.name]
    ]
    assert not orphans, f"top-level definitions named nowhere in the package or its tests: {', '.join(orphans)}"


def _imported(tree):
    """Names a module's own top-level and nested import statements bind."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "__init__"], ids=lambda p: p.stem)
def test_every_import_is_used(path):
    # The package's __init__ imports are its public re-exports; every other
    # module must load each name it imports or list it in __all__.
    tree = _tree(path)
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = sorted(set(_imported(tree)) - loaded - set(_exports(tree)))
    assert not unused, f"{path.name}: imported but never used: {', '.join(unused)}"


# The private names one package module may take from another: a name is
# private when it starts with an underscore or its module's __all__ does not
# list it. The wlalg primitives are the broadcasting 2x2 building blocks;
# solver._solve is the gesv call the lemma-2 windows share with the kernel;
# sim re-exports solver._min_norm_kernel because the benchmark's tests check
# that its tracer wraps that binding; the lemma-2 chains square with slp's
# Python-float pow.
PRIVATE_IMPORTS = {
    ("blp", "wlalg._sym2"),
    ("noisegeom", "wlalg._each"),
    ("noisegeom", "wlalg._outer"),
    ("noisegeom", "wlalg._perp"),
    ("noisegeom", "wlalg._sym2"),
    ("slp", "wlalg._each"),
    ("sim", "solver._solve"),
    ("sim", "solver._min_norm_kernel"),
    ("sim", "slp._squares"),
}


def _sibling_names(path):
    """(sibling, name) of each name the module imports from a sibling module or reads off one."""
    tree = _tree(path)
    aliases = {}   # name bound by `from . import module`, to the module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    yield node.module, alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            yield aliases[node.value.id], node.attr


def test_private_names_cross_modules_only_on_the_allowlist():
    # a module without __all__ (errors) exports every public name
    exports = {path.stem: _exports(_tree(path)) for path in MODULES}
    crossing = {
        (path.stem, f"{source}.{name}")
        for path in MODULES
        if path.stem != "__init__"
        for source, name in _sibling_names(path)
        if name.startswith("_") or (exports[source] and name not in exports[source])
    }
    # exact, so an entry that lost its last use goes too
    assert crossing == PRIVATE_IMPORTS, (
        f"not on the allowlist: {sorted(crossing - PRIVATE_IMPORTS)}; unused: {sorted(PRIVATE_IMPORTS - crossing)}"
    )
