"""Every name defined in src/riversim must be read somewhere in src/riversim.

A module-level function, class or constant, or a public method, that no
module loads is code no run executes. Only an ``ast.Name`` in Load context
or an ``ast.Attribute`` counts as a use, so an import alone or a call from
tests does not keep a name alive. Exempt are the public API in
``riversim.__all__``, dunders, and ``cli.entry`` (the console script
declared in pyproject.toml).

Every field of a dataclass declared in src/riversim must likewise be read
somewhere in src/riversim, as an ``ast.Attribute`` in Load context: a field
that is only assigned, or only read by tests, holds a value no run uses.
Fields are matched by bare name, not by class, so a field shares the fate
of any same-named attribute read elsewhere: ``TerrainGrid.legend`` went
unflagged while unread because ``config.legend`` is read.

No module in src/riversim calls ``randrange``: every index draw goes
through ``dynamics.randbelow``, whose equality with ``randrange`` is tested
on the running interpreter.

The names ``perfbench/tracing.py`` patches on the riversim modules must all
exist, and each counting probe that takes a fixed number of arguments must
still bind its target's signature, so a src change that breaks a traced
benchmark run fails here too.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import riversim

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "riversim"

EXEMPT = {("cli", "entry")}


def _defined_names(tree: ast.Module):
    """(qualified name, bare name) of each module-level definition and
    public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.name
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                ):
                    yield f"{node.name}.{item.name}", item.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node.target.id


def _loaded_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def unused_names(src: Path = SRC) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    loaded = {name for tree in trees.values() for name in _loaded_names(tree)}
    unused = []
    for module, tree in trees.items():
        for qualified, bare in _defined_names(tree):
            if bare.startswith("__") and bare.endswith("__"):
                continue
            if bare in riversim.__all__ or (module, qualified) in EXEMPT:
                continue
            if bare not in loaded:
                unused.append(f"{module}.{qualified}")
    return unused


def test_every_src_name_is_used_in_src():
    unused = unused_names()
    assert not unused, "defined in src/riversim but never used there: " + ", ".join(unused)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def unread_fields(src: Path = SRC) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            for item in node.body:
                if (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and item.target.id not in read
                ):
                    unread.append(f"{module}.{node.name}.{item.target.id}")
    return unread


def test_every_dataclass_field_is_read_in_src():
    unread = unread_fields()
    assert not unread, "dataclass fields never read in src/riversim: " + ", ".join(unread)


def test_field_guard_sees_dataclasses(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "import dataclasses\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    kept: int\n"
        "    written: int = 0\n"
        "@dataclasses.dataclass\n"
        "class B:\n"
        "    never: int\n"
        "class C:\n"
        "    plain: int\n"
        "def f(a, b):\n"
        "    a.written = a.kept\n",
        encoding="utf-8",
    )
    assert unread_fields(tmp_path) == ["mod.A.written", "mod.B.never"]


def test_no_randrange_call_in_src():
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "randrange"
    ]
    assert not calls, "randrange called in src/riversim (use dynamics.randbelow): " + ", ".join(calls)


# The counting probes with a fixed parameter list, and how many positional
# arguments each passes to the function it wraps.
FIXED_ARITY_PROBES = {
    "engine._watchers": 3,
    "engine.diffuse_excitement": 2,
    "engine.utilities_by_cell": 1,
    "engine.community_cleanup": 3,
}


def test_benchmark_patch_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in tracing.PATCHES
               if not callable(getattr(module, attr, None))]
    assert tracing.PATCHES and not missing, "perfbench patches missing names: " + ", ".join(missing)

    arity, unbound = {}, []
    for module, attr, _, probe in tracing.PATCHES:
        if probe is None:
            continue
        params = inspect.signature(probe({}, None)).parameters.values()
        if any(p.kind is not p.POSITIONAL_OR_KEYWORD for p in params):
            continue  # forwards *args
        name = f"{module.__name__.rpartition('.')[2]}.{attr}"
        arity[name] = len(params)
        try:
            inspect.signature(getattr(module, attr)).bind(*range(len(params)))
        except TypeError as exc:
            unbound.append(f"{name} ({len(params)} arguments): {exc}")
    assert arity == FIXED_ARITY_PROBES
    assert not unbound, "perfbench probes no longer bind: " + "; ".join(unbound)
