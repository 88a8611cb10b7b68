"""Every name the benchmark imports from the package must exist, every call
the benchmark makes of one must bind to its signature, and every attribute it
reads off a returned value must exist on the annotated return type.

The benchmark scripts under `perfbench/` import from `pointvortex` by name,
some of them only inside the traced run.  Parsing the scripts here turns a
dropped or renamed name, a changed signature, or a renamed field into a test
failure instead of a broken benchmark.
"""
import ast
import dataclasses
import importlib
import inspect
import typing
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def scripts():
    for path in sorted(PERFBENCH.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def imported_names():
    names = []
    for script, tree in scripts():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                    node.module == "pointvortex" or node.module.startswith("pointvortex.")):
                names += [(script, node.module, alias.name) for alias in node.names]
    return names


def package_call(node, imported):
    """(name, positional args) if `node` calls a name imported from the
    package, directly or as `tr.call(label, fn, *args, **kwargs)`."""
    if not isinstance(node, ast.Call):
        return None
    func, args = node.func, node.args
    if isinstance(func, ast.Attribute) and func.attr == "call" and len(args) >= 2:
        func, args = args[1], args[2:]
    if isinstance(func, ast.Name) and func.id in imported:
        return func.id, args
    return None


def call_sites():
    """(script, line, module, name, positional count, keyword names) of every
    package call (see `package_call`)."""
    sites = []
    for script, tree in scripts():
        imported = {name: module for s, module, name in NAMES if s == script}
        for node in ast.walk(tree):
            call = package_call(node, imported)
            if call is not None:
                sites.append((script, node.lineno, imported[call[0]], call[0], call[1],
                              node.keywords))
    return sorted(sites, key=lambda site: site[:2])


def scopes(tree):
    """Each function body, and the module's own statements."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    yield [n for n in tree.body if not isinstance(n, defs)]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield [node]


def attribute_reads():
    """(script, line, module, name, attribute, element) of every `x.attr`
    read in the scope of `x = f(...)` or `x = tr.call(label, f, ...)`, with f
    a package name (element False), and of every `r.attr` in the scope of
    `for r in x` over such an x (element True)."""
    reads = set()
    for script, tree in scripts():
        imported = {name: module for s, module, name in NAMES if s == script}
        for scope in scopes(tree):
            nodes = [n for top in scope for n in ast.walk(top)]
            bound, elements = {}, {}
            for node in nodes:
                if (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)):
                    call = package_call(node.value, imported)
                    if call is not None:
                        bound[node.targets[0].id] = call[0]
            for node in nodes:
                if (isinstance(node, (ast.For, ast.comprehension))
                        and isinstance(node.iter, ast.Name) and node.iter.id in bound
                        and isinstance(node.target, ast.Name)):
                    elements[node.target.id] = bound[node.iter.id]
            for node in nodes:
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    for table, element in ((bound, False), (elements, True)):
                        if node.value.id in table:
                            name = table[node.value.id]
                            reads.add((script, node.lineno, imported[name], name,
                                       node.attr, element))
    return sorted(reads)


NAMES = imported_names()
SITES = call_sites()
READS = attribute_reads()


def test_benchmark_imports_something():
    assert PERFBENCH.is_dir()
    modules = {module for _, module, _ in NAMES}
    assert {"pointvortex", "pointvortex.periods", "pointvortex.theta"} <= modules


@pytest.mark.parametrize("script, module, name", NAMES,
                         ids=[f"{s}:{m}.{n}" for s, m, n in NAMES])
def test_benchmark_import_resolves(script, module, name):
    assert hasattr(importlib.import_module(module), name), (
        f"perfbench/{script} imports {name} from {module}, which no longer has it")


def test_benchmark_calls_something():
    assert len(SITES) >= 20


def site_ids():
    # the k-th call of a name in a script, so the ids survive unrelated edits
    seen: dict = {}
    for script, _, _, name, _, _ in SITES:
        seen[script, name] = seen.get((script, name), 0) + 1
        yield f"{script}:{name}#{seen[script, name]}"


@pytest.mark.parametrize("script, line, module, name, args, keywords", SITES,
                         ids=list(site_ids()))
def test_benchmark_call_binds(script, line, module, name, args, keywords):
    # a starred argument or ** keyword would hide how many values are passed
    assert not any(isinstance(a, ast.Starred) for a in args)
    assert all(k.arg is not None for k in keywords)
    signature = inspect.signature(getattr(importlib.import_module(module), name))
    try:
        signature.bind(*args, **{k.arg: None for k in keywords})
    except TypeError as exc:
        pytest.fail(f"perfbench/{script}:{line} calls {name} as the package "
                    f"no longer allows: {exc}")


def test_benchmark_reads_the_traced_fields():
    read = {(script, name, attr) for script, _, _, name, attr, _ in READS}
    assert {("layers.py", "theta_context", "n_terms"), ("layers.py", "run_suite", "name"),
            ("layers.py", "run_suite", "elapsed")} <= read


def returned_type(module, name, element):
    """The class a call of `name` returns (its element class if `element`)."""
    obj = getattr(importlib.import_module(module), name)
    if inspect.isclass(obj):
        return obj
    hints = typing.get_type_hints(obj)
    assert "return" in hints, f"{module}.{name} has no return annotation"
    hint = typing.get_args(hints["return"])[0] if element else hints["return"]
    return typing.get_origin(hint) or hint


@pytest.mark.parametrize("script, line, module, name, attr, element", READS,
                         ids=[f"{s}:{n}{'[]' if e else ''}.{a}" for s, _, _, n, a, e in READS])
def test_benchmark_attribute_read_exists(script, line, module, name, attr, element):
    cls = returned_type(module, name, element)
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    assert attr in fields or hasattr(cls, attr), (
        f"perfbench/{script}:{line} reads .{attr} off what {name} returns, "
        f"which {cls.__name__} no longer has")
