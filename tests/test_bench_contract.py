"""Every name the benchmark imports from the package must exist, and every
call the benchmark makes of one must bind to its signature.

The benchmark scripts under `perfbench/` import from `pointvortex` by name,
some of them only inside the traced run.  Parsing the scripts here turns a
dropped or renamed name, or a changed signature, into a test failure instead
of a broken benchmark.
"""
import ast
import importlib
import inspect
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


def call_sites():
    """(script, line, module, name, positional count, keyword names) of every
    direct call of a name imported from the package, and of every
    `tr.call(label, fn, *args, **kwargs)` whose `fn` is one."""
    sites = []
    for script, tree in scripts():
        imported = {name: module for s, module, name in NAMES if s == script}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if isinstance(func, ast.Attribute) and func.attr == "call" and len(args) >= 2:
                func, args = args[1], args[2:]
            if isinstance(func, ast.Name) and func.id in imported:
                sites.append((script, node.lineno, imported[func.id], func.id, args,
                              node.keywords))
    return sorted(sites, key=lambda site: site[:2])


NAMES = imported_names()
SITES = call_sites()


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
