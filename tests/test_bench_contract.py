"""Every name the benchmark imports from the package must exist.

The benchmark scripts under `perfbench/` import from `pointvortex` by name,
some of them only inside the traced run.  Parsing the scripts here turns a
dropped or renamed name into a test failure instead of a broken benchmark.
"""
import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def imported_names():
    names = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                    node.module == "pointvortex" or node.module.startswith("pointvortex.")):
                names += [(path.name, node.module, alias.name) for alias in node.names]
    return names


NAMES = imported_names()


def test_benchmark_imports_something():
    assert PERFBENCH.is_dir()
    modules = {module for _, module, _ in NAMES}
    assert {"pointvortex", "pointvortex.periods", "pointvortex.theta"} <= modules


@pytest.mark.parametrize("script, module, name", NAMES,
                         ids=[f"{s}:{m}.{n}" for s, m, n in NAMES])
def test_benchmark_import_resolves(script, module, name):
    assert hasattr(importlib.import_module(module), name), (
        f"perfbench/{script} imports {name} from {module}, which no longer has it")
