"""Every public name in the package has a caller outside the tests.

The names are the top-level ones and the public methods and properties of
the package's classes.  A name is called if it is referenced in
`src/pointvortex` other than by its own definition and `__init__`'s
re-exports, or anywhere in `perfbench/`; a method by its attribute name.
Paper identities that only the tests compare against belong in
`tests/reference.py`, not in the package.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pointvortex"

# name -> why it stays public without a caller
ALLOWED: dict[str, str] = {}


def definitions(tree):
    """Public top-level name, and Class.method for a class's public methods and
    properties -> its defining statement."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            out.update((f"{node.name}.{m.name}", m) for m in node.body
                       if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not m.name.startswith("_"))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return {name: node for name, node in out.items() if not name.startswith("_")}


def references(tree, skip=None):
    """Names, attributes and imported names used in `tree`, outside `skip`."""
    skipped = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def uncalled_names():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p))
               for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    bench = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        bench |= references(ast.parse(path.read_text(), filename=str(path)))
    refs = {module: references(tree) for module, tree in modules.items()}
    found = []
    for module, tree in modules.items():
        elsewhere = bench.union(*(r for m, r in refs.items() if m != module))
        for qualname, node in definitions(tree).items():
            name = qualname.rsplit(".", 1)[-1]
            if name not in elsewhere and name not in references(tree, skip=node):
                found.append(f"{module}.{qualname}")
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    uncalled = [n for n in uncalled_names() if n.rsplit(".", 1)[1] not in ALLOWED]
    assert uncalled == [], (
        "public names that only tests reach; delete them or move them to "
        f"tests/reference.py: {uncalled}")


def test_allowlist_is_current():
    # an allowed name that gained a caller, or left the package, leaves the list
    assert sorted(n.rsplit(".", 1)[1] for n in uncalled_names()) == sorted(ALLOWED)
