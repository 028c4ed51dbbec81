"""Every public name of the package has a caller outside the tests.

A public module-level function, class or constant of ``src/nashfan`` must
be referenced in ``src/nashfan`` or ``bench/`` outside its own definition:
as a name, an attribute, or a string (``bench/spans.py`` patches engine
functions by module and name).  An import alone is not a reference, so a
name that only the package root or the tests import fails.  Click commands
and groups are exempt: the command line calls them.

The tests keep one layout rule of their own: no test module imports
another, so each runs alone and a shared helper has one home,
``tests/oracles.py`` or a fixture in ``tests/conftest.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nashfan"


def is_click_command(node) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def public_definitions(tree):
    """(name, node) for each public module-level def, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [] if is_click_command(node) else [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        yield from ((name, node) for name in names if not name.startswith("_"))


def references(node) -> list:
    """The names that node refers to, in loads, attributes and strings."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.append(sub.value)
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    # each top-level statement's references, so a definition can skip its own
    statements = [(stmt, references(stmt)) for tree in trees.values() for stmt in tree.body]
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in public_definitions(trees[path]):
            if not any(name in refs for stmt, refs in statements if stmt is not node):
                unused.append(f"{path.name}:{name}")
    assert unused == []


def test_no_test_module_imports_another():
    modules = sorted((ROOT / "tests").glob("test_*.py"))
    stems = {path.stem for path in modules}
    imports = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imports += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] in stems]
    assert imports == []
