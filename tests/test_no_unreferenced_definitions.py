"""Code nothing runs: every module-level def, class and UPPER_CASE constant
and every non-dunder def at any depth in src/bdmlab must be named by code in
src/ or perfbench/: a name read, an attribute read or an imported name,
found by `ast`.  Strings, docstrings and comments do not count (a word match
let `mode="eval"` keep a method `eval` that only the tests called).
References from tests/ do not count: a definition only the tests use belongs
in the tests.  Nor do those of an __init__.py: a re-export there names a
definition without running it.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def trees(*roots):
    for root in roots:
        for path in sorted((ROOT / root).rglob("*.py")):
            yield (path.relative_to(ROOT),
                   ast.parse(path.read_text(), str(path)))


def test_no_unreferenced_definitions():
    defined = {}
    for path, tree in trees("src/bdmlab"):
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined.setdefault(node.name, f"{path}:{node.lineno}")
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for name in ast.walk(node):
                    if (isinstance(name, ast.Name)
                            and isinstance(name.ctx, ast.Store)
                            and re.fullmatch(r"[A-Z][A-Z0-9_]*", name.id)):
                        defined.setdefault(name.id, f"{path}:{node.lineno}")
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not re.fullmatch(r"__\w+__", node.name)):
                defined.setdefault(node.name, f"{path}:{node.lineno}")
    used = set()
    for path, tree in trees("src", "perfbench"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    unreferenced = [f"unreferenced: {name} ({defined[name]})"
                    for name in sorted(set(defined) - used)]
    assert not unreferenced, "\n".join(unreferenced)
