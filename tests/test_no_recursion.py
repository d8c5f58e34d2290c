"""No module of the package walks a term, an object or a wire list by
recursion.

Deep input must not raise ``RecursionError``, so the modules that walk
terms do it on explicit stacks (``terms._postorder``).  This check fails
on any function in the package that calls itself: by its bare name,
through ``self.``, or handed to ``map``.  Nothing in the package may
raise the interpreter's recursion limit instead.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "strictcat"


def _own_calls(fn: ast.AST):
    """The call nodes in ``fn``'s body, leaving out nested functions,
    which are checked on their own."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _names_itself(expr: ast.AST, name: str) -> bool:
    if isinstance(expr, ast.Name):
        return expr.id == name
    return (isinstance(expr, ast.Attribute) and expr.attr == name
            and isinstance(expr.value, ast.Name) and expr.value.id == "self")


def _calls_itself(fn) -> bool:
    for call in _own_calls(fn):
        if _names_itself(call.func, fn.name):
            return True
        if (isinstance(call.func, ast.Name) and call.func.id == "map"
                and call.args and _names_itself(call.args[0], fn.name)):
            return True
    return False


def self_recursive(path: pathlib.Path) -> list[str]:
    """``module:qualified.name`` of each function in ``path`` that calls
    itself."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = []
    stack = [(node, path.stem) for node in tree.body]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = f"{scope}.{node.name}"
            if not isinstance(node, ast.ClassDef) and _calls_itself(node):
                found.append(name.replace(".", ":", 1))
            stack += [(child, name) for child in node.body]
        else:
            stack += [(child, scope) for child in ast.iter_child_nodes(node)]
    return found


def test_engine_functions_do_not_call_themselves():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert {"__init__", "cli", "terms"} <= {path.stem for path in modules}
    found = sorted(name for path in modules for name in self_recursive(path))
    assert not found, f"{len(found)} self-recursive functions: {found}"


def test_nothing_raises_the_recursion_limit():
    users = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    node.name if isinstance(node, ast.alias) else None)
            if name == "setrecursionlimit":
                users.append(f"{path.name}:{node.lineno}")
    assert not users
