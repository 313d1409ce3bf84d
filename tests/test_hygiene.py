"""Source hygiene of the engine package, read with `ast`: no `assert`
statement (input checks and invariants must still run under `python
-O`), no unused import (the package re-exports only from
`__init__.py`), and no local variable or parameter that is never read."""

import ast
import glob
import os

import frobsplit

PACKAGE = os.path.dirname(os.path.abspath(frobsplit.__file__))


def _modules():
    paths = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    assert paths
    for path in paths:
        with open(path) as fh:
            yield os.path.basename(path), ast.parse(fh.read(), path)


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def _unread_names(func):
    """Parameters and assigned local names of a function that no code in
    its body (nested functions included) reads; `self`, `cls` and names
    starting with `_` are exempt."""
    args = func.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [
        a for a in (args.vararg, args.kwarg) if a is not None]
    bound = {a.arg: a.lineno for a in params}
    read = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                read.add(node.id)
            else:
                bound.setdefault(node.id, node.lineno)
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in ("self", "cls")
                  and not name.startswith("_"))


def test_no_assert_statements():
    found = ["%s:%d" % (name, node.lineno) for name, tree in _modules()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_imports():
    found = ["%s:%d %s" % (name, line, imp) for name, tree in _modules()
             if name != "__init__.py"
             for line, imp in _unused_imports(tree)]
    assert found == []


def test_no_unread_locals_or_parameters():
    found = sorted({"%s:%d %s" % (name, line, var)
                    for name, tree in _modules()
                    for func in ast.walk(tree)
                    if isinstance(func, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                    for line, var in _unread_names(func)})
    assert found == []
