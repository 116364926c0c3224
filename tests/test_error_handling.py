"""Library code catches only declared failures, never every exception."""

import ast
import pathlib

import defectbench

SOURCES = sorted(pathlib.Path(defectbench.__file__).parent.rglob("*.py"))


def _names(node):
    """Exception names an except clause lists (one name or a tuple)."""
    if node is None:
        return []
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    return [e.id for e in elts if isinstance(e, ast.Name)]


def test_no_handler_catches_every_exception():
    assert any(p.name == "paramfind.py" for p in SOURCES)
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and (
                node.type is None or "Exception" in _names(node.type)
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _functions_with(tree, hit):
    """Names of the functions whose body holds a node that satisfies hit."""
    return [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            and any(hit(n) for n in ast.walk(fn))]


def test_one_function_solves_and_catches_every_study_level():
    # a traced benchmark run counts every driver's solves at this one call
    calls, catches = [], []
    for path in SOURCES:
        if path.parent.name != "bench":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += _functions_with(tree, lambda n: isinstance(n, ast.Call)
                                 and isinstance(n.func, ast.Name)
                                 and n.func.id == "eigs_near")
        catches += _functions_with(tree, lambda n: isinstance(
            n, ast.ExceptHandler) and "LEVEL_ERRORS" in _names(n.type))
    assert calls == ["solve_level"]
    assert catches == ["solve_level"]
