"""Library structure: code catches only declared failures, never every
exception; one function solves every study level; modules share no
private names."""

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


def test_eigs_near_has_one_loop_over_its_shifts():
    # the one recovery of an uncertified solve is the nudged shift: one
    # loop, one factorization and one Arnoldi run per pass, no restart
    path = next(p for p in SOURCES if p.name == "eigensolve.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    fn = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
              and n.name == "eigs_near")
    nodes = list(ast.walk(fn))
    called = [n.func.id for n in nodes if isinstance(n, ast.Call)
              and isinstance(n.func, ast.Name)]
    assert called.count("_arnoldi") == 1
    assert called.count("factorize_shifted") == 1
    assert sum(isinstance(n, (ast.For, ast.While)) for n in nodes) == 1


def test_no_module_imports_a_private_name_of_another():
    # an underscore name belongs to its module: a second user means the
    # decision it makes has two owners
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("defectbench")
            ):
                offenders += [f"{path.name}:{node.lineno} {a.name}"
                              for a in node.names if a.name.startswith("_")]
    assert offenders == []
