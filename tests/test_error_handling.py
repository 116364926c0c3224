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
