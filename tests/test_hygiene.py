"""Source hygiene: every name a library module, a test file, a demo or a
benchmark file imports is used in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "metaplectic"
MODULES = (sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
           + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))
           + sorted(ROOT.glob("perfbench/*.py")))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_quoted_annotation_names(tree))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _quoted_annotation_names(tree):
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                yield from (n.id for n in ast.walk(expr) if isinstance(n, ast.Name))


def _module_id(path):
    return path.name if path.parent == SRC else f"{path.parent.name}/{path.name}"


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_import():
    source = "from fractions import Fraction\nimport json\n\nx: 'Fraction' = 1\n"
    assert unused_imports(source) == [(2, "json")]
