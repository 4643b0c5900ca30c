"""Source hygiene: every name a library module, a test file, a demo or a
benchmark file imports is used in it, and every name the package exports is
read through the package by a test, a demo or a benchmark file."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "metaplectic"
MODULES = (sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
           + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))
           + sorted(ROOT.glob("perfbench/*.py")))
READERS = [path for path in MODULES if path.parent != SRC]
# the names the package module is bound to: ``import metaplectic``, and
# ``M`` or ``self.M`` in the benchmark workloads
PACKAGE_NAMES = {"metaplectic", "M"}


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


def package_exports(source: str) -> set:
    """The names ``metaplectic/__init__.py`` imports from its modules."""
    return {alias.asname or alias.name for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}


def names_read_through_package(source: str) -> set:
    """The names a file imports from ``metaplectic`` or reads as attributes
    of the package module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "metaplectic":
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            base = node.value
            if (isinstance(base, ast.Name) and base.id in PACKAGE_NAMES
                    or isinstance(base, ast.Attribute) and base.attr == "M"):
                read.add(node.attr)
    return read


def test_every_export_is_read_through_the_package():
    read = set().union(*(names_read_through_package(path.read_text()) for path in READERS))
    assert sorted(package_exports((SRC / "__init__.py").read_text()) - read) == []


def test_detects_export_reads():
    source = ("import metaplectic\nfrom metaplectic import CycValue\n"
              "from metaplectic.zeta import zeta_function\nM = metaplectic\n"
              "M.check_fe, self.M.MultChar, metaplectic.gamma_factor, other.named_sigma\n")
    assert names_read_through_package(source) == {"CycValue", "check_fe", "MultChar",
                                                  "gamma_factor"}
    assert package_exports("from .zeta import (\n    check_fe,\n    gamma_factor as gf,\n)\n") \
        == {"check_fe", "gf"}
