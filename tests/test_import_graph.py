"""The package's modules import one another without a cycle."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import sislab

PACKAGE = Path(sislab.__file__).resolve().parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _relative_imports(source: str) -> set[str]:
    """The package modules that ``source`` imports relatively, at any depth,
    function bodies included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:     # from . import a, b
                found |= {alias.name for alias in node.names}
            else:                       # from .a import b
                found.add(node.module.split(".")[0])
    return found & MODULES


def test_imports_inside_functions_are_collected():
    source = "from .mesh import Field\n\ndef f():\n    from . import models, nope\n"
    assert _relative_imports(source) == {"mesh", "models"}


def test_the_import_graph_has_no_cycle():
    graph = {path.stem: _relative_imports(path.read_text())
             for path in PACKAGE.glob("*.py")}
    assert graph["config"] >= {"mesh", "models"}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
