"""Every codedhash module reaches the others through their public names
only, so a private helper can change without breaking another module."""

import ast
from pathlib import Path

import codedhash


def private_imports(source: str) -> list:
    """(module, name) of each `_`-prefixed name that `source` imports from a
    codedhash module, by relative or absolute import."""
    return [("." * node.level + (node.module or ""), alias.name)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "codedhash")
            for alias in node.names if alias.name.startswith("_")]


def test_detector_sees_relative_and_absolute_imports():
    source = ("from __future__ import annotations\n"
              "from ._checks import all_either\n"
              "from .retrieval import (_grades,\n    rank)\n"
              "from codedhash.bp import _Workspace\n"
              "from . import _checks\n")
    assert private_imports(source) == [(".retrieval", "_grades"),
                                       ("codedhash.bp", "_Workspace"), (".", "_checks")]


def test_no_module_imports_a_private_name():
    found = {path.stem: private_imports(path.read_text())
             for path in Path(codedhash.__file__).parent.glob("*.py")}
    assert {"cli", "neural_bp", "pipeline"} <= found.keys()
    assert {module: names for module, names in found.items() if names} == {}
