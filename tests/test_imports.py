"""The cli reaches the other codedhash modules through their public names
only, so a private helper can change without breaking the command line."""

import ast
from pathlib import Path

import codedhash.cli


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


def test_cli_imports_no_private_name():
    source = Path(codedhash.cli.__file__).read_text()
    assert private_imports(source) == []
