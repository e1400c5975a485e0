"""Every name a package module imports is used in that module.

Each src/hiddensums/*.py file is parsed with ast.  An imported name
counts as used when the module reads it anywhere as a bare name; an
attribute chain such as os.path.join reads the name os.
"""

import ast
from pathlib import Path

import pytest

import hiddensums

MODULES = sorted(Path(hiddensums.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The imported names the source never reads, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_names_reported():
    source = (
        "import os.path\n"
        "import sys\n"
        "from .gf2 import BinMatrix, FieldSpec as FS\n"
        "def f(fs: FS):\n"
        "    return os.path.join(fs)\n"
    )
    assert unused_imports(source) == ["BinMatrix (line 3)", "sys (line 2)"]
