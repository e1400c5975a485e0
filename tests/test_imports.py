"""Every name a package module imports or defines is used.

Each src/hiddensums/*.py file is parsed with ast.  An imported name
counts as used when the module reads it anywhere as a bare name; an
attribute chain such as os.path.join reads the name os.  A defined
function, class or method counts as used when the package or the
benchmark under perfbench/ reads its name outside its own definition.

The core modules also stay cheap to import: a fresh interpreter that
imports the ones the benchmark's set-up uses and builds the bundled
cipher loads none of the heavier standard-library modules named in
HEAVY, and importing attack too loads none of ATTACK_HEAVY.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hiddensums

MODULES = sorted(Path(hiddensums.__file__).parent.glob("*.py"))
BENCHMARK = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


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


def name_reads(tree: ast.AST) -> Counter:
    """How often each name is read: as a bare name, as an attribute or as
    a name imported with from ... import."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


def definitions(node: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function and class, nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child
            yield from definitions(child, f"{prefix}{child.name}.")
        else:
            yield from definitions(child, prefix)


def unread_definitions(defining: dict[str, str], reading: tuple[str, ...] = ()) -> list[str]:
    """The functions, classes and methods, dunders excepted, defined in the
    sources of defining (label -> source) whose name nothing in those
    sources or in reading reads outside the definition itself.

    Names are matched, not owners: a method is taken as read when any
    attribute of that name is, so Subspace.elements would hide behind the
    reads of RegularGroup.elements.  The check finds names nobody reads at
    all, not every method nobody calls.
    """
    trees = {label: ast.parse(source) for label, source in defining.items()}
    reads = Counter()
    for tree in [*trees.values(), *map(ast.parse, reading)]:
        reads += name_reads(tree)
    unread = []
    for label, tree in trees.items():
        for qualname, node in definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if reads[name] <= name_reads(node)[name]:
                unread.append(f"{label}: {qualname}")
    return unread


def test_every_definition_is_read_by_the_program():
    """Names nobody in src/ or perfbench/ reads; a method whose name some
    other attribute shares is not caught (see unread_definitions)."""
    defining = {path.name: path.read_text() for path in MODULES}
    assert BENCHMARK, "perfbench/ not found next to tests/"
    reading = tuple(path.read_text() for path in BENCHMARK)
    assert unread_definitions(defining, reading) == []


def test_unread_definitions_reported():
    module = (
        "import functools\n"
        "class Box:\n"
        "    def __init__(self): pass\n"
        "    def grow(self): return self.grow()\n"
        "    def shrink(self): return 0\n"
        "    def peek(self): return 0\n"
        "def helper(): return Box().shrink\n"
        "def unused(): return helper()\n"
        "@functools.lru_cache\n"
        "def cached(): return 0\n"
    )
    other = "from m import cached\nBox.peek\nBox.grow = None\n"
    assert unread_definitions({"m.py": module}, (other,)) == [
        "m.py: Box.grow",
        "m.py: unused",
    ]


CORE = ("gf2", "vbf", "hidden_sum", "cipher")
HEAVY = ("dataclasses", "typing", "inspect", "random", "re")
# attack keeps AttackTranscript a frozen dataclass, which the benchmark's
# self-test edits with dataclasses.replace; dataclasses brings inspect and re.
ATTACK_HEAVY = ("typing", "random")


def heavy_modules_loaded(modules: tuple[str, ...], heavy: tuple[str, ...]) -> list[str]:
    """The modules of heavy in sys.modules after a fresh python -S with the
    package on its path imports hiddensums.<name> for each of modules and
    builds what the benchmark's set-up builds."""
    code = "\n".join(
        [
            "import sys",
            *(f"import hiddensums.{name}" for name in modules),
            "from hiddensums import cipher, hidden_sum",
            "cipher.builtin_toy_spec()",
            "hidden_sum.CoordinateMap(cipher.toy_state_sum(), cipher.toy_coordinate_basis())",
            f"print(*[name for name in {heavy!r} if name in sys.modules])",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hiddensums.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_core_import_loads_no_heavy_module():
    """The failure names each module of HEAVY that came in."""
    loaded = heavy_modules_loaded(CORE, HEAVY)
    assert loaded == [], f"importing the core loaded {' '.join(loaded)}"


def test_attack_import_loads_no_typing_or_random():
    loaded = heavy_modules_loaded((*CORE, "attack"), ATTACK_HEAVY)
    assert loaded == [], f"importing attack loaded {' '.join(loaded)}"
