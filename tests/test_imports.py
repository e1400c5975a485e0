"""Every name a package module imports or defines is used.

Each src/hiddensums/*.py file is parsed with ast.  An imported name
counts as used when the module reads it anywhere as a bare name; an
attribute chain such as os.path.join reads the name os.  A defined
function, class or method counts as used when the package or the
benchmark under perfbench/ reads its name outside its own definition.

Every parameter with a default is set by some call in the package or
the benchmark, by position, by keyword or by unpacking; calls are matched
to definitions by name, as reads are.  vbf imports no package module but
gf2, so it knows nothing of hidden sums.

Every target the benchmark's tracer names (perfbench/tracer.py TARGETS)
is still defined in the package, and a traced search pass of the
benchmark calls each one it assigns to the search workload.

The core modules also stay cheap to import: a fresh interpreter that
imports the ones the benchmark's set-up uses and builds the bundled
cipher loads none of the heavier standard-library modules named in
HEAVY, and importing attack too loads none of ATTACK_HEAVY.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hiddensums

MODULES = sorted(Path(hiddensums.__file__).parent.glob("*.py"))
BENCHMARK_DIR = Path(__file__).resolve().parents[1] / "perfbench"
BENCHMARK = sorted(BENCHMARK_DIR.glob("*.py"))


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


def defaulted_parameters(node: ast.AST, prefix: str = "", owner: str | None = None):
    """(qualified name, name a call uses, parameter, index among the
    positional arguments of a call or None if keyword-only) of every
    parameter with a default.  A call of a method or a constructor does
    not pass self, so their indices start after it; __init__ is called by
    its class's name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = [*args.posonlyargs, *args.args]
            static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
            skip = 0 if owner is None or static else 1
            called = owner if child.name == "__init__" else child.name
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                yield prefix + child.name, called, arg.arg, i - skip
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield prefix + child.name, called, arg.arg, None
            yield from defaulted_parameters(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from defaulted_parameters(child, f"{prefix}{child.name}.", child.name)
        else:
            yield from defaulted_parameters(child, prefix, owner)


def unset_defaults(defining: dict[str, str], reading: tuple[str, ...] = ()) -> list[str]:
    """The parameters with defaults, in the sources of defining (label ->
    source), that no call in those sources or in reading sets: no keyword
    of that name or ** unpacking, and, for a positional parameter, no call
    with * unpacking or with enough positional arguments to reach it."""
    trees = {label: ast.parse(source) for label, source in defining.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in [*trees.values(), *map(ast.parse, reading)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)

    def sets(call: ast.Call, param: str, index: int | None) -> bool:
        if any(k.arg in (None, param) for k in call.keywords):
            return True
        if index is None:
            return False
        return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)

    return [
        f"{label}: {qualname}({param})"
        for label, tree in trees.items()
        for qualname, called, param, index in defaulted_parameters(tree)
        if not any(sets(call, param, index) for call in calls.get(called, ()))
    ]


def test_every_default_is_set_by_the_program():
    """Defaulted parameters nobody in src/ or perfbench/ sets; a call is
    matched by name only, so any call of that name counts."""
    defining = {path.name: path.read_text() for path in MODULES}
    reading = tuple(path.read_text() for path in BENCHMARK)
    assert unset_defaults(defining, reading) == []


def test_unset_defaults_reported():
    module = (
        "class Box:\n"
        "    def __init__(self, size=1, *, kind=None): pass\n"
        "    def grow(self, by=1, twice=False): return by\n"
        "    @staticmethod\n"
        "    def make(size=2): return Box(size)\n"
        "def helper(a, b=0, c=0, *, d=None): return a\n"
        "def spread(x=0, y=0): return x\n"
        "def mapped(x=0): return x\n"
    )
    other = (
        "from m import Box, helper, spread\n"
        "Box(kind=3).grow(2)\n"
        "helper(1, 2)\n"
        "helper(1, **{})\n"
        "spread(*[1, 2])\n"
        "Box.make()\n"
    )
    assert unset_defaults({"m.py": module}, (other,)) == [
        "m.py: Box.grow(twice)",
        "m.py: Box.make(size)",
        "m.py: mapped(x)",
    ]


def package_imports(source: str) -> set[str]:
    """The package modules the source imports, relatively or by the
    package's name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names if alias.name.startswith("hiddensums.")
            )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "hiddensums":
                    continue
                module = module.removeprefix("hiddensums").lstrip(".")
            names = [module] if module else [alias.name for alias in node.names]
            found.update(name.split(".")[0] for name in names)
    return found


def test_vbf_imports_only_gf2():
    """Hidden-sum questions reach vbf as conjugates, never as sums."""
    assert package_imports((Path(hiddensums.__file__).parent / "vbf.py").read_text()) == {"gf2"}
    sample = (
        "import os.path\n"
        "from collections import Counter\n"
        "from . import cipher, vbf\n"
        "from .gf2 import dot\n"
        "import hiddensums.hidden_sum\n"
        "from hiddensums import attack\n"
        "from hiddensums.corpus import field_spec\n"
        "def f():\n"
        "    from .reproduce import run\n"
    )
    assert package_imports(sample) == {
        "cipher", "vbf", "gf2", "hidden_sum", "attack", "corpus", "reproduce"
    }


def byte_format_definitions(source: str) -> list[str]:
    """The module-level names, with their lines, that define a byte limit
    (a name containing BYTE, or one ending in BITS set to 8) or that are
    set by a statement building a bytes(range(...)) table; definitions
    inside functions and classes are not module level."""
    found = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            continue
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)]
        eight = isinstance(stmt.value, ast.Constant) and stmt.value.value == 8
        table = any(
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "bytes"
            and any(isinstance(a, ast.Call) and getattr(a.func, "id", None) == "range" for a in node.args)
            for node in ast.walk(stmt)
        )
        found += [
            f"{name} (line {stmt.lineno})"
            for name in names
            if "BYTE" in name or (eight and name.endswith("BITS")) or table
        ]
    return found


def test_only_gf2_defines_the_byte_format():
    """The 8-bit limit of the bytes.translate kernels and its value tables
    live in gf2; vbf, hidden_sum and cipher import them."""
    found = {path.name: byte_format_definitions(path.read_text()) for path in MODULES}
    in_gf2 = found.pop("gf2.py")
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert [entry.split()[0] for entry in in_gf2] == ["BYTE_BITS", "BYTE_VALUES", "BYTE_ONES"]


def test_byte_format_definitions_reported():
    module = (
        "from .gf2 import BYTE_BITS\n"
        "BYTE_STATE_BITS = 8\n"
        "WIDTH_BITS = 8\n"
        "TABLE_LIMIT_BITS = 16\n"
        "IDENTITY = bytes(range(256))\n"
        "_VALUES: list = [bytes(range(1 << k)) for k in range(BYTE_BITS + 1)]\n"
        "_PAD = bytes(256)\n"
        "_SUM = [x for x in range(8)]\n"
        "def f():\n"
        "    LOCAL_BYTES = bytes(range(4))\n"
        "class C:\n"
        "    BYTE_BITS = 8\n"
    )
    assert byte_format_definitions(module) == [
        "BYTE_STATE_BITS (line 2)",
        "WIDTH_BITS (line 3)",
        "IDENTITY (line 5)",
        "_VALUES (line 6)",
    ]


BYTE_FORMAT_NAMES = ("BYTE_BITS", "BYTE_ONES", "BYTE_VALUES", "table_bytes", "_shifted", "_steps_constant")


def byte_format_mentions(node: ast.AST) -> list[str]:
    """The names of BYTE_FORMAT_NAMES, with their lines, that the node
    mentions: as a bare name, as the last attribute of a chain such as
    gf2.BYTE_BITS, or as a name an import brings in."""
    mentions = [
        (n.lineno, n.col_offset, getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None))
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    ]
    return [f"{name} (line {line})" for line, _, name in sorted(mentions) if name in BYTE_FORMAT_NAMES]


def byte_format_reads(source: str, qualname: str) -> list[str]:
    """byte_format_mentions of the function or method qualname ("f" or
    "Class.method") of the module; LookupError if the module defines no
    such function."""
    scope = ast.parse(source)
    for part in qualname.split("."):
        scope = next(
            (
                node
                for node in scope.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == part
            ),
            None,
        )
        if scope is None:
            raise LookupError(qualname)
    return byte_format_mentions(scope)


def test_membership_path_reads_no_byte_format():
    """conjugate and agl_membership run one list path at every width, as
    the rest of hidden_sum does (test_hidden_sum_reads_no_byte_format)."""
    source = (Path(hiddensums.__file__).parent / "hidden_sum.py").read_text()
    path = ("HiddenSum.conjugate", "agl_membership")
    assert {q: byte_format_reads(source, q) for q in path} == {q: [] for q in path}


def test_hidden_sum_reads_no_byte_format():
    """hidden_sum, its brick pruning included, tests every width with one
    list path: nowhere does it import or read a name of the byte format,
    which gf2 keeps for vbf and cipher."""
    source = (Path(hiddensums.__file__).parent / "hidden_sum.py").read_text()
    assert byte_format_mentions(ast.parse(source)) == []


def test_byte_format_reads_reported():
    module = (
        "from .gf2 import BYTE_BITS, table_bytes\n"
        "from . import gf2\n"
        "from .gf2 import _shifted\n"
        "def f(t):\n"
        "    return table_bytes(t, BYTE_BITS)\n"
        "def g(t):\n"
        "    return len(t)\n"
        "class C:\n"
        "    def m(self, t):\n"
        "        if len(t) <= gf2.BYTE_BITS:\n"
        "            return _steps_constant(t, 3, _shifted(3)[1])\n"
        "        return BYTE_ONES\n"
        "    def n(self):\n"
        "        return BYTE_VALUE\n"
    )
    assert byte_format_reads(module, "f") == ["table_bytes (line 5)", "BYTE_BITS (line 5)"]
    assert byte_format_reads(module, "C.m") == [
        "BYTE_BITS (line 10)",
        "_steps_constant (line 11)",
        "_shifted (line 11)",
        "BYTE_ONES (line 12)",
    ]
    assert byte_format_reads(module, "g") == byte_format_reads(module, "C.n") == []
    assert byte_format_mentions(ast.parse(module))[:3] == [
        "BYTE_BITS (line 1)",
        "table_bytes (line 1)",
        "_shifted (line 3)",
    ]
    for missing in ("h", "C.f", "g.m"):
        with pytest.raises(LookupError):
            byte_format_reads(module, missing)


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


def test_import_fills_no_cache():
    """A fresh python -S that imports hiddensums and every module of it
    finds each module-level lru_cache empty: the tables built on first
    use, such as gf2._unit_basis and gf2._shifted (which vbf binds by
    import), cost no import time."""
    code = "\n".join(
        [
            "import sys",
            "import hiddensums",
            *(f"import hiddensums.{path.stem}" for path in MODULES if path.stem != "__init__"),
            "for module in [m for name, m in sys.modules.items() if name.startswith('hiddensums.')]:",
            "    for name, value in vars(module).items():",
            "        if hasattr(value, 'cache_info'):",
            "            print(f'{module.__name__}.{name}', value.cache_info().currsize)",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hiddensums.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    sizes = dict(line.split() for line in proc.stdout.splitlines())
    shared = {"hiddensums.gf2._unit_basis", "hiddensums.gf2._shifted", "hiddensums.vbf._shifted"}
    assert shared <= sizes.keys()
    assert {name: size for name, size in sizes.items() if size != "0"} == {}


def traced_targets() -> list[tuple[str, str | None, str]]:
    """(layer, owner, attribute) of each entry of TARGETS in
    perfbench/tracer.py, read from its source without importing it."""
    tree = ast.parse((BENCHMARK_DIR / "tracer.py").read_text())
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    return [tuple(ast.literal_eval(field) for field in entry.elts[:3]) for entry in table.elts]


def test_every_traced_target_is_defined():
    """Each function, class or method the benchmark traces is still
    defined where the tracer looks for it, so deleting one fails here and
    not only in the benchmark's self-test."""
    targets = traced_targets()
    assert len(targets) == len(set(targets)) > 0
    missing = []
    for layer, owner, attr in targets:
        home = vars(importlib.import_module(f"hiddensums.{layer}"))
        if owner is not None:
            home = vars(home[owner]) if isinstance(home.get(owner), type) else {}
        if attr not in home:
            missing.append(".".join(filter(None, (layer, owner, attr))))
    assert missing == []


def test_every_search_target_is_called():
    """A traced search pass of the benchmark, run in a fresh interpreter as
    the benchmark runs it, calls every target the tracer assigns to the
    search workload, so none of that workload's layer metrics reads 0.
    AffineMap.apply is the one exception, and that metric already reads 0
    (ROADMAP item 1): the regular-group enumeration closes each group by
    XOR in its walk sum's coordinates, and HiddenSum reads a generator as
    its matrix's affine table, so nothing on the search path applies an
    affine map point by point."""
    code = "\n".join(
        [
            "import json, passes, tracer",
            "t = tracer.Tracer()",
            "passes.search_pass(tracer.Spans(), 1, t)",
            "calls = {name: stat['calls'] for name, stat in t.snapshot().items()}",
            "names = [tracer.target_name(*e[:3]) for e in tracer.TARGETS if e[4] == 'search']",
            "print(json.dumps({name: calls[name] for name in names}))",
        ]
    )
    src = Path(hiddensums.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(BENCHMARK_DIR)]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.splitlines()[-1])
    assert "hidden_sum.find_hidden_sums" in calls
    assert {name for name, n in calls.items() if not n} <= {"hidden_sum.AffineMap.apply"}
