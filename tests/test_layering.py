"""The package's modules import one another in one direction only, each
stays small enough to compile cheaply, its memo tables are the declared
ones, and it generates no code at run time.

Each module imports nevlab modules at module level, and only modules before
it in LAYERS: a function-level import hides a cycle that the module order
would otherwise show."""

import ast
import collections
import tokenize
from pathlib import Path

import pytest

LAYERS = ("gaussian", "expr", "exppoly", "diffpoly", "moments", "lattice",
          "locator", "nevanlinna", "theorems", "cli")
_PACKAGE = Path(__file__).parents[1] / "src" / "nevlab"


def _violations(name: str, source: str) -> list[str]:
    """Each nevlab import of module name that breaks the layering, as
    'line: what'."""
    tree = ast.parse(source)
    top = set(tree.body)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            targets = [node.module] if node.module else \
                [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("nevlab"):
            targets = [node.module.partition(".")[2] or a.name
                       for a in node.names]
        elif isinstance(node, ast.Import):
            targets = [a.name.partition(".")[2] for a in node.names
                       if a.name.startswith("nevlab.")]
        else:
            continue
        for target in targets:
            target = target.partition(".")[0]
            if node not in top:
                found.append(f"{node.lineno}: {target} imported in a body")
            elif target not in LAYERS[:LAYERS.index(name)]:
                found.append(f"{node.lineno}: {target} is not below {name}")
    return found


def test_the_check_sees_every_form():
    src = ("from .expr import Z\n"
           "from .cli import main\n"
           "import nevlab.theorems\n"
           "from nevlab import locator\n"
           "def f():\n"
           "    from .expr import Z\n")
    assert _violations("diffpoly", src) == [
        "2: cli is not below diffpoly",
        "3: theorems is not below diffpoly",
        "4: locator is not below diffpoly",
        "6: expr imported in a body"]
    assert _violations("expr", "import numpy as np\nimport math\n") == []


def test_every_module_has_a_layer():
    modules = {p.stem for p in _PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_the_package_docstring_names_every_layer():
    doc = ast.get_docstring(ast.parse((_PACKAGE / "__init__.py").read_text()))
    assert [m for m in LAYERS if f"``{m}``" not in doc] == []


@pytest.mark.parametrize("name", LAYERS)
def test_module_imports_only_lower_layers(name):
    source = (_PACKAGE / f"{name}.py").read_text()
    assert _violations(name, source) == []


def _unused_imports(source: str) -> list[str]:
    """Each module-level import of source whose name the module never reads
    and does not export in __all__, as 'line: name'."""
    tree = ast.parse(source)
    exported: set = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    found = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names if a.name != "*"]
        else:
            continue
        found += [f"{node.lineno}: {n}" for n in names
                  if n not in used and n not in exported]
    return found


def test_the_unused_import_check_sees_every_form():
    src = ("from __future__ import annotations\n"
           "import bisect\n"
           "import numpy as np\n"
           "import os.path\n"
           "from .expr import Z, add as plus, Const\n"
           "__all__ = ['Const']\n"
           "def f():\n"
           "    import heapq\n"
           "    return Z, os.sep\n")
    assert _unused_imports(src) == ["2: bisect", "3: np", "5: plus"]


@pytest.mark.parametrize("name", LAYERS)
def test_module_imports_nothing_it_does_not_use(name):
    """An import no code reads only costs import time."""
    assert _unused_imports((_PACKAGE / f"{name}.py").read_text()) == []


def _duplicate_defs(sources: dict) -> list[list[str]]:
    """Each group of two or more defs, as 'module.name', whose bodies are the
    same AST once a leading docstring is dropped; sources maps module names
    to their source."""
    bodies = collections.defaultdict(list)
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = node.body
                if ast.get_docstring(node) is not None:
                    body = body[1:]
                bodies[tuple(map(ast.dump, body))].append(
                    f"{module}.{node.name}")
    return [names for names in bodies.values() if len(names) > 1]


def test_the_duplicate_check_ignores_docstrings_and_names():
    one = ("def f(x):\n"
           "    \"\"\"Add one.\"\"\"\n"
           "    return x + 1\n"
           "class C:\n"
           "    def g(self, x):\n"
           "        return x * 2\n")
    two = "def h(x):\n    return x + 1\ndef k(y):\n    return y * 2\n"
    assert _duplicate_defs({"one": one, "two": two}) == [["one.f", "two.h"]]


def test_no_function_is_written_twice():
    """Two copies of one function are kept in step only by hand."""
    assert _duplicate_defs({p.stem: p.read_text()
                            for p in sorted(_PACKAGE.glob("*.py"))}) == []


# CPython 3.11's parser doubles its token array at 8,192 tokens.  Compiling
# a generated module from source raised a fresh process's resident
# high-water mark by 3.30 MB at 8,001 tokens and 3.69 MB at 8,241, past the
# benchmark's 0.1 MB bound on peak_rss_mb; its workers compile nevlab from
# source.
MAX_TOKENS = 8192


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_module_stays_under_the_token_array_step(path):
    with path.open("rb") as fh:
        count = sum(1 for t in tokenize.tokenize(fh.readline)
                    if t.type not in (tokenize.COMMENT, tokenize.NL,
                                      tokenize.ENCODING))
    assert count < MAX_TOKENS


# Every process-wide memo table and cached property in the package.  Each
# must pay for itself in hits on the benchmark's workloads, so a new one
# comes with a test edit here and its measured hits in CHANGES.md.
MEMO_TABLES = (
    "expr.differentiate", "expr._lower", "expr.compile_expr",
    "exppoly._canonical", "exppoly.canonical_quotient", "exppoly._Forms.den",
    "exppoly._forms",
    "locator.Divisor._weighted",
)
_MEMO_FUNCTIONS = {"cache", "lru_cache", "cached_property"}


def _is_memo(node) -> bool:
    """node is functools.cache, lru_cache or cached_property, by attribute
    or bare name, or a call of one (lru_cache(maxsize=...))."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and \
            node.value.id == "functools" and node.attr in _MEMO_FUNCTIONS
    return isinstance(node, ast.Name) and node.id in _MEMO_FUNCTIONS


def _memo_tables(module: str, source: str) -> list[str]:
    """Each memo of source, as 'module.qualified name': a def or class whose
    decorator is one, or a name assigned a call of one."""
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if any(map(_is_memo, node.decorator_list)):
                    found.append(prefix + node.name)
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                    isinstance(node.value, ast.Call) and \
                    _is_memo(node.value.func):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                found.extend(prefix + t.id for t in targets
                             if isinstance(t, ast.Name))
            else:
                visit([n for n in ast.iter_child_nodes(node)
                       if isinstance(n, ast.stmt)], prefix)
    visit(ast.parse(source).body, f"{module}.")
    return found


def test_the_memo_check_sees_every_form():
    src = ("import functools\n"
           "from functools import cache\n"
           "@functools.cache\n"
           "def a(x): return x\n"
           "@functools.lru_cache(maxsize=8)\n"
           "def b(x): return x\n"
           "@cache\n"
           "def c(x): return x\n"
           "class K:\n"
           "    @functools.cached_property\n"
           "    def d(self): return 1\n"
           "    def e(self): return 2\n"
           "f = functools.lru_cache(maxsize=16)(K)\n"
           "g = functools.cache(a)\n"
           "if True:\n"
           "    h: object = functools.cache(b)\n"
           "k = sorted([3, 1])\n")
    assert _memo_tables("m", src) == ["m.a", "m.b", "m.c", "m.K.d", "m.f",
                                      "m.g", "m.h"]


def test_memo_tables_are_the_declared_ones():
    """A memo holds its entries for the life of the process; one that no
    workload hits is memory and code with nothing in return."""
    found = [t for p in sorted(_PACKAGE.glob("*.py"))
             for t in _memo_tables(p.stem, p.read_text())]
    assert sorted(found) == sorted(MEMO_TABLES)


def _generated_code(source: str) -> list[str]:
    """Each call of the builtins compile, exec or eval and each use of
    types.FunctionType in source, as 'line: name'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("compile", "exec", "eval"):
            found.append(f"{node.lineno}: {node.func.id}")
        elif isinstance(node, ast.Attribute) and \
                node.attr == "FunctionType":
            found.append(f"{node.lineno}: FunctionType")
        elif isinstance(node, ast.ImportFrom) and node.module == "types":
            found += [f"{node.lineno}: FunctionType" for a in node.names
                      if a.name == "FunctionType"]
    return found


def test_the_generated_code_check_sees_every_form():
    src = ("import types\n"
           "from types import FunctionType\n"
           "code = compile('x = 1', '<s>', 'exec')\n"
           "exec(code)\n"
           "y = eval('1 + 1')\n"
           "f = types.FunctionType(code, {})\n"
           "re.compile('a')\n"
           "np.exp(y)\n")
    assert _generated_code(src) == [
        "2: FunctionType", "3: compile", "4: exec", "5: eval",
        "6: FunctionType"]


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_code_is_generated_at_run_time(path):
    """Lowered programs run through one executor.  Source built and
    compiled at run time costs a compile() per program and memory per
    function, so bringing it back comes with a test edit here and its
    measurement in CHANGES.md."""
    assert _generated_code(path.read_text()) == []
