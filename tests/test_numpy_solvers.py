"""The package calls no numpy solver module.

The first call into numpy.linalg, numpy.polynomial or np.roots raises a
process's resident high-water mark by 1 to 2 MB, and the benchmark bounds
its peak_rss_mb metric at 0.1 MB.  Docstrings may still name them."""

import ast
from pathlib import Path

import pytest

_BANNED = {"linalg", "polynomial", "roots"}
_SOURCES = sorted((Path(__file__).parents[1] / "src" / "nevlab").glob("*.py"))


def _solver_uses(source: str) -> list[str]:
    """Each import or attribute that reaches a banned numpy name."""
    tree = ast.parse(source)
    numpy_names = {a.asname or a.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import)
                   for a in node.names if a.name == "numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            dotted = [f"{node.module}.{a.name}" for a in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr in _BANNED
              and isinstance(node.value, ast.Name)
              and node.value.id in numpy_names):
            dotted = [f"numpy.{node.attr}"]
        else:
            continue
        found += [d for d in dotted
                  if d.startswith("numpy.") and d.split(".")[1] in _BANNED]
    return found


def test_the_check_sees_every_form():
    src = ('"""numpy.linalg in a docstring"""\n'
           "import numpy as np\nimport numpy.polynomial\n"
           "from numpy import linalg\nfrom numpy.linalg import eig\n"
           "np.roots([1, 2])\nnp.linalg.eigvals(0)\n")
    assert sorted(_solver_uses(src)) == [
        "numpy.linalg", "numpy.linalg", "numpy.linalg.eig",
        "numpy.polynomial", "numpy.roots"]
    assert _solver_uses("import numpy as np\nnp.sqrt(2)\n") == []


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_module_calls_no_numpy_solver(path):
    assert _solver_uses(path.read_text()) == []
