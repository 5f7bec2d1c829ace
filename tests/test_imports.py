"""Every name a solesense module imports is used in that module, and every
source file compiles without a warning.

``__init__.py`` is exempt from the first: it imports names to re-export them.
"""

import ast
import warnings
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "solesense"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads. Annotations count as code: the modules
    import ``annotations`` from ``__future__``, so none needs quotes."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_catches_an_unused_import():
    tree = ast.parse("import operator\nimport numpy as np\nfrom functools import reduce\n\nx = np.zeros(reduce(max, [1]))\n")
    assert {name for name in _imported(tree) if name not in _used(tree)} == {"operator"}


def test_every_source_file_compiles_without_a_warning():
    # an invalid escape in a string literal warns only when its file is
    # compiled (a SyntaxWarning from 3.12 on); compile() writes no .pyc
    folders = [PACKAGE.parents[1] / name for name in ("src", "tests", "demos", "perfbench")]
    sources = sorted(p for folder in folders for p in folder.rglob("*.py"))
    assert len(sources) > 30
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in sources:
            compile(path.read_bytes(), str(path), "exec", dont_inherit=True)
