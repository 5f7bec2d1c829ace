"""Every name in solesense has a caller that is not a test.

A public top-level function, class or constant of a module (``__init__.py``
aside), and a public method or property of a top-level class, must be
referenced outside its own definition by a Name, an Attribute or an import
alias in the package, the demos, the benchmark or the acceptance tests; a
method only by an Attribute, since a bare name never reaches it. A private
one (a leading underscore, dunders aside) must be referenced so in the
package itself: code kept only for a test or the benchmark to call is dead.
``__init__.py`` is no caller: it imports names only to re-export them. Names
match by spelling alone, so a local variable of the same name counts as a
reference to a top-level name.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "solesense").glob("*.py") if p.name != "__init__.py")
CALLERS = [
    *MODULES,
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def _checked(name: str, private: bool) -> bool:
    """Whether ``name`` is public, or if ``private`` private; a dunder is
    neither, since Python itself calls it."""
    return not (name.startswith("__") and name.endswith("__")) and name.startswith("_") == private


def _definitions(module: str, tree: ast.Module, private: bool) -> list[tuple[str, str, ast.stmt]]:
    """(qualified name, name, defining statement) of each public (or, if
    ``private``, private) top-level function, class and constant, and of each
    such method of a top-level class; a method's name is prefixed with a dot."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        found += [(f"{module}.{name}", name, node) for name in names if _checked(name, private)]
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{module}.{node.name}.{method.name}", f".{method.name}", method)
                for method in node.body
                if isinstance(method, ast.FunctionDef) and _checked(method.name, private)
            ]
    return found


def _unreferenced(
    definers: dict[Path, ast.Module], callers: dict[Path, ast.Module], private: bool = False
) -> list[str]:
    """Qualified names defined in ``definers`` that no Name, Attribute or
    import alias in ``callers`` references outside their own definition."""
    references = defaultdict(list)  # name, or .name of an attribute -> (file, line)
    for path, tree in callers.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                references[node.attr].append((path, node.lineno))
                references[f".{node.attr}"].append((path, node.lineno))
            elif isinstance(node, ast.alias):
                references[node.name].append((path, node.lineno))
    return [
        qualified
        for path, tree in definers.items()
        for qualified, name, node in _definitions(path.stem, tree, private)
        if all(where == path and node.lineno <= line <= node.end_lineno for where, line in references[name])
    ]


def test_every_public_name_has_a_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in CALLERS}
    unreferenced = _unreferenced({path: trees[path] for path in MODULES}, trees)
    assert not unreferenced, f"public names that only tests use: {unreferenced}"


def test_every_private_name_has_a_caller_in_the_package():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in MODULES}
    unreferenced = _unreferenced(trees, trees, private=True)
    assert not unreferenced, f"private names that nothing in the package uses: {unreferenced}"


def test_flags_a_planted_name():
    module = ast.parse(
        "LIMIT = 3\n"
        "UNITS: str = 'Pa'\n"
        "def used():\n    return LIMIT\n"
        "def orphan():\n    return orphan()\n"
        "class Box:\n"
        "    def open(self):\n        return self.close()\n"
        "    def close(self):\n        pass\n"
        "    def spare(self):\n        pass\n"
    )
    caller = ast.parse("from mod import Box, used\n\nBox().open()\nspare = 1\n")
    definers = {Path("mod.py"): module}
    assert _unreferenced(definers, {**definers, Path("caller.py"): caller}) == ["mod.UNITS", "mod.orphan", "mod.Box.spare"]


def test_flags_a_planted_private_name():
    module = ast.parse(
        "__all__ = ['Box']\n"
        "_LIMIT = 3\n"
        "_UNITS: str = 'Pa'\n"
        "def _used():\n    return _LIMIT\n"
        "def _orphan():\n    return _orphan()\n"
        "class Box:\n"
        "    def __init__(self):\n        self._open()\n"
        "    def _open(self):\n        return self._close()\n"
        "    def _close(self):\n        pass\n"
        "    def _spare(self):\n        pass\n"
        "class _Twin:\n    pass\n"
    )
    sibling = ast.parse("from mod import _used\n\n_used()\n_spare = 1\n")
    definers = {Path("mod.py"): module}
    assert _unreferenced(definers, {**definers, Path("sibling.py"): sibling}, private=True) == [
        "mod._UNITS", "mod._orphan", "mod.Box._spare", "mod._Twin"
    ]
