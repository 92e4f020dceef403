"""Every name a module lists in ``__all__`` is defined there, once, and the
package's top-level names are the concatenation of the library modules'
lists, each bound to the module's object. Every definition in the library
is read by code outside the tests: in the library, the scripts or the bench."""
import argparse
import ast
import importlib
import pkgutil
from collections import defaultdict
from pathlib import Path

import pytest

import ggmtree
from ggmtree import bl_solver
from ggmtree.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(info.name for info in pkgutil.iter_modules(ggmtree.__path__))
# the modules the package re-exports, in the order it imports them
LIBRARY = ["errors", "model", "bl_solver", "chains", "measures", "diagnostics"]
# the code that may call a library name: the library, the scripts and the bench
CALLERS = [path for folder in ("src/ggmtree", "scripts", "bench")
           for path in sorted((ROOT / folder).glob("*.py"))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"ggmtree.{name}")
    assert hasattr(module, "__all__")
    names = module.__all__
    assert [attr for attr in names if not hasattr(module, attr)] == []
    assert len(set(names)) == len(names)


def test_package_reexports_every_library_list():
    assert sorted([*LIBRARY, "cli"]) == MODULES
    modules = [importlib.import_module(f"ggmtree.{name}") for name in LIBRARY]
    assert ggmtree.__all__ == [attr for module in modules for attr in module.__all__]
    assert len(set(ggmtree.__all__)) == len(ggmtree.__all__)
    for module in modules:
        for attr in module.__all__:
            assert getattr(ggmtree, attr) is getattr(module, attr)


def _definitions(tree: ast.Module):
    """Each module-level def, class and constant of ``tree``, and each method
    of its classes, as (qualified name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef))


def test_every_public_name_has_a_caller():
    # a definition is called when code reads its name, as a variable or an
    # attribute, outside the definition itself; a docstring or a comment is
    # no code, and a leading underscore exempts nothing, so what only the
    # tests call lives in tests/brute_force.py. Python calls the dunders
    reads = defaultdict(list)
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads[node.attr].append((path, node.lineno))
    uncalled = []
    for path in sorted((ROOT / "src" / "ggmtree").glob("*.py")):
        for qualname, node in _definitions(trees[path]):
            name = qualname.rsplit(".", 1)[-1]
            own = range(node.lineno, node.end_lineno + 1)
            if not (name.startswith("__") and name.endswith("__")) and not any(
                    where != path or line not in own for where, line in reads[name]):
                uncalled.append(f"{path.stem}.{qualname}")
    assert uncalled == []


def branch_actions(parser):
    """The ``--branch`` options of ``parser`` and of its subcommands, nested."""
    for action in parser._actions:
        if action.dest == "branch":
            yield action
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from branch_actions(sub)


def test_branch_choices_are_the_solver_labels():
    actions = list(branch_actions(build_parser()))
    # marginal, sample, verify, correlation and chain dump
    assert len(actions) == 5
    for action in actions:
        assert action.choices == ["auto", *bl_solver.BRANCHES]
