"""Every name a module lists in ``__all__`` is defined there, once, and the
package's top-level names are the concatenation of the library modules'
lists, each bound to the module's object. Every public library name is
referenced outside the tests: in the library, the scripts or the bench."""
import argparse
import ast
import importlib
import pkgutil
import re
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


def _bindings(path: Path) -> dict[str, range]:
    """The line numbers (from 0) of each module-level def, class or
    assignment in ``path``, by the name it binds."""
    spans = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            spans[name] = range(node.lineno - 1, node.end_lineno)
    return spans


def test_every_public_name_has_a_caller():
    # a name only the tests use is an oracle for tests/brute_force.py, not a
    # library name; any mention as a word counts, except in the name's own
    # definition and its __all__ entry
    lines = {path: path.read_text().splitlines() for path in CALLERS}
    uncalled = []
    for name in LIBRARY:
        home = ROOT / "src" / "ggmtree" / f"{name}.py"
        spans = _bindings(home)
        for attr in importlib.import_module(f"ggmtree.{name}").__all__:
            own = {*spans.get(attr, ()), *spans["__all__"]}
            word = re.compile(rf"\b{attr}\b")
            if not any(word.search(line) for path, text in lines.items()
                       for i, line in enumerate(text) if path != home or i not in own):
                uncalled.append(f"{name}.{attr}")
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
