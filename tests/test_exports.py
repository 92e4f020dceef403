"""Every name a module lists in ``__all__`` is defined there, once, and the
package's top-level names are the concatenation of the library modules'
lists, each bound to the module's object."""
import argparse
import importlib
import pkgutil

import pytest

import ggmtree
from ggmtree import bl_solver
from ggmtree.cli import build_parser

MODULES = sorted(info.name for info in pkgutil.iter_modules(ggmtree.__path__))
# the modules the package re-exports, in the order it imports them
LIBRARY = ["errors", "model", "bl_solver", "chains", "measures", "transfer", "diagnostics"]


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
