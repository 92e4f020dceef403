"""Every name a module lists in ``__all__`` is defined there, once, and the
package's top-level names are the module objects they re-export."""
import importlib
import pkgutil

import pytest

import ggmtree

MODULES = sorted(info.name for info in pkgutil.iter_modules(ggmtree.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"ggmtree.{name}")
    names = getattr(module, "__all__", [])
    assert [attr for attr in names if not hasattr(module, attr)] == []
    assert len(set(names)) == len(names)
    for attr in names:
        if hasattr(ggmtree, attr):
            assert getattr(ggmtree, attr) is getattr(module, attr)
