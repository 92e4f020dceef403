import os
import subprocess
import sys
from pathlib import Path

import pytest

import ggmtree
from ggmtree import (
    SOS,
    build_layer_kernel,
    cayley_ball,
    closed_form_q2_sos,
    fuzzy_transform,
)


@pytest.fixture(scope="session")
def sos2():
    return SOS(2.0)


@pytest.fixture(scope="session")
def upper_law():
    # nontrivial period-2 law on the binary tree at beta = 2, a_1 = u**2
    return closed_form_q2_sos(2.0)[1]


@pytest.fixture(scope="session")
def kernel(sos2, upper_law):
    return build_layer_kernel(sos2, upper_law)


@pytest.fixture(scope="session")
def chain(kernel):
    return fuzzy_transform(kernel)


@pytest.fixture(scope="session")
def ball1():
    return cayley_ball(2, 1)


@pytest.fixture(scope="session")
def ball2():
    return cayley_ball(2, 2)


@pytest.fixture(scope="session")
def fresh_python():
    """Run a fresh interpreter on ``args`` with this checkout's ``src`` first
    on PYTHONPATH. ``env`` sets variables, or removes those mapped to None."""
    src = str(Path(ggmtree.__file__).resolve().parents[1])

    def run(args, env=None) -> subprocess.CompletedProcess:
        child = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        for key, value in (env or {}).items():
            if value is None:
                child.pop(key, None)
            else:
                child[key] = value
        return subprocess.run([sys.executable, *args], env=child,
                              capture_output=True, text=True, timeout=120)
    return run
