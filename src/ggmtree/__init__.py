"""Gradient Gibbs measures on regular trees built from periodic boundary laws.

The package solves the q-periodic boundary-law fixed point for summable
symmetric increment potentials, turns solutions into layer-dependent walk
kernels and their mod-q fuzzy chains, computes exact finite-volume marginals
of the pinned measures and of their stationary mixtures, samples them, and
certifies the structural identities (dual representations, consistency under
volume growth, homogeneity, reversibility, correlation bounds).

Importing the package loads numpy's OpenBLAS with one thread, unless numpy is
already imported or one of ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and
``OMP_NUM_THREADS`` is set.
"""
import os as _os
import sys as _sys

# Every BLAS and LAPACK call here (chain matmul and eigvals, the solver's
# batched solve and det, matrix_power, matrix @ u) is on q x q matrices or
# stacks of them, far below the sizes at which OpenBLAS threads, so its
# thread pool only burns CPU. OpenBLAS reads the variable once, when numpy
# loads; the environment is left as found.
if "numpy" not in _sys.modules and not any(
        v in _os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                   "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from . import errors, model, bl_solver, chains, measures, diagnostics
from .errors import *  # noqa: F403
from .model import *  # noqa: F403
from .bl_solver import *  # noqa: F403
from .chains import *  # noqa: F403
from .measures import *  # noqa: F403
from .diagnostics import *  # noqa: F403

__all__ = [*errors.__all__, *model.__all__, *bl_solver.__all__, *chains.__all__,
           *measures.__all__, *diagnostics.__all__]

__version__ = "0.1.0"
