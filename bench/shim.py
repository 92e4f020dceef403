"""Run one ggmtree CLI command with timing spans around calls into each layer.

    python3 bench/shim.py SPANS.json <ggmtree arguments...>

The shim replaces the public functions the CLI reaches, as bound where they
are called from (``ggmtree.measures.check_consistency`` for the CLI's
``measures.check_consistency(...)``, ``ggmtree.cli.cayley_ball`` for its
``cayley_ball(...)``), then calls ``ggmtree.cli.main``. Spans stay in memory
and are written to SPANS.json when the command ends; the exit code is the
CLI's. Nothing inside the package is edited, so the spans time calls into a
layer, not work inside it.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

# (span name, module holding the binding the caller uses, attribute path)
TARGETS = [
    ("measures.check_consistency", "ggmtree.measures", "check_consistency"),
    ("measures.check_restricted_dlr", "ggmtree.measures", "check_restricted_dlr"),
    ("measures.max_dual_gap_pinned", "ggmtree.measures", "max_dual_gap_pinned"),
    ("measures.max_dual_gap_ggm", "ggmtree.measures", "max_dual_gap_ggm"),
    ("measures.check_homogeneity", "ggmtree.measures", "check_homogeneity"),
    ("measures.windowed_mass", "ggmtree.measures", "windowed_mass"),
    ("measures.sample_ggm_batch", "ggmtree.measures", "sample_ggm_batch"),
    ("model.cayley_ball", "ggmtree.cli", "cayley_ball"),
    ("model.IncrementWindow.for_model", "ggmtree.model", "IncrementWindow.for_model"),
    ("bl_solver.find_branches", "ggmtree.bl_solver", "find_branches"),
    ("chains.build_layer_kernel", "ggmtree.chains", "build_layer_kernel"),
    ("chains.fuzzy_transform", "ggmtree.chains", "fuzzy_transform"),
    ("chains.check_reversibility", "ggmtree.chains", "check_reversibility"),
    ("diagnostics.correlation_and_bound", "ggmtree.diagnostics", "correlation_and_bound"),
]

ROOT_SPAN = "cli.main"


class Recorder:
    """Spans as (id, parent id, name, thread id, start, end) tuples.

    A span's parent is the innermost open span of the same thread; calls made
    in a worker thread hang under the root span, which caused them.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self.root_id: int | None = None

    def wrap(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else self.root_id
            if name == ROOT_SPAN:
                self.root_id = span_id
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, threading.get_ident(),
                                   start, end))
        return wrapper

    def patch(self, name: str, module: str, path: str) -> bool:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
        else:
            setattr(owner, attr, self.wrap(name, raw))
        return True


def main() -> int:
    span_path, argv = sys.argv[1], sys.argv[2:]
    import ggmtree.cli

    recorder = Recorder()
    missing = [name for name, module, path in TARGETS
               if not recorder.patch(name, module, path)]
    try:
        return recorder.wrap(ROOT_SPAN, ggmtree.cli.main)(argv)
    finally:
        with open(span_path, "w") as fh:
            json.dump({"spans": recorder.spans, "missing": missing}, fh)


if __name__ == "__main__":
    sys.exit(main())
