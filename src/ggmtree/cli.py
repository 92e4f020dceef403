"""Command-line front end.

Subcommands take a JSON model description (potential, period q, branching
degree d), run the requested computation, and emit CSV for sweeps and tables
or JSON for structured reports. Every output embeds a schema version and the
fully resolved configuration, and identical configurations with identical
seeds produce byte-identical files.

Exit codes: 0 success, 1 verification failure, 2 configuration error
(including invalid models), 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from typing import Iterable, Iterator

import numpy as np

from . import bl_solver, chains, diagnostics, measures
from .errors import (
    Diverged,
    GGMError,
    MaxIterations,
    NonSummable,
    TailTooFat,
    UnsupportedDegree,
    UnsupportedPeriod,
)
from .model import (
    IncrementWindow,
    PeriodicBoundaryLaw,
    cayley_ball,
    eval_q,
    model_from_json,
    model_to_json,
    path_volume,
)

SCHEMA_VERSION = 1
# verify reports gained the relative violation and the method of each check
VERIFY_SCHEMA_VERSION = 2
CHUNK_ROWS = 2**16  # CSV rows per write of `sample`

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


def _load_model(path: str):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"model file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    try:
        return model_from_json(doc)
    except (ValueError, KeyError, TypeError, TailTooFat) as exc:
        raise ConfigError(f"invalid model in {path}: {exc}")


def _emit(text: str, out: str | None) -> None:
    _emit_chunks([text], out)


def _emit_chunks(chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks in order to ``out``, or to stdout, one at a time, so
    the whole text is never held in memory."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", newline="") as fh:
            fh.writelines(chunks)


def _csv_text(meta: dict, header: list[str], rows: Iterable) -> str:
    """CSV under a ``# meta`` line. Rows hold Python ints, floats and strings;
    csv writes floats with ``str``, which for floats is their ``repr``."""
    buf = io.StringIO()
    buf.write("# " + json.dumps(meta, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _meta(config: dict, version: int = SCHEMA_VERSION) -> dict:
    return {"schema_version": version, "config": config}


def _select_law(op, q, d, branch: str, tol: float) -> tuple[PeriodicBoundaryLaw, str]:
    if branch == "trivial":
        return PeriodicBoundaryLaw.trivial(q), "trivial"
    reports = bl_solver.find_branches(op, q, d, tol=tol)
    if branch == "auto":
        # the members of a symmetry orbit tie in max |a - 1|, so a tie within
        # a relative 1e-9 goes to the first law in sorted order, not to
        # whichever rounding made larger
        ordered = sorted(reports, key=lambda r: r.solution.a)
        far = [max(abs(v - 1.0) for v in r.solution.a) for r in ordered]
        best = next(r for r, f in zip(ordered, far) if f >= max(far) * (1.0 - 1e-9))
        return best.solution, best.branch_label
    for rep in reports:
        if rep.branch_label == branch:
            return rep.solution, rep.branch_label
    raise ConfigError(f"no solved branch labelled {branch!r}; found "
                      f"{sorted(set(r.branch_label for r in reports))}")


def _setup(args, command: str, *keys: str, law_tol: float | None = None):
    """The model pipeline shared by the model commands: load the model, select
    the law (solved at ``law_tol``, default ``--tol``), multiply its entry 1 by
    1 + ``--perturb`` where the command has that option, build the window
    (certified, or ``--window``), the layer kernel and its fuzzy chain.
    Returns the potential, the degree, the branch label, the kernel and the
    chain with the base config, to which ``keys`` adds the command's own
    arguments. So every model command rejects a model that one of them
    rejects. A model whose Q(1) underflows to 0 is a configuration error:
    its layers never change, so its fuzzy chain is reducible."""
    op, q, d = _load_model(args.model)
    if q >= 2 and eval_q(op, 1) == 0.0:
        raise ConfigError("Q(1) underflows to 0, so the layers never change and the "
                          "fuzzy chain is reducible")
    law, label = _select_law(op, q, d, args.branch, args.tol if law_tol is None else law_tol)
    perturb = getattr(args, "perturb", 0.0)
    if perturb != 0.0:
        if q < 2:
            raise ConfigError("--perturb needs a period of at least 2")
        a = list(law.a)
        a[1] *= 1.0 + perturb
        law = PeriodicBoundaryLaw.from_values(a)
    if args.window is None:
        window = IncrementWindow.for_model(op, law)
    else:
        window = IncrementWindow.manual(op, args.window, law)
    config = {"command": command, "model": model_to_json(op, q, d), "branch": args.branch,
              "window": window.cutoff, "tol": args.tol}
    config.update((key, getattr(args, key)) for key in keys)
    kernel = chains.build_layer_kernel(op, law, window)
    return op, d, label, kernel, chains.fuzzy_transform(kernel), config


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve_bl(args) -> int:
    op, q, d = _load_model(args.model)
    if args.beta_min is not None or args.beta_max is not None:
        if args.beta_min is None or args.beta_max is None:
            raise ConfigError("--beta-min and --beta-max must be given together")
        if args.beta_max < args.beta_min:
            raise ConfigError("--beta-max must not be below --beta-min")
        if not hasattr(op, "beta"):
            raise ConfigError("beta sweeps need an sos or discrete_gaussian potential")
        count = int(round((args.beta_max - args.beta_min) / args.beta_step)) + 1
        betas = [args.beta_min + i * args.beta_step for i in range(count)]
        try:
            ops = [type(op)(beta) for beta in betas]
        except ValueError as exc:
            raise ConfigError(f"the --beta-min/--beta-max sweep leaves the potential's "
                              f"domain: {exc}")
    else:
        betas = [getattr(op, "beta", None)]
        ops = [op]
    config = {"command": "solve-bl", "model": model_to_json(op, q, d), "betas": betas,
              "starts": args.starts, "damping": args.damping, "max_iter": args.max_iter,
              "tol": args.tol}
    rows = []
    for beta, local in zip(betas, ops):
        reports = bl_solver.find_branches(
            local, q, d, n_starts=args.starts, damping=args.damping,
            max_iter=args.max_iter, tol=args.tol)
        for rep in reports:
            rows.append([beta if beta is not None else "", rep.branch_label,
                         *[float(v) for v in rep.solution.a],
                         float(rep.residual), rep.iterations])
    header = ["beta", "branch", *[f"a_{k}" for k in range(q)], "residual", "iterations"]
    _emit(_csv_text(_meta(config), header, rows), args.out)
    return EXIT_OK


def cmd_critical_beta(args) -> int:
    config = {"command": "critical-beta", "q": args.q, "d": args.d,
              "family": args.family}
    value = bl_solver.critical_beta(args.q, args.d, args.family)
    payload = _meta(config) | {"critical_beta": value}
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def cmd_marginal(args) -> int:
    op, d, label, kernel, chain, config = _setup(args, "marginal", "perturb")
    marg = measures.single_bond_marginal(op, kernel.law, kernel.window)
    payload = _meta(config) | {
        "branch_label": label,
        "law": [float(v) for v in kernel.law.a],
        "single_bond": {str(int(z)): float(p) for z, p in zip(kernel.offsets, marg)},
    }
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def _sample_rows(batch: np.ndarray, labels: list[str]) -> Iterator[str]:
    """The rows ``i,x>y,z`` of ``batch``, sample-major, as text chunks of
    about ``CHUNK_ROWS`` rows. One table holds ``,x>y,`` per edge and one
    ``z\n`` per increment between the smallest and largest in the batch; a
    chunk is one join of the sample numbers and table entries, so no row is
    built as a Python object of its own."""
    n, edges = batch.shape
    lo = int(batch.min(initial=0))
    mids = np.array([f",{label}," for label in labels], dtype=object)
    ends = np.array([f"{z}\n" for z in range(lo, int(batch.max(initial=0)) + 1)],
                    dtype=object)
    step = max(1, CHUNK_ROWS // edges)
    for a in range(0, n, step):
        b = min(a + step, n)
        parts = np.empty((b - a, edges, 3), dtype=object)
        parts[:, :, 0] = np.array([str(i) for i in range(a, b)], dtype=object)[:, None]
        parts[:, :, 1] = mids
        parts[:, :, 2] = ends[batch[a:b] - lo]
        yield "".join(parts.ravel().tolist())


def cmd_sample(args) -> int:
    """Sample and write one CSV row per (sample, edge).

    The rows are the bytes ``csv.writer`` wrote for the rows
    ``(i, "x>y", z)``: csv writes ints with ``str``, and digits, ``-`` and
    ``>`` never need quoting. ``_sample_rows`` encodes them from tables and
    they are written a chunk at a time, so memory is the O(n * edges) batch
    plus one chunk of text.
    """
    op, d, label, kernel, chain, config = _setup(args, "sample", "n", "seed", "depth")
    volume = cayley_ball(d, args.depth)
    batch = measures.sample_ggm_batch(measures.GGMSpec(kernel, chain, volume),
                                      args.n, args.seed)
    labels = [f"{x}>{y}" for x, y in volume.directed_edges]
    head = _csv_text(_meta(config), ["sample", "edge", "increment"], [])
    _emit_chunks(itertools.chain([head], _sample_rows(batch, labels)), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    """Report each check's violation and ``method``: ``exact``, or
    ``certificate`` for a certified upper bound on it. A ``Certificate`` also
    bounds |ratio - 1| in ``relative_violation``, which must pass as well.
    The windowed mass may miss up to the window's tail bound on each edge, so
    its tolerance is at least ``n_edges`` times that bound."""
    op, d, label, kernel, chain, config = _setup(args, "verify", "depth", "perturb",
                                                 law_tol=1e-12)
    volume = cayley_ball(d, args.depth)
    tol = args.tol
    pin = measures.PinnedMeasureSpec(kernel, volume, 0, 0)
    ggm = measures.GGMSpec(kernel, chain, volume)
    inner = {0}
    pins = [0, 1, volume.children[1][0] if volume.children[1] else 1]
    exact, certified = "exact", "certificate"
    checks = {
        "boundary_law_residual": (bl_solver.residual(kernel.law, op, d), tol, exact),
        "stationarity": (float(np.abs(chain.alpha @ chain.matrix - chain.alpha).max()),
                         tol, exact),
        "reversibility": (chains.check_reversibility(kernel, chain), tol, exact),
        "dual_representation_pinned": (measures.max_dual_gap_pinned(pin), tol, certified),
        "dual_representation_mixture": (measures.max_dual_gap_ggm(ggm), tol, certified),
        "consistency": (measures.check_consistency(pin, inner), tol, certified),
        "homogeneity": (measures.check_homogeneity(ggm, pins), tol, certified),
        "windowed_mass": (abs(1.0 - measures.windowed_mass(pin)),
                          max(tol, volume.n_edges * kernel.window.tail_mass_bound), exact),
    }
    if 1 in volume.interior:
        # condition on a mixed boundary-height class so the conditional check
        # has real discriminating power
        dlr_edges = volume.edges_touching({1})
        reference = {dlr_edges[-1]: 1} if len(dlr_edges) > 1 else None
        checks["restricted_conditional"] = (
            measures.check_restricted_dlr(pin, {1}, reference=reference), tol, certified)
    report = {}
    for name, (v, t, method) in checks.items():
        entry = report[name] = {"violation": float(v), "tolerance": float(t),
                                "method": method, "pass": bool(v <= t)}
        if isinstance(v, measures.Certificate):
            entry["relative_violation"] = v.relative
            entry["pass"] = entry["pass"] and v.relative <= t
    ok = all(entry["pass"] for entry in report.values())
    payload = _meta(config, VERIFY_SCHEMA_VERSION) | {
        "branch_label": label, "checks": report, "pass": ok}
    _emit(_json_text(payload), args.out)
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_correlation(args) -> int:
    op, d, label, kernel, chain, config = _setup(args, "correlation", "n_max")
    rows = []
    for n in range(1, args.n_max + 1):
        volume = path_volume(n + 2, d)
        spec = measures.GGMSpec(kernel, chain, volume)
        cov, bound = diagnostics.correlation_and_bound(
            spec, {0, 1}, {n + 1, n + 2}, {(0, 1): 0}, {(n + 1, n + 2): 0}, n)
        rows.append([n, float(cov), float(bound)])
    _emit(_csv_text(_meta(config), ["n", "covariance", "bound"], rows), args.out)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    try:
        ce = diagnostics.CounterexampleChain(args.eps0, args.eps1)
    except ValueError as exc:
        raise ConfigError(str(exc))
    config = {"command": "counterexample", "eps0": args.eps0, "eps1": args.eps1,
              "kmax": args.kmax}
    rows = []
    for k in range(1, args.kmax + 1):
        closed = diagnostics.conditional_ratio_closed(ce, k, k)
        enum = diagnostics.conditional_ratio_enumerated(ce, k, k)
        rows.append([k, float(closed), float(enum)])
    _emit(_csv_text(_meta(config), ["k", "ratio_closed_form", "ratio_enumerated"], rows),
          args.out)
    return EXIT_OK


def cmd_chain_dump(args) -> int:
    op, d, label, kernel, chain, config = _setup(args, "chain dump")
    rows = kernel.rows
    payload = _meta(config) | {
        "branch_label": label,
        "law": [float(v) for v in kernel.law.a],
        "kernel_rows": {
            str(s): {str(int(z)): float(p) for z, p in zip(kernel.offsets, rows[s])}
            for s in range(kernel.q)
        },
        "fuzzy_matrix": [[float(v) for v in row] for row in chain.matrix],
        "alpha": [float(v) for v in chain.alpha],
    }
    _emit(_json_text(payload), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _checked(kind, accept, what: str):
    """argparse type converting with ``kind`` and rejecting values outside
    ``accept``, so bad numbers are configuration errors (exit 2)."""
    def parse(text: str):
        value = kind(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid <name> value"
    return parse


_POSITIVE = _checked(float, lambda v: v > 0.0, "positive")
_PERTURB = _checked(float, lambda v: math.isfinite(v) and v > -1.0, "finite and above -1")
_DAMPING = _checked(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_COUNT = _checked(int, lambda v: v >= 0, "non-negative")
_AT_LEAST_1 = _checked(int, lambda v: v >= 1, "at least 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggmtree",
        description="Gradient measures on regular trees from periodic boundary laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, model=True):
        if model:
            p.add_argument("--model", required=True, help="JSON model description")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--tol", type=_POSITIVE, default=1e-10)
        p.add_argument("--window", type=_AT_LEAST_1, default=None,
                       help="increment cutoff (default: certified automatically)")
        p.add_argument("--branch", default="auto",
                       choices=["auto", "trivial", "upper", "lower", "other"])

    p = sub.add_parser("solve-bl", help="solve the periodic boundary-law equation")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--beta-min", type=float, default=None)
    p.add_argument("--beta-max", type=float, default=None)
    p.add_argument("--beta-step", type=_POSITIVE, default=0.05)
    p.add_argument("--starts", type=_COUNT, default=50)
    p.add_argument("--damping", type=_DAMPING, default=0.7)
    p.add_argument("--max-iter", type=_COUNT, default=5000)
    p.add_argument("--tol", type=_POSITIVE, default=1e-10)
    p.set_defaults(func=cmd_solve_bl)

    p = sub.add_parser("critical-beta", help="onset of multiple boundary laws")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--family", default="sos", choices=["sos"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_critical_beta)

    p = sub.add_parser("marginal", help="exact single-bond marginal table")
    add_common(p)
    p.add_argument("--perturb", type=_PERTURB, default=0.0)
    p.set_defaults(func=cmd_marginal)

    p = sub.add_parser("sample", help="draw configurations on a closed ball")
    add_common(p)
    p.add_argument("--n", type=_COUNT, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=_AT_LEAST_1, default=2)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="run the invariant suite on a model")
    add_common(p)
    p.add_argument("--depth", type=_AT_LEAST_1, default=2)
    p.add_argument("--perturb", type=_PERTURB, default=0.0)
    p.set_defaults(func=cmd_verify)
    p.set_defaults(tol=1e-9)

    p = sub.add_parser("correlation", help="covariance decay along a path")
    add_common(p)
    p.add_argument("--n-max", type=_AT_LEAST_1, default=10)
    p.set_defaults(func=cmd_correlation)

    p = sub.add_parser("counterexample", help="conditional drift of the 1-D mixture")
    p.add_argument("--eps0", type=float, required=True)
    p.add_argument("--eps1", type=float, required=True)
    p.add_argument("--kmax", type=_AT_LEAST_1, default=12)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("chain", help="chain inspection commands")
    chain_sub = p.add_subparsers(dest="chain_command", required=True)
    pd = chain_sub.add_parser("dump", help="emit kernel rows and the fuzzy chain")
    add_common(pd)
    pd.set_defaults(func=cmd_chain_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, UnsupportedDegree, UnsupportedPeriod) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (Diverged, MaxIterations, NonSummable) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except GGMError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
