"""Command-line front end.

Subcommands take a JSON model description (potential, period q, branching
degree d), run the requested computation, and emit CSV for sweeps and tables
or JSON for structured reports. Every output embeds a schema version and the
fully resolved configuration, and identical configurations with identical
seeds produce byte-identical files.

Exit codes: 0 success, 1 verification failure, 2 configuration error
(including invalid models, unreadable model files, unwritable output paths
and volumes too large to allocate), 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
from typing import Iterable, Iterator

import numpy as np

from . import bl_solver, chains, diagnostics, measures
from .errors import (
    GGMError,
    NonSummable,
    TailTooFat,
    UnsupportedDegree,
    UnsupportedPeriod,
)
from .model import (
    FiniteTreeVolume,
    IncrementWindow,
    PeriodicBoundaryLaw,
    cayley_ball,
    eval_q,
    model_from_json,
    model_to_json,
)

__all__ = ["build_parser", "main", "console_entry"]

SCHEMA_VERSION = 1
# each certified verify check reports one bound, on the largest |ratio - 1|;
# 4 centred the dual and consistency bounds by normalization, 5 reads
# consistency off one log scale and writes a non-finite bound as "inf", and 6
# sums the windowed mass's log scales per level and may write "inf" tolerances
VERIFY_SCHEMA_VERSION = 6
# 2 draws each sample from its own counters, so the rows of `--n k` are the
# first rows of any larger --n
SAMPLE_SCHEMA_VERSION = 2
CHUNK_ROWS = 2**13  # most CSV rows per write of `sample`
MAX_BETAS = 10**6  # points of a solve-bl beta grid

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
    except OSError as exc:
        raise ConfigError(f"cannot read the model file {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    try:
        return model_from_json(doc)
    except (ValueError, KeyError, TypeError, TailTooFat) as exc:
        raise ConfigError(f"invalid model in {path}: {exc}")


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks in order to ``out``, or to stdout, one at a time, so
    the whole text is never held in memory."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        try:
            fh = open(out, "w", newline="")
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc.strerror}")
        with fh:
            fh.writelines(chunks)


def _check_out(out: str) -> None:
    """Fail before any work when ``out`` cannot be opened for writing; an
    existing file keeps its bytes, and no new file is left behind."""
    made = not os.path.exists(out)
    try:
        open(out, "a").close()
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror}")
    if made:
        os.remove(out)


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
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _meta(config: dict, version: int = SCHEMA_VERSION) -> dict:
    return {"schema_version": version, "config": config}


def _select_law(op, q, d, branch: str, tol: float) -> tuple[PeriodicBoundaryLaw, str]:
    if branch == bl_solver.BRANCH_TRIVIAL:
        return PeriodicBoundaryLaw.trivial(q), branch
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


def _ball(d: int, depth: int, most: float, what: str):
    """``cayley_ball(d, depth)``, or a ConfigError past ``most`` vertices, ``what``.
    A ball has more than d**depth vertices, so depth log d is checked first."""
    if depth * math.log(d) <= math.log(most):
        volume = cayley_ball(d, depth)
        if volume.n_vertices <= most:
            return volume
    raise ConfigError(f"a ball of depth {depth} and degree {d} has more than {what}; "
                      "lower --depth or the degree d")


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
        # the last grid point may pass --beta-max by rounding only; every beta
        # is a full multi-start solve and is written into the meta line
        span = (args.beta_max - args.beta_min) / args.beta_step + 1e-9
        if not span < MAX_BETAS:
            raise ConfigError(f"the beta grid has more than {MAX_BETAS} points; raise "
                              "--beta-step or narrow --beta-min/--beta-max")
        count = math.floor(span) + 1
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
              "starts": args.starts, "damping": bl_solver.DAMPING,
              "max_iter": bl_solver.MAX_ITER, "tol": args.tol}
    rows = []
    for beta, local in zip(betas, ops):
        reports = bl_solver.find_branches(local, q, d, n_starts=args.starts, tol=args.tol)
        for rep in reports:
            rows.append([beta if beta is not None else "", rep.branch_label,
                         *[float(v) for v in rep.solution.a],
                         float(rep.residual), rep.iterations])
    header = ["beta", "branch", *[f"a_{k}" for k in range(q)], "residual", "iterations"]
    _emit([_csv_text(_meta(config), header, rows)], args.out)
    return EXIT_OK


def cmd_critical_beta(args) -> int:
    # critical_beta covers the SOS family alone
    config = {"command": "critical-beta", "q": args.q, "d": args.d, "family": "sos"}
    value = bl_solver.critical_beta(args.q, args.d)
    payload = _meta(config) | {"critical_beta": value}
    _emit([_json_text(payload)], args.out)
    return EXIT_OK


def cmd_marginal(args) -> int:
    op, d, label, kernel, chain, config = _setup(args, "marginal", "perturb")
    marg = measures.single_bond_marginal(op, kernel.law, kernel.window)
    payload = _meta(config) | {
        "branch_label": label,
        "law": [float(v) for v in kernel.law.a],
        "single_bond": {str(int(z)): float(p) for z, p in zip(kernel.offsets, marg)},
    }
    _emit([_json_text(payload)], args.out)
    return EXIT_OK


def _edge_table(volume: FiniteTreeVolume) -> np.ndarray:
    """``,x>y,`` for each edge x>y of the ball, in edge order, built a level
    at a time from its level starts: level 1 hangs from vertex 0, and the
    j-th vertex of level k >= 2 from the (j // d)-th of level k - 1."""
    starts, d = volume.starts, volume.d
    mids = np.empty(volume.n_edges, dtype=object)
    mids[:d + 1] = [f",0>{v}," for v in range(1, d + 2)]
    for k in range(2, len(starts) - 1):
        s, above = starts[k], starts[k - 1]
        mids[s - 1:starts[k + 1] - 1] = [f",{above + j // d}>{s + j},"
                                         for j in range(starts[k + 1] - s)]
    return mids


def _sample_rows(blocks: Iterable[np.ndarray], volume: FiniteTreeVolume,
                 cutoff: int) -> Iterator[str]:
    """The rows ``i,x>y,z`` of the blocks of consecutive samples on
    ``volume``, sample-major, as text chunks of at most ``CHUNK_ROWS`` rows:
    as many whole samples as fit, or else runs of one sample's edges. One
    table holds ``,x>y,`` per edge (``_edge_table``) and one ``z\n`` per
    increment of the window, -cutoff to cutoff; a chunk is one join of the
    sample numbers and table entries, so no row is built as a Python object
    of its own."""
    mids = _edge_table(volume)
    ends = np.array([f"{z}\n" for z in range(-cutoff, cutoff + 1)], dtype=object)
    span = min(len(mids), CHUNK_ROWS)  # edges per chunk
    step = CHUNK_ROWS // span  # samples per chunk, 1 when a sample is split
    cells = np.empty(3 * step * span, dtype=object)  # reused, as the sampler's buffers are
    first = 0
    for block in blocks:
        for a in range(0, len(block), step):
            part = block[a:a + step]
            numbers = np.array([str(i) for i in range(first, first + len(part))],
                               dtype=object)[:, None]
            first += len(part)
            for e0 in range(0, len(mids), span):
                piece = part[:, e0:e0 + span]
                parts = cells[:3 * piece.size].reshape(*piece.shape, 3)
                parts[:, :, 0] = numbers
                parts[:, :, 1] = mids[e0:e0 + span]
                parts[:, :, 2] = ends.take(np.add(piece, cutoff, dtype=np.intp))
                yield "".join(parts.ravel().tolist())


def cmd_sample(args) -> int:
    """Sample and write one CSV row per (sample, edge).

    The rows are the bytes ``csv.writer`` wrote for the rows
    ``(i, "x>y", z)``: csv writes ints with ``str``, and digits, ``-`` and
    ``>`` never need quoting. The sampler yields blocks of consecutive
    samples, drawn in ranges of at most ``measures.DRAW_BLOCK`` uniforms,
    ``_sample_rows`` encodes each from tables as it arrives, and the text
    is written a chunk of at most ``CHUNK_ROWS`` rows at a time, so the
    batch is never held: memory is O(DRAW_BLOCK + CHUNK_ROWS), plus one
    byte per edge and per vertex of a level, plus the label table, whatever
    n. The meta line carries ``SAMPLE_SCHEMA_VERSION``.
    """
    if args.n > 2**32:
        raise ConfigError(f"--n {args.n} is more than 2**32 samples; lower --n")
    op, d, label, kernel, chain, config = _setup(args, "sample", "n", "seed", "depth")
    volume = _ball(d, args.depth, 2**32, "2**32 vertices, the sampler's counters")
    blocks = measures.sample_ggm_batch(kernel, chain, volume, args.n, args.seed)
    head = _csv_text(_meta(config, SAMPLE_SCHEMA_VERSION),
                     ["sample", "edge", "increment"], [])
    rows = _sample_rows(blocks, volume, kernel.window.cutoff)
    _emit(itertools.chain([head], rows), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    """Report each check's violation and ``method``: ``exact``, or
    ``certificate`` for a certified upper bound on the largest |ratio - 1|
    between the two forms the check compares, which also bounds their
    largest difference. The windowed mass may miss up to the window's tail
    bound on each edge, so its tolerance is at least ``n_edges`` times that
    bound. With the certified 1e-12 window at d = 2 that union bound
    reaches 1 from depth 39, n_edges = 3 (2**39 - 1), and from there the
    windowed mass passes whatever the mass.

    Consistency marginalizes the volume's measure onto the ball of radius
    1, and the restricted conditional structure is checked on vertex 1
    alone, the sub-ball of radius 0 below it."""
    op, d, label, kernel, chain, config = _setup(args, "verify", "depth", "perturb",
                                                 law_tol=1e-12)
    volume = _ball(d, args.depth, sys.float_info.max, "1.8e308 vertices, the largest double")
    tol = args.tol
    # the pins 0, 1 and 1's first child are the depths 0, 1 and 2 of one ray
    pins = list(range(min(args.depth, 2) + 1))
    exact, certified = "exact", "certificate"
    checks = {
        "boundary_law_residual": (bl_solver.residual(kernel.law, op, d), tol, exact),
        "stationarity": (float(np.abs(chain.alpha @ chain.matrix - chain.alpha).max()),
                         tol, exact),
        "reversibility": (chains.check_reversibility(kernel, chain), tol, exact),
        "dual_representation_pinned": (measures.max_dual_gap_pinned(kernel, volume), tol,
                                       certified),
        "dual_representation_mixture": (measures.max_dual_gap_ggm(kernel, chain, volume), tol,
                                        certified),
        "consistency": (measures.check_consistency(kernel, volume, 0), tol, certified),
        "homogeneity": (measures.check_homogeneity(kernel, chain, volume, pins), tol,
                        certified),
        "windowed_mass": (abs(1.0 - measures.windowed_mass(kernel, volume, 0)),
                          max(tol, volume.n_edges * kernel.window.tail_mass_bound), exact),
    }
    if args.depth > 1:  # vertex 1, the sub-ball of radius 0, is interior
        checks["restricted_conditional"] = (measures.check_restricted_dlr(kernel, volume, 0),
                                            tol, certified)
    report = {name: {"violation": float(v) if math.isfinite(v) else "inf",
                     "tolerance": float(t) if math.isfinite(t) else "inf",
                     "method": method, "pass": bool(v <= t)}
              for name, (v, t, method) in checks.items()}
    ok = all(entry["pass"] for entry in report.values())
    payload = _meta(config, VERIFY_SCHEMA_VERSION) | {
        "branch_label": label, "checks": report, "pass": ok}
    _emit([_json_text(payload)], args.out)
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_correlation(args) -> int:
    op, d, label, kernel, chain, config = _setup(args, "correlation", "n_max")
    # a flat bond pinned at either end has the increment-0 column, so no volume
    # is built; it is copied, as a strided column moves the last digits
    flat = kernel.probs[:, kernel.window.cutoff].copy()
    rows = []
    for n in range(1, args.n_max + 1):
        cov, bound = diagnostics.correlation_and_bound(chain, flat, flat, n)
        rows.append([n, float(cov), float(bound)])
    _emit([_csv_text(_meta(config), ["n", "covariance", "bound"], rows)], args.out)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    try:
        ce = diagnostics.CounterexampleChain(args.eps0, args.eps1)
    except ValueError as exc:
        raise ConfigError(str(exc))
    config = {"command": "counterexample", "eps0": args.eps0, "eps1": args.eps1,
              "kmax": args.kmax}
    header = ["k", "ratio_closed_form", "ratio_enumerated"]
    ratios = (diagnostics.conditional_ratio_closed, diagnostics.conditional_ratio_enumerated)
    rows = []
    for k in range(1, args.kmax + 1):
        rows.append([k])
        for name, ratio in zip(header[1:], ratios):
            try:
                with np.errstate(all="ignore"):  # a ratio that is not finite exits 3
                    rows[-1].append(float(ratio(ce, k, k)))
            except (OverflowError, ZeroDivisionError):
                rows[-1].append(math.inf)
            if not math.isfinite(rows[-1][-1]):
                print(f"numerical failure: the conditional ratio at k = {k} leaves the "
                      f"range of a double ({name}); lower --kmax", file=sys.stderr)
                return EXIT_NUMERICAL
    _emit([_csv_text(_meta(config), header, rows)], args.out)
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
    _emit([_json_text(payload)], args.out)
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


_FINITE = _checked(float, math.isfinite, "finite")
_POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0.0, "finite and positive")
_PERTURB = _checked(float, lambda v: math.isfinite(v) and v > -1.0, "finite and above -1")
_COUNT = _checked(int, lambda v: v >= 0, "non-negative")
_AT_LEAST_1 = _checked(int, lambda v: v >= 1, "at least 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggmtree",
        description="Gradient measures on regular trees from periodic boundary laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--model", required=True, help="JSON model description")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--tol", type=_POSITIVE, default=1e-10)
        p.add_argument("--window", type=_AT_LEAST_1, default=None,
                       help="increment cutoff (default: certified automatically)")
        p.add_argument("--branch", default="auto", choices=["auto", *bl_solver.BRANCHES])

    p = sub.add_parser("solve-bl", help="solve the periodic boundary-law equation")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--beta-min", type=_FINITE, default=None)
    p.add_argument("--beta-max", type=_FINITE, default=None)
    p.add_argument("--beta-step", type=_POSITIVE, default=0.05)
    p.add_argument("--starts", type=_COUNT, default=50)
    p.add_argument("--tol", type=_POSITIVE, default=1e-10)
    p.set_defaults(func=cmd_solve_bl)

    p = sub.add_parser("critical-beta", help="onset of multiple boundary laws")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
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
        if args.out is not None:
            _check_out(args.out)
        return args.func(args)
    except (ConfigError, UnsupportedDegree, UnsupportedPeriod) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("configuration error: out of memory; lower --depth, --n or the degree d",
              file=sys.stderr)
        return EXIT_CONFIG
    except NonSummable as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except GGMError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
