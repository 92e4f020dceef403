"""Benchmark of the ggmtree CLI, run from the root of a source checkout.

    python3 bench/run.py --workload verify --seed 1 --seconds 36 --trace 0

Every command runs as a user runs ``ggmtree``: in a fresh interpreter, with
``PYTHONPATH=src`` and ``GGM_WORKERS=1``, one command at a time (a closed
loop with one client). A pass runs a workload's command list once; passes
repeat while the next one fits in ``--seconds``. Every output is checked, and
every rerun must reproduce the first output byte for byte; a command fails
when its exit code or its output is wrong.

With ``--trace 0`` the result holds the end-to-end metrics: medians over
passes of pass wall time, child CPU time and the largest child peak RSS, and
the median wall time of a fresh ``import ggmtree``. With ``--trace 1``
each command runs untraced and then traced, through ``bench/shim.py``,
and the result holds the per-layer metrics, together with the time of each
``solve-bl`` command run once more with ``GGM_WORKERS`` unset, on the
program's default thread pool. The last line of
stdout is one JSON object; the lines before it are a readable summary.

Clocks are the benchmark's own: ``time.perf_counter`` and the rusage that
``os.wait4`` returns for each child (see ``bench/launch.py``). Nothing
machine-wide is traced or flushed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from shim import ROOT_SPAN, TARGETS

BENCH_DIR = Path(__file__).resolve().parent
CLI = "from ggmtree.cli import console_entry; console_entry()"
SETUP_REPEATS = 3  # a median of 3 also drops the first run's bytecode compile
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
SIGMA_LIMIT = 4.0
MIN_BIN_COUNT = 10  # expected count below which kernel offsets share a tail bin
COV_SLACK = 1e-14  # the rounding slack correlation_and_bound itself allows

SOS_BETA2 = {"potential": {"kind": "sos", "beta": 2.0}, "q": 2, "d": 2}

# --------------------------------------------------------------------------
# workloads


@dataclass
class Command:
    kind: str  # verify | sample | solve-bl | correlation
    model: dict
    args: list[str]
    expect: int = 0  # exit code the command must return
    beta_points: int = 1  # beta values this command hands to the solver


def verify_workload(rng: random.Random) -> list[Command]:
    def verify(potential, q, *extra, expect=0):
        model = {"potential": potential, "q": q, "d": 2}
        return Command("verify", model, ["--depth", "2", *extra], expect)

    cmds = [
        verify({"kind": "sos", "beta": 2.0}, 2, "--branch", "upper"),
        verify({"kind": "sos", "beta": 2.0}, 2, "--branch", "upper", "--perturb", "0.1",
               expect=1),
        verify({"kind": "sos", "beta": 1.0}, 2),  # certified window cutoff 28
        verify({"kind": "sos", "beta": 3.0}, 3),
        verify({"kind": "lifted_potts", "q": 3, "beta_tilde": 2.0}, 3),
        verify({"kind": "discrete_gaussian", "beta": 1.0}, 2),
    ]
    rng.shuffle(cmds)
    return cmds


def sample_workload(rng: random.Random) -> list[Command]:
    # wide-shallow (9 edges) and narrow-deep (3069 edges), about 0.9M rows each
    cmds = [
        Command("sample", SOS_BETA2, ["--n", "100000", "--depth", "2",
                                      "--seed", str(rng.randrange(2**31))]),
        Command("sample", SOS_BETA2, ["--n", "300", "--depth", "10",
                                      "--seed", str(rng.randrange(2**31))]),
    ]
    rng.shuffle(cmds)
    return cmds


# 17 points per sweep keep a pass short enough that a run makes several passes
# and reports their median.
SWEEP_POINTS = 17


def sweep_workload(rng: random.Random) -> list[Command]:
    # The seed shifts every grid by the same fraction of its step. The q=2, d=2
    # grid straddles beta_c = 1.7627 for every shift, with the step (0.003) at
    # which the solver misses laws just above beta_c.
    shift = rng.random()

    def sweep(q, d, lo, step):
        start = lo + shift * step
        model = {"potential": {"kind": "sos", "beta": lo}, "q": q, "d": d}
        return Command("solve-bl", model,
                       ["--beta-min", repr(start),
                        "--beta-max", repr(start + (SWEEP_POINTS - 1) * step),
                        "--beta-step", repr(step)],
                       beta_points=SWEEP_POINTS)

    cmds = [
        sweep(2, 2, 1.74, 0.003),
        sweep(2, 3, 0.8, 0.06),
        sweep(3, 2, 1.5, 0.12),
        Command("correlation", SOS_BETA2, ["--n-max", "40"]),
    ]
    rng.shuffle(cmds)
    return cmds


WORKLOADS = {"verify": verify_workload, "sample": sample_workload,
             "sweep": sweep_workload}

# --------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class PassResult:
    mode: str  # plain | traced | pool (plain, with the solver's default pool)
    children: list[Child]
    outputs: list[Path]
    span_files: list[Path]

    @property
    def traced(self) -> bool:
        return self.mode == "traced"

    @property
    def wall(self) -> float:
        """The commands run back to back, so a pass lasts their summed time."""
        return sum(c.wall for c in self.children)

    @property
    def cpu(self) -> float:
        return sum(c.cpu for c in self.children)

    @property
    def peak_rss_mb(self) -> float:
        return max(c.rss_mb for c in self.children)


class Runner:
    def __init__(self, root: Path, work: Path, cmds: list[Command]):
        self.root = root
        self.work = work
        self.cmds = cmds
        # One solver worker: the default pool of min(4, cpu_count) threads
        # contends for the GIL, and its wall time swings with the load of other
        # processes on a small machine. The traced run times the default pool.
        self.env = dict(os.environ, GGM_WORKERS="1")
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.model_paths = []
        for i, cmd in enumerate(cmds):
            path = work / f"model_{i}.json"
            path.write_text(json.dumps(cmd.model))
            self.model_paths.append(path)
        self.passes = 0
        # children start from a small launcher so that their peak RSS is their own
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launch.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def python(self, args: list[str], tag: str, env: dict | None = None) -> Child:
        request = {"argv": [sys.executable, *args], "cwd": str(self.root),
                   "env": self.env if env is None else env,
                   "stderr": str(self.work / f"{tag}.err"), "timeout": CHILD_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        return Child(**json.loads(self.launcher.stdout.readline()))

    def run_round(self, trace: bool) -> list[PassResult]:
        """One plain pass or, with ``trace``, a plain and a traced pass, and a
        pool pass when the workload runs the solver; their commands alternate,
        so that all passes see the same machine load."""
        modes = ["plain"]
        if trace:
            modes.append("traced")
            if any(cmd.kind == "solve-bl" for cmd in self.cmds):
                modes.append("pool")
        first = self.passes
        self.passes += len(modes)
        results = [PassResult(mode, [], [], []) for mode in modes]
        pool_env = {k: v for k, v in self.env.items() if k != "GGM_WORKERS"}
        for i, cmd in enumerate(self.cmds):
            for k, result in enumerate(results):
                p = first + k
                ext = "json" if cmd.kind == "verify" else "csv"
                out = self.work / f"out_{p}_{i}.{ext}"
                cli_args = [cmd.kind, "--model", str(self.model_paths[i]), *cmd.args,
                            "--out", str(out)]
                if result.traced:
                    spans = self.work / f"spans_{p}_{i}.json"
                    head = [str(BENCH_DIR / "shim.py"), str(spans)]
                    result.span_files.append(spans)
                else:
                    head = ["-c", CLI]
                env = pool_env if result.mode == "pool" else None
                result.children.append(self.python(head + cli_args, f"cmd_{p}_{i}", env))
                result.outputs.append(out)
        return results

    def stderr_tail(self, p: int, i: int) -> str:
        path = self.work / f"cmd_{p}_{i}.err"
        text = path.read_text(errors="replace").strip() if path.exists() else ""
        return text.splitlines()[-1] if text else ""


# --------------------------------------------------------------------------
# output checks; each returns (ok, facts read from the output)


def _csv(path: Path) -> tuple[dict, list[str], list[str]]:
    """The embedded configuration, the header and the unsplit data lines."""
    lines = path.read_text().splitlines()
    meta = json.loads(lines[0][2:])
    return meta, lines[1].split(","), lines[2:]


def check_verify(cmd: Command, path: Path) -> tuple[bool, dict]:
    payload = json.loads(path.read_text())
    ok = payload["pass"] == (cmd.expect == 0)
    cutoff = payload["config"]["window"]
    q, d, depth = cmd.model["q"], cmd.model["d"], payload["config"]["depth"]
    edges = (d + 1) * (d ** depth - 1) // (d - 1)
    facts = {
        # consistency on {root} and restricted DLR on {vertex 1}: both
        # enumerate every inner-edge assignment, and each touches d + 1 edges
        "configs_enumerated": 2 * (2 * cutoff + 1) ** (d + 1),
        # the pinned and the mixture dual-gap scans
        "residue_vectors": 2 * q ** edges,
    }
    return ok, facts


def single_bond_reference(model: dict, cutoff: int):
    """Exact one-edge marginal of the homogeneous measure, from the closed
    period-2 law rather than the solver the command used."""
    import ggmtree

    op, q, d = ggmtree.model_from_json(model)
    laws = ggmtree.closed_form_q2_sos(op.beta, d)
    law = max(laws, key=lambda law: max(abs(v - 1.0) for v in law.a))
    window = ggmtree.IncrementWindow.manual(op, cutoff, law)
    return window.offsets, ggmtree.single_bond_marginal(op, law, window)


def frequency_sigma(values: list[int], offsets, probs) -> float:
    """Largest deviation, in standard errors, of the empirical frequencies
    from the exact ones; offsets expected fewer than MIN_BIN_COUNT times are
    pooled into one tail bin so the normal approximation holds."""
    n = len(values)
    counts = Counter(values)
    bins = []
    tail_p, tail_c = 0.0, 0
    for z, p in zip(offsets, probs):
        if n * p >= MIN_BIN_COUNT:
            bins.append((float(p), counts.pop(int(z), 0)))
        else:
            tail_p += float(p)
            tail_c += counts.pop(int(z), 0)
    tail_c += sum(counts.values())  # increments outside the window
    bins.append((tail_p, tail_c))
    worst = 0.0
    for p, c in bins:
        se = math.sqrt(max(p * (1.0 - p), 1e-300) / n)
        worst = max(worst, abs(c / n - p) / se)
    return worst


def check_sample(cmd: Command, path: Path) -> tuple[bool, dict]:
    meta, header, lines = _csv(path)
    config = meta["config"]
    n = config["n"]
    d, depth = cmd.model["d"], config["depth"]
    edges = (d + 1) * (d ** depth - 1) // (d - 1)
    ok = header == ["sample", "edge", "increment"] and len(lines) == n * edges
    sigma = float("inf")
    if ok:
        # edge 0>1 of every sample: n independent draws
        first = [line.split(",") for line in lines[0::edges]]
        ok = all(r[0] == str(i) and r[1] == "0>1" for i, r in enumerate(first))
        offsets, probs = single_bond_reference(cmd.model, config["window"])
        sigma = frequency_sigma([int(r[2]) for r in first], offsets, probs)
        ok = ok and sigma < SIGMA_LIMIT
    return ok, {"rows": len(lines), "sigma": sigma}


def check_sweep(cmd: Command, path: Path) -> tuple[bool, dict]:
    import ggmtree

    meta, header, lines = _csv(path)
    rows = [line.split(",") for line in lines]
    config = meta["config"]
    op, q, d = ggmtree.model_from_json(config["model"])
    cols = {name: k for k, name in enumerate(header)}
    a_cols = [cols[f"a_{k}"] for k in range(q)]
    ok = len(config["betas"]) == cmd.beta_points
    worst = 0.0
    found: dict[float, list[list[float]]] = defaultdict(list)
    for row in rows:
        beta = float(row[cols["beta"]])
        a = [float(row[k]) for k in a_cols]
        law = ggmtree.PeriodicBoundaryLaw.from_values(a)
        worst = max(worst, ggmtree.residual(law, type(op)(beta), d))
        found[beta].append(a)
    ok = ok and worst <= config["tol"]
    facts = {
        "rows": len(rows),
        "iterations": sum(int(r[cols["iterations"]]) for r in rows)
        if "iterations" in cols else 0,
        "starts": len(config["betas"]) * config["starts"],
    }
    if (q, d) == (2, 2) and config["model"]["potential"]["kind"] == "sos":
        # every exact period-2 law must appear as a row at its beta
        hit = total = 0
        for beta in config["betas"]:
            for law in ggmtree.closed_form_q2_sos(beta, d):
                total += 1
                hit += any(max(abs(x - y) for x, y in zip(a, law.a)) <= 1e-6
                           for a in found.get(beta, []))
        facts["recall"] = (hit, total)
    return ok, facts


def check_correlation(cmd: Command, path: Path) -> tuple[bool, dict]:
    meta, header, lines = _csv(path)
    rows = [line.split(",") for line in lines]
    ok = len(rows) == meta["config"]["n_max"]
    ok = ok and all(abs(float(r[1])) <= float(r[2]) + COV_SLACK for r in rows)
    return ok, {"rows": len(rows)}


CHECKS = {"verify": check_verify, "sample": check_sample, "solve-bl": check_sweep,
          "correlation": check_correlation}


class Checker:
    """Checks each distinct output once and requires every rerun of a command
    to reproduce the first output byte for byte."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.reference: dict[int, str] = {}
        self.verdicts: dict[tuple[int, str], tuple[bool, dict]] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.first_facts: dict[int, dict] = {}
        self.first_bytes: dict[int, int] = {}

    def check_pass(self, p: int, result: PassResult) -> None:
        for i, (cmd, child, out) in enumerate(zip(self.runner.cmds, result.children,
                                                  result.outputs)):
            self.attempted += 1
            ok, why = self._check(i, cmd, child.code, out)
            if not ok:
                self.failed += 1
                tail = self.runner.stderr_tail(p, i)
                self.notes.append(f"pass {p} {cmd.kind} {' '.join(cmd.args)}: {why}"
                                  + (f" [{tail}]" if tail else ""))
            out.unlink(missing_ok=True)

    def _check(self, i: int, cmd: Command, code: int, out: Path) -> tuple[bool, str]:
        if code != cmd.expect:
            return False, f"exit {code}, expected {cmd.expect}"
        if not out.exists():
            return False, "no output"
        data = out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if i not in self.reference:
            self.reference[i] = digest
            self.first_bytes[i] = len(data)
        elif self.reference[i] != digest:
            return False, "output differs from the first run"
        key = (i, digest)
        if key not in self.verdicts:
            try:
                self.verdicts[key] = CHECKS[cmd.kind](cmd, out)
            except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
                self.verdicts[key] = (False, {"error": repr(exc)})
            self.first_facts.setdefault(i, self.verdicts[key][1])
        ok, facts = self.verdicts[key]
        return ok, "" if ok else f"output check failed {facts}"


# --------------------------------------------------------------------------
# traces


def _union(intervals) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(span_files: list[Path]) -> tuple[dict[str, float], list[str]]:
    """Per-layer busy time and calls over one traced pass. Busy time sums
    spans across threads, nested spans included."""
    busy: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    self_s = 0.0
    solver_wall = 0.0
    missing: set[str] = set()
    for path in span_files:
        if not path.exists():
            continue
        doc = json.loads(path.read_text())
        missing.update(doc["missing"])
        spans = doc["spans"]
        for _, _, name, _, start, end in spans:
            layer = "chains" if name.startswith("chains.") else name
            busy[layer] += end - start
            calls[layer] += 1
        for _, _, name, _, start, end in spans:
            if name == ROOT_SPAN:
                inside = [(max(a, start), min(b, end)) for _, _, other, _, a, b in spans
                          if other != ROOT_SPAN and b > start and a < end]
                self_s += (end - start) - _union(inside)
        solver_wall += _union((a, b) for _, _, name, _, a, b in spans
                              if name == "bl_solver.find_branches")
    out = {"cli.self_s": self_s, "cli.main.busy_s": busy[ROOT_SPAN],
           "bl_solver.find_branches.wall_s": solver_wall,
           "chains.busy_s": busy["chains"], "chains.calls": calls["chains"]}
    for name in TRACED:
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.calls"] = calls[name]
    return out, sorted(missing)


# the shim's span names; the chains functions report together as "chains"
TRACED = [name for name, _, _ in TARGETS if not name.startswith("chains.")]


def import_times(runner: Runner, k: int) -> tuple[float, float]:
    """Cumulative seconds of ggmtree and of scipy (outermost scipy modules
    only) in one ``python -X importtime -c "import ggmtree"``, whose stderr
    lists each module after the modules it imported."""
    runner.python(["-X", "importtime", "-c", "import ggmtree"], f"importtime_{k}")
    entries = []
    for line in (runner.work / f"importtime_{k}.err").read_text().splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(parts[1]) * 1e-6))
    ggm = sum(cum for depth, name, cum in entries if name == "ggmtree")
    scipy = 0.0
    open_names: list[str] = []
    for depth, name, cum in reversed(entries):  # parents come before children
        parent = open_names[depth - 1] if 0 < depth <= len(open_names) else ""
        open_names = open_names[:depth] + [name]
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy += cum
    return ggm, scipy


# --------------------------------------------------------------------------
# runs and reports


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def env_line() -> str:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    return (f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
            f"scipy {scipy_version}, nproc {os.cpu_count()}, GGM_WORKERS=1 "
            f"(one solve-bl worker)")


def measure(args, root: Path, work: Path) -> int:
    cmds = WORKLOADS[args.workload](random.Random(args.seed))
    runner = Runner(root, work, cmds)
    try:
        began = time.perf_counter()
        if args.trace:
            setup = [import_times(runner, k) for k in range(IMPORTTIME_REPEATS)]
        else:
            imports = [runner.python(["-c", "import ggmtree"], f"setup_{k}")
                       for k in range(SETUP_REPEATS)]
            if any(child.code != 0 for child in imports):
                print(f"bench: import ggmtree failed: {(work / 'setup_0.err').read_text()}",
                      file=sys.stderr)
                return 1
            setup = [child.wall for child in imports]
        checker = Checker(runner)
        passes: list[PassResult] = []
        longest = 0.0
        while True:
            start = time.perf_counter()
            for result in runner.run_round(bool(args.trace)):
                checker.check_pass(len(passes), result)
                passes.append(result)
            longest = max(longest, time.perf_counter() - start)
            if time.perf_counter() - began + longest > args.seconds:
                break
    finally:
        runner.close()

    plain = [r for r in passes if r.mode == "plain"]
    print(f"# ggmtree bench: workload {args.workload}, seed {args.seed}, "
          f"{len(cmds)} commands per pass, {len(plain)} untraced, "
          f"{sum(r.traced for r in passes)} traced and "
          f"{sum(r.mode == 'pool' for r in passes)} default-pool passes, "
          f"closed loop with one client")
    print(f"# {env_line()}")
    for i, cmd in enumerate(cmds):
        print(f"#   {cmd.kind} {json.dumps(cmd.model)} {' '.join(cmd.args)} "
              f"(expect exit {cmd.expect}); "
              f"median {statistics.median(r.children[i].wall for r in plain):.3f} s")
    for note in checker.notes:
        print(f"# FAILED {note}")
    if len(passes) == 1:
        print("# no rerun fitted in --seconds, so byte-identical reruns went unchecked")
    print(f"# ops_failed {checker.failed}/{checker.attempted} = "
          f"{checker.failed / checker.attempted:.4f} (ratio of commands)")
    counts = work_counts(cmds, checker)
    if args.trace:
        counts.update(pool_metrics(passes, cmds))
        metrics = layer_report(passes, setup, counts)
    else:
        metrics = end_to_end_report(plain, setup)
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


def work_counts(cmds: list[Command], checker: Checker) -> dict[str, float]:
    """Counts computed from the inputs and from the checked outputs."""
    facts = checker.first_facts
    counts = {
        "measures.configs_enumerated": sum(f.get("configs_enumerated", 0)
                                           for f in facts.values()),
        "measures.residue_vectors": sum(f.get("residue_vectors", 0) for f in facts.values()),
        "bl_solver.beta_points": sum(c.beta_points for c in cmds),
        "cli.rows_out": sum(f.get("rows", 0) for f in facts.values()),
        "cli.bytes_out": sum(checker.first_bytes.values()),
        "bl_solver.iterations": sum(f.get("iterations", 0) for f in facts.values()),
    }
    print("# work counts, computed from the inputs and outputs: "
          + ", ".join(f"{k} {v}" for k, v in counts.items()))
    starts = sum(f.get("starts", 0) for f in facts.values())
    sweep_rows = sum(f["rows"] for i, f in facts.items() if cmds[i].kind == "solve-bl")
    counts["bl_solver.branches_per_start"] = sweep_rows / starts if starts else 0.0
    hit, total = next((f["recall"] for f in facts.values() if "recall" in f), (0, 0))
    counts["bl_solver.branch_recall"] = hit / total if total else 0.0
    if total:
        print(f"# branch_recall {hit}/{total} = {hit / total:.4f} (ratio of exact q=2 "
              f"d=2 SOS laws that solve-bl reports)")
    return counts


def end_to_end_report(plain: list[PassResult], setup: list[float]) -> dict:
    series = {
        "setup_s": (setup, "s"),
        "wall_s": ([r.wall for r in plain], "s"),
        "cpu_s": ([r.cpu for r in plain], "s"),
        "peak_rss_mb": ([r.peak_rss_mb for r in plain], "MiB"),
    }
    metrics = {}
    for name, (values, unit) in series.items():
        q1, med, q3 = quartiles(values)
        print(f"# {name} median {med:.4f} {unit}, quartiles {q1:.4f}..{q3:.4f}, "
              f"n={len(values)}")
        metrics[name] = {"value": med, "unit": unit}
    return metrics


def pool_metrics(passes: list[PassResult], cmds: list[Command]) -> dict[str, float]:
    """The solve-bl commands' time on the program's default thread pool, and
    its ratio to their time on one worker, as medians over passes."""
    solver = [i for i, cmd in enumerate(cmds) if cmd.kind == "solve-bl"]
    pool = [r for r in passes if r.mode == "pool"]
    if not pool:
        return {"cli.solve_bl.pool_wall_s": 0.0, "cli.solve_bl.pool_cpu_s": 0.0,
                "cli.solve_bl.pool_slowdown": 0.0}
    plain = [r for r in passes if r.mode == "plain"]
    pool_wall = statistics.median(sum(r.children[i].wall for i in solver) for r in pool)
    one_wall = statistics.median(sum(r.children[i].wall for i in solver) for r in plain)
    return {"cli.solve_bl.pool_wall_s": pool_wall,
            "cli.solve_bl.pool_cpu_s": statistics.median(
                sum(r.children[i].cpu for i in solver) for r in pool),
            "cli.solve_bl.pool_slowdown": pool_wall / one_wall}


def layer_report(passes: list[PassResult], setup: list[tuple[float, float]],
                 counts: dict[str, float]) -> dict:
    per_pass = []
    missing: set[str] = set()
    for r in passes:
        if r.traced:
            layers, absent = layer_metrics(r.span_files)
            per_pass.append(layers)
            missing.update(absent)
    if missing:
        print(f"# not traced (absent from the package): {', '.join(sorted(missing))}")
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics.update(counts)
    metrics["setup.import_ggmtree_s"] = statistics.median(g for g, _ in setup)
    metrics["setup.import_scipy_s"] = statistics.median(s for _, s in setup)
    metrics["trace.overhead_s"] = (
        statistics.median(r.wall for r in passes if r.traced)
        - statistics.median(r.wall for r in passes if r.mode == "plain"))
    print(f"# per layer: spans are medians of {len(per_pass)} traced passes, "
          f"setup.* of {len(setup)} runs of python -X importtime")
    out = {}
    for name in sorted(metrics):
        if name.endswith("_s"):
            unit = "s"
        elif name == "cli.bytes_out":
            unit = "bytes"
        elif name in ("bl_solver.branches_per_start", "bl_solver.branch_recall",
                      "cli.solve_bl.pool_slowdown"):
            unit = "ratio"
        else:
            unit = "count"
        print(f"# {name} {metrics[name]:.6g} {unit}")
        out[name] = {"value": metrics[name], "unit": unit}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "ggmtree" / "__init__.py").is_file():
        print("bench: run from the root of a ggmtree source checkout "
              "(src/ggmtree/__init__.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".bench_run" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        return measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
