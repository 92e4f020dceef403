import csv
import dataclasses
import io
import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from ggmtree import (
    FiniteTreeVolume,
    IncrementWindow,
    PeriodicBoundaryLaw,
    SOS,
    build_layer_kernel,
    cayley_ball,
    correlation_and_bound,
    find_branches,
    fuzzy_transform,
)
from ggmtree import bl_solver, cli, measures
from ggmtree.cli import main

import brute_force as bf


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(
        {"potential": {"kind": "sos", "beta": 2.0}, "q": 2, "d": 2}))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        header_comment = fh.readline()
        assert header_comment.startswith("# ")
        meta = json.loads(header_comment[2:])
        rows = list(csv.DictReader(fh))
    return meta, rows


class TestSolveBl:
    def test_sweep_detects_branch_count_jump(self, model_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["solve-bl", "--model", model_file, "--beta-min", "1.5",
                     "--beta-max", "2.0", "--beta-step", "0.05",
                     "--out", str(out)])
        assert code == 0
        meta, rows = read_csv(out)
        assert meta["schema_version"] == 1
        counts = {}
        for row in rows:
            counts[row["beta"]] = counts.get(row["beta"], 0) + 1
        beta_c = math.acosh(3.0)
        for beta_text, count in counts.items():
            beta = float(beta_text)
            if beta < beta_c - 0.01:
                assert count == 1, beta
            if beta > beta_c + 0.01:
                assert count == 3, beta

    def test_single_beta_run(self, model_file, tmp_path):
        out = tmp_path / "single.csv"
        assert main(["solve-bl", "--model", model_file, "--out", str(out)]) == 0
        meta, rows = read_csv(out)
        assert {row["branch"] for row in rows} == {"trivial", "upper", "lower"}

    def test_period_one_single_trivial_row(self, tmp_path):
        model = tmp_path / "m1.json"
        model.write_text(json.dumps(
            {"potential": {"kind": "sos", "beta": 2.0}, "q": 1, "d": 2}))
        out = tmp_path / "q1.csv"
        assert main(["solve-bl", "--model", str(model), "--beta-min", "1.5",
                     "--beta-max", "1.7", "--beta-step", "0.1",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(row["branch"] == "trivial" for row in rows)
        assert len(rows) == 3

    def test_malformed_json_exits_2_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"potential": {"kind": "sos",')
        assert main(["solve-bl", "--model", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["solve-bl", "--model", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("lo, hi, step, betas", [
        ("1", "2", "0.6", [1.0, 1.6]),
        ("0.1", "0.2", "0.15", [0.1]),
    ])
    def test_grid_stops_at_beta_max(self, model_file, tmp_path, lo, hi, step, betas):
        out = tmp_path / "sweep.csv"
        assert main(["solve-bl", "--model", model_file, "--beta-min", lo, "--beta-max", hi,
                     "--beta-step", step, "--out", str(out)]) == 0
        meta, rows = read_csv(out)
        assert meta["config"]["betas"] == betas
        assert {float(row["beta"]) for row in rows} == set(betas)


@pytest.mark.parametrize("argv", [
    ["solve-bl", "--beta-min", "1.5", "--beta-max", "2.0", "--beta-step", "0"],
    ["solve-bl", "--beta-min", "1.5", "--beta-max", "2.0", "--beta-step", "-0.05"],
    ["solve-bl", "--beta-min", "2.0", "--beta-max", "1.5"],
    # the damping and the update budget are no flags any more, so argparse
    # refuses them as unrecognized, which exits 2 all the same
    ["solve-bl", "--damping", "0"],
    ["solve-bl", "--damping", "1.5"],
    ["solve-bl", "--max-iter", "-1"],
    ["sample", "--n", "-1"],
    ["sample", "--n", "5", "--depth", "0"],
    ["verify", "--depth", "0"],
    ["solve-bl", "--starts", "-1"],
    ["solve-bl", "--tol", "-1"],
    ["marginal", "--window", "0"],
    ["sample", "--n", "5", "--window", "-1"],
    ["verify", "--window", "0"],
    ["correlation", "--window", "-1"],
    ["chain", "dump", "--window", "0"],
    ["correlation", "--n-max", "0"],
    ["counterexample", "--eps0", "0.1", "--eps1", "0.05", "--kmax", "-2"],
    ["verify", "--perturb", "-1"],
    ["verify", "--perturb", "-3.5"],
    ["verify", "--perturb", "nan"],
    ["marginal", "--perturb", "-1"],
    ["marginal", "--perturb", "nan"],
    ["marginal", "--perturb", "inf"],
    ["solve-bl", "--beta-min", "0", "--beta-max", "1"],
    ["solve-bl", "--beta-min", "-1", "--beta-max", "1"],
    ["critical-beta", "--q", "2", "--d", "2", "--family", "potts"],  # no flag either
    ["verify", "--tol", "-1"],
    ["verify", "--tol", "nan"],
    ["verify", "--tol", "inf"],
    ["solve-bl", "--tol", "inf"],
    ["solve-bl", "--beta-min", "1", "--beta-max", "2", "--beta-step", "inf"],
    ["solve-bl", "--beta-min", "1", "--beta-max", "inf"],
    ["solve-bl", "--beta-min", "1", "--beta-max", "nan"],
    ["solve-bl", "--beta-max", "2", "--beta-min", "-inf"],
], ids=" ".join)
def test_bad_number_exits_2(model_file, argv, capsys):
    k = next(i for i, a in enumerate(argv) if a.startswith("-"))
    model = [] if argv[0] in ("counterexample", "critical-beta") else ["--model", model_file]
    assert main([*argv[:k], *model, *argv[k:]]) == 2
    # rejected for the bad number, not for some other argument
    assert [a for a in argv if a.startswith("--")][-1] in capsys.readouterr().err


SOS2 = {"kind": "sos", "beta": 2.0}
HUGE_TABLE = {"potential": {"kind": "table", "weights": {"0": 1, "1": 1e300}}, "q": 3, "d": 2}


# M is the SOS beta=2 model file; each failure class has its exit code and
# a one-line message, never a traceback
@pytest.mark.parametrize("argv, code, message", [
    (["verify", "--model", "M"], 0, ""),
    (["verify", "--model", "M", "--perturb", "0.1"], 1, ""),
    (["verify", "--model", "M", "--out", "TMP/missing/report.json"], 2, "cannot write"),
    (["verify", "--model", "TMP"], 2, "cannot read the model file"),
    (["sample", "--model", "M", "--n", "2", "--depth", "40"], 2,
     "lower --depth or the degree d"),
    # the sampler's counters i 2**32 + v stay distinct while the sample i and
    # the vertex v are below 2**32: depth 62 is refused in log space, and
    # depth 31, 3 * 2**31 - 2 vertices, by its count
    (["sample", "--model", "M", "--n", "1", "--depth", "62"], 2,
     "a ball of depth 62 and degree 2 has more than 2**32 vertices"),
    (["sample", "--model", "M", "--n", "1", "--depth", "31"], 2,
     "a ball of depth 31 and degree 2 has more than 2**32 vertices"),
    (["sample", "--model", "M", "--n", str(2**32 + 1)], 2,
     "--n 4294967297 is more than 2**32 samples; lower --n"),
    # verify builds nothing of the ball's size, so only a vertex count past
    # the largest double, which its bounds multiply, is refused
    (["verify", "--model", "M", "--depth", "30"], 1, ""),
    (["verify", "--model", "M", "--depth", "62"], 1, ""),
    (["verify", "--model", "M", "--depth", "1023"], 2,
     "a ball of depth 1023 and degree 2 has more than 1.8e308 vertices"),
    (["verify", "--model", "M", "--depth", "1000000"], 2,
     "a ball of depth 1000000 and degree 2 has more than 1.8e308 vertices"),
    (["marginal", "--model", {"potential": SOS2, "q": 2.7, "d": 2}], 2,
     "q must be an integer, got 2.7"),
    (["marginal", "--model", {"potential": SOS2, "q": 2, "d": 2.5}], 2,
     "d must be an integer, got 2.5"),
    (["marginal", "--model", {"potential": {"kind": "sos", "beta": 1e-5}, "q": 2, "d": 2},
      "--branch", "trivial"], 3, "numerical failure: no window"),
    (["verify", "--model", {"potential": {"kind": "sos", "beta": 3.0}, "q": 3, "d": 2},
      "--branch", "upper"], 2, "no solved branch labelled 'upper'"),
    (["marginal", "--model", {"potential": SOS2, "q": 1, "d": 2}, "--perturb", "0.1"], 2,
     "--perturb needs a period of at least 2"),
    (["solve-bl", "--model", "M", "--beta-min", "1.7"], 2,
     "--beta-min and --beta-max must be given together"),
    (["solve-bl", "--model", {"potential": {"kind": "table", "weights": {"0": 1.0, "1": 0.3}},
                              "q": 2, "d": 2}, "--beta-min", "1", "--beta-max", "2"], 2,
     "beta sweeps need an sos or discrete_gaussian potential"),
    (["solve-bl", "--model", "M", "--beta-min", "1", "--beta-max", "1e308",
      "--beta-step", "1e-10"], 2, "the beta grid has more than 1000000 points"),
    (["counterexample", "--eps0", "0.3", "--eps1", "0.1", "--kmax", "512"], 3,
     "numerical failure: the conditional ratio at k = 512"),
    # the closed form's denominator underflows, so it reads inf without raising
    (["counterexample", "--eps0", "0.05", "--eps1", "0.49", "--kmax", "186"], 3,
     "the conditional ratio at k = 186 leaves the range of a double (ratio_closed_form)"),
    (["marginal", "--model", {"potential": {"kind": "table", "weights": {}}, "q": 2, "d": 2}],
     2, "Table needs at least the m=0 weight"),
    (["solve-bl", "--model", {"potential": {"kind": "table", "weights": {"0": 1, "1": "nan"}},
                              "q": 2, "d": 2}], 2, "Table weights must be finite and positive"),
    (["sample", "--model", {"potential": {"kind": "table", "weights": {"0": 1, "1": "inf"}},
                            "q": 2, "d": 2}, "--n", "2", "--branch", "trivial"], 2,
     "Table weights must be finite and positive"),
    # finite weights whose wrapped sums overflow
    (["marginal", "--model", {"potential": {"kind": "table",
                                            "weights": {"0": 1, "1": 1e308, "2": 1e308}},
                              "q": 2, "d": 2}], 3, "numerical failure: the wrapped sum"),
    (["marginal", "--model", {"potential": {"kind": "lifted_potts", "q": 3.5, "beta_tilde": 1.0},
                              "q": 3, "d": 2}], 2, "q must be an integer, got 3.5"),
    (["marginal", "--model", {"potential": SOS2, "q": True, "d": 2}], 2,
     "q must be an integer, got True"),
    # finite wrapped sums whose law map (C 1)**d overflows
    *([[*command, "--model", HUGE_TABLE], 3, "numerical failure: the boundary-law map"]
      for command in (["marginal"], ["verify"], ["sample", "--n", "2"], ["chain", "dump"],
                      ["solve-bl"])),
    # JSON reads 1e400 as inf
    (["solve-bl", "--model", {"potential": {"kind": "sos", "beta": math.inf}, "q": 2, "d": 2}],
     2, "SOS beta must be finite and positive"),
    (["solve-bl", "--model", {"potential": {"kind": "discrete_gaussian", "beta": math.inf},
                              "q": 2, "d": 2}], 2,
     "DiscreteGaussian beta must be finite and positive"),
    (["solve-bl", "--model", {"potential": {"kind": "lifted_potts", "q": 3,
                                            "beta_tilde": math.inf}, "q": 3, "d": 2}], 2,
     "LiftedPotts beta_tilde must be finite and >= 0"),
    (["solve-bl", "--model", {"potential": {"kind": "lifted_potts", "q": 3, "beta_tilde": 1.0,
                                            "tail_beta": math.inf}, "q": 3, "d": 2}], 2,
     "LiftedPotts tail_beta must be finite and positive"),
    # exp(beta_tilde) of the Potts row overflows past beta_tilde = 709.78
    *([[command, "--model", {"potential": {"kind": "lifted_potts", "q": 3,
                                           "beta_tilde": 1000}, "q": 3, "d": 2}], 2,
       "LiftedPotts beta_tilde must be at most 709.78"] for command in ("marginal", "solve-bl")),
    # a geometric tail whose ratio exp(-rate) rounds to 1
    (["marginal", "--model", {"potential": {"kind": "sos", "beta": 1e-300}, "q": 2, "d": 2}], 3,
     "numerical failure: the geometric tail of SOS(beta=1e-300) has a ratio that rounds to 1"),
    (["solve-bl", "--model", {"potential": {"kind": "sos", "beta": 1e-20}, "q": 2, "d": 2}], 3,
     "numerical failure: the geometric tail of SOS(beta=1e-20)"),
    (["marginal", "--model", {"potential": {"kind": "discrete_gaussian", "beta": 1e-300},
                              "q": 3, "d": 3}], 3,
     "numerical failure: the geometric tail of DiscreteGaussian(beta=1e-300)"),
    (["marginal", "--model", {"potential": {"kind": "lifted_potts", "q": 3, "beta_tilde": 1.0,
                                            "tail_beta": 1e-300}, "q": 3, "d": 2}], 3,
     "numerical failure: the geometric tail of LiftedPotts(tail_beta=1e-300)"),
], ids=["ok", "verification", "unwritable-out", "model-is-a-directory", "oversized-volume",
        "sample-ball-past-2**32-in-log-space", "sample-ball-past-2**32-vertices",
        "sample-n-past-2**32", "verify-depth-30", "verify-depth-62",
        "verify-ball-past-a-double", "verify-depth-1000000", "fractional-q",
        "fractional-d", "no-certified-window", "no-such-branch",
        "perturb-period-1", "half-a-sweep", "sweep-of-a-table", "beta-grid-overflows",
        "counterexample-overflows", "counterexample-not-finite", "empty-table",
        "nan-weight", "inf-weight", "wrapped-sum-overflows", "fractional-lift-q",
        "boolean-q", "law-map-overflows-marginal", "law-map-overflows-verify",
        "law-map-overflows-sample", "law-map-overflows-chain-dump",
        "law-map-overflows-solve-bl", "infinite-sos-beta", "infinite-gaussian-beta",
        "infinite-beta-tilde", "infinite-tail-beta", "beta-tilde-overflows-marginal",
        "beta-tilde-overflows-solve-bl", "sos-tail-ratio-rounds-to-1", "sos-beta-1e-20",
        "gaussian-tail-ratio-rounds-to-1", "potts-tail-ratio-rounds-to-1"])
def test_exit_code_of_each_failure_class(model_file, tmp_path, capsys, argv, code, message):
    def resolve(arg):
        if isinstance(arg, dict):
            path = tmp_path / "model-arg.json"
            path.write_text(json.dumps(arg))
            return str(path)
        return {"M": model_file}.get(arg, arg.replace("TMP", str(tmp_path)))

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the case
        assert main([resolve(arg) for arg in argv]) == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err and err.count("\n") <= 1


def test_beta_grid_cap_stops_before_any_solve(model_file, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran on a grid over the cap")

    monkeypatch.setattr(bl_solver, "find_branches", no_solve)
    # (1000001 - 1) / 1 + 1 = 10^6 + 1 points, one past the cap
    assert main(["solve-bl", "--model", model_file, "--beta-min", "1",
                 "--beta-max", "1000001", "--beta-step", "1"]) == 2
    assert "the beta grid has more than 1000000 points" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify", "--depth", "16"], ["sample", "--n", "9"]],
                         ids=["verify", "sample"])
def test_unwritable_out_fails_before_the_work(model_file, tmp_path, capsys, monkeypatch,
                                              argv):
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran before checking --out")

    monkeypatch.setattr(bl_solver, "find_branches", no_work)
    out = str(tmp_path / "missing" / "x.json")
    assert main([*argv, "--model", model_file, "--out", out]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_failed_command_leaves_out_as_found(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"potential": SOS2, "q": 2.7, "d": 2}))
    kept, absent = tmp_path / "kept.json", tmp_path / "absent.json"
    kept.write_bytes(b"earlier bytes\n")
    for out in (kept, absent):
        assert main(["verify", "--model", str(bad), "--out", str(out)]) == 2
    assert kept.read_bytes() == b"earlier bytes\n"
    assert not absent.exists()
    assert "q must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve-bl", "--model", "M", "--beta-min", "1.7", "--beta-max", "1.8"],
    ["critical-beta", "--q", "2", "--d", "3"],
    ["marginal", "--model", "M", "--perturb", "0.2"],
    ["sample", "--model", "M", "--n", "20", "--depth", "2", "--seed", "9"],
    ["verify", "--model", "M", "--depth", "1"],
    ["correlation", "--model", "M", "--n-max", "3"],
    ["counterexample", "--eps0", "0.1", "--eps1", "0.05", "--kmax", "4"],
    ["chain", "dump", "--model", "M", "--window", "4"],
], ids=lambda argv: " ".join(argv[:2]))
def test_rerun_is_byte_identical(model_file, argv, tmp_path):
    argv = [model_file if a == "M" else a for a in argv]
    outs = [tmp_path / "a.out", tmp_path / "b.out"]
    for out in outs:
        assert main([*argv, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_zero_starts_still_yield_the_trivial_law(model_file, tmp_path):
    out = tmp_path / "starts0.csv"
    assert main(["solve-bl", "--model", model_file, "--starts", "0", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [row["branch"] for row in rows] == ["trivial"]


def test_auto_branch_ignores_report_order_and_rounding(monkeypatch):
    # SOS beta=3, q=3: (1, 1, 324.9) and (1, 324.9, 1) tie in max |a - 1|
    op = SOS(3.0)
    reports = find_branches(op, 3, 2)
    want, _ = cli._select_law(op, 3, 2, "auto", 1e-10)
    far = [max(abs(v - 1.0) for v in rep.solution.a) for rep in reports]
    tied = [k for k, f in enumerate(far) if f >= max(far) * (1.0 - 1e-9)]
    assert len(tied) == 2
    for k in tied:
        a = reports[k].solution.a
        noisy = PeriodicBoundaryLaw(3, (1.0, *(v * (1.0 + 1e-13) for v in a[1:])))
        for permuted in (reports[::-1], reports[1:] + reports[:1]):
            shown = [dataclasses.replace(rep, solution=noisy) if rep is reports[k] else rep
                     for rep in permuted]
            monkeypatch.setattr(bl_solver, "find_branches", lambda *_, **__: shown)
            got, _ = cli._select_law(op, 3, 2, "auto", 1e-10)
            assert got.a == pytest.approx(want.a, rel=1e-9)


class TestCriticalBeta:
    def test_values(self, tmp_path, capsys):
        assert main(["critical-beta", "--q", "3", "--d", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["critical_beta"] == pytest.approx(
            math.acosh(1.0 + math.sqrt(2.0)), abs=1e-10)

    def test_unsupported_period_is_config_error(self):
        assert main(["critical-beta", "--q", "9", "--d", "2"]) == 2


def test_fixed_settings_are_in_the_meta_lines(model_file, tmp_path, capsys):
    # the solver's damping and update budget and the critical-beta family
    # are fixed, and the meta lines record them as their flags did
    out = tmp_path / "laws.csv"
    assert main(["solve-bl", "--model", model_file, "--out", str(out)]) == 0
    config = read_csv(out)[0]["config"]
    assert (config["damping"], config["max_iter"]) == (bl_solver.DAMPING, bl_solver.MAX_ITER)
    assert (repr(config["damping"]), repr(config["max_iter"])) == ("0.7", "5000")
    assert main(["critical-beta", "--q", "2", "--d", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["family"] == "sos"
    for argv in (["solve-bl", "--model", model_file, "--damping", "0.5"],
                 ["solve-bl", "--model", model_file, "--max-iter", "10"],
                 ["critical-beta", "--q", "2", "--d", "2", "--family", "sos"]):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["marginal"], ["verify"], ["sample", "--n", "3"], ["correlation"], ["chain", "dump"],
], ids=" ".join)
def test_underflowing_q1_exits_2_from_every_model_command(tmp_path, capsys, argv):
    # exp(-800) underflows, so the fuzzy chain of SOS beta=800 cannot move
    path = tmp_path / "sos800.json"
    path.write_text(json.dumps({"potential": {"kind": "sos", "beta": 800.0}, "q": 2, "d": 2}))
    assert main([*argv, "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("configuration error: Q(1) underflows to 0, so the layers "
                            "never change and the fuzzy chain is reducible\n")


def test_invalid_tail_beta_exits_2(tmp_path, capsys):
    path = tmp_path / "fat_tail.json"
    path.write_text(json.dumps({"potential": {"kind": "lifted_potts", "q": 3,
                                              "beta_tilde": 2.0, "tail_beta": 0.1},
                                "q": 3, "d": 2}))
    assert main(["marginal", "--model", str(path)]) == 2
    assert "minimal admissible tail_beta is about 1.17" in capsys.readouterr().err


POTTS_Q5 = {"potential": {"kind": "lifted_potts", "q": 5, "beta_tilde": 1.0}, "q": 5, "d": 2}


class TestManualWindowOnLiftedPotts:
    """``--window`` on an untailed lifted Potts operator (support |m| <= 2
    at q = 5) declares the tail it actually drops."""

    def test_window_below_support_declares_the_dropped_tail(self, tmp_path):
        argv = ["chain", "dump", "--model", _model(tmp_path, POTTS_Q5), "--window", "1"]
        assert main([*argv, "--out", str(tmp_path / "chain.json")]) == 0
        kernel = cli._setup(cli.build_parser().parse_args(argv), "chain dump")[3]
        # the trivial law: every row drops the same mass, the weights at |m| = 2
        assert kernel.window.tail_mass_bound == pytest.approx(
            kernel.deficits.max(), rel=1e-12, abs=0.0)
        assert kernel.deficits.max() > 0.29

    def test_window_at_support_is_the_certified_window(self, tmp_path, capsys):
        path = _model(tmp_path, POTTS_Q5)
        assert main(["chain", "dump", "--model", path, "--window", "2"]) == 0
        manual = capsys.readouterr().out
        assert main(["chain", "dump", "--model", path]) == 0
        assert capsys.readouterr().out == manual

    def test_window_past_support_passes_verify(self, tmp_path):
        # Q(z) = 0 beyond the support, so both flows of detailed balance are
        # 0 there and homogeneity must skip those pairs, not divide 0 by 0
        out = tmp_path / "verify.json"
        assert main(["verify", "--model", _model(tmp_path, POTTS_Q5), "--window", "4",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["checks"]["homogeneity"]["violation"] < 1e-14


class TestVerify:
    def test_solved_law_passes(self, model_file, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--model", model_file, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert all(c["pass"] for c in payload["checks"].values())

    def test_perturbed_law_fails_consistency_checks(self, model_file, tmp_path):
        out = tmp_path / "verify_bad.json"
        assert main(["verify", "--model", model_file, "--perturb", "0.1",
                     "--out", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert payload["pass"] is False
        checks = payload["checks"]
        assert not checks["consistency"]["pass"]
        assert checks["consistency"]["violation"] > 1e-3
        assert not checks["restricted_conditional"]["pass"]
        assert checks["restricted_conditional"]["violation"] > 1e-3
        assert not checks["dual_representation_pinned"]["pass"]

    @pytest.mark.parametrize("model, depth", [
        ({"potential": {"kind": "sos", "beta": 0.3}, "q": 2, "d": 2}, "2"),  # cutoff 92
        ({"potential": {"kind": "sos", "beta": 2.0}, "q": 4, "d": 5}, "1"),
    ], ids=["sos-beta0.3-depth2", "q4-d5-depth1"])
    def test_wide_windows_and_high_degree_pass(self, model, depth, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert main(["verify", "--model", str(path), "--depth", depth,
                     "--out", str(tmp_path / "verify.json")]) == 0

    @pytest.mark.parametrize("model, depth", [
        ({"potential": {"kind": "sos", "beta": 2.0}, "q": 2, "d": 2}, "4"),  # 2^45 residues
        ({"potential": {"kind": "sos", "beta": 3.0}, "q": 6, "d": 2}, "2"),  # 6^9 residues
    ], ids=["depth4", "q6-depth2"])
    def test_deep_and_wide_volumes_pass(self, model, depth, tmp_path):
        # volumes whose residue vectors no scan could visit
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert main(["verify", "--model", str(path), "--depth", depth,
                     "--out", str(tmp_path / "verify.json")]) == 0

    @pytest.mark.parametrize("depth", range(2, 11))
    def test_perturbed_law_fails_at_every_depth(self, model_file, depth, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--model", model_file, "--perturb", "0.1",
                     "--depth", str(depth), "--out", str(out)]) == 1
        checks = json.loads(out.read_text())["checks"]
        # the difference shrinks with the volume, the ratio does not
        for name in ("dual_representation_pinned", "dual_representation_mixture"):
            assert not checks[name]["pass"]
            assert checks[name]["violation"] > 1e-2

    def test_small_perturbation_fails_deep_volumes(self, model_file, tmp_path):
        # a difference bound reads 0.0 here, the ratio bound about 1
        out = tmp_path / "verify.json"
        assert main(["verify", "--model", model_file, "--branch", "upper", "--perturb", "1e-3",
                     "--depth", "14", "--out", str(out)]) == 1
        checks = json.loads(out.read_text())["checks"]
        for name in ("dual_representation_pinned", "dual_representation_mixture"):
            assert checks[name]["violation"] >= 0.9

    def test_overflowed_bound_is_strict_json(self, model_file, tmp_path):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        out = tmp_path / "verify.json"
        assert main(["verify", "--model", model_file, "--depth", "8", "--perturb", "100",
                     "--branch", "upper", "--out", str(out)]) == 1
        checks = json.loads(out.read_text(), parse_constant=reject)["checks"]
        for name in ("dual_representation_pinned", "dual_representation_mixture"):
            assert checks[name]["violation"] == "inf"
            assert checks[name]["pass"] is False

    def test_overflowed_tolerance_is_strict_json(self, tmp_path):
        # 3 * 2**1022 - 3 edges, each missing a tail bound above 1.3 at
        # cutoff 1, give a windowed-mass tolerance past the largest double
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        model, out = tmp_path / "model.json", tmp_path / "verify.json"
        model.write_text(json.dumps({"potential": {"kind": "sos", "beta": 0.1}, "q": 2, "d": 2}))
        assert main(["verify", "--model", str(model), "--window", "1", "--perturb", "100",
                     "--branch", "trivial", "--depth", "1022", "--out", str(out)]) == 1
        check = json.loads(out.read_text(), parse_constant=reject)["checks"]["windowed_mass"]
        assert check["tolerance"] == "inf" and check["pass"] is True

    @pytest.mark.parametrize("depth", ["35", "40", "62"])
    def test_overflowed_windowed_mass_is_a_failure_report(self, tmp_path, depth):
        # the windowed mass of this law grows with the ball, to 4.5e9 at
        # depth 35 and past the largest double from depth 39
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        out = tmp_path / "verify.json"
        model = _model(tmp_path, {"potential": {"kind": "sos", "beta": 3.0}, "q": 6, "d": 3})
        assert main(["verify", "--model", model, "--depth", depth, "--out", str(out)]) == 1
        check = json.loads(out.read_text(), parse_constant=reject)["checks"]["windowed_mass"]
        assert check["pass"] is False
        assert (check["violation"] == "inf") == (depth != "35")

    def test_report_names_method_and_relative_bounds(self, model_file, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--model", model_file, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == cli.VERIFY_SCHEMA_VERSION == 6
        methods = {name: c["method"] for name, c in payload["checks"].items()}
        assert {name for name, m in methods.items() if m == "exact"} == {
            "boundary_law_residual", "stationarity", "reversibility", "windowed_mass"}
        assert {name for name, m in methods.items() if m == "certificate"} == {
            "dual_representation_pinned", "dual_representation_mixture", "consistency",
            "homogeneity", "restricted_conditional"}
        for c in payload["checks"].values():
            assert set(c) == {"violation", "tolerance", "method", "pass"}
            assert c["pass"] and c["violation"] <= c["tolerance"]

    def test_verify_draws_no_random_numbers(self, model_file, tmp_path, fresh_python):
        # a regression guard: no check samples, so numpy.random stays unloaded
        script = ("import sys\n"
                  "from ggmtree.cli import main\n"
                  f"code = main(['verify', '--model', {model_file!r}, '--depth', '3',"
                  f" '--out', {str(tmp_path / 'v.json')!r}])\n"
                  "print(code, 'numpy.random' in sys.modules)\n")
        run = fresh_python(["-c", script])
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["0", "False"]

    def test_deep_ball_allocates_nothing_of_its_size(self, model_file):
        # 3 * 2**40 - 2 vertices: the radial pass holds one row per level
        tracemalloc.start()
        try:
            assert main(["verify", "--model", model_file, "--depth", "40",
                         "--out", os.devnull]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_trivial_branch_passes_at_tight_tolerance(self, model_file, tmp_path):
        out = tmp_path / "verify_trivial.json"
        assert main(["verify", "--model", model_file, "--branch", "trivial",
                     "--tol", "1e-11", "--out", str(out)]) == 0

    @pytest.mark.parametrize("depth, argv, tolerance", [
        (2, [], 1e-9),
        (10, [], 3069 * 1e-12),
        (12, ["--branch", "upper"], 12285 * 1e-12),
        (14, ["--branch", "upper"], 49149 * 1e-12),
    ])
    def test_windowed_mass_tolerance_is_the_union_bound(self, model_file, tmp_path,
                                                        depth, argv, tolerance):
        # each of the 3 (2**depth - 1) edges may miss the window's tail bound
        out = tmp_path / "verify.json"
        assert main(["verify", "--model", model_file, "--depth", str(depth), *argv,
                     "--out", str(out)]) == 0
        check = json.loads(out.read_text())["checks"]["windowed_mass"]
        assert check["tolerance"] == tolerance
        assert check["pass"]

    def test_manual_window_tolerance_scales_with_the_edges(self, model_file, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--model", model_file, "--window", "3",
                     "--out", str(out)]) == 0
        check = json.loads(out.read_text())["checks"]["windowed_mass"]
        law = cli._select_law(SOS(2.0), 2, 2, "auto", 1e-12)[0]
        window = IncrementWindow.manual(SOS(2.0), 3, law)
        assert check["tolerance"] == 9 * window.tail_mass_bound


class TestSample:
    def test_deterministic_byte_identical(self, model_file, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["sample", "--model", model_file, "--n", "50",
                         "--seed", "11", "--depth", "1", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, model_file, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["sample", "--model", model_file, "--n", "50", "--seed", "1",
                     "--depth", "1", "--out", str(a)]) == 0
        assert main(["sample", "--model", model_file, "--n", "50", "--seed", "2",
                     "--depth", "1", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_rows_are_the_batch_sample_major(self, model_file, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["sample", "--model", model_file, "--n", "3", "--depth", "1",
                     "--seed", "5", "--branch", "upper", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        op = SOS(2.0)
        law = next(r.solution for r in find_branches(op, 2, 2, tol=1e-10)
                   if r.branch_label == "upper")
        kernel = build_layer_kernel(op, law, IncrementWindow.for_model(op, law))
        volume = cayley_ball(2, 1)
        batch = bf.library_batch(kernel, fuzzy_transform(kernel), volume, 3, 5)
        assert [(r["sample"], r["edge"], r["increment"]) for r in rows] == [
            (str(i), f"{bf.tree(volume).parents[e + 1]}>{e + 1}", str(batch[i, e]))
            for i in range(3) for e in range(volume.n_edges)]

    def test_zero_samples_header_only(self, model_file, tmp_path):
        out = tmp_path / "empty.csv"
        assert main(["sample", "--model", model_file, "--n", "0",
                     "--out", str(out)]) == 0
        meta, rows = read_csv(out)
        assert rows == []
        assert meta["config"]["n"] == 0
        assert meta["schema_version"] == cli.SAMPLE_SCHEMA_VERSION == 2

    def test_fewer_samples_are_the_first_rows(self, model_file, tmp_path):
        few, many = tmp_path / "few.csv", tmp_path / "many.csv"
        for n, out in ((3, few), (40, many)):
            assert main(["sample", "--model", model_file, "--n", str(n), "--depth", "3",
                         "--seed", "9", "--out", str(out)]) == 0
        rows = read_csv(few)[1]
        assert read_csv(many)[1][:len(rows)] == rows

    def test_memory_does_not_grow_with_n(self, model_file):
        # the blocks of samples are encoded and written as they are drawn,
        # so ten times the samples need no more memory
        peaks = []
        for n in (20_000, 200_000):
            tracemalloc.start()
            try:
                assert main(["sample", "--model", model_file, "--n", str(n),
                             "--out", os.devnull]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    def test_deep_ball_needs_little_more_than_its_label_table(self, model_file):
        # one sample of 196605 edges: the ,x>y, table takes about 70 bytes
        # an edge, the block one byte, and the draws and the text are bounded
        # by DRAW_BLOCK and CHUNK_ROWS (the edge list and a whole-ball draw
        # took about 220 bytes an edge)
        tracemalloc.start()
        try:
            assert main(["sample", "--model", model_file, "--n", "1", "--depth", "16",
                         "--out", os.devnull]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 120 * cayley_ball(2, 16).n_edges

    def test_sample_leaves_numpy_random_unloaded(self, model_file, tmp_path, fresh_python):
        # the counter-based stream needs no numpy.random
        script = ("import sys\n"
                  "from ggmtree.cli import main\n"
                  f"code = main(['sample', '--model', {model_file!r}, '--n', '100',"
                  f" '--out', {str(tmp_path / 's.csv')!r}])\n"
                  "print(code, 'numpy.random' in sys.modules)\n")
        run = fresh_python(["-c", script])
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["0", "False"]


def _model(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


SOS_Q3 = {"potential": {"kind": "sos", "beta": 3.0}, "q": 3, "d": 2}
# the lifted Potts window has cutoff 1
POTTS_Q3 = {"potential": {"kind": "lifted_potts", "q": 3, "beta_tilde": 2.0}, "q": 3, "d": 2}
# depth 2 has 9 edges, so ONE_CHUNK samples fill exactly one chunk of text
ONE_CHUNK = cli.CHUNK_ROWS // 9


class TestSampleEncoding:
    """``sample`` writes the bytes of the ``csv.writer`` rows of the
    per-edge sampler (``brute_force.sample_csv``)."""

    @pytest.mark.parametrize("model, argv", [
        (None, ["--n", "0"]),
        (None, ["--n", "1"]),
        (None, ["--n", "7", "--seed", "3"]),
        (None, ["--n", str(ONE_CHUNK - 1), "--seed", "4"]),
        (None, ["--n", str(ONE_CHUNK), "--seed", "4"]),
        (None, ["--n", str(ONE_CHUNK + 1), "--seed", "4"]),
        (None, ["--n", "40", "--depth", "1", "--seed", "5"]),
        (None, ["--n", "40", "--depth", "4", "--seed", "5"]),
        (None, ["--n", "60", "--window", "1", "--seed", "6"]),
        (SOS_Q3, ["--n", "60", "--depth", "3", "--seed", "7"]),
        (POTTS_Q3, ["--n", "60", "--depth", "3", "--seed", "7"]),
    ])
    def test_bytes_equal_csv_writer_rows(self, model_file, tmp_path, model, argv):
        argv = ["--model", model_file if model is None else _model(tmp_path, model), *argv]
        out = tmp_path / "rows.csv"
        assert main(["sample", *argv, "--out", str(out)]) == 0
        assert out.read_bytes() == bf.sample_csv(argv).encode()

    def test_one_byte_rows_index_without_wrapping(self):
        # at cutoff 120, batch + cutoff overflows int8 for every increment
        # above 7; the sample numbers run on across the two blocks
        z = np.arange(-120, 121, dtype=np.int8)
        batch = np.stack([z, z[::-1], z]).T
        volume = cayley_ball(2, 1)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            (i, label, v) for i, row in enumerate(batch.tolist())
            for label, v in zip(["0>1", "0>2", "0>3"], row))
        assert "".join(cli._sample_rows([batch[:100], batch[100:]], volume, 120)) == \
            buf.getvalue()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_edge_table_names_each_edges_parent(self, d):
        for radius in range(1, 6):
            volume = cayley_ball(d, radius)
            assert cli._edge_table(volume).tolist() == [
                f",{x}>{y}," for x, y in bf.directed_edges(volume)]

    def test_stdout_equals_out_file(self, model_file, tmp_path, capsys):
        argv = ["sample", "--model", model_file, "--n", "500", "--seed", "8"]
        out = tmp_path / "rows.csv"
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()


# the d = 3 forms of the models above
SOS_Q2_D3 = {"potential": {"kind": "sos", "beta": 2.0}, "q": 2, "d": 3}
SOS_Q3_D3 = dict(SOS_Q3, d=3)
POTTS_Q3_D3 = dict(POTTS_Q3, d=3)


class TestSmallChunksAndRanges:
    """With ``CHUNK_ROWS`` 5, a chunk holds part of one sample's edges, and
    with ``DRAW_BLOCK`` 7, a block one sample, drawn in ranges of 7
    vertices. On these balls some chunk ends at a level start (edge 45 at
    d = 2, 160 at d = 3) and every split level ends a range between two
    siblings, 7 being prime to d."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("model", [
        {"potential": {"kind": "sos", "beta": 2.0}, "q": 2, "d": 2}, SOS_Q3, POTTS_Q3,
        SOS_Q2_D3, SOS_Q3_D3, POTTS_Q3_D3,
    ], ids=["sos-q2-d2", "sos-q3-d2", "potts-q3-d2", "sos-q2-d3", "sos-q3-d3", "potts-q3-d3"])
    @pytest.mark.parametrize("depth", [4, 5, 6])
    def test_bytes_equal_csv_writer_rows(self, tmp_path, monkeypatch, model, depth, n):
        monkeypatch.setattr(cli, "CHUNK_ROWS", 5)
        monkeypatch.setattr(measures, "DRAW_BLOCK", 7)
        argv = ["--model", _model(tmp_path, model), "--n", str(n), "--depth", str(depth),
                "--seed", "13"]
        out = tmp_path / "rows.csv"
        assert main(["sample", *argv, "--out", str(out)]) == 0
        assert out.read_bytes() == bf.sample_csv(argv).encode()

    @pytest.mark.parametrize("d, edge", [(2, 45), (3, 160)])
    def test_a_chunk_ends_at_a_level_start(self, d, edge):
        starts = cayley_ball(d, 5).starts
        assert edge % 5 == 0 and edge + 1 in starts

    def test_chunks_hold_at_most_chunk_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "CHUNK_ROWS", 5)
        block = np.zeros((3, 21), dtype=np.int8)
        chunks = list(cli._sample_rows([block], cayley_ball(2, 3), 1))
        assert [chunk.count("\n") for chunk in chunks] == [5, 5, 5, 5, 1] * 3


class TestTables:
    def test_marginal_json(self, model_file, tmp_path):
        out = tmp_path / "marginal.json"
        assert main(["marginal", "--model", model_file, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        probs = [float(v) for v in payload["single_bond"].values()]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        assert payload["schema_version"] == 1

    def test_chain_dump(self, model_file, tmp_path):
        out = tmp_path / "chain.json"
        assert main(["chain", "dump", "--model", model_file, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        matrix = payload["fuzzy_matrix"]
        assert len(matrix) == 2
        assert sum(matrix[0]) == pytest.approx(1.0, abs=1e-12)
        for row in payload["kernel_rows"].values():
            assert sum(float(v) for v in row.values()) == pytest.approx(1.0, abs=1e-12)
        assert sum(payload["alpha"]) == pytest.approx(1.0, abs=1e-12)

    def test_correlation_csv(self, model_file, tmp_path):
        out = tmp_path / "corr.csv"
        assert main(["correlation", "--model", model_file, "--n-max", "5",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [row["n"] for row in rows] == ["1", "2", "3", "4", "5"]
        for row in rows:
            assert abs(float(row["covariance"])) <= float(row["bound"])

    # SOS beta=3 at q=6, d=3 catches a strided flat vector, which moves the
    # last digits of every row
    @pytest.mark.parametrize("doc", [
        {"potential": {"kind": "sos", "beta": 2.0}, "q": 2, "d": 2},
        {"potential": {"kind": "sos", "beta": 3.0}, "q": 6, "d": 3},
    ], ids=["sos2-q2-d2", "sos3-q6-d3"])
    def test_correlation_rows_are_the_path_volume_events(self, tmp_path, doc):
        model = _model(tmp_path, doc)
        out = tmp_path / "corr.csv"
        argv = ["correlation", "--model", model, "--n-max", "60"]
        assert main([*argv, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        *_, kernel, chain, _ = cli._setup(cli.build_parser().parse_args(argv), "correlation")
        for n, row in enumerate(rows, 1):
            pA, pB = bf.flat_bond_probs(kernel, n, doc["d"])
            cov, bound = correlation_and_bound(chain, pA, pB, n)
            assert row == {"n": str(n), "covariance": repr(cov), "bound": repr(bound)}

    def test_correlation_builds_no_volume(self, model_file, tmp_path, monkeypatch):
        def no_volume(*args, **kwargs):
            raise AssertionError("correlation built a tree volume")

        monkeypatch.setattr(FiniteTreeVolume, "__init__", no_volume)
        assert main(["correlation", "--model", model_file, "--n-max", "50",
                     "--out", str(tmp_path / "corr.csv")]) == 0

    def test_counterexample_csv_monotone(self, tmp_path):
        out = tmp_path / "ce.csv"
        assert main(["counterexample", "--eps0", "0.1", "--eps1", "0.05",
                     "--kmax", "12", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        ratios = [float(r["ratio_closed_form"]) for r in rows]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        for row in rows:
            closed = float(row["ratio_closed_form"])
            enum = float(row["ratio_enumerated"])
            assert abs(closed - enum) <= 1e-10 * closed

    def test_counterexample_rejects_equal_rates(self):
        assert main(["counterexample", "--eps0", "0.1", "--eps1", "0.1"]) == 2
