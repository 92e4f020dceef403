import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ggmtree
from ggmtree import (
    GGMSpec,
    IncrementWindow,
    PeriodicBoundaryLaw,
    SOS,
    build_layer_kernel,
    cayley_ball,
    find_branches,
    fuzzy_transform,
    sample_ggm_batch,
)
from ggmtree import bl_solver, cli
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


@pytest.mark.parametrize("argv", [
    ["solve-bl", "--beta-min", "1.5", "--beta-max", "2.0", "--beta-step", "0"],
    ["solve-bl", "--beta-min", "1.5", "--beta-max", "2.0", "--beta-step", "-0.05"],
    ["solve-bl", "--beta-min", "2.0", "--beta-max", "1.5"],
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
    ["critical-beta", "--q", "2", "--d", "2", "--family", "potts"],
    ["verify", "--tol", "-1"],
    ["verify", "--tol", "nan"],
], ids=" ".join)
def test_bad_number_exits_2(model_file, argv, capsys):
    k = next(i for i, a in enumerate(argv) if a.startswith("-"))
    model = [] if argv[0] in ("counterexample", "critical-beta") else ["--model", model_file]
    assert main([*argv[:k], *model, *argv[k:]]) == 2
    # rejected for the bad number, not for some other argument
    assert [a for a in argv if a.startswith("--")][-1] in capsys.readouterr().err


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
            assert checks[name]["relative_violation"] > 1e-2

    def test_report_names_method_and_relative_bounds(self, model_file, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--model", model_file, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == cli.VERIFY_SCHEMA_VERSION == 2
        methods = {name: c["method"] for name, c in payload["checks"].items()}
        assert {name for name, m in methods.items() if m == "exact"} == {
            "boundary_law_residual", "stationarity", "reversibility", "windowed_mass"}
        assert set(methods.values()) == {"exact", "certificate"}
        relative = {name for name, c in payload["checks"].items()
                    if "relative_violation" in c}
        assert relative == {"dual_representation_pinned", "dual_representation_mixture",
                            "consistency"}
        for name in relative:
            c = payload["checks"][name]
            assert c["violation"] <= c["relative_violation"] <= c["tolerance"]

    def test_verify_draws_no_random_numbers(self, model_file, tmp_path):
        # a regression guard: no check samples, so numpy.random stays unloaded
        src = str(Path(ggmtree.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        script = ("import sys\n"
                  "from ggmtree.cli import main\n"
                  f"code = main(['verify', '--model', {model_file!r}, '--depth', '3',"
                  f" '--out', {str(tmp_path / 'v.json')!r}])\n"
                  "print(code, 'numpy.random' in sys.modules)\n")
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["0", "False"]

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
        batch = sample_ggm_batch(GGMSpec(kernel, fuzzy_transform(kernel), volume), 3, 5)
        assert [(r["sample"], r["edge"], r["increment"]) for r in rows] == [
            (str(i), f"{x}>{y}", str(batch[i, e]))
            for i in range(3) for e, (x, y) in enumerate(volume.directed_edges)]

    def test_zero_samples_header_only(self, model_file, tmp_path):
        out = tmp_path / "empty.csv"
        assert main(["sample", "--model", model_file, "--n", "0",
                     "--out", str(out)]) == 0
        meta, rows = read_csv(out)
        assert rows == []
        assert meta["config"]["n"] == 0


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

    def test_stdout_equals_out_file(self, model_file, tmp_path, capsys):
        argv = ["sample", "--model", model_file, "--n", "500", "--seed", "8"]
        out = tmp_path / "rows.csv"
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()


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
