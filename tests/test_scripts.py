import json
from pathlib import Path

import pytest

from ggmtree import critical_beta
from ggmtree.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


# every script writes the CLI's CSV, whose first line is "# {meta}"
@pytest.mark.parametrize("script, args, header", [
    ("bifurcation_sweep.py", ["--halfwidth", "0.02", "--step", "0.01"],
     "beta,branch,a_0,a_1,residual,iterations"),
    ("correlation_decay.py", ["--n-max", "3"], "n,covariance,bound"),
    ("counterexample_scan.py", ["--kmax", "3"], "k,ratio_closed_form,ratio_enumerated"),
], ids=["bifurcation_sweep", "correlation_decay", "counterexample_scan"])
def test_script_writes_its_csv(script, args, header, tmp_path, fresh_python):
    out = tmp_path / "out.csv"
    run = fresh_python([str(SCRIPTS / script), *args, "--out", str(out)])
    assert run.returncode == 0, run.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == header
    assert len(lines) > 2


def _sos_model(tmp_path, beta, q=2, d=2):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"potential": {"kind": "sos", "beta": beta}, "q": q, "d": d}))
    return str(path)


def test_bifurcation_sweep_is_solve_bl(tmp_path, fresh_python):
    out = tmp_path / "out.csv"
    run = fresh_python([str(SCRIPTS / "bifurcation_sweep.py"), "--halfwidth", "0.02",
                        "--step", "0.01", "--out", str(out)])
    assert run.returncode == 0, run.stderr
    # at beta_c itself the flat well folds onto one law
    assert run.stdout.splitlines()[:2] == ["analytic onset  beta_c = 1.762747",
                                           "detected onset  beta   = 1.772747"]
    beta_c = critical_beta(2, 2)
    cli_out = tmp_path / "cli.csv"
    assert main(["solve-bl", "--model", _sos_model(tmp_path, beta_c),
                 "--beta-min", repr(beta_c - 0.02), "--beta-max", repr(beta_c + 0.02),
                 "--beta-step", "0.01", "--out", str(cli_out)]) == 0
    assert out.read_bytes() == cli_out.read_bytes()


def test_correlation_decay_is_correlation(tmp_path, fresh_python):
    out = tmp_path / "out.csv"
    run = fresh_python([str(SCRIPTS / "correlation_decay.py"), "--n-max", "3",
                        "--out", str(out)])
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("second eigenvalue modulus delta = 0.362031 ")
    cli_out = tmp_path / "cli.csv"
    assert main(["correlation", "--model", _sos_model(tmp_path, 2.0), "--branch", "upper",
                 "--n-max", "3", "--out", str(cli_out)]) == 0
    assert out.read_bytes() == cli_out.read_bytes()


# each error names the script's flag or the model it was given, never a flag
# of the CLI command it runs or the temporary model file
@pytest.mark.parametrize("script, args, named", [
    ("bifurcation_sweep.py", ["--q", "2", "--d", "1"], "need d >= 2"),
    ("bifurcation_sweep.py", ["--q", "5"], "q = 5"),
    ("bifurcation_sweep.py", ["--step", "0"], "argument --step:"),
    ("bifurcation_sweep.py", ["--halfwidth", "-1"], "argument --halfwidth:"),
    ("bifurcation_sweep.py", ["--step", "1e-9"], "raise --step or lower --halfwidth"),
    ("correlation_decay.py", ["--n-max", "0"], "argument --n-max:"),
    ("correlation_decay.py", ["--beta", "-1"], "argument --beta:"),
    # below the onset: no upper law
    ("correlation_decay.py", ["--beta", "1.0"], "no solved branch labelled 'upper'"),
], ids=["sweep-d1", "sweep-q5", "sweep-step0", "sweep-halfwidth-1", "sweep-step1e-9",
        "decay-n-max0", "decay-beta-1", "decay-beta1.0"])
def test_script_exits_2_on_a_bad_configuration(script, args, named, tmp_path, fresh_python):
    out = tmp_path / "out.csv"
    run = fresh_python([str(SCRIPTS / script), *args, "--out", str(out)])
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert "ggmtree" not in run.stderr and ".json" not in run.stderr
    last = run.stderr.splitlines()[-1]
    # the CLI's message, or the script's argparse error line "<script>: error: ..."
    assert last.startswith(("configuration error: ", f"{script}: error: "))
    assert named in last
    assert not out.exists()


def test_counterexample_scan_exits_3_on_overflow(tmp_path, fresh_python):
    # the closed-form ratio overflows a double before k = 600
    out = tmp_path / "out.csv"
    run = fresh_python([str(SCRIPTS / "counterexample_scan.py"), "--eps0", "0.3",
                        "--eps1", "0.1", "--kmax", "600", "--out", str(out)])
    assert run.returncode == 3
    assert run.stderr.startswith("numerical failure: ")
    assert "Traceback" not in run.stderr
    assert run.stdout == ""
    assert not out.exists()
