from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


# the counterexample scan writes the CLI's CSV, whose first line is "# {meta}"
@pytest.mark.parametrize("script, args, header, line", [
    ("bifurcation_sweep.py", ["--halfwidth", "0.02", "--step", "0.01"],
     "beta,branch,a_0,a_1,residual,iterations", 0),
    ("correlation_decay.py", ["--n-max", "3"], "n,covariance,bound,envelope", 0),
    ("counterexample_scan.py", ["--kmax", "3"], "k,ratio_closed_form,ratio_enumerated", 1),
], ids=["bifurcation_sweep", "correlation_decay", "counterexample_scan"])
def test_script_writes_its_csv(script, args, header, line, tmp_path, fresh_python):
    out = tmp_path / "out.csv"
    run = fresh_python([str(SCRIPTS / script), *args, "--out", str(out)])
    assert run.returncode == 0, run.stderr
    lines = out.read_text().splitlines()
    assert lines[line] == header
    assert len(lines) > line + 1


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
