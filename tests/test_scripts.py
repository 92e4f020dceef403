from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, header", [
    ("bifurcation_sweep.py", ["--halfwidth", "0.02", "--step", "0.01"],
     "beta,branch,a_0,a_1,residual,iterations"),
    ("correlation_decay.py", ["--n-max", "3"], "n,covariance,bound,envelope"),
    ("counterexample_scan.py", ["--kmax", "3"], "k,ratio_closed_form,ratio_enumerated"),
], ids=["bifurcation_sweep", "correlation_decay", "counterexample_scan"])
def test_script_writes_its_csv(script, args, header, tmp_path, fresh_python):
    out = tmp_path / "out.csv"
    run = fresh_python([str(SCRIPTS / script), *args, "--out", str(out)])
    assert run.returncode == 0, run.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) > 1
