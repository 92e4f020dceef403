import os
import subprocess
import sys
from pathlib import Path

import pytest

import ggmtree

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, header", [
    ("bifurcation_sweep.py", ["--halfwidth", "0.02", "--step", "0.01"],
     "beta,branch,a_0,a_1,residual,iterations"),
    ("correlation_decay.py", ["--n-max", "3"], "n,covariance,bound,envelope"),
    ("counterexample_scan.py", ["--kmax", "3"], "k,ratio_closed_form,ratio_enumerated"),
], ids=["bifurcation_sweep", "correlation_decay", "counterexample_scan"])
def test_script_writes_its_csv(script, args, header, tmp_path):
    src = str(Path(ggmtree.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = tmp_path / "out.csv"
    run = subprocess.run([sys.executable, str(SCRIPTS / script), *args, "--out", str(out)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) > 1
