"""Smoke tests: each reproduction script runs on a small input and exits 0."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diqkd_cc

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, outputs", [
    ("reproduce_table.py", ["--d-max", "3", "--out", "{tmp}/table.csv"], ["table.csv"]),
    ("keyrate_curves.py", ["--steps", "5", "--outdir", "{tmp}"],
     ["keyrate_d3_lp-cglmp-state.csv", "keyrate_d3_lp-cglmp-state.svg"]),
    ("visibility_vs_dimension.py", ["--d-max", "6", "--outdir", "{tmp}"],
     ["vcrit_vs_d.csv", "vcrit_vs_d.svg"]),
], ids=["reproduce_table", "keyrate_curves", "visibility_vs_dimension"])
def test_script_runs(script, args, outputs, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(diqkd_cc.__file__).resolve().parents[1]))
    argv = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0


def test_visibility_vs_dimension_finds_the_crossover(tmp_path):
    # both columns, and the first d where the tuned state is the better resource
    env = dict(os.environ, PYTHONPATH=str(Path(diqkd_cc.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, str(SCRIPTS / "visibility_vs_dimension.py"),
                           "--d-max", "70", "--outdir", str(tmp_path)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "vcrit_vs_d.csv").read_text().splitlines()
    assert rows[0] == "d,vcrit_max,vcrit_cglmp,limit"
    assert rows[2].startswith("3,0.820427375146,0.821013947778,")
    assert len(rows) == 70
    assert ("tuned state below the maximally entangled one from d = 69 "
            "(vcrit_cglmp - vcrit_max = -2.01e-06)") in proc.stdout
