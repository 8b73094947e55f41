"""Smoke runs of the example scripts at small settings, and of the README's
library tour."""

import csv
import os
import pathlib
import subprocess
import sys

import pytest

import ratecost

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

# small settings per script; "{tmp}" is replaced by the test's directory
ARGS = {
    "make_example_specs.py": ["--out", "{tmp}/specs"],
    "run_query_panel.py": ["--random", "2", "--out", "{tmp}/panel.csv"],
    "run_rd_tradeoff.py": ["--points", "3", "--out", "{tmp}/rd.csv"],
    "run_sandwich_demo.py": ["--trials", "500"],
}


def test_every_script_has_smoke_settings():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(ARGS)


@pytest.mark.parametrize("name", sorted(ARGS))
def test_script_runs(tmp_path, name):
    package_root = os.path.dirname(os.path.dirname(ratecost.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in ARGS[name]]
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    if name == "run_query_panel.py":
        # eight shipped specs at eight shares and two random ones at three,
        # every query answered or refused below the floor, none unconverged
        with open(tmp_path / "panel.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8 * 8 + 2 * 3
        assert {r["outcome"] for r in rows} <= {"ok", "infeasible"}
        assert all(r["converged"] == "True" for r in rows if r["outcome"] == "ok")
        assert done.stdout.startswith("queries 70 ")
        assert " unconverged 0 " in done.stdout


def test_readme_library_tour_runs(capsys):
    # the README's Library tour block, run as written, so that the
    # documented API cannot drift from the package
    tour = (ROOT / "README.md").read_text().split("## Library tour", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    lower, upper = map(float, lines[0].split())
    assert 0.0 <= lower <= upper
    assert "'passed': True" in lines[-1]
