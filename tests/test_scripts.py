"""Smoke runs of the example scripts at small settings."""

import os
import pathlib
import subprocess
import sys

import pytest

import ratecost

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"

# small settings per script; "{tmp}" is replaced by the test's directory
ARGS = {
    "make_example_specs.py": ["--out", "{tmp}/specs"],
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
