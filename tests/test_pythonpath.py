"""The tests import the package that pyproject.toml's pythonpath names,
which comes before PYTHONPATH.  A session whose first PYTHONPATH entry
holds another localsurfaces would test this checkout while its caller
meant the other one, so conftest.py stops it and names the option that
tests the other package."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def collect(env_path, *options):
    """Exit code and output of a collect-only pytest run of this file from
    this checkout, with PYTHONPATH set to env_path."""
    env = dict(os.environ, PYTHONPATH=str(env_path))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--co", "-p", "no:cacheprovider",
         *options, "tests/test_pythonpath.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    return done.returncode, done.stdout + done.stderr


def test_a_pythonpath_to_another_package_stops_the_session(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out = collect(copy)
    assert code == 4, out  # pytest's usage-error exit code
    assert f"-o pythonpath={copy}" in out, out
    code, out = collect(copy, "-o", f"pythonpath={copy}")
    assert code == 0, out
