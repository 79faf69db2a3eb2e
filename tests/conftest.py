"""Terminal reporting: one pass/fail line per acceptance criterion.  And a
guard: pyproject.toml's pythonpath puts this checkout's src/ ahead of
PYTHONPATH, so the session stops when PYTHONPATH names another package."""

import importlib.util
import os
from pathlib import Path

import pytest

_acceptance_results = {}


def pytest_configure(config):
    """Refuse a session whose first PYTHONPATH entry holds a localsurfaces
    package other than the one the tests import: the tests would run this
    checkout's package while the caller meant the other one.  The package
    is located, not imported."""
    first = os.environ.get("PYTHONPATH", "").split(os.pathsep)[0]
    wanted = Path(first, "localsurfaces", "__init__.py")
    if not first or not wanted.is_file():
        return
    spec = importlib.util.find_spec("localsurfaces")
    found = Path(spec.origin) if spec and spec.origin else None
    if found is None or found.resolve() != wanted.resolve():
        where = found.parent if found else "no package"
        raise pytest.UsageError(
            f"PYTHONPATH starts with {first}, but pyproject.toml's pythonpath "
            f"imports localsurfaces from {where}; to test the package in "
            f"{first}, add -o pythonpath={first}"
        )


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance_results[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_acceptance_results):
        outcome = _acceptance_results[nodeid]
        label = nodeid.split("::")[-1]
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{status}  {label}")
