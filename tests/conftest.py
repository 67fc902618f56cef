"""A fixture the bounds and search tests share, and terminal reporting for
the acceptance suite: one line per criterion."""

import numpy as np
import pytest

from hkcert import search


@pytest.fixture
def nu_calls(monkeypatch):
    """The number of points of every nu_vector call the grid axes make."""
    calls = []
    real = search.nu_vector

    def counted(x, d):
        calls.append(np.size(x))
        return real(x, d)

    monkeypatch.setattr(search, "nu_vector", counted)
    return calls


_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _acceptance_outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_acceptance_outcomes):
        name = nodeid.split("::")[-1]
        outcome = _acceptance_outcomes[nodeid].upper()
        terminalreporter.write_line(f"{name}: {outcome}")
