"""Shared fixtures and reporting hooks for the test suite."""

import glob
import os
import tempfile

import pytest

from flexstate.resp.server import MiniRespServer


@pytest.fixture
def mini_server():
    """A fresh RESP server on an ephemeral loopback port."""
    server = MiniRespServer()
    server.start()
    yield server
    server.stop()


@pytest.fixture(autouse=True)
def no_leaked_drain_dumps():
    """Fail a test that leaves a new dead-letter dump in the temp directory:
    a test that makes one reads its path from the stats and removes it."""
    pattern = os.path.join(tempfile.gettempdir(), "flexstate-drain-*.json")
    before = set(glob.glob(pattern))
    yield
    leaked = sorted(set(glob.glob(pattern)) - before)
    if leaked:
        pytest.fail(f"test left dead-letter dumps: {leaked}")


_CRITERION_REPORTS = {}


def pytest_runtest_logreport(report):
    # Track acceptance-criterion outcomes for the terminal summary.
    name = report.nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_criterion_"):
        return
    if report.when == "call" or (report.when == "setup" and report.skipped):
        _CRITERION_REPORTS[name] = report.outcome.upper()


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_REPORTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_CRITERION_REPORTS):
        outcome = _CRITERION_REPORTS[name]
        terminalreporter.write_line(f"{name}: {outcome}")
