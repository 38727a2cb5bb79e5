"""Shared pytest wiring: the acceptance verdict board and the +1 run.

Acceptance tests register one verdict line each; the lines are printed
as a terminal summary section so they stay visible under output
capture.  The default amplitude +1 run takes about 1.5 s, so the modules
that read it share one.
"""

import time

import pytest

from wcikit import RunConfig, classify

VERDICTS: list[str] = []


@pytest.fixture(scope="session")
def gt_report():
    """The default amplitude +1 report and the seconds it took."""
    start = time.monotonic()
    report = classify(RunConfig(alpha=1))
    return report, time.monotonic() - start


def record_verdict(line: str) -> None:
    VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICTS:
            terminalreporter.line(line)
