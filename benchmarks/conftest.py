"""Shared benchmark fixtures and the paper-vs-measured report.

Benchmarks assert that the *simulated-time* results reproduce the
paper's shape.  The paper's 47 Table 2–5 cells are measured once per
session by :func:`repro.paper.grid`; when a bench read them, the end of
the run prints them beside the paper's numbers.
"""

import pytest

from repro import paper

GRID = pytest.StashKey[dict]()


@pytest.fixture(scope="session")
def grid(request):
    """The paper's cells, each measured once per session."""
    rows = request.config.stash[GRID] = paper.grid()
    return rows


def pytest_terminal_summary(terminalreporter, config):
    rows = config.stash.get(GRID, None)
    if rows:
        terminalreporter.section("paper vs measured")
        for line in paper.render(rows):
            terminalreporter.write_line(line)
