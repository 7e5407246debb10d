from __future__ import annotations

import sys
from pathlib import Path

import pytest

from mitiplan.fixtures import paper_v13_catalog, paper_v13_weights
from mitiplan.matrix import build_decision_matrix

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def v13_catalog():
    return paper_v13_catalog()


@pytest.fixture(scope="session")
def v13_weights():
    return paper_v13_weights()


@pytest.fixture(scope="session")
def v13_matrix(v13_catalog, v13_weights):
    return build_decision_matrix(v13_catalog, v13_weights)


@pytest.fixture()
def hash_calls(monkeypatch):
    """Counts the calls ``mitiplan.matrix`` makes of the two hash functions."""
    import mitiplan.matrix

    calls = {"catalog": 0, "weights": 0}
    for key in calls:
        name = f"{key}_sha256"
        original = getattr(mitiplan.matrix, name)

        def counted(value, key=key, original=original):
            calls[key] += 1
            return original(value)

        monkeypatch.setattr(mitiplan.matrix, name, counted)
    return calls


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance verdict lines after the run."""
    try:
        from acceptance_report import LINES
    except ImportError:
        return
    if LINES:
        terminalreporter.section("acceptance criteria")
        for line in LINES:
            terminalreporter.write_line(line)
