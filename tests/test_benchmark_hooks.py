"""The benchmark's span hooks all resolve, and its counts read real results.

``perfbench/spans.py`` times each layer by wrapping a module attribute
of the program; a renamed attribute is reported as a missing span and
its per-layer metric reads blank, and a count taken from a result the
program no longer shapes that way fails or reads wrong.  These tests make
both fail here too.  They only import ``perfbench/spans.py`` and install
nothing.
"""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_span_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    assert spans.Tracer().missing == []


def test_count_extractors_read_real_results(monkeypatch, tmp_path):
    # The counts of the loads and build spans read the program's results;
    # a result shape that blanks them would leave `catalog.mappings` or
    # `matrix.cells` empty in every traced run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from mitiplan import cli

    assert cli.run(["fixtures", "emit", "--name", "paper_v13", "--out-dir", str(tmp_path)]) == 0
    counts = {name: count for name, _, count in spans.HOOKS}
    path = tmp_path / "paper_v13_catalog.json"
    catalog = cli.load_catalog(path)
    assert counts["catalog.loads"]((path,), {}, catalog) == {"catalog.mappings": 46}
    weights = cli.load_weights((tmp_path / "paper_v13_weights.csv").read_bytes())
    matrix = cli.build_decision_matrix(catalog, weights)
    assert counts["matrix.build"]((catalog, weights), {}, matrix) == {
        "matrix.cells": 18 * 10,
        "matrix.dropped": 0,
    }
