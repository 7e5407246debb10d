"""The benchmark's span hooks all resolve, and its counts read real results.

``perfbench/spans.py`` times each layer by wrapping a module attribute
of the program; a renamed attribute is reported as a missing span and
its per-layer metric reads blank, and a count taken from a result the
program no longer shapes that way fails or reads wrong.  These tests make
both fail here too.  They import ``perfbench/spans.py`` and install no
tracer; the forward walk's calls are recorded with ``monkeypatch``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

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


def test_forward_walk_counts_read_real_calls(monkeypatch, v13_catalog):
    # The trial-orders and kernel spans count what the forward walk
    # really passes and returns (`paper_v13`, T1053,T1059, k = 1): a
    # kernel that stopped filling the `out` it is given, or a call that
    # moved it out of fourth place, would blank or falsify
    # `mcsim.steps_walked` and the blocked-trial counts in every traced run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from mitiplan import simulator
    from oracles import oracle_steps_to_block

    calls = {}

    def record(name, owner, attr):
        original = getattr(owner, attr)

        def recorded(*args, **kwargs):
            result = original(*args, **kwargs)
            calls[name] = (args, kwargs, result)
            return result

        monkeypatch.setattr(owner, attr, recorded)

    record("simulator.trial_orders", simulator, "trial_orders")
    record("mcsim.steps", simulator._kernel, "steps_to_block_batch")
    trials = 500
    campaign = simulator.Campaign(techniques=("T1053", "T1059"))
    simulator.random_baseline(v13_catalog, campaign, trials, seed=42)
    counts = {name: count for name, _, count in spans.HOOKS}

    orders = calls["simulator.trial_orders"][2]
    assert orders.shape == (trials, 18)
    assert counts["simulator.trial_orders"](*calls["simulator.trial_orders"]) == {
        "simulator.orders_bytes": orders.nbytes
    }
    args = calls["mcsim.steps"][0]
    assert args[0] is orders
    cover_sets = {row: set(np.flatnonzero(cover).tolist()) for row, cover in enumerate(args[1])}
    steps = [
        oracle_steps_to_block(order, cover_sets, range(args[1].shape[1]), 1)
        for order in orders.tolist()
    ]
    blocked = [step for step in steps if step is not None]
    assert counts["mcsim.steps"](*calls["mcsim.steps"]) == {
        "mcsim.steps_walked": sum(blocked) + (trials - len(blocked)) * 18,
        "simulator.trials": trials,
        "simulator.blocked_trials": len(blocked),
    }
