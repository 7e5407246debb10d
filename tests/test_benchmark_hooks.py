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
    # The kernel span counts what the forward walk really passes and
    # returns (`paper_v13`, T1053,T1059, k = 1, in swap blocks of 200
    # trials): each call's first argument is its block's steps for every
    # mitigation row, and its fourth the block's share of the steps.  A
    # kernel that stopped filling the `out` it is given, or a call that
    # moved it out of fourth place, would blank or falsify
    # `mcsim.steps_walked` and the blocked-trial counts in every traced
    # run; a traced op sums its calls' counts.  The trial-orders span's
    # count reads a direct call's result.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from mitiplan import _mcsim_py, simulator
    from oracles import oracle_steps_to_block, oracle_trial_orders

    calls, blocks = [], []
    original = simulator._kernel.steps_to_block_batch

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        # The next swap block reuses these cells.
        blocks.append(args[0].copy())
        return result

    monkeypatch.setattr(simulator._kernel, "steps_to_block_batch", recorded)
    # 11 cover rows, then 60 bytes a trial: 18 + 2 swap cells, 24 bytes
    # of index, lane and code, and a 16-byte kernel row.
    monkeypatch.setattr(_mcsim_py, "SCRATCH_BYTES", 11 * 8 + 200 * 60)
    trials = 500
    campaign = simulator.Campaign(techniques=("T1053", "T1059"))
    simulator.random_baseline(v13_catalog, campaign, trials, seed=42)
    counts = {name: count for name, _, count in spans.HOOKS}

    assert [args[0].shape for args, _, _ in calls] == [(200, 18), (200, 18), (100, 18)]
    orders = oracle_trial_orders(18, trials, 42)
    positions = np.concatenate(blocks)
    assert np.array_equal(positions, np.argsort(orders, axis=1))
    covers = calls[0][0][1]
    cover_sets = {row: set(np.flatnonzero(cover).tolist()) for row, cover in enumerate(covers)}
    steps = [
        oracle_steps_to_block(order, cover_sets, range(covers.shape[1]), 1)
        for order in orders.tolist()
    ]
    assert np.concatenate([args[3] for args, _, _ in calls]).tolist() == steps
    totals = {}
    for call in calls:
        for name, value in counts["mcsim.steps"](*call).items():
            totals[name] = totals.get(name, 0) + value
    blocked = [step for step in steps if step is not None]
    assert totals == {
        "mcsim.steps_walked": sum(blocked) + (trials - len(blocked)) * 18,
        "simulator.trials": trials,
        "simulator.blocked_trials": len(blocked),
    }

    direct = simulator.trial_orders(18, trials, 42)
    assert np.array_equal(direct, orders)
    assert counts["simulator.trial_orders"]((18, trials, 42), {}, direct) == {
        "simulator.orders_bytes": trials * 18 * 8
    }
