#!/usr/bin/env python3
"""Benchmark the pipeline stages: ingest → matrix → rank, trial-order
generation and the steps-to-block kernel.

The ingest stages (STIX bundle parse, canonical catalog load, weights
CSV load) and the catalog stages (decision-matrix build, canonical
catalog dump, and rank) run on the seeded Enterprise-size catalog from
``tests/helpers.enterprise_catalog_and_weights``, the STIX parse on its
bundle from ``tests/helpers.enterprise_stix_bundle``.  The kernel runs on
three cases: the paper_v13 reference campaign and two synthetic cover
matrices with block thresholds 2 and 3.  Every timing is the best-of-N
wall-clock time.

Run from a checkout with the package installed:

    python3 benchmarks/bench_sim.py --trials 20000 --repeat 3
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path

import numpy as np

from mitiplan import _mcsim_py
from mitiplan.catalog import dumps_catalog, loads_catalog, parse_stix_bundle
from mitiplan.fixtures import paper_v13_catalog
from mitiplan.matrix import build_decision_matrix
from mitiplan.mcdm import rank, wsm_scores
from mitiplan.scoring import load_weights, render_weights_csv
from mitiplan.simulator import Campaign, _cover_matrix, resolve_campaign, trial_orders

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import enterprise_catalog_and_weights, enterprise_stix_bundle  # noqa: E402


def _reference_case():
    catalog = paper_v13_catalog()
    campaign = Campaign(techniques=("T1053", "T1059", "T1562", "T1574"))
    covers = _cover_matrix(catalog, resolve_campaign(campaign, catalog))
    return "paper_v13 4-technique campaign", covers, 1


def _synthetic_case(rng, m, t, threshold):
    covers = (rng.random((m, t)) < 0.3).astype(np.uint8)
    covers[rng.integers(0, m, size=t), np.arange(t)] = 1
    return f"synthetic {m}x{t}, threshold {threshold}", covers, threshold


def _best_ms(func, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best * 1000


def _catalog_stages(repeat):
    catalog, weights = enterprise_catalog_and_weights()
    bundle = enterprise_stix_bundle()
    catalog_json = dumps_catalog(catalog)
    weights_csv = render_weights_csv(weights)
    logging.disable(logging.WARNING)  # the dropped-technique warning
    matrix = build_decision_matrix(catalog, weights)
    scores = wsm_scores(matrix)
    timings = {
        "STIX parse": _best_ms(lambda: parse_stix_bundle(bundle), repeat),
        "STIX parse, no collapse": _best_ms(
            lambda: parse_stix_bundle(bundle, collapse=False), repeat
        ),
        "catalog load": _best_ms(lambda: loads_catalog(catalog_json), repeat),
        "weights load": _best_ms(lambda: load_weights(weights_csv), repeat),
        "matrix build": _best_ms(lambda: build_decision_matrix(catalog, weights), repeat),
        "catalog dump": _best_ms(lambda: dumps_catalog(catalog), repeat),
        "rank": _best_ms(lambda: rank(scores, matrix), repeat),
    }
    logging.disable(logging.NOTSET)
    label = (
        f"enterprise catalog {len(catalog.techniques)} T / "
        f"{len(catalog.mitigations)} M / {len(catalog.mappings)} pairs"
    )
    return label + ": " + ", ".join(f"{k} {v:6.2f} ms" for k, v in timings.items())


def _time_orders(m, trials, seed, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        orders = trial_orders(m, trials, seed)
        best = min(best, time.perf_counter() - start)
    return best, orders


def _time_kernel(orders, covers, threshold, repeat):
    out = np.empty(orders.shape[0], dtype=np.int64)
    return _best_ms(
        lambda: _mcsim_py.steps_to_block_batch(orders, covers, threshold, out), repeat
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=20000)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    cases = [
        _reference_case(),
        _synthetic_case(rng, 50, 10, 2),
        _synthetic_case(rng, 200, 25, 3),
    ]

    print(_catalog_stages(args.repeat))
    for label, covers, threshold in cases:
        orders_time, orders = _time_orders(
            covers.shape[0], args.trials, args.seed, args.repeat
        )
        kernel_ms = _time_kernel(orders, covers, threshold, args.repeat)
        print(f"{label}: orders {orders_time * 1000:8.1f} ms, kernel {kernel_ms:8.1f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
