"""Independent expectations for the benchmark's output checks.

Everything here works on the files the program reads and writes, with
plain loops over catalog pairs: it never uses the package's catalog,
matrix, scoring or kernel code, so a fault there cannot hide in the
reference.  The one thing shared with the program is the documented
random-stream contract: trial t of seed s draws its order from
``Generator(Philox(key=[s, t])).permutation(m)``.
"""

from __future__ import annotations

import csv
import hashlib
import json

import numpy as np

TIE_DECIMALS = 9

# The README's reproduction of the paper, `simulate` on paper_v13 at seed 42.
README_PAPER_MC_SEED42 = (
    "campaign: T1053,T1059 (threshold 1)\n"
    "plan steps to block: 1\n"
    "baseline over 10000 trials (seed 42): mean 4.476, std 2.457, unblocked 0.0%\n"
    "plan advantage: 4.476x fewer steps than random\n"
)


def read_catalog(data: bytes) -> tuple[list[str], list[str], list[tuple[str, str]]]:
    """Technique IDs, mitigation IDs and (mitigation, technique) pairs."""
    doc = json.loads(data)
    return (
        [t["id"] for t in doc["techniques"]],
        [m["id"] for m in doc["mitigations"]],
        [(mid, tid) for mid, tid in doc["mappings"]],
    )


def read_weights(data: bytes) -> list[tuple[str, float]]:
    rows = list(csv.reader(data.decode("utf-8").splitlines()))
    return [(row[2], float(row[1])) for row in rows[1:] if row]


def wsm_ranking(pairs, weights) -> list[tuple[str, float, tuple[str, ...]]]:
    """Brute-force weighted-sum plan: (mitigation, score, covered), best first.

    Each weighted technique's weight is split equally over the
    mitigations mapped to it; unmapped techniques carry no score.  Ties
    after rounding to 9 decimals order by mitigation ID.
    """
    mapped: dict[str, list[str]] = {}
    for mid, tid in pairs:
        mapped.setdefault(tid, []).append(mid)
    scores: dict[str, float] = {}
    covered: dict[str, set[str]] = {}
    for tid, weight in weights:
        mids = mapped.get(tid, [])
        for mid in mids:
            scores[mid] = scores.get(mid, 0.0) + weight / len(mids)
            covered.setdefault(mid, set()).add(tid)
    order = sorted(scores, key=lambda mid: (-round(scores[mid], TIE_DECIMALS), mid))
    return [(mid, scores[mid], tuple(sorted(covered[mid]))) for mid in order]


def resolve(campaign, technique_ids) -> list[str]:
    """Campaign techniques as catalog IDs: a missing sub-technique maps
    to its parent."""
    known = set(technique_ids)
    return sorted({tid if tid in known else tid.split(".")[0] for tid in campaign})


def prefix_steps(order, pairs, techniques, threshold) -> int | None:
    """Walk the order from the start; the step at which every technique
    has ``threshold`` mapped mitigations applied, or None."""
    pair_set = set(pairs)
    counts = dict.fromkeys(techniques, 0)
    for step, mid in enumerate(order, start=1):
        for tid in techniques:
            if (mid, tid) in pair_set:
                counts[tid] += 1
        if all(count >= threshold for count in counts.values()):
            return step
    return None


def reference_orders(m: int, trials: int, seed: int) -> np.ndarray:
    orders = np.empty((trials, m), dtype=np.int64)
    for t in range(trials):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, t], dtype=np.uint64)))
        orders[t] = rng.permutation(m)
    return orders


def baseline_steps(orders, mitigations, pairs, techniques, threshold) -> np.ndarray:
    """Steps to block per random order (-1 when never blocked).

    ``orders`` index ``mitigations`` in catalog (ID-sorted) order.
    """
    pair_set = set(pairs)
    rows = [[tid for tid in techniques if (mid, tid) in pair_set] for mid in mitigations]
    steps = np.empty(orders.shape[0], dtype=np.int64)
    for k, order in enumerate(orders.tolist()):
        counts = dict.fromkeys(techniques, 0)
        blocked = 0
        steps[k] = -1
        for step, row in enumerate(order, start=1):
            for tid in rows[row]:
                counts[tid] += 1
                if counts[tid] == threshold:
                    blocked += 1
            if blocked == len(techniques):
                steps[k] = step
                break
    return steps


def simulate_stdout(campaign, threshold, trials, seed, plan_steps, steps) -> str:
    """What `mitiplan simulate` prints for these results."""
    blocked = steps[steps > 0]
    lines = [
        f"campaign: {','.join(campaign)} (threshold {threshold})",
        f"plan steps to block: {plan_steps if plan_steps is not None else 'never'}",
    ]
    if blocked.size:
        mean, std = float(blocked.mean()), float(blocked.std())
        unblocked = float(trials - blocked.size) / trials
        lines.append(
            f"baseline over {trials} trials (seed {seed}): mean {mean:.3f}, "
            f"std {std:.3f}, unblocked {unblocked:.1%}"
        )
        if plan_steps is not None:
            lines.append(f"plan advantage: {mean / plan_steps:.3f}x fewer steps than random")
    else:
        lines.append(f"baseline over {trials} trials (seed {seed}): never blocked")
    return "\n".join(lines) + "\n"


def check_plan_json(plan: bytes, catalog: bytes, weights: bytes, timestamp: int) -> list[str]:
    """Problems with a JSON plan against the brute-force ranking."""
    doc = json.loads(plan)
    _, _, pairs = read_catalog(catalog)
    expected = wsm_ranking(pairs, read_weights(weights))
    problems = []
    got = [entry["mitigation_id"] for entry in doc["entries"]]
    if got != [mid for mid, _, _ in expected]:
        problems.append("plan order differs from the brute-force WSM ranking")
    for entry, (mid, score, covered) in zip(doc["entries"], expected):
        if abs(entry["score"] - score) > 1e-9 * max(1.0, abs(score)):
            problems.append(f"score of {mid} is {entry['score']!r}, expected {score!r}")
            break
        if tuple(entry["covered_techniques"]) != covered:
            problems.append(f"covered techniques of {mid} differ")
            break
    if doc["catalog_hash"] != hashlib.sha256(catalog).hexdigest():
        problems.append("plan catalog_hash is not the catalog file's SHA-256")
    if doc["method"] != "wsm" or doc["timestamp"] != timestamp:
        problems.append("plan method or timestamp differs from the request")
    return problems


def kernel_parity(orders, mitigations, pairs, techniques, threshold) -> str:
    """Compare the compiled kernel with the pure one on these inputs."""
    try:
        from mitiplan import _mcsim, _mcsim_py
    except ImportError as exc:
        return f"skipped: {exc}"
    pair_set = set(pairs)
    covers = np.array(
        [[(mid, tid) in pair_set for tid in techniques] for mid in mitigations],
        dtype=np.uint8,
    )
    outs = []
    for kernel in (_mcsim, _mcsim_py):
        out = np.empty(orders.shape[0], dtype=np.int64)
        kernel.steps_to_block_batch(orders, covers, threshold, out)
        outs.append(out)
    return "equal" if np.array_equal(*outs) else "differ"
