"""Brute-force reference implementations for cross-checking.

Coded independently of the library: plain loops over plain lists, no
shared helpers, so an error in the library cannot cancel out here.
"""

from __future__ import annotations

import json
import math

import numpy as np


def oracle_wsm(u, w):
    """Row totals of the weighted matrix, one loop at a time."""
    return [sum(row[j] * w[j] for j in range(len(w))) for row in u]


def oracle_wsm_double(u, w):
    """The literal double-weighted variant: cells w_j*u_ij times w_j again."""
    return [sum(row[j] * w[j] * w[j] for j in range(len(w))) for row in u]


def oracle_wpm(u, w, epsilon=None):
    """Weighted product with normalized exponents; epsilon replaces zero
    cells (None means zeros are a caller bug)."""
    total = sum(w)
    scores = []
    for row in u:
        product = 1.0
        for j in range(len(w)):
            x = row[j]
            if x == 0:
                if epsilon is None:
                    raise ValueError("zero cell without epsilon")
                x = epsilon
            product *= x ** (w[j] / total)
        scores.append(product)
    return scores


def oracle_topsis(u, w):
    """Step-by-step TOPSIS closeness on benefit criteria."""
    m = len(u)
    n = len(w)
    total = sum(w)
    norms = [math.sqrt(sum(u[i][j] ** 2 for i in range(m))) for j in range(n)]
    v = [[u[i][j] / norms[j] * (w[j] / total) for j in range(n)] for i in range(m)]
    ideal = [max(v[i][j] for i in range(m)) for j in range(n)]
    anti = [min(v[i][j] for i in range(m)) for j in range(n)]
    scores = []
    for i in range(m):
        d_plus = math.sqrt(sum((v[i][j] - ideal[j]) ** 2 for j in range(n)))
        d_minus = math.sqrt(sum((v[i][j] - anti[j]) ** 2 for j in range(n)))
        if d_plus + d_minus == 0:
            scores.append(0.5)
        else:
            scores.append(d_minus / (d_plus + d_minus))
    return scores


def oracle_steps_to_block(order, covers, techniques, threshold):
    """Smallest prefix of `order` that gives every technique at least
    `threshold` covering mitigations; None if even the full order fails.

    Checks every prefix from scratch rather than keeping running counts.
    """
    for end in range(1, len(order) + 1):
        prefix = order[:end]
        if all(
            sum(1 for mid in prefix if tid in covers.get(mid, ())) >= threshold
            for tid in techniques
        ):
            return end
    return None


def oracle_trial_orders(m, trials, seed):
    """Monte Carlo trial orders by the documented stream contract: row t
    is ``Generator(Philox(key=[seed, t])).permutation(m)``, built with
    one NumPy generator per trial."""
    orders = np.empty((trials, m), dtype=np.int64)
    for t in range(trials):
        key = np.array([seed, t], dtype=np.uint64)
        orders[t] = np.random.Generator(np.random.Philox(key=key)).permutation(m)
    return orders


def oracle_dumps_catalog(catalog):
    """Canonical catalog bytes as the standard library's JSON encoder
    writes them: sorted keys, two-space indent, non-ASCII kept."""
    doc = {
        "schema_version": 1,
        "techniques": [
            {
                "id": t.id,
                "name": t.name,
                "revoked": t.revoked,
                "deprecated": t.deprecated,
            }
            for t in catalog.techniques
        ],
        "mitigations": [{"id": m.id, "name": m.name} for m in catalog.mitigations],
        "mappings": [[mid, tid] for mid, tid in catalog.mappings],
    }
    text = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)
    return (text + "\n").encode("utf-8")
