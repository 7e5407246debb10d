"""Batch steps-to-block kernel for the Monte Carlo baseline.

Works from order statistics instead of walking each order step by step:
a technique is blocked at the step that applies its `threshold`-th
covering mitigation, which is the `threshold`-th smallest position of
its covering rows in the order, and a trial blocks at the latest of its
techniques.  All arithmetic is on integers, so results are exact.
"""

from __future__ import annotations

import numpy as np

# Trials handled per pass.  Scratch memory grows with this, not with the
# trial count.
_ROW_BLOCK = 1024


def steps_to_block_batch(orders, covers, threshold, out):
    """Fill out[k] with the 1-based step at which trial k's mitigation
    order has applied `threshold` covering mitigations to every
    technique, or -1 if the full order never does.

    orders: (trials, m) permutations of row indices into covers.
    covers: (m, t) 0/1 incidence of mitigation rows over techniques.
    """
    trials, m = orders.shape
    threshold = int(threshold)
    covering = [np.flatnonzero(column) for column in np.asarray(covers).T]
    if not covering or any(rows.size < threshold for rows in covering):
        out[:] = -1
        return
    rows_max = min(trials, _ROW_BLOCK)
    tiled_steps = np.tile(np.arange(1, m + 1, dtype=np.int32), rows_max)
    row_start = np.arange(0, rows_max * m, m)[:, None]
    positions = np.empty((rows_max, m), dtype=np.int32)
    for first in range(0, trials, _ROW_BLOCK):
        block = orders[first : first + _ROW_BLOCK]
        n = block.shape[0]
        # positions[k, row] = the step at which trial k applies `row`.
        pos = positions[:n]
        pos.reshape(-1)[(block + row_start[:n]).ravel()] = tiled_steps[: n * m]
        blocked_at = np.zeros(n, dtype=np.int32)
        for rows in covering:
            cover_steps = pos[:, rows]
            if threshold == 1:
                step = cover_steps.min(axis=1)
            else:
                step = np.partition(cover_steps, threshold - 1, axis=1)[:, threshold - 1]
            np.maximum(blocked_at, step, out=blocked_at)
        out[first : first + n] = blocked_at
