"""The Monte Carlo baseline's scratch budget and steps-to-block kernel.

Works from order statistics instead of walking each order step by step:
a technique is blocked at the step that applies its `threshold`-th
covering mitigation, which is the `threshold`-th smallest position of
its covering rows in the order, and a trial blocks at the latest of its
techniques.  All arithmetic is on integers, so results are exact.
"""

from __future__ import annotations

import numpy as np

# Scratch memory any Monte Carlo pass (a lane pool, a swap block, a
# kernel pass) may hold, whatever the trial count: 1.125 MiB.  Each fits
# as many trials as their bytes allow, for the fewest NumPy calls a trial.
SCRATCH_BYTES = 9 * 2**17


def _pool_width(trials: int, lane_bytes: int, shared: int = 0) -> int:
    """Trials in a pass (lanes in a pool) that hold `lane_bytes` each,
    beside `shared` bytes kept for all of them: as many as the rest of
    SCRATCH_BYTES holds, but at least one, and no more than `trials`."""
    return min(trials, max(1, (SCRATCH_BYTES - shared) // lane_bytes))


def steps_to_block_batch(orders, covers, threshold, out):
    """Fill out[k] with the 1-based step at which trial k's mitigation
    order has applied `threshold` covering mitigations to every
    technique, or -1 if the full order never does.

    orders: (trials, m) permutations of row indices into covers.
    covers: (m, t) 0/1 incidence of mitigation rows over techniques.
    """
    trials, m = orders.shape
    threshold = int(threshold)
    counts = np.count_nonzero(covers, axis=0)
    if not trials or not counts.size or counts.min() < threshold:
        out[:] = -1
        return
    # A row of a pass holds its step positions and numbers (4m bytes
    # each), row offset (8) and block step (4), then its flat scatter
    # index (8m) or one technique's cover steps, gathered and partitioned
    # (8 per cover, at most 8m).  Every technique's cover rows, end to end,
    # and NumPy's buffer for the offsets' broadcast come off the budget.
    cover_rows = np.flatnonzero(np.asarray(covers).T) % m
    ends = np.cumsum(counts).tolist()
    width = _pool_width(trials, 16 * m + 12, cover_rows.nbytes + 8 * np.getbufsize())
    tiled_steps = np.tile(np.arange(1, m + 1, dtype=np.int32), width)
    row_start = np.arange(0, width * m, m)[:, None]
    positions = np.empty((width, m), dtype=np.int32)
    for first in range(0, trials, width):
        n = min(width, trials - first)
        # positions[k, row] = the step at which trial k applies `row`.
        pos = positions[:n]
        pos.reshape(-1)[(orders[first : first + n] + row_start[:n]).ravel()] = tiled_steps[: n * m]
        blocked_at = np.zeros(n, dtype=np.int32)
        for lo, hi in zip([0] + ends, ends):
            cover_steps = pos[:, cover_rows[lo:hi]]
            if threshold == 1:
                step = cover_steps.min(axis=1)
            else:
                step = np.partition(cover_steps, threshold - 1, axis=1)[:, threshold - 1]
            np.maximum(blocked_at, step, out=blocked_at)
        out[first : first + n] = blocked_at
        del cover_steps, step  # before the next pass's scatter index
