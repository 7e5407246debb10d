"""The Monte Carlo baseline's scratch budget and steps-to-block kernel.

Works from order statistics instead of walking each order step by step:
a technique is blocked at the step that applies its `threshold`-th
covering mitigation, which is the `threshold`-th smallest step of its
covering rows, and a trial blocks at the latest of its techniques.  The
kernel reads each trial's step for every mitigation row, the inverse of
its order, which the forward walk's swaps build directly.  All
arithmetic is on integers, so results are exact.
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


def _pass_bytes(counts, itemsize: int) -> tuple[int, int]:
    """Bytes a kernel pass holds for each of its trials, and for all of
    them, when techniques have `counts` covers and a step takes
    `itemsize` bytes: a trial's steps of one technique's cover rows,
    gathered and partitioned (two per cover at most), its step for that
    technique and its block step; and every technique's cover rows, end
    to end."""
    return itemsize * (2 * int(counts.max(initial=0)) + 2), 8 * int(counts.sum())


def steps_to_block_batch(positions, covers, threshold, out):
    """Fill out[k] with the 1-based step at which trial k has applied
    `threshold` covering mitigations to every technique, or -1 if its
    full order never does.

    positions: (trials, m) 0-based step at which each trial applies each
    mitigation row, the inverse of its order.
    covers: (m, t) 0/1 incidence of mitigation rows over techniques.
    """
    trials, m = positions.shape
    threshold = int(threshold)
    counts = np.count_nonzero(covers, axis=0)
    if not trials or not counts.size or counts.min() < threshold:
        out[:] = -1
        return
    # By row, a technique's covering steps are whole rows of a pass, and
    # their order statistics run down the rows, across trials.
    by_row = positions.T
    cover_rows = np.flatnonzero(np.asarray(covers).T) % m
    ends = np.cumsum(counts).tolist()
    width = _pool_width(trials, *_pass_bytes(counts, positions.itemsize))
    for first in range(0, trials, width):
        n = min(width, trials - first)
        steps = by_row[:, first : first + n]
        blocked_at = np.zeros(n, dtype=positions.dtype)
        for lo, hi in zip([0] + ends, ends):
            cover_steps = steps[cover_rows[lo:hi]]
            if threshold == 1:
                step = cover_steps.min(axis=0)
            else:
                step = np.partition(cover_steps, threshold - 1, axis=0)[threshold - 1]
            np.maximum(blocked_at, step, out=blocked_at)
            del cover_steps, step  # before the next technique's gather
        block = out[first : first + n]
        block[:] = blocked_at
        block += 1
