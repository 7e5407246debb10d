"""The Monte Carlo baseline's steps-to-block kernel and its memory model.

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
    full order never does.  One pass over all the trials: the caller
    sizes the batch, and `_pass_bytes` gives what the pass holds.

    positions: (trials, m) 0-based step at which each trial applies each
    mitigation row, the inverse of its order.
    covers: (m, t) 0/1 incidence of mitigation rows over techniques.
    """
    trials, m = positions.shape
    counts = np.count_nonzero(covers, axis=0)
    if not counts.size or counts.min() < threshold:
        out[:] = -1
        return
    # By row, a technique's covering steps are whole rows, and their
    # order statistics run down the rows, across trials.
    by_row = positions.T
    cover_rows = np.flatnonzero(np.asarray(covers).T) % m
    ends = np.cumsum(counts).tolist()
    blocked_at = np.zeros(trials, dtype=positions.dtype)
    for lo, hi in zip([0] + ends, ends):
        cover_steps = by_row[cover_rows[lo:hi]]
        if threshold == 1:
            step = cover_steps.min(axis=0)
        else:
            step = np.partition(cover_steps, threshold - 1, axis=0)[threshold - 1]
        np.maximum(blocked_at, step, out=blocked_at)
        del cover_steps, step  # before the next technique's gather
    out[:] = blocked_at
    out += 1
