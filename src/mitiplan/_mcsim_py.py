"""Batch steps-to-block kernel, pure-Python variant.

Import fallback for environments where the compiled extension did not
build.  Must stay semantically identical to _mcsim.pyx; both operate on
integers only, so results are bit-for-bit interchangeable.
"""

from __future__ import annotations

_ROW_BLOCK = 1024


def steps_to_block_batch(orders, covers, threshold, out):
    """Fill out[k] with the 1-based step at which trial k's mitigation
    order has applied `threshold` covering mitigations to every
    technique, or -1 if the full order never does.

    orders: (trials, m) permutations of row indices into covers.
    covers: (m, t) 0/1 incidence of mitigation rows over techniques.
    """
    trials = orders.shape[0]
    t = covers.shape[1]
    # Precompute covered-column lists per row; the hot loop then touches
    # only columns a mitigation actually covers.
    cover_cols = [
        [j for j in range(t) if covers[row, j]] for row in range(covers.shape[0])
    ]
    threshold = int(threshold)
    # Convert orders to lists a block of rows at a time, so the Python
    # copy stays a fixed size whatever the trial count.
    for first in range(0, trials, _ROW_BLOCK):
        block = orders[first : first + _ROW_BLOCK].tolist()
        for k, order in enumerate(block, start=first):
            counts = [0] * t
            blocked = 0
            result = -1
            for step, row in enumerate(order, start=1):
                for j in cover_cols[row]:
                    if counts[j] < threshold:
                        counts[j] += 1
                        if counts[j] == threshold:
                            blocked += 1
                if blocked == t:
                    result = step
                    break
            if t == 0:
                result = -1
            out[k] = result
    return None
