"""Campaign-blocking simulator with a Monte Carlo random baseline.

Applies a mitigation plan one step at a time against a multi-technique
campaign.  A technique is blocked at the first step where the number of
applied mitigations mapped to it reaches the campaign's threshold; the
plan blocks the campaign when every technique is.  The baseline measures
the same walk over uniformly random mitigation orders, with one
counter-based RNG stream per trial so runs reproduce bit-for-bit
regardless of evaluation order.
"""

from __future__ import annotations

import logging
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import _mcsim_py as _kernel
from .catalog import (
    Catalog,
    is_subtechnique,
    parent_technique,
    parse_mitigation_id,
    parse_technique_id,
)
from .errors import SimulationError, ValidationError
from .mcdm import RankedPlan


log = logging.getLogger(__name__)

MAX_SEED = 2**64 - 1


def _is_integer(value) -> bool:
    """True for Python and NumPy integers; bool is an int subclass but
    never a count or a seed."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class Campaign:
    """Attack scenario: techniques the adversary will use, and how many
    mapped mitigations it takes to block each one."""

    techniques: tuple[str, ...]
    block_threshold: int = 1

    def __post_init__(self):
        object.__setattr__(self, "techniques", tuple(self.techniques))
        if not self.techniques:
            raise ValidationError("campaign needs at least one technique")
        for tid in self.techniques:
            parse_technique_id(tid)
        if len(set(self.techniques)) != len(self.techniques):
            raise ValidationError("campaign techniques must be unique")
        if not _is_integer(self.block_threshold) or self.block_threshold < 1:
            raise ValidationError(
                f"block threshold must be a positive integer, got {self.block_threshold!r}"
            )
        object.__setattr__(self, "block_threshold", int(self.block_threshold))


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of walking one mitigation order against a campaign."""

    steps_to_block: int | None
    per_technique_block_step: tuple[tuple[str, int | None], ...]
    coverage_curve: tuple[tuple[int, float], ...]

    def __post_init__(self):
        steps = [step for _, step in self.per_technique_block_step]
        expected = max(steps) if steps and None not in steps else None
        if self.steps_to_block != expected:
            raise ValidationError(
                "steps_to_block must be the max per-technique step, or absent "
                "when any technique stays unblocked"
            )
        fractions = [f for _, f in self.coverage_curve]
        if any(b < a for a, b in zip(fractions, fractions[1:])):
            raise ValidationError("coverage curve must be nondecreasing")
        ends_at_one = bool(fractions) and fractions[-1] == 1.0
        if (self.steps_to_block is not None) != ends_at_one:
            raise ValidationError(
                "coverage curve must end at 1.0 exactly when the campaign blocks"
            )

    @property
    def blocked(self) -> bool:
        return self.steps_to_block is not None

    def block_step(self, technique_id: str) -> int | None:
        for tid, step in self.per_technique_block_step:
            if tid == technique_id:
                return step
        raise SimulationError(f"{technique_id} is not part of this result")

    def to_dict(self) -> dict:
        return {
            "steps_to_block": self.steps_to_block,
            "per_technique_block_step": dict(self.per_technique_block_step),
            "coverage_curve": [[step, frac] for step, frac in self.coverage_curve],
        }


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregate of random-order trials; mean/std are over blocked trials
    and absent when no trial blocked."""

    trials: int
    seed: int
    mean_steps: float | None
    std_steps: float | None
    unblocked_fraction: float

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if not 0 <= self.seed <= MAX_SEED:
            raise ValidationError("seed must fit in 64 unsigned bits")
        if not 0.0 <= self.unblocked_fraction <= 1.0:
            raise ValidationError("unblocked_fraction must be in [0, 1]")
        if (self.mean_steps is None) != (self.std_steps is None):
            raise ValidationError("mean_steps and std_steps must be absent together")
        if (self.mean_steps is None) != (self.unblocked_fraction == 1.0):
            raise ValidationError(
                "mean_steps is absent exactly when every trial stayed unblocked"
            )

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "mean_steps": self.mean_steps,
            "std_steps": self.std_steps,
            "unblocked_fraction": self.unblocked_fraction,
        }


@dataclass(frozen=True)
class ComparisonReport:
    """Plan-order result next to the random baseline.

    ratio = baseline mean steps / plan steps; absent when either side
    never blocks.
    """

    plan_result: SimulationResult
    baseline: MonteCarloSummary
    ratio: float | None

    @property
    def plan_steps(self) -> int | None:
        return self.plan_result.steps_to_block

    def to_dict(self) -> dict:
        return {
            "plan": self.plan_result.to_dict(),
            "baseline": self.baseline.to_dict(),
            "ratio": self.ratio,
        }


def resolve_campaign(campaign: Campaign, catalog: Catalog) -> tuple[str, ...]:
    """Campaign technique IDs as they appear in the catalog, sorted and
    de-duplicated.

    A sub-technique absent from the catalog falls back to its parent,
    matching catalogs ingested with sub-technique collapse.  A technique
    with no match either way is an error.
    """
    resolved = set()
    for tid in campaign.techniques:
        if catalog.has_technique(tid):
            resolved.add(tid)
            continue
        if is_subtechnique(tid):
            parent = parent_technique(tid)
            if catalog.has_technique(parent):
                resolved.add(parent)
                continue
        raise SimulationError(f"campaign technique {tid} not in catalog")
    return tuple(sorted(resolved))


def _mitigation_order(plan) -> tuple[str, ...]:
    if isinstance(plan, RankedPlan):
        return plan.mitigation_order()
    if isinstance(plan, str):
        raise ValidationError("plan must be a RankedPlan or a sequence of IDs")
    order = tuple(plan)
    for mid in order:
        parse_mitigation_id(mid)
    return order


def simulate_campaign(plan, catalog: Catalog, campaign: Campaign) -> SimulationResult:
    """Walk the plan in rank order and record when each campaign technique
    accumulates enough mapped mitigations to block.

    `plan` may be a RankedPlan or any sequence of mitigation IDs.  Every
    mitigation must exist in the catalog.  Deterministic.
    """
    order = _mitigation_order(plan)
    known = set(catalog.mitigation_ids())
    seen = set()
    for mid in order:
        if mid not in known:
            raise SimulationError(f"plan mitigation {mid} not in catalog")
        if mid in seen:
            raise SimulationError(f"plan applies {mid} twice")
        seen.add(mid)

    resolved = resolve_campaign(campaign, catalog)
    mapped = {tid: set(catalog.mitigations_for(tid)) for tid in resolved}
    counts = dict.fromkeys(resolved, 0)
    block_step: dict[str, int | None] = dict.fromkeys(resolved)
    blocked = 0
    curve = []
    for step, mid in enumerate(order, start=1):
        for tid in resolved:
            if block_step[tid] is None and mid in mapped[tid]:
                counts[tid] += 1
                if counts[tid] == campaign.block_threshold:
                    block_step[tid] = step
                    blocked += 1
        curve.append((step, blocked / len(resolved)))
    steps = max(block_step.values()) if blocked == len(resolved) else None
    return SimulationResult(
        steps_to_block=steps,
        per_technique_block_step=tuple((tid, block_step[tid]) for tid in resolved),
        coverage_curve=tuple(curve),
    )


def _cover_matrix(catalog: Catalog, resolved: tuple[str, ...]) -> np.ndarray:
    mids = catalog.mitigation_ids()
    row_of = {mid: i for i, mid in enumerate(mids)}
    covers = np.zeros((len(mids), len(resolved)), dtype=np.uint8)
    for j, tid in enumerate(resolved):
        for mid in catalog.mitigations_for(tid):
            covers[row_of[mid], j] = 1
    return covers


# Philox4x64-10 (Salmon et al., SC 2011), as NumPy's Philox bit generator
# implements it: the multipliers for counter words 0 and 2, split into
# 32-bit halves for `_mulhi`, and the Weyl increments added to the two key
# words after each round.  Each is a (2, 1) column that broadcasts across
# a block's lanes.
_LOW32 = 0xFFFFFFFF
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_M_LO = _PHILOX_M & _LOW32
_PHILOX_M_HI = _PHILOX_M >> 32
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)

# Where a 64-bit word's low and high 32-bit halves sit in its uint32 view.
_HALVES = (0, 1) if sys.byteorder == "little" else (1, 0)

# Scratch memory a lane pool may hold, whatever the trial count: 1.125 MiB.
# Each walk fits as many lanes as its own bytes per lane allow, so a walk
# with lean lanes runs more trials per round, and so makes fewer NumPy
# calls per trial, while a walk with wide lanes holds no more memory.
SCRATCH_BYTES = 9 * 2**17

# Bytes every lane holds at a pool's peak: its state (slot, trial,
# counter, i and row offset, 8 bytes each) and its share of a round's
# temporaries, the Philox block in flight and the arrays made for each
# word it tests.  tracemalloc puts the whole at 171 to 175 bytes.
_LANE_BYTES = 192


def _pool_width(trials: int, lane_bytes: int) -> int:
    """Lanes in a pool whose lanes hold `lane_bytes` each: as many as
    SCRATCH_BYTES holds, but at least one, and no more than `trials`."""
    return min(trials, max(1, SCRATCH_BYTES // lane_bytes))


def _mulhi(a, b_lo, b_hi):
    """High 64 bits of the 128-bit products a * b, given b's 32-bit
    halves; uint64 arithmetic wraps mod 2^64.  Works in place on its
    own temporaries, so a call makes four arrays, not fourteen."""
    a_lo = a & _LOW32
    a_hi = a >> 32
    mid = a_hi * b_lo
    carry = a_lo * b_lo
    carry >>= 32
    mid += carry
    a_lo *= b_hi
    np.bitwise_and(mid, _LOW32, out=carry)
    carry += a_lo
    carry >>= 32
    mid >>= 32
    a_hi *= b_hi
    a_hi += mid
    a_hi += carry
    return a_hi


def _philox_block(counters, seed: int, keys):
    """One Philox4x64-10 block per lane, for counter [counters, 0, 0, 0]
    and key [seed, keys]: its four 64-bit output words, one array of
    lanes each."""
    # Rows of p are words 0 and 2, which a round multiplies by M into
    # 128-bit products hi:lo.  Words 1 and 3 are the previous round's lo
    # in swapped rows, so a round sets p = hi[::-1] ^ lo_prev[::-1] ^ key,
    # computed as (hi ^ lo_prev)[::-1] ^ key.
    n = keys.size
    key = np.empty((2, n), dtype=np.uint64)
    key[0] = seed
    key[1] = keys
    # Round 1: counter words 1..3 are 0, so only M0 * counter is nonzero.
    p = np.empty((2, n), dtype=np.uint64)
    p[0] = seed
    p[1] = keys ^ _mulhi(counters, _PHILOX_M_LO[0], _PHILOX_M_HI[0])
    lo = np.zeros((2, n), dtype=np.uint64)
    lo[0] = counters * _PHILOX_M[0]
    for _ in range(9):
        key += _PHILOX_W
        hi = _mulhi(p, _PHILOX_M_LO, _PHILOX_M_HI)
        hi ^= lo
        # p becomes this round's lo, and lo's buffer the next p.
        p *= _PHILOX_M
        np.bitwise_xor(hi[::-1], key, out=lo)
        p, lo = lo, p
    return p[0], lo[1], p[1], lo[0]


def _shuffle_lanes(m: int, trials: int, seed: int, width: int, start, place) -> None:
    """Run the Fisher-Yates shuffle of `trial_orders` for trials
    0..trials-1 in a pool of `width` lanes, m >= 2, where width is 1 to
    trials (0 when trials is 0).

    Each lane holds one trial and consumes one Philox block of that
    trial's stream per round, testing its eight words against its own i.
    A lane whose trial is over (i reached 0, or `place` says so) takes
    the next trial in the following round, at that trial's counter 1;
    once no trial is left, finished lanes leave the pool.

    ``start(slots, trials)`` readies lane slots for new trials and returns
    each lane's row offset in the buffer that `place` works on.
    ``place(slots, rows, i, j, accept)`` sees every word the whole pool
    draws: the lanes' slots and row offsets, each lane's i, the j it
    drew and whether j <= i accepts it.  Lanes whose shuffle has ended
    are in it too, at i = 0 (accepting j = 0) or i = -1 (accepting
    nothing) until the round ends.  It returns the indices (into the
    pool) of the lanes whose trial is now over, or None.
    """
    masks = np.array([(1 << i.bit_length()) - 1 for i in range(m)], dtype=np.int64)
    slot = np.arange(width)
    trial = np.arange(width, dtype=np.uint64)
    counter = np.zeros(width, dtype=np.uint64)
    i = np.full(width, m - 1, dtype=np.int64)
    row = start(slot, trial)
    queued = width
    while slot.size:
        counter += 1
        for x in _philox_block(counter, seed, trial):
            halves = x.view(np.uint32)
            for half in _HALVES:
                # A lane whose i reached 0 draws j = 0 (a no-op swap) and
                # moves to i = -1; a lane at i < 0 accepts no later word:
                # masks[i] is still a valid index and j >= 0.
                j = halves[half::2] & masks[i]
                accept = j <= i
                over = place(slot, row, i, j, accept)
                i -= accept
                if over is not None:
                    i[over] = -1
        # Free this round's arrays before the next block is made.
        del x, halves, j, accept
        ended = np.flatnonzero(i <= 0)
        if ended.size:
            fresh = ended[: trials - queued]
            if fresh.size:
                trial[fresh] = np.arange(queued, queued + fresh.size, dtype=np.uint64)
                counter[fresh] = 0
                i[fresh] = m - 1
                row[fresh] = start(slot[fresh], trial[fresh])
                queued += fresh.size
            if fresh.size < ended.size:
                live = np.ones(slot.size, dtype=bool)
                live[ended[fresh.size :]] = False
                slot, trial, counter, i, row = (
                    slot[live], trial[live], counter[live], i[live], row[live]
                )


def trial_orders(m: int, trials: int, seed: int) -> np.ndarray:
    """Random mitigation orders, one permutation of 0..m-1 per trial.

    Row t equals ``Generator(Philox(key=[seed, t])).permutation(m)``:
    a Philox4x64-10 stream keyed (seed, t) whose counter starts at 1,
    read 32 bits at a time (low half of each 64-bit output first), feeds
    NumPy's Fisher-Yates shuffle of arange(m), which for i = m-1 .. 1
    draws j by masked rejection (u32 & (2^bitlen(i) - 1), redrawn while
    above i) and swaps positions i and j.  Each trial owns its stream,
    so the batch is independent of generation order and any row can be
    regenerated alone.

    Trials draw side by side in the lane pool of `_shuffle_lanes`, and
    each keeps the j it accepted for position i as code i + 1 of its own
    row of the result, viewed as small integers: a row's 8m bytes hold
    m + 1 codes below 2m.  Every word is written, accepted or not; a
    rejected word leaves i in place, so the last word written for i is
    the accepted one, and lanes past the end (i = 0 or -1) write codes 1
    and 0, which nothing reads.  The swaps then run one position at a
    time across a block of trials, on cells no wider than m needs, and
    each finished block overwrites its rows' codes, all read by then.
    """
    orders = np.empty((trials, m), dtype=np.int64)
    if m < 2:
        orders[:] = np.arange(m)
        return orders
    codes = orders.view(np.min_scalar_type(2 * m))
    flat = codes.reshape(-1)

    def start(slots, lane_trials):
        return lane_trials.astype(np.int64) * codes.shape[1] + 1

    def place(slots, rows, i, j, accept):
        flat[rows + i] = j

    _shuffle_lanes(m, trials, seed, _pool_width(trials, _LANE_BYTES), start, place)
    if trials == 0:
        return orders
    # A trial's swap scratch: its column of cells, the cell it holds
    # during a swap and the one np.take buffers, its cell index and lane
    # number, and the buffer that widens its code to an index.
    cell = np.min_scalar_type(m)
    width = _pool_width(trials, (m + 2) * cell.itemsize + 24)
    cells = np.empty(m * width, dtype=cell)
    held = np.empty(width, dtype=cell)
    at = np.empty(width, dtype=np.intp)
    lanes = np.arange(width)
    for first in range(0, trials, width):
        n = min(width, trials - first)
        # work[k, lane] holds position k of trial first + lane.
        work = cells[: m * n].reshape(m, n)
        work[:] = np.arange(m, dtype=cell)[:, None]
        for i in range(m - 1, 0, -1):
            np.multiply(codes[first : first + n, i + 1], n, out=at[:n], dtype=np.intp)
            at[:n] += lanes[:n]
            held[:n] = work[i]
            np.take(cells, at[:n], out=work[i])
            cells[at[:n]] = held[:n]
        orders[first : first + n] = work.T
    return orders


def forward_steps(covers: np.ndarray, threshold: int, trials: int, seed: int) -> np.ndarray:
    """Steps to block per trial (-1 when a trial never blocks): the whole
    order of every trial from `trial_orders`, then the steps-to-block
    kernel over them."""
    orders = trial_orders(covers.shape[0], trials, seed)
    out = np.empty(trials, dtype=np.int64)
    _kernel.steps_to_block_batch(orders, covers, threshold, out)
    return out


def backward_steps(covers: np.ndarray, threshold: int, trials: int, seed: int) -> np.ndarray:
    """`forward_steps`, bit for bit, without building whole orders.

    The shuffle places positions m-1, m-2, ... in turn, and after it
    places position i the prefix 0..i-1 holds exactly the mitigations not
    yet placed.  A trial tracks each technique's covering rows left in
    that prefix; the first placement that leaves some technique fewer
    than `threshold` of them puts that technique's threshold-th cover,
    and so the campaign's block, at step i + 1.  The trial stops there.
    A trial in which no count drops blocks at step 1.
    """
    m, t = covers.shape
    cover_counts = covers.sum(axis=0)
    if t == 0 or (cover_counts < threshold).any():
        return np.full(trials, -1, dtype=np.int64)
    out = np.ones(trials, dtype=np.int64)
    if m < 2:
        return out
    count_type = np.min_scalar_type(-m)
    cover_rows = covers.astype(count_type)
    # A lane adds its prefix row, in cells no wider than m needs, its
    # trial's number and four arrays of t counts: its own, and the three
    # temporaries `place` makes for it on a hit (`left[slots]`,
    # `cover_rows[placed]` and `remaining`) with their `< threshold`
    # mask.  tracemalloc puts a full pool's peak past its output at 0.81
    # of SCRATCH_BYTES at m = 45, t = 20, 0.79 at m = 100, t = 60 and
    # 0.97 at m = 257, t = 3; counting the t counts once put it at 0.93,
    # 1.18 and 1.00.
    cell = np.min_scalar_type(m - 1)
    width = _pool_width(
        trials, _LANE_BYTES + cell.itemsize * m + 4 * count_type.itemsize * t + 8
    )
    prefix = np.empty((width, m), dtype=cell)
    flat = prefix.reshape(-1)
    left = np.empty((width, t), dtype=count_type)
    owner = np.empty(width, dtype=np.int64)

    def start(slots, lane_trials):
        prefix[slots] = np.arange(m)
        left[slots] = cover_counts
        owner[slots] = lane_trials
        return slots * m

    def place(slots, rows, i, j, accept):
        hit = np.flatnonzero(accept)
        slots, at, i = slots[hit], rows[hit], i[hit]
        pos_j = at + j[hit]
        # Position i is final, so only the swap's other half is written.
        placed = flat[pos_j]
        flat[pos_j] = flat[at + i]
        remaining = left[slots] - cover_rows[placed]
        left[slots] = remaining
        over = (remaining < threshold).any(axis=1)
        out[owner[slots[over]]] = i[over] + 1
        return hit[over]

    _shuffle_lanes(m, trials, seed, width, start, place)
    return out


def random_baseline(
    catalog: Catalog, campaign: Campaign, trials: int, seed: int
) -> MonteCarloSummary:
    """Monte Carlo estimate of steps-to-block under uniformly random
    mitigation ordering.

    Unblockable trials (threshold unreachable for some technique) carry
    no step count; they only raise unblocked_fraction.  The steps come
    from `backward_steps` or `forward_steps`, which agree bit for bit;
    the campaign's fewest covers choose the cheaper one.
    """
    if not _is_integer(trials) or trials < 1:
        raise ValidationError(f"trials must be an integer >= 1, got {trials!r}")
    if not _is_integer(seed) or not 0 <= seed <= MAX_SEED:
        raise ValidationError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    trials, seed = int(trials), int(seed)
    resolved = resolve_campaign(campaign, catalog)
    covers = _cover_matrix(catalog, resolved)
    threshold = campaign.block_threshold
    # A technique with r covers blocks, on average, no earlier than step
    # threshold * (m + 1) / (r + 1).  When some r <= 2 * threshold - 1
    # that is past mid-order, so the backward walk stops within about
    # half the swaps of a whole shuffle, which more than pays for its
    # dearer swaps.
    counts = covers.sum(axis=0)
    fewest = int(np.argmin(counts))
    backward = counts[fewest] <= 2 * threshold - 1
    log.info(
        "random baseline: %s walk (%s has %d covers, %s 2k-1 = %d)",
        "backward" if backward else "forward",
        resolved[fewest],
        counts[fewest],
        "<=" if backward else ">",
        2 * threshold - 1,
    )
    walk = backward_steps if backward else forward_steps
    out = walk(covers, threshold, trials, seed)
    blocked = out[out > 0]
    unblocked_fraction = float(trials - blocked.size) / trials
    if blocked.size:
        mean = float(blocked.mean())
        std = float(blocked.std())
        if blocked.size > 1 and log.isEnabledFor(logging.INFO):
            se = float(blocked.std(ddof=1)) / math.sqrt(blocked.size)
            log.info(
                "random baseline: standard error of the mean %.4f over %d blocked trials",
                se,
                blocked.size,
            )
    else:
        mean = std = None
    return MonteCarloSummary(
        trials=trials,
        seed=seed,
        mean_steps=mean,
        std_steps=std,
        unblocked_fraction=unblocked_fraction,
    )


def compare_orders(
    plan, catalog: Catalog, campaign: Campaign, trials: int, seed: int
) -> ComparisonReport:
    """How much faster the ranked plan blocks the campaign than random
    ordering: simulate both and report the ratio of mean baseline steps
    to plan steps."""
    plan_result = simulate_campaign(plan, catalog, campaign)
    baseline = random_baseline(catalog, campaign, trials, seed)
    if plan_result.steps_to_block is not None and baseline.mean_steps is not None:
        ratio = baseline.mean_steps / plan_result.steps_to_block
    else:
        ratio = None
    return ComparisonReport(plan_result=plan_result, baseline=baseline, ratio=ratio)
