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
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import _kernel
from .catalog import (
    _MITIGATION_IDS_RE,
    Catalog,
    _is_integer,
    _plain_columns,
    _sequence,
    parse_mitigation_id,
    parse_technique_id,
)
from .errors import SimulationError, ValidationError
from .mcdm import RankedPlan
from .scoring import _real


log = logging.getLogger(__name__)

MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class Campaign:
    """Attack scenario: techniques the adversary will use, and how many
    mapped mitigations it takes to block each one."""

    techniques: tuple[str, ...]
    block_threshold: int = 1

    def __post_init__(self):
        techniques = _sequence(self.techniques, "campaign techniques must be a sequence of IDs")
        object.__setattr__(self, "techniques", techniques)
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
        for name in ("per_technique_block_step", "coverage_curve"):
            pairs = _sequence(getattr(self, name), f"{name} must be a sequence of pairs")
            if not all(isinstance(pair, (tuple, list)) and len(pair) == 2 for pair in pairs):
                raise ValidationError(f"{name} must be a sequence of pairs, got {pairs!r}")
            object.__setattr__(self, name, pairs)
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
        for name, value in (("trials", self.trials), ("seed", self.seed)):
            if not _is_integer(value):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if not 0 <= self.seed <= MAX_SEED:
            raise ValidationError("seed must fit in 64 unsigned bits")
        _real(self.unblocked_fraction, "unblocked_fraction")
        for name in ("mean_steps", "std_steps"):
            if getattr(self, name) is not None:
                _real(getattr(self, name), name)
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
        match = tid if catalog.has_technique(tid) else tid.partition(".")[0]
        if not catalog.has_technique(match):
            raise SimulationError(f"campaign technique {tid} not in catalog")
        resolved.add(match)
    return tuple(sorted(resolved))


def _mitigation_order(plan) -> tuple[str, ...]:
    if isinstance(plan, RankedPlan):
        return plan.mitigation_order()
    order = _sequence(plan, "plan must be a RankedPlan or a sequence of IDs")
    # One test of the whole column; the first bad ID then names itself.
    if not _plain_columns(order, (), ids_re=_MITIGATION_IDS_RE):
        for mid in order:
            parse_mitigation_id(mid)
    return order


def simulate_campaign(plan, catalog: Catalog, campaign: Campaign) -> SimulationResult:
    """Walk the plan in rank order and record when each campaign technique
    accumulates enough mapped mitigations to block.

    `plan` may be a RankedPlan or any sequence of mitigation IDs.  Every
    mitigation must exist in the catalog, once; the first that does not,
    in plan order, is an error.  Deterministic.
    """
    order = _mitigation_order(plan)
    rows = np.fromiter(map(catalog.mitigation_index.get, order, repeat(-1)), np.intp)
    repeated = np.ones(rows.size, dtype=bool)
    repeated[np.unique(rows, return_index=True)[1]] = False
    bad = np.flatnonzero(repeated | (rows < 0))
    if bad.size:
        mid = order[bad[0]]
        if rows[bad[0]] < 0:
            raise SimulationError(f"plan mitigation {mid} not in catalog")
        raise SimulationError(f"plan applies {mid} twice")

    # A technique is short of the threshold over a prefix of the steps
    # and blocks one step past it, or never when that is past the plan.
    # Covers never outnumber the steps, so any threshold past them acts alike.
    resolved = resolve_campaign(campaign, catalog)
    threshold = min(campaign.block_threshold, rows.size + 1)
    taken = np.cumsum(_cover_matrix(catalog, resolved)[rows], axis=0)
    steps = (taken < threshold).sum(axis=0) + 1
    blocked = np.bincount(steps, minlength=rows.size + 2)[1:-1].cumsum()
    block_step = [step if step <= rows.size else None for step in steps.tolist()]
    return SimulationResult(
        steps_to_block=None if None in block_step else max(block_step),
        per_technique_block_step=tuple(zip(resolved, block_step)),
        coverage_curve=tuple(
            (step, count / len(resolved))
            for step, count in enumerate(blocked.tolist(), start=1)
        ),
    )


def _cover_matrix(catalog: Catalog, resolved: tuple[str, ...]) -> np.ndarray:
    return catalog.covers([catalog.technique_index[tid] for tid in resolved])


# Philox4x64-10 (Salmon et al., SC 2011), as NumPy's Philox bit generator
# implements it: the multipliers for counter words 0 and 2, split into
# 32-bit halves for `_mulhi`, and the Weyl increments added to the two key
# words after each round.  Each is a (2, 1) column that broadcasts across
# a block's lanes; row 0's are also kept as Python ints.  The masks and
# shifts are NumPy scalars, which a ufunc takes faster than Python ints.
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_M_LO = _PHILOX_M & _LOW32
_PHILOX_M_HI = _PHILOX_M >> _SHIFT32
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_M0, _W0 = int(_PHILOX_M[0, 0]), int(_PHILOX_W[0, 0])

# Bytes every lane holds at a pool's peak, inside `_philox_block`: its
# state (slot, trial, counter, i and row offset, 8 bytes each), the two
# word pairs it returns and its nine rows of round temporaries.  Over
# `_draw_codes` at a full forward pool of 10,142 lanes, m = 2 to 1000,
# tracemalloc puts the whole at 144 to 147 bytes; the arrays made for
# each word a round tests take less.
_LANE_BYTES = 168

# Scratch memory any Monte Carlo pass (a lane pool, or a swap block and
# the kernel pass over it) may hold, whatever the trial count: 1.625 MiB,
# the smallest multiple of 2^17 whose forward pool, 10,142 lanes of
# `_LANE_BYTES`, draws the CLI's default 10,000 trials in one generation.
SCRATCH_BYTES = 13 * 2**17


def _pool_width(trials: int, lane_bytes: int, shared: int = 0) -> int:
    """Trials in a pass (lanes in a pool) that hold `lane_bytes` each,
    beside `shared` bytes kept for all of them: as many as the rest of
    SCRATCH_BYTES holds, but at least one, and no more than `trials`."""
    return min(trials, max(1, (SCRATCH_BYTES - shared) // lane_bytes))


def _mulhi(a, b_lo, b_hi, scratch):
    """High 64 bits of the 128-bit products a * b, given b's 32-bit
    halves; uint64 arithmetic wraps mod 2^64.  Works in the four arrays
    of `scratch`, shaped like a, and returns the one that holds it."""
    a_lo, a_hi, mid, carry = scratch
    np.bitwise_and(a, _LOW32, out=a_lo)
    np.right_shift(a, _SHIFT32, out=a_hi)
    np.multiply(a_hi, b_lo, out=mid)
    np.multiply(a_lo, b_lo, out=carry)
    carry >>= _SHIFT32
    mid += carry
    a_lo *= b_hi
    np.bitwise_and(mid, _LOW32, out=carry)
    carry += a_lo
    carry >>= _SHIFT32
    mid >>= _SHIFT32
    a_hi *= b_hi
    a_hi += mid
    a_hi += carry
    return a_hi


def _philox_block(counters, seed: int, keys):
    """One Philox4x64-10 block per lane, for counter [counters, 0, 0, 0]
    and key [seed, keys]: its four 64-bit output words, one array of
    lanes each."""
    # Rows of p are words 0 and 2, which a round multiplies by M into
    # 128-bit products hi:lo; rows of lo are words 3 and 1, the previous
    # round's lo.  A round sets p = (hi ^ lo)[::-1] ^ key and lo to its
    # own lo.  Key word 0 is the same in every lane, so it is a Python
    # int.  Key word 1 and `_mulhi`'s scratch are rows of one block, made
    # once a call and freed on return, so the lanes hold only p and lo
    # while they test the words.
    p, lo = np.empty((2, 2, len(keys)), dtype=np.uint64)
    block = np.empty((9, len(keys)), dtype=np.uint64)
    key1 = block[0]
    # Lists, so that `_mulhi` unpacks them without making views each round.
    scratch = list(block[1:].reshape(4, 2, -1))
    one_row = [s[0] for s in scratch]
    # Round 1: counter words 1..3 are 0, so only M0 * counter is nonzero,
    # and word 0 comes out as the seed in every lane.
    np.bitwise_xor(keys, _mulhi(counters, _PHILOX_M_LO[0], _PHILOX_M_HI[0], one_row), out=p[1])
    np.multiply(counters, _PHILOX_M[0], out=lo[0])
    # Round 2: words 0 and 1 are the seed and 0, so M0 * seed, this
    # round's word 3, is a scalar too.
    key0 = (seed + _W0) % 2**64
    np.add(keys, _PHILOX_W[1], out=key1)
    hi = _mulhi(p[1], _PHILOX_M_LO[1], _PHILOX_M_HI[1], one_row)
    np.bitwise_xor(hi, key0, out=p[0])
    np.multiply(p[1], _PHILOX_M[1], out=lo[1])
    np.bitwise_xor(lo[0], key1, out=p[1])
    hi0, lo[0] = divmod(_M0 * seed, 2**64)
    p[1] ^= hi0
    for _ in range(8):
        key0 = (key0 + _W0) % 2**64
        key1 += _PHILOX_W[1]
        hi = _mulhi(p, _PHILOX_M_LO, _PHILOX_M_HI, scratch)
        hi ^= lo
        np.multiply(p, _PHILOX_M, out=lo)
        np.bitwise_xor(hi[1], key0, out=p[0])
        np.bitwise_xor(hi[0], key1, out=p[1])
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
            # A word's low 32 bits come first, then its high ones.  In the
            # int64 view a word, and so its shift, may be negative; a mask,
            # below 2^32, keeps none of the sign bits.
            x = x.view(np.int64)
            for half in (x, x >> 32):
                # A lane whose i reached 0 draws j = 0 (a no-op swap) and
                # moves to i = -1; a lane at i < 0 accepts no later word:
                # masks[i] is still a valid index and j >= 0.
                j = half & masks[i]
                accept = j <= i
                over = place(slot, row, i, j, accept)
                i -= accept
                if over is not None:
                    i[over] = -1
        # Free this round's arrays before the next block is made.
        del x, half, j, accept
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


def _code_dtype(m: int) -> np.dtype:
    """The dtype of an m-row shuffle's draw codes: every j a draw tests
    is below 2^bitlen(m - 1) <= 2m."""
    return np.min_scalar_type(2 * m)


def _draw_codes(codes: np.ndarray, m: int, seed: int) -> None:
    """Run the lanes of `_shuffle_lanes` for trials 0..len(codes)-1,
    m >= 2, and keep the j that trial t accepts for position i as
    codes[t, i + 1]; a row holds at least m + 1 codes of `_code_dtype(m)`.

    Every word is written, accepted or not; a rejected word leaves i in
    place, so the last word written for i is the accepted one, and lanes
    past the end (i = 0 or -1) write codes 1 and 0, which nothing reads.
    """
    trials, stride = codes.shape
    flat = codes.reshape(-1)

    def start(slots, lane_trials):
        return lane_trials.astype(np.int64) * stride + 1

    def place(slots, rows, i, j, accept):
        flat[rows + i] = j.astype(flat.dtype)

    _shuffle_lanes(m, trials, seed, _pool_width(trials, _LANE_BYTES), start, place)


def _swapped_blocks(codes: np.ndarray, m: int, ascending: bool, room=(0, 0)):
    """Make the swaps that `_draw_codes` recorded, one position at a
    time across a block of trials, on columns of m cells no wider than
    m needs, each starting as arange(m).  Descending (i = m-1 .. 1) they
    build each trial's order; ascending (i = 1 .. m-1), since each swap
    is its own inverse, the inverse of that order: each mitigation row's
    0-based step.

    Yields (first, work) per block, where work[k, lane] is cell k of
    trial first + lane; the next block reuses it.  Blocks are sized to
    leave `room`, bytes per trial and bytes for all of them, to what the
    caller does with a block.
    """
    trials = codes.shape[0]
    if not trials:
        return
    # A trial's swap scratch: its column of cells, the cell it holds
    # during a swap and the one np.take buffers, its cell index and lane
    # number, and the buffer that widens its code to an index.
    cell = np.min_scalar_type(m)
    lane_bytes, shared = room
    width = _pool_width(trials, (m + 2) * cell.itemsize + 24 + lane_bytes, shared)
    cells = np.empty(m * width, dtype=cell)
    held = np.empty(width, dtype=cell)
    at = np.empty(width, dtype=np.intp)
    lanes = np.arange(width)
    for first in range(0, trials, width):
        n = min(width, trials - first)
        work = cells[: m * n].reshape(m, n)
        work[:] = np.arange(m, dtype=cell)[:, None]
        for i in range(1, m) if ascending else range(m - 1, 0, -1):
            np.multiply(codes[first : first + n, i + 1], n, out=at[:n], dtype=np.intp)
            at[:n] += lanes[:n]
            held[:n] = work[i]
            np.take(cells, at[:n], out=work[i])
            cells[at[:n]] = held[:n]
        yield first, work


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

    Trials draw side by side in the lane pool, and `_draw_codes` keeps
    each trial's draws in its own row of the result, viewed as small
    integers: a row's 8m bytes hold m + 1 codes below 2m.  The swaps
    then run descending in `_swapped_blocks`, and each finished block
    overwrites its rows' codes, all read by then.
    """
    orders = np.empty((trials, m), dtype=np.int64)
    codes = orders.view(_code_dtype(m))
    if m >= 2:
        _draw_codes(codes, m, seed)
    for first, work in _swapped_blocks(codes, m, ascending=False):
        orders[first : first + work.shape[1]] = work.T
    return orders


def forward_steps(covers: np.ndarray, threshold: int, trials: int, seed: int) -> np.ndarray:
    """Steps to block per trial (-1 when a trial never blocks), from the
    shuffles of `trial_orders` without their orders: the trials' draws
    go to a (trials, m + 1) buffer of codes, the swaps run ascending to
    give each trial's step for every mitigation row, and the
    steps-to-block kernel reads each swap block as it is made, in one
    pass: a block leaves room for it, so the blocks size every call."""
    m = covers.shape[0]
    codes = np.empty((trials, m + 1), dtype=_code_dtype(m))
    if m >= 2:
        _draw_codes(codes, m, seed)
    out = np.empty(trials, dtype=np.int64)
    room = _kernel._pass_bytes(np.count_nonzero(covers, axis=0), np.min_scalar_type(m).itemsize)
    for first, work in _swapped_blocks(codes, m, ascending=True, room=room):
        _kernel.steps_to_block_batch(work.T, covers, threshold, out[first : first + work.shape[1]])
    return out


def _packed_counts(covers: np.ndarray, spare: list[int]):
    """The backward walk's counts, packed into W 64-bit words: each
    row's covers at their techniques' low bits, a lane's starting words
    and the top bit of every field, as uint64 arrays of shape (m, W),
    (W,) and (W,).

    A technique with `spare` covers beyond the threshold owns a field of
    b = bitlen(spare) + 1 bits that starts at 2^(b-1) + spare, so its
    top bit stays set until the technique has spare + 1 covers taken
    away.  Fields fill one word after another in technique order, and
    one that would straddle two words starts the next.
    """
    m, t = covers.shape
    begin, guard, shift, first = [], [], [], []
    used = 64
    for technique, extra in enumerate(spare):
        bits = extra.bit_length() + 1
        if used + bits > 64:
            begin.append(0)
            guard.append(0)
            first.append(technique)
            used = 0
        begin[-1] |= ((1 << (bits - 1)) + extra) << used
        guard[-1] |= 1 << (used + bits - 1)
        shift.append(used)
        used += bits
    shift = np.array(shift, dtype=np.uint64)
    inc = np.empty((m, len(first)), dtype=np.uint64)
    # One word's columns at a time, so the shifted copy holds at most 64
    # columns whatever t is.
    for word, (lo, hi) in enumerate(zip(first, first[1:] + [t])):
        columns = covers[:, lo:hi].astype(np.uint64)
        columns <<= shift[lo:hi]
        np.bitwise_or.reduce(columns, axis=1, out=inc[:, word])
    return inc, np.array(begin, dtype=np.uint64), np.array(guard, dtype=np.uint64)


def backward_steps(covers: np.ndarray, threshold: int, trials: int, seed: int) -> np.ndarray:
    """`forward_steps`, bit for bit, without building whole orders.

    The shuffle places positions m-1, m-2, ... in turn, and after it
    places position i the prefix 0..i-1 holds exactly the mitigations not
    yet placed.  A trial tracks each technique's covering rows left in
    that prefix; the first placement that leaves some technique fewer
    than `threshold` of them puts that technique's threshold-th cover,
    and so the campaign's block, at step i + 1.  The trial stops there.
    A trial in which no count drops blocks at step 1.

    A lane keeps its counts in the packed fields of `_packed_counts`; a
    field's top bit is set exactly while its technique has at least
    `threshold` covers left.  A placement subtracts its row's packed
    covers, which takes at most 1 from each field, and the trial stops
    at the first top bit that clears, so no borrow ever leaves a field.
    """
    m, t = covers.shape
    cover_counts = covers.sum(axis=0)
    if t == 0 or (cover_counts < threshold).any():
        return np.full(trials, -1, dtype=np.int64)
    out = np.ones(trials, dtype=np.int64)
    if m < 2:
        return out
    inc, begin, guard = _packed_counts(covers, (cover_counts - threshold).tolist())
    words = guard.size
    # A lane adds its prefix row, in cells no wider than m needs, its
    # trial's number and four rows of W words: its own counts, the two
    # rows `place` gathers for it on a hit (`state[slots]` and
    # `inc[placed]`) and one for the top-bit test.  The inc table serves
    # every lane for the whole walk, so its bytes come out of the budget
    # before the pool is sized.  tracemalloc puts a full pool's peak past
    # its output at 0.83 of SCRATCH_BYTES at m = 45, t = 20, 0.79 at
    # m = 100, t = 60, 0.96 at m = 257, t = 3 and 0.97 at m = 1000,
    # t = 100; leaving the table out of the budget put the last at 1.03.
    cell = np.min_scalar_type(m - 1)
    width = _pool_width(trials, _LANE_BYTES + cell.itemsize * m + 4 * 8 * words + 8, inc.nbytes)
    prefix = np.empty((width, m), dtype=cell)
    flat = prefix.reshape(-1)
    state = np.empty((width, words), dtype=np.uint64)
    owner = np.empty(width, dtype=np.int64)

    def start(slots, lane_trials):
        prefix[slots] = np.arange(m)
        state[slots] = begin
        owner[slots] = lane_trials
        return slots * m

    def place(slots, rows, i, j, accept):
        hit = np.flatnonzero(accept)
        slots, at, i = slots[hit], rows[hit], i[hit]
        pos_j = at + j[hit]
        # Position i is final, so only the swap's other half is written.
        placed = flat[pos_j]
        flat[pos_j] = flat[at + i]
        counts = state[slots]
        counts -= inc[placed]
        state[slots] = counts
        counts &= guard
        over = (counts != guard).any(axis=1)
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
    # A trial takes 8 bytes of steps, and in the forward walk m + 1 draw
    # codes more.
    m = covers.shape[0]
    per_trial = 8 + (0 if backward else _code_dtype(m).itemsize * (m + 1))
    if trials * per_trial > np.iinfo(np.intp).max:
        raise ValidationError(f"trials {trials} is more than NumPy can hold in one array")
    walk = backward_steps if backward else forward_steps
    try:
        out = walk(covers, threshold, trials, seed)
    except MemoryError:
        raise SimulationError(f"out of memory running {trials} trials") from None
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
