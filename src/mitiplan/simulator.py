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

import numbers
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
# implements it: the multipliers for counter words 0 and 2, and the Weyl
# increments added to the two key words after each round.
_PHILOX_M = ((0xD2E7470EE14C6C93,), (0xCA5A826395121157,))
_PHILOX_W = ((0x9E3779B97F4A7C15,), (0xBB67AE8584CAA73B,))
_LOW32 = 0xFFFFFFFF
_LOW64 = 0xFFFFFFFFFFFFFFFF

# Trials generated side by side.  Scratch memory grows with this, not
# with the trial count.
TRIAL_LANES = 2048


def _philox_block(counter: int, seed: int, lanes: np.ndarray):
    """One Philox4x64-10 block per lane, for counter [counter, 0, 0, 0]
    and key [seed, lane]: its four 64-bit output words, one array of
    lanes each."""
    # Rows of p are words 0 and 2, which a round multiplies by M into
    # 128-bit products hi:lo.  Words 1 and 3 are the previous round's lo
    # in swapped rows, so a round sets p = hi[::-1] ^ lo_prev[::-1] ^ key,
    # computed as (hi ^ lo_prev)[::-1] ^ key.  Constants are expanded to
    # full rows because NumPy's contiguous loops run about twice as fast
    # as broadcast ones.
    n = lanes.size
    mul = np.repeat(np.array(_PHILOX_M, dtype=np.uint64), n, axis=1)
    mul_lo = mul & _LOW32
    mul_hi = mul >> 32
    bump = np.repeat(np.array(_PHILOX_W, dtype=np.uint64), n, axis=1)
    key = np.empty((2, n), dtype=np.uint64)
    key[0] = seed
    key[1] = lanes
    # Round 1: counter words 1..3 are 0, so only M0 * counter is nonzero.
    first = _PHILOX_M[0][0] * counter
    p = np.empty((2, n), dtype=np.uint64)
    p[0] = seed
    p[1] = lanes ^ (first >> 64)
    lo = np.zeros((2, n), dtype=np.uint64)
    lo[0] = first & _LOW64
    for _ in range(9):
        key += bump
        # 64x64 -> 128-bit multiply from 32-bit halves; uint64 wraps mod 2^64.
        p_lo = p & _LOW32
        p_hi = p >> 32
        mid = p_hi * mul_lo + ((p_lo * mul_lo) >> 32)
        low_mid = (mid & _LOW32) + p_lo * mul_hi
        hi = p_hi * mul_hi + (mid >> 32) + (low_mid >> 32)
        next_lo = p * mul
        p = (hi ^ lo)[::-1] ^ key
        lo = next_lo
    return p[0], lo[1], p[1], lo[0]


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

    Trials run in lockstep, TRIAL_LANES at a time.  Every live lane
    consumes one whole block per step, so all lanes share the counter
    and each tests its eight words against its own i; a lane drops out
    once its i reaches 0.
    """
    orders = np.empty((trials, m), dtype=np.int64)
    orders[:] = np.arange(m)
    if m < 2:
        return orders
    flat = orders.reshape(-1)
    masks = np.array([(1 << i.bit_length()) - 1 for i in range(m)], dtype=np.int64)
    for start in range(0, trials, TRIAL_LANES):
        lanes = np.arange(start, min(start + TRIAL_LANES, trials), dtype=np.uint64)
        rows = lanes.astype(np.int64) * m
        i = np.full(lanes.size, m - 1, dtype=np.int64)
        counter = 0
        while lanes.size:
            counter += 1
            for x in _philox_block(counter, seed, lanes):
                for word in (x & _LOW32, x >> 32):
                    # A lane whose i reached 0 draws j = 0 (a no-op swap)
                    # and moves to i = -1, which no later word accepts:
                    # masks[-1] is still a valid index and j >= 0.
                    j = word.view(np.int64) & masks[i]
                    accept = j <= i
                    hit = np.flatnonzero(accept)
                    row = rows[hit]
                    pos_i = row + i[hit]
                    pos_j = row + j[hit]
                    held = flat[pos_i]
                    flat[pos_i] = flat[pos_j]
                    flat[pos_j] = held
                    i -= accept
            live = i > 0
            if not live.all():
                lanes, rows, i = lanes[live], rows[live], i[live]
    return orders


def random_baseline(
    catalog: Catalog, campaign: Campaign, trials: int, seed: int
) -> MonteCarloSummary:
    """Monte Carlo estimate of steps-to-block under uniformly random
    mitigation ordering.

    Unblockable trials (threshold unreachable for some technique) carry
    no step count; they only raise unblocked_fraction.
    """
    if not _is_integer(trials) or trials < 1:
        raise ValidationError(f"trials must be an integer >= 1, got {trials!r}")
    if not _is_integer(seed) or not 0 <= seed <= MAX_SEED:
        raise ValidationError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    trials, seed = int(trials), int(seed)
    resolved = resolve_campaign(campaign, catalog)
    covers = _cover_matrix(catalog, resolved)
    orders = trial_orders(covers.shape[0], trials, seed)
    out = np.empty(trials, dtype=np.int64)
    _kernel.steps_to_block_batch(orders, covers, campaign.block_threshold, out)
    blocked = out[out > 0]
    unblocked_fraction = float(trials - blocked.size) / trials
    if blocked.size:
        mean = float(blocked.mean())
        std = float(blocked.std())
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
