from __future__ import annotations

import hashlib
import logging
import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mitiplan import cli, simulator
from mitiplan.catalog import Catalog, Mitigation, Technique
from mitiplan.errors import SimulationError, ValidationError
from mitiplan.matrix import build_decision_matrix
from mitiplan.mcdm import rank, wsm_scores
from mitiplan.simulator import (
    MAX_SEED,
    Campaign,
    MonteCarloSummary,
    SimulationResult,
    backward_steps,
    compare_orders,
    forward_steps,
    random_baseline,
    resolve_campaign,
    simulate_campaign,
    trial_orders,
)

from helpers import random_catalog_and_weights
from oracles import oracle_steps_to_block, oracle_trial_orders


@pytest.fixture(scope="module")
def v13_plan(v13_matrix):
    return rank(wsm_scores(v13_matrix), v13_matrix)


def _tiny_catalog():
    """Three mitigations; T1059 covered twice, T1112 once, T1036 never."""
    return Catalog(
        techniques=[Technique("T1059"), Technique("T1112"), Technique("T1036")],
        mitigations=[Mitigation("M1038"), Mitigation("M1040"), Mitigation("M1024")],
        mappings=[("M1038", "T1059"), ("M1040", "T1059"), ("M1024", "T1112")],
    )


class TestCampaign:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Campaign(techniques=())
        with pytest.raises(ValidationError):
            Campaign(techniques=("X15",))
        with pytest.raises(ValidationError):
            Campaign(techniques=("T1059", "T1059"))
        with pytest.raises(ValidationError):
            Campaign(techniques=("T1059",), block_threshold=0)

    @pytest.mark.parametrize("threshold", [True, 1.0, 2.5, "2", None])
    def test_threshold_must_be_an_integer(self, threshold):
        with pytest.raises(ValidationError, match="block threshold"):
            Campaign(techniques=("T1059",), block_threshold=threshold)

    def test_numpy_integer_threshold_normalised(self):
        campaign = Campaign(techniques=("T1059",), block_threshold=np.int64(2))
        assert type(campaign.block_threshold) is int
        assert campaign == Campaign(techniques=("T1059",), block_threshold=2)

    def test_accepts_any_sequence(self):
        campaign = Campaign(techniques=["T1059", "T1112"])
        assert campaign.techniques == ("T1059", "T1112")

    def test_string_of_techniques_rejected(self):
        # A string is a sequence too, of characters: "T" is no technique.
        with pytest.raises(ValidationError) as info:
            Campaign(techniques="T1053")
        assert str(info.value) == "campaign techniques must be a sequence of IDs, not a string"

    @pytest.mark.parametrize("techniques", [None, 1053, 1.5])
    def test_techniques_that_are_not_iterable_rejected(self, techniques):
        with pytest.raises(ValidationError) as info:
            Campaign(techniques=techniques)
        assert str(info.value) == (
            f"campaign techniques must be a sequence of IDs, got {techniques!r}"
        )


class TestResolveCampaign:
    def test_members_pass_through_sorted(self, v13_catalog):
        campaign = Campaign(techniques=("T1059", "T1053"))
        assert resolve_campaign(campaign, v13_catalog) == ("T1053", "T1059")

    def test_subtechnique_falls_back_to_parent(self, v13_catalog):
        campaign = Campaign(techniques=("T1053.005", "T1059.001"))
        assert resolve_campaign(campaign, v13_catalog) == ("T1053", "T1059")

    def test_subtechnique_and_parent_collapse_to_one(self, v13_catalog):
        campaign = Campaign(techniques=("T1053.005", "T1053"))
        assert resolve_campaign(campaign, v13_catalog) == ("T1053",)

    def test_unknown_technique_rejected(self, v13_catalog):
        campaign = Campaign(techniques=("T9999",))
        with pytest.raises(SimulationError, match="T9999"):
            resolve_campaign(campaign, v13_catalog)


class TestSimulateCampaign:
    def test_plan_blocks_reference_campaign_at_step_one(self, v13_plan, v13_catalog):
        campaign = Campaign(techniques=("T1053", "T1059"), block_threshold=1)
        result = simulate_campaign(v13_plan, v13_catalog, campaign)
        assert result.steps_to_block == 1
        assert result.per_technique_block_step == (("T1053", 1), ("T1059", 1))

    def test_subtechnique_spelling_gives_identical_result(self, v13_plan, v13_catalog):
        exact = simulate_campaign(
            v13_plan, v13_catalog, Campaign(techniques=("T1053", "T1059"))
        )
        sub = simulate_campaign(
            v13_plan, v13_catalog, Campaign(techniques=("T1053.005", "T1059.001"))
        )
        assert sub == exact

    def test_t1112_blocks_when_plan_reaches_m1024(self, v13_plan, v13_catalog):
        campaign = Campaign(techniques=("T1112",))
        result = simulate_campaign(v13_plan, v13_catalog, campaign)
        expected_step = v13_plan.mitigation_order().index("M1024") + 1
        assert result.steps_to_block == expected_step
        assert dict(result.per_technique_block_step)["T1112"] == expected_step

    def test_plan_without_m1024_never_blocks_t1112(self, v13_plan, v13_catalog):
        order = [m for m in v13_plan.mitigation_order() if m != "M1024"]
        campaign = Campaign(techniques=("T1112",))
        result = simulate_campaign(order, v13_catalog, campaign)
        assert result.steps_to_block is None
        assert result.per_technique_block_step == (("T1112", None),)
        assert result.coverage_curve[-1][1] < 1.0

    def test_unreachable_threshold_never_blocks(self, v13_plan, v13_catalog):
        # T1112 maps a single mitigation, so a threshold of 2 cannot be met.
        campaign = Campaign(techniques=("T1112",), block_threshold=2)
        result = simulate_campaign(v13_plan, v13_catalog, campaign)
        assert result.steps_to_block is None

    def test_threshold_two_waits_for_second_cover(self, v13_plan, v13_catalog):
        campaign = Campaign(techniques=("T1059",), block_threshold=2)
        result = simulate_campaign(v13_plan, v13_catalog, campaign)
        order = v13_plan.mitigation_order()
        covering = [
            i + 1
            for i, mid in enumerate(order)
            if (mid, "T1059") in v13_catalog.mappings
        ]
        assert result.steps_to_block == covering[1]

    def test_coverage_curve_matches_block_steps(self, v13_plan, v13_catalog):
        campaign = Campaign(techniques=("T1053", "T1112", "T1543", "T1036"))
        result = simulate_campaign(v13_plan, v13_catalog, campaign)
        steps = dict(result.per_technique_block_step)
        assert len(result.coverage_curve) == len(v13_plan.entries)
        for s, fraction in result.coverage_curve:
            done = sum(1 for b in steps.values() if b is not None and b <= s)
            assert fraction == pytest.approx(done / len(steps))

    def test_accepts_raw_sequence(self, v13_catalog):
        result = simulate_campaign(
            ["M1038", "M1024"], v13_catalog, Campaign(techniques=("T1112",))
        )
        assert result.steps_to_block == 2

    def test_rejects_bare_string_plan(self, v13_catalog):
        with pytest.raises(ValidationError):
            simulate_campaign("M1038", v13_catalog, Campaign(techniques=("T1112",)))

    @pytest.mark.parametrize("plan", [None, 1.5, 7])
    @pytest.mark.parametrize("call", ["simulate_campaign", "compare_orders"])
    def test_rejects_plan_that_is_not_iterable(self, v13_catalog, call, plan):
        campaign = Campaign(techniques=("T1112",))
        args = (30, 1) if call == "compare_orders" else ()
        with pytest.raises(ValidationError) as info:
            getattr(simulator, call)(plan, v13_catalog, campaign, *args)
        assert str(info.value) == f"plan must be a RankedPlan or a sequence of IDs, got {plan!r}"

    @pytest.mark.parametrize(
        "order, bad",
        [
            (["M1038", "M10", "X"], "'M10'"),
            (["M1038", 1024], "1024"),
            (["M1038", "M1024\nM1040"], "'M1024\\nM1040'"),
            (("M1038", "M1024 "), "'M1024 '"),
        ],
    )
    def test_first_bad_mitigation_id_named(self, v13_catalog, order, bad):
        # The whole column is checked in one step; its first bad ID,
        # in plan order, is the one the message names.
        with pytest.raises(ValidationError) as info:
            simulate_campaign(order, v13_catalog, Campaign(techniques=("T1112",)))
        assert str(info.value) == f"invalid mitigation ID: {bad}"

    def test_rejects_unknown_mitigation(self, v13_catalog):
        with pytest.raises(SimulationError, match="M1999"):
            simulate_campaign(
                ["M1999"], v13_catalog, Campaign(techniques=("T1112",))
            )

    def test_rejects_duplicate_mitigation(self, v13_catalog):
        with pytest.raises(SimulationError, match="twice"):
            simulate_campaign(
                ["M1038", "M1038"], v13_catalog, Campaign(techniques=("T1112",))
            )

    def test_deterministic(self, v13_plan, v13_catalog):
        campaign = Campaign(techniques=("T1053", "T1059", "T1112"))
        first = simulate_campaign(v13_plan, v13_catalog, campaign)
        second = simulate_campaign(v13_plan, v13_catalog, campaign)
        assert first == second


class TestOrderProperties:
    """Prefix-set properties of steps-to-block under edits to the order."""

    def _random_case(self, rng):
        catalog, _ = random_catalog_and_weights(rng)
        mids = list(catalog.mids)
        techniques = sorted({tid for _, tid in catalog.mappings})
        if not techniques:
            return None
        campaign = Campaign(
            techniques=tuple(
                rng.choice(techniques, size=rng.integers(1, len(techniques) + 1), replace=False)
            ),
            block_threshold=int(rng.integers(1, 3)),
        )
        order = [mids[i] for i in rng.permutation(len(mids))]
        return catalog, campaign, order

    def test_prepending_delays_by_at_most_one(self):
        rng = np.random.default_rng(310)
        checked = 0
        while checked < 60:
            case = self._random_case(rng)
            if case is None:
                continue
            catalog, campaign, order = case
            if len(order) < 2:
                continue
            x, rest = order[0], order[1:]
            base = simulate_campaign(rest, catalog, campaign).steps_to_block
            grown = simulate_campaign([x] + rest, catalog, campaign).steps_to_block
            if base is not None:
                assert grown is not None
                assert grown <= base + 1
            checked += 1

    def test_removal_speeds_up_by_at_most_one(self):
        rng = np.random.default_rng(311)
        checked = 0
        while checked < 60:
            case = self._random_case(rng)
            if case is None:
                continue
            catalog, campaign, order = case
            if len(order) < 2:
                continue
            drop = int(rng.integers(0, len(order)))
            shrunk_order = order[:drop] + order[drop + 1 :]
            base = simulate_campaign(order, catalog, campaign).steps_to_block
            shrunk = simulate_campaign(shrunk_order, catalog, campaign).steps_to_block
            if shrunk is not None:
                assert base is not None
                assert shrunk >= base - 1
            checked += 1

    def test_matches_exhaustive_oracle(self):
        # Every prefix of the order, the empty plan included, at the
        # case's threshold and at one past 2^63 that no plan reaches.
        rng = np.random.default_rng(312)
        checked = 0
        while checked < 60:
            case = self._random_case(rng)
            if case is None:
                continue
            catalog, campaign, order = case
            covers = {}
            for mid, tid in catalog.mappings:
                covers.setdefault(mid, set()).add(tid)
            resolved = resolve_campaign(campaign, catalog)
            for threshold in (campaign.block_threshold, 2**63 + 1):
                for end in range(len(order) + 1):
                    plan = order[:end]
                    result = simulate_campaign(
                        plan, catalog, Campaign(campaign.techniques, threshold)
                    )
                    assert result.steps_to_block == oracle_steps_to_block(
                        plan, covers, resolved, threshold
                    )
                    steps = [
                        oracle_steps_to_block(plan, covers, (tid,), threshold)
                        for tid in resolved
                    ]
                    assert result.per_technique_block_step == tuple(zip(resolved, steps))
                    assert result.coverage_curve == tuple(
                        (s, sum(b is not None and b <= s for b in steps) / len(resolved))
                        for s in range(1, end + 1)
                    )
            checked += 1


class TestTrialOrders:
    def test_shape_and_permutation_rows(self):
        orders = trial_orders(7, 40, seed=9)
        assert orders.shape == (40, 7)
        for row in orders:
            assert sorted(row.tolist()) == list(range(7))

    def test_trials_are_independent_of_batch_size(self):
        # Each trial draws from its own counter-keyed stream, so the
        # first rows of a large batch equal a smaller batch exactly.
        big = trial_orders(12, 50, seed=77)
        small = trial_orders(12, 8, seed=77)
        assert np.array_equal(big[:8], small)

    def test_seed_changes_orders(self):
        a = trial_orders(12, 20, seed=1)
        b = trial_orders(12, 20, seed=2)
        assert not np.array_equal(a, b)

    def test_golden_digest(self):
        # Pins the (seed, t) stream contract behind the README's seed-42
        # baseline, so any drift in the generator fails here first.
        orders = trial_orders(18, 10000, 42)
        assert orders.dtype == np.int64
        assert hashlib.sha256(orders.tobytes()).hexdigest() == (
            "4fc0b99896f3b14a5e5b2f27895d593a724414a760eeab889f129ab683f2d784"
        )

    @pytest.mark.parametrize("seed", [0, MAX_SEED])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 8, 9, 17, 45, 200])
    def test_matches_per_trial_generator(self, m, seed):
        # Trial counts straddle the forward pool's width, where lanes restart.
        width = simulator._pool_width(10**9, simulator._LANE_BYTES)
        expected = oracle_trial_orders(m, width + 1, seed)
        for trials in (width - 1, width, width + 1):
            assert np.array_equal(trial_orders(m, trials, seed), expected[:trials])

    @pytest.mark.parametrize("lanes", [1, 2, 5, 5001])
    @pytest.mark.parametrize("seed", [0, MAX_SEED])
    def test_philox_block_matches_numpy(self, seed, lanes):
        # Rounds 1 and 2 are folded on what counter word 0 and key word 0
        # hold, so a fold that only holds for small counters or keys fails
        # here, lane by lane, before it shows in a permutation.  Every
        # special counter meets every special key; past 30 lanes the rest
        # are random.  5,001 lanes is past the width where the broadcast
        # constants cost as much as full rows.
        special = [
            (counter, key)
            for key in (0, 1, 2**32, 2**63 + 12345, MAX_SEED)
            for counter in (1, 2, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
        ]
        rng = np.random.default_rng(lanes)
        extra = max(lanes - len(special), 0)
        counters = np.array(
            [c for c, _ in special] + rng.integers(1, 2**64, extra, dtype=np.uint64).tolist(),
            dtype=np.uint64,
        )
        keys = np.array(
            [k for _, k in special] + rng.integers(0, 2**64, extra, dtype=np.uint64).tolist(),
            dtype=np.uint64,
        )
        for first in range(0, counters.size, lanes):
            c, k = counters[first : first + lanes], keys[first : first + lanes]
            words = np.stack(simulator._philox_block(c.copy(), seed, k.copy()), axis=1)
            for lane in range(c.size):
                expected = np.random.Philox(
                    key=np.array([seed, k[lane]], dtype=np.uint64),
                    counter=np.array([c[lane] - np.uint64(1), 0, 0, 0], dtype=np.uint64),
                ).random_raw(4)
                assert words[lane].tolist() == expected.tolist(), (int(c[lane]), int(k[lane]))

    @pytest.mark.parametrize("m", [127, 128, 129, 255, 256, 257])
    def test_matches_per_trial_generator_at_dtype_boundaries(self, m):
        # The draws' codes widen from uint8 to uint16 at m = 128 and the
        # swap cells at m = 256.  Pinned pools of 5 lanes (and swap blocks
        # of 5 trials) put the last block at 4, 5 and then 1 trial.
        seed = MAX_SEED - m
        expected = oracle_trial_orders(m, 6, seed)
        with pytest.MonkeyPatch.context() as patch:
            _pin_width(patch, 5)
            for trials in (4, 5, 6):
                assert np.array_equal(trial_orders(m, trials, seed), expected[:trials])

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(0, 70),
        trials=st.integers(0, 40),
        seed=st.integers(0, MAX_SEED),
    )
    def test_matches_per_trial_generator_property(self, m, trials, seed):
        assert np.array_equal(
            trial_orders(m, trials, seed), oracle_trial_orders(m, trials, seed)
        )


class TestRandomBaseline:
    def test_single_cover_mean_near_uniform_expectation(self, v13_catalog):
        # T1112 is covered by exactly one of the 18 mitigations, so
        # steps-to-block is uniform on 1..18.
        n, trials = 18, 10000
        summary = random_baseline(
            v13_catalog, Campaign(techniques=("T1112",)), trials=trials, seed=123
        )
        assert summary.unblocked_fraction == 0.0
        mean, var = (n + 1) / 2, (n * n - 1) / 12
        # Fourth central moment of the uniform on 1..n, for the standard
        # error of the sample std (delta method on the sample variance).
        mu4 = (n * n - 1) * (3 * n * n - 7) / 240
        mean_se = math.sqrt(var / trials)
        std_se = math.sqrt((mu4 - var * var) / trials) / (2 * math.sqrt(var))
        assert abs(summary.mean_steps - mean) < 4 * mean_se
        assert abs(summary.std_steps - math.sqrt(var)) < 4 * std_se
        # The forward walk's figures, pinned before the backward walk
        # that now computes them existed.
        assert (summary.mean_steps, summary.std_steps) == (9.4856, 5.161723805086824)

    def test_bit_identical_reruns(self, v13_catalog):
        campaign = Campaign(techniques=("T1053", "T1059"))
        first = random_baseline(v13_catalog, campaign, trials=2000, seed=42)
        second = random_baseline(v13_catalog, campaign, trials=2000, seed=42)
        assert first == second

    def test_uncoverable_technique_blocks_nothing(self):
        catalog = _tiny_catalog()
        summary = random_baseline(
            catalog, Campaign(techniques=("T1036",)), trials=50, seed=3
        )
        assert summary.unblocked_fraction == 1.0
        assert summary.mean_steps is None
        assert summary.std_steps is None

    def test_threshold_reachability_decides_blocking(self):
        # Threshold 2 on a technique with two covers always blocks; on a
        # single-cover technique it never does.
        catalog = _tiny_catalog()
        always = random_baseline(
            catalog, Campaign(techniques=("T1059",), block_threshold=2), trials=200, seed=5
        )
        never = random_baseline(
            catalog, Campaign(techniques=("T1112",), block_threshold=2), trials=200, seed=5
        )
        assert always.unblocked_fraction == 0.0
        assert never.unblocked_fraction == 1.0

    def test_validation(self, v13_catalog):
        campaign = Campaign(techniques=("T1059",))
        with pytest.raises(ValidationError):
            random_baseline(v13_catalog, campaign, trials=0, seed=1)
        with pytest.raises(ValidationError):
            random_baseline(v13_catalog, campaign, trials=10, seed=-1)
        with pytest.raises(ValidationError):
            random_baseline(v13_catalog, campaign, trials=10, seed=2**64)

    @pytest.mark.parametrize("trials", [True, 2.5, 10.0, "10", None])
    def test_trials_must_be_an_integer(self, v13_catalog, trials):
        with pytest.raises(ValidationError, match="trials"):
            random_baseline(v13_catalog, Campaign(techniques=("T1059",)), trials, seed=1)

    @pytest.mark.parametrize("seed", [True, False, 1.0, "1", None])
    def test_seed_must_be_an_integer(self, v13_catalog, seed):
        with pytest.raises(ValidationError, match="seed"):
            random_baseline(v13_catalog, Campaign(techniques=("T1059",)), 10, seed)

    def test_verbose_logs_the_standard_error(self, v13_catalog, caplog):
        # The README campaign: the sample std over the blocked trials,
        # by the standard library, over the square root of their count.
        caplog.set_level(logging.INFO, logger="mitiplan.simulator")
        random_baseline(v13_catalog, Campaign(techniques=("T1053", "T1059")), 10000, 42)
        covers = simulator._cover_matrix(v13_catalog, ("T1053", "T1059"))
        steps = [s for s in forward_steps(covers, 1, 10000, 42).tolist() if s > 0]
        se = statistics.stdev(steps) / math.sqrt(len(steps))
        assert len(steps) == 10000
        assert caplog.messages[1:] == [
            f"random baseline: standard error of the mean {se:.4f} over 10000 blocked trials"
        ]
        assert caplog.messages[1] == (
            "random baseline: standard error of the mean 0.0246 over 10000 blocked trials"
        )

    @pytest.mark.parametrize("trials", [1, 2])
    def test_standard_error_needs_two_blocked_trials(self, v13_catalog, caplog, trials):
        caplog.set_level(logging.INFO, logger="mitiplan.simulator")
        random_baseline(v13_catalog, Campaign(techniques=("T1059",)), trials, 3)
        assert len(caplog.messages) == trials
        caplog.clear()
        # Never blocks (T1036 has no cover), so there is no mean either.
        random_baseline(_tiny_catalog(), Campaign(techniques=("T1036",)), 50, 3)
        assert len(caplog.messages) == 1

    def test_standard_error_unlogged_without_info(self, v13_catalog, caplog, monkeypatch):
        # With INFO off the sample std is never computed.
        caplog.set_level(logging.WARNING, logger="mitiplan.simulator")
        campaign = Campaign(techniques=("T1053", "T1059"))
        expected = random_baseline(v13_catalog, campaign, 200, 3)
        monkeypatch.setattr(simulator, "math", None)
        assert random_baseline(v13_catalog, campaign, 200, 3) == expected
        assert caplog.messages == []

    def test_numpy_integer_arguments_normalised(self, v13_catalog):
        campaign = Campaign(techniques=("T1059",))
        summary = random_baseline(v13_catalog, campaign, np.int64(50), np.uint64(MAX_SEED))
        assert type(summary.trials) is int and type(summary.seed) is int
        assert summary == random_baseline(v13_catalog, campaign, 50, MAX_SEED)


class TestWalks:
    """The backward walk and the forward walk (each trial's steps from
    the swap blocks, then the kernel) give the same steps, and
    random_baseline picks between them by the campaign's fewest covers."""

    @pytest.mark.parametrize("lanes", [1, 2, 3, 7])
    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(0, 24),
        t=st.integers(0, 24),
        trials=st.integers(0, 20),
        threshold=st.integers(1, 3),
        seed=st.one_of(st.sampled_from([0, MAX_SEED]), st.integers(0, MAX_SEED)),
        data=st.data(),
    )
    @example(m=1, t=1, trials=5, threshold=1, seed=0, data=None)
    @example(m=2, t=2, trials=9, threshold=1, seed=MAX_SEED, data=None)
    @example(m=2, t=1, trials=9, threshold=2, seed=0, data=None)
    @example(m=6, t=2, trials=11, threshold=3, seed=MAX_SEED, data=None)
    @example(m=20, t=24, trials=9, threshold=1, seed=0, data=None)
    def test_walks_match_oracle(self, lanes, m, t, trials, threshold, seed, data):
        # Small lane pools make trials take over lanes at every point of
        # a round, and lanes leave the pool once trials run out.  At
        # m = 24 a technique covered by half the rows takes five bits of
        # the backward walk's packed counts, so from t = 13 they take
        # more than one 64-bit word.
        if data is None:  # explicit examples: every row covers everything
            covers = np.ones((m, t), dtype=np.uint8)
        else:
            flags = data.draw(st.lists(st.booleans(), min_size=m * t, max_size=m * t))
            covers = np.array(flags, dtype=np.uint8).reshape(m, t)
        orders = oracle_trial_orders(m, trials, seed)
        expected = _oracle_batch(orders, covers, threshold)
        with pytest.MonkeyPatch.context() as patch:
            _pin_width(patch, lanes)
            assert np.array_equal(trial_orders(m, trials, seed), orders)
            assert forward_steps(covers, threshold, trials, seed).tolist() == expected
            assert backward_steps(covers, threshold, trials, seed).tolist() == expected

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("lanes", [1, 2, 3, 7])
    def test_lane_refills_match_oracle(self, lanes, extra):
        # Trial counts straddle the pool width, where the first lanes to
        # finish take the last trials or leave the pool.
        trials = lanes + extra
        for m, t, threshold, seed in ((2, 1, 1, 0), (9, 3, 2, MAX_SEED), (17, 2, 1, 5)):
            covers = _random_covers(m, t, seed=m, density=0.5)
            covers[:threshold] = 1  # every technique can block
            orders = oracle_trial_orders(m, trials, seed)
            expected = _oracle_batch(orders, covers, threshold)
            # Each walk runs in its own context, so the bytes per lane
            # asked for there are that walk's alone, however many pools
            # it sizes.
            with pytest.MonkeyPatch.context() as patch:
                forward_asked = _pin_width(patch, lanes)
                assert np.array_equal(trial_orders(m, trials, seed), orders)
                assert forward_steps(covers, threshold, trials, seed).tolist() == expected
            with pytest.MonkeyPatch.context() as patch:
                backward_asked = _pin_width(patch, lanes)
                assert backward_steps(covers, threshold, trials, seed).tolist() == expected
            # The backward walk's shared bytes are its table of packed
            # covers, one row of words per mitigation.
            words = _packed_words(covers, threshold)
            assert (simulator._LANE_BYTES, 0) in forward_asked or trials == 0
            assert set(backward_asked) == {(_backward_lane_bytes(m, words), 8 * m * words)} or (
                trials == 0 and not backward_asked
            )

    def test_place_sees_the_whole_pool(self):
        # `place` gets every word the live pool draws (but those a final
        # round skips once its last trial is over), and the lane
        # indices it returns end those lanes' trials: trials 1, 4 and 7
        # end after their third draw, the rest run to the end of their
        # shuffle.  Every trial, also one that takes a lane over, draws
        # its stream from counter 1.  The row offsets are trial numbers.
        m, trials, width, seed = 7, 11, 4, 2**63 + 5
        words = 8  # per round: four 64-bit words, two halves each
        started, ended, draws, calls = [], set(), {}, []
        left = {}  # each trial's i after the last word it drew

        def start(slots, lane_trials):
            started.extend(lane_trials.tolist())
            return lane_trials.astype(np.int64)

        def place(slots, rows, i, j, accept):
            assert slots.size == rows.size == i.size == j.size == accept.size
            assert np.array_equal(accept, j <= i)
            if len(calls) % words == 0:
                # A round's first word: the live pool is every trial
                # started and not yet over, one lane each.
                ended.update(t for t, i_t in left.items() if i_t <= 0)
                live = [t for t in started if t not in ended]
                assert sorted(rows.tolist()) == live
                assert np.unique(slots).size == slots.size
            else:
                assert np.array_equal(rows, calls[-1])
            calls.append(rows.copy())
            over = []
            for k, (t, i_t, j_t) in enumerate(zip(rows.tolist(), i.tolist(), j.tolist())):
                if i_t >= 1:
                    draws.setdefault(t, []).append((i_t, j_t))
                left[t] = i_t - (j_t <= i_t)
                if t % 3 == 1 and i_t > 0 and len(draws[t]) == 3:
                    over.append(k)
                    left[t] = -1
            return np.array(over, dtype=np.intp) if over else None

        simulator._shuffle_lanes(m, trials, seed, width, start, place)
        assert started == list(range(trials))
        for t in range(trials):
            expected = _stream_draws(m, seed, t)
            assert draws[t] == (expected[:3] if t % 3 == 1 else expected)

    def test_final_round_stops_at_its_last_trial(self):
        # Three lanes run seven trials of m = 12.  The pool holds three
        # lanes for four rounds, while trials are queued, then one.  A
        # round reads all eight halves of its block while a trial is
        # queued or a lane lives on past it; the final round's one lane
        # ends its trial on the first word, so the round reads that word
        # alone.  The steps still match the oracle's.
        m, threshold, trials, seed = 12, 2, 7, 10
        covers = _random_covers(m, 2, seed=m, density=0.5)
        covers[:threshold] = 1
        expected = _oracle_batch(oracle_trial_orders(m, trials, seed), covers, threshold)
        with pytest.MonkeyPatch.context() as patch:
            _pin_width(patch, 3)
            rounds = _spy_rounds(patch)
            assert backward_steps(covers, threshold, trials, seed).tolist() == expected
        assert [lanes[0] for lanes in rounds] == [3, 3, 3, 3, 1, 1, 1]
        assert [len(lanes) for lanes in rounds] == [8, 8, 8, 8, 8, 8, 2]

    def test_each_walk_sizes_its_own_pool(self):
        # The forward lane holds O(1) state; the backward lane adds its
        # m one-byte prefix cells, four rows of W packed 64-bit words and
        # its trial number.  At Enterprise size (m = 45, t = 20) the
        # counts fit one word, so its pool is about two thirds as wide,
        # less one lane for the 45-row table of packed covers.  The
        # 1.625 MiB budget holds 10,142 forward lanes and 6,733 of these.
        budget = simulator.SCRATCH_BYTES
        forward = simulator._pool_width(10**6, simulator._LANE_BYTES)
        backward = simulator._pool_width(10**6, _backward_lane_bytes(45, 1))
        assert _backward_lane_bytes(45, 1) == simulator._LANE_BYTES + 45 + 4 * 8 + 8 == 253
        assert forward == budget // simulator._LANE_BYTES == 10142
        assert backward == 6734
        assert simulator._pool_width(10**6, 253, 45 * 8) == 6733
        assert simulator._pool_width(10**6, 253, budget) == 1
        assert simulator._pool_width(100, simulator._LANE_BYTES) == 100
        assert simulator._pool_width(0, simulator._LANE_BYTES) == 0
        assert simulator._pool_width(5, 2 * budget) == 1

    def test_default_run_fits_one_forward_pool(self):
        # `simulate` at its default trial count draws every trial in one
        # generation of lanes; a second, narrower one would repeat each
        # lane round's fixed NumPy calls for a fraction of the trials.
        argv = ["simulate", "--catalog", "c", "--weights", "w", "--campaign", "T1053"]
        default = cli.build_parser().parse_args(argv).trials
        assert simulator._pool_width(default, simulator._LANE_BYTES) == default

    def test_pools_hold_their_scratch_budget(self):
        # Scratch memory at a full pool's peak, past the walk's own
        # output, stays within SCRATCH_BYTES: the bytes per lane that set
        # the widths are what the lanes really hold.  The 2% is NumPy's
        # constant temporaries, which no lane count covers.  At m = 257
        # the backward walk's prefix cells are two bytes wide; at t = 60
        # its counts take four words; at m = 1000, t = 100 they take
        # twelve, and the 96 kB table of packed covers comes out of the
        # budget before the pool, 628 lanes, is sized: 700 trials fill it.
        # The forward walk's swap blocks, with the kernel pass over each,
        # hold the same budget (`test_forward_walk_holds_its_codes_and_one_budget`).
        covers = _random_covers(45, 20, seed=2, density=0.08)
        wide = _random_covers(257, 3, seed=2, density=0.05)
        many = _random_covers(100, 60, seed=2, density=0.05)
        large = _random_covers(1000, 100, seed=2, density=0.05)
        for case in (covers, wide, many, large):
            case[:2] = 1
        budget = 1.02 * simulator.SCRATCH_BYTES
        for walk, args in (
            (trial_orders, (45, 12000)),
            (backward_steps, (covers, 2, 12000)),
            (backward_steps, (wide, 2, 12000)),
            (backward_steps, (many, 2, 12000)),
            (backward_steps, (large, 2, 700)),
        ):
            out, peak = _traced_peak(walk, *args, 11)
            assert peak - out.nbytes <= budget

    def test_forward_walk_holds_its_codes_and_one_budget(self):
        # Past its steps, the forward walk holds its trials' draw codes,
        # m + 1 of them a trial, and one scratch budget at a time: the
        # lane pool, then a swap block that leaves room for one kernel
        # pass over its trials.  Codes are one byte below m = 128 and two
        # from there; a matrix of whole orders, 8m bytes a trial, would
        # not fit.
        cases = (
            (_random_covers(45, 20, seed=2, density=0.08), 12000),
            (_random_covers(300, 40, seed=2, density=0.05), 3000),
            (_random_covers(1000, 100, seed=2, density=0.05), 1500),
        )
        for covers, trials in cases:
            covers[:2] = 1
            m = covers.shape[0]
            codes = trials * (m + 1) * np.min_scalar_type(2 * m).itemsize
            for threshold in (1, 2):
                out, peak = _traced_peak(forward_steps, covers, threshold, trials, 11)
                assert peak - out.nbytes <= codes + 1.02 * simulator.SCRATCH_BYTES, (m, threshold)

    @pytest.mark.parametrize("trials", [0, 1, 3, 4, 5, 9])
    def test_forward_matches_oracle_across_swap_blocks(self, trials):
        # A budget shrunk to 4 trials a swap block puts the trials in
        # blocks of 4 and a ragged last one, and the kernel is called
        # once for each block, with that block's steps, blockable or
        # not.  The cases: m = 2, k = 1 to 3 on random covers, and a
        # campaign whose second technique has one cover fewer than
        # k = 2 needs.
        unblockable = _random_covers(9, 2, seed=4, density=0.5)
        unblockable[:, 0] = 1
        unblockable[:, 1] = 0
        unblockable[4, 1] = 1
        cases = [(np.ones((2, 1), dtype=np.uint8), 1), (unblockable, 2)]
        for threshold in (1, 2, 3):
            covers = _random_covers(11, 3, seed=threshold, density=0.5)
            covers[:threshold] = 1
            cases.append((covers, threshold))
        for covers, threshold in cases:
            m, seed = covers.shape[0], MAX_SEED - threshold
            expected = _oracle_batch(oracle_trial_orders(m, trials, seed), covers, threshold)
            with pytest.MonkeyPatch.context() as patch:
                asked, _ = _spy_widths(patch)
                forward_steps(covers, threshold, 1, seed)
                block_bytes, shared = asked[-1]
                patch.setattr(simulator, "SCRATCH_BYTES", shared + 4 * block_bytes)
                shapes = _spy_kernel(patch)
                assert forward_steps(covers, threshold, trials, seed).tolist() == expected
            full, last = divmod(trials, 4)
            blocks = [4] * full + [last] * (last > 0)
            assert shapes == [(n, m) for n in blocks]

    @pytest.mark.parametrize("lanes", [1, 2, 7])
    @pytest.mark.parametrize("threshold", [1, 2])
    @pytest.mark.parametrize("m", [255, 256, 257])
    def test_backward_matches_oracle_at_cell_boundaries(self, m, threshold, lanes):
        # The prefix cells are one byte up to m = 256 and two from
        # m = 257.  Row m - 1 covers every technique and row 0 none, so
        # a cell that wraps m - 1 to 0 takes away no cover where it
        # should take one from each technique.
        covers = _random_covers(m, 3, seed=m, density=0.02)
        covers[0] = 0
        covers[-threshold:] = 1
        trials, seed = 9, m
        expected = _oracle_batch(oracle_trial_orders(m, trials, seed), covers, threshold)
        with pytest.MonkeyPatch.context() as patch:
            _pin_width(patch, lanes)
            assert backward_steps(covers, threshold, trials, seed).tolist() == expected

    @pytest.mark.parametrize("lanes", [1, 2, 7])
    @pytest.mark.parametrize("threshold", [1, 2, 3])
    @pytest.mark.parametrize(
        "fields, words",
        [
            ([4] * 15 + [1] * 4, 1),  # 64 bits; a one-bit field is bit 63
            ([1] + [4] * 16, 2),  # 65 bits; the last field opens word 2
        ],
    )
    def test_backward_matches_oracle_at_word_boundaries(self, fields, words, threshold, lanes):
        # A technique with c covers takes bitlen(c - k) + 1 bits of a
        # 64-bit word: one bit at c = k, four at k + 4 <= c <= k + 7.
        # A borrow out of a field, or a field split across two words,
        # would change some trial's step.
        m, trials, seed = 24, 9, 100 + threshold
        rng = np.random.default_rng(threshold)
        covers = np.zeros((m, len(fields)), dtype=np.uint8)
        for technique, bits in enumerate(fields):
            count = threshold if bits == 1 else threshold + 4 + technique % 4
            covers[rng.choice(m, count, replace=False), technique] = 1
        expected = _oracle_batch(oracle_trial_orders(m, trials, seed), covers, threshold)
        assert forward_steps(covers, threshold, trials, seed).tolist() == expected
        with pytest.MonkeyPatch.context() as patch:
            asked = _pin_width(patch, lanes)
            assert backward_steps(covers, threshold, trials, seed).tolist() == expected
        assert asked == [(_backward_lane_bytes(m, words), 8 * m * words)]

    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_unblockable_technique_walks_nothing(self, threshold, monkeypatch):
        covers = np.ones((8, 2), dtype=np.uint8)
        covers[threshold - 1 :, 1] = 0  # column 1 has threshold - 1 covers
        monkeypatch.setattr(simulator, "_shuffle_lanes", None)
        assert backward_steps(covers, threshold, 30, 4).tolist() == [-1] * 30

    def _walk_taken(self, catalog, campaign):
        taken = []
        with pytest.MonkeyPatch.context() as patch:
            for name in ("forward_steps", "backward_steps"):
                walk = getattr(simulator, name)
                patch.setattr(
                    simulator,
                    name,
                    lambda *args, _walk=walk, _name=name: taken.append(_name) or _walk(*args),
                )
            summary = random_baseline(catalog, campaign, trials=300, seed=9)
        return taken, summary

    def test_late_blocking_campaign_walks_backward(self, v13_catalog, caplog):
        # T1112 has 1 cover <= 2k - 1 = 1.
        caplog.set_level(logging.INFO, logger="mitiplan.simulator")
        campaign = Campaign(techniques=("T1112", "T1059"))
        taken, summary = self._walk_taken(v13_catalog, campaign)
        assert taken == ["backward_steps"]
        # The standard error's line follows (TestRandomBaseline).
        assert caplog.messages[0] == (
            "random baseline: backward walk (T1112 has 1 covers, <= 2k-1 = 1)"
        )
        covers = simulator._cover_matrix(v13_catalog, ("T1059", "T1112"))
        steps = forward_steps(covers, 1, 300, 9)
        assert summary.mean_steps == float(steps.mean())

    def test_early_blocking_campaign_walks_forward(self, v13_catalog, caplog):
        # The README campaign: T1053 has 4 covers, T1059 7; both > 2k - 1.
        caplog.set_level(logging.INFO, logger="mitiplan.simulator")
        campaign = Campaign(techniques=("T1053", "T1059"))
        taken, _ = self._walk_taken(v13_catalog, campaign)
        assert taken == ["forward_steps"]
        # The standard error's line follows (TestRandomBaseline).
        assert caplog.messages[0] == (
            "random baseline: forward walk (T1053 has 4 covers, > 2k-1 = 1)"
        )

    def test_threshold_moves_the_boundary(self, v13_catalog):
        # T1053's 4 covers take the forward walk at k = 2 (2k - 1 = 3) and
        # the backward walk at k = 3.
        taken = [
            self._walk_taken(v13_catalog, Campaign(techniques=("T1053",), block_threshold=k))[0]
            for k in (2, 3)
        ]
        assert taken == [["forward_steps"], ["backward_steps"]]


def _pin_width(patch, lanes):
    """Make every lane pool `lanes` wide (or as wide as its trials);
    returns the bytes per lane and the bytes shared by all lanes that
    each walk asks for, in call order."""
    asked = []

    def width(trials, lane_bytes, shared=0):
        asked.append((lane_bytes, shared))
        return min(trials, lanes)

    patch.setattr(simulator, "_pool_width", width)
    return asked


def _spy_rounds(patch):
    """Record the pool size of each `place` call of the lane walks,
    one list per round: a round starts with the Philox block it draws."""
    rounds = []
    real_block, real_lanes = simulator._philox_block, simulator._shuffle_lanes

    def block(counters, seed, keys):
        rounds.append([])
        return real_block(counters, seed, keys)

    def lanes(m, trials, seed, width, start, place):
        def spy(slots, rows, i, j, accept):
            rounds[-1].append(slots.size)
            return place(slots, rows, i, j, accept)

        return real_lanes(m, trials, seed, width, start, spy)

    patch.setattr(simulator, "_philox_block", block)
    patch.setattr(simulator, "_shuffle_lanes", lanes)
    return rounds


def _traced_peak(call, *args):
    """call(*args) and the peak of the memory tracemalloc saw it hold."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _backward_lane_bytes(m, words):
    """Bytes per lane of the backward walk's pool: the forward lane's
    state, a prefix row of cells no wider than m needs, four rows of
    `words` 64-bit words (the lane's packed counts and `place`'s
    temporaries) and a trial number."""
    cell = np.min_scalar_type(m - 1).itemsize
    return simulator._LANE_BYTES + cell * m + 4 * 8 * words + 8


def _packed_words(covers, threshold):
    """64-bit words that hold the backward walk's counts: a technique
    with c covers takes bitlen(c - threshold) + 1 bits, the techniques
    in column order, and a field that would straddle two words starts
    the next one."""
    words, used = 0, 64
    for c in covers.sum(axis=0).tolist():
        bits = (c - threshold).bit_length() + 1
        if used + bits > 64:
            words, used = words + 1, 0
        used += bits
    return words


def _stream_draws(m, seed, t):
    """Every (i, j) draw of NumPy's masked-rejection Fisher-Yates on
    trial t's stream, Philox keyed (seed, t) from counter 1, read 32 bits
    at a time with each word's low half first; rejected draws included."""
    raw = np.random.Philox(key=np.array([seed, t], dtype=np.uint64)).random_raw(8 * m)
    halves = iter(np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel().tolist())
    draws = []
    for i in range(m - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        while True:
            j = next(halves) & mask
            draws.append((i, j))
            if j <= i:
                break
    return draws


def _oracle_batch(orders, covers, threshold):
    """Kernel output computed by `oracle_steps_to_block`, one trial at a
    time; a batch with no techniques never counts as blocked."""
    techniques = range(covers.shape[1])
    if not techniques:
        return [-1] * orders.shape[0]
    cover_sets = {row: set(np.flatnonzero(cover).tolist()) for row, cover in enumerate(covers)}
    steps = (
        oracle_steps_to_block(order, cover_sets, techniques, threshold)
        for order in orders.tolist()
    )
    return [-1 if step is None else step for step in steps]


def _run_kernel(orders, covers, threshold):
    """The kernel's output for these orders, given each trial's 0-based
    step for every mitigation row, as the forward walk's swaps build it."""
    out = np.full(orders.shape[0], -7, dtype=np.int64)
    simulator._kernel.steps_to_block_batch(np.argsort(orders, axis=1), covers, threshold, out)
    return out.tolist()


def _row_by_row(orders, covers, threshold):
    return [_run_kernel(order[None], covers, threshold)[0] for order in orders]


def _spy_widths(patch):
    """Record each call of the walks' `_pool_width`: its bytes per row
    and shared bytes, and the width it gives, in two lists."""
    real = simulator._pool_width
    asked, widths = [], []

    def spy(trials, row_bytes, shared=0):
        asked.append((row_bytes, shared))
        widths.append(real(trials, row_bytes, shared))
        return widths[-1]

    patch.setattr(simulator, "_pool_width", spy)
    return asked, widths


def _spy_kernel(patch):
    """Record the shape of each kernel call's `positions`, in call order."""
    shapes = []
    real = simulator._kernel.steps_to_block_batch

    def spy(positions, covers, threshold, out):
        shapes.append(positions.shape)
        return real(positions, covers, threshold, out)

    patch.setattr(simulator._kernel, "steps_to_block_batch", spy)
    return shapes


def _random_covers(m, t, seed, density=0.4):
    return (np.random.default_rng(seed).random((m, t)) < density).astype(np.uint8)


class TestKernel:
    @pytest.mark.parametrize("threshold", [1, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 2, 18])
    def test_matches_oracle(self, m, threshold):
        covers = _random_covers(m, 3, seed=m, density=0.6)
        orders = trial_orders(m, 60, seed=threshold)
        expected = _oracle_batch(orders, covers, threshold)
        assert _run_kernel(orders, covers, threshold) == expected

    @pytest.mark.parametrize(
        "case",
        ["no techniques", "uncovered technique", "threshold above every cover count"],
    )
    def test_unblockable_batches(self, case):
        covers = np.ones((6, 3), dtype=np.uint8)
        threshold = 2
        if case == "no techniques":
            covers = covers[:, :0]
        elif case == "uncovered technique":
            covers[:, 1] = 0
        else:
            covers[3:] = 0
            threshold = 4
        orders = trial_orders(6, 20, seed=3)
        assert _run_kernel(orders, covers, threshold) == [-1] * 20
        assert _oracle_batch(orders, covers, threshold) == [-1] * 20

    def test_pass_width_on_paper_v13(self, v13_catalog):
        # The README's figures: a kernel row of one-byte steps holds
        # 2 * 7 + 2 = 16 bytes (T1059's 7 covers, gathered and
        # partitioned, its step and the block step), and the campaign's
        # 11 cover rows come off the budget first.  A swap block's trial
        # holds m + 2 = 20 one-byte cells and 24 bytes of index, lane and
        # widened code beside that kernel row, 60 bytes in all, so a
        # block is 28,397 trials and all 10,000 go in one block and one
        # kernel call, after one pool of 10,000 lanes.
        campaign = Campaign(techniques=("T1053", "T1059"))
        with pytest.MonkeyPatch.context() as patch:
            walk_asked, walk_widths = _spy_widths(patch)
            shapes = _spy_kernel(patch)
            random_baseline(v13_catalog, campaign, trials=10000, seed=42)
        assert shapes == [(10000, 18)]
        assert walk_asked == [(simulator._LANE_BYTES, 0), (18 + 2 + 24 + 16, 11 * 8)]
        assert walk_widths == [10000, 10000]
        assert simulator._pool_width(10**6, 60, 88) == 28397

    def test_zero_trials(self):
        # The kernel fills an empty batch, and the forward walk makes no
        # swap block, and so no kernel call, for no trials.
        covers = _random_covers(9, 3, seed=8)
        covers[0] = 1
        for threshold in (1, 2):
            assert _run_kernel(trial_orders(9, 0, seed=1), covers, threshold) == []
        assert forward_steps(covers, 1, 0, seed=1).shape == (0,)

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(0, 12),
        t=st.integers(0, 4),
        trials=st.integers(0, 30),
        threshold=st.integers(1, 4),
        seed=st.integers(0, MAX_SEED),
        data=st.data(),
    )
    def test_matches_oracle_property(self, m, t, trials, threshold, seed, data):
        flags = data.draw(st.lists(st.booleans(), min_size=m * t, max_size=m * t))
        covers = np.array(flags, dtype=np.uint8).reshape(m, t)
        orders = trial_orders(m, trials, seed)
        expected = _oracle_batch(orders, covers, threshold)
        assert _run_kernel(orders, covers, threshold) == expected

    def test_rows_independent_of_batch(self):
        # A trial's step reads only its own row: a batch of 24 trials
        # must match the oracle and row-by-row calls.
        covers = _random_covers(9, 3, seed=607)
        orders = trial_orders(9, 3 * 7 + 3, seed=5)
        batch = _run_kernel(orders, covers, 2)
        assert batch == _oracle_batch(orders, covers, 2)
        assert batch == _row_by_row(orders, covers, 2)


class TestCompareOrders:
    def test_plan_beats_random_baseline(self, v13_plan, v13_catalog):
        campaign = Campaign(techniques=("T1053", "T1059"))
        report = compare_orders(v13_plan, v13_catalog, campaign, trials=2000, seed=7)
        assert report.plan_steps == 1
        assert report.ratio == pytest.approx(report.baseline.mean_steps / 1)
        assert report.ratio > 1.0

    def test_ratio_absent_when_plan_never_blocks(self, v13_catalog):
        campaign = Campaign(techniques=("T1112",))
        report = compare_orders(["M1013"], v13_catalog, campaign, trials=50, seed=7)
        assert report.plan_steps is None
        assert report.ratio is None

    def test_to_dict_round_trip_fields(self, v13_plan, v13_catalog):
        campaign = Campaign(techniques=("T1053",))
        report = compare_orders(v13_plan, v13_catalog, campaign, trials=100, seed=11)
        data = report.to_dict()
        assert data["plan"]["steps_to_block"] == report.plan_steps
        assert data["baseline"]["trials"] == 100
        assert data["ratio"] == report.ratio


class TestResultTypes:
    def test_simulation_result_invariants(self):
        with pytest.raises(ValidationError):
            SimulationResult(
                steps_to_block=2,
                per_technique_block_step=(("T1059", 1),),
                coverage_curve=((1, 1.0),),
            )
        with pytest.raises(ValidationError):
            SimulationResult(
                steps_to_block=1,
                per_technique_block_step=(("T1059", 1),),
                coverage_curve=((1, 1.0), (2, 0.5)),
            )
        with pytest.raises(ValidationError):
            SimulationResult(
                steps_to_block=None,
                per_technique_block_step=(("T1059", None),),
                coverage_curve=((1, 1.0),),
            )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("per_technique_block_step", None, "got None"),
            ("per_technique_block_step", ("T1059",), "got ('T1059',)"),
            ("coverage_curve", None, "got None"),
            ("coverage_curve", "x", "not a string"),
            ("coverage_curve", [(1, 0.5, 2)], "got ((1, 0.5, 2),)"),
            # Pairs whose values are not steps or fractions: the message
            # is given whole.
            (
                "per_technique_block_step",
                [("T1059", "x")],
                "per_technique_block_step step must be an integer >= 1 or None, got 'x'",
            ),
            (
                "per_technique_block_step",
                [("T1059", 1.5)],
                "per_technique_block_step step must be an integer >= 1 or None, got 1.5",
            ),
            (
                "per_technique_block_step",
                [("T1059", 0)],
                "per_technique_block_step step must be an integer >= 1 or None, got 0",
            ),
            (
                "coverage_curve",
                [(1, "x")],
                "coverage_curve fraction must be a real number, got 'x'",
            ),
            ("coverage_curve", [(1, 2.0)], "coverage_curve fraction must be in [0, 1], got 2.0"),
            ("coverage_curve", [(1, -0.5)], "coverage_curve fraction must be in [0, 1], got -0.5"),
            (
                "coverage_curve",
                [("a", 0.5)],
                "coverage_curve step must be an integer >= 1, got 'a'",
            ),
        ],
    )
    def test_simulation_result_pairs_are_sequences(self, field, value, message):
        fields = dict(steps_to_block=None, per_technique_block_step=(), coverage_curve=())
        fields[field] = value
        with pytest.raises(ValidationError) as info:
            SimulationResult(**fields)
        if not message.startswith(field):
            message = f"{field} must be a sequence of pairs, {message}"
        assert str(info.value) == message

    def test_simulation_result_stores_tuples(self):
        given = SimulationResult(1, iter([("T1059", 1)]), [(1, 1.0)])
        assert given == SimulationResult(1, (("T1059", 1),), ((1, 1.0),))

    @pytest.mark.parametrize(
        "field, value", [("trials", True), ("trials", 10.0), ("seed", "x"), ("seed", False)]
    )
    def test_monte_carlo_summary_counts_are_integers(self, field, value):
        fields = dict(trials=10, seed=1, mean_steps=3.0, std_steps=1.0, unblocked_fraction=0.0)
        fields[field] = value
        with pytest.raises(ValidationError) as info:
            MonteCarloSummary(**fields)
        assert str(info.value) == f"{field} must be an integer, got {value!r}"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mean_steps", "a"),
            ("std_steps", "1.0"),
            ("mean_steps", True),
            ("unblocked_fraction", "x"),
            ("unblocked_fraction", None),
            ("unblocked_fraction", False),
        ],
    )
    def test_monte_carlo_summary_figures_are_real_numbers(self, field, value):
        fields = dict(trials=10, seed=1, mean_steps=3.0, std_steps=1.0, unblocked_fraction=0.0)
        fields[field] = value
        with pytest.raises(ValidationError) as info:
            MonteCarloSummary(**fields)
        assert str(info.value) == f"{field} must be a real number, got {value!r}"

    def test_monte_carlo_summary_invariants(self):
        with pytest.raises(ValidationError):
            MonteCarloSummary(
                trials=10, seed=1, mean_steps=3.0, std_steps=None, unblocked_fraction=0.0
            )
        with pytest.raises(ValidationError):
            MonteCarloSummary(
                trials=10, seed=1, mean_steps=None, std_steps=None, unblocked_fraction=0.5
            )
        with pytest.raises(ValidationError):
            MonteCarloSummary(
                trials=10, seed=1, mean_steps=3.0, std_steps=1.0, unblocked_fraction=1.0
            )
