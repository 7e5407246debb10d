from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mitiplan.errors import McdmError, ValidationError
from mitiplan.matrix import DecisionMatrix, build_decision_matrix
from mitiplan.mcdm import (
    TIE_DECIMALS,
    RankedPlan,
    PlanEntry,
    ScoreVector,
    rank,
    score_matrix,
    topsis_scores,
    wpm_scores,
    wsm_scores,
    _ranked_rows,
)
from mitiplan.scoring import WeightEntry, WeightVector

from helpers import random_decision_matrix
from oracles import oracle_topsis, oracle_wpm, oracle_wsm, oracle_wsm_double
from published import published_matrix, published_total_scores

TOTAL_TOL = 2e-5


def _matrix(u, w, mids=None, tids=None):
    u = np.asarray(u, dtype=float)
    return DecisionMatrix(
        mitigation_ids=mids or tuple(f"M{1000 + i}" for i in range(u.shape[0])),
        technique_ids=tids or tuple(f"T{1000 + j}" for j in range(u.shape[1])),
        coverage=u,
        weights=np.asarray(w, dtype=float),
    )


class TestWsm:
    def test_v13_totals_untouched_by_anomalies(self, v13_matrix):
        scores = dict(wsm_scores(v13_matrix).entries())
        assert scores["M1038"] == pytest.approx(3.127541, abs=TOTAL_TOL)
        assert scores["M1040"] == pytest.approx(2.648487, abs=TOTAL_TOL)
        assert scores["M1022"] == pytest.approx(1.904389, abs=TOTAL_TOL)
        assert scores["M1050"] == pytest.approx(0.563345, abs=TOTAL_TOL)

    def test_v13_m1024_total_includes_t1574_share(self, v13_matrix):
        # Upstream publishes 2.552367 for M1024, the sum of its T1562 and
        # T1112 cells only; the mapping list also includes (M1024, T1574),
        # so the rule yields an extra weight/10 share.
        scores = dict(wsm_scores(v13_matrix).entries())
        assert scores["M1024"] == pytest.approx(2.552367 + 0.218778, abs=TOTAL_TOL)

    def test_matches_oracle(self, v13_matrix):
        scores = wsm_scores(v13_matrix).scores
        expected = oracle_wsm(v13_matrix.coverage.tolist(), v13_matrix.weights.tolist())
        assert scores == pytest.approx(expected, abs=1e-12)

    def test_sum_of_scores_is_sum_of_weights(self, v13_matrix):
        assert sum(wsm_scores(v13_matrix).scores) == pytest.approx(
            v13_matrix.weights.sum(), abs=1e-9
        )

    def test_double_weighted_variant(self, v13_matrix):
        # The literal double-weighted form (weighted cells times the
        # weights again) does not reproduce the published totals, which is
        # why wsm_scores weights each cell once.
        double = oracle_wsm_double(v13_matrix.coverage.tolist(), v13_matrix.weights.tolist())
        assert not np.allclose(double, wsm_scores(v13_matrix).scores)

    def test_empty_matrix(self):
        matrix = _matrix(np.zeros((0, 0)), np.zeros(0), mids=(), tids=())
        assert wsm_scores(matrix).scores == ()


class TestWpm:
    def test_single_cell(self):
        matrix = _matrix([[0.5]], [2.0])
        assert wpm_scores(matrix).scores[0] == pytest.approx(0.5)

    def test_dominated_row_scores_lower(self):
        matrix = _matrix([[0.5, 0.5], [0.25, 0.25]], [1.7, 0.4])
        scores = wpm_scores(matrix).scores
        assert scores[0] > scores[1]

    def test_zero_cell_error_names_cell(self, v13_matrix):
        with pytest.raises(McdmError, match=r"M1013.*T1053"):
            wpm_scores(v13_matrix)

    def test_epsilon_policy_matches_oracle(self, v13_matrix):
        scores = wpm_scores(v13_matrix, zero_policy="epsilon").scores
        expected = oracle_wpm(
            v13_matrix.coverage.tolist(), v13_matrix.weights.tolist(), epsilon=1e-6
        )
        assert scores == pytest.approx(expected, abs=1e-9)

    def test_custom_epsilon(self):
        matrix = _matrix([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        small = wpm_scores(matrix, zero_policy="epsilon", epsilon=1e-9).scores
        large = wpm_scores(matrix, zero_policy="epsilon", epsilon=1e-3).scores
        assert small[0] < large[0]

    def test_epsilon_must_stay_below_every_nonzero_cell(self):
        matrix = _matrix([[0.5, 0.0], [0.0, 0.25]], [1.0, 1.0])
        for epsilon in (0.25, 1e300, math.inf):
            with pytest.raises(ValidationError) as info:
                wpm_scores(matrix, zero_policy="epsilon", epsilon=epsilon)
            assert str(info.value) == (
                "epsilon must be below the smallest nonzero coverage cell 0.25, "
                f"got {epsilon!r}"
            )
        scores = wpm_scores(matrix, zero_policy="epsilon", epsilon=0.2499).scores
        assert scores[0] > scores[1]

    def test_bad_policy_rejected(self, v13_matrix):
        with pytest.raises(ValidationError):
            wpm_scores(v13_matrix, zero_policy="ignore")
        with pytest.raises(ValidationError):
            wpm_scores(v13_matrix, zero_policy="epsilon", epsilon=0.0)

    @pytest.mark.parametrize("epsilon", ["x", True, None])
    def test_epsilon_that_is_not_a_real_number_rejected(self, v13_matrix, epsilon):
        # True used to be read as 1, and a string raised TypeError.
        with pytest.raises(ValidationError) as info:
            wpm_scores(v13_matrix, "epsilon", epsilon)
        assert str(info.value) == f"epsilon must be a real number, got {epsilon!r}"


class TestTopsis:
    def test_identical_rows_share_closeness(self):
        matrix = _matrix([[0.5, 0.5], [0.5, 0.5]], [2.0, 1.0])
        scores = topsis_scores(matrix).scores
        assert scores[0] == scores[1] == pytest.approx(0.5)

    def test_diagonal_matrix_favors_heavier_column(self):
        matrix = _matrix([[1.0, 0.0], [0.0, 1.0]], [2.0, 1.0])
        scores = topsis_scores(matrix).scores
        expected = oracle_topsis([[1.0, 0.0], [0.0, 1.0]], [2.0, 1.0])
        assert scores == pytest.approx(expected, abs=1e-12)
        assert scores[0] > scores[1]

    def test_single_criterion_order_matches_wsm(self):
        rng = np.random.default_rng(505)
        for _ in range(20):
            matrix = random_decision_matrix(rng, max_n=1)
            order_t = rank(topsis_scores(matrix), matrix).mitigation_order()
            order_w = rank(wsm_scores(matrix), matrix).mitigation_order()
            assert order_t == order_w

    def test_closeness_within_unit_interval(self, v13_matrix):
        for score in topsis_scores(v13_matrix).scores:
            assert 0.0 <= score <= 1.0


class TestOracleEquivalence:
    def test_random_matrices(self):
        rng = np.random.default_rng(4242)
        for _ in range(100):
            matrix = random_decision_matrix(rng)
            u = matrix.coverage.tolist()
            w = matrix.weights.tolist()
            assert wsm_scores(matrix).scores == pytest.approx(
                oracle_wsm(u, w), abs=1e-9
            )
            assert wpm_scores(matrix, zero_policy="epsilon").scores == pytest.approx(
                oracle_wpm(u, w, epsilon=1e-6), abs=1e-9
            )
            assert topsis_scores(matrix).scores == pytest.approx(
                oracle_topsis(u, w), abs=1e-9
            )


class TestRank:
    def test_v13_computed_order_top_two(self, v13_matrix):
        plan = rank(wsm_scores(v13_matrix), v13_matrix)
        assert plan.entries[0].mitigation_id == "M1026"
        assert plan.entries[1].mitigation_id == "M1038"

    def test_v13_computed_order_m1024_above_m1040(self, v13_matrix):
        # With the mapped (M1024, T1574) share included, M1024's total
        # (2.771) overtakes M1040's (2.648); the published-totals order
        # below has them the other way around.
        order = rank(wsm_scores(v13_matrix), v13_matrix).mitigation_order()
        assert order.index("M1024") < order.index("M1040")

    def test_published_totals_order(self):
        matrix = published_matrix()
        plan = rank(published_total_scores(matrix), matrix)
        order = plan.mitigation_order()
        assert order[0] == "M1026"
        assert order[1] == "M1038"
        # Ranking the published totals puts M1040 (2.648487) above M1024
        # (2.552367) although the published row order lists M1024 first.
        assert order.index("M1040") < order.index("M1024")

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.25, 1.0, 2.771144]),
                st.sampled_from([0.0, 1e-12, 4e-10, 4.9e-10, 5e-10, 5.1e-10, 1e-9, 2e-9]),
            ),
            max_size=12,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_order_alone_equals_plan_order(self, data, seed):
        # Scores tied at and below the 9th decimal, under IDs in no order.
        rng = np.random.default_rng(seed)
        mids = tuple(f"M{1000 + i}" for i in rng.permutation(100)[: len(data)])
        scores = ScoreVector("wsm", mids, tuple(base + nudge for base, nudge in data))
        matrix = _matrix(np.ones((len(data), 1)), [1.0], mids=mids, tids=("T1053",))
        order = tuple(mids[i] for i in _ranked_rows(scores))
        assert order == rank(scores, matrix).mitigation_order()
        key = dict(zip(mids, (-round(s, TIE_DECIMALS) for s in scores.scores)))
        assert sorted(order) == sorted(mids)
        for earlier, later in zip(order, order[1:]):
            assert (key[earlier], earlier) < (key[later], later)

    def test_tie_breaks_by_ascending_id(self, v13_matrix):
        plan = rank(wsm_scores(v13_matrix), v13_matrix)
        order = plan.mitigation_order()
        assert order.index("M1021") == order.index("M1049") - 1

    def test_covered_techniques_recorded(self, v13_matrix):
        plan = rank(wsm_scores(v13_matrix), v13_matrix)
        top = plan.entries[0]
        assert top.mitigation_id == "M1026"
        assert top.covered_techniques == (
            "T1047",
            "T1053",
            "T1055",
            "T1059",
            "T1218",
        )

    def test_ranks_are_contiguous(self, v13_matrix):
        plan = rank(wsm_scores(v13_matrix), v13_matrix)
        assert [e.rank for e in plan.entries] == list(range(1, 19))

    def test_scale_invariance(self, v13_catalog, v13_weights, v13_matrix):
        scaled = WeightVector(
            [
                WeightEntry(e.technique_id, e.weight * 7.3, e.name)
                for e in v13_weights.entries
            ]
        )
        scaled_matrix = build_decision_matrix(v13_catalog, scaled)
        base_order = rank(wsm_scores(v13_matrix), v13_matrix).mitigation_order()
        scaled_order = rank(wsm_scores(scaled_matrix), scaled_matrix).mitigation_order()
        assert scaled_order == base_order

    def test_row_permutation_leaves_plan_identical(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            matrix = random_decision_matrix(rng, max_m=5, max_n=4)
            m = matrix.shape[0]
            perm = rng.permutation(m)
            permuted = DecisionMatrix(
                mitigation_ids=tuple(matrix.mitigation_ids[i] for i in perm),
                technique_ids=matrix.technique_ids,
                coverage=matrix.coverage[perm],
                weights=matrix.weights,
            )
            base = rank(wsm_scores(matrix), matrix)
            moved = rank(wsm_scores(permuted), permuted)
            assert moved.mitigation_order() == base.mitigation_order()
            assert [e.score for e in moved.entries] == pytest.approx(
                [e.score for e in base.entries]
            )

    def test_column_permutation_leaves_plan_identical(self):
        rng = np.random.default_rng(100)
        for _ in range(20):
            matrix = random_decision_matrix(rng, max_m=5, max_n=4)
            n = matrix.shape[1]
            perm = rng.permutation(n)
            permuted = DecisionMatrix(
                mitigation_ids=matrix.mitigation_ids,
                technique_ids=tuple(matrix.technique_ids[j] for j in perm),
                coverage=matrix.coverage[:, perm],
                weights=matrix.weights[perm],
            )
            base = rank(wsm_scores(matrix), matrix)
            moved = rank(wsm_scores(permuted), permuted)
            assert moved.mitigation_order() == base.mitigation_order()

    def test_mismatched_rows_rejected(self, v13_matrix):
        scores = ScoreVector(
            method="wsm", mitigation_ids=("M1026",), scores=(1.0,)
        )
        with pytest.raises(McdmError):
            rank(scores, v13_matrix)

    def test_truncation(self, v13_matrix):
        plan = rank(wsm_scores(v13_matrix), v13_matrix)
        top3 = plan.top(3)
        assert len(top3.entries) == 3
        assert top3.entries == plan.entries[:3]
        assert plan.top(99).entries == plan.entries
        assert plan.top(0).entries == ()
        assert plan.top(np.int64(2)).entries == plan.entries[:2]

    @pytest.mark.parametrize("k", [True, 1.5, "3", None])
    def test_truncation_needs_an_integer(self, v13_matrix, k):
        # True used to keep one entry, and 1.5 raised TypeError.
        plan = rank(wsm_scores(v13_matrix), v13_matrix)
        with pytest.raises(ValidationError) as info:
            plan.top(k)
        assert str(info.value) == f"top k must be an integer, got {k!r}"


class TestTypes:
    def test_score_vector_validation(self):
        with pytest.raises(ValidationError):
            ScoreVector(method="magic", mitigation_ids=("M1026",), scores=(1.0,))
        with pytest.raises(ValidationError):
            ScoreVector(method="wsm", mitigation_ids=("M1026",), scores=(1.0, 2.0))
        with pytest.raises(ValidationError):
            ScoreVector(method="wsm", mitigation_ids=("M1026",), scores=(-0.1,))
        with pytest.raises(ValidationError):
            ScoreVector(method="topsis", mitigation_ids=("M1026",), scores=(1.5,))

    def test_plan_validation(self):
        entry = PlanEntry(rank=2, mitigation_id="M1026", score=1.0, covered_techniques=())
        with pytest.raises(ValidationError):
            RankedPlan(method="wsm", entries=(entry,))
        increasing = (
            PlanEntry(rank=1, mitigation_id="M1026", score=1.0, covered_techniques=()),
            PlanEntry(rank=2, mitigation_id="M1038", score=2.0, covered_techniques=()),
        )
        with pytest.raises(ValidationError):
            RankedPlan(method="wsm", entries=increasing)

    def test_score_matrix_dispatch(self, v13_matrix):
        assert score_matrix(v13_matrix, "wsm").method == "wsm"
        assert score_matrix(v13_matrix, "topsis").method == "topsis"
        with pytest.raises(ValidationError):
            score_matrix(v13_matrix, "ahp")

    @pytest.mark.parametrize(
        "method, option",
        [("wsm", "zero_policy"), ("topsis", "epsilon"), ("wpm", "zero")],
    )
    def test_score_matrix_rejects_options_its_method_lacks(self, v13_matrix, method, option):
        # wsm_scores() and topsis_scores() take no options, so the option
        # used to raise TypeError from inside them.
        with pytest.raises(ValidationError) as info:
            score_matrix(v13_matrix, method, **{option: "error"})
        assert str(info.value) == f"{method} takes no option {option!r}"
        options = {"zero_policy": "epsilon", "epsilon": 1e-6}
        assert score_matrix(v13_matrix, "wpm", **options) == wpm_scores(v13_matrix, **options)
