from __future__ import annotations

import csv
import io
import random

import numpy as np
import pytest

from mitiplan.catalog import Catalog, Mitigation, Technique, catalog_sha256
from mitiplan.errors import CatalogError
from mitiplan.matrix import (
    DecisionMatrix,
    Provenance,
    build_decision_matrix,
    export_matrix_csv,
)
from mitiplan.mcdm import RankedPlan, rank, wsm_scores
from mitiplan.scoring import WeightEntry, WeightVector, weights_sha256

from published import (
    CONSISTENT_COLUMNS,
    KNOWN_CELL_ANOMALIES,
    PUBLISHED_CELL_CONSTANTS,
    PUBLISHED_COUNTS,
    published_cell,
)

CELL_TOL = 2e-5


def _weights(pairs):
    return WeightVector(
        [WeightEntry(tid, weight, "") for tid, weight in pairs]
    )


class TestMappingCounts:
    def test_v13_counts(self, v13_catalog, v13_weights):
        counts = build_decision_matrix(v13_catalog, v13_weights).counts
        assert counts.tolist() == [4, 7, 4, 2, 3, 4, 10, 4, 7, 1]

    def test_missing_technique_named(self, v13_catalog):
        weights = _weights([("T1053", 3.0), ("T9999", 1.0), ("T9998", 0.5)])
        with pytest.raises(
            CatalogError, match="^weighted technique T9999 not present in catalog$"
        ):
            build_decision_matrix(v13_catalog, weights)

    def test_single_pair(self):
        catalog = Catalog(
            [Technique("T1053", "")], [Mitigation("M1026", "")], [("M1026", "T1053")]
        )
        matrix = build_decision_matrix(catalog, _weights([("T1053", 2.0)]))
        assert matrix.counts.tolist() == [1]
        assert matrix.coverage.tolist() == [[1.0]]


class TestBuild:
    def test_shape_and_order(self, v13_matrix):
        assert v13_matrix.shape == (18, 10)
        assert v13_matrix.mitigation_ids == tuple(sorted(v13_matrix.mitigation_ids))
        assert v13_matrix.technique_ids[0] == "T1053"
        assert v13_matrix.technique_ids[-1] == "T1112"

    def test_published_nonzero_cells_in_consistent_columns(self, v13_matrix):
        for tid in CONSISTENT_COLUMNS:
            expected = PUBLISHED_CELL_CONSTANTS[tid]
            for mid in v13_matrix.mitigation_ids:
                if (mid, tid) in KNOWN_CELL_ANOMALIES:
                    continue
                computed = v13_matrix.cell(mid, tid)
                published = published_cell(mid, tid)
                if published:
                    assert computed == pytest.approx(expected, abs=CELL_TOL)
                    assert computed == pytest.approx(published, abs=CELL_TOL)
                else:
                    assert computed == 0.0

    def test_t1053_cells_follow_count_rule_not_published_print(self, v13_matrix):
        # Upstream prints weight/5 = 0.590309 in this column although its
        # own mapping list has 4 entries; the rule gives weight/4.
        for mid in ("M1018", "M1026", "M1028", "M1047"):
            assert v13_matrix.cell(mid, "T1053") == pytest.approx(0.737886, abs=CELL_TOL)
            assert published_cell(mid, "T1053") == 0.590309
        assert v13_matrix.cell("M1024", "T1053") == 0.0

    def test_m1024_t1574_cell_follows_mapping_not_published_print(self, v13_matrix):
        # Second upstream quirk: the published row omits this cell even
        # though the mapping list includes the pair and the column's
        # denominator (10) counts it.
        published, computed = KNOWN_CELL_ANOMALIES[("M1024", "T1574")]
        assert published_cell("M1024", "T1574") == published
        assert v13_matrix.cell("M1024", "T1574") == pytest.approx(
            computed, abs=CELL_TOL
        )

    def test_column_sums_equal_weights(self, v13_matrix):
        sums = v13_matrix.weighted().sum(axis=0)
        assert np.allclose(sums, v13_matrix.weights, rtol=0, atol=1e-9)

    def test_grand_total(self, v13_matrix):
        assert v13_matrix.weighted().sum() == pytest.approx(
            v13_matrix.weights.sum(), abs=1e-9
        )

    def test_unmapped_technique_dropped_with_record(self, v13_catalog, caplog):
        weights = _weights([("T1053", 3.0), ("T9998", 2.0)])
        catalog = Catalog(
            list(v13_catalog.techniques) + [Technique("T9998", "unmapped")],
            v13_catalog.mitigations,
            v13_catalog.mappings,
        )
        matrix = build_decision_matrix(catalog, weights)
        assert matrix.dropped_techniques == ("T9998",)
        assert matrix.technique_ids == ("T1053",)
        assert caplog.messages == [
            "dropping 1 technique(s) with no mapped mitigation: T9998"
        ]

    def test_rows_limited_to_mapped_mitigations(self, v13_catalog):
        weights = _weights([("T1112", 1.9)])
        matrix = build_decision_matrix(v13_catalog, weights)
        assert matrix.mitigation_ids == ("M1024",)
        assert matrix.cell("M1024", "T1112") == pytest.approx(1.9)

    def test_shuffled_catalog_same_matrix(self, v13_catalog, v13_weights, v13_matrix):
        rng = random.Random(7)
        techniques = list(v13_catalog.techniques)
        mitigations = list(v13_catalog.mitigations)
        mappings = list(v13_catalog.mappings)
        for items in (techniques, mitigations, mappings):
            rng.shuffle(items)
        shuffled = Catalog(techniques, mitigations, mappings)
        rebuilt = build_decision_matrix(shuffled, v13_weights)
        assert rebuilt.mitigation_ids == v13_matrix.mitigation_ids
        assert rebuilt.technique_ids == v13_matrix.technique_ids
        assert np.array_equal(rebuilt.coverage, v13_matrix.coverage)

    def test_provenance_hashes_set(self, v13_matrix):
        assert len(v13_matrix.catalog_hash) == 64
        assert len(v13_matrix.weights_hash) == 64


class TestProvenance:
    def test_hashes_match_inputs(self, v13_catalog, v13_weights):
        matrix = build_decision_matrix(v13_catalog, v13_weights)
        assert matrix.catalog_hash == catalog_sha256(v13_catalog)
        assert matrix.weights_hash == weights_sha256(v13_weights)

    def test_each_hash_computed_once_on_first_read(
        self, v13_catalog, v13_weights, hash_calls
    ):
        matrix = build_decision_matrix(v13_catalog, v13_weights)
        assert hash_calls == {"catalog": 0, "weights": 0}
        plan = rank(wsm_scores(matrix), matrix).top(3)
        assert hash_calls == {"catalog": 0, "weights": 0}
        assert plan.catalog_hash == catalog_sha256(v13_catalog)
        assert hash_calls == {"catalog": 1, "weights": 0}
        assert plan.weights_hash == matrix.weights_hash == weights_sha256(v13_weights)
        assert matrix.catalog_hash == plan.catalog_hash
        assert hash_calls == {"catalog": 1, "weights": 1}

    def test_rank_and_top_keep_both_hashes(self, v13_matrix):
        plan = rank(wsm_scores(v13_matrix), v13_matrix)
        for kept in (plan, plan.top(2), plan.top(0)):
            assert kept.catalog_hash == v13_matrix.catalog_hash
            assert kept.weights_hash == v13_matrix.weights_hash

    def test_built_without_inputs_reads_empty(self):
        matrix = DecisionMatrix(
            mitigation_ids=("M1026",),
            technique_ids=("T1053",),
            coverage=np.array([[1.0]]),
            weights=np.array([2.0]),
        )
        assert matrix.catalog_hash == matrix.weights_hash == ""
        plan = rank(wsm_scores(matrix), matrix)
        assert plan.catalog_hash == plan.weights_hash == ""
        assert RankedPlan(method="wsm", entries=()).catalog_hash == ""
        assert Provenance() == Provenance(None, None)

    def test_plan_equality_compares_hashes(self, v13_catalog, v13_weights):
        first = build_decision_matrix(v13_catalog, v13_weights)
        again = build_decision_matrix(v13_catalog, v13_weights)
        # Equal inputs, distinct objects: equal by content.
        assert rank(wsm_scores(first), first) == rank(wsm_scores(again), again)
        scaled = _weights([(e.technique_id, e.weight * 2) for e in v13_weights.entries])
        other = build_decision_matrix(v13_catalog, scaled)
        plan = rank(wsm_scores(first), first)
        moved = RankedPlan(plan.method, plan.entries, other.provenance)
        assert moved.catalog_hash == plan.catalog_hash
        assert moved != plan
        assert hash(Provenance(v13_catalog)) == hash(Provenance(v13_catalog))


class TestMatrixType:
    def test_counts_derived_from_coverage(self, v13_matrix):
        matrix = DecisionMatrix(
            mitigation_ids=("M1026", "M1038"),
            technique_ids=("T1053", "T1059"),
            coverage=np.array([[0.5, 1.0], [0.5, 0.0]]),
            weights=np.array([2.0, 1.0]),
        )
        assert matrix.counts.tolist() == [2, 1]
        with pytest.raises(AttributeError):
            matrix.counts = np.array([1, 1])
        assert v13_matrix.counts.tolist() == [4, 7, 4, 2, 3, 4, 10, 4, 7, 1]

    def test_arrays_read_only(self, v13_matrix):
        with pytest.raises(ValueError):
            v13_matrix.coverage[0, 0] = 9.9

    def test_cell_lookup_errors(self, v13_matrix):
        with pytest.raises(KeyError):
            v13_matrix.row_index("M9999")
        with pytest.raises(KeyError):
            v13_matrix.column_index("T9999")


class TestExport:
    def test_layout(self, v13_matrix):
        rows = list(csv.reader(io.StringIO(export_matrix_csv(v13_matrix).decode())))
        assert rows[0][0] == "weight"
        assert rows[1][0] == "mitigation_id"
        assert rows[1][1:11] == list(v13_matrix.technique_ids)
        assert rows[1][11] == "total"
        assert rows[2][0] == "M1013"  # rows sorted by ID
        assert len(rows) == 2 + 18

    def test_reparse_reproduces_cells(self, v13_matrix):
        rows = list(csv.reader(io.StringIO(export_matrix_csv(v13_matrix).decode())))
        for row in rows[2:]:
            mid = row[0]
            for j, tid in enumerate(v13_matrix.technique_ids):
                assert float(row[1 + j]) == pytest.approx(
                    v13_matrix.cell(mid, tid), abs=1e-6
                )
            assert float(row[11]) == pytest.approx(
                sum(v13_matrix.cell(mid, t) for t in v13_matrix.technique_ids),
                abs=1e-5,
            )

    def test_single_pair_export(self):
        catalog = Catalog(
            [Technique("T1053", "")], [Mitigation("M1026", "")], [("M1026", "T1053")]
        )
        matrix = build_decision_matrix(catalog, _weights([("T1053", 2.5)]))
        rows = list(csv.reader(io.StringIO(export_matrix_csv(matrix).decode())))
        assert rows[2] == ["M1026", "2.500000", "2.500000"]
