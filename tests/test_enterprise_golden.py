"""Byte-level goldens and oracles at ATT&CK Enterprise size.

The catalog, matrix and plan outputs of the seeded Enterprise-size
catalog are pinned by SHA-256, and its random baselines by their exact
summaries.  The canonical catalog writer is checked against the
standard library's JSON encoder, and every index-backed ``Catalog``
lookup and cover table is checked against a plain scan of ``mappings``.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ODD_NAME_PARTS, enterprise_catalog_and_weights
from oracles import oracle_dumps_catalog

from mitiplan.catalog import (
    Catalog,
    IngestStats,
    Mitigation,
    Technique,
    dumps_catalog,
    loads_catalog,
    save_catalog,
)
from mitiplan.cli import run
from mitiplan.matrix import build_decision_matrix, export_matrix_csv
from mitiplan.mcdm import score_matrix
from mitiplan.scoring import render_weights_csv
from mitiplan.simulator import Campaign, random_baseline

CATALOG_SHA256 = "228a16e7371e3922c89cb862202ebd9967493c20496f174676fb7408e122b903"
MATRIX_CSV_SHA256 = "86cdbbac7dd11ba1edc05043318c6b383ccf5b17c7147b91736f93b6bf4d11bd"
PLAN_JSON_SHA256 = "73cd79e4f9346bd4a3d85316e0e80ecfd9cf39b874ed1b0ca2ec838f5af14437"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def enterprise():
    return enterprise_catalog_and_weights()


def test_enterprise_catalog_shape(enterprise):
    catalog, weights = enterprise
    assert (len(catalog.techniques), len(catalog.mitigations)) == (800, 45)
    assert len(catalog.mappings) == 1600
    assert len(weights) == 800
    assert any(t.revoked for t in catalog.techniques)
    assert any(t.deprecated for t in catalog.techniques)
    names = "".join(t.name for t in catalog.techniques)
    names += "".join(m.name for m in catalog.mitigations)
    for part in ODD_NAME_PARTS:
        assert part in names


def test_catalog_bytes_golden(enterprise):
    catalog, _ = enterprise
    data = dumps_catalog(catalog)
    assert data == oracle_dumps_catalog(catalog)
    assert _sha256(data) == CATALOG_SHA256


def test_matrix_csv_golden(enterprise):
    catalog, weights = enterprise
    matrix = build_decision_matrix(catalog, weights)
    assert matrix.shape == (43, 701)
    assert len(matrix.dropped_techniques) == 99
    assert _sha256(export_matrix_csv(matrix)) == MATRIX_CSV_SHA256


def test_wsm_plan_json_golden(enterprise, tmp_path):
    catalog, weights = enterprise
    save_catalog(catalog, tmp_path / "catalog.json")
    (tmp_path / "weights.csv").write_bytes(render_weights_csv(weights))
    argv = [
        "--timestamp",
        "1700000000",
        "rank",
        "--catalog",
        str(tmp_path / "catalog.json"),
        "--weights",
        str(tmp_path / "weights.csv"),
        "--out",
        str(tmp_path / "plan.json"),
    ]
    assert run(argv) == 0
    assert _sha256((tmp_path / "plan.json").read_bytes()) == PLAN_JSON_SHA256


# (techniques, k, fewest covers, mean, std) over 3,000 trials of seed
# 2024, pinned before the backward walk existed.  The first two campaigns
# now take it (fewest covers <= 2k - 1); the third keeps whole orders.
BASELINES = [
    (
        (
            "T1000", "T1010.001", "T1043", "T1053.002", "T1055.003", "T1111.004",
            "T1120", "T1131.002", "T1153.002", "T1167.003", "T1178.001", "T1183.003",
        ),
        2, 2, 41.638333333333335, 3.3483623692120834,
    ),
    (
        (
            "T1002.002", "T1051.001", "T1053.002", "T1056.001", "T1063.005",
            "T1088.004", "T1137.007", "T1198",
        ),
        3, 3, 39.602333333333334, 3.84458856345152,
    ),
    (
        ("T1018", "T1075.003", "T1128.006", "T1131.003", "T1152.001", "T1165.006"),
        3, 6, 28.542666666666666, 5.027740999251607,
    ),
]


@pytest.mark.parametrize("techniques, k, fewest, mean, std", BASELINES)
def test_random_baseline_golden(enterprise, techniques, k, fewest, mean, std):
    catalog, _ = enterprise
    assert min(len(catalog.mitigations_for(tid)) for tid in techniques) == fewest
    campaign = Campaign(techniques=techniques, block_threshold=k)
    summary = random_baseline(catalog, campaign, trials=3000, seed=2024)
    assert (summary.mean_steps, summary.std_steps, summary.unblocked_fraction) == (
        mean, std, 0.0
    )


_names = st.one_of(st.text(max_size=12), st.sampled_from(ODD_NAME_PARTS))


@st.composite
def _catalogs(draw):
    tids = draw(
        st.lists(
            st.integers(1000, 1030).map(lambda k: f"T{k}"), unique=True, max_size=8
        )
    )
    mids = draw(
        st.lists(
            st.integers(1000, 1020).map(lambda k: f"M{k}"), unique=True, max_size=6
        )
    )
    techniques = [
        Technique(
            tid,
            draw(_names),
            revoked=draw(st.booleans()),
            deprecated=draw(st.booleans()),
        )
        for tid in tids
    ]
    mitigations = [Mitigation(mid, draw(_names)) for mid in mids]
    pairs = [(mid, tid) for mid in mids for tid in tids]
    mappings = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Catalog(techniques, mitigations, mappings)


@settings(max_examples=200, deadline=None)
@given(_catalogs())
def test_dumps_catalog_equals_json_module(catalog):
    assert dumps_catalog(catalog) == oracle_dumps_catalog(catalog)


def test_empty_catalog_equals_json_module():
    empty = Catalog([], [], [])
    assert dumps_catalog(empty) == oracle_dumps_catalog(empty)
    assert b'"mappings": [],' in dumps_catalog(empty)


def _check_lookups_against_scan(catalog):
    table = np.zeros((len(catalog.mids), len(catalog.tids)), dtype=np.uint8)
    for mid, tid in catalog.mappings:
        table[catalog.mids.index(mid), catalog.tids.index(tid)] = 1
    columns = np.random.default_rng(len(catalog.tids)).permutation(len(catalog.tids))
    for picked in (columns, columns[:3], columns[:0]):
        covers = catalog.covers(picked)
        assert covers.dtype == np.uint8
        assert np.array_equal(covers, table[:, picked])
    assert [catalog.mitigation_index[mid] for mid in catalog.mids] == list(
        range(len(catalog.mids))
    )
    unknown_tids = ("T9999", "T9999.001")
    for tid in catalog.tids + unknown_tids:
        scanned = tuple(m for m, t in catalog.mappings if t == tid)
        present = any(t.id == tid for t in catalog.techniques)
        assert catalog.has_technique(tid) == present
        assert catalog.mitigations_for(tid) == scanned


def test_index_lookups_equal_scan(enterprise, v13_catalog):
    _check_lookups_against_scan(enterprise[0])
    _check_lookups_against_scan(v13_catalog)
    _check_lookups_against_scan(Catalog([], [], []))


def test_indexes_stay_out_of_equality_and_hash(enterprise):
    catalog = enterprise[0]
    # The content is the columns; the technique index, the records built
    # on first read and the ingest statistics are not fields.
    assert [f.name for f in dataclasses.fields(Catalog)] == [
        "tids",
        "tnames",
        "revoked",
        "deprecated",
        "mids",
        "mnames",
        "mapping_rows",
        "mapping_cols",
        "meta",
    ]
    copy = loads_catalog(dumps_catalog(catalog))
    assert not {"techniques", "mitigations", "mappings"} & set(vars(copy))
    for built in (catalog.techniques, catalog.mitigations, catalog.mappings):
        assert built
    assert {"techniques", "mitigations", "mappings"} <= set(vars(catalog))
    assert copy == catalog and hash(copy) == hash(catalog)
    with_meta = Catalog(
        catalog.techniques,
        catalog.mitigations,
        catalog.mappings,
        meta=IngestStats(skipped_objects=3, dangling_refs=1, warnings=("w",)),
    )
    assert with_meta == copy and hash(with_meta) == hash(copy)
    # The index is derived from the content, not kept beside it.
    assert copy.technique_index == catalog.technique_index
    assert list(copy.technique_index) == list(copy.tids)


@settings(max_examples=100, deadline=None)
@given(_catalogs())
def test_index_lookups_equal_scan_on_random_catalogs(catalog):
    _check_lookups_against_scan(catalog)


def test_scores_do_not_depend_on_coverage_layout(enterprise):
    matrix = build_decision_matrix(*enterprise)
    cells = matrix.coverage
    wide = np.zeros((cells.shape[0], 2 * cells.shape[1]))
    wide[:, ::2] = cells
    copies = (np.ascontiguousarray(cells), np.asfortranarray(cells), wide[:, ::2])
    assert copies[1].flags.f_contiguous and not copies[2].flags.contiguous
    for method, kwargs in (("wsm", {}), ("wpm", {"zero_policy": "epsilon"}), ("topsis", {})):
        scores = {
            score_matrix(
                dataclasses.replace(matrix, coverage=copy), method, **kwargs
            ).scores
            for copy in copies
        }
        assert scores == {score_matrix(matrix, method, **kwargs).scores}


def test_mapping_counts_equal_scan(enterprise):
    catalog, weights = enterprise
    matrix = build_decision_matrix(catalog, weights)
    scanned = {
        tid: sum(1 for _, t in catalog.mappings if t == tid)
        for tid in weights.tids
    }
    assert dict(zip(matrix.technique_ids, matrix.counts.tolist())) == {
        tid: count for tid, count in scanned.items() if count
    }
    assert matrix.dropped_techniques == tuple(
        tid for tid, count in scanned.items() if not count
    )
    # Each mapped cell is exactly 1.0 / count, each unmapped one 0.
    assert np.array_equal(matrix.coverage, (matrix.coverage > 0) / matrix.counts)
