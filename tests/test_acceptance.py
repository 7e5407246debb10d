"""Acceptance suite: nine criteria, one verdict line each.

Each criterion test records a PASS or FAIL line that the conftest hook
prints after the run.  Criterion 3 genuinely fails: one upstream
published total (M1024) omits the share contributed by its
(M1024, T1574) mapping, so the stated value cannot be reproduced from
the published mapping under the matrix rules.  The companion
strict-xfail test pins that gap; everything else passes.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from mitiplan.catalog import (
    Catalog,
    Mitigation,
    Technique,
    dumps_catalog,
    loads_catalog,
    parse_stix_bundle,
)
from mitiplan.fixtures import paper_v13_catalog, paper_v13_weights
from mitiplan.matrix import build_decision_matrix
from mitiplan.mcdm import rank, topsis_scores, wpm_scores, wsm_scores
from mitiplan.report import (
    build_plan_document,
    plan_document_from_json,
    render_plan_document,
)
from mitiplan.scoring import (
    AttackComplexity,
    AttackVector,
    CvssVector,
    PrivilegesRequired,
    RiskInputs,
    UserInteraction,
    WeightEntry,
    WeightVector,
    cvss_exploitability,
    risk_factor,
)
from mitiplan.simulator import Campaign, random_baseline, simulate_campaign

from acceptance_report import record
from helpers import random_catalog_and_weights, random_decision_matrix
from oracles import oracle_topsis, oracle_wpm, oracle_wsm
from published import (
    CONSISTENT_COLUMNS,
    KNOWN_CELL_ANOMALIES,
    PUBLISHED_ROWS,
    PUBLISHED_TOTALS,
    published_cell,
    published_matrix,
    published_total_scores,
)

CELL_TOL = 2e-5
TOTAL_TOL = 2e-5

T1053_MITIGATIONS = ("M1018", "M1026", "M1028", "M1047")


def test_criterion_1_cell_reproduction(v13_matrix):
    start = time.perf_counter()
    catalog = paper_v13_catalog()
    weights = paper_v13_weights()
    matrix = build_decision_matrix(catalog, weights)
    checked = 0
    for tid in CONSISTENT_COLUMNS:
        for mid, _ in PUBLISHED_ROWS:
            published = published_cell(mid, tid)
            if published == 0.0:
                continue
            assert matrix.cell(mid, tid) == pytest.approx(published, abs=CELL_TOL)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    record(
        1,
        True,
        f"all {checked} published nonzero cells in the 9 consistent columns "
        f"match within 2e-5 ({elapsed * 1000:.0f} ms)",
    )


def test_criterion_2_known_anomaly(v13_matrix, v13_weights):
    w = dict(zip(v13_weights.tids, v13_weights.values))["T1053"]
    assert w == pytest.approx(2.951543, abs=1e-6)
    for mid in T1053_MITIGATIONS:
        assert v13_matrix.cell(mid, "T1053") == pytest.approx(w / 4, abs=CELL_TOL)
        assert v13_matrix.cell(mid, "T1053") == pytest.approx(0.737886, abs=CELL_TOL)
        assert published_cell(mid, "T1053") == 0.590309
    # The published cell equals w/5 although only four mitigations map
    # to T1053; the computed matrix follows the mapping count.
    assert 0.590309 == pytest.approx(w / 5, abs=CELL_TOL)
    record(
        2,
        True,
        "T1053 cells computed as w/4 = 0.737886 while the published value "
        "0.590309 equals w/5; divergence asserted, not patched",
    )


def test_criterion_3_total_score_reproduction(v13_matrix, v13_catalog):
    scores = dict(wsm_scores(v13_matrix).entries())
    off_t1053 = [
        mid
        for mid in v13_catalog.mids
        if mid not in T1053_MITIGATIONS
    ]
    assert len(off_t1053) == 14
    reproduced = 0
    for mid in off_t1053:
        if mid == "M1024":
            continue
        assert scores[mid] == pytest.approx(PUBLISHED_TOTALS[mid], abs=TOTAL_TOL)
        reproduced += 1
    # M1024 is the one stated total that cannot be reproduced: the
    # mapping includes (M1024, T1574), worth weight/10 = 0.218778, which
    # the published total leaves out.
    assert scores["M1024"] == pytest.approx(2.771144, abs=TOTAL_TOL)
    assert scores["M1024"] != pytest.approx(PUBLISHED_TOTALS["M1024"], abs=TOTAL_TOL)
    assert scores["M1024"] - PUBLISHED_TOTALS["M1024"] == pytest.approx(
        0.218778, abs=CELL_TOL
    )
    record(
        3,
        False,
        f"{reproduced} of 14 totals off the T1053 column match within 2e-5, "
        "but M1024 is stated as 2.552367 and computes to 2.771144: the "
        "published total omits the 0.218778 share of its own "
        "(M1024, T1574) mapping; see tests/published.py and the "
        "strict-xfail companion test",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "upstream published total for M1024 (2.552367) omits the "
        "(M1024, T1574) share of 0.218778 implied by its own mapping "
        "list; the matrix rules yield 2.771144 and the stated value is "
        "unreachable without silently dropping that mapping"
    ),
)
def test_criterion_3_published_m1024_total(v13_matrix):
    scores = dict(wsm_scores(v13_matrix).entries())
    assert scores["M1024"] == pytest.approx(2.552367, abs=TOTAL_TOL)


def test_criterion_4_ranking_checks():
    matrix = published_matrix()
    plan = rank(published_total_scores(matrix), matrix)
    order = plan.mitigation_order()
    assert plan.entries[0].mitigation_id == "M1026"
    assert plan.entries[0].score == pytest.approx(3.281011, abs=TOTAL_TOL)
    assert plan.entries[1].mitigation_id == "M1038"
    # Ranked by score, M1040 (2.648487) sits above M1024 (2.552367) even
    # though the published row order lists M1024 first.
    assert order.index("M1040") < order.index("M1024")
    # M1021 and M1049 share a score; the tie resolves by ascending ID.
    assert order.index("M1021") == order.index("M1049") - 1
    record(
        4,
        True,
        "ranks 1-2 are M1026, M1038 on the published totals; M1040 ranks "
        "above M1024; the (M1021, M1049) tie orders by ID",
    )


def test_criterion_5_invariant_suite(v13_matrix, v13_catalog, v13_weights):
    weighted = v13_matrix.weighted()
    for j, tid in enumerate(v13_matrix.technique_ids):
        assert weighted[:, j].sum() == pytest.approx(
            v13_matrix.weights[j], abs=1e-9
        )
    assert weighted.sum() == pytest.approx(v13_matrix.weights.sum(), abs=1e-9)

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

    rng = np.random.default_rng(20260822)
    catalogs = 0
    pairs = 0
    while catalogs < 200:
        catalog, weights = random_catalog_and_weights(rng)
        try:
            matrix = build_decision_matrix(catalog, weights)
        except Exception:
            continue
        coverage = matrix.coverage
        scores = wsm_scores(matrix).scores
        m = matrix.shape[0]
        for a in range(m):
            for b in range(m):
                if a != b and (coverage[a] >= coverage[b]).all():
                    assert scores[a] >= scores[b] - 1e-12
                    pairs += 1
        catalogs += 1
    record(
        5,
        True,
        "column sums and grand total hold at 1e-9; a 7.3x weight scale "
        "keeps the order bit-identical; dominance held for "
        f"{pairs} row pairs across {catalogs} random catalogs",
    )


def test_criterion_6_mcdm_oracle_equivalence():
    rng = np.random.default_rng(606060)
    for _ in range(500):
        matrix = random_decision_matrix(rng)
        u = matrix.coverage.tolist()
        w = matrix.weights.tolist()
        assert wsm_scores(matrix).scores == pytest.approx(oracle_wsm(u, w), abs=1e-9)
        assert wpm_scores(matrix, zero_policy="epsilon").scores == pytest.approx(
            oracle_wpm(u, w, epsilon=1e-6), abs=1e-9
        )
        assert topsis_scores(matrix).scores == pytest.approx(
            oracle_topsis(u, w), abs=1e-9
        )
    for _ in range(100):
        matrix = random_decision_matrix(rng, max_n=1)
        order_t = rank(topsis_scores(matrix), matrix).mitigation_order()
        order_w = rank(wsm_scores(matrix), matrix).mitigation_order()
        assert order_t == order_w
    record(
        6,
        True,
        "WSM, WPM, and TOPSIS match brute-force oracles to 1e-9 on 500 "
        "random matrices; single-criterion TOPSIS order equals WSM on 100",
    )


def test_criterion_7_simulation_reproduction(v13_matrix, v13_catalog):
    start = time.perf_counter()
    plan = rank(wsm_scores(v13_matrix), v13_matrix)
    campaign = Campaign(techniques=("T1053", "T1059"), block_threshold=1)
    result = simulate_campaign(plan, v13_catalog, campaign)
    assert result.steps_to_block == 1

    first = random_baseline(v13_catalog, campaign, trials=10000, seed=42)
    second = random_baseline(v13_catalog, campaign, trials=10000, seed=42)
    assert first.mean_steps > 1.0
    assert first.unblocked_fraction == 0.0
    assert first == second
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    record(
        7,
        True,
        "plan blocks {T1053, T1059} at step 1; the 10,000-trial seed-42 "
        f"baseline means {first.mean_steps:.3f} steps and reruns "
        f"bit-identically ({elapsed:.2f} s)",
    )


def test_criterion_8_scoring_formulas():
    vector = CvssVector(
        attack_vector=AttackVector.NETWORK,
        attack_complexity=AttackComplexity.LOW,
        privileges_required=PrivilegesRequired.NONE,
        user_interaction=UserInteraction.NONE,
    )
    assert cvss_exploitability(vector) == pytest.approx(3.887043, abs=1e-6)

    rng = np.random.default_rng(808)
    for _ in range(1000):
        threat = float(rng.random())
        vuln = float(rng.random())
        impact = float(rng.random() * 100)
        assert risk_factor(RiskInputs(0.0, vuln, impact)) == 0.0
        assert risk_factor(RiskInputs(threat, 0.0, impact)) == 0.0
        assert risk_factor(RiskInputs(threat, vuln, 0.0)) == 0.0
        assert risk_factor(RiskInputs(1.0, 1.0, impact)) == pytest.approx(impact)
    record(
        8,
        True,
        "cvss_exploitability(N, L, N, N) = 3.887043 within 1e-6; risk "
        "annihilator and identity held for 1,000 random inputs",
    )


def test_criterion_9_persistence_stability(v13_catalog, v13_matrix):
    data1 = dumps_catalog(v13_catalog)
    data2 = dumps_catalog(loads_catalog(data1))
    assert data1 == data2

    plan = rank(wsm_scores(v13_matrix), v13_matrix)
    doc = build_plan_document(plan, timestamp=1_700_000_000)
    rendered = render_plan_document(doc, "json")
    rerendered = render_plan_document(plan_document_from_json(rendered), "json")
    assert rendered == rerendered

    bundle = {
        "type": "bundle",
        "id": "bundle--0",
        "objects": [
            {
                "type": "attack-pattern",
                "id": "attack-pattern--1",
                "name": "Phishing",
                "external_references": [
                    {"source_name": "mitre-attack", "external_id": "T1566"}
                ],
            },
            {
                "type": "attack-pattern",
                "id": "attack-pattern--2",
                "name": "Spearphishing Attachment",
                "external_references": [
                    {"source_name": "mitre-attack", "external_id": "T1566.001"}
                ],
            },
            {
                "type": "course-of-action",
                "id": "course-of-action--3",
                "name": "User Training",
                "external_references": [
                    {"source_name": "mitre-attack", "external_id": "M1017"}
                ],
            },
            {
                "type": "relationship",
                "id": "relationship--3-1",
                "relationship_type": "mitigates",
                "source_ref": "course-of-action--3",
                "target_ref": "attack-pattern--1",
            },
            {
                "type": "relationship",
                "id": "relationship--3-2",
                "relationship_type": "mitigates",
                "source_ref": "course-of-action--3",
                "target_ref": "attack-pattern--2",
            },
        ],
    }
    ingested = parse_stix_bundle(json.dumps(bundle).encode("utf-8"))
    expected = Catalog(
        techniques=[Technique("T1566", name="Phishing")],
        mitigations=[Mitigation("M1017", name="User Training")],
        mappings=[("M1017", "T1566")],
    )
    assert ingested == expected
    assert dumps_catalog(loads_catalog(dumps_catalog(ingested))) == dumps_catalog(
        ingested
    )
    record(
        9,
        True,
        "catalog and plan JSON re-save byte-stably; the minimal STIX "
        "bundle ingests with sub-technique collapse to the expected catalog",
    )
