"""Mitigation prioritization against weighted ATT&CK techniques.

Builds a decision matrix from a technique/mitigation catalog and a
technique weight vector, scores mitigations with weighted-sum (primary),
weighted-product, or TOPSIS, and validates the resulting plan with a
deterministic campaign-blocking simulator.
"""

from ._version import __version__
from .catalog import (
    Catalog,
    Mitigation,
    Technique,
    catalog_sha256,
    collapse_subtechniques,
    load_catalog,
    parse_mapping_csv,
    parse_mitigation_id,
    parse_stix_bundle,
    parse_technique_id,
    save_catalog,
)
from .errors import (
    CatalogError,
    McdmError,
    MitiplanError,
    ParseError,
    SchemaVersionError,
    SimulationError,
    ValidationError,
)
from .matrix import DecisionMatrix, build_decision_matrix, export_matrix_csv
from .mcdm import (
    PlanEntry,
    RankedPlan,
    ScoreVector,
    rank,
    score_matrix,
    topsis_scores,
    wpm_scores,
    wsm_scores,
)
from .report import PlanDocument, build_plan_document, plan_document_from_json, render_plan
from .scoring import (
    CvssVector,
    RiskInputs,
    WeightVector,
    cvss_exploitability,
    load_weights,
    risk_factor,
    weights_sha256,
)
from .simulator import (
    Campaign,
    ComparisonReport,
    MonteCarloSummary,
    SimulationResult,
    compare_orders,
    random_baseline,
    simulate_campaign,
)

__all__ = [
    "__version__",
    "Campaign",
    "Catalog",
    "CatalogError",
    "ComparisonReport",
    "CvssVector",
    "DecisionMatrix",
    "McdmError",
    "Mitigation",
    "MitiplanError",
    "MonteCarloSummary",
    "ParseError",
    "PlanDocument",
    "PlanEntry",
    "RankedPlan",
    "RiskInputs",
    "SchemaVersionError",
    "ScoreVector",
    "SimulationError",
    "SimulationResult",
    "Technique",
    "ValidationError",
    "WeightVector",
    "build_decision_matrix",
    "build_plan_document",
    "catalog_sha256",
    "collapse_subtechniques",
    "compare_orders",
    "cvss_exploitability",
    "export_matrix_csv",
    "load_catalog",
    "load_weights",
    "parse_mapping_csv",
    "parse_mitigation_id",
    "parse_stix_bundle",
    "parse_technique_id",
    "plan_document_from_json",
    "random_baseline",
    "rank",
    "render_plan",
    "risk_factor",
    "save_catalog",
    "score_matrix",
    "simulate_campaign",
    "topsis_scores",
    "weights_sha256",
    "wpm_scores",
    "wsm_scores",
]
