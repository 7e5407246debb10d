"""Frozen upstream published values for the paper_v13 dataset.

The upstream publication prints a final weighted decision matrix (cells
rounded to 6 decimals) and a total per mitigation.  Tests compare
computed output against these numbers, so they are transcribed here
verbatim, including the published matrix's two known quirks:

* the T1053 column prints cells equal to weight/5 although only four
  mitigations are listed for T1053 (weight/4 = 0.737886 is what the
  stated cell rule yields);
* the M1024 row prints 0 for T1574 although the mapping list includes
  (M1024, T1574) and the column's other cells use denominator 10.

Nothing in the library reads this module; it is test reference data.
"""

from __future__ import annotations

import numpy as np

from mitiplan.matrix import DecisionMatrix
from mitiplan.mcdm import ScoreVector

PUBLISHED_TECHNIQUES = (
    "T1053",
    "T1059",
    "T1562",
    "T1055",
    "T1036",
    "T1218",
    "T1574",
    "T1047",
    "T1543",
    "T1112",
)

# Header row of the published matrix (weights rounded to 6 decimals).
PUBLISHED_WEIGHTS = (
    2.951543,
    2.914286,
    2.519448,
    2.330395,
    2.26019,
    2.253381,
    2.187776,
    2.183333,
    2.116467,
    1.922505,
)

# Published rows in their printed order; cells follow PUBLISHED_TECHNIQUES.
PUBLISHED_ROWS = (
    ("M1026", (0.590309, 0.416327, 0, 1.165198, 0, 0.563345, 0, 0.545833, 0, 0)),
    ("M1038", (0, 0.416327, 0.629862, 0, 0.753397, 0.563345, 0.218778, 0.545833, 0, 0)),
    ("M1024", (0, 0, 0.629862, 0, 0, 0, 0, 0, 0, 1.922505)),
    ("M1040", (0, 0.416327, 0, 1.165198, 0, 0, 0.218778, 0.545833, 0.302352, 0)),
    ("M1018", (0.590309, 0, 0.629862, 0, 0, 0, 0.218778, 0.545833, 0.302352, 0)),
    ("M1022", (0, 0, 0.629862, 0, 0.753397, 0, 0.218778, 0, 0.302352, 0)),
    ("M1045", (0, 0.416327, 0, 0, 0.753397, 0, 0, 0, 0.302352, 0)),
    ("M1047", (0.590309, 0, 0, 0, 0, 0, 0.218778, 0, 0.302352, 0)),
    ("M1042", (0, 0.416327, 0, 0, 0, 0.563345, 0, 0, 0, 0)),
    ("M1028", (0.590309, 0, 0, 0, 0, 0, 0, 0, 0.302352, 0)),
    ("M1050", (0, 0, 0, 0, 0, 0.563345, 0, 0, 0, 0)),
    ("M1049", (0, 0.416327, 0, 0, 0, 0, 0, 0, 0, 0)),
    ("M1021", (0, 0.416327, 0, 0, 0, 0, 0, 0, 0, 0)),
    ("M1033", (0, 0, 0, 0, 0, 0, 0, 0, 0.302352, 0)),
    ("M1013", (0, 0, 0, 0, 0, 0, 0.218778, 0, 0, 0)),
    ("M1044", (0, 0, 0, 0, 0, 0, 0.218778, 0, 0, 0)),
    ("M1051", (0, 0, 0, 0, 0, 0, 0.218778, 0, 0, 0)),
    ("M1052", (0, 0, 0, 0, 0, 0, 0.218778, 0, 0, 0)),
)

PUBLISHED_ROW_ORDER = tuple(mid for mid, _ in PUBLISHED_ROWS)

PUBLISHED_TOTALS = {
    "M1026": 3.281011,
    "M1038": 3.127541,
    "M1024": 2.552367,
    "M1040": 2.648487,
    "M1018": 2.287134,
    "M1022": 1.904389,
    "M1045": 1.472076,
    "M1047": 1.111439,
    "M1042": 0.979672,
    "M1028": 0.892661,
    "M1050": 0.563345,
    "M1049": 0.416327,
    "M1021": 0.416327,
    "M1033": 0.302352,
    "M1013": 0.218778,
    "M1044": 0.218778,
    "M1051": 0.218778,
    "M1052": 0.218778,
}

# Nonzero cell value per column as published.
PUBLISHED_CELL_CONSTANTS = {
    "T1053": 0.590309,
    "T1059": 0.416327,
    "T1562": 0.629862,
    "T1055": 1.165198,
    "T1036": 0.753397,
    "T1218": 0.563345,
    "T1574": 0.218778,
    "T1047": 0.545833,
    "T1543": 0.302352,
    "T1112": 1.922505,
}

# Columns whose published cells agree with the weight/count rule; T1053
# is excluded (published 0.590309 vs computed 0.737886).
CONSISTENT_COLUMNS = tuple(t for t in PUBLISHED_TECHNIQUES if t != "T1053")

# The published mapping list counted per technique.
PUBLISHED_COUNTS = {
    "T1053": 4,
    "T1059": 7,
    "T1562": 4,
    "T1055": 2,
    "T1036": 3,
    "T1218": 4,
    "T1574": 10,
    "T1047": 4,
    "T1543": 7,
    "T1112": 1,
}

# Divergences between the published matrix and what its own stated rule
# produces, keyed (mitigation, technique) -> (published, computed).
KNOWN_CELL_ANOMALIES = {
    ("M1024", "T1574"): (0.0, 0.218778),
}


def published_cell(mitigation_id: str, technique_id: str) -> float:
    cells = dict(PUBLISHED_ROWS)[mitigation_id]
    return cells[PUBLISHED_TECHNIQUES.index(technique_id)]


def published_matrix() -> DecisionMatrix:
    """The published weighted matrix recast as a DecisionMatrix.

    Coverage shares are recovered as cell/weight so that weighting the
    matrix reproduces the published cells; rows sorted by ID.
    """
    mids = tuple(sorted(PUBLISHED_ROW_ORDER))
    rows = dict(PUBLISHED_ROWS)
    weights = np.array(PUBLISHED_WEIGHTS)
    coverage = np.array([rows[mid] for mid in mids]) / weights
    return DecisionMatrix(
        mitigation_ids=mids,
        technique_ids=PUBLISHED_TECHNIQUES,
        coverage=coverage,
        weights=weights,
    )


def published_total_scores(matrix: DecisionMatrix) -> ScoreVector:
    """Score vector fed directly from the published totals column."""
    return ScoreVector(
        method="wsm",
        mitigation_ids=matrix.mitigation_ids,
        scores=tuple(PUBLISHED_TOTALS[mid] for mid in matrix.mitigation_ids),
    )
