"""Decision matrix construction.

Rows are mitigations (alternatives), columns are weighted techniques
(criteria).  Every mapped cell in a column carries the same coverage
share 1/c_j, where c_j is the number of mitigations mapped to that
technique, so a technique's weight is split evenly across its controls
and each column of weighted cells sums back to the technique's weight.
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass, field

import numpy as np

from .catalog import Catalog, catalog_sha256
from .errors import CatalogError, ValidationError
from .scoring import WeightVector, weights_sha256

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class DecisionMatrix:
    """Coverage matrix plus per-technique weights.

    ``coverage[i, j]`` is mitigation i's share of technique j (0 when
    unmapped).  ``weighted()`` applies the weights; its column sums equal
    the weights.  Rows are sorted by mitigation ID; columns follow the
    weight vector's order.
    """

    mitigation_ids: tuple[str, ...]
    technique_ids: tuple[str, ...]
    coverage: np.ndarray
    weights: np.ndarray
    dropped_techniques: tuple[str, ...] = ()
    catalog_hash: str = ""
    weights_hash: str = ""

    def __post_init__(self):
        coverage = np.array(self.coverage, dtype=float)
        weights = np.array(self.weights, dtype=float)
        m, n = len(self.mitigation_ids), len(self.technique_ids)
        if coverage.shape != (m, n):
            raise ValidationError(
                f"coverage shape {coverage.shape} does not match {m}x{n}"
            )
        if weights.shape != (n,):
            raise ValidationError("weights must have one entry per column")
        if not np.all(np.isfinite(coverage)) or np.any(coverage < 0):
            raise ValidationError("coverage cells must be finite and nonnegative")
        if not np.all(weights > 0):
            raise ValidationError("weights must be strictly positive")
        for array in (coverage, weights):
            array.flags.writeable = False
        object.__setattr__(self, "coverage", coverage)
        object.__setattr__(self, "weights", weights)

    @property
    def shape(self) -> tuple[int, int]:
        return self.coverage.shape

    @property
    def counts(self) -> np.ndarray:
        """Mitigations mapped to each column: its nonzero coverage cells."""
        return (self.coverage > 0).sum(axis=0)

    def weighted(self) -> np.ndarray:
        """Weighted cells: coverage scaled by each column's weight."""
        return self.coverage * self.weights

    def row_index(self, mitigation_id: str) -> int:
        try:
            return self.mitigation_ids.index(mitigation_id)
        except ValueError:
            raise KeyError(mitigation_id) from None

    def column_index(self, technique_id: str) -> int:
        try:
            return self.technique_ids.index(technique_id)
        except ValueError:
            raise KeyError(technique_id) from None

    def cell(self, mitigation_id: str, technique_id: str) -> float:
        """Weighted cell value for a (mitigation, technique) pair."""
        i = self.row_index(mitigation_id)
        j = self.column_index(technique_id)
        return float(self.coverage[i, j] * self.weights[j])


def mapping_counts(catalog: Catalog, weights: WeightVector) -> np.ndarray:
    """Mitigations mapped to each weighted technique, in weight order.

    Every weighted technique must exist in the catalog; a missing one
    raises :class:`CatalogError` naming the technique.
    """
    counts = []
    for tid in weights.technique_ids():
        if not catalog.has_technique(tid):
            raise CatalogError(f"weighted technique {tid} not present in catalog")
        counts.append(catalog.mapping_count(tid))
    return np.asarray(counts, dtype=int)


def build_decision_matrix(
    catalog: Catalog,
    weights: WeightVector,
    on_empty: str = "drop",
    effectiveness: dict[tuple[str, str], float] | None = None,
) -> DecisionMatrix:
    """Construct the decision matrix for a catalog and weight vector.

    Techniques with no mapped mitigation carry no ranking signal:
    ``on_empty="drop"`` (default) removes them with a warning and records
    them in ``dropped_techniques``; ``on_empty="error"`` aborts listing
    them.  ``effectiveness`` optionally overrides the uniform per-cell
    share with per-pair values in (0, 1], renormalized within each column
    so column sums are preserved.
    """
    if on_empty not in ("drop", "error"):
        raise ValidationError(f"on_empty must be 'drop' or 'error', got {on_empty!r}")
    counts_all = mapping_counts(catalog, weights)
    weighted_ids = weights.technique_ids()

    empty = [tid for tid, count in zip(weighted_ids, counts_all) if count == 0]
    if empty:
        if on_empty == "error":
            raise CatalogError(
                "techniques with no mapped mitigation: " + ", ".join(empty)
            )
        logger.warning(
            "dropping %d technique(s) with no mapped mitigation: %s",
            len(empty),
            ", ".join(empty),
        )

    kept = [
        (tid, weight)
        for tid, weight, count in zip(weighted_ids, weights.weights(), counts_all)
        if count > 0
    ]
    technique_ids = tuple(tid for tid, _ in kept)
    weight_values = np.asarray([w for _, w in kept], dtype=float)

    if effectiveness:
        for (mid, tid), value in effectiveness.items():
            if mid not in catalog.mitigations_for(tid):
                raise ValidationError(
                    f"effectiveness override for unmapped pair ({mid}, {tid})"
                )
            if not 0.0 < value <= 1.0:
                raise ValidationError(
                    f"effectiveness for ({mid}, {tid}) must be in (0, 1], got {value}"
                )

    columns = [catalog.mitigations_for(tid) for tid in technique_ids]
    mitigation_ids = tuple(sorted({mid for column in columns for mid in column}))
    row_of = {mid: i for i, mid in enumerate(mitigation_ids)}

    shares = np.zeros((len(mitigation_ids), len(technique_ids)))
    for j, (tid, column) in enumerate(zip(technique_ids, columns)):
        for mid in column:
            value = 1.0
            if effectiveness:
                value = effectiveness.get((mid, tid), 1.0)
            shares[row_of[mid], j] = value
    column_totals = shares.sum(axis=0)
    coverage = shares / column_totals

    return DecisionMatrix(
        mitigation_ids=mitigation_ids,
        technique_ids=technique_ids,
        coverage=coverage,
        weights=weight_values,
        dropped_techniques=tuple(empty),
        catalog_hash=catalog_sha256(catalog),
        weights_hash=weights_sha256(weights),
    )


def export_matrix_csv(matrix: DecisionMatrix) -> bytes:
    """Render the weighted matrix as CSV.

    Layout: a header row of weights, a header row of technique IDs with a
    trailing ``total`` column, then one row per mitigation with weighted
    cells at 6 decimal places and the row's weighted sum.
    """
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["weight"] + [f"{w:.6f}" for w in matrix.weights] + [""])
    writer.writerow(["mitigation_id"] + list(matrix.technique_ids) + ["total"])
    weighted = matrix.weighted()
    totals = weighted.sum(axis=1)
    for i, mid in enumerate(matrix.mitigation_ids):
        cells = [f"{value:.6f}" for value in weighted[i]]
        writer.writerow([mid] + cells + [f"{totals[i]:.6f}"])
    return buffer.getvalue().encode("utf-8")
