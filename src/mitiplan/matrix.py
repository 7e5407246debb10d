"""Decision matrix construction.

Rows are mitigations (alternatives), columns are weighted techniques
(criteria).  Every mapped cell in a column carries the same coverage
share 1/c_j, where c_j is the number of mitigations mapped to that
technique, so a technique's weight is split evenly across its controls
and each column of weighted cells sums back to the technique's weight.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

import numpy as np

from .catalog import Catalog, catalog_sha256
from .errors import CatalogError, ValidationError
from .scoring import WeightVector, weights_sha256

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Provenance:
    """The catalog and weights a matrix was built from, and their hashes.

    Each SHA-256 is computed on first read and then kept, so an op that
    prints no provenance never serializes its inputs to hash them.  A
    holder without inputs reads ``""`` for both.  Holders compare by the
    inputs themselves: both are canonical, so equal inputs are exactly
    those with equal hashes, and plans keep provenance in their equality.
    """

    catalog: Catalog | None = field(default=None, repr=False)
    weights: WeightVector | None = field(default=None, repr=False)

    @cached_property
    def catalog_hash(self) -> str:
        return "" if self.catalog is None else catalog_sha256(self.catalog)

    @cached_property
    def weights_hash(self) -> str:
        return "" if self.weights is None else weights_sha256(self.weights)


NO_PROVENANCE = Provenance()


@dataclass(frozen=True, eq=False)
class DecisionMatrix:
    """Coverage matrix plus per-technique weights.

    ``coverage[i, j]`` is mitigation i's share of technique j (0 when
    unmapped).  ``weighted()`` applies the weights; its column sums equal
    the weights.  Rows are sorted by mitigation ID; columns follow the
    weight vector's order.  ``provenance`` holds the inputs the matrix
    was built from, and ``catalog_hash`` / ``weights_hash`` read it.
    """

    mitigation_ids: tuple[str, ...]
    technique_ids: tuple[str, ...]
    coverage: np.ndarray
    weights: np.ndarray
    dropped_techniques: tuple[str, ...] = ()
    provenance: Provenance = NO_PROVENANCE

    def __post_init__(self):
        # C order: row sums, and so the scores, can differ in their last
        # bits between memory layouts of the same cells.
        coverage = np.array(self.coverage, dtype=float, order="C")
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
    def catalog_hash(self) -> str:
        return self.provenance.catalog_hash

    @property
    def weights_hash(self) -> str:
        return self.provenance.weights_hash

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


def build_decision_matrix(catalog: Catalog, weights: WeightVector) -> DecisionMatrix:
    """Construct the decision matrix for a catalog and weight vector.

    Every weighted technique must exist in the catalog; a missing one
    raises :class:`CatalogError` naming the technique.  Techniques with
    no mapped mitigation carry no ranking signal: they are dropped with
    a warning and recorded in ``dropped_techniques``.
    """
    try:
        columns = np.fromiter(
            map(catalog.technique_index.__getitem__, weights.tids), np.intp, len(weights)
        )
    except KeyError as exc:
        raise CatalogError(
            f"weighted technique {exc.args[0]} not present in catalog"
        ) from None
    covers = catalog.covers(columns)
    counts = covers.sum(axis=0)
    mapped = counts > 0
    dropped = tuple(compress(weights.tids, ~mapped))
    if dropped:
        logger.warning(
            "dropping %d technique(s) with no mapped mitigation: %s",
            len(dropped),
            ", ".join(dropped),
        )

    # Unmapped columns hold no covers, so this keeps every row that
    # covers a mapped technique.
    present = covers.any(axis=1)
    return DecisionMatrix(
        mitigation_ids=tuple(compress(catalog.mids, present.tolist())),
        technique_ids=tuple(compress(weights.tids, mapped)),
        coverage=covers[:, mapped][present] / counts[mapped],
        weights=np.asarray(weights.values, dtype=float)[mapped],
        dropped_techniques=dropped,
        provenance=Provenance(catalog, weights),
    )


def export_matrix_csv(matrix: DecisionMatrix) -> bytes:
    """Render the weighted matrix as CSV.

    Layout: a header row of weights, a header row of technique IDs with a
    trailing ``total`` column, then one row per mitigation with weighted
    cells at 6 decimal places and the row's weighted sum.  Every cell is
    a checked ID, a fixed word or a formatted number, so none is quoted.
    """
    lines = [
        ",".join(["weight", *(f"{w:.6f}" for w in matrix.weights), ""]),
        ",".join(["mitigation_id", *matrix.technique_ids, "total"]),
    ]
    weighted = matrix.weighted()
    totals = weighted.sum(axis=1)
    for mid, row, total in zip(matrix.mitigation_ids, weighted, totals):
        cells = [f"{value:.6f}" for value in row]
        lines.append(",".join([mid, *cells, f"{total:.6f}"]))
    return ("\n".join(lines) + "\n").encode("utf-8")
