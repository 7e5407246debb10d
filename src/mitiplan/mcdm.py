"""Scoring and ranking of mitigation alternatives.

Three methods over the same decision matrix: weighted sum (the primary
ranking rule), weighted product, and TOPSIS closeness to the ideal
alternative.  All are deterministic: summations run in fixed column
order and ties break on mitigation ID after rounding scores to 9
decimals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import _is_integer
from .errors import McdmError, ValidationError
from .matrix import NO_PROVENANCE, DecisionMatrix, Provenance
from .scoring import _real

METHODS = ("wsm", "wpm", "topsis")

TIE_DECIMALS = 9


@dataclass(frozen=True)
class ScoreVector:
    """Per-mitigation scores from one method, in matrix row order."""

    method: str
    mitigation_ids: tuple[str, ...]
    scores: tuple[float, ...]

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        if len(self.mitigation_ids) != len(self.scores):
            raise ValidationError("one score required per mitigation")
        for score in self.scores:
            if not np.isfinite(score) or score < 0:
                raise ValidationError(f"scores must be finite and >= 0, got {score}")
            if self.method == "topsis" and score > 1.0 + 1e-12:
                raise ValidationError(f"closeness must be in [0, 1], got {score}")

    def entries(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self.mitigation_ids, self.scores))


@dataclass(frozen=True)
class PlanEntry:
    rank: int
    mitigation_id: str
    score: float
    covered_techniques: tuple[str, ...]
    name: str = ""  # the catalog's mitigation name; "" when it has none


@dataclass(frozen=True)
class RankedPlan:
    """Mitigations ordered best-first, with the matrix's provenance.

    ``catalog_hash`` / ``weights_hash`` read the provenance, which
    computes each hash on first read.
    """

    method: str
    entries: tuple[PlanEntry, ...]
    provenance: Provenance = NO_PROVENANCE

    def __post_init__(self):
        ranks = [entry.rank for entry in self.entries]
        if ranks != list(range(1, len(self.entries) + 1)):
            raise ValidationError("ranks must be 1..m with no gaps")
        for earlier, later in zip(self.entries, self.entries[1:]):
            # Ordering rounds to TIE_DECIMALS first, so raw scores may
            # wobble below that resolution.
            if round(later.score, TIE_DECIMALS) > round(earlier.score, TIE_DECIMALS):
                raise ValidationError("scores must be nonincreasing along the plan")

    @property
    def catalog_hash(self) -> str:
        return self.provenance.catalog_hash

    @property
    def weights_hash(self) -> str:
        return self.provenance.weights_hash

    def mitigation_order(self) -> tuple[str, ...]:
        return tuple(entry.mitigation_id for entry in self.entries)

    def top(self, k: int) -> "RankedPlan":
        """Plan truncated to its first ``k`` entries."""
        if not _is_integer(k):
            raise ValidationError(f"top k must be an integer, got {k!r}")
        if k < 0:
            raise ValidationError("top k must be nonnegative")
        return RankedPlan(
            method=self.method,
            entries=self.entries[:k],
            provenance=self.provenance,
        )


def wsm_scores(matrix: DecisionMatrix) -> ScoreVector:
    """Weighted-sum score: the row sum of weighted cells."""
    scores = matrix.weighted().sum(axis=1)
    return ScoreVector(
        method="wsm",
        mitigation_ids=matrix.mitigation_ids,
        scores=tuple(float(s) for s in scores),
    )


def wpm_scores(
    matrix: DecisionMatrix,
    zero_policy: str = "error",
    epsilon: float = 1e-6,
) -> ScoreVector:
    """Weighted-product score: product of coverage cells raised to the
    normalized weights.

    A zero cell annihilates the product, so sparse matrices require an
    explicit policy: ``"error"`` rejects the first zero cell by name,
    ``"epsilon"`` substitutes ``epsilon`` for zeros.  The substitute must
    lie below the smallest nonzero cell, or an uncovered technique would
    count for more than a covered one.
    """
    if zero_policy not in ("error", "epsilon"):
        raise ValidationError(
            f"zero_policy must be 'error' or 'epsilon', got {zero_policy!r}"
        )
    _real(epsilon, "epsilon")
    if not epsilon > 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    cells = np.array(matrix.coverage)
    if zero_policy == "error":
        rows, cols = np.nonzero(cells == 0)
        if rows.size:
            mid = matrix.mitigation_ids[rows[0]]
            tid = matrix.technique_ids[cols[0]]
            raise McdmError(
                f"zero cell at ({mid}, {tid}); use the epsilon zero policy "
                "for sparse matrices"
            )
    else:
        zeros = cells == 0
        smallest = float(cells[~zeros].min(initial=np.inf))
        if not epsilon < smallest:
            raise ValidationError(
                f"epsilon must be below the smallest nonzero coverage cell "
                f"{smallest!r}, got {epsilon!r}"
            )
        cells[zeros] = epsilon
    exponents = matrix.weights / matrix.weights.sum() if len(matrix.weights) else []
    scores = np.prod(cells**exponents, axis=1)
    return ScoreVector(
        method="wpm",
        mitigation_ids=matrix.mitigation_ids,
        scores=tuple(float(s) for s in scores),
    )


def topsis_scores(matrix: DecisionMatrix) -> ScoreVector:
    """Closeness to the ideal alternative.

    Standard benefit-criteria formulation on the coverage matrix: each
    column is divided by its Euclidean norm, scaled by the normalized
    weight, and compared against the per-column max (ideal) and min
    (anti-ideal) via Euclidean distance.  Closeness is d-/(d+ + d-), or
    0.5 for an alternative coinciding with both ideals.  Requires no
    all-zero column (guaranteed by the matrix builder).
    """
    coverage = matrix.coverage
    if coverage.size == 0:
        return ScoreVector(
            method="topsis", mitigation_ids=matrix.mitigation_ids, scores=()
        )
    norms = np.sqrt((coverage**2).sum(axis=0))
    if np.any(norms == 0):
        j = int(np.nonzero(norms == 0)[0][0])
        raise McdmError(
            f"column {matrix.technique_ids[j]} is all zeros; "
            "TOPSIS normalization is undefined"
        )
    weighted = (coverage / norms) * (matrix.weights / matrix.weights.sum())
    ideal = weighted.max(axis=0)
    anti_ideal = weighted.min(axis=0)
    d_plus = np.sqrt(((weighted - ideal) ** 2).sum(axis=1))
    d_minus = np.sqrt(((weighted - anti_ideal) ** 2).sum(axis=1))
    total = d_plus + d_minus
    closeness = np.where(total == 0, 0.5, d_minus / np.where(total == 0, 1.0, total))
    return ScoreVector(
        method="topsis",
        mitigation_ids=matrix.mitigation_ids,
        scores=tuple(float(c) for c in closeness),
    )


def score_matrix(matrix: DecisionMatrix, method: str, **kwargs) -> ScoreVector:
    """Dispatch to one of the scoring methods by name; only wpm takes
    options, its `zero_policy` and `epsilon`."""
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r} (expected one of {METHODS})")
    unknown = sorted(set(kwargs) - ({"zero_policy", "epsilon"} if method == "wpm" else set()))
    if unknown:
        raise ValidationError(f"{method} takes no option {unknown[0]!r}")
    scorer = {"wsm": wsm_scores, "wpm": wpm_scores, "topsis": topsis_scores}[method]
    return scorer(matrix, **kwargs)


def _ranked_rows(scores: ScoreVector) -> list[int]:
    """Row positions in plan order: descending score rounded to
    ``TIE_DECIMALS``, then ascending mitigation ID.  ``simulate`` walks
    this order without building the plan's entries."""
    return sorted(
        range(len(scores.scores)),
        key=lambda i: (-round(scores.scores[i], TIE_DECIMALS), scores.mitigation_ids[i]),
    )


def rank(scores: ScoreVector, matrix: DecisionMatrix) -> RankedPlan:
    """Order mitigations by descending score into a ranked plan.

    The score vector must come from the same matrix (row sets are
    checked).  Scores equal after rounding to 9 decimals order by
    ascending mitigation ID.  Each entry records the techniques its
    mitigation covers (nonzero cells in the row) and the mitigation's
    name in the matrix's catalog: ``""`` for a matrix without one, or an
    ID the catalog lacks.
    """
    if scores.mitigation_ids != matrix.mitigation_ids:
        raise McdmError("score vector and matrix rows do not match")
    order = _ranked_rows(scores)
    technique_ids = matrix.technique_ids
    catalog = matrix.provenance.catalog
    names = {} if catalog is None else dict(zip(catalog.mids, catalog.mnames))
    entries = []
    for position, i in enumerate(order, start=1):
        mid = scores.mitigation_ids[i]
        columns = np.flatnonzero(matrix.coverage[i] > 0).tolist()
        entries.append(
            PlanEntry(
                rank=position,
                mitigation_id=mid,
                score=scores.scores[i],
                covered_techniques=tuple(sorted(technique_ids[j] for j in columns)),
                name=names.get(mid, ""),
            )
        )
    return RankedPlan(
        method=scores.method,
        entries=tuple(entries),
        provenance=matrix.provenance,
    )
