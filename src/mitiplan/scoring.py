"""Technique importance weights and standalone risk/exploitability scores.

The weight vector drives the decision matrix; the two calculators
(probabilistic risk factor and CVSS v3.1 exploitability) are exposed as
independent scoring utilities and, optionally, as a source of custom
weights (see the README recipe).
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass
from enum import Enum

from .catalog import (
    _check_name,
    _collector_paused,
    _csv_field,
    _is_technique_id,
    _read_rows,
    _set,
    parse_technique_id,
)
from .errors import ParseError, ValidationError


@dataclass(frozen=True, slots=True, init=False)
class WeightEntry:
    """One technique's weight.  The ID and name are checked here, as the
    catalog entities check theirs; the weight is checked by
    :class:`WeightVector` and :func:`load_weights`."""

    technique_id: str
    weight: float
    name: str = ""

    def __init__(self, technique_id: str, weight: float, name: str = ""):
        if not (
            type(technique_id) is str
            and _is_technique_id(technique_id)
            and type(name) is str
            and name.isascii()
        ):
            parse_technique_id(technique_id)
            _check_name(technique_id, name)
        _set(self, "technique_id", technique_id)
        _set(self, "weight", weight)
        _set(self, "name", name)


@dataclass(frozen=True)
class WeightVector:
    """Per-technique importance weights, descending by weight.

    Weights are strictly positive and deliberately not normalized:
    weighted-sum ranking is invariant to positive scaling, so raw scores
    are used as-is.  The constructor takes the entries as any iterable,
    in any order, and stores them as a tuple sorted descending by weight,
    ties by ascending technique ID, with each weight as a float.
    """

    entries: tuple[WeightEntry, ...]

    def __post_init__(self):
        entries = []
        seen = set()
        for entry in self.entries:
            tid, weight = entry.technique_id, entry.weight
            if type(weight) is not float:
                if isinstance(weight, bool) or not isinstance(weight, numbers.Real):
                    raise ValidationError(
                        f"weight for {tid} must be a real number, got {weight!r}"
                    )
                try:
                    weight = float(weight)
                except OverflowError:
                    weight = math.inf
                entry = WeightEntry(tid, weight, entry.name)
            if not 0 < weight < math.inf:
                raise ValidationError(
                    f"weight for {tid} must be finite and positive, got {weight}"
                )
            if tid in seen:
                raise ValidationError(f"duplicate technique {tid}")
            seen.add(tid)
            entries.append(entry)
        entries.sort(key=lambda e: (-e.weight, e.technique_id))
        object.__setattr__(self, "entries", tuple(entries))

    def __len__(self) -> int:
        return len(self.entries)

    def technique_ids(self) -> tuple[str, ...]:
        return tuple(e.technique_id for e in self.entries)

    def weights(self) -> tuple[float, ...]:
        return tuple(e.weight for e in self.entries)


WEIGHTS_CSV_HEADER = "no,score,tid,name"


@_collector_paused
def load_weights(data: bytes | str) -> WeightVector:
    """Parse a weights CSV with header ``no,score,tid,name``.

    The ``no`` column is presentational; the parsed vector is re-sorted
    descending by score.  Non-positive or infinite scores, malformed
    technique IDs, and duplicate techniques raise errors citing the data
    row number, counting blank rows.  A leading byte-order mark is ignored.
    """
    entries = []
    seen = set()
    for rownum, row in _read_rows(data, "weights CSV", WEIGHTS_CSV_HEADER):
        if len(row) != 4:
            raise ParseError(f"weights CSV row {rownum}: expected 4 columns")
        _, score_text, tid, name = row
        tid = tid.strip()
        try:
            score = float(score_text)
        except ValueError as exc:
            raise ParseError(
                f"weights CSV row {rownum}: bad score {score_text!r}"
            ) from exc
        if not 0 < score < math.inf:
            raise ParseError(
                f"weights CSV row {rownum}: score must be finite and positive, "
                f"got {score}"
            )
        try:
            entry = WeightEntry(tid, score, name)
        except ValidationError as exc:
            raise ParseError(f"weights CSV row {rownum}: {exc}") from exc
        if tid in seen:
            raise ParseError(f"weights CSV row {rownum}: duplicate technique {tid}")
        seen.add(tid)
        entries.append(entry)
    return WeightVector(entries)


def render_weights_csv(weights: WeightVector) -> bytes:
    """Inverse of :func:`load_weights`; scores use shortest round-trip repr.

    Only the name can need quoting: the other cells are a count, a float
    and a checked technique ID.
    """
    lines = [WEIGHTS_CSV_HEADER + "\n"]
    for position, entry in enumerate(weights.entries, start=1):
        lines.append(
            f"{position},{entry.weight!r},{entry.technique_id},{_csv_field(entry.name)}\n"
        )
    return "".join(lines).encode("utf-8")


def weights_sha256(weights: WeightVector) -> str:
    return hashlib.sha256(render_weights_csv(weights)).hexdigest()


@dataclass(frozen=True)
class RiskInputs:
    """Inputs of the multiplicative risk factor.

    ``threat`` and ``vulnerability`` are probabilities in [0, 1];
    ``impact`` is a finite nonnegative magnitude in organization-defined units.
    """

    threat: float
    vulnerability: float
    impact: float

    def __post_init__(self):
        for label in ("threat", "vulnerability"):
            value = getattr(self, label)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(
                    f"{label} probability must be in [0, 1], got {value}"
                )
        if not 0 <= self.impact < math.inf:
            raise ValidationError(
                f"impact must be finite and nonnegative, got {self.impact}"
            )


def risk_factor(inputs: RiskInputs) -> float:
    """Threat probability x vulnerability probability x impact."""
    return inputs.threat * inputs.vulnerability * inputs.impact


class AttackVector(Enum):
    NETWORK = "network"
    ADJACENT = "adjacent"
    LOCAL = "local"
    PHYSICAL = "physical"


class AttackComplexity(Enum):
    LOW = "low"
    HIGH = "high"


class PrivilegesRequired(Enum):
    NONE = "none"
    LOW = "low"
    HIGH = "high"


class UserInteraction(Enum):
    NONE = "none"
    REQUIRED = "required"


# CVSS v3.1 exploitability metric levels (FIRST.org definitions).
ATTACK_VECTOR_VALUES = {
    AttackVector.NETWORK: 0.85,
    AttackVector.ADJACENT: 0.62,
    AttackVector.LOCAL: 0.55,
    AttackVector.PHYSICAL: 0.2,
}
ATTACK_COMPLEXITY_VALUES = {
    AttackComplexity.LOW: 0.77,
    AttackComplexity.HIGH: 0.44,
}
PRIVILEGES_REQUIRED_VALUES = {
    # scope unchanged
    False: {
        PrivilegesRequired.NONE: 0.85,
        PrivilegesRequired.LOW: 0.62,
        PrivilegesRequired.HIGH: 0.27,
    },
    # scope changed
    True: {
        PrivilegesRequired.NONE: 0.85,
        PrivilegesRequired.LOW: 0.68,
        PrivilegesRequired.HIGH: 0.5,
    },
}
USER_INTERACTION_VALUES = {
    UserInteraction.NONE: 0.85,
    UserInteraction.REQUIRED: 0.62,
}

_CVSS_ALIASES = {
    AttackVector: {"n": "network", "a": "adjacent", "l": "local", "p": "physical"},
    AttackComplexity: {"l": "low", "h": "high"},
    PrivilegesRequired: {"n": "none", "l": "low", "h": "high"},
    UserInteraction: {"n": "none", "r": "required"},
}


def parse_cvss_level(enum_cls, text: str):
    """Parse a CVSS level from its full name or single-letter form."""
    lowered = text.strip().lower()
    lowered = _CVSS_ALIASES[enum_cls].get(lowered, lowered)
    try:
        return enum_cls(lowered)
    except ValueError as exc:
        valid = ", ".join(level.value for level in enum_cls)
        raise ValidationError(
            f"invalid {enum_cls.__name__} value {text!r} (expected one of: {valid})"
        ) from exc


@dataclass(frozen=True)
class CvssVector:
    attack_vector: AttackVector
    attack_complexity: AttackComplexity
    privileges_required: PrivilegesRequired
    user_interaction: UserInteraction
    scope_changed: bool = False

    def __post_init__(self):
        if not isinstance(self.attack_vector, AttackVector):
            raise ValidationError("attack_vector must be an AttackVector")
        if not isinstance(self.attack_complexity, AttackComplexity):
            raise ValidationError("attack_complexity must be an AttackComplexity")
        if not isinstance(self.privileges_required, PrivilegesRequired):
            raise ValidationError("privileges_required must be a PrivilegesRequired")
        if not isinstance(self.user_interaction, UserInteraction):
            raise ValidationError("user_interaction must be a UserInteraction")


def cvss_exploitability(vector: CvssVector) -> float:
    """CVSS v3.1 exploitability sub-score.

    8.22 x AttackVector x AttackComplexity x PrivilegesRequired x
    UserInteraction, with the privileges value drawn from the
    changed-scope column when ``scope_changed`` is set.
    """
    return (
        8.22
        * ATTACK_VECTOR_VALUES[vector.attack_vector]
        * ATTACK_COMPLEXITY_VALUES[vector.attack_complexity]
        * PRIVILEGES_REQUIRED_VALUES[vector.scope_changed][vector.privileges_required]
        * USER_INTERACTION_VALUES[vector.user_interaction]
    )
