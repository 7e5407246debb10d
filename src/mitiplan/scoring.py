"""Technique importance weights and standalone risk/exploitability scores.

The weight vector drives the decision matrix; the two calculators
(probabilistic risk factor and CVSS v3.1 exploitability) are exposed as
independent scoring utilities and, optionally, as a source of custom
weights (see the README recipe).
"""

from __future__ import annotations

import functools
import hashlib
import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

from .catalog import (
    _check_name,
    _collector_paused,
    _csv_field,
    _plain_columns,
    _read_rows,
    _sequence,
    _set,
    parse_technique_id,
)
from .errors import ParseError, ValidationError


def _real(value, label: str) -> float:
    """A real number, bool excluded, as a float: an infinity of its sign
    past float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{label} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True, slots=True)
class WeightEntry:
    """One technique's weight.  The ID and name are checked here, as the
    catalog entities check theirs; the weight is checked by
    :class:`WeightVector` and :func:`load_weights`."""

    technique_id: str
    weight: float
    name: str = ""

    def __post_init__(self):
        parse_technique_id(self.technique_id)
        _check_name(self.technique_id, self.name)


@dataclass(frozen=True, init=False)
class WeightVector:
    """Per-technique importance weights, descending by weight.

    Weights are strictly positive and deliberately not normalized:
    weighted-sum ranking is invariant to positive scaling, so raw scores
    are used as-is.  The vector holds three columns, ``tids``, ``values``
    (floats) and ``names``, sorted descending by weight, ties by
    ascending technique ID.  The constructor takes :class:`WeightEntry`
    records as any iterable, in any order; ``entries`` builds them back,
    in the vector's order, on first read.
    """

    tids: tuple[str, ...]
    values: tuple[float, ...]
    names: tuple[str, ...]

    def __init__(self, entries):
        tids, weights, names, seen = [], [], [], set()
        for entry in _sequence(entries, "weight entries must be a sequence of WeightEntry"):
            tid = entry.technique_id
            weight = _real(entry.weight, f"weight for {tid}")
            if not 0 < weight < math.inf:
                raise ValidationError(
                    f"weight for {tid} must be finite and positive, got {weight}"
                )
            if tid in seen:
                raise ValidationError(f"duplicate technique {tid}")
            seen.add(tid)
            tids.append(tid)
            weights.append(weight)
            names.append(entry.name)
        self._fill(tids, weights, names)

    @classmethod
    def _from_columns(cls, tids, weights, names) -> WeightVector:
        vector = cls.__new__(cls)
        vector._fill(tids, weights, names)
        return vector

    def _fill(self, tids, weights, names):
        """Set the checked columns, sorted descending by weight, ties by ID.

        Columns already in that order, as a rendered CSV holds them, are
        checked in one pass of adjacent keys and not sorted.
        """
        keys = list(zip(map(operator.neg, weights), tids))
        columns = (tids, weights, names)
        if not all(map(operator.lt, keys, keys[1:])):
            pick = operator.itemgetter(*sorted(range(len(keys)), key=keys.__getitem__))
            columns = map(pick, columns)
        for name, column in zip(("tids", "values", "names"), columns):
            _set(self, name, tuple(column))

    @functools.cached_property
    def entries(self) -> tuple[WeightEntry, ...]:
        return tuple(map(WeightEntry, self.tids, self.values, self.names))

    def __len__(self) -> int:
        return len(self.tids)


WEIGHTS_CSV_HEADER = "no,score,tid,name"


def _unquoted_cells(data) -> list[str] | None:
    """The body cells of a weights CSV, row after row, when a split at
    newlines and commas reads it exactly as the CSV reader would: text
    with the header line, no quote, CR or NUL, no line past the reader's
    field limit, and 3 commas on every body line.  None for any other
    data, which :func:`_read_rows` then reads.  (Python 3.10's CSV
    reader rejects NUL, so that is its to report.)"""
    import csv

    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    if not isinstance(data, str) or '"' in data or "\r" in data or "\0" in data:
        return None
    lines = data.removeprefix("\ufeff").split("\n")
    if lines[-1] == "":
        lines.pop()
    body = lines[1:]
    if (
        lines[:1] != [WEIGHTS_CSV_HEADER]
        or max(map(len, lines)) > csv.field_size_limit()
        or list(map(str.count, body, repeat(","))) != [3] * len(body)
    ):
        return None
    return ",".join(body).split(",")


def _plain_vector(cells: list[str]) -> WeightVector | None:
    """The vector of 4-cell rows given row after row, when one test over
    the whole columns accepts them; None when a row may be bad."""
    try:
        scores = list(map(float, cells[1::4]))
    except ValueError:
        return None
    # A sum that is finite has no NaN or infinite term, so the minimum
    # then tells the sign.
    tids = list(map(str.strip, cells[2::4]))
    names = cells[3::4]
    if (
        _plain_columns(tids, names)
        and (not scores or (math.isfinite(sum(scores)) and min(scores) > 0))
        and len(set(tids)) == len(tids)
    ):
        return WeightVector._from_columns(tids, scores, names)
    return None


@_collector_paused
def load_weights(data: bytes | str) -> WeightVector:
    """Parse a weights CSV with header ``no,score,tid,name``.

    The ``no`` column is presentational; the parsed vector is re-sorted
    descending by score.  Non-positive or infinite scores, malformed
    technique IDs, and duplicate techniques raise errors citing the data
    row number, counting blank rows.  A leading byte-order mark is ignored.
    """
    cells = _unquoted_cells(data)
    if cells is not None and (vector := _plain_vector(cells)) is not None:
        return vector
    # Otherwise each row is checked in turn, and the first bad one raises.
    tids, scores, names, seen = [], [], [], set()
    for number, row in _read_rows(data, "weights CSV", WEIGHTS_CSV_HEADER):
        where = f"weights CSV row {number}"
        if len(row) != 4:
            raise ParseError(f"{where}: expected 4 columns")
        _, score, tid, name = row
        try:
            score = float(score)
        except ValueError:
            raise ParseError(f"{where}: bad score {score!r}") from None
        if not 0 < score < math.inf:
            raise ParseError(f"{where}: score must be finite and positive, got {score}")
        tid = tid.strip()
        try:
            WeightEntry(tid, score, name)
        except ValidationError as exc:
            raise ParseError(f"{where}: {exc}") from exc
        if tid in seen:
            raise ParseError(f"{where}: duplicate technique {tid}")
        seen.add(tid)
        tids.append(tid)
        scores.append(score)
        names.append(name)
    return WeightVector._from_columns(tids, scores, names)


def render_weights_csv(weights: WeightVector) -> bytes:
    """Inverse of :func:`load_weights`; scores use shortest round-trip repr.

    Only the name can need quoting: the other cells are a count, a float
    and a checked technique ID.
    """
    lines = [WEIGHTS_CSV_HEADER + "\n"]
    for position, (tid, weight, name) in enumerate(
        zip(weights.tids, weights.values, weights.names), start=1
    ):
        lines.append(f"{position},{weight!r},{tid},{_csv_field(name)}\n")
    return "".join(lines).encode("utf-8")


def weights_sha256(weights: WeightVector) -> str:
    return hashlib.sha256(render_weights_csv(weights)).hexdigest()


@dataclass(frozen=True)
class RiskInputs:
    """Inputs of the multiplicative risk factor.

    ``threat`` and ``vulnerability`` are probabilities in [0, 1];
    ``impact`` is a finite nonnegative magnitude in organization-defined units.
    Each is a real number, not a bool, and is stored as a float.
    """

    threat: float
    vulnerability: float
    impact: float

    def __post_init__(self):
        for label in ("threat", "vulnerability", "impact"):
            _set(self, label, _real(getattr(self, label), label))
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
    """Threat probability x vulnerability probability x impact.

    The inputs are nonnegative, so ``abs`` only turns the product of a
    -0.0 input into 0.0.
    """
    return abs(inputs.threat * inputs.vulnerability * inputs.impact)


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
        if not isinstance(self.scope_changed, bool):
            raise ValidationError(
                f"scope_changed must be a bool, got {self.scope_changed!r}"
            )


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
