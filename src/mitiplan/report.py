"""Rendering of ranked plans to JSON, CSV, and Markdown.

All formats carry the same (rank, mitigation, score) content; JSON keeps
full float precision plus provenance metadata, the text formats print
scores to 6 decimals.  Rendering is deterministic once a timestamp is
pinned.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass

from ._version import __version__
from .catalog import (
    _JSON_ERRORS,
    _check_name,
    _csv_field,
    _is_integer,
    parse_mitigation_id,
    parse_technique_id,
)
from .errors import ValidationError
from .mcdm import PlanEntry, RankedPlan

PLAN_FORMATS = ("json", "csv", "markdown")

PLAN_CSV_HEADER = "rank,mitigation_id,name,score,covered_techniques"

SCORE_DECIMALS = 6


def _check_timestamp(timestamp: int) -> int:
    """A timestamp as an int; it must be an integer (bool is not) >= 0."""
    if not _is_integer(timestamp):
        raise ValidationError(f"timestamp must be an integer, got {timestamp!r}")
    if timestamp < 0:
        raise ValidationError("timestamp must be UTC seconds >= 0")
    return int(timestamp)


@dataclass(frozen=True)
class PlanDocument:
    """Self-contained plan record: entries plus provenance metadata."""

    tool_version: str
    method: str
    catalog_hash: str
    weights_hash: str
    timestamp: int
    entries: tuple[PlanEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "timestamp", _check_timestamp(self.timestamp))
        ranks = [entry.rank for entry in self.entries]
        if ranks != list(range(1, len(self.entries) + 1)):
            raise ValidationError("entries must be in rank order 1..m")

    def to_dict(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "method": self.method,
            "catalog_hash": self.catalog_hash,
            "weights_hash": self.weights_hash,
            "timestamp": self.timestamp,
            "entries": [
                {
                    "rank": entry.rank,
                    "mitigation_id": entry.mitigation_id,
                    "name": entry.name,
                    "score": entry.score,
                    "covered_techniques": list(entry.covered_techniques),
                }
                for entry in self.entries
            ],
        }


def build_plan_document(plan: RankedPlan, timestamp: int | None = None) -> PlanDocument:
    """Wrap a ranked plan's entries, names included, with metadata for
    rendering.  `timestamp` pins the metadata clock; defaults to now."""
    if timestamp is None:
        timestamp = int(time.time())
    return PlanDocument(
        tool_version=__version__,
        method=plan.method,
        catalog_hash=plan.catalog_hash,
        weights_hash=plan.weights_hash,
        timestamp=timestamp,
        entries=plan.entries,
    )


def _render_json(document: PlanDocument) -> bytes:
    text = json.dumps(document.to_dict(), sort_keys=True, indent=2, ensure_ascii=False)
    return (text + "\n").encode("utf-8")


def _render_csv(entries: tuple[PlanEntry, ...]) -> bytes:
    lines = [PLAN_CSV_HEADER + "\n"]
    for entry in entries:
        cells = (
            str(entry.rank),
            entry.mitigation_id,
            entry.name,
            f"{entry.score:.{SCORE_DECIMALS}f}",
            ";".join(entry.covered_techniques),
        )
        lines.append(",".join(map(_csv_field, cells)) + "\n")
    return "".join(lines).encode("utf-8")


def _render_markdown(entries: tuple[PlanEntry, ...]) -> bytes:
    lines = [
        "| rank | mitigation_id | name | score | covered_techniques |",
        "| ---: | --- | --- | ---: | --- |",
    ]
    for entry in entries:
        lines.append(
            "| {} | {} | {} | {:.{p}f} | {} |".format(
                entry.rank,
                entry.mitigation_id,
                entry.name,
                entry.score,
                ";".join(entry.covered_techniques),
                p=SCORE_DECIMALS,
            )
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def _render_entries(entries: tuple[PlanEntry, ...], fmt: str) -> bytes:
    """The text formats, which print entries only."""
    if fmt == "csv":
        return _render_csv(entries)
    if fmt == "markdown":
        return _render_markdown(entries)
    raise ValidationError(f"unknown format {fmt!r} (expected one of {PLAN_FORMATS})")


def render_plan_document(document: PlanDocument, fmt: str) -> bytes:
    if fmt == "json":
        return _render_json(document)
    return _render_entries(document.entries, fmt)


def render_plan(plan: RankedPlan, fmt: str, timestamp: int | None = None) -> bytes:
    """Render a ranked plan's entries, as they are, to one of the
    supported formats.

    Same plan, same pinned timestamp, same bytes.  Only JSON prints the
    provenance, so only JSON reads the plan's input hashes.
    """
    if fmt == "json":
        return _render_json(build_plan_document(plan, timestamp))
    if timestamp is not None:
        _check_timestamp(timestamp)
    return _render_entries(plan.entries, fmt)


_KIND_NAMES = {(int,): "an integer", (int, float): "a number", (str,): "a string"}


def _typed(value, kinds: tuple[type, ...], what: str):
    """A document value, if it is one of ``kinds``; JSON's true and false
    are never numbers here."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValidationError(
            f"not a plan document: {what} must be {_KIND_NAMES[kinds]}, got {value!r}"
        )
    return value


def _plan_entry(entry: dict) -> PlanEntry:
    """A plan document entry; its name is checked as a catalog name is,
    and its rank and score by type, so every format can render it."""
    mid = parse_mitigation_id(entry["mitigation_id"])
    _check_name(mid, entry["name"])
    covered = entry["covered_techniques"]
    if not isinstance(covered, list):
        raise ValidationError(
            f"not a plan document: covered_techniques of {mid} must be a list"
        )
    score = _typed(entry["score"], (int, float), f"score of {mid}")
    # NaN and the infinities are no standard JSON number, and an integer
    # past float range cannot be formatted to fixed decimals.
    if not abs(score) <= sys.float_info.max:
        raise ValidationError(
            f"not a plan document: score of {mid} must be finite in float range, "
            f"got {score!r}"
        )
    return PlanEntry(
        rank=_typed(entry["rank"], (int,), f"rank of {mid}"),
        mitigation_id=mid,
        score=score,
        covered_techniques=tuple(map(parse_technique_id, covered)),
        name=entry["name"],
    )


def plan_document_from_json(data: bytes | str) -> PlanDocument:
    """Inverse of the JSON rendering; round-trips exactly.  Bytes must
    be UTF-8."""
    if not isinstance(data, (bytes, str)):
        raise ValidationError(f"plan document must be bytes or str, got {type(data).__name__}")
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except _JSON_ERRORS as exc:
        raise ValidationError(f"not a plan document: {exc}") from exc
    try:
        entries = tuple(_plan_entry(entry) for entry in doc["entries"])
        return PlanDocument(
            tool_version=_typed(doc["tool_version"], (str,), "tool_version"),
            method=_typed(doc["method"], (str,), "method"),
            catalog_hash=_typed(doc["catalog_hash"], (str,), "catalog_hash"),
            weights_hash=_typed(doc["weights_hash"], (str,), "weights_hash"),
            timestamp=_typed(doc["timestamp"], (int,), "timestamp"),
            entries=entries,
        )
    except KeyError as exc:
        raise ValidationError(f"not a plan document: missing field {exc}") from exc
    except TypeError as exc:
        raise ValidationError(f"not a plan document: {exc}") from exc
