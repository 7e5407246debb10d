"""Rendering of ranked plans to JSON, CSV, and Markdown.

All formats carry the same (rank, mitigation, score) content; JSON keeps
full float precision plus provenance metadata, the text formats print
scores to 6 decimals.  Rendering is deterministic once a timestamp is
pinned.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace

from ._version import __version__
from .catalog import _check_name, _csv_field, parse_mitigation_id
from .errors import ValidationError
from .mcdm import PlanEntry, RankedPlan

PLAN_FORMATS = ("json", "csv", "markdown")

PLAN_CSV_HEADER = "rank,mitigation_id,name,score,covered_techniques"

SCORE_DECIMALS = 6


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
        if self.timestamp < 0:
            raise ValidationError("timestamp must be UTC seconds >= 0")
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


def build_plan_document(
    plan: RankedPlan,
    names: dict[str, str] | None = None,
    timestamp: int | None = None,
) -> PlanDocument:
    """Wrap a ranked plan with metadata for rendering.

    `names` maps mitigation IDs to display names (missing IDs render
    empty).  `timestamp` pins the metadata clock; defaults to now.
    """
    names = names or {}
    if timestamp is None:
        timestamp = int(time.time())
    entries = tuple(
        replace(entry, name=names.get(entry.mitigation_id, ""))
        for entry in plan.entries
    )
    return PlanDocument(
        tool_version=__version__,
        method=plan.method,
        catalog_hash=plan.catalog_hash,
        weights_hash=plan.weights_hash,
        timestamp=timestamp,
        entries=entries,
    )


def _render_json(document: PlanDocument) -> bytes:
    text = json.dumps(document.to_dict(), sort_keys=True, indent=2, ensure_ascii=False)
    return (text + "\n").encode("utf-8")


def _render_csv(document: PlanDocument) -> bytes:
    lines = [PLAN_CSV_HEADER + "\n"]
    for entry in document.entries:
        cells = (
            str(entry.rank),
            entry.mitigation_id,
            entry.name,
            f"{entry.score:.{SCORE_DECIMALS}f}",
            ";".join(entry.covered_techniques),
        )
        lines.append(",".join(map(_csv_field, cells)) + "\n")
    return "".join(lines).encode("utf-8")


def _render_markdown(document: PlanDocument) -> bytes:
    lines = [
        "| rank | mitigation_id | name | score | covered_techniques |",
        "| ---: | --- | --- | ---: | --- |",
    ]
    for entry in document.entries:
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


def render_plan_document(document: PlanDocument, fmt: str) -> bytes:
    if fmt == "json":
        return _render_json(document)
    if fmt == "csv":
        return _render_csv(document)
    if fmt == "markdown":
        return _render_markdown(document)
    raise ValidationError(f"unknown format {fmt!r} (expected one of {PLAN_FORMATS})")


def render_plan(
    plan: RankedPlan,
    fmt: str,
    names: dict[str, str] | None = None,
    timestamp: int | None = None,
) -> bytes:
    """Render a ranked plan to one of the supported formats.

    Same plan, same pinned timestamp, same bytes.
    """
    return render_plan_document(build_plan_document(plan, names, timestamp), fmt)


def _plan_entry(entry: dict) -> PlanEntry:
    """A plan document entry; its name is checked as a catalog name is,
    so every format can render it."""
    mid = parse_mitigation_id(entry["mitigation_id"])
    _check_name(mid, entry["name"])
    return PlanEntry(
        rank=entry["rank"],
        mitigation_id=mid,
        score=entry["score"],
        covered_techniques=tuple(entry["covered_techniques"]),
        name=entry["name"],
    )


def plan_document_from_json(data: bytes) -> PlanDocument:
    """Inverse of the JSON rendering; round-trips exactly."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"not a plan document: {exc}") from exc
    try:
        entries = tuple(_plan_entry(entry) for entry in doc["entries"])
        return PlanDocument(
            tool_version=doc["tool_version"],
            method=doc["method"],
            catalog_hash=doc["catalog_hash"],
            weights_hash=doc["weights_hash"],
            timestamp=doc["timestamp"],
            entries=entries,
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"not a plan document: missing field {exc}") from exc
