from __future__ import annotations

import json
import time

import pytest

from mitiplan.errors import ValidationError
from mitiplan.mcdm import RankedPlan, rank, wsm_scores
from mitiplan.report import (
    PLAN_CSV_HEADER,
    PLAN_FORMATS,
    build_plan_document,
    plan_document_from_json,
    render_plan,
    render_plan_document,
)

from reference import published_matrix, published_total_scores

PINNED = 1_700_000_000


@pytest.fixture(scope="module")
def v13_plan(v13_matrix):
    return rank(wsm_scores(v13_matrix), v13_matrix)


@pytest.fixture(scope="module")
def published_plan():
    matrix = published_matrix()
    return rank(published_total_scores(matrix), matrix)


class TestJson:
    def test_round_trip_is_exact(self, v13_plan):
        doc = build_plan_document(v13_plan, timestamp=PINNED)
        assert plan_document_from_json(render_plan_document(doc, "json")) == doc

    def test_pinned_timestamp_is_byte_stable(self, v13_plan):
        first = render_plan(v13_plan, "json", timestamp=PINNED)
        second = render_plan(v13_plan, "json", timestamp=PINNED)
        assert first == second

    def test_canonical_layout(self, v13_plan):
        data = render_plan(v13_plan, "json", timestamp=PINNED)
        text = data.decode("utf-8")
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert list(parsed) == sorted(parsed)
        assert parsed["timestamp"] == PINNED
        assert parsed["method"] == "wsm"
        assert len(parsed["catalog_hash"]) == 64
        assert len(parsed["weights_hash"]) == 64

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError):
            plan_document_from_json(b"not json at all")
        with pytest.raises(ValidationError):
            plan_document_from_json(b'{"method": "wsm"}')

    def test_rejects_invalid_mitigation_id(self, v13_plan):
        doc = json.loads(render_plan(v13_plan, "json", timestamp=PINNED))
        doc["entries"][0]["mitigation_id"] = "M10"
        with pytest.raises(ValidationError, match="invalid mitigation ID: 'M10'"):
            plan_document_from_json(json.dumps(doc).encode("utf-8"))

    def test_entries_carry_names(self, v13_plan):
        doc = build_plan_document(v13_plan, names={"M1026": "PAM"}, timestamp=PINNED)
        assert doc.entries[0].name == "PAM"
        assert doc.entries[1:] == v13_plan.entries[1:]

    def test_default_timestamp_is_current(self, v13_plan):
        doc = build_plan_document(v13_plan)
        assert abs(doc.timestamp - time.time()) < 60


class TestCsv:
    def test_header(self, v13_plan):
        lines = render_plan(v13_plan, "csv", timestamp=PINNED).decode().splitlines()
        assert lines[0] == PLAN_CSV_HEADER
        assert len(lines) == 1 + len(v13_plan.entries)

    def test_published_totals_first_row(self, published_plan):
        lines = render_plan(published_plan, "csv", timestamp=PINNED).decode().splitlines()
        assert lines[1] == "1,M1026,,3.281011,T1047;T1053;T1055;T1059;T1218"

    def test_names_fill_name_column(self, published_plan):
        names = {"M1026": "Privileged Account Management"}
        lines = (
            render_plan(published_plan, "csv", names=names, timestamp=PINNED)
            .decode()
            .splitlines()
        )
        assert lines[1].split(",")[2] == "Privileged Account Management"

    def test_empty_plan_renders_header_only(self):
        empty = RankedPlan(method="wsm", entries=())
        data = render_plan(empty, "csv", timestamp=PINNED)
        assert data == (PLAN_CSV_HEADER + "\n").encode()


class TestMarkdown:
    def test_table_shape(self, v13_plan):
        lines = render_plan(v13_plan, "markdown", timestamp=PINNED).decode().splitlines()
        assert lines[0] == "| rank | mitigation_id | name | score | covered_techniques |"
        assert set(lines[1]) <= set("|: -")
        assert len(lines) == 2 + len(v13_plan.entries)
        assert lines[2].startswith("| 1 | M1026 | ")


class TestFormatAgreement:
    def test_all_formats_carry_the_same_ranking(self, v13_plan):
        doc = build_plan_document(v13_plan, timestamp=PINNED)

        parsed = json.loads(render_plan_document(doc, "json"))
        from_json = [
            (e["rank"], e["mitigation_id"], f"{e['score']:.6f}")
            for e in parsed["entries"]
        ]

        csv_lines = render_plan_document(doc, "csv").decode().splitlines()[1:]
        from_csv = [
            (int(row[0]), row[1], row[3])
            for row in (line.split(",") for line in csv_lines)
        ]

        md_lines = render_plan_document(doc, "markdown").decode().splitlines()[2:]
        from_md = []
        for line in md_lines:
            cells = [c.strip() for c in line.strip("|").split("|")]
            from_md.append((int(cells[0]), cells[1], cells[3]))

        assert from_json == from_csv == from_md

    def test_unknown_format_rejected(self, v13_plan):
        with pytest.raises(ValidationError, match="xml"):
            render_plan(v13_plan, "xml", timestamp=PINNED)
        assert PLAN_FORMATS == ("json", "csv", "markdown")
