from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mitiplan.errors import ValidationError
from mitiplan.mcdm import PlanEntry, RankedPlan, rank, wsm_scores
from mitiplan.report import (
    PLAN_CSV_HEADER,
    PLAN_FORMATS,
    PlanDocument,
    build_plan_document,
    plan_document_from_json,
    render_plan,
    render_plan_document,
)

from mitiplan.scoring import WeightEntry, WeightVector, render_weights_csv

from published import published_matrix, published_total_scores

PINNED = 1_700_000_000


@pytest.fixture(scope="module")
def v13_plan(v13_matrix):
    return rank(wsm_scores(v13_matrix), v13_matrix)


def _with_names(plan: RankedPlan, names: dict[str, str]) -> RankedPlan:
    """``plan`` with ``names`` on the entries of those mitigations."""
    return replace(
        plan,
        entries=tuple(
            replace(entry, name=names.get(entry.mitigation_id, entry.name))
            for entry in plan.entries
        ),
    )


@pytest.fixture(scope="module")
def published_plan():
    matrix = published_matrix()
    return rank(published_total_scores(matrix), matrix)


class TestJson:
    def test_round_trip_is_exact(self, v13_plan):
        doc = build_plan_document(v13_plan, timestamp=PINNED)
        assert plan_document_from_json(render_plan_document(doc, "json")) == doc

    def test_str_reads_as_its_utf8_bytes(self, v13_plan):
        named = _with_names(v13_plan, {"M1026": "Tâche \u2028計画 \U0001f512"})
        data = render_plan(named, "json", timestamp=PINNED)
        doc = plan_document_from_json(data)
        assert doc.entries == named.entries
        assert plan_document_from_json(data.decode("utf-8")) == doc

    @pytest.mark.parametrize("text", ["{", "[]", '{"entries": []}', '{"entries": [1]}'])
    def test_str_is_rejected_as_its_bytes_are(self, text):
        with pytest.raises(ValidationError) as from_bytes:
            plan_document_from_json(text.encode("utf-8"))
        with pytest.raises(ValidationError) as from_text:
            plan_document_from_json(text)
        assert str(from_text.value) == str(from_bytes.value)
        assert str(from_text.value).startswith("not a plan document: ")

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
        with pytest.raises(ValidationError, match="^not a plan document: missing field 'entries'$"):
            plan_document_from_json(b'{"method": "wsm"}')
        with pytest.raises(ValidationError) as info:
            plan_document_from_json(b"[]")
        assert "missing field" not in str(info.value)

    @pytest.mark.parametrize("data", [None, 7, bytearray(b"{}"), ["{}"]])
    def test_rejects_data_that_is_not_bytes_or_str(self, data):
        with pytest.raises(ValidationError) as info:
            plan_document_from_json(data)
        assert str(info.value) == (
            f"plan document must be bytes or str, got {type(data).__name__}"
        )

    def test_rejects_invalid_mitigation_id(self, v13_plan):
        doc = json.loads(render_plan(v13_plan, "json", timestamp=PINNED))
        doc["entries"][0]["mitigation_id"] = "M10"
        with pytest.raises(ValidationError, match="invalid mitigation ID: 'M10'"):
            plan_document_from_json(json.dumps(doc).encode("utf-8"))

    @pytest.mark.parametrize(
        "name, message",
        [
            (7, "M1026: name must be a str, got 7"),
            ("\ud800", "M1026: name is not encodable as UTF-8 (surrogates not allowed at index 0)"),
        ],
    )
    def test_rejects_name_no_format_can_render(self, v13_plan, name, message):
        doc = json.loads(render_plan(v13_plan, "json", timestamp=PINNED))
        doc["entries"][0]["name"] = name
        with pytest.raises(ValidationError) as info:
            plan_document_from_json(json.dumps(doc).encode("utf-8"))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "covered, message",
        [
            ([1], "invalid technique ID: 1"),
            ("T1053", "not a plan document: covered_techniques of M1026 must be a list"),
            (["T1053", "M1026"], "invalid technique ID: 'M1026'"),
            (None, "not a plan document: covered_techniques of M1026 must be a list"),
        ],
    )
    def test_rejects_covered_techniques_no_format_can_render(self, v13_plan, covered, message):
        doc = json.loads(render_plan(v13_plan, "json", timestamp=PINNED))
        doc["entries"][0]["covered_techniques"] = covered
        with pytest.raises(ValidationError) as info:
            plan_document_from_json(json.dumps(doc).encode("utf-8"))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("entries", 0, "score"), "x", "score of M1026 must be a number, got 'x'"),
            (("entries", 0, "score"), True, "score of M1026 must be a number, got True"),
            (("entries", 0, "score"), None, "score of M1026 must be a number, got None"),
            (("entries", 0, "rank"), True, "rank of M1026 must be an integer, got True"),
            (("entries", 0, "rank"), 1.0, "rank of M1026 must be an integer, got 1.0"),
            (("entries", 0, "rank"), "1", "rank of M1026 must be an integer, got '1'"),
            (("timestamp",), "5", "timestamp must be an integer, got '5'"),
            (("timestamp",), False, "timestamp must be an integer, got False"),
            (("timestamp",), 5.0, "timestamp must be an integer, got 5.0"),
            (("entries", 0, "score"), math.nan, "score of M1026 must be finite in float range, got nan"),
            (("entries", 0, "score"), -math.inf, "score of M1026 must be finite in float range, got -inf"),
            (("entries", 0, "score"), 10**309, f"score of M1026 must be finite in float range, got {10**309}"),
            (("tool_version",), 1.0, "tool_version must be a string, got 1.0"),
            (("method",), 5, "method must be a string, got 5"),
            (("catalog_hash",), None, "catalog_hash must be a string, got None"),
            (("weights_hash",), ["x"], "weights_hash must be a string, got ['x']"),
        ],
    )
    def test_rejects_numbers_no_format_can_render(self, v13_plan, path, value, message):
        doc = json.loads(render_plan(v13_plan, "json", timestamp=PINNED))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ValidationError) as info:
            plan_document_from_json(json.dumps(doc).encode("utf-8"))
        assert str(info.value) == "not a plan document: " + message

    @pytest.mark.parametrize(
        "fmt, row", [("csv", b"\n1,M1026,,3.000000,"), ("markdown", b"\n| 1 | M1026 |  | 3.000000 |")]
    )
    def test_integer_score_renders(self, v13_plan, fmt, row):
        doc = json.loads(render_plan(v13_plan, "json", timestamp=PINNED))
        doc["entries"][0]["score"] = 3
        loaded = plan_document_from_json(json.dumps(doc).encode("utf-8"))
        assert row in render_plan_document(loaded, fmt)

    def test_rejects_nesting_too_deep_to_decode(self):
        with pytest.raises(ValidationError, match="not a plan document"):
            plan_document_from_json(b"[" * 100000)

    def test_rejects_integer_too_long_to_decode(self):
        with pytest.raises(ValidationError, match="^not a plan document: Exceeds the limit"):
            plan_document_from_json(b'{"timestamp": ' + b"1" * 5000 + b"}")

    def test_entries_carry_names(self, v13_plan):
        named = _with_names(v13_plan, {"M1026": "PAM"})
        doc = build_plan_document(named, timestamp=PINNED)
        assert doc.entries[0].name == "PAM"
        assert doc.entries[1:] == v13_plan.entries[1:]
        assert doc.entries == named.entries

    def test_default_timestamp_is_current(self, v13_plan):
        doc = build_plan_document(v13_plan)
        assert abs(doc.timestamp - time.time()) < 60


class TestTextFormats:
    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    def test_plan_renders_as_its_document_does(self, v13_plan, fmt):
        # render_plan skips the document, and so the hashes, for the text
        # formats; the bytes are the document's.
        named = _with_names(v13_plan, {"M1026": "PAM", "M1038": 'a "quoted", name'})
        doc = build_plan_document(named, timestamp=PINNED)
        expected = render_plan_document(doc, fmt)
        assert render_plan(named, fmt, timestamp=PINNED) == expected
        assert render_plan(named, fmt) == expected

    def test_names_on_entries_render_in_every_format(self, v13_plan):
        named = _with_names(v13_plan, {"M1026": "PAM", "M1038": 'a "quoted", name'})
        data = render_plan(named, "json", timestamp=PINNED)
        assert plan_document_from_json(data).entries == named.entries
        rows = list(csv.reader(io.StringIO(render_plan(named, "csv").decode())))
        assert [row[2] for row in rows[1:3]] == ["PAM", 'a "quoted", name']
        lines = render_plan(named, "markdown").decode().splitlines()
        assert lines[2].startswith("| 1 | M1026 | PAM | ")
        assert lines[3].startswith('| 2 | M1038 | a "quoted", name | ')

    @pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
    def test_negative_timestamp_rejected_in_every_format(self, v13_plan, fmt):
        with pytest.raises(ValidationError, match="timestamp must be UTC seconds >= 0"):
            render_plan(v13_plan, fmt, timestamp=-1)

    @pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
    @pytest.mark.parametrize("timestamp", [True, False, 1.5, 5.0, "5"])
    def test_timestamp_that_is_not_an_integer_rejected(self, v13_plan, fmt, timestamp):
        message = f"timestamp must be an integer, got {timestamp!r}"
        with pytest.raises(ValidationError) as info:
            render_plan(v13_plan, fmt, timestamp=timestamp)
        assert str(info.value) == message
        with pytest.raises(ValidationError) as info:
            build_plan_document(v13_plan, timestamp=timestamp)
        assert str(info.value) == message

    def test_numpy_integer_timestamp_stored_as_int(self, v13_plan):
        doc = build_plan_document(v13_plan, timestamp=np.int64(PINNED))
        assert type(doc.timestamp) is int
        data = render_plan(v13_plan, "json", timestamp=np.int64(PINNED))
        assert data == render_plan(v13_plan, "json", timestamp=PINNED)
        assert plan_document_from_json(data) == doc
        for fmt in ("csv", "markdown"):
            assert render_plan(v13_plan, fmt, timestamp=np.uint8(5)) == render_plan(
                v13_plan, fmt
            )

    @pytest.mark.parametrize(
        "entries, message",
        [
            (None, "plan entries must be a sequence, got None"),
            (1.5, "plan entries must be a sequence, got 1.5"),
            ("x", "plan entries must be a sequence, not a string"),
        ],
    )
    def test_document_entries_that_are_not_a_sequence_rejected(self, entries, message):
        with pytest.raises(ValidationError) as info:
            PlanDocument("0", "wsm", "", "", PINNED, entries)
        assert str(info.value) == message

    def test_document_entries_may_be_a_generator(self, v13_plan):
        doc = build_plan_document(v13_plan, timestamp=PINNED)
        assert replace(doc, entries=iter(v13_plan.entries)) == doc


class TestCsv:
    def test_header(self, v13_plan):
        lines = render_plan(v13_plan, "csv", timestamp=PINNED).decode().splitlines()
        assert lines[0] == PLAN_CSV_HEADER
        assert len(lines) == 1 + len(v13_plan.entries)

    def test_published_totals_first_row(self, published_plan):
        lines = render_plan(published_plan, "csv", timestamp=PINNED).decode().splitlines()
        assert lines[1] == "1,M1026,,3.281011,T1047;T1053;T1055;T1059;T1218"

    def test_names_fill_name_column(self, published_plan):
        named = _with_names(published_plan, {"M1026": "Privileged Account Management"})
        lines = render_plan(named, "csv", timestamp=PINNED).decode().splitlines()
        assert lines[1].split(",")[2] == "Privileged Account Management"

    def test_empty_plan_renders_header_only(self):
        empty = RankedPlan(method="wsm", entries=())
        data = render_plan(empty, "csv", timestamp=PINNED)
        assert data == (PLAN_CSV_HEADER + "\n").encode()


# Names built from the cells a CSV writer treats specially, and others it
# does not, around plain letters.
_NAME_ALPHABET = ["a", "é", ",", '"', "'", ";", "\\", "\n", "\t", " ", "\u2028", "\0"]


def _csv_writer_bytes(rows) -> bytes:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue().encode("utf-8")


class TestCsvFieldRule:
    """Both CSV writers quote a cell exactly when it holds a separator, a
    quote or a line break, as ``csv.writer`` does for every cell without
    a bare CR."""

    def test_cr_in_name_reads_back(self, v13_plan):
        named = _with_names(v13_plan, {"M1026": "a\rb", "M1038": 'x,"y"\r\nz'})
        data = render_plan(named, "csv", timestamp=PINNED)
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
        assert len(rows) == 1 + len(v13_plan.entries)
        assert rows[1][:3] == ["1", "M1026", "a\rb"]
        assert rows[2][:3] == ["2", "M1038", 'x,"y"\r\nz']

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(alphabet=_NAME_ALPHABET, max_size=6), min_size=1, max_size=4))
    def test_writers_match_csv_writer(self, names):
        entries = tuple(
            PlanEntry(rank, f"M{1000 + rank}", 1.0, ("T1053", "T1059"), name)
            for rank, name in enumerate(names, start=1)
        )
        plan_csv = render_plan_document(
            PlanDocument("0", "wsm", "", "", PINNED, entries), "csv"
        )
        assert plan_csv == _csv_writer_bytes(
            [PLAN_CSV_HEADER.split(",")]
            + [[e.rank, e.mitigation_id, e.name, "1.000000", "T1053;T1059"] for e in entries]
        )
        weights = WeightVector(
            WeightEntry(f"T{1000 + i}", 1.0 / i, name) for i, name in enumerate(names, start=1)
        )
        assert render_weights_csv(weights) == _csv_writer_bytes(
            [["no", "score", "tid", "name"]]
            + [
                [position, repr(e.weight), e.technique_id, e.name]
                for position, e in enumerate(weights.entries, start=1)
            ]
        )


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
