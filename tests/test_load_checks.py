"""The checks a loaded entity and a loaded CSV go through.

Records run the full checks.  The catalog and weights loaders accept
the common case in one test over each whole column and fall back to the
records' checks to raise; these tests hold the column tests to the same
verdicts and messages as the records.  CSV reading is strict about
quoted cells.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import functools
import io
import json
import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import enterprise_catalog_and_weights
from oracles import oracle_dumps_catalog

from mitiplan.catalog import (
    Catalog,
    Mitigation,
    Technique,
    _check_name,
    _check_type,
    _csv_field,
    _read_rows,
    dumps_catalog,
    loads_catalog,
    parse_mapping_csv,
    parse_mitigation_id,
    parse_technique_id,
)
from mitiplan.errors import MitiplanError, ParseError, ValidationError
from mitiplan.fixtures import paper_v13_catalog, paper_v13_weights
from mitiplan.scoring import (
    WEIGHTS_CSV_HEADER,
    WeightEntry,
    WeightVector,
    load_weights,
    render_weights_csv,
)


class Text(str):
    pass


def _full_technique(tid, name, revoked, deprecated):
    parse_technique_id(tid)
    _check_name(tid, name)
    _check_type(tid, "revoked", revoked, bool)
    _check_type(tid, "deprecated", deprecated, bool)


def _full_mitigation(mid, name):
    parse_mitigation_id(mid)
    _check_name(mid, name)


def _full_weight_entry(tid, name):
    parse_technique_id(tid)
    _check_name(tid, name)


def _verdict(function, *args):
    """None when ``function`` accepts ``args``, else its ValidationError message."""
    try:
        function(*args)
    except ValidationError as exc:
        return str(exc)
    return None


def _ids(prefix: str, digits: int):
    valid = st.from_regex(rf"{prefix}[0-9]{{{digits}}}", fullmatch=True)
    return st.one_of(
        valid,
        valid.map(Text),
        valid.map(lambda value: value + "\n"),
        st.just(prefix + "١٠٥٣"),  # Arabic-Indic digits
        st.sampled_from([prefix + "1053 ", prefix, "T1053.005", "T1053.05", "M1026"]),
        st.text(max_size=8),
        st.sampled_from([7, None, b"T1053", 1.5]),
    )


_names = st.one_of(
    st.text(alphabet=st.characters(codec="ascii"), max_size=6),
    st.text(max_size=6),
    st.text(max_size=6).map(Text),
    st.sampled_from(["Tâche", "x\ud800", "\udfff", "計画", "a\udc80b"]),
    st.sampled_from([7, None, b"x", ["x"]]),
)
_flags = st.sampled_from([True, False, 0, 1, None, "yes"])


class TestFastChecksAgreeWithFullChecks:
    @settings(max_examples=200, deadline=None)
    @given(
        tid=st.one_of(_ids("T", 4), st.from_regex(r"T[0-9]{4}\.[0-9]{3}", fullmatch=True)),
        name=_names,
        revoked=_flags,
        deprecated=_flags,
    )
    def test_technique(self, tid, name, revoked, deprecated):
        args = (tid, name, revoked, deprecated)
        expected = _verdict(_full_technique, *args)
        assert _verdict(Technique, *args) == expected
        if expected is None:
            technique = Technique(*args)
            assert (technique.id, technique.name) == (tid, name)
            assert type(technique.id) is type(tid)

    @settings(max_examples=100, deadline=None)
    @given(mid=_ids("M", 4), name=_names)
    def test_mitigation(self, mid, name):
        assert _verdict(Mitigation, mid, name) == _verdict(_full_mitigation, mid, name)

    @settings(max_examples=100, deadline=None)
    @given(tid=_ids("T", 4), name=_names)
    def test_weight_entry(self, tid, name):
        expected = _verdict(_full_weight_entry, tid, name)
        assert _verdict(WeightEntry, tid, 1.0, name) == expected

    @pytest.mark.parametrize(
        "args, message",
        [
            (("T1053\n", 1.0), "invalid technique ID: 'T1053\\n'"),
            (("T١٠٥٣", 1.0), "invalid technique ID: 'T١٠٥٣'"),
            (("T1053", 1.0, "x\ud800"), "T1053: name is not encodable as UTF-8 "
             "(surrogates not allowed at index 1)"),
            (("T1053", 1.0, None), "T1053: name must be a str, got None"),
        ],
    )
    def test_weight_entry_messages(self, args, message):
        with pytest.raises(ValidationError) as info:
            WeightEntry(*args)
        assert str(info.value) == message

    def test_weights_csv_name_is_checked(self):
        with pytest.raises(ParseError) as info:
            load_weights("no,score,tid,name\n1,2.0,T1053,a\ud800\n")
        assert str(info.value) == (
            "weights CSV row 1: T1053: name is not encodable as UTF-8 "
            "(surrogates not allowed at index 1)"
        )


class TestSlottedRecords:
    RECORDS = [
        Technique("T1053.005", "Tâche", True, False),
        Technique(Text("T1053"), Text("x")),
        Mitigation("M1026", "Privileged Account Management"),
        WeightEntry("T1053", 2.951542857, "Scheduled Task/Job"),
    ]

    @pytest.mark.parametrize(
        "kind, values",
        [
            (Technique, {"id": "T1053.005", "name": "x", "revoked": True, "deprecated": False}),
            (Technique, {"id": "T1053", "name": "", "revoked": False, "deprecated": True}),
            (Mitigation, {"id": "M1026", "name": "x"}),
            (WeightEntry, {"technique_id": "T1053", "weight": 2.5, "name": "x"}),
        ],
    )
    def test_init_sets_every_field(self, kind, values):
        record = kind(**values)
        assert {f.name: getattr(record, f.name) for f in dataclasses.fields(kind)} == values
        assert kind(*values.values()) == record
        assert record.__match_args__ == tuple(values)

    # Fixed ids: a record whose repr raises must fail its own test, not
    # the collection of every test in this module.
    @pytest.mark.parametrize(
        "record", RECORDS, ids=["subtechnique", "text-technique", "mitigation", "weight-entry"]
    )
    def test_copies_and_replace(self, record):
        assert not hasattr(record, "__dict__")
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record
        renamed = dataclasses.replace(record, name="other")
        assert renamed.name == "other" and renamed != record
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.name = "other"
        with pytest.raises(ValidationError, match="name"):
            dataclasses.replace(record, name=7)


def _techniques(body):
    return parse_mapping_csv("technique_id,name\n" + body, "technique_id,mitigation_id\n")


def _mitigations(body):
    return parse_mapping_csv(
        "technique_id,name\n", "technique_id,mitigation_id\n", "mitigation_id,name\n" + body
    )


def _mappings(body):
    return parse_mapping_csv(
        "technique_id,name\nT1053,x\n", "technique_id,mitigation_id\n" + body
    )


def _weights(body):
    return load_weights("no,score,tid,name\n" + body)


# (reader, label, a valid row before the bad one, the bad row with a {}
# where the malformed cell goes)
CSV_KINDS = [
    (_techniques, "techniques CSV", "T1059,y\n", "T1053,{}"),
    (_mitigations, "mitigations CSV", "M1047,y\n", "M1026,{}"),
    (_mappings, "mapping CSV", "T1053,M1047\n", "T1053,{}"),
    (_weights, "weights CSV", "1,3.0,T1059,y\n", "2,2.0,T1053,{}"),
]


class TestStrictCsvReading:
    @pytest.mark.parametrize("read, label, first, template", CSV_KINDS)
    @pytest.mark.parametrize(
        "cell, reason",
        [('"abc', "unexpected end of data"), ('"abc"d', "',' expected after '\"'")],
    )
    def test_malformed_quoted_cell_cites_row(self, read, label, first, template, cell, reason):
        # The blank row counts, so the bad row is row 3.
        with pytest.raises(ParseError) as info:
            read(first + "\n" + template.format(cell) + "\n")
        assert str(info.value) == f"{label} row 3: malformed CSV: {reason}"

    def test_unclosed_quote_at_end_message(self):
        with pytest.raises(ParseError) as info:
            load_weights('no,score,tid,name\n1,2,T1000,"abc')
        assert str(info.value) == "weights CSV row 1: malformed CSV: unexpected end of data"

    def test_malformed_header(self):
        with pytest.raises(ParseError) as info:
            load_weights('"no,score,tid,name\n1,2,T1000,abc\n')
        assert str(info.value) == "weights CSV header: malformed CSV: unexpected end of data"

    def test_quote_inside_unquoted_cell_accepted(self):
        weights = load_weights('no,score,tid,name\n1,2,T1000,ab"c\n')
        assert weights.entries[0].name == 'ab"c'
        assert _techniques('T1053,ab"c\n').techniques[0].name == 'ab"c'

    def test_oversized_cell_is_parse_error(self):
        oversized = "no,score,tid,name\n1,2,T1000," + "x" * 200_000 + "\n"
        with pytest.raises(ParseError, match=r"^weights CSV row 1: malformed CSV: field larger"):
            load_weights(oversized)


# Cells for blank-row tests: empty, whitespace (ASCII, the Unicode line
# separator and the ideographic space), a letter and a separator, which
# is written quoted.
_BLANK_ROW_CELLS = st.sampled_from(["", " ", "\t", "\u2028", "\u3000", "x", ","])


class TestBlankRows:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.lists(_BLANK_ROW_CELLS, max_size=4), max_size=8),
        newline=st.sampled_from(["\n", "\r\n"]),
    )
    def test_blank_rows_left_out(self, rows, newline):
        # `_read_rows` keeps exactly the rows in which some cell holds
        # more than whitespace, numbered as the CSV reader reads them.
        data = "h" + newline + "".join(
            ",".join(_csv_field(cell) for cell in row) + newline for row in rows
        )
        read = list(csv.reader(io.StringIO(data, newline=""), strict=True))[1:]
        expected = [
            (rownum, row)
            for rownum, row in enumerate(read, start=1)
            if row and any(cell.strip() for cell in row)
        ]
        assert _read_rows(data, "test CSV", "h") == expected


# Whole documents: valid paper and Enterprise-size inputs with one entry
# mutated, loaded by the column checks and by an oracle that builds
# every record through its constructor, as the loaders did before.


@functools.cache
def _valid_inputs():
    enterprise = enterprise_catalog_and_weights()
    pairs = [(paper_v13_catalog(), paper_v13_weights()), enterprise]
    return [
        (dumps_catalog(c).decode("utf-8"), render_weights_csv(w).decode("utf-8"))
        for c, w in pairs
    ]


def _outcome(load, dump, data):
    """The loaded object and its bytes, or the error's type and message."""
    try:
        loaded = load(data)
    except MitiplanError as exc:
        return None, (type(exc).__name__, str(exc))
    return loaded, dump(loaded)


def _oracle_loads_catalog(text):
    doc = json.loads(text)
    try:
        techniques = [
            Technique(
                entry["id"],
                entry.get("name", ""),
                entry.get("revoked", False),
                entry.get("deprecated", False),
            )
            for entry in doc.get("techniques", [])
        ]
        mitigations = [
            Mitigation(entry["id"], entry.get("name", ""))
            for entry in doc.get("mitigations", [])
        ]
        for pair in doc.get("mappings", []):
            if not (type(pair) is list and len(pair) == 2 and {type(p) for p in pair} == {str}):
                raise ParseError(
                    f"malformed catalog document: mapping {pair!r} "
                    "is not a pair of ID strings"
                )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed catalog document: {exc}") from exc
    return Catalog(techniques, mitigations, doc.get("mappings", []))


def _oracle_load_weights(text):
    entries, seen = [], set()
    for rownum, row in _read_rows(text, "weights CSV", WEIGHTS_CSV_HEADER):
        where = f"weights CSV row {rownum}"
        if len(row) != 4:
            raise ParseError(f"{where}: expected 4 columns")
        _, score_text, tid, name = row
        tid = tid.strip()
        try:
            score = float(score_text)
        except ValueError:
            raise ParseError(f"{where}: bad score {score_text!r}") from None
        if not 0 < score < math.inf:
            raise ParseError(f"{where}: score must be finite and positive, got {score}")
        try:
            entry = WeightEntry(tid, score, name)
        except ValidationError as exc:
            raise ParseError(f"{where}: {exc}") from None
        if tid in seen:
            raise ParseError(f"{where}: duplicate technique {tid}")
        seen.add(tid)
        entries.append(entry)
    return WeightVector(entries), entries


# Values a mutated field or cell takes: IDs with a trailing newline or
# Arabic-Indic digits, two IDs joined by a newline, IDs of the other kind
# or repeated, unknown IDs, non-ASCII and lone-surrogate names, and
# values of the wrong type.
_IDS = [
    "T1053\n", "T1053\nT1059", "M1026\nM1047", "T\u0661\u0660\u0665\u0663",
    "M\u0661\u0660\u0662\u0666", "T1053.05", "M1026 ", "T1053", "T1059", "M1026",
    "M1047", "T9999", "M9999", "",
]
_NAMES = ["Tâche", "x\ud800", "\udfff", "計画", "a,b", 'say "hi"', ""]
_WRONG_TYPES = [None, 7, 1.5, True, False, 0, 1, "yes", [], {}, ["T1053"]]
_VALUES = st.sampled_from(_IDS + _NAMES + _WRONG_TYPES)


@st.composite
def _catalog_document(draw):
    text, _ = draw(st.sampled_from(_valid_inputs()))
    doc = json.loads(text)
    part = draw(st.sampled_from(["techniques", "mitigations", "mappings"]))
    entries = doc[part]
    at = draw(st.integers(0, len(entries) - 1))
    other = entries[draw(st.integers(0, len(entries) - 1))]
    change = draw(
        st.sampled_from(["id", "id", "value", "drop", "repeat", "copy", "shuffle", "entry"])
    )
    if change == "shuffle":
        entries[:] = draw(st.permutations(entries))
    elif change == "copy":
        entries.insert(at, copy.deepcopy(other))
    elif change == "entry":
        entries[at] = draw(st.sampled_from([5, "x", None, [], {}, ["M1026"],
                                            ["M1026", "T1053", "x"], [7, "T1053"]]))
    elif change == "repeat":
        if part == "mappings":
            entries[at] = list(other)
        else:
            entries[at]["id"] = other["id"]
    else:
        if part == "mappings":
            key = draw(st.integers(0, 1))
        elif change == "id":
            key = "id"
        else:
            key = draw(st.sampled_from(sorted(entries[at])))
        if change == "drop":
            del entries[at][key]
        else:
            entries[at][key] = draw(st.sampled_from(_IDS) if change == "id" else _VALUES)
    return json.dumps(doc, ensure_ascii=draw(st.booleans()))


def _weights_text(rows):
    return WEIGHTS_CSV_HEADER + "\n" + "".join(
        ",".join(map(_csv_field, row)) + "\n" for row in rows
    )


@st.composite
def _weights_csv(draw):
    _, text = draw(st.sampled_from(_valid_inputs()))
    rows = [row for _, row in _read_rows(text, "weights CSV", WEIGHTS_CSV_HEADER)]
    at = draw(st.integers(0, len(rows) - 1))
    change = draw(st.sampled_from(["score", "tid", "name", "repeat", "cells", "shuffle"]))
    if change == "score":
        scores = ["0", "-1", "inf", "nan", "abc", "1e400", "", " 2.5", "1_0"]
        rows[at][1] = draw(st.sampled_from(scores))
    elif change in ("tid", "name"):
        cell = draw(st.sampled_from(_IDS + _NAMES + [" T1053 "]))
        rows[at][2 if change == "tid" else 3] = cell
    elif change == "repeat":
        rows[at][2] = rows[draw(st.integers(0, len(rows) - 1))][2]
    elif change == "cells":
        rows[at] = draw(st.sampled_from([rows[at][:2], rows[at][:3], rows[at] + ["x"]]))
    else:
        rows = draw(st.permutations(rows))
    blank = st.sampled_from([[""], [" ", "\t"], ["", "", "", ""]])
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(blank))
    return _weights_text(rows)


def _paper_document(part, at, key, value):
    doc = json.loads(dumps_catalog(paper_v13_catalog()))
    doc[part][at][key] = value
    return json.dumps(doc)


def _paper_weights(at, tid):
    text = render_weights_csv(paper_v13_weights()).decode("utf-8")
    rows = [row for _, row in _read_rows(text, "weights CSV", WEIGHTS_CSV_HEADER)]
    rows[at][2] = tid
    return _weights_text(rows)


class TestLoadersAgreeWithRecordChecks:
    # Two valid IDs joined by a newline pass the pattern over the joined
    # column, and only the newline count rejects them.
    @example(text=_paper_document("techniques", 3, "id", "T1053\nT1059"))
    @example(text=_paper_document("mitigations", 3, "id", "M1026\nM1047"))
    @settings(max_examples=200, deadline=None)
    @given(text=_catalog_document())
    def test_loads_catalog(self, text):
        loaded, got = _outcome(loads_catalog, dumps_catalog, text)
        oracle, expected = _outcome(_oracle_loads_catalog, oracle_dumps_catalog, text)
        assert got == expected
        if oracle is not None:
            assert loaded == oracle and hash(loaded) == hash(oracle)
            assert loaded.techniques == oracle.techniques
            assert loaded.mitigations == oracle.mitigations
            assert loaded.mappings == tuple(sorted(map(tuple, json.loads(text)["mappings"])))

    @example(text=_paper_weights(3, "T1053\nT1059"))
    @settings(max_examples=200, deadline=None)
    @given(text=_weights_csv())
    def test_load_weights(self, text):
        loaded, got = _outcome(load_weights, render_weights_csv, text)
        oracle, expected = _outcome(
            lambda data: _oracle_load_weights(data)[0], render_weights_csv, text
        )
        assert got == expected
        if oracle is not None:
            entries = _oracle_load_weights(text)[1]
            assert loaded == oracle and hash(loaded) == hash(oracle)
            assert loaded.entries == tuple(
                sorted(entries, key=lambda e: (-e.weight, e.technique_id))
            )
