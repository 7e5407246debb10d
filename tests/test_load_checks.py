"""The checks a loaded entity and a loaded CSV go through.

Entities accept the common case in one inline test and fall back to the
full checks to raise; these tests hold the two paths to the same
verdicts and messages.  CSV reading is strict about quoted cells.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import io
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mitiplan.catalog import (
    Mitigation,
    Technique,
    _check_name,
    _check_type,
    _csv_field,
    _read_rows,
    parse_mapping_csv,
    parse_mitigation_id,
    parse_technique_id,
)
from mitiplan.errors import ParseError, ValidationError
from mitiplan.scoring import WeightEntry, load_weights


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

    @pytest.mark.parametrize("record", RECORDS, ids=repr)
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
