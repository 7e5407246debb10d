from __future__ import annotations

import csv
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mitiplan import scoring
from mitiplan.errors import ParseError, ValidationError
from mitiplan.scoring import (
    ATTACK_COMPLEXITY_VALUES,
    ATTACK_VECTOR_VALUES,
    PRIVILEGES_REQUIRED_VALUES,
    USER_INTERACTION_VALUES,
    AttackComplexity,
    AttackVector,
    CvssVector,
    PrivilegesRequired,
    RiskInputs,
    UserInteraction,
    WeightEntry,
    WeightVector,
    cvss_exploitability,
    load_weights,
    parse_cvss_level,
    render_weights_csv,
    risk_factor,
    weights_sha256,
)


class TestWeights:
    def test_v13_fixture_values(self, v13_weights):
        assert len(v13_weights) == 10
        assert v13_weights.tids[0] == "T1053"
        assert v13_weights.values[0] == pytest.approx(2.951542857)
        assert v13_weights.tids[-1] == "T1112"
        assert v13_weights.values[-1] == pytest.approx(1.922504762)

    def test_round_trip(self, v13_weights):
        assert load_weights(render_weights_csv(v13_weights)) == v13_weights

    def test_render_is_byte_stable(self, v13_weights):
        once = render_weights_csv(v13_weights)
        again = render_weights_csv(load_weights(once))
        assert once == again

    def test_entries_re_sorted_on_load(self):
        data = "no,score,tid,name\n1,1.5,T1059,b\n2,2.5,T1053,a\n"
        weights = load_weights(data)
        assert weights.tids == ("T1053", "T1059")
        assert weights.values == (2.5, 1.5)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises((ParseError, ValidationError)):
            load_weights("no,score,tid,name\n1,0,T1053,x\n")

    @pytest.mark.parametrize("score", ["inf", "-inf", "nan", "1e400"])
    def test_rejects_non_finite_weight_citing_row(self, score):
        with pytest.raises(ParseError, match="row 2: score must be finite"):
            load_weights(f"no,score,tid,name\n1,2.0,T1053,x\n2,{score},T1059,y\n")

    def test_direct_construction_rejects_infinite_weight(self):
        with pytest.raises(ValidationError, match="finite"):
            WeightVector([WeightEntry("T1053", float("inf"), "")])

    def test_rejects_duplicate_technique(self):
        with pytest.raises((ParseError, ValidationError)):
            load_weights("no,score,tid,name\n1,2.0,T1053,x\n2,1.0,T1053,y\n")

    def test_rejects_wrong_header(self):
        with pytest.raises(ParseError, match="header"):
            load_weights("tid,score\nT1053,2.0\n")

    def test_error_cites_row(self):
        with pytest.raises(ParseError, match="row 2"):
            load_weights("no,score,tid,name\n1,2.0,T1053,x\n2,abc,T1059,y\n")

    def test_direct_construction_in_any_order_equals_loaded(self, v13_weights):
        entries = v13_weights.entries
        shuffled = entries[1::2] + entries[::2]
        for given in (entries[::-1], list(shuffled), iter(shuffled)):
            assert WeightVector(given) == v13_weights

    @pytest.mark.parametrize(
        "entries, message",
        [
            # Entries are checked in the order given, before sorting.
            ([("T1059", 1.0), ("T10", 2.0)], "invalid technique ID: 'T10'"),
            ([("T1059", 1.0), ("T1053", 0.0)], "weight for T1053 must be finite and positive, got 0.0"),
            ([("T1053", 2.0), ("T1053", 1.0)], "duplicate technique T1053"),
            ([("T1059", 1.0), ("T1053", True)], "weight for T1053 must be a real number, got True"),
            ([("T1059", 1.0), ("T1053", "2.0")], "weight for T1053 must be a real number, got '2.0'"),
            ([("T1053", None), ("T1059", "x")], "weight for T1053 must be a real number, got None"),
            ([("T1053", 10**400)], "weight for T1053 must be finite and positive, got inf"),
            ([("T1053", -(10**400))], "weight for T1053 must be finite and positive, got -inf"),
        ],
    )
    def test_direct_construction_error_messages(self, entries, message):
        with pytest.raises(ValidationError) as info:
            WeightVector(entries=tuple(WeightEntry(t, w, "") for t, w in entries))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "entries, message",
        [
            (None, "weight entries must be a sequence of WeightEntry, got None"),
            (7, "weight entries must be a sequence of WeightEntry, got 7"),
            ("T1053", "weight entries must be a sequence of WeightEntry, not a string"),
        ],
    )
    def test_entries_that_are_not_a_sequence_rejected(self, entries, message):
        with pytest.raises(ValidationError) as info:
            WeightVector(entries)
        assert str(info.value) == message

    def test_weights_stored_as_floats(self):
        floats = WeightVector([WeightEntry("T1053", 2.0), WeightEntry("T1059", 0.5)])
        for weight, half in ((2, Fraction(1, 2)), (np.float64(2.0), np.float64(0.5))):
            other = WeightVector([WeightEntry("T1053", weight), WeightEntry("T1059", half)])
            assert [type(w) for w in other.values] == [float, float]
            assert other == floats
            assert render_weights_csv(other) == render_weights_csv(floats)

    def test_ties_order_by_technique_id(self):
        entries = (WeightEntry("T1053", 1.0, ""), WeightEntry("T1059", 1.0, ""))
        assert WeightVector(entries=entries).tids == ("T1053", "T1059")

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1,0,T10,x\n", "weights CSV row 1: score must be finite and positive, got 0.0"),
            ("1,2.0,T10,x\n", "weights CSV row 1: invalid technique ID: 'T10'"),
            ("\n1,2.0,T999,x\n", "weights CSV row 2: invalid technique ID: 'T999'"),
            ("1,2.0,T1053,x\n2,1.0, T1053 ,y\n", "weights CSV row 2: duplicate technique T1053"),
            ("1,2.0,T1053,x\n2,1.0,T1059\n", "weights CSV row 2: expected 4 columns"),
        ],
    )
    def test_load_weights_error_messages(self, body, message):
        with pytest.raises(ParseError) as info:
            load_weights("no,score,tid,name\n" + body)
        assert str(info.value) == message

    def test_rows_are_checked_in_one_pass(self, monkeypatch):
        # When the whole-column test fails, each row up to the first bad
        # one builds one entry, the bad row's included; no row is checked
        # twice.
        made = []

        class CountingEntry(WeightEntry):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(scoring, "WeightEntry", CountingEntry)
        tids = [f"T{1001 + i}" for i in range(8)] + ["T99"]
        body = "".join(f"{n},{10 - n}.0,{tid},x\n" for n, tid in enumerate(tids, start=1))
        with pytest.raises(ParseError) as info:
            load_weights("no,score,tid,name\n" + body)
        assert str(info.value) == "weights CSV row 9: invalid technique ID: 'T99'"
        assert len(made) == 9

    def test_byte_order_mark_ignored(self, v13_weights):
        data = render_weights_csv(v13_weights)
        marked = "\ufeff".encode("utf-8") + data
        assert load_weights(marked) == v13_weights
        assert load_weights(marked.decode("utf-8")) == v13_weights
        assert weights_sha256(load_weights(marked)) == weights_sha256(load_weights(data))

    @pytest.mark.parametrize(
        "name", ["a\nb", "a\rb", "a\r\nb", "a\u2028b", "a\x85b", 'say "\r"', "\r"]
    )
    def test_line_breaks_in_names_round_trip(self, name):
        # Only the CSV reader splits lines, so a name keeps its breaks
        # and separators; a bare CR is written quoted.
        weights = WeightVector(
            [WeightEntry("T1053", 2.0, name), WeightEntry("T1059", 1.0, "plain")]
        )
        data = render_weights_csv(weights)
        assert load_weights(data) == weights
        assert load_weights(data.decode("utf-8")) == weights
        assert render_weights_csv(load_weights(data)) == data

    def test_bare_carriage_return_name_is_quoted(self):
        weights = WeightVector([WeightEntry("T1053", 2.0, "a\rb")])
        assert render_weights_csv(weights) == b'no,score,tid,name\n1,2.0,T1053,"a\rb"\n'

    def test_hash_tracks_content(self, v13_weights):
        base = weights_sha256(v13_weights)
        assert base == weights_sha256(load_weights(render_weights_csv(v13_weights)))
        other = WeightVector(
            [WeightEntry("T1053", 1.0, ""), WeightEntry("T1059", 0.5, "")]
        )
        assert weights_sha256(other) != base


def _csv_module_read(data):
    """``load_weights`` with the column read switched off, so every file
    goes through the CSV reader."""
    with mock.patch.object(scoring, "_unquoted_cells", lambda data: None):
        return _outcome(data)


def _outcome(data):
    try:
        return load_weights(data)
    except ParseError as exc:
        return str(exc)


_SCORES = st.one_of(
    st.floats(0.01, 100.0).map(repr),
    st.sampled_from([" 3.0 ", "1_0", "0", "-1", "nan", "inf", "1e400", "abc", ""]),
)
_TIDS = st.one_of(
    st.integers(1000, 1999).map("T{}".format),
    st.sampled_from(["T1053", " T1059 ", "T1053.005", "T10", "", "t1053"]),
)
_PLAIN_NAMES = st.text(st.sampled_from("ab \u00e9\u2028"), max_size=4)
_NAMES = st.text(st.sampled_from('ab,"\r\n\0'), max_size=4)
_PLAIN_ROWS = st.builds("{},{},{},{}".format, st.integers(0, 9), _SCORES, _TIDS, _PLAIN_NAMES)
_ROWS = st.one_of(
    _PLAIN_ROWS,
    st.builds("{},{},{},{}".format, st.integers(0, 9), _SCORES, _TIDS, _NAMES),
    st.builds('{},{},{},"{}"'.format, st.integers(0, 9), _SCORES, _TIDS, _NAMES),
    st.builds("{},{},{}".format, st.integers(0, 9), _SCORES, _TIDS),
    st.sampled_from(["", "  ", ",,,", " , , , "]),
)


class TestWeightsColumnRead:
    """A weights CSV with no quote, CR or NUL is split at newlines and
    commas instead of going through the CSV reader; either way gives the
    same vector, or the same error."""

    @settings(max_examples=400, deadline=None)
    @given(
        header=st.sampled_from(["no,score,tid,name", "no,score,tid", "\ufeffno,score,tid,name"]),
        rows=st.one_of(st.lists(_PLAIN_ROWS, max_size=6), st.lists(_ROWS, max_size=6)),
        newline=st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]),
        end=st.sampled_from(["", "\n", "\n\n"]),
        encode=st.booleans(),
        limit=st.sampled_from([None, 12]),
    )
    @example("no,score,tid,name", [], "\n", "", False, None)
    @example("no,score,tid,name", ["1,2.0,T1053,a\u00e9"], "\n", "", True, None)
    @example("no,score,tid,name", ["1,2.0,T1053,a\0b"], "\n", "\n", False, None)
    @example("no,score,tid,name", ["1,2.0,T1053,a\rb"], "\n", "\n", False, None)
    @example("no,score,tid,name", ["1,2.0,T1053,a\r"], "\n", "\n", True, None)
    @example("no,score,tid,name", ["1,2.0,T1053,a", "2,1.0,T1053,b"], "\n", "\n", False, None)
    @example("no,score,tid,name", ["1,2.0,T1053,abcdefghijkl"], "\n", "\n", False, 12)
    def test_same_result_as_csv_module(self, header, rows, newline, end, encode, limit):
        data = header + "".join(newline + row for row in rows) + end
        if encode:
            data = data.encode("utf-8")
        old_limit = csv.field_size_limit()
        try:
            if limit is not None:
                csv.field_size_limit(limit)
            assert _outcome(data) == _csv_module_read(data)
        finally:
            csv.field_size_limit(old_limit)

    def test_invalid_utf8_goes_to_the_csv_reader(self):
        data = b"no,score,tid,name\n1,2.0,T1053,\xff\n"
        assert _outcome(data) == _csv_module_read(data)
        assert _outcome(data).startswith("weights CSV: not valid UTF-8")

    def test_cell_past_the_real_field_limit(self):
        name = "x" * (csv.field_size_limit() + 1)
        data = f"no,score,tid,name\n1,2.0,T1053,{name}\n"
        assert _outcome(data) == _csv_module_read(data)
        assert _outcome(data) == (
            "weights CSV row 1: malformed CSV: field larger than field limit "
            f"({csv.field_size_limit()})"
        )

    def test_plain_files_skip_the_csv_reader(self, monkeypatch):
        def no_reader(*args):
            raise AssertionError("the CSV reader ran")

        monkeypatch.setattr(scoring, "_read_rows", no_reader)
        tids = [f"T{1000 + i}.{i % 7 + 1:03d}" for i in range(800)]
        body = "".join(f"{n},{20 - n / 50!r},{tid},Technique {tid}\n"
                       for n, tid in enumerate(tids, start=1))
        weights = load_weights(("no,score,tid,name\n" + body).encode("utf-8"))
        assert weights.tids == tuple(tids)
        assert load_weights("\ufeffno,score,tid,name\n1,2.0,T1053,a") == WeightVector(
            [WeightEntry("T1053", 2.0, "a")]
        )

    @pytest.mark.parametrize("data", [None, bytearray(b"no,score,tid,name\n"), 5])
    def test_data_that_is_not_bytes_or_str_rejected(self, data):
        with pytest.raises(ValidationError) as info:
            load_weights(data)
        assert str(info.value) == (
            f"weights CSV must be bytes or str, got {type(data).__name__}"
        )


class TestRiskFactor:
    def test_annihilator_and_identity(self):
        assert risk_factor(RiskInputs(0.0, 0.9, 100.0)) == 0.0
        assert risk_factor(RiskInputs(0.9, 0.0, 100.0)) == 0.0
        assert risk_factor(RiskInputs(0.9, 0.9, 0.0)) == 0.0
        assert risk_factor(RiskInputs(1.0, 1.0, 42.5)) == 42.5

    def test_negative_zero_input_gives_positive_zero(self):
        for inputs in (RiskInputs(0.5, 0.5, -0.0), RiskInputs(-0.0, 0.5, 2.0)):
            assert math.copysign(1.0, risk_factor(inputs)) == 1.0

    def test_random_inputs(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            threat = float(rng.uniform(0, 1))
            vuln = float(rng.uniform(0, 1))
            impact = float(rng.uniform(0, 50))
            inputs = RiskInputs(threat, vuln, impact)
            assert risk_factor(inputs) == threat * vuln * impact
            assert risk_factor(RiskInputs(0.0, vuln, impact)) == 0.0
            assert risk_factor(RiskInputs(1.0, 1.0, impact)) == impact

    @pytest.mark.parametrize(
        "threat,vuln,impact",
        [(-0.1, 0.5, 1.0), (1.1, 0.5, 1.0), (0.5, -0.1, 1.0), (0.5, 2.0, 1.0),
         (0.5, 0.5, -1.0), (0.5, 0.5, float("nan")), (0.0, 0.5, float("inf")),
         (float("nan"), 0.5, 1.0), (0.5, float("nan"), 1.0)],
    )
    def test_range_validation(self, threat, vuln, impact):
        with pytest.raises(ValidationError):
            RiskInputs(threat, vuln, impact)

    @pytest.mark.parametrize(
        "args, label, value",
        [
            (("0.5", 0.5, 1), "threat", "0.5"),
            ((0.5, 0.5, None), "impact", None),
            ((True, True, 3), "threat", True),
            ((0.5, False, 3), "vulnerability", False),
            ((0.5, 0.5, True), "impact", True),
            ((0.5, [0.5], 1.0), "vulnerability", [0.5]),
            ((0.5, 0.5, 1j), "impact", 1j),
        ],
    )
    def test_field_that_is_not_a_real_number_rejected(self, args, label, value):
        with pytest.raises(ValidationError) as info:
            RiskInputs(*args)
        assert str(info.value) == f"{label} must be a real number, got {value!r}"

    def test_fields_stored_as_floats(self):
        inputs = RiskInputs(1, np.float32(0.5), Fraction(3, 1))
        assert (inputs.threat, inputs.vulnerability, inputs.impact) == (1.0, 0.5, 3.0)
        for value in (inputs.threat, inputs.vulnerability, inputs.impact):
            assert type(value) is float
        product = risk_factor(RiskInputs(1, 1, 3))
        assert product == 3.0 and type(product) is float

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0.5, 0.5, 10**400), "impact must be finite and nonnegative, got inf"),
            ((0.5, 0.5, -(10**400)), "impact must be finite and nonnegative, got -inf"),
            ((-(10**400), 0.5, 1), "threat probability must be in [0, 1], got -inf"),
        ],
    )
    def test_past_float_range_is_an_infinity_of_its_sign(self, args, message):
        with pytest.raises(ValidationError) as info:
            RiskInputs(*args)
        assert str(info.value) == message


class TestCvss:
    def test_reference_vector(self):
        vector = CvssVector(
            attack_vector=AttackVector.NETWORK,
            attack_complexity=AttackComplexity.LOW,
            privileges_required=PrivilegesRequired.NONE,
            user_interaction=UserInteraction.NONE,
        )
        assert cvss_exploitability(vector) == pytest.approx(3.887043, abs=1e-6)

    def test_all_combinations_match_formula(self):
        for av, av_v in ATTACK_VECTOR_VALUES.items():
            for ac, ac_v in ATTACK_COMPLEXITY_VALUES.items():
                for scope_changed in (False, True):
                    for pr, pr_v in PRIVILEGES_REQUIRED_VALUES[scope_changed].items():
                        for ui, ui_v in USER_INTERACTION_VALUES.items():
                            vector = CvssVector(av, ac, pr, ui, scope_changed)
                            expected = 8.22 * av_v * ac_v * pr_v * ui_v
                            assert cvss_exploitability(vector) == pytest.approx(
                                expected, abs=1e-12
                            )

    def test_scope_changes_privilege_values(self):
        base = dict(
            attack_vector=AttackVector.NETWORK,
            attack_complexity=AttackComplexity.LOW,
            user_interaction=UserInteraction.NONE,
        )
        unchanged = CvssVector(
            privileges_required=PrivilegesRequired.HIGH, scope_changed=False, **base
        )
        changed = CvssVector(
            privileges_required=PrivilegesRequired.HIGH, scope_changed=True, **base
        )
        ratio = cvss_exploitability(changed) / cvss_exploitability(unchanged)
        assert ratio == pytest.approx(0.5 / 0.27)

    @pytest.mark.parametrize("scope_changed", ["yes", None, 1, 0, np.bool_(True)])
    def test_scope_changed_that_is_not_a_bool_rejected(self, scope_changed):
        with pytest.raises(ValidationError) as info:
            CvssVector(
                AttackVector.NETWORK,
                AttackComplexity.LOW,
                PrivilegesRequired.LOW,
                UserInteraction.NONE,
                scope_changed,
            )
        assert str(info.value) == f"scope_changed must be a bool, got {scope_changed!r}"

    def test_parse_levels(self):
        assert parse_cvss_level(AttackVector, "N") is AttackVector.NETWORK
        assert parse_cvss_level(AttackVector, "network") is AttackVector.NETWORK
        assert parse_cvss_level(AttackComplexity, "h") is AttackComplexity.HIGH
        assert parse_cvss_level(UserInteraction, "R") is UserInteraction.REQUIRED
        with pytest.raises(ValidationError):
            parse_cvss_level(AttackVector, "X")
