from __future__ import annotations

import numpy as np
import pytest

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
        assert v13_weights.technique_ids()[0] == "T1053"
        assert v13_weights.weights()[0] == pytest.approx(2.951542857)
        assert v13_weights.technique_ids()[-1] == "T1112"
        assert v13_weights.weights()[-1] == pytest.approx(1.922504762)

    def test_round_trip(self, v13_weights):
        assert load_weights(render_weights_csv(v13_weights)) == v13_weights

    def test_render_is_byte_stable(self, v13_weights):
        once = render_weights_csv(v13_weights)
        again = render_weights_csv(load_weights(once))
        assert once == again

    def test_entries_re_sorted_on_load(self):
        data = "no,score,tid,name\n1,1.5,T1059,b\n2,2.5,T1053,a\n"
        weights = load_weights(data)
        assert weights.technique_ids() == ("T1053", "T1059")
        assert weights.weights() == (2.5, 1.5)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises((ParseError, ValidationError)):
            load_weights("no,score,tid,name\n1,0,T1053,x\n")

    @pytest.mark.parametrize("score", ["inf", "-inf", "nan", "1e400"])
    def test_rejects_non_finite_weight_citing_row(self, score):
        with pytest.raises(ParseError, match="row 2: score must be finite"):
            load_weights(f"no,score,tid,name\n1,2.0,T1053,x\n2,{score},T1059,y\n")

    def test_direct_construction_rejects_infinite_weight(self):
        with pytest.raises(ValidationError, match="finite"):
            WeightVector.from_entries([WeightEntry("T1053", float("inf"), "")])

    def test_rejects_duplicate_technique(self):
        with pytest.raises((ParseError, ValidationError)):
            load_weights("no,score,tid,name\n1,2.0,T1053,x\n2,1.0,T1053,y\n")

    def test_rejects_wrong_header(self):
        with pytest.raises(ParseError, match="header"):
            load_weights("tid,score\nT1053,2.0\n")

    def test_error_cites_row(self):
        with pytest.raises(ParseError, match="row 2"):
            load_weights("no,score,tid,name\n1,2.0,T1053,x\n2,abc,T1059,y\n")

    def test_direct_construction_requires_descending(self):
        with pytest.raises(ValidationError):
            WeightVector(
                entries=(
                    WeightEntry("T1059", 1.0, ""),
                    WeightEntry("T1053", 2.0, ""),
                )
            )

    @pytest.mark.parametrize(
        "entries, message",
        [
            # Every entry is checked before the order, so a bad ID in a
            # misordered vector is reported as the bad ID.
            ([("T1059", 1.0), ("T10", 2.0)], "invalid technique ID: 'T10'"),
            ([("T1059", 1.0), ("T1053", 0.0)], "weight for T1053 must be finite and positive, got 0.0"),
            ([("T1053", 2.0), ("T1053", 1.0)], "duplicate technique T1053"),
            ([("T1059", 1.0), ("T1053", 2.0)], "weight entries must be descending by weight"),
            ([("T1059", 1.0), ("T1053", 1.0)], "weight entries must be descending by weight"),
        ],
    )
    def test_direct_construction_error_messages(self, entries, message):
        with pytest.raises(ValidationError) as info:
            WeightVector(entries=tuple(WeightEntry(t, w, "") for t, w in entries))
        assert str(info.value) == message

    def test_ties_order_by_technique_id(self):
        entries = (WeightEntry("T1053", 1.0, ""), WeightEntry("T1059", 1.0, ""))
        assert WeightVector(entries=entries).technique_ids() == ("T1053", "T1059")

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
        weights = WeightVector.from_entries(
            [WeightEntry("T1053", 2.0, name), WeightEntry("T1059", 1.0, "plain")]
        )
        data = render_weights_csv(weights)
        assert load_weights(data) == weights
        assert load_weights(data.decode("utf-8")) == weights
        assert render_weights_csv(load_weights(data)) == data

    def test_bare_carriage_return_name_is_quoted(self):
        weights = WeightVector.from_entries([WeightEntry("T1053", 2.0, "a\rb")])
        assert render_weights_csv(weights) == b'no,score,tid,name\n1,2.0,T1053,"a\rb"\n'

    def test_hash_tracks_content(self, v13_weights):
        base = weights_sha256(v13_weights)
        assert base == weights_sha256(load_weights(render_weights_csv(v13_weights)))
        other = WeightVector.from_entries(
            [WeightEntry("T1053", 1.0, ""), WeightEntry("T1059", 0.5, "")]
        )
        assert weights_sha256(other) != base


class TestRiskFactor:
    def test_annihilator_and_identity(self):
        assert risk_factor(RiskInputs(0.0, 0.9, 100.0)) == 0.0
        assert risk_factor(RiskInputs(0.9, 0.0, 100.0)) == 0.0
        assert risk_factor(RiskInputs(0.9, 0.9, 0.0)) == 0.0
        assert risk_factor(RiskInputs(1.0, 1.0, 42.5)) == 42.5

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

    def test_parse_levels(self):
        assert parse_cvss_level(AttackVector, "N") is AttackVector.NETWORK
        assert parse_cvss_level(AttackVector, "network") is AttackVector.NETWORK
        assert parse_cvss_level(AttackComplexity, "h") is AttackComplexity.HIGH
        assert parse_cvss_level(UserInteraction, "R") is UserInteraction.REQUIRED
        with pytest.raises(ValidationError):
            parse_cvss_level(AttackVector, "X")
