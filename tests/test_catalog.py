from __future__ import annotations

import json

import numpy as np
import pytest

from mitiplan.catalog import (
    CATALOG_SCHEMA_VERSION,
    Catalog,
    Mitigation,
    Technique,
    catalog_sha256,
    collapse_subtechniques,
    dumps_catalog,
    load_catalog,
    loads_catalog,
    parse_mapping_csv,
    parse_mitigation_id,
    parse_stix_bundle,
    parse_technique_id,
    save_catalog,
)
from mitiplan.errors import (
    CatalogError,
    MitiplanError,
    ParseError,
    SchemaVersionError,
    ValidationError,
)
from mitiplan.matrix import build_decision_matrix
from mitiplan.mcdm import rank, wsm_scores
from mitiplan.scoring import WeightEntry, WeightVector


def _ranked_names(catalog):
    """Each mitigation's name in the plan ranked from ``catalog``."""
    weights = WeightVector(WeightEntry(tid, 1.0) for tid in catalog.tids)
    matrix = build_decision_matrix(catalog, weights)
    plan = rank(wsm_scores(matrix), matrix)
    return {entry.mitigation_id: entry.name for entry in plan.entries}


def _technique(num, attack_id, name="", revoked=False, deprecated=False):
    obj = {
        "type": "attack-pattern",
        "id": f"attack-pattern--{num}",
        "name": name,
        "external_references": [
            {"source_name": "mitre-attack", "external_id": attack_id}
        ],
    }
    if revoked:
        obj["revoked"] = True
    if deprecated:
        obj["x_mitre_deprecated"] = True
    return obj


def _mitigation(num, attack_id, name=""):
    return {
        "type": "course-of-action",
        "id": f"course-of-action--{num}",
        "name": name,
        "external_references": [
            {"source_name": "mitre-attack", "external_id": attack_id}
        ],
    }


def _mitigates(src_num, dst_num):
    return {
        "type": "relationship",
        "id": f"relationship--{src_num}-{dst_num}",
        "relationship_type": "mitigates",
        "source_ref": f"course-of-action--{src_num}",
        "target_ref": f"attack-pattern--{dst_num}",
    }


_ENTITY_DEFAULTS = {"name": "", "revoked": False, "x_mitre_deprecated": False}


def _bundle(*objects):
    return {"type": "bundle", "id": "bundle--0", "objects": list(objects)}


class TestIds:
    def test_parse_technique_id(self):
        assert parse_technique_id("T1053") == "T1053"
        assert parse_technique_id("T1053.005") == "T1053.005"

    @pytest.mark.parametrize(
        "bad",
        [
            "T105",
            "T10533",
            "M1026",
            "T1053.05",
            "t1053",
            "",
            "T1053\n",
            "T\u0661\u0660\u0665\u0663",
        ],
    )
    def test_parse_technique_id_rejects(self, bad):
        with pytest.raises(ValidationError):
            parse_technique_id(bad)

    def test_parse_mitigation_id(self):
        assert parse_mitigation_id("M1026") == "M1026"

    @pytest.mark.parametrize(
        "bad", ["M102", "M10266", "T1053", "m1026", "", "M1026\n", "M\u0661\u0660\u0662\u0666"]
    )
    def test_parse_mitigation_id_rejects(self, bad):
        with pytest.raises(ValidationError):
            parse_mitigation_id(bad)


class TestCatalogType:
    def test_duplicate_technique_rejected(self):
        with pytest.raises(CatalogError):
            Catalog(
                [Technique("T1053", "a"), Technique("T1053", "b")], [], []
            )

    def test_mapping_referential_integrity(self):
        with pytest.raises(CatalogError, match="^mapping references unknown mitigation M1026$"):
            Catalog(
                [Technique("T1053", "")], [], [("M1026", "T1053")]
            )
        with pytest.raises(CatalogError, match="^mapping references unknown technique T1053$"):
            Catalog(
                [], [Mitigation("M1026", "")], [("M1026", "T1053")]
            )

    @pytest.mark.parametrize(
        "mappings, message",
        [
            # Both endpoints unknown: the mitigation is named.
            ([("M9999", "T9999")], "unknown mitigation M9999"),
            # The first mapping that fails is named.
            ([("M1026", "T9999"), ("M9999", "T1053")], "unknown technique T9999"),
            ([("M1026", "T1053"), ("M9999", "T1053")], "unknown mitigation M9999"),
        ],
    )
    def test_first_unknown_endpoint_named(self, mappings, message):
        with pytest.raises(CatalogError) as info:
            Catalog([Technique("T1053")], [Mitigation("M1026")], mappings)
        assert str(info.value) == f"mapping references {message}"

    @pytest.mark.parametrize(
        "mappings, bad",
        [
            # A non-string ID, alone or beside a good pair (the sort fails).
            ([(None, "T1053")], (None, "T1053")),
            ([("M1026", "T1053"), (None, "T1053")], (None, "T1053")),
            ([("M1026", "T1053"), ("M1026", None)], ("M1026", None)),
            ([("M1026", "T1053", "x")], ("M1026", "T1053", "x")),
            ([("M1026",)], ("M1026",)),
            ([("M1026", "T1053"), 7], 7),
            ([(["M1026"], "T1053")], (["M1026"], "T1053")),
            ([("M1026", "T1053"), (["M1026"], "T1053")], (["M1026"], "T1053")),
            # A string is not a pair, even one that iterates as two IDs.
            (["MT"], "MT"),
            ([("M1026", "T1053"), ("M1026", "T1053", "x"), ("M1026", "T1053", "x")],
             ("M1026", "T1053", "x")),
        ],
    )
    def test_malformed_mapping_named(self, mappings, bad):
        with pytest.raises(CatalogError) as info:
            Catalog([Technique("T1053")], [Mitigation("M1026")], mappings)
        assert str(info.value) == f"mapping {bad!r} is not a pair of ID strings"
        assert info.value.__cause__ is None and info.value.__suppress_context__

    def test_duplicate_mapping_named(self):
        mappings = [("M1026", "T1059"), ("M1026", "T1053"), ["M1026", "T1059"]]
        with pytest.raises(CatalogError) as info:
            Catalog(
                [Technique("T1059"), Technique("T1053")], [Mitigation("M1026")], mappings
            )
        assert str(info.value) == "duplicate mapping M1026 -> T1059 in catalog"

    def test_parts_stored_sorted(self):
        catalog = Catalog(
            [Technique("T1059"), Technique("T1053")],
            [Mitigation("M1038"), Mitigation("M1026")],
            [["M1038", "T1053"], ("M1026", "T1059"), ("M1026", "T1053")],
        )
        assert catalog.tids == ("T1053", "T1059")
        assert catalog.mids == ("M1026", "M1038")
        assert catalog.mappings == (
            ("M1026", "T1053"),
            ("M1026", "T1059"),
            ("M1038", "T1053"),
        )
        assert catalog.covers([0]).ravel().tolist() == [1, 1]

    @pytest.mark.parametrize("name", [7, ["x"], None, b"x"])
    def test_non_string_name_rejected(self, name):
        with pytest.raises(ValidationError, match="name"):
            Technique("T1053", name)
        with pytest.raises(ValidationError, match="name"):
            Mitigation("M1026", name)

    def test_unencodable_name_rejected(self):
        with pytest.raises(ValidationError, match="T1053: name is not encodable as UTF-8"):
            Technique("T1053", "x\ud800")
        with pytest.raises(ValidationError, match="M1026: name is not encodable as UTF-8"):
            Mitigation("M1026", "\udfff")

    @pytest.mark.parametrize("flag", ["revoked", "deprecated"])
    @pytest.mark.parametrize("value", [1, 0, "yes", None])
    def test_non_bool_flag_rejected(self, flag, value):
        with pytest.raises(ValidationError, match=flag):
            Technique("T1053", "", **{flag: value})

    @pytest.mark.parametrize(
        "args, message",
        [
            (("T1053\n", "x"), "invalid technique ID: 'T1053\\n'"),
            ((7,), "invalid technique ID: 7"),
            (("T10", 7, "yes"), "invalid technique ID: 'T10'"),
            (("T1053", 7), "T1053: name must be a str, got 7"),
            (
                ("T1053", "Tâche x\ud800"),
                "T1053: name is not encodable as UTF-8 "
                "(surrogates not allowed at index 7)",
            ),
            (("T1053", "Tâche", 1), "T1053: revoked must be a bool, got 1"),
            (("T1053", "", False, None), "T1053: deprecated must be a bool, got None"),
        ],
    )
    def test_technique_error_messages(self, args, message):
        with pytest.raises(ValidationError) as info:
            Technique(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "args, message",
        [
            (("M1026 ", "x"), "invalid mitigation ID: 'M1026 '"),
            (("T1053", 7), "invalid mitigation ID: 'T1053'"),
            (("M1026", b"x"), "M1026: name must be a str, got b'x'"),
            (
                ("M1026", "\udfff"),
                "M1026: name is not encodable as UTF-8 "
                "(surrogates not allowed at index 0)",
            ),
        ],
    )
    def test_mitigation_error_messages(self, args, message):
        with pytest.raises(ValidationError) as info:
            Mitigation(*args)
        assert str(info.value) == message

    def test_str_subclasses_and_non_ascii_names_accepted(self):
        class Text(str):
            pass

        assert Technique(Text("T1053.005"), Text("Tâche"), True).id == "T1053.005"
        assert Mitigation(Text("M1026"), "計画タスク").name == "計画タスク"

    @pytest.mark.parametrize(
        "columns, message",
        [
            ("ab", "be a sequence of integers, got 'ab'"),
            (b"\x00", "be a sequence of integers, got b'\\x00'"),
            ({0: 1}, "be a sequence of integers, got {0: 1}"),
            (None, "be a sequence of integers, got None"),
            (True, "be a sequence of integers, got True"),
            (3, "be a sequence of integers, got 3"),
            ([0.0], "be a sequence of integers, got [0.0]"),
            ([True, False], "be a sequence of integers, got [True, False]"),
            ([[0], [1, 2]], "be a sequence of integers, got [[0], [1, 2]]"),
            ([[0]], "be a sequence of integers, got [[0]]"),
            ([0, 0], "be distinct, got [0, 0]"),
            ([1, 2, 1], "be distinct, got [1, 2, 1]"),
            ([-1], "index the 10 techniques, got [-1]"),
            ([10], "index the 10 techniques, got [10]"),
        ],
    )
    def test_covers_rejects_bad_columns(self, v13_catalog, columns, message):
        with pytest.raises(ValidationError) as info:
            v13_catalog.covers(columns)
        assert str(info.value) == f"technique columns must {message}"

    def test_covers_takes_any_flat_integer_sequence(self, v13_catalog):
        table = v13_catalog.covers([3, 0])
        assert np.array_equal(table, np.hstack([v13_catalog.covers([3]), v13_catalog.covers([0])]))
        assert np.array_equal(v13_catalog.covers(np.array([3, 0], dtype=np.uint8)), table)
        assert np.array_equal(v13_catalog.covers(range(3, -1, -3)), table)
        assert v13_catalog.covers([]).shape == (18, 0)

    def test_lookups(self, v13_catalog):
        assert v13_catalog.has_technique("T1112")
        assert [m for m, t in v13_catalog.mappings if t == "T1112"] == ["M1024"]
        assert sum(t == "T1574" for _, t in v13_catalog.mappings) == 10
        assert not v13_catalog.has_technique("T9999")

    @pytest.mark.parametrize("value", [None, 5, [], {}, ("T1112",), b"T1112"])
    def test_has_technique_is_false_for_non_strings(self, v13_catalog, value):
        assert v13_catalog.has_technique(value) is False

    @pytest.mark.parametrize(
        "args, message",
        [
            ((None, [], []), "catalog techniques must be a sequence, got None"),
            (([], None, []), "catalog mitigations must be a sequence, got None"),
            (([], [], None), "catalog mappings must be a sequence of pairs, got None"),
            (([], [], 5), "catalog mappings must be a sequence of pairs, got 5"),
            (("T1053", [], []), "catalog techniques must be a sequence, not a string"),
        ],
    )
    def test_arguments_that_are_not_sequences_rejected(self, args, message):
        with pytest.raises(ValidationError) as info:
            Catalog(*args)
        assert str(info.value) == message

    def test_arguments_may_be_generators(self):
        records = ([Technique("T1053")], [Mitigation("M1026")], [("M1026", "T1053")])
        assert Catalog(*(iter(r) for r in records)) == Catalog(*records)


class TestStixIngest:
    def test_minimal_bundle(self):
        catalog = parse_stix_bundle(
            _bundle(
                _technique(1, "T1053", "Scheduled Task/Job"),
                _mitigation(2, "M1026", "Privileged Account Management"),
                _mitigates(2, 1),
            )
        )
        assert catalog.tids == ("T1053",)
        assert catalog.mids == ("M1026",)
        assert catalog.mappings == (("M1026", "T1053"),)

    def test_accepts_serialized_bundle(self):
        raw = json.dumps(
            _bundle(_technique(1, "T1053"), _mitigation(2, "M1026"), _mitigates(2, 1))
        )
        assert parse_stix_bundle(raw).mappings == (("M1026", "T1053"),)

    def test_revoked_technique_dropped_with_mappings(self):
        catalog = parse_stix_bundle(
            _bundle(
                _technique(1, "T1053"),
                _technique(3, "T1059", revoked=True),
                _mitigation(2, "M1026"),
                _mitigates(2, 1),
                _mitigates(2, 3),
            )
        )
        assert catalog.tids == ("T1053",)
        assert catalog.mappings == (("M1026", "T1053"),)
        # The dropped technique's relationship is filtered, not dangling.
        assert catalog.meta.dangling_refs == 0

    def test_deprecated_kept_on_request(self):
        bundle = _bundle(_technique(1, "T1053", deprecated=True))
        assert parse_stix_bundle(bundle).tids == ()
        kept = parse_stix_bundle(bundle, include_deprecated=True)
        assert kept.tids == ("T1053",)

    def test_subtechnique_collapse(self):
        catalog = parse_stix_bundle(
            _bundle(
                _technique(1, "T1053.005", "Scheduled Task"),
                _mitigation(2, "M1038"),
                _mitigates(2, 1),
            )
        )
        assert catalog.tids == ("T1053",)
        assert catalog.mappings == (("M1038", "T1053"),)

    def test_no_collapse_keeps_subtechniques(self):
        catalog = parse_stix_bundle(
            _bundle(
                _technique(1, "T1053.005"),
                _mitigation(2, "M1038"),
                _mitigates(2, 1),
            ),
            collapse=False,
        )
        assert catalog.tids == ("T1053.005",)
        assert catalog.mappings == (("M1038", "T1053.005"),)

    def test_dangling_refs_counted(self):
        catalog = parse_stix_bundle(
            _bundle(_technique(1, "T1053"), _mitigates(9, 1))
        )
        assert catalog.mappings == ()
        assert catalog.meta.dangling_refs == 1

    def test_unrelated_objects_skipped(self):
        catalog = parse_stix_bundle(
            _bundle(
                {"type": "identity", "id": "identity--1"},
                _technique(1, "T1053"),
            )
        )
        assert catalog.tids == ("T1053",)
        assert catalog.meta.skipped_objects == 1

    def test_malformed_object_names_index(self):
        with pytest.raises(ParseError, match="index 1"):
            parse_stix_bundle(_bundle(_technique(1, "T1053"), "not-an-object"))

    @pytest.mark.parametrize(
        "refs", [5, "mitre-attack", {"source_name": "mitre-attack"}]
    )
    def test_non_list_external_references_names_index(self, refs):
        bad = _technique(2, "T1059")
        bad["external_references"] = refs
        with pytest.raises(ParseError, match="index 1: external_references"):
            parse_stix_bundle(_bundle(_technique(1, "T1053"), bad))

    def test_null_external_references_skipped(self):
        bad = _technique(2, "T1059")
        bad["external_references"] = None
        catalog = parse_stix_bundle(_bundle(_technique(1, "T1053"), bad))
        assert catalog.tids == ("T1053",)
        assert catalog.meta.skipped_objects == 1

    @pytest.mark.parametrize(
        "prop, value",
        [
            ("name", 7),
            ("name", ["x"]),
            ("revoked", "yes"),
            ("revoked", 1),
            ("x_mitre_deprecated", 0),
        ],
    )
    def test_wrong_field_type_skipped_with_warning(self, prop, value):
        bad_technique = _technique(2, "T1059")
        bad_technique[prop] = value
        bad_mitigation = _mitigation(3, "M1038")
        bad_mitigation[prop] = value
        catalog = parse_stix_bundle(
            _bundle(
                _technique(1, "T1053"),
                bad_technique,
                bad_mitigation,
                _mitigation(4, "M1026"),
                _mitigates(4, 1),
            ),
            include_deprecated=True,
        )
        assert catalog.tids == ("T1053",)
        assert catalog.mids == ("M1026",)
        assert catalog.meta.skipped_objects == 2
        kind = type(_ENTITY_DEFAULTS[prop]).__name__
        assert catalog.meta.warnings == (
            f"object 1: T1059: {prop} must be a {kind}, got {value!r}",
            f"object 2: M1038: {prop} must be a {kind}, got {value!r}",
        )

    def test_unencodable_name_skipped_with_warning(self):
        bundle = _bundle(
            _technique(1, "T1053"),
            _technique(2, "T1059", name="x\ud800"),
            _mitigation(3, "M1026", name="\ud800"),
        )
        catalog = parse_stix_bundle(json.dumps(bundle))
        assert catalog.tids == ("T1053",)
        assert catalog.mids == ()
        assert catalog.meta.skipped_objects == 2
        reason = "name is not encodable as UTF-8 (surrogates not allowed at index"
        assert catalog.meta.warnings == (
            f"object 1: T1059: {reason} 1)",
            f"object 2: M1026: {reason} 0)",
        )

    def test_null_fields_take_defaults(self):
        obj = _technique(1, "T1053")
        obj.update(name=None, revoked=None, x_mitre_deprecated=None)
        catalog = parse_stix_bundle(_bundle(obj))
        assert catalog.techniques == (Technique("T1053", ""),)

    def test_non_bundle_rejected(self):
        with pytest.raises(ParseError):
            parse_stix_bundle({"type": "malware"})
        with pytest.raises(ParseError):
            parse_stix_bundle(b"{not json")

    @pytest.mark.parametrize("prop", ["source_ref", "target_ref"])
    @pytest.mark.parametrize("ref", [["course-of-action--2"], 5, {"id": "x"}, True])
    def test_non_string_ref_names_index(self, prop, ref):
        bad = _mitigates(2, 1)
        bad[prop] = ref
        bundle = _bundle(_technique(1, "T1053"), _mitigation(2, "M1026"), bad)
        with pytest.raises(ParseError) as info:
            parse_stix_bundle(bundle)
        assert str(info.value) == (
            f"malformed bundle object at index 2: {prop} must be a string"
        )

    def test_null_or_absent_ref_is_dangling(self):
        null_source = _mitigates(2, 1)
        null_source["source_ref"] = None
        no_target = _mitigates(2, 1)
        del no_target["target_ref"]
        catalog = parse_stix_bundle(
            _bundle(_technique(1, "T1053"), _mitigation(2, "M1026"), null_source, no_target)
        )
        assert catalog.mappings == ()
        assert catalog.meta.dangling_refs == 2

    def test_non_mitigates_relationship_refs_not_read(self):
        uses = _mitigates(2, 1)
        uses.update(relationship_type="uses", source_ref=["x"])
        catalog = parse_stix_bundle(_bundle(_technique(1, "T1053"), uses))
        assert catalog.meta.skipped_objects == 1

    def test_duplicate_attack_id_keeps_first(self):
        catalog = parse_stix_bundle(
            _bundle(
                _technique(1, "T1053", "first"),
                _technique(2, "T1053", "second"),
            )
        )
        assert catalog.techniques[0].name == "first"


class TestCollapse:
    def test_idempotent(self, v13_catalog):
        once = collapse_subtechniques(v13_catalog)
        assert collapse_subtechniques(once) == once

    def test_merges_parent_and_sub_mappings(self):
        catalog = Catalog(
            [Technique("T1053", ""), Technique("T1053.005", "")],
            [Mitigation("M1026", ""), Mitigation("M1038", "")],
            [("M1026", "T1053"), ("M1026", "T1053.005"), ("M1038", "T1053.005")],
        )
        collapsed = collapse_subtechniques(catalog)
        assert collapsed.tids == ("T1053",)
        assert collapsed.mappings == (("M1026", "T1053"), ("M1038", "T1053"))

    def test_creates_missing_parent(self):
        catalog = Catalog(
            [Technique("T1053.005", "Scheduled Task")],
            [Mitigation("M1026", "")],
            [("M1026", "T1053.005")],
        )
        collapsed = collapse_subtechniques(catalog)
        assert collapsed.tids == ("T1053",)
        assert collapsed.mappings == (("M1026", "T1053"),)

    def test_parent_kept_whatever_the_order(self):
        # Built directly, a catalog's techniques need not be sorted.
        catalog = Catalog(
            techniques=(Technique("T1053.005", "Cron"), Technique("T1053", "Jobs")),
            mitigations=(),
            mappings=(),
        )
        assert collapse_subtechniques(catalog).techniques == (Technique("T1053", "Jobs"),)


class TestCsvIngest:
    def test_v13_fixture_counts(self, v13_catalog):
        counts = dict(
            zip(v13_catalog.tids, v13_catalog.covers(range(len(v13_catalog.tids))).sum(0).tolist())
        )
        assert counts == {
            "T1036": 3,
            "T1047": 4,
            "T1053": 4,
            "T1055": 2,
            "T1059": 7,
            "T1112": 1,
            "T1218": 4,
            "T1543": 7,
            "T1562": 4,
            "T1574": 10,
        }
        assert len(v13_catalog.mappings) == 46
        assert len(v13_catalog.tids) == 10
        assert len(v13_catalog.mids) == 18

    def test_empty_mapping_file(self):
        catalog = parse_mapping_csv(
            "technique_id,name\nT1053,Scheduled Task\n",
            "technique_id,mitigation_id\n",
        )
        assert catalog.mappings == ()

    def test_invalid_id_cites_row(self):
        with pytest.raises(ParseError, match="row 1"):
            parse_mapping_csv(
                "technique_id,name\nT1053,x\n",
                "technique_id,mitigation_id\nT999,M1026\n",
            )

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_mapping_csv(
                "technique_id,name\nT1053,x\n",
                "technique_id,mitigation_id\nT1053,M1026\nT1053,M1026\n",
            )

    def test_unknown_technique_rejected(self):
        with pytest.raises(ParseError, match="T1059"):
            parse_mapping_csv(
                "technique_id,name\nT1053,x\n",
                "technique_id,mitigation_id\nT1059,M1026\n",
            )

    def test_wrong_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            parse_mapping_csv(
                "tid,name\nT1053,x\n",
                "technique_id,mitigation_id\n",
            )

    def test_row_numbers_count_blank_rows(self):
        with pytest.raises(ParseError) as info:
            parse_mapping_csv(
                "technique_id,name\nT1053,x\n",
                "technique_id,mitigation_id\n\nT999,M1026\n",
            )
        assert str(info.value) == "mapping CSV row 2: invalid technique ID: 'T999'"

    def test_unencodable_name_cites_row(self):
        with pytest.raises(ParseError) as info:
            parse_mapping_csv(
                "technique_id,name\nT1053,x\nT1059,bad \ud800\n",
                "technique_id,mitigation_id\n",
            )
        assert str(info.value) == (
            "techniques CSV row 2: T1059: name is not encodable as UTF-8 "
            "(surrogates not allowed at index 4)"
        )

    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_byte_order_mark_ignored(self, as_bytes):
        files = [
            "technique_id,name\nT1053,Scheduled Task\n",
            "technique_id,mitigation_id\nT1053,M1026\n",
            "mitigation_id,name\nM1026,Privileged Account Management\n",
        ]
        plain = parse_mapping_csv(*files)
        marked = ["\ufeff" + text for text in files]
        if as_bytes:
            marked = [text.encode("utf-8") for text in marked]
        assert parse_mapping_csv(*marked) == plain
        assert _ranked_names(plain) == {"M1026": "Privileged Account Management"}

    @pytest.mark.parametrize(
        "cell, name",
        [
            ('"a\nb"', "a\nb"),
            ('"a\rb"', "a\rb"),
            ('"a\r\nb"', "a\r\nb"),
            ("a\u2028b", "a\u2028b"),
            ("a\x85b", "a\x85b"),
        ],
    )
    def test_line_breaks_in_names_kept(self, cell, name):
        # Only the CSV reader splits lines: quoted breaks and unquoted
        # Unicode separators stay inside the name.
        catalog = parse_mapping_csv(
            f"technique_id,name\nT1053,{cell}\nT1059,next\n",
            "technique_id,mitigation_id\nT1053,M1026\n",
        )
        assert [(t.id, t.name) for t in catalog.techniques] == [
            ("T1053", name),
            ("T1059", "next"),
        ]

    def test_quoted_line_break_counts_as_one_row(self):
        with pytest.raises(ParseError) as info:
            parse_mapping_csv(
                'technique_id,name\nT1053,"two\nlines"\n\nT999,x\n',
                "technique_id,mitigation_id\n",
            )
        assert str(info.value) == "techniques CSV row 3: invalid technique ID: 'T999'"

    @pytest.mark.parametrize(
        "techniques, mitigations, message",
        [
            ("T1053,x,y\n", "", "techniques CSV row 1: expected 2 columns"),
            ("T1053,x\n\n T1053 ,y\n", "", "techniques CSV row 3: duplicate technique T1053"),
            ("T105,x\n", "", "techniques CSV row 1: invalid technique ID: 'T105'"),
            ("", "M1026\n", "mitigations CSV row 1: expected 2 columns"),
            ("", "M1026,x\nM1026,y\n", "mitigations CSV row 2: duplicate mitigation M1026"),
            ("", "M10,x\n", "mitigations CSV row 1: invalid mitigation ID: 'M10'"),
        ],
    )
    def test_entity_row_errors_cite_row(self, techniques, mitigations, message):
        with pytest.raises(ParseError) as info:
            parse_mapping_csv(
                "technique_id,name\n" + techniques,
                "technique_id,mitigation_id\n",
                "mitigation_id,name\n" + mitigations,
            )
        assert str(info.value) == message

    def test_mitigation_names_file(self):
        catalog = parse_mapping_csv(
            "technique_id,name\nT1053,x\n",
            "technique_id,mitigation_id\nT1053,M1026\n",
            mitigations_csv="mitigation_id,name\nM1026,Privileged Account Management\n",
        )
        assert _ranked_names(catalog) == {"M1026": "Privileged Account Management"}


class TestPersistence:
    def test_round_trip_equality(self, v13_catalog, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog(v13_catalog, path)
        assert load_catalog(path) == v13_catalog

    @pytest.mark.parametrize("path", [None, 7, b"catalog.json"])
    def test_load_path_that_is_not_a_path_rejected(self, path):
        with pytest.raises(ValidationError) as info:
            load_catalog(path)
        assert str(info.value) == f"catalog path must be a str or a path, got {path!r}"

    @pytest.mark.parametrize("path", [None, 7, b"catalog.json"])
    def test_save_path_that_is_not_a_path_rejected(self, v13_catalog, path):
        with pytest.raises(ValidationError) as info:
            save_catalog(v13_catalog, path)
        assert str(info.value) == f"catalog path must be a str or a path, got {path!r}"

    def test_byte_stable_resave(self, v13_catalog, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_catalog(v13_catalog, first)
        save_catalog(load_catalog(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_schema_version_checked(self, v13_catalog):
        doc = json.loads(dumps_catalog(v13_catalog))
        assert doc["schema_version"] == CATALOG_SCHEMA_VERSION
        doc["schema_version"] = 2
        with pytest.raises(SchemaVersionError):
            loads_catalog(json.dumps(doc))

    @pytest.mark.parametrize("version", [True, 1.0, "1", None, 2])
    def test_schema_version_must_be_the_integer(self, v13_catalog, version):
        # true and 1.0 compare equal to 1 in Python but are not the version.
        doc = json.loads(dumps_catalog(v13_catalog))
        doc["schema_version"] = version
        with pytest.raises(SchemaVersionError) as info:
            loads_catalog(json.dumps(doc))
        assert str(info.value) == (
            f"unsupported catalog schema version {version!r} "
            f"(expected {CATALOG_SCHEMA_VERSION})"
        )

    @pytest.mark.parametrize("data", [None, 5, 1.5, ["{}"], {"schema_version": 1}])
    def test_document_must_be_bytes_or_str(self, data):
        with pytest.raises(ParseError) as info:
            loads_catalog(data)
        assert str(info.value) == (
            f"catalog document must be bytes or str, got {type(data).__name__}"
        )

    def test_document_may_be_a_bytearray(self, v13_catalog):
        assert loads_catalog(bytearray(dumps_catalog(v13_catalog))) == v13_catalog

    def test_empty_catalog_document(self):
        empty = Catalog([], [], [])
        doc = json.loads(dumps_catalog(empty))
        assert doc["techniques"] == []
        assert doc["mitigations"] == []
        assert doc["mappings"] == []
        assert loads_catalog(dumps_catalog(empty)) == empty

    def test_mangled_document_rejected(self, v13_catalog):
        doc = json.loads(dumps_catalog(v13_catalog))
        del doc["techniques"]  # mappings now reference unknown techniques
        with pytest.raises(CatalogError):
            loads_catalog(json.dumps(doc))
        doc = json.loads(dumps_catalog(v13_catalog))
        del doc["mitigations"][0]["id"]
        with pytest.raises(ParseError):
            loads_catalog(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("name", ["x"], ValidationError),
            ("name", 7, ValidationError),
            ("revoked", "yes", ValidationError),
            ("deprecated", 1, ValidationError),
        ],
    )
    def test_technique_field_types_checked(self, v13_catalog, field, value, error):
        doc = json.loads(dumps_catalog(v13_catalog))
        doc["techniques"][0][field] = value
        with pytest.raises(error, match=field):
            loads_catalog(json.dumps(doc))

    def test_unencodable_name_escape_rejected(self, v13_catalog):
        text = dumps_catalog(v13_catalog).decode("utf-8")
        first_name = '"name": "'
        text = text.replace(first_name, first_name + "\\ud800", 1)
        with pytest.raises(MitiplanError, match="name is not encodable as UTF-8"):
            loads_catalog(text)

    def test_mitigation_name_type_checked(self, v13_catalog):
        doc = json.loads(dumps_catalog(v13_catalog))
        doc["mitigations"][0]["name"] = {"en": "x"}
        with pytest.raises(ValidationError, match="name"):
            loads_catalog(json.dumps(doc))

    @pytest.mark.parametrize(
        "pair",
        [
            [["M1026"], "T1053"],
            ["M1026", "T1053", "X"],
            ["M1026"],
            [],
            [1026, "T1053"],
            "M1026,T1053",
            {"M1026": "T1053"},
            None,
        ],
    )
    def test_mapping_must_be_a_pair_of_strings(self, v13_catalog, pair):
        doc = json.loads(dumps_catalog(v13_catalog))
        doc["mappings"][0] = pair
        with pytest.raises(ParseError, match="mapping"):
            loads_catalog(json.dumps(doc))

    def test_hash_ignores_meta_and_tracks_content(self, v13_catalog):
        base = catalog_sha256(v13_catalog)
        assert base == catalog_sha256(load_catalog_roundtrip(v13_catalog))
        smaller = Catalog(
            v13_catalog.techniques, v13_catalog.mitigations, v13_catalog.mappings[:-1]
        )
        assert catalog_sha256(smaller) != base


def load_catalog_roundtrip(catalog):
    return loads_catalog(dumps_catalog(catalog))
