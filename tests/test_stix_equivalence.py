"""``parse_stix_bundle`` against the ingest it replaced.

``oracles.oracle_parse_stix_bundle`` is the earlier multi-pass parser,
kept verbatim.  On generated bundles full of the cases ingest has to
get right, both must give equal catalogs, equal ``meta`` (warnings in
the same order) and identical canonical bytes, or raise the same
exception with the same message.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import enterprise_catalog_and_weights, enterprise_stix_bundle
from oracles import oracle_parse_stix_bundle

from mitiplan.catalog import dumps_catalog, parse_stix_bundle

# Small pools, so that objects share STIX IDs and ATT&CK IDs and
# relationships hit, miss and cross entity kinds.
PATTERN_IDS = ("attack-pattern--1", "attack-pattern--2", "attack-pattern--3")
COURSE_IDS = ("course-of-action--1", "course-of-action--2")
ODD_STIX_IDS = ("identity--1", "attack-pattern--9")
TECHNIQUE_IDS = ("T1053", "T1053.005", "T1059", "T1059.001", "T1566.001")
MITIGATION_IDS = ("M1026", "M1038")
BAD_ATTACK_IDS = ("T105", "M10266", "T1053\n", "TA0002", "", 0, 5, ["T1053"])
NAMES = ("", "Scheduled Task", "Tâche planifiée", "lock \U0001f512")
BAD_NAMES = (None, 7, ["x"], "x\ud800")
BAD_FLAGS = (None, 0, 1, "yes")
ABSENT = object()


def _put(obj, key, value):
    if value is not ABSENT:
        obj[key] = value
    return obj


def _mostly(good, bad, odds=6):
    """Draw from ``good`` about ``odds`` times as often as from ``bad``."""
    return st.sampled_from(tuple(good) * odds + tuple(bad))


@st.composite
def external_references(draw, attack_ids):
    # Rare cases test for a middle value of a range: Hypothesis draws the
    # ends of a range more often than the rest.
    refs = []
    if draw(st.integers(0, 5)) == 3:
        source = draw(st.sampled_from(("capec", None, ABSENT)))
        refs.append(_put({"external_id": "CAPEC-1"}, "source_name", source))
    if draw(st.integers(0, 9)) == 7:
        refs.append("not-a-reference")
    ref = {"source_name": "mitre-attack"}
    _put(ref, "external_id", draw(_mostly(attack_ids, BAD_ATTACK_IDS + (None, ABSENT), 12)))
    refs.append(ref)
    # Mostly a list; sometimes absent, null or not an array at all.
    return draw(_mostly([refs], (ABSENT, None, 5, {"x": 1}), odds=80))


@st.composite
def entity_objects(draw):
    kind = draw(st.sampled_from(("attack-pattern", "course-of-action")))
    if kind == "attack-pattern":
        stix_ids, attack_ids = PATTERN_IDS, TECHNIQUE_IDS
    else:
        stix_ids, attack_ids = COURSE_IDS, MITIGATION_IDS
    obj = {"type": kind}
    _put(obj, "id", draw(_mostly(stix_ids, ODD_STIX_IDS + (ABSENT, 7), odds=40)))
    _put(obj, "external_references", draw(external_references(attack_ids + attack_ids[:1])))
    _put(obj, "name", draw(_mostly(NAMES + (ABSENT,), BAD_NAMES, odds=8)))
    for flag in ("revoked", "x_mitre_deprecated"):
        _put(obj, flag, draw(_mostly((ABSENT,) * 10 + (False, True), BAD_FLAGS, odds=4)))
    return obj


@st.composite
def relationship_objects(draw):
    # Endpoints are strings, null or absent; a reference of another JSON
    # type is a parse error the earlier parser did not catch (see
    # test_catalog.TestStixIngest.test_non_string_ref_names_index).
    odd = ODD_STIX_IDS + (None, ABSENT)
    obj = {"type": "relationship", "id": "relationship--x"}
    kind = draw(_mostly(["mitigates"], ("subtechnique-of", "uses", None, ABSENT)))
    _put(obj, "relationship_type", kind)
    _put(obj, "source_ref", draw(_mostly(COURSE_IDS, odd + PATTERN_IDS[:1], odds=8)))
    _put(obj, "target_ref", draw(_mostly(PATTERN_IDS, odd + COURSE_IDS[:1], odds=8)))
    return obj


other_objects = st.sampled_from(
    (
        {"type": "identity", "id": "identity--1"},
        {"type": "x-mitre-tactic", "id": "x-mitre-tactic--1"},
        {"type": "marking-definition"},
    )
)
malformed_objects = st.sampled_from(("not-an-object", {"id": "x"}, {"type": 5}, None))


@st.composite
def bundles(draw):
    objects = draw(
        st.lists(
            st.one_of(
                entity_objects(),
                entity_objects(),
                relationship_objects(),
                relationship_objects(),
                relationship_objects(),
                other_objects,
            ),
            min_size=8,
            max_size=24,
        )
    )
    if draw(st.integers(0, 19)) == 7:
        objects.insert(draw(st.integers(0, len(objects))), draw(malformed_objects))
    return {"type": "bundle", "id": "bundle--0", "objects": objects}


def _outcome(parse, data, collapse, include_deprecated):
    try:
        catalog = parse(data, collapse=collapse, include_deprecated=include_deprecated)
    except Exception as exc:  # noqa: BLE001 - compared by type and message
        return ("raised", type(exc), str(exc))
    return ("parsed", catalog, catalog.meta, dumps_catalog(catalog))


def _assert_same(data, collapse, include_deprecated):
    got = _outcome(parse_stix_bundle, data, collapse, include_deprecated)
    want = _outcome(oracle_parse_stix_bundle, data, collapse, include_deprecated)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(bundle=bundles(), collapse=st.booleans(), include_deprecated=st.booleans(),
       as_text=st.booleans())
def test_matches_oracle_on_generated_bundles(bundle, collapse, include_deprecated, as_text):
    data = json.dumps(bundle) if as_text else bundle
    _assert_same(data, collapse, include_deprecated)


@pytest.mark.parametrize(
    "data",
    [
        b"{not json",
        b"[]",
        {"type": "malware"},
        {"type": "bundle"},
        {"type": "bundle", "objects": {}},
        {"type": "bundle", "objects": []},
    ],
)
def test_matches_oracle_on_bundle_level_errors(data):
    for collapse in (True, False):
        _assert_same(data, collapse, False)


@pytest.fixture(scope="module")
def enterprise_bundle():
    return enterprise_stix_bundle()


@pytest.mark.parametrize("collapse", [True, False])
@pytest.mark.parametrize("include_deprecated", [True, False])
def test_matches_oracle_on_enterprise_bundle(enterprise_bundle, collapse, include_deprecated):
    _assert_same(enterprise_bundle, collapse, include_deprecated)


# SHA-256 of dumps_catalog(parse_stix_bundle(enterprise_stix_bundle())).
ENTERPRISE_INGEST_SHA256 = "ebdad481276d336b6abe5fc6a5442ae5237a0e8c66925ae1c5df5d07a4ee579c"


def test_enterprise_bundle_ingest_golden(enterprise_bundle):
    catalog = parse_stix_bundle(enterprise_bundle)
    assert hashlib.sha256(dumps_catalog(catalog)).hexdigest() == ENTERPRISE_INGEST_SHA256
    # 600 subtechnique-of, 3 uses, identity, marking, CAPEC-only pattern, 3 tactics.
    assert catalog.meta.skipped_objects == 609
    assert catalog.meta.dangling_refs == 5


def test_enterprise_bundle_gives_back_its_catalog(enterprise_bundle):
    catalog, _ = enterprise_catalog_and_weights()
    ingested = parse_stix_bundle(enterprise_bundle, collapse=False, include_deprecated=True)
    assert ingested == catalog
    assert dumps_catalog(ingested) == dumps_catalog(catalog)
