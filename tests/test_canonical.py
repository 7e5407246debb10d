"""Catalogs and weight vectors are canonical by construction.

The constructors take their parts in any order and as any iterable, and
equal content compares, hashes, serializes and digests the same.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from mitiplan.catalog import (
    Catalog,
    Mitigation,
    Technique,
    catalog_sha256,
    collapse_subtechniques,
    dumps_catalog,
    loads_catalog,
    parse_stix_bundle,
)
from mitiplan.fixtures import paper_v13_catalog, paper_v13_weights
from mitiplan.matrix import build_decision_matrix
from mitiplan.mcdm import rank, wsm_scores
from mitiplan.scoring import WeightEntry, WeightVector, weights_sha256

# Each part is handed over as a tuple, a list or a one-shot generator.
_CONTAINERS = (tuple, list, iter)


@st.composite
def _catalog_parts(draw):
    tids = draw(
        st.lists(
            st.integers(1000, 1030).map(lambda k: f"T{k}")
            | st.integers(1000, 1030).map(lambda k: f"T1053.{k - 1000:03d}"),
            unique=True,
            max_size=8,
        )
    )
    mids = draw(
        st.lists(st.integers(1000, 1020).map(lambda k: f"M{k}"), unique=True, max_size=6)
    )
    techniques = [
        Technique(tid, draw(st.text(max_size=4)), draw(st.booleans()), draw(st.booleans()))
        for tid in tids
    ]
    mitigations = [Mitigation(mid, draw(st.text(max_size=4))) for mid in mids]
    pairs = [(mid, tid) for mid in mids for tid in tids]
    mappings = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return techniques, mitigations, mappings


def _shuffled(draw, items, pair_lists=False):
    items = draw(st.permutations(items))
    if pair_lists:
        items = [list(pair) if draw(st.booleans()) else pair for pair in items]
    return draw(st.sampled_from(_CONTAINERS))(items)


@settings(max_examples=200, deadline=None)
@given(parts=_catalog_parts(), data=st.data())
def test_catalog_canonical_whatever_the_order(parts, data):
    techniques, mitigations, mappings = parts
    sorted_catalog = Catalog(
        tuple(sorted(techniques, key=lambda t: t.id)),
        tuple(sorted(mitigations, key=lambda m: m.id)),
        tuple(sorted(mappings)),
    )
    shuffled = Catalog(
        _shuffled(data.draw, techniques),
        _shuffled(data.draw, mitigations),
        _shuffled(data.draw, mappings, pair_lists=True),
    )
    assert shuffled == sorted_catalog
    assert hash(shuffled) == hash(sorted_catalog)
    assert dumps_catalog(shuffled) == dumps_catalog(sorted_catalog)
    assert catalog_sha256(shuffled) == catalog_sha256(sorted_catalog)
    assert loads_catalog(dumps_catalog(shuffled)) == shuffled


def _stix_bundle(techniques, mitigations, mappings):
    """A bundle that ingests, uncollapsed and with deprecated entities
    kept, to exactly these parts."""

    def entity(kind, record, **flags):
        refs = [{"source_name": "mitre-attack", "external_id": record.id}]
        return {"type": kind, "id": f"{kind}--{record.id}", "name": record.name,
                "external_references": refs, **flags}

    objects = [
        entity("attack-pattern", t, revoked=t.revoked, x_mitre_deprecated=t.deprecated)
        for t in techniques
    ]
    objects += [entity("course-of-action", m) for m in mitigations]
    objects += [
        {"type": "relationship", "relationship_type": "mitigates",
         "source_ref": f"course-of-action--{mid}", "target_ref": f"attack-pattern--{tid}"}
        for mid, tid in mappings
    ]
    return {"type": "bundle", "objects": objects}


def _folded(techniques, mappings):
    """Sub-techniques folded into their parents, written out plainly."""
    parents = {t.id: t for t in techniques if "." not in t.id}
    for t in techniques:
        parents.setdefault(t.id.split(".")[0], Technique(t.id.split(".")[0]))
    return list(parents.values()), {(mid, tid.split(".")[0]) for mid, tid in mappings}


@settings(max_examples=200, deadline=None)
@given(parts=_catalog_parts(), data=st.data())
def test_every_construction_route_gives_the_same_catalog(parts, data):
    techniques, mitigations, mappings = parts
    # The records each route reads back are the tuples of sorted records.
    expected = (
        tuple(sorted(techniques, key=lambda t: t.id)),
        tuple(sorted(mitigations, key=lambda m: m.id)),
        tuple(sorted(mappings)),
    )
    catalog = Catalog(
        _shuffled(data.draw, techniques),
        _shuffled(data.draw, mitigations),
        _shuffled(data.draw, mappings, pair_lists=True),
    )
    bundle = _stix_bundle(*(data.draw(st.permutations(part)) for part in parts))
    routes = [
        catalog,
        loads_catalog(dumps_catalog(catalog)),
        parse_stix_bundle(bundle, collapse=False, include_deprecated=True),
    ]
    for built in routes:
        assert built == catalog and hash(built) == hash(catalog)
        assert (built.techniques, built.mitigations, built.mappings) == expected
        assert dumps_catalog(built) == dumps_catalog(catalog)

    folded_techniques, folded_mappings = _folded(techniques, mappings)
    folded = Catalog(folded_techniques, mitigations, folded_mappings)
    collapsed = [
        collapse_subtechniques(route) for route in routes
    ] + [parse_stix_bundle(bundle, include_deprecated=True)]
    for built in collapsed:
        assert built == folded and hash(built) == hash(folded)
        assert built.techniques == tuple(sorted(folded_techniques, key=lambda t: t.id))
        assert built.mappings == tuple(sorted(folded_mappings))
        assert dumps_catalog(built) == dumps_catalog(folded)


@settings(max_examples=200, deadline=None)
@given(
    weights=st.dictionaries(
        st.integers(1000, 1030).map(lambda k: f"T{k}"),
        # A few distinct values, so ties are common.
        st.sampled_from([0.5, 1.0, 1.5, 2.951542857, 1e-300, 1e300]),
        min_size=1,
        max_size=10,
    ),
    data=st.data(),
)
def test_weight_vector_canonical_whatever_the_order(weights, data):
    entries = [WeightEntry(tid, weight) for tid, weight in weights.items()]
    expected = sorted(entries, key=lambda e: (-e.weight, e.technique_id))
    vector = WeightVector(_shuffled(data.draw, entries))
    assert vector.entries == tuple(expected)
    assert vector == WeightVector(tuple(expected))
    assert hash(vector) == hash(WeightVector(tuple(expected)))
    assert weights_sha256(vector) == weights_sha256(WeightVector(tuple(expected)))


def test_comparing_plans_hashes_nothing(hash_calls):
    plans = []
    for _ in range(2):
        matrix = build_decision_matrix(paper_v13_catalog(), paper_v13_weights())
        plans.append(rank(wsm_scores(matrix), matrix))
    first, again = plans
    assert first.provenance.catalog is not again.provenance.catalog
    assert first == again
    assert hash_calls == {"catalog": 0, "weights": 0}
    assert first.catalog_hash == again.catalog_hash
    assert first.weights_hash == again.weights_hash
