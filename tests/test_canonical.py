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
    dumps_catalog,
    loads_catalog,
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
