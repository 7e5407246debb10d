"""The document loaders run with the cyclic garbage collector paused.

``parse_stix_bundle``, ``loads_catalog`` and ``load_weights`` allocate
thousands of acyclic containers per call.  They switch automatic
collection off while they run and leave the switch as they found it,
and they build no reference cycles, so the pause leaves nothing behind
for the collector to find.
"""

from __future__ import annotations

import gc
import json

import pytest

from helpers import enterprise_catalog_and_weights, enterprise_stix_bundle

from mitiplan.catalog import dumps_catalog, loads_catalog, parse_stix_bundle
from mitiplan.errors import ParseError
from mitiplan.scoring import load_weights, render_weights_csv

DEFAULT_THRESHOLDS = (700, 10, 10)


@pytest.fixture(scope="module")
def documents():
    """Enterprise-size inputs per loader, and one that makes it raise."""
    bundle = enterprise_stix_bundle()
    doc = json.loads(bundle)
    doc["objects"].insert(len(doc["objects"]) - 10, 5)  # malformed, late in the loop
    catalog, weights = enterprise_catalog_and_weights()
    catalog_json = dumps_catalog(catalog)
    weights_csv = render_weights_csv(weights)
    return {
        "parse_stix_bundle": (bundle, json.dumps(doc).encode("utf-8")),
        "loads_catalog": (catalog_json, catalog_json[:-3]),
        "load_weights": (weights_csv, weights_csv + b"801,-1.0,T9999,x\n"),
    }


LOADERS = {
    "parse_stix_bundle": parse_stix_bundle,
    "loads_catalog": loads_catalog,
    "load_weights": load_weights,
}
CASES = [
    pytest.param(name, fails, id=f"{name}-{'raises' if fails else 'returns'}")
    for name in LOADERS
    for fails in (False, True)
]


def _call(name, fails, documents):
    """Run one loader on its good or bad input; True when it raised."""
    data = documents[name][fails]
    try:
        LOADERS[name](data)
    except ParseError:
        return True
    return False


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("name, fails", CASES)
def test_leaves_collector_as_found(name, fails, enabled, documents):
    if not enabled:
        gc.disable()
    try:
        raised = _call(name, fails, documents)
        after = gc.isenabled()
    finally:
        gc.enable()
    assert raised is fails
    assert after is enabled


@pytest.mark.parametrize("name, fails", CASES)
def test_leaves_no_cyclic_garbage(name, fails, documents):
    gc.collect()
    gc.disable()
    try:
        raised = _call(name, fails, documents)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert raised is fails
    assert garbage == 0


def test_no_collection_starts_during_stix_parse(documents):
    bundle = documents["parse_stix_bundle"][0]
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    saved = gc.get_threshold()
    gc.set_threshold(*DEFAULT_THRESHOLDS)
    gc.callbacks.append(count)
    try:
        assert gc.isenabled()
        catalog = parse_stix_bundle(bundle)
        during = len(starts)
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*saved)
    assert len(catalog.techniques) > 100
    assert during == 0


def test_wrapped_loaders_keep_their_names():
    for name, loader in LOADERS.items():
        assert loader.__name__ == name
        assert loader.__wrapped__.__name__ == name
