"""Random-instance generators shared between property tests."""

from __future__ import annotations

import json
import uuid

import numpy as np

from mitiplan.catalog import Catalog, Mitigation, Technique
from mitiplan.matrix import DecisionMatrix
from mitiplan.scoring import WeightEntry, WeightVector


def random_decision_matrix(rng, max_m=5, max_n=5, zero_prob=0.35):
    """Small random matrix; every column keeps at least one nonzero cell."""
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(1, max_n + 1))
    coverage = np.zeros((m, n))
    for j in range(n):
        nonzero = rng.random(m) >= zero_prob
        if not nonzero.any():
            nonzero[int(rng.integers(0, m))] = True
        values = rng.uniform(0.05, 1.0, size=m)
        coverage[:, j] = np.where(nonzero, values, 0.0)
    weights = rng.uniform(0.05, 3.0, size=n)
    return DecisionMatrix(
        mitigation_ids=tuple(f"M{1000 + i}" for i in range(m)),
        technique_ids=tuple(f"T{1000 + j}" for j in range(n)),
        coverage=coverage,
        weights=weights,
    )


def random_catalog_and_weights(rng, max_t=6, max_m=7):
    """Random catalog plus positive weights over its techniques."""
    n = int(rng.integers(2, max_t + 1))
    m = int(rng.integers(2, max_m + 1))
    tids = [f"T{1100 + j}" for j in range(n)]
    mids = [f"M{1100 + i}" for i in range(m)]
    mappings = set()
    for mid in mids:
        picks = int(rng.integers(0, n + 1))
        for tid in rng.choice(tids, size=picks, replace=False):
            mappings.add((mid, str(tid)))
    catalog = Catalog(
        [Technique(tid, "") for tid in tids],
        [Mitigation(mid, "") for mid in mids],
        mappings,
    )
    weights = WeightVector(
        [WeightEntry(tid, float(rng.uniform(0.1, 3.0)), "") for tid in tids]
    )
    return catalog, weights


# Name fragments that exercise every JSON string escape the canonical
# catalog writer can meet: non-ASCII (BMP and astral), quote, backslash,
# C0 control characters, DEL and the Unicode line separators.
ODD_NAME_PARTS = (
    "Scheduled Task",
    "Tâche planifiée",
    "計画タスク",
    'say "hi"',
    "back\\slash",
    "tab\there",
    "nul\x00bell\x07",
    "esc\x1b[0m",
    "line\nbreak\r",
    "del\x7f",
    "\u2028sep\u2029",
    "lock \U0001f512",
    "",
)


def _odd_name(rng, stem):
    picks = rng.choice(len(ODD_NAME_PARTS), size=int(rng.integers(0, 3)))
    return " ".join([stem] + [ODD_NAME_PARTS[int(k)] for k in picks])


def enterprise_catalog_and_weights(seed=2024):
    """Seeded catalog and weights the size of ATT&CK Enterprise.

    ``random_catalog_and_weights`` scaled up: 800 techniques (200 parents,
    600 sub-techniques), 45 mitigations and 1,600 distinct pairs drawn
    with skewed mitigation popularity, so some techniques stay unmapped
    and drop out of the decision matrix.  Names mix in
    ``ODD_NAME_PARTS``; a few techniques are revoked or deprecated.
    Weights cover every technique and are rounded so that some tie.
    """
    rng = np.random.default_rng(seed)
    parents = [f"T{1000 + i}" for i in range(200)]
    per_parent = np.bincount(rng.integers(0, 200, size=600), minlength=200)
    tids = parents + [
        f"{parents[p]}.{k:03d}"
        for p in range(200)
        for k in range(1, int(per_parent[p]) + 1)
    ]
    mids = [f"M{1000 + i}" for i in range(45)]
    popularity = rng.gamma(1.5, size=len(mids))
    mappings = set()
    while len(mappings) < 1600:
        rows = rng.choice(len(mids), size=256, p=popularity / popularity.sum())
        cols = rng.integers(0, len(tids), size=256)
        for i, j in zip(rows, cols):
            if len(mappings) < 1600:
                mappings.add((mids[int(i)], tids[int(j)]))
    techniques = [
        Technique(
            tid,
            _odd_name(rng, f"Technique {tid}"),
            revoked=bool(rng.random() < 0.02),
            deprecated=bool(rng.random() < 0.02),
        )
        for tid in tids
    ]
    mitigations = [Mitigation(mid, _odd_name(rng, f"Mitigation {mid}")) for mid in mids]
    catalog = Catalog(techniques, mitigations, mappings)
    weights = WeightVector(
        [
            WeightEntry(tid, round(float(rng.uniform(0.5, 20.0)), 2), "")
            for tid in tids
        ]
    )
    return catalog, weights


def _stix_object(rng, kind, **props):
    stix_id = f"{kind}--{uuid.UUID(bytes=rng.bytes(16), version=4)}"
    return {"type": kind, "spec_version": "2.1", "id": stix_id, **props}


def _attack_refs(attack_id):
    return [{"source_name": "mitre-attack", "external_id": attack_id}]


def enterprise_stix_bundle(seed=2024):
    """STIX 2.1 bundle (JSON bytes) of ``enterprise_catalog_and_weights(seed)``.

    Every technique becomes an ``attack-pattern`` carrying its name and
    revoked/deprecated flags, every mitigation a ``course-of-action`` and
    every pair a ``mitigates`` relationship.  As in real releases, the
    bundle also holds ``subtechnique-of`` and ``uses`` relationships, an
    identity, a marking definition and tactics, an object without an
    ATT&CK ID and ``mitigates`` relationships to objects it does not
    contain.  Ingested with ``collapse=False, include_deprecated=True``
    it gives back the catalog.
    """
    catalog, _ = enterprise_catalog_and_weights(seed)
    rng = np.random.default_rng([seed, 1])
    techniques = {}
    for tech in catalog.techniques:
        props = {"name": tech.name, "external_references": _attack_refs(tech.id)}
        if tech.revoked:
            props["revoked"] = True
        if tech.deprecated:
            props["x_mitre_deprecated"] = True
        techniques[tech.id] = _stix_object(
            rng, "attack-pattern", description=f"How {tech.id} works.", **props
        )
    mitigations = {
        mit.id: _stix_object(
            rng,
            "course-of-action",
            name=mit.name,
            description=f"How {mit.id} helps.",
            external_references=_attack_refs(mit.id),
        )
        for mit in catalog.mitigations
    }
    ghosts = [f"attack-pattern--{uuid.UUID(bytes=rng.bytes(16), version=4)}"
              for _ in range(5)]

    def relationship(kind, source, target):
        return _stix_object(
            rng, "relationship", relationship_type=kind, source_ref=source,
            target_ref=target,
        )

    objects = list(techniques.values()) + list(mitigations.values())
    objects += [
        relationship("mitigates", mitigations[mid]["id"], techniques[tid]["id"])
        for mid, tid in catalog.mappings
    ]
    objects += [
        relationship("subtechnique-of", obj["id"], techniques[tid.split(".")[0]]["id"])
        for tid, obj in techniques.items()
        if "." in tid
    ]
    objects += [
        relationship("mitigates", mitigations[catalog.mitigations[k].id]["id"], ghost)
        for k, ghost in enumerate(ghosts)
    ]
    objects += [
        relationship("uses", ghosts[0], techniques[catalog.techniques[k].id]["id"])
        for k in range(3)
    ]
    objects += [
        _stix_object(rng, "identity", name="The MITRE Corporation"),
        _stix_object(rng, "marking-definition", definition_type="statement"),
        _stix_object(rng, "attack-pattern", name="CAPEC only",
                     external_references=[{"source_name": "capec",
                                           "external_id": "CAPEC-1"}]),
    ]
    objects += [
        _stix_object(rng, "x-mitre-tactic", name=name,
                     external_references=[{"source_name": "mitre-attack",
                                           "external_id": f"TA000{k}"}])
        for k, name in enumerate(("Execution", "Persistence", "Defense Evasion"), 2)
    ]
    order = rng.permutation(len(objects))
    bundle = {
        "type": "bundle",
        "id": f"bundle--{uuid.UUID(bytes=rng.bytes(16), version=4)}",
        "objects": [objects[int(k)] for k in order],
    }
    return json.dumps(bundle, indent=1).encode("utf-8")
