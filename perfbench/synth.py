"""Seeded synthetic inputs the size of ATT&CK Enterprise.

One seed fixes every byte: a STIX 2.1 bundle (attack-pattern,
course-of-action and relationship objects), a weights CSV over every
technique in it, and a campaign of techniques that each have at least
two mitigations.  Only the standard library's ``random.Random`` is used,
so the bytes do not depend on the NumPy version.
"""

from __future__ import annotations

import hashlib
import json
import random
import uuid
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

PARENTS = 200
SUBTECHNIQUES = 600
MITIGATIONS = 45
PAIRS = 1600
REVOKED = 8
CAMPAIGN_SIZE = 20
CAMPAIGN_MIN_MITIGATIONS = 2

CREATED = "2023-04-25T00:00:00.000Z"
WORDS = (
    "adversaries may abuse system services scheduled tasks credentials "
    "registry processes network shares to execute persist escalate evade "
    "discover collect exfiltrate command control"
).split()


@dataclass(frozen=True)
class InputSet:
    """Named input files plus the facts a check needs about them."""

    files: dict[str, bytes]
    campaign: tuple[str, ...] = ()
    techniques: tuple[str, ...] = ()
    mitigations: tuple[str, ...] = ()
    pairs: tuple[tuple[str, str], ...] = ()

    def write(self, directory: Path) -> dict[str, Path]:
        directory.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, data in self.files.items():
            paths[name] = directory / name
            paths[name].write_bytes(data)
        return paths


def describe(files: dict[str, bytes]) -> dict:
    """Size and SHA-256 of every file, for the run record."""
    return {
        name: {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
        for name, data in sorted(files.items())
    }


def _stix_id(rng: random.Random, kind: str) -> str:
    return f"{kind}--{uuid.UUID(int=rng.getrandbits(128), version=4)}"


def _description(rng: random.Random) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(12, 40))) + "."


def _technique_ids(rng: random.Random) -> list[str]:
    parents = [f"T{1000 + i}" for i in range(PARENTS)]
    per_parent = Counter(rng.randrange(PARENTS) for _ in range(SUBTECHNIQUES))
    subs = [
        f"{parents[p]}.{n:03d}"
        for p, count in sorted(per_parent.items())
        for n in range(1, count + 1)
    ]
    return parents + subs


def _attack_pattern(rng, tid, revoked=False):
    obj = {
        "type": "attack-pattern",
        "spec_version": "2.1",
        "id": _stix_id(rng, "attack-pattern"),
        "created": CREATED,
        "modified": CREATED,
        "name": f"Technique {tid}",
        "description": _description(rng),
        "x_mitre_is_subtechnique": "." in tid,
        "external_references": [
            {
                "source_name": "mitre-attack",
                "external_id": tid,
                "url": f"https://attack.mitre.org/techniques/{tid.replace('.', '/')}",
            }
        ],
    }
    if revoked:
        obj["revoked"] = True
    return obj


def _relationship(rng, kind, source, target):
    return {
        "type": "relationship",
        "spec_version": "2.1",
        "id": _stix_id(rng, "relationship"),
        "created": CREATED,
        "modified": CREATED,
        "relationship_type": kind,
        "source_ref": source,
        "target_ref": target,
    }


def enterprise_inputs(seed: int) -> InputSet:
    """Bundle, weights and campaign for one seed.

    800 techniques (600 sub-techniques), 45 mitigations and 1,600
    distinct ``mitigates`` pairs.  Mitigation popularity is skewed, so
    some techniques have no mitigation at all and are dropped from the
    decision matrix.  The bundle also carries ``subtechnique-of``
    relationships and a few revoked techniques, as real releases do.
    """
    rng = random.Random(seed)
    tids = _technique_ids(rng)
    mids = [f"M{1000 + i}" for i in range(MITIGATIONS)]
    popularity = [rng.gammavariate(1.5, 1.0) for _ in mids]
    pairs: set[tuple[str, str]] = set()
    while len(pairs) < PAIRS:
        pairs.add((rng.choices(mids, popularity)[0], rng.choice(tids)))

    techniques = {tid: _attack_pattern(rng, tid) for tid in tids}
    mitigations = {
        mid: {
            "type": "course-of-action",
            "spec_version": "2.1",
            "id": _stix_id(rng, "course-of-action"),
            "created": CREATED,
            "modified": CREATED,
            "name": f"Mitigation {mid}",
            "description": _description(rng),
            "external_references": [{"source_name": "mitre-attack", "external_id": mid}],
        }
        for mid in mids
    }
    revoked = [
        _attack_pattern(rng, f"T{1900 + i}", revoked=True) for i in range(REVOKED)
    ]
    relationships = [
        _relationship(rng, "mitigates", mitigations[mid]["id"], techniques[tid]["id"])
        for mid, tid in sorted(pairs)
    ]
    relationships += [
        _relationship(rng, "mitigates", mitigations[rng.choice(mids)]["id"], obj["id"])
        for obj in revoked
    ]
    relationships += [
        _relationship(
            rng, "subtechnique-of", techniques[tid]["id"], techniques[tid[:5]]["id"]
        )
        for tid in tids
        if "." in tid
    ]
    objects = list(techniques.values()) + revoked + list(mitigations.values())
    objects += relationships
    rng.shuffle(objects)
    bundle = {"type": "bundle", "id": _stix_id(rng, "bundle"), "objects": objects}

    scores = sorted(
        ((round(rng.uniform(0.5, 20.0), 6), tid) for tid in tids),
        key=lambda item: (-item[0], item[1]),
    )
    weights = "no,score,tid,name\n" + "".join(
        f"{no},{score!r},{tid},Technique {tid}\n"
        for no, (score, tid) in enumerate(scores, start=1)
    )

    per_technique = Counter(tid for _, tid in pairs)
    eligible = sorted(t for t in tids if per_technique[t] >= CAMPAIGN_MIN_MITIGATIONS)
    campaign = tuple(sorted(rng.sample(eligible, CAMPAIGN_SIZE)))

    return InputSet(
        files={
            "bundle.json": json.dumps(bundle, indent=1).encode("utf-8"),
            "weights.csv": weights.encode("utf-8"),
            "campaign.txt": (",".join(campaign) + "\n").encode("utf-8"),
        },
        campaign=campaign,
        techniques=tuple(sorted(tids)),
        mitigations=tuple(mids),
        pairs=tuple(sorted(pairs)),
    )
