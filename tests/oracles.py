"""Brute-force reference implementations for cross-checking.

Coded independently of the library: plain loops over plain lists, no
shared helpers, so an error in the library cannot cancel out here.
"""

from __future__ import annotations

import json
import math

import numpy as np

from mitiplan.catalog import (
    Catalog,
    IngestStats,
    Mitigation,
    Technique,
    is_subtechnique,
    parent_technique,
    parse_mitigation_id,
    parse_technique_id,
)
from mitiplan.errors import ParseError, ValidationError


def oracle_wsm(u, w):
    """Row totals of the weighted matrix, one loop at a time."""
    return [sum(row[j] * w[j] for j in range(len(w))) for row in u]


def oracle_wsm_double(u, w):
    """The literal double-weighted variant: cells w_j*u_ij times w_j again."""
    return [sum(row[j] * w[j] * w[j] for j in range(len(w))) for row in u]


def oracle_wpm(u, w, epsilon=None):
    """Weighted product with normalized exponents; epsilon replaces zero
    cells (None means zeros are a caller bug)."""
    total = sum(w)
    scores = []
    for row in u:
        product = 1.0
        for j in range(len(w)):
            x = row[j]
            if x == 0:
                if epsilon is None:
                    raise ValueError("zero cell without epsilon")
                x = epsilon
            product *= x ** (w[j] / total)
        scores.append(product)
    return scores


def oracle_topsis(u, w):
    """Step-by-step TOPSIS closeness on benefit criteria."""
    m = len(u)
    n = len(w)
    total = sum(w)
    norms = [math.sqrt(sum(u[i][j] ** 2 for i in range(m))) for j in range(n)]
    v = [[u[i][j] / norms[j] * (w[j] / total) for j in range(n)] for i in range(m)]
    ideal = [max(v[i][j] for i in range(m)) for j in range(n)]
    anti = [min(v[i][j] for i in range(m)) for j in range(n)]
    scores = []
    for i in range(m):
        d_plus = math.sqrt(sum((v[i][j] - ideal[j]) ** 2 for j in range(n)))
        d_minus = math.sqrt(sum((v[i][j] - anti[j]) ** 2 for j in range(n)))
        if d_plus + d_minus == 0:
            scores.append(0.5)
        else:
            scores.append(d_minus / (d_plus + d_minus))
    return scores


def oracle_steps_to_block(order, covers, techniques, threshold):
    """Smallest prefix of `order` that gives every technique at least
    `threshold` covering mitigations; None if even the full order fails.

    Checks every prefix from scratch rather than keeping running counts.
    """
    for end in range(1, len(order) + 1):
        prefix = order[:end]
        if all(
            sum(1 for mid in prefix if tid in covers.get(mid, ())) >= threshold
            for tid in techniques
        ):
            return end
    return None


def oracle_trial_orders(m, trials, seed):
    """Monte Carlo trial orders by the documented stream contract: row t
    is ``Generator(Philox(key=[seed, t])).permutation(m)``, built with
    one NumPy generator per trial."""
    orders = np.empty((trials, m), dtype=np.int64)
    for t in range(trials):
        key = np.array([seed, t], dtype=np.uint64)
        orders[t] = np.random.Generator(np.random.Philox(key=key)).permutation(m)
    return orders


def oracle_dumps_catalog(catalog):
    """Canonical catalog bytes as the standard library's JSON encoder
    writes them: sorted keys, two-space indent, non-ASCII kept."""
    doc = {
        "schema_version": 1,
        "techniques": [
            {
                "id": t.id,
                "name": t.name,
                "revoked": t.revoked,
                "deprecated": t.deprecated,
            }
            for t in catalog.techniques
        ],
        "mitigations": [{"id": m.id, "name": m.name} for m in catalog.mitigations],
        "mappings": [[mid, tid] for mid, tid in catalog.mappings],
    }
    text = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)
    return (text + "\n").encode("utf-8")


# The STIX ingest as it was before the single-pass rewrite, kept verbatim
# (with the helpers it called) as the reference the rewrite must match:
# equal catalogs, equal ``meta`` and the same exceptions.


def _check_type(entity_id: str, field_name: str, value, kind: type) -> None:
    if not isinstance(value, kind):
        raise ValidationError(
            f"{entity_id}: {field_name} must be a {kind.__name__}, got {value!r}"
        )


def _check_name(entity_id: str, name) -> None:
    """A name must be a str that UTF-8 can encode (no lone surrogates),
    because catalogs and plans are written as UTF-8."""
    _check_type(entity_id, "name", name, str)
    try:
        name.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValidationError(
            f"{entity_id}: name is not encodable as UTF-8 "
            f"({exc.reason} at index {exc.start})"
        ) from None


def _collapse_subtechniques(catalog: Catalog) -> Catalog:
    """Fold every sub-technique into its parent technique.

    The parent is ensured present (created with an empty name when the
    source had no parent-level entry), mappings are re-targeted to the
    parent, and duplicates arising from the fold are dropped.  Collapsing
    an already collapsed catalog is a no-op.
    """
    by_id = {t.id: t for t in catalog.techniques}
    techniques: dict[str, Technique] = {}
    for tech in catalog.techniques:
        if is_subtechnique(tech.id):
            parent_id = parent_technique(tech.id)
            if parent_id not in by_id:
                techniques.setdefault(parent_id, Technique(id=parent_id))
        else:
            techniques[tech.id] = tech
    mappings = {(mid, parent_technique(tid)) for mid, tid in catalog.mappings}
    return Catalog(
        techniques.values(), catalog.mitigations, mappings, meta=catalog.meta
    )


def _external_attack_id(obj: dict, index: int) -> str | None:
    refs = obj.get("external_references")
    if refs is None:
        return None
    if not isinstance(refs, list):
        raise ParseError(
            f"malformed bundle object at index {index}: "
            "external_references must be an array"
        )
    for ref in refs:
        if isinstance(ref, dict) and ref.get("source_name") == "mitre-attack":
            ext = ref.get("external_id")
            if ext:
                return ext
    return None


# STIX properties read into entity fields: (property, type, default when
# absent or null).
_ENTITY_FIELDS = (
    ("name", str, ""),
    ("revoked", bool, False),
    ("x_mitre_deprecated", bool, False),
)


def _entity_fields(obj: dict, attack_id: str) -> tuple[str, bool, bool]:
    """An object's name and revoked/deprecated flags, type-checked."""
    values = []
    for prop, kind, default in _ENTITY_FIELDS:
        value = obj.get(prop)
        if value is None:
            value = default
        _check_type(attack_id, prop, value, kind)
        values.append(value)
    _check_name(attack_id, values[0])
    return tuple(values)


def oracle_parse_stix_bundle(
    data: bytes | str | dict,
    *,
    collapse: bool = True,
    include_deprecated: bool = False,
) -> Catalog:
    """Extract a catalog from a STIX 2.1 bundle.

    Techniques come from ``attack-pattern`` objects and mitigations from
    ``course-of-action`` objects, identified by their ``mitre-attack``
    external reference.  Mappings come from ``mitigates`` relationships.
    Objects flagged ``revoked`` or ``x_mitre_deprecated`` are dropped
    unless ``include_deprecated``.  With ``collapse`` (the default),
    sub-techniques are folded into their parents.

    Relationships whose endpoints cannot be resolved are skipped and
    counted in ``catalog.meta``; a structurally malformed bundle raises
    :class:`ParseError` naming the offending object index.
    """
    if isinstance(data, (bytes, str)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bundle is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("type") != "bundle":
        raise ParseError("not a STIX bundle: top-level type must be 'bundle'")
    objects = data.get("objects")
    if not isinstance(objects, list):
        raise ParseError("not a STIX bundle: 'objects' must be an array")

    techniques: dict[str, Technique] = {}  # stix id -> entity
    mitigations: dict[str, Mitigation] = {}
    dropped: set[str] = set()  # stix ids dropped by the revoked/deprecated filter
    relationships: list[tuple[int, dict]] = []
    skipped = 0
    warnings: list[str] = []

    for index, obj in enumerate(objects):
        if not isinstance(obj, dict) or not isinstance(obj.get("type"), str):
            raise ParseError(f"malformed bundle object at index {index}")
        obj_type = obj["type"]
        if obj_type == "relationship":
            relationships.append((index, obj))
            continue
        if obj_type not in ("attack-pattern", "course-of-action"):
            skipped += 1
            continue
        stix_id = obj.get("id")
        if not isinstance(stix_id, str):
            raise ParseError(f"malformed bundle object at index {index}: missing id")
        attack_id = _external_attack_id(obj, index)
        if attack_id is None:
            skipped += 1
            continue
        try:
            name, revoked, deprecated = _entity_fields(obj, attack_id)
        except ValidationError as exc:
            skipped += 1
            warnings.append(f"object {index}: {exc}")
            continue
        if (revoked or deprecated) and not include_deprecated:
            dropped.add(stix_id)
            continue
        try:
            if obj_type == "attack-pattern":
                techniques[stix_id] = Technique(
                    id=parse_technique_id(attack_id),
                    name=name,
                    revoked=revoked,
                    deprecated=deprecated,
                )
            else:
                mitigations[stix_id] = Mitigation(
                    id=parse_mitigation_id(attack_id), name=name
                )
        except ValidationError:
            skipped += 1
            warnings.append(f"object {index}: unrecognized ATT&CK ID {attack_id!r}")

    mappings: set[tuple[str, str]] = set()
    dangling = 0
    for index, rel in relationships:
        if rel.get("relationship_type") != "mitigates":
            skipped += 1
            continue
        source = rel.get("source_ref")
        target = rel.get("target_ref")
        if source in dropped or target in dropped:
            continue  # endpoint filtered out together with its mappings
        mitigation = mitigations.get(source)
        technique = techniques.get(target)
        if mitigation is None or technique is None:
            dangling += 1
            warnings.append(f"relationship at index {index}: unresolved endpoint")
            continue
        mappings.add((mitigation.id, technique.id))

    # Distinct STIX objects can carry the same ATT&CK ID (re-released
    # entities); keep the first occurrence of each ID.
    uniq_techniques: dict[str, Technique] = {}
    for tech in techniques.values():
        uniq_techniques.setdefault(tech.id, tech)
    uniq_mitigations: dict[str, Mitigation] = {}
    for mit in mitigations.values():
        uniq_mitigations.setdefault(mit.id, mit)

    catalog = Catalog(
        uniq_techniques.values(),
        uniq_mitigations.values(),
        mappings,
        meta=IngestStats(
            skipped_objects=skipped,
            dangling_refs=dangling,
            warnings=tuple(warnings),
        ),
    )
    if collapse:
        catalog = _collapse_subtechniques(catalog)
    return catalog

