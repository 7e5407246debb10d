"""ATT&CK catalog model: techniques, mitigations, and their mapping.

A :class:`Catalog` is an immutable, canonically ordered snapshot of the
bipartite technique/mitigation graph.  It can be built from a STIX 2.1
bundle (the format ATT&CK releases are published in), from a pair of CSV
fixtures, or loaded from the canonical JSON form written by
:func:`save_catalog`.
"""

from __future__ import annotations

import functools
import gc
import json
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path

from .errors import CatalogError, ParseError, SchemaVersionError, ValidationError

CATALOG_SCHEMA_VERSION = 1

# ASCII digits only, matched against the whole string: `\d` also takes
# other scripts' digits and `$` a trailing newline.
_TECHNIQUE_ID_RE = re.compile(r"T[0-9]{4}(?:\.[0-9]{3})?")
_MITIGATION_ID_RE = re.compile(r"M[0-9]{4}")
_is_technique_id = _TECHNIQUE_ID_RE.fullmatch
_is_mitigation_id = _MITIGATION_ID_RE.fullmatch


def parse_technique_id(value: str) -> str:
    """Validate a technique ID (``T1053`` or sub-technique ``T1053.005``)."""
    if not isinstance(value, str) or not _TECHNIQUE_ID_RE.fullmatch(value):
        raise ValidationError(f"invalid technique ID: {value!r}")
    return value


def parse_mitigation_id(value: str) -> str:
    """Validate a mitigation ID (``M1047``)."""
    if not isinstance(value, str) or not _MITIGATION_ID_RE.fullmatch(value):
        raise ValidationError(f"invalid mitigation ID: {value!r}")
    return value


def is_subtechnique(technique_id: str) -> bool:
    return "." in technique_id


def parent_technique(technique_id: str) -> str:
    """Parent of a sub-technique ID; a parent-level ID is its own parent."""
    parse_technique_id(technique_id)
    return technique_id.split(".", 1)[0]


def _check_type(entity_id: str, field_name: str, value, kind: type) -> None:
    if not isinstance(value, kind):
        raise ValidationError(
            f"{entity_id}: {field_name} must be a {kind.__name__}, got {value!r}"
        )


def _check_name(entity_id: str, name) -> None:
    """A name must be a str that UTF-8 can encode (no lone surrogates),
    because catalogs and plans are written as UTF-8."""
    _check_type(entity_id, "name", name, str)
    if name.isascii():
        return
    try:
        name.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValidationError(
            f"{entity_id}: name is not encodable as UTF-8 "
            f"({exc.reason} at index {exc.start})"
        ) from None


# Each entity's own __init__ accepts the common case (an exact str ID and
# an ASCII str name, real bool flags) in one inline test on its
# arguments, and runs the full checks, which raise the messages, only
# when that test fails; it then sets the frozen slots directly.
_set = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class Technique:
    id: str
    name: str = ""
    revoked: bool = False
    deprecated: bool = False

    def __init__(
        self, id: str, name: str = "", revoked: bool = False, deprecated: bool = False
    ):
        if not (
            type(id) is str
            and _is_technique_id(id)
            and type(name) is str
            and name.isascii()
            and type(revoked) is bool
            and type(deprecated) is bool
        ):
            parse_technique_id(id)
            _check_name(id, name)
            _check_type(id, "revoked", revoked, bool)
            _check_type(id, "deprecated", deprecated, bool)
        _set(self, "id", id)
        _set(self, "name", name)
        _set(self, "revoked", revoked)
        _set(self, "deprecated", deprecated)


@dataclass(frozen=True, slots=True, init=False)
class Mitigation:
    id: str
    name: str = ""

    def __init__(self, id: str, name: str = ""):
        if not (
            type(id) is str
            and _is_mitigation_id(id)
            and type(name) is str
            and name.isascii()
        ):
            parse_mitigation_id(id)
            _check_name(id, name)
        _set(self, "id", id)
        _set(self, "name", name)


@dataclass(frozen=True)
class IngestStats:
    """Non-fatal ingest bookkeeping; excluded from catalog equality."""

    skipped_objects: int = 0
    dangling_refs: int = 0
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class Catalog:
    """Immutable technique/mitigation catalog with referential integrity.

    ``mappings`` holds ``(mitigation_id, technique_id)`` pairs.  The
    constructor takes the three collections as any iterables, in any
    order, and stores them as tuples sorted by ID (mappings as pairs),
    so that equal catalogs compare, hash and serialize identically
    regardless of ingestion order.
    """

    techniques: tuple[Technique, ...]
    mitigations: tuple[Mitigation, ...]
    mappings: tuple[tuple[str, str], ...]
    meta: IngestStats = field(default_factory=IngestStats, compare=False)

    def __post_init__(self):
        techniques = tuple(sorted(self.techniques, key=lambda t: t.id))
        mitigations = tuple(sorted(self.mitigations, key=lambda m: m.id))
        pairs = tuple(self.mappings)
        object.__setattr__(self, "techniques", techniques)
        object.__setattr__(self, "mitigations", mitigations)
        # The technique index, built once here and kept out of the dataclass
        # fields, so equality and hashing still see only the content.
        by_technique: dict[str, list[str]] = {t.id: [] for t in techniques}
        known_mids = {m.id for m in mitigations}
        if len(by_technique) != len(techniques):
            raise CatalogError("duplicate technique IDs in catalog")
        if len(known_mids) != len(mitigations):
            raise CatalogError("duplicate mitigation IDs in catalog")
        # A mapping that is not a pair of strings fails somewhere in here,
        # as a raw error or as a bogus ID, and only then are pairs checked.
        try:
            mappings = tuple(sorted(map(tuple, pairs)))
            for a, b in zip(mappings, mappings[1:]):
                if a == b:
                    raise CatalogError(f"duplicate mapping {a[0]} -> {a[1]} in catalog")
            for mid, tid in mappings:
                if mid not in known_mids:
                    raise CatalogError(f"mapping references unknown mitigation {mid}")
                if tid not in by_technique:
                    raise CatalogError(f"mapping references unknown technique {tid}")
                by_technique[tid].append(mid)
        except (CatalogError, TypeError, ValueError):
            for pair in pairs:
                if not (
                    isinstance(pair, (tuple, list))
                    and len(pair) == 2
                    and all(isinstance(part, str) for part in pair)
                ):
                    raise CatalogError(
                        f"mapping {pair!r} is not a pair of ID strings"
                    ) from None
            raise
        object.__setattr__(self, "mappings", mappings)
        object.__setattr__(
            self, "_by_technique", {k: tuple(v) for k, v in by_technique.items()}
        )

    def technique_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.techniques)

    def mitigation_ids(self) -> tuple[str, ...]:
        return tuple(m.id for m in self.mitigations)

    def has_technique(self, technique_id: str) -> bool:
        return technique_id in self._by_technique

    def mitigations_for(self, technique_id: str) -> tuple[str, ...]:
        """Mitigation IDs mapped to a technique, sorted."""
        return self._by_technique.get(technique_id, ())

    def mitigation_names(self) -> dict[str, str]:
        return {m.id: m.name for m in self.mitigations}


def _fold_subtechniques(techniques, mappings):
    """Techniques and mappings with every sub-technique folded into its parent.

    The parent is ensured present (created with an empty name when the
    source had no parent-level entry) and mappings are re-targeted to
    it, as a set, so duplicates arising from the fold are dropped.  The
    IDs must be valid already: the parent is the part before ".".
    """
    folded: dict[str, Technique] = {}
    for tech in techniques:
        parent_id, dot, _ = tech.id.partition(".")
        if not dot:
            folded[tech.id] = tech  # replaces a stand-in made below
        elif parent_id not in folded:
            folded[parent_id] = Technique(id=parent_id)
    return folded.values(), {(mid, tid.partition(".")[0]) for mid, tid in mappings}


def collapse_subtechniques(catalog: Catalog) -> Catalog:
    """Fold every sub-technique into its parent technique.

    Collapsing an already collapsed catalog is a no-op.
    """
    techniques, mappings = _fold_subtechniques(catalog.techniques, catalog.mappings)
    return Catalog(techniques, catalog.mitigations, mappings, meta=catalog.meta)


def _collector_paused(func):
    """Run ``func`` with the cyclic garbage collector's automatic passes off.

    A loader allocates thousands of containers (decoded JSON, entities,
    pairs), enough to set off several collections per call, each of which
    scans the young objects and now and then every live object.  The
    loaders build no reference cycles, so pausing loses nothing: the
    objects they free are freed by reference counting, and the collector
    resumes when the loader returns or raises.  A collector that is
    already off, as in a nested call, is left off.
    """

    @functools.wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()

    return paused


# What json.loads raises on a malformed document: a ValueError, which is
# a JSONDecodeError for bad syntax, a UnicodeDecodeError for bytes its
# detected encoding cannot decode and a plain ValueError for an integer
# with more digits than the interpreter converts; and a RecursionError
# for nesting too deep for the decoder.
_JSON_ERRORS = (ValueError, RecursionError)


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
    """An object's name and revoked/deprecated flags, type-checked.

    The revoked/deprecated filter runs on these before the entity is
    built, so they are checked here; the ID is left to the constructor.
    """
    values = []
    for prop, kind, default in _ENTITY_FIELDS:
        value = obj.get(prop)
        if value is None:
            value = default
        _check_type(attack_id, prop, value, kind)
        values.append(value)
    _check_name(attack_id, values[0])
    return tuple(values)


def _ref(rel: dict, prop: str, index: int) -> str | None:
    """A relationship endpoint: a STIX ID string, or None when absent or
    null (resolution then counts the relationship as dangling)."""
    ref = rel.get(prop)
    if ref is not None and not isinstance(ref, str):
        raise ParseError(
            f"malformed bundle object at index {index}: {prop} must be a string"
        )
    return ref


def _first_by_id(entities):
    """The first entity of each ID."""
    by_id = {}
    for entity in entities:
        by_id.setdefault(entity.id, entity)
    return by_id.values()


@_collector_paused
def parse_stix_bundle(
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
        except _JSON_ERRORS as exc:
            raise ParseError(f"bundle is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("type") != "bundle":
        raise ParseError("not a STIX bundle: top-level type must be 'bundle'")
    objects = data.get("objects")
    if not isinstance(objects, list):
        raise ParseError("not a STIX bundle: 'objects' must be an array")

    techniques: dict[str, Technique] = {}  # stix id -> entity
    mitigations: dict[str, Mitigation] = {}
    dropped: set[str] = set()  # stix ids dropped by the revoked/deprecated filter
    mitigates: list[tuple[int, str | None, str | None]] = []  # (index, source, target)
    skipped = 0
    warnings: list[str] = []

    # As in the entities, one inline test accepts the common case (string
    # endpoints; an ASCII str name and real bool flags), and the helpers,
    # which raise the messages and record the skips, run only when it fails.
    for index, obj in enumerate(objects):
        obj_type = obj.get("type") if isinstance(obj, dict) else None
        if not isinstance(obj_type, str):
            raise ParseError(f"malformed bundle object at index {index}")
        if obj_type == "relationship":
            if obj.get("relationship_type") != "mitigates":
                skipped += 1
                continue
            source = obj.get("source_ref")
            target = obj.get("target_ref")
            if not (type(source) is str and type(target) is str):
                source = _ref(obj, "source_ref", index)
                target = _ref(obj, "target_ref", index)
            mitigates.append((index, source, target))
            continue
        if obj_type == "attack-pattern":
            entities = techniques
        elif obj_type == "course-of-action":
            entities = mitigations
        else:
            skipped += 1
            continue
        stix_id = obj.get("id")
        if not isinstance(stix_id, str):
            raise ParseError(f"malformed bundle object at index {index}: missing id")
        attack_id = _external_attack_id(obj, index)
        if attack_id is None:
            skipped += 1
            continue
        name = obj.get("name")
        revoked = obj.get("revoked", False)
        deprecated = obj.get("x_mitre_deprecated", False)
        if not (
            type(name) is str
            and name.isascii()
            and type(revoked) is bool
            and type(deprecated) is bool
        ):
            try:
                name, revoked, deprecated = _entity_fields(obj, attack_id)
            except ValidationError as exc:
                skipped += 1
                warnings.append(f"object {index}: {exc}")
                continue
        if (revoked or deprecated) and not include_deprecated:
            dropped.add(stix_id)
            continue
        # The fields are valid, so the constructor can only reject the ID.
        try:
            if entities is techniques:
                entities[stix_id] = Technique(attack_id, name, revoked, deprecated)
            else:
                entities[stix_id] = Mitigation(attack_id, name)
        except ValidationError:
            skipped += 1
            warnings.append(f"object {index}: unrecognized ATT&CK ID {attack_id!r}")

    mappings: set[tuple[str, str]] = set()
    dangling = 0
    for index, source, target in mitigates:
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
    kept = _first_by_id(techniques.values())
    if collapse:
        kept, mappings = _fold_subtechniques(kept, mappings)
    return Catalog(
        techniques=kept,
        mitigations=_first_by_id(mitigations.values()),
        mappings=mappings,
        meta=IngestStats(
            skipped_objects=skipped,
            dangling_refs=dangling,
            warnings=tuple(warnings),
        ),
    )


def _read_rows(data: bytes | str, label: str, header: str) -> list[tuple[int, list[str]]]:
    """The ``(row number, row)`` pairs of a CSV payload with this exact header.

    A leading byte-order mark, as spreadsheet exports write, is ignored.
    Only the CSV reader splits lines, so a quoted cell keeps its line
    breaks and an unquoted one keeps separators such as U+2028.  Reading
    is strict: a quoted cell left open at the end of the data, or
    followed by anything but a separator, raises :class:`ParseError`.
    Rows are numbered from 1 after the header, blank rows included, and
    blank rows are then left out.
    """
    import csv
    import io

    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{label}: not valid UTF-8: {exc}") from exc
    reader = csv.reader(io.StringIO(data.removeprefix("\ufeff"), newline=""), strict=True)
    rows = []
    try:
        rows.extend(reader)
    except csv.Error as exc:
        where = f"row {len(rows)}" if rows else "header"
        raise ParseError(f"{label} {where}: malformed CSV: {exc}") from None
    if not rows or ",".join(rows[0]) != header:
        raise ParseError(f"{label}: header must be exactly {header!r}")
    # A row is blank when no cell holds more than whitespace, that is when
    # its cells joined do not.
    return [
        (rownum, row)
        for rownum, row in enumerate(rows[1:], start=1)
        if "".join(row).strip()
    ]


def _csv_field(cell: str) -> str:
    """A CSV cell, quoted with inner quotes doubled exactly when it holds
    a separator, a quote or a line break, so :func:`_read_rows` reads it
    back intact."""
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _read_entities(data: bytes | str, noun: str, kind: type) -> dict:
    """Entities of ``kind`` by ID, from a CSV with header ``<noun>_id,name``.

    A row with the wrong column count, a duplicate ID or a value the
    constructor rejects raises :class:`ParseError` citing the row.
    """
    label = f"{noun}s CSV"
    entities = {}
    for rownum, row in _read_rows(data, label, f"{noun}_id,name"):
        if len(row) != 2:
            raise ParseError(f"{label} row {rownum}: expected 2 columns")
        entity_id = row[0].strip()
        if entity_id in entities:
            raise ParseError(f"{label} row {rownum}: duplicate {noun} {entity_id}")
        try:
            entities[entity_id] = kind(id=entity_id, name=row[1])
        except ValidationError as exc:
            raise ParseError(f"{label} row {rownum}: {exc}") from exc
    return entities


def parse_mapping_csv(
    techniques_csv: bytes | str,
    mapping_csv: bytes | str,
    mitigations_csv: bytes | str | None = None,
) -> Catalog:
    """Build a catalog from tabular fixtures.

    ``techniques_csv`` has header ``technique_id,name``; ``mapping_csv``
    has header ``technique_id,mitigation_id`` with one pair per row.
    Mitigations are auto-registered from mapping rows with empty names
    unless an optional ``mitigations_csv`` (``mitigation_id,name``)
    supplies them.  A malformed ID or name or a duplicate raises
    :class:`ParseError` citing the data row number; a mapping row naming
    a technique absent from ``techniques_csv`` is an error as well.
    """
    techniques = _read_entities(techniques_csv, "technique", Technique)
    mitigations = {}
    if mitigations_csv is not None:
        mitigations = _read_entities(mitigations_csv, "mitigation", Mitigation)

    # Named mitigations that never appear in the mapping are still listed;
    # the rest are registered, unnamed, from the mapping rows.
    mappings: set[tuple[str, str]] = set()
    for rownum, row in _read_rows(
        mapping_csv, "mapping CSV", "technique_id,mitigation_id"
    ):
        if len(row) != 2:
            raise ParseError(f"mapping CSV row {rownum}: expected 2 columns")
        tid, mid = row[0].strip(), row[1].strip()
        try:
            parse_technique_id(tid)
            parse_mitigation_id(mid)
        except ValidationError as exc:
            raise ParseError(f"mapping CSV row {rownum}: {exc}") from exc
        if tid not in techniques:
            raise ParseError(
                f"mapping CSV row {rownum}: technique {tid} not in techniques CSV"
            )
        pair = (mid, tid)
        if pair in mappings:
            raise ParseError(f"mapping CSV row {rownum}: duplicate pair {mid},{tid}")
        mappings.add(pair)
        if mid not in mitigations:
            mitigations[mid] = Mitigation(id=mid)

    return Catalog(techniques.values(), mitigations.values(), mappings)


def _json_array(items: list[str]) -> str:
    """A two-space-indented JSON array of pre-rendered items."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n  ]"


def _json_bool(flag: bool) -> str:
    return "true" if flag else "false"


def dumps_catalog(catalog: Catalog) -> bytes:
    """Canonical UTF-8 JSON: sorted keys, entities sorted by ID.

    The document holds ``schema_version`` and the ``techniques``
    (``id``, ``name``, ``revoked``, ``deprecated``), ``mitigations``
    (``id``, ``name``) and ``mappings`` (``[mitigation_id, technique_id]``)
    arrays.  It is written line by line, with the standard library's
    string escaping, as exactly the bytes ``json.dumps(document,
    sort_keys=True, indent=2, ensure_ascii=False)`` plus a newline.
    """
    q = encode_basestring
    mappings = [
        f"    [\n      {q(mid)},\n      {q(tid)}\n    ]"
        for mid, tid in catalog.mappings
    ]
    mitigations = [
        f'    {{\n      "id": {q(m.id)},\n      "name": {q(m.name)}\n    }}'
        for m in catalog.mitigations
    ]
    techniques = [
        f'    {{\n      "deprecated": {_json_bool(t.deprecated)},\n'
        f'      "id": {q(t.id)},\n      "name": {q(t.name)},\n'
        f'      "revoked": {_json_bool(t.revoked)}\n    }}'
        for t in catalog.techniques
    ]
    text = (
        f'{{\n  "mappings": {_json_array(mappings)},\n'
        f'  "mitigations": {_json_array(mitigations)},\n'
        f'  "schema_version": {CATALOG_SCHEMA_VERSION},\n'
        f'  "techniques": {_json_array(techniques)}\n}}\n'
    )
    return text.encode("utf-8")


@_collector_paused
def loads_catalog(data: bytes | str) -> Catalog:
    try:
        doc = json.loads(data)
    except _JSON_ERRORS as exc:
        raise ParseError(f"catalog file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("catalog document must be a JSON object")
    version = doc.get("schema_version")
    # JSON's true and 1.0 compare equal to 1, but are not the version.
    if type(version) is not int or version != CATALOG_SCHEMA_VERSION:
        raise SchemaVersionError(
            f"unsupported catalog schema version {version!r} "
            f"(expected {CATALOG_SCHEMA_VERSION})"
        )
    try:
        techniques = [
            Technique(
                entry["id"],
                entry.get("name", ""),
                entry.get("revoked", False),
                entry.get("deprecated", False),
            )
            for entry in doc.get("techniques", [])
        ]
        mitigations = [
            Mitigation(entry["id"], entry.get("name", ""))
            for entry in doc.get("mitigations", [])
        ]
        # JSON decodes arrays and strings to exactly list and str.
        mappings = []
        for pair in doc.get("mappings", []):
            if type(pair) is list and len(pair) == 2:
                mid, tid = pair
                if type(mid) is str and type(tid) is str:
                    mappings.append((mid, tid))
                    continue
            raise ParseError(
                f"malformed catalog document: mapping {pair!r} "
                "is not a pair of ID strings"
            )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed catalog document: {exc}") from exc
    return Catalog(techniques, mitigations, mappings)


def save_catalog(catalog: Catalog, path: str | Path) -> None:
    Path(path).write_bytes(dumps_catalog(catalog))


def load_catalog(path: str | Path) -> Catalog:
    return loads_catalog(Path(path).read_bytes())


def catalog_sha256(catalog: Catalog) -> str:
    """Hex digest of the canonical serialization; used for plan provenance."""
    import hashlib

    return hashlib.sha256(dumps_catalog(catalog)).hexdigest()
