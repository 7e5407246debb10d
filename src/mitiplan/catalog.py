"""ATT&CK catalog model: techniques, mitigations, and their mapping.

A :class:`Catalog` is an immutable, canonically ordered snapshot of the
bipartite technique/mitigation graph.  It can be built from a STIX 2.1
bundle (the format ATT&CK releases are published in), from a pair of CSV
fixtures, or loaded from the canonical JSON form written by
:func:`save_catalog`.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import json
import numbers
import operator
import re
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from .errors import CatalogError, ParseError, SchemaVersionError, ValidationError

CATALOG_SCHEMA_VERSION = 1

# ASCII digits only, matched against the whole string: `\d` also takes
# other scripts' digits and `$` a trailing newline.
_TECHNIQUE_ID = r"T[0-9]{4}(?:\.[0-9]{3})?"
_MITIGATION_ID = r"M[0-9]{4}"
_TECHNIQUE_ID_RE = re.compile(_TECHNIQUE_ID)
_MITIGATION_ID_RE = re.compile(_MITIGATION_ID)
_is_technique_id = _TECHNIQUE_ID_RE.fullmatch
_is_mitigation_id = _MITIGATION_ID_RE.fullmatch
# A column of IDs joined by newlines.
_TECHNIQUE_IDS_RE = re.compile(rf"{_TECHNIQUE_ID}(?:\n{_TECHNIQUE_ID})*")
_MITIGATION_IDS_RE = re.compile(rf"{_MITIGATION_ID}(?:\n{_MITIGATION_ID})*")


def _plain_columns(ids, names, *flags, ids_re: re.Pattern = _TECHNIQUE_IDS_RE) -> bool:
    """Whether whole entity columns pass the one-step test: str IDs that
    ``ids_re`` matches joined by newlines, with one newline between each
    two (so no string holding a newline passes as two IDs), ASCII str
    names and bool flags.  Columns that fail may still be valid (a
    non-ASCII name, say); the record constructors then decide."""
    if not set(map(type, ids)) | set(map(type, names)) <= {str}:
        return False
    text = "\n".join(ids)
    whole = ids_re.fullmatch(text) is not None and text.count("\n") == len(ids) - 1
    return (
        (whole or not ids)
        and "".join(names).isascii()
        and all(set(map(type, flag)) <= {bool} for flag in flags)
    )


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


def _is_integer(value) -> bool:
    """True for Python and NumPy integers; bool is an int subclass but
    never a count, a seed or a timestamp."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _sequence(value, what: str) -> tuple:
    """``value``'s items as a tuple; for a str or a non-iterable, a
    :class:`ValidationError` whose message starts with ``what``."""
    if isinstance(value, str):
        raise ValidationError(f"{what}, not a string")
    try:
        return tuple(value)
    except TypeError:
        raise ValidationError(f"{what}, got {value!r}") from None


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


# Sets a field of a frozen dataclass.
_set = object.__setattr__


@dataclass(frozen=True, slots=True)
class Technique:
    id: str
    name: str = ""
    revoked: bool = False
    deprecated: bool = False

    def __post_init__(self):
        parse_technique_id(self.id)
        _check_name(self.id, self.name)
        _check_type(self.id, "revoked", self.revoked, bool)
        _check_type(self.id, "deprecated", self.deprecated, bool)


@dataclass(frozen=True, slots=True)
class Mitigation:
    id: str
    name: str = ""

    def __post_init__(self):
        parse_mitigation_id(self.id)
        _check_name(self.id, self.name)


@dataclass(frozen=True)
class IngestStats:
    """Non-fatal ingest bookkeeping; excluded from catalog equality."""

    skipped_objects: int = 0
    dangling_refs: int = 0
    warnings: tuple[str, ...] = ()


def _sorted_by_id(noun: str, ids: list, *columns: list) -> tuple[tuple, ...]:
    """``ids`` and each column as tuples, in the order that sorts ``ids``.

    An ID that repeats is a :class:`CatalogError` naming it.  Columns
    already in strictly ascending order, as a canonical document holds
    them, are checked in one pass of adjacent pairs and not sorted.
    """
    if not all(map(operator.lt, ids, ids[1:])):
        pick = operator.itemgetter(*sorted(range(len(ids)), key=ids.__getitem__))
        ids, columns = pick(ids), [pick(column) for column in columns]
        for first, second in zip(ids, ids[1:]):
            if first == second:
                raise CatalogError(f"duplicate {noun} {first} in catalog")
    return (tuple(ids), *map(tuple, columns))


def _columns(rows, width: int) -> list[tuple]:
    """The ``width`` columns of a collection of rows."""
    return list(zip(*rows)) or [()] * width


def _pair_columns(pairs, error: type[Exception]) -> tuple[tuple, tuple]:
    """The mitigation and technique columns of mapping pairs.

    A pair is a tuple or list of two strings; the first entry that is
    not raises ``error`` naming it.  One test over the whole
    column accepts exact tuples, lists and strs, and the per-pair test
    runs only when it fails.
    """
    if type(pairs) is not list:
        pairs = list(pairs)
    if set(map(type, pairs)) <= {tuple, list} and set(map(len, pairs)) <= {2}:
        mids, tids = _columns(pairs, 2)
        if set(map(type, mids)) | set(map(type, tids)) <= {str}:
            return mids, tids
    for pair in pairs:
        if not (
            isinstance(pair, (tuple, list))
            and len(pair) == 2
            and all(isinstance(part, str) for part in pair)
        ):
            raise error(f"mapping {pair!r} is not a pair of ID strings") from None
    return _columns(pairs, 2)


_technique_row = operator.attrgetter("id", "name", "revoked", "deprecated")
_mitigation_row = operator.attrgetter("id", "name")


def _catalog_columns(techniques, mitigations, mappings) -> list[tuple]:
    """The columns of a catalog of ``(id, name, revoked, deprecated)``
    technique rows, ``(id, name)`` mitigation rows and mapping pairs, in
    any order: the entity columns sorted by ID and the pair columns, in
    the order of :meth:`Catalog._fill`'s arguments.  A repeated ID, then
    a malformed pair, is a :class:`CatalogError`."""
    return [
        *_sorted_by_id("technique", *_columns(techniques, 4)),
        *_sorted_by_id("mitigation", *_columns(mitigations, 2)),
        *_pair_columns(mappings, CatalogError),
    ]


@dataclass(frozen=True, eq=False, init=False)
class Catalog:
    """Immutable technique/mitigation catalog with referential integrity.

    A catalog holds columns: ``tids`` (sorted technique IDs) with their
    ``tnames`` and ``revoked`` / ``deprecated`` flags, ``mids`` (sorted
    mitigation IDs) with their ``mnames``, and each mapping as a
    mitigation row in ``mids`` (``mapping_rows``) and a technique column
    in ``tids`` (``mapping_cols``), sorted by (row, column), that is by
    ``(mitigation_id, technique_id)``.  ``technique_index`` maps each
    technique ID to its column and ``mitigation_index`` each mitigation
    ID to its row.

    The constructor takes the records and ``(mitigation_id,
    technique_id)`` pairs as any iterables, in any order, so equal
    catalogs compare, hash and serialize identically regardless of
    ingestion order.  ``techniques``, ``mitigations`` and ``mappings``
    are record and pair tuples, sorted the same way, built on first read.
    """

    tids: tuple[str, ...]
    tnames: tuple[str, ...]
    revoked: tuple[bool, ...]
    deprecated: tuple[bool, ...]
    mids: tuple[str, ...]
    mnames: tuple[str, ...]
    mapping_rows: np.ndarray
    mapping_cols: np.ndarray
    meta: IngestStats

    def __init__(self, techniques, mitigations, mappings, meta: IngestStats = IngestStats()):
        techniques = _sequence(techniques, "catalog techniques must be a sequence")
        mitigations = _sequence(mitigations, "catalog mitigations must be a sequence")
        mappings = _sequence(mappings, "catalog mappings must be a sequence of pairs")
        self._fill(
            *_catalog_columns(
                map(_technique_row, techniques), map(_mitigation_row, mitigations), mappings
            ),
            meta,
        )

    @classmethod
    def _from_columns(cls, *columns) -> Catalog:
        """A catalog of sorted, checked entity columns and unchecked pair
        columns, in the order of :meth:`_fill`'s arguments."""
        catalog = cls.__new__(cls)
        catalog._fill(*columns)
        return catalog

    def _fill(
        self, tids, tnames, revoked, deprecated, mids, mnames, pair_mids, pair_tids, meta
    ):
        """Set the columns, turning the pairs into sorted index columns.

        A pair repeated, then an endpoint that is not in the catalog, in
        sorted pair order, is a :class:`CatalogError`.
        """
        column_of = dict(zip(tids, range(len(tids))))
        row_of = dict(zip(mids, range(len(mids))))
        count = len(pair_mids)
        try:
            rows = np.fromiter(map(row_of.__getitem__, pair_mids), np.intp, count)
            cols = np.fromiter(map(column_of.__getitem__, pair_tids), np.intp, count)
        except KeyError:
            _raise_for_pairs(pair_mids, pair_tids, row_of, column_of)
        codes = rows * len(tids) + cols
        if not (codes[1:] > codes[:-1]).all():
            order = np.argsort(codes, kind="stable")
            codes, rows, cols = codes[order], rows[order], cols[order]
            repeats = np.flatnonzero(codes[1:] == codes[:-1])
            if repeats.size:
                at = repeats[0]
                raise CatalogError(
                    f"duplicate mapping {mids[rows[at]]} -> {tids[cols[at]]} in catalog"
                )
        rows.flags.writeable = cols.flags.writeable = False
        for name, value in (
            ("tids", tids),
            ("tnames", tnames),
            ("revoked", revoked),
            ("deprecated", deprecated),
            ("mids", mids),
            ("mnames", mnames),
            ("mapping_rows", rows),
            ("mapping_cols", cols),
            ("meta", meta),
            ("technique_index", column_of),
            ("mitigation_index", row_of),
        ):
            _set(self, name, value)

    def _content(self) -> tuple:
        return (
            self.tids,
            self.tnames,
            self.revoked,
            self.deprecated,
            self.mids,
            self.mnames,
            self.mapping_rows.tobytes(),
            self.mapping_cols.tobytes(),
        )

    # Content only: ``meta``, the two indexes and the records built on
    # first read stay out of equality and hashing.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._content() == other._content()

    def __hash__(self):
        return hash(self._content())

    @functools.cached_property
    def techniques(self) -> tuple[Technique, ...]:
        return tuple(
            map(Technique, self.tids, self.tnames, self.revoked, self.deprecated)
        )

    @functools.cached_property
    def mitigations(self) -> tuple[Mitigation, ...]:
        return tuple(map(Mitigation, self.mids, self.mnames))

    @functools.cached_property
    def mappings(self) -> tuple[tuple[str, str], ...]:
        """``(mitigation_id, technique_id)`` pairs, sorted."""
        return tuple(
            zip(
                map(self.mids.__getitem__, self.mapping_rows.tolist()),
                map(self.tids.__getitem__, self.mapping_cols.tolist()),
            )
        )

    def has_technique(self, technique_id: str) -> bool:
        return isinstance(technique_id, str) and technique_id in self.technique_index

    def covers(self, columns) -> np.ndarray:
        """The cover table of the techniques at distinct ``columns`` of
        ``tids``: one uint8 row per mitigation in ``mids``, holding 1 at
        each place of ``columns`` whose technique the mitigation is
        mapped to.  Anything but a flat sequence of distinct column
        indexes raises :class:`ValidationError`."""
        try:
            picked = np.asarray(columns)
            flat = picked.ndim == 1 and (picked.dtype.kind in "iu" or not picked.size)
        except ValueError:  # ragged nesting
            flat = False
        if not flat:
            raise ValidationError(
                f"technique columns must be a sequence of integers, got {columns!r}"
            )
        # Unsigned indexes past 2^63 turn negative here, and fail the range test.
        picked = picked.astype(np.intp, copy=False)
        n = len(self.tids)
        if picked.size and (picked.min() < 0 or picked.max() >= n):
            raise ValidationError(
                f"technique columns must index the {n} techniques, got {columns!r}"
            )
        place = np.full(n, -1, dtype=np.intp)
        order = np.arange(len(picked))
        place[picked] = order
        # A repeated column keeps only its last place.
        if (place[picked] != order).any():
            raise ValidationError(f"technique columns must be distinct, got {columns!r}")
        places = place[self.mapping_cols]
        hit = places >= 0
        table = np.zeros((len(self.mids), len(picked)), dtype=np.uint8)
        table[self.mapping_rows[hit], places[hit]] = 1
        return table


def _raise_for_pairs(pair_mids, pair_tids, row_of, column_of):
    """Raise for pairs of which some endpoint is unknown: the first pair
    repeated, else the first unknown endpoint, in sorted pair order."""
    pairs = sorted(zip(pair_mids, pair_tids))
    for first, second in zip(pairs, pairs[1:]):
        if first == second:
            raise CatalogError(f"duplicate mapping {first[0]} -> {first[1]} in catalog")
    for mid, tid in pairs:
        if mid not in row_of:
            raise CatalogError(f"mapping references unknown mitigation {mid}")
        if tid not in column_of:
            raise CatalogError(f"mapping references unknown technique {tid}")


def _fold_subtechniques(techniques, mappings):
    """Technique rows and mappings with every sub-technique folded into
    its parent.

    The parent is ensured present (created with an empty name when the
    source had no parent-level entry) and mappings are re-targeted to
    it, as a set, so duplicates arising from the fold are dropped.  The
    IDs must be valid already: the parent is the part before ".".
    """
    folded: dict[str, tuple] = {}
    for row in techniques:
        parent_id, dot, _ = row[0].partition(".")
        if not dot:
            folded[parent_id] = row  # replaces a stand-in made below
        elif parent_id not in folded:
            folded[parent_id] = (parent_id, "", False, False)
    return folded.values(), {(mid, tid.partition(".")[0]) for mid, tid in mappings}


def collapse_subtechniques(catalog: Catalog) -> Catalog:
    """Fold every sub-technique into its parent technique.

    Collapsing an already collapsed catalog is a no-op.
    """
    techniques, mappings = _fold_subtechniques(
        zip(catalog.tids, catalog.tnames, catalog.revoked, catalog.deprecated),
        catalog.mappings,
    )
    mitigations = zip(catalog.mids, catalog.mnames)
    return Catalog._from_columns(
        *_catalog_columns(techniques, mitigations, mappings), catalog.meta
    )


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


def _first_by_id(rows):
    """The first row of each ID."""
    by_id = {}
    for row in rows:
        by_id.setdefault(row[0], row)
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

    # stix id -> (id, name, revoked, deprecated) or (id, name)
    techniques: dict[str, tuple[str, str, bool, bool]] = {}
    mitigations: dict[str, tuple[str, str]] = {}
    dropped: set[str] = set()  # stix ids dropped by the revoked/deprecated filter
    mitigates: list[tuple[int, str | None, str | None]] = []  # (index, source, target)
    skipped = 0
    warnings: list[str] = []

    # One inline test accepts the common case (string endpoints; an ASCII
    # str name and real bool flags), and the helpers, which raise the
    # messages and record the skips, run only when it fails.
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
            entities, is_id = techniques, _is_technique_id
        elif obj_type == "course-of-action":
            entities, is_id = mitigations, _is_mitigation_id
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
        if not (isinstance(attack_id, str) and is_id(attack_id)):
            skipped += 1
            warnings.append(f"object {index}: unrecognized ATT&CK ID {attack_id!r}")
        elif entities is techniques:
            entities[stix_id] = (attack_id, name, revoked, deprecated)
        else:
            entities[stix_id] = (attack_id, name)

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
        mappings.add((mitigation[0], technique[0]))

    # Distinct STIX objects can carry the same ATT&CK ID (re-released
    # entities); keep the first occurrence of each ID.
    kept = _first_by_id(techniques.values())
    if collapse:
        kept, mappings = _fold_subtechniques(kept, mappings)
    return Catalog._from_columns(
        *_catalog_columns(kept, _first_by_id(mitigations.values()), mappings),
        IngestStats(
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
    elif not isinstance(data, str):
        raise ValidationError(f"{label} must be bytes or str, got {type(data).__name__}")
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
    mids, tids = list(map(q, catalog.mids)), list(map(q, catalog.tids))
    mappings = [
        f"    [\n      {mids[row]},\n      {tids[col]}\n    ]"
        for row, col in zip(catalog.mapping_rows.tolist(), catalog.mapping_cols.tolist())
    ]
    mitigations = [
        f'    {{\n      "id": {mid},\n      "name": {q(name)}\n    }}'
        for mid, name in zip(mids, catalog.mnames)
    ]
    techniques = [
        f'    {{\n      "deprecated": {_json_bool(deprecated)},\n'
        f'      "id": {tid},\n      "name": {q(name)},\n'
        f'      "revoked": {_json_bool(revoked)}\n    }}'
        for tid, name, revoked, deprecated in zip(
            tids, catalog.tnames, catalog.revoked, catalog.deprecated
        )
    ]
    text = (
        f'{{\n  "mappings": {_json_array(mappings)},\n'
        f'  "mitigations": {_json_array(mitigations)},\n'
        f'  "schema_version": {CATALOG_SCHEMA_VERSION},\n'
        f'  "techniques": {_json_array(techniques)}\n}}\n'
    )
    return text.encode("utf-8")


def _entity_columns(entries, kind: type, ids_pattern: re.Pattern) -> list[list]:
    """The columns (one per field of ``kind``) of a document's entities.

    One :func:`_plain_columns` test over the whole columns accepts the
    common case of object entries, a field absent taking its default.
    When it fails, each entry goes through the constructor of ``kind``,
    which raises the message for the first bad one, or accepts them all
    (non-ASCII names, say).
    """
    fields = dataclasses.fields(kind)
    defaults = [(f.name, f.default) for f in fields[1:]]
    if set(map(type, entries)) <= {dict}:
        ids = list(map(dict.get, entries, repeat("id")))
        columns = [
            list(map(dict.get, entries, repeat(name), repeat(default)))
            for name, default in defaults
        ]
        if _plain_columns(ids, *columns, ids_re=ids_pattern):
            return [ids, *columns]
    records = [
        kind(entry["id"], *(entry.get(name, default) for name, default in defaults))
        for entry in entries
    ]
    return [[getattr(record, f.name) for record in records] for f in fields]


def _section(doc: dict, name: str) -> list:
    """A catalog document's array ``name``; an absent one is empty."""
    entries = doc.get(name, [])
    if type(entries) is not list:
        raise ParseError(f"malformed catalog document: {name!r} must be an array")
    return entries


@_collector_paused
def loads_catalog(data: bytes | str) -> Catalog:
    if not isinstance(data, (bytes, bytearray, str)):
        raise ParseError(f"catalog document must be bytes or str, got {type(data).__name__}")
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
        tids, tnames, revoked, deprecated = _entity_columns(
            _section(doc, "techniques"), Technique, _TECHNIQUE_IDS_RE
        )
        mids, mnames = _entity_columns(
            _section(doc, "mitigations"), Mitigation, _MITIGATION_IDS_RE
        )
        pair_mids, pair_tids = _pair_columns(_section(doc, "mappings"), TypeError)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed catalog document: {exc}") from exc
    return Catalog._from_columns(
        *_sorted_by_id("technique", tids, tnames, revoked, deprecated),
        *_sorted_by_id("mitigation", mids, mnames),
        pair_mids,
        pair_tids,
        IngestStats(),
    )


def _catalog_path(path) -> Path:
    try:
        return Path(path)
    except TypeError:
        raise ValidationError(f"catalog path must be a str or a path, got {path!r}") from None


def save_catalog(catalog: Catalog, path: str | Path) -> None:
    _catalog_path(path).write_bytes(dumps_catalog(catalog))


def load_catalog(path: str | Path) -> Catalog:
    return loads_catalog(_catalog_path(path).read_bytes())


def catalog_sha256(catalog: Catalog) -> str:
    """Hex digest of the canonical serialization; used for plan provenance."""
    import hashlib

    return hashlib.sha256(dumps_catalog(catalog)).hexdigest()
