"""Structurally mutated inputs never escape the CLI as a raw exception.

Each example takes the bundled ``paper_v13`` weights CSV or its canonical
catalog JSON, mutates it (cells and rows dropped, duplicated or swapped,
JSON values deleted, duplicated or retyped, bytes truncated or inserted)
and runs ``rank`` on it through :func:`mitiplan.cli.run`; or mutates its
techniques and mappings CSVs the same way and runs ``ingest csv`` on
them.  The command must succeed or report a data error: exit 0 or 1,
never an exception, and no traceback on stderr.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mitiplan.catalog import dumps_catalog
from mitiplan.cli import run
from mitiplan.fixtures import (
    PAPER_V13_MAPPINGS_CSV,
    PAPER_V13_TECHNIQUES_CSV,
    PAPER_V13_WEIGHTS_CSV,
    paper_v13_catalog,
)

WEIGHTS = PAPER_V13_WEIGHTS_CSV.encode("utf-8")
CATALOG = dumps_catalog(paper_v13_catalog())
TECHNIQUES = PAPER_V13_TECHNIQUES_CSV.encode("utf-8")
MAPPINGS = PAPER_V13_MAPPINGS_CSV.encode("utf-8")

# Bytes inserted at a random offset: quotes, separators, line breaks, NUL,
# a BOM, bytes that are not UTF-8 and text that reads as a value.
INSERTS = [
    b'"', b",", b"\n", b"\r", b"\x00", b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\xed\xa0\x80",
    b"inf", b"-1", b"nan", b"T1053", b"T1053.001", b"M1026", b"\\ud800", b"[", b"}",
]

# Values a JSON node is retyped to.
VALUES = [
    None, True, False, 0, 1, -1, 1.5, "", "x", "T1053", "M1026", "T1053.001",
    [], {}, ["M1026", "T1053"], {"id": "T1053"}, [["M1026", "T1053"]], "\ud800",
]


def _split(data: bytes) -> list[list[bytes]]:
    return [line.split(b",") for line in data.split(b"\n")]


def _join(rows: list[list[bytes]]) -> bytes:
    return b"\n".join(b",".join(cells) for cells in rows)


def _mutate_csv(draw, data: bytes) -> bytes:
    rows = _split(data)
    op = draw(st.sampled_from(["drop", "duplicate", "swap", "drop_row", "duplicate_row",
                               "swap_rows", "truncate", "insert"]))
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows) - 1))
    if op in ("drop", "duplicate", "swap"):
        cells = rows[i]
        a = draw(st.integers(0, len(cells) - 1))
        b = draw(st.integers(0, len(cells) - 1))
        if op == "drop":
            del cells[a]
        elif op == "duplicate":
            cells.insert(a, cells[a])
        else:
            cells[a], cells[b] = cells[b], cells[a]
    elif op == "drop_row":
        del rows[i]
    elif op == "duplicate_row":
        rows.insert(i, list(rows[i]))
    elif op == "swap_rows":
        rows[i], rows[j] = rows[j], rows[i]
    else:
        return _mutate_bytes(draw, data, op)
    return _join(rows)


def _mutate_bytes(draw, data: bytes, op: str) -> bytes:
    at = draw(st.integers(0, len(data)))
    if op == "truncate":
        return data[:at]
    return data[:at] + draw(st.sampled_from(INSERTS)) + data[at:]


def _paths(node, path=()):
    """Every node's path in a JSON document, the root's included."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, path + (index,))


def _mutate_json(draw, doc):
    paths = [path for path in _paths(doc) if path]
    path = draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = draw(st.sampled_from(["retype", "drop", "duplicate", "swap"]))
    if op == "retype":
        parent[key] = draw(st.sampled_from(VALUES))
    elif op == "drop":
        del parent[key]
    elif isinstance(parent, list):
        other = draw(st.integers(0, len(parent) - 1))
        if op == "duplicate":
            parent.insert(other, parent[key])
        else:
            parent[key], parent[other] = parent[other], parent[key]
    return doc


@st.composite
def csv_files(draw, data: bytes, min_mutations: int = 1) -> bytes:
    for _ in range(draw(st.integers(min_mutations, 3))):
        data = _mutate_csv(draw, data)
    return data


@st.composite
def catalog_files(draw) -> bytes:
    doc = json.loads(CATALOG)
    for _ in range(draw(st.integers(0, 3))):
        doc = _mutate_json(draw, doc)
    data = json.dumps(doc, indent=draw(st.sampled_from([None, 2]))).encode("ascii")
    if draw(st.booleans()):
        data = _mutate_bytes(draw, data, draw(st.sampled_from(["truncate", "insert"])))
    return data


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as name:
        yield Path(name)


def _run_on(workdir: Path, files: dict[str, bytes], argv: list[str]) -> None:
    """Write `files` into `workdir`, then run the CLI on `argv`, in which
    ``{name}`` stands for the path of file `name`."""
    for name, data in files.items():
        (workdir / name).write_bytes(data)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = run([arg.format_map({name: workdir / name for name in files}) for arg in argv])
    assert code in (0, 1)
    assert "Traceback" not in stderr.getvalue()
    if code == 1:
        assert stderr.getvalue().splitlines()[-1].startswith("error: ")


def _rank(workdir: Path, catalog: bytes, weights: bytes) -> None:
    _run_on(
        workdir,
        {"catalog": catalog, "weights": weights, "plan": b""},
        ["--timestamp", "0", "rank", "--catalog", "{catalog}",
         "--weights", "{weights}", "--out", "{plan}"],
    )


@settings(max_examples=150, deadline=None)
@given(weights=csv_files(WEIGHTS))
def test_mutated_weights_exit_0_or_1(workdir, weights):
    _rank(workdir, CATALOG, weights)


@settings(max_examples=150, deadline=None)
@given(catalog=catalog_files())
def test_mutated_catalog_exit_0_or_1(workdir, catalog):
    _rank(workdir, catalog, WEIGHTS)


@settings(max_examples=150, deadline=None)
@given(
    techniques=csv_files(TECHNIQUES, min_mutations=0),
    mappings=csv_files(MAPPINGS, min_mutations=0),
)
def test_mutated_ingest_csv_exit_0_or_1(workdir, techniques, mappings):
    _run_on(
        workdir,
        {"techniques": techniques, "mappings": mappings, "catalog": b""},
        ["ingest", "csv", "--techniques", "{techniques}",
         "--mappings", "{mappings}", "--out", "{catalog}"],
    )
