"""The README's examples run as written and print what it shows."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from mitiplan import _kernel, simulator
from mitiplan.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(rf"^## {title}\n(.*?)(?=^## )", text, re.M | re.S)
    assert match, f"README has no '## {title}' section"
    return match.group(1)


def _run_library_example() -> dict:
    """The names the python block under "Library use" binds."""
    match = re.search(r"^```python\n(.*?)^```", _section("Library use"), re.M | re.S)
    assert match, "README has no python block under '## Library use'"
    names: dict = {}
    exec(compile(match.group(1), f"{README}:Library use", "exec"), names)
    return names


def test_library_use_example_runs(capsys):
    _run_library_example()
    assert capsys.readouterr().out == "M1026 4.476\n"


def test_library_use_names_attributes_that_exist(capsys):
    # Each backticked `catalog.X`, `weights.X`, `plan.X`, `matrix.X` or
    # `report.X` in the section must be an attribute of the object the
    # example binds to that name.
    names = _run_library_example()
    named = re.findall(r"`(catalog|weights|plan|matrix|report)\.(\w+)", _section("Library use"))
    assert len(named) >= 5, "expected the section to name the example's attributes"
    missing = [f"{obj}.{attr}" for obj, attr in named if not hasattr(names[obj], attr)]
    assert missing == []


def test_quick_start_prints_what_it_shows(tmp_path, monkeypatch, capsysbinary):
    # Each sh block is followed by a plain block holding the stdout of the
    # block's last command; the blocks run in order in one directory.
    pairs = re.findall(
        r"^```sh\n(.*?)^```\n\n```\n(.*?)^```", _section("Quick start"), re.M | re.S
    )
    assert len(pairs) == 2, "expected two sh blocks, each with its output"
    monkeypatch.chdir(tmp_path)
    for script, shown in pairs:
        for command in script.replace("\\\n", " ").splitlines():
            program, *argv = shlex.split(command)
            assert program == "mitiplan"
            capsysbinary.readouterr()
            assert run(argv) == 0, command
        assert capsysbinary.readouterr().out.decode("utf-8") == shown


def test_lane_pool_figures_follow_the_budget(v13_catalog):
    # The lane-pool paragraph's budget, pool widths and swap-block sizes,
    # recomputed from the scratch budget and the bytes each walk counts.
    text = " ".join(README.read_text(encoding="utf-8").split())
    lane, width = simulator._LANE_BYTES, simulator._pool_width
    # An Enterprise-size backward lane (m = 45, one word of counts), beside
    # the 45-row table of packed covers.
    backward = lane + 45 + 4 * 8 + 8
    # A swap block's trial: m + 2 one-byte cells, 24 bytes of cell index,
    # lane number and widened code, and a one-byte kernel row of two cells
    # for each cover of the most-covered technique, its step and block step.
    # On paper_v13 the campaign's cover rows come off the budget first; at
    # m = 45 they are at most 20 techniques of 12 covers.
    m = len(v13_catalog.mids)
    columns = [v13_catalog.technique_index[tid] for tid in ("T1053", "T1059")]
    row, shared = _kernel._pass_bytes(v13_catalog.covers(columns).sum(axis=0), 1)
    v13, m45 = m + 2 + 24 + row, 45 + 2 + 24 + 2 * 12 + 2
    expected = [
        f"(`simulator.SCRATCH_BYTES`, {simulator.SCRATCH_BYTES / 2**20:g} MiB)",
        f"that walk runs {width(10**9, lane):,} lanes at once",
        f"a lane is {backward} bytes and that walk runs {width(10**9, backward, 45 * 8):,} lanes",
        f"(m = {m}, campaign T1053,T1059) a trial takes {v13} bytes, "
        f"so a block holds {width(10**9, v13, shared):,} trials",
        f"a trial takes {m45} bytes and a block holds at least {width(10**9, m45, 8 * 20 * 12):,}",
    ]
    assert [phrase for phrase in expected if phrase not in text] == []
