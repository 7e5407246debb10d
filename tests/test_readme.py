"""The README's examples run as written and print what it shows."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

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
