"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library use\n\n```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under '## Library use'"
    exec(compile(match.group(1), f"{README}:Library use", "exec"), {})
    assert capsys.readouterr().out == "M1026 4.476\n"
