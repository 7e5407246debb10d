"""The benchmark's span hooks all resolve.

``perfbench/spans.py`` times each layer by wrapping a module attribute
of the program; a renamed attribute is reported as a missing span and
its per-layer metric reads blank.  This test makes such a rename fail
here too.  It only imports ``perfbench/spans.py`` and installs nothing.
"""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_span_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    assert spans.Tracer().missing == []
