"""Span tracing from outside the program.

A :class:`Tracer` replaces the module attributes through which ``cli``
and ``simulator`` call each layer with wrappers that record a span
(name, op, parent, start, end) and a few counts taken from the call's
arguments or result.  The program's files are not changed.  An
attribute that no longer exists is reported as a missing span, so the
benchmark keeps running when a later change folds or renames a layer.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from time import perf_counter_ns


def _mappings(args, kwargs, result):
    return {"catalog.mappings": len(result.mappings)}


def _matrix(args, kwargs, result):
    m, n = result.shape
    return {"matrix.cells": m * n, "matrix.dropped": len(result.dropped_techniques)}


def _report(args, kwargs, result):
    return {"report.bytes": len(result)}


def _orders(args, kwargs, result):
    trials, m = result.shape
    return {"simulator.orders_bytes": trials * m * 8}


def _steps(args, kwargs, result):
    orders, out = args[0], args[3]
    blocked = out[out > 0]
    unblocked = out.size - blocked.size
    return {
        "mcsim.steps_walked": int(blocked.sum()) + unblocked * orders.shape[1],
        "simulator.trials": int(out.size),
        "simulator.blocked_trials": int(blocked.size),
    }


# (span name, attribute path, counts taken from the call).  Paths name
# the attribute the caller looks up at call time, so the wrapper sees
# exactly the calls that module makes.
HOOKS = (
    ("catalog.parse_stix", "mitiplan.cli.parse_stix_bundle", None),
    ("catalog.dumps", "mitiplan.cli.dumps_catalog", None),
    ("catalog.loads", "mitiplan.cli.load_catalog", _mappings),
    ("scoring.load_weights", "mitiplan.cli.load_weights", None),
    ("matrix.build", "mitiplan.cli.build_decision_matrix", _matrix),
    ("catalog.sha256", "mitiplan.matrix.catalog_sha256", None),
    ("mcdm.score", "mitiplan.cli.score_matrix", None),
    ("mcdm.rank", "mitiplan.cli.rank", None),
    ("report.render", "mitiplan.cli.render_plan", _report),
    ("simulator.plan_walk", "mitiplan.simulator.simulate_campaign", None),
    ("simulator.baseline", "mitiplan.simulator.random_baseline", None),
    ("simulator.trial_orders", "mitiplan.simulator.trial_orders", _orders),
    ("mcsim.steps", "mitiplan.simulator._kernel.steps_to_block_batch", _steps),
)


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: int
    end: int = 0
    # End of the wrapper's own bookkeeping; a parent subtracts up to here.
    closed: int = 0
    counts: dict = field(default_factory=dict)


def _resolve(path: str):
    """(owner, attribute) for a dotted path, or None if any part is gone."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        if not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1]
    return None


class Tracer:
    """Records spans while installed; use as a context manager per op."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._targets = []
        for name, path, count in hooks:
            target = _resolve(path)
            if target is None:
                self.missing.append(name)
            else:
                self._targets.append((name, target, count))

    def _wrap(self, name, original, count):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.op, parent, perf_counter_ns())
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = span.closed = perf_counter_ns()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            span.closed = perf_counter_ns()
            return result

        return traced

    def __enter__(self):
        self.op += 1
        for name, (owner, attr), count in self._targets:
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))
        return self

    def __exit__(self, *exc):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        self._stack.clear()
        return False

    def summary(self, op_ns: dict[int, int]) -> dict:
        """Per-layer totals over the traced ops whose wall time is in ``op_ns``.

        Returns ``{"self_ns": {span: ns}, "counts": {name: n},
        "top_ns": ns}``; ``top_ns`` is the time covered by top-level
        spans, which ``op_ns`` minus it leaves to the CLI itself.
        """
        self_ns = {name: 0 for name, _, _ in self.hooks if name not in self.missing}
        counts: dict[str, int] = {}
        child_ns = [0] * len(self.spans)
        top_ns = 0
        for span in self.spans:
            if span.op not in op_ns:
                continue
            covered = span.closed - span.start
            if span.parent is None:
                top_ns += covered
            else:
                child_ns[span.parent] += covered
            for key, value in span.counts.items():
                counts[key] = counts.get(key, 0) + value
        for index, span in enumerate(self.spans):
            if span.op in op_ns:
                self_ns[span.name] += span.end - span.start - child_ns[index]
        return {"self_ns": self_ns, "counts": counts, "top_ns": top_ns}
