"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402

PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def test_generator_is_deterministic_per_seed():
    first, again, other = (synth.enterprise_inputs(s) for s in (7, 7, 8))
    assert first.files == again.files
    assert first.files["bundle.json"] != other.files["bundle.json"]


def test_generator_sizes_and_campaign():
    data = synth.enterprise_inputs(3)
    assert len(data.techniques) == 800
    assert sum("." in tid for tid in data.techniques) == 600
    assert len(data.mitigations) == 45
    assert len(set(data.pairs)) == 1600
    per_technique = Counter(tid for _, tid in data.pairs)
    assert len(data.campaign) == 20
    assert all(per_technique[tid] >= 2 for tid in data.campaign)
    weights = data.files["weights.csv"].decode().splitlines()
    assert weights[0] == "no,score,tid,name"
    assert sorted(line.split(",")[2] for line in weights[1:]) == list(data.techniques)


def test_clean_run_has_no_failures():
    record = run.run("enterprise_rank", seed=5, seconds=0.2, trace=False)
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert set(record["metrics"]) == {name for name, _ in run.END_TO_END}
    assert len(record["output_digests"]) == 1


def test_scaling_uses_the_slower_bracketing_probe():
    # The machine runs at half the reference speed during the second sample
    # and changes speed during the third.
    times, probes = [100.0, 200.0, 150.0], [10.0, 10.0, 20.0, 10.0]
    assert run._scaled(times, probes, reference=10.0) == [100.0, 100.0, 75.0]


def _swap_top_two(data):
    doc = json.loads(data)
    first, second = doc["entries"][0], doc["entries"][1]
    first["mitigation_id"], second["mitigation_id"] = second["mitigation_id"], first["mitigation_id"]
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


@pytest.mark.parametrize(
    "corrupt, message",
    [(_swap_top_two, "brute-force WSM"), (lambda data: data[:-20], "check raised")],
)
def test_corrupted_plan_counts_as_failure(monkeypatch, corrupt, message):
    import mitiplan.cli

    original = mitiplan.cli.render_plan
    monkeypatch.setattr(
        mitiplan.cli, "render_plan", lambda *args, **kwargs: corrupt(original(*args, **kwargs))
    )
    record = run.run("enterprise_rank", seed=5, seconds=0.2, trace=True)
    assert not record["correct"]
    assert record["failed"] == record["attempted"] >= 1
    assert message in record["failures"][0]


def test_changed_monte_carlo_digest_counts_as_failure(monkeypatch):
    import mitiplan.simulator

    original = mitiplan.simulator.trial_orders
    monkeypatch.setattr(
        mitiplan.simulator, "trial_orders", lambda m, trials, seed: original(m, trials, seed + 1)
    )
    record = run.run("paper_mc", seed=42, seconds=0.1, trace=True)
    assert not record["correct"]
    assert record["failed"] == record["attempted"] >= 1
    assert record["run_checks"]["readme_seed42"] != "ok"


def test_traced_run_emits_every_per_layer_metric():
    record = run.run("paper_mc", seed=1, seconds=0.3, trace=True)
    assert record["correct"]
    assert sorted(record["metrics"]) == sorted(PER_LAYER)
    assert record["missing_spans"] == []
    assert record["metrics"]["simulator.orders_bytes"]["value"] == 10000 * 18 * 8
    assert record["metrics"]["simulator.trial_orders_ms"]["value"] > 0


def test_vanished_layer_is_reported_missing(monkeypatch):
    import mitiplan.cli

    # paper_mc never renders a plan, so the op still works without it.
    monkeypatch.delattr(mitiplan.cli, "render_plan")
    record = run.run("paper_mc", seed=1, seconds=0.1, trace=True)
    assert record["correct"]
    assert record["missing_spans"] == ["report.render_ms", "report.bytes"]
    assert sorted(record["metrics"]) == sorted(set(PER_LAYER) - {"report.render_ms", "report.bytes"})


def test_self_time_excludes_child_spans(monkeypatch):
    fake = types.ModuleType("perfbench_fake_layer")

    def inner():
        return sum(range(20000))

    fake.inner = inner
    fake.outer = lambda: fake.inner() + fake.inner()
    monkeypatch.setitem(sys.modules, "perfbench_fake_layer", fake)
    tracer = spans.Tracer(
        (
            ("outer", "perfbench_fake_layer.outer", None),
            ("inner", "perfbench_fake_layer.inner", None),
            ("gone", "perfbench_fake_layer.no_such_function", None),
        )
    )
    assert tracer.missing == ["gone"]
    with tracer:
        fake.outer()
    assert fake.inner is inner  # restored on exit
    outer_span, first, second = tracer.spans
    assert first.parent == second.parent == 0 and outer_span.parent is None
    summary = tracer.summary({0: outer_span.end - outer_span.start})
    total = outer_span.end - outer_span.start
    children = sum(s.closed - s.start for s in (first, second))
    assert summary["self_ns"]["outer"] == total - children
    assert summary["self_ns"]["inner"] == sum(s.end - s.start for s in (first, second))
    assert summary["top_ns"] == outer_span.closed - outer_span.start


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
