#!/usr/bin/env python3
"""Whole-CLI benchmark of mitiplan.

Run from the repository root:

    python3 perfbench/run.py --workload paper_mc --seed 1 --seconds 35 --trace 0

Each workload runs as a closed loop with one client, in this process and
one thread: an op is one whole ``mitiplan.cli.run([...])`` call (two for
``enterprise_rank``), and the next op starts when the previous one has
returned.  One untimed warm-up op comes first.  Every op's output is
checked after the timed loop against an independent reference; a
nonzero exit code, an exception or a wrong output counts as a failed op.

``--trace 0`` reports the end-to-end metrics (set-up time, median and
p90 op latency, peak memory).  The cores of a shared host run this
process at speeds that shift by up to 1.8x for seconds to minutes at a
time, so the times are scaled to a fixed machine speed (see
``_scaled``): each op's wall time is divided by the wall time of a fixed
probe kernel, which touches no mitiplan code, timed right before and
right after the op, and each set-up sample likewise by a fresh
interpreter's ``import numpy``.  The raw wall times stay in the record
and the printed summary.  ``--trace 1`` alternates untraced and
traced ops and reports per-layer self time and counts per traced op,
taken from spans that ``spans.Tracer`` records around the calls into
each layer; the two medians give the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (provenance,
input and output digests, per-op latencies, spans) is written to
``perfbench/results/<workload>-seed<seed>-trace<trace>.json`` so two
commits can be diffed.
"""

from __future__ import annotations

import os

# Pinned before NumPy is imported here or in any child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "_work"

SETUP_REPEATS = 9

# What the speed probes took on the machine the benchmark was tuned on
# (2 vCPUs of a shared host, Python 3.11, NumPy 2.4) in its usual state,
# so that scaled times read as wall times there.
PROBE_REF_MS = 10.0
NUMPY_IMPORT_REF_S = 0.165

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)

# (metric, unit, span it comes from).  Times are self time per traced
# op; counts are per traced op.
PER_LAYER = (
    ("simulator.trial_orders_ms", "ms", "simulator.trial_orders"),
    ("mcsim.steps_ms", "ms", "mcsim.steps"),
    ("mcsim.steps_walked", "count", "mcsim.steps"),
    ("simulator.orders_bytes", "bytes", "simulator.trial_orders"),
    ("simulator.baseline_self_ms", "ms", "simulator.baseline"),
    ("simulator.plan_walk_ms", "ms", "simulator.plan_walk"),
    ("simulator.blocked_ratio", "ratio", "mcsim.steps"),
    ("matrix.build_ms", "ms", "matrix.build"),
    ("catalog.sha256_ms", "ms", "catalog.sha256"),
    ("matrix.cells", "count", "matrix.build"),
    ("matrix.dropped", "count", "matrix.build"),
    ("catalog.parse_stix_ms", "ms", "catalog.parse_stix"),
    ("catalog.dumps_ms", "ms", "catalog.dumps"),
    ("catalog.loads_ms", "ms", "catalog.loads"),
    ("catalog.mappings", "count", "catalog.loads"),
    ("scoring.load_weights_ms", "ms", "scoring.load_weights"),
    ("mcdm.score_ms", "ms", "mcdm.score"),
    ("mcdm.rank_ms", "ms", "mcdm.rank"),
    ("report.render_ms", "ms", "report.render"),
    ("report.bytes", "bytes", "report.render"),
    ("cli.self_ms", "ms", None),
)


class Sink(io.TextIOBase):
    """Stands in for stderr during ops; keeps only the last message."""

    def __init__(self):
        self.chars = 0
        self.last = ""

    def writable(self):
        return True

    def write(self, text):
        self.chars += len(text)
        if text.strip():
            self.last = text.strip()[-300:]
        return len(text)


def _load_program():
    if not (SRC / "mitiplan" / "cli.py").is_file():
        raise SystemExit(f"error: no mitiplan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mitiplan.cli

    if not Path(mitiplan.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported mitiplan from {mitiplan.cli.__file__}")


def _op(prepared, sink):
    """One op: (wall ns, failure message or None, output parts)."""
    from mitiplan import cli
    from workloads import captured_stdout

    for path in prepared.outputs:  # so a file the op failed to write is not stale
        path.unlink(missing_ok=True)
    failure = None
    with captured_stdout() as buffer:
        start = perf_counter_ns()
        try:
            for argv in prepared.commands:
                code = cli.run(list(argv))
                if code != 0:
                    failure = f"exit code {code}: {sink.last}"
                    break
        except Exception as exc:  # the op fails; the run goes on
            failure = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter_ns() - start
    output = {"stdout": buffer.getvalue()}
    for path in prepared.outputs:
        output[path.name] = path.read_bytes() if path.exists() else b""
    return elapsed, failure, output


def _problems(prepared, output):
    try:
        return prepared.check(output)
    except Exception as exc:  # malformed output is a failed op, not a crash
        return [f"check raised {type(exc).__name__}: {exc}"]


def _probe_ms():
    """Wall ms of a fixed NumPy and pure-Python kernel, independent of mitiplan."""
    import numpy as np

    start = perf_counter_ns()
    total = 0
    for t in range(400):
        rng = np.random.Generator(np.random.Philox(key=np.array([7, t], dtype=np.uint64)))
        position = {x: i for i, x in enumerate(rng.permutation(45).tolist())}
        total += position[3]
    return (perf_counter_ns() - start) / 1e6


def _scaled(times, probes, reference):
    """Scale times[i] to the machine speed at which probes take `reference`.

    probes[i] and probes[i + 1] were timed right before and right after
    times[i].  The slower of the two is used, so that a speed change in
    the middle of a sample does not make it look slow.
    """
    return [t * reference / max(probes[i], probes[i + 1]) for i, t in enumerate(times)]


def _percentiles(ms):
    p50 = statistics.median(ms)
    p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0]
    return p50, p90, sum(1 for x in ms if x > p90)


def _setup_seconds():
    """Wall times of a fresh interpreter importing mitiplan.cli, and of one
    importing only NumPy before and after each of them (the speed probe)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def wall(code):
        start = perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return perf_counter() - start

    wall("import mitiplan.cli")  # warms the bytecode cache
    times, probes = [], [wall("import numpy")]
    for _ in range(SETUP_REPEATS):
        times.append(wall("import mitiplan.cli"))
        probes.append(wall("import numpy"))
    return times, probes


def _provenance(prepared):
    import numpy
    from mitiplan import simulator

    backend = getattr(simulator, "kernel_backend", None)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "mitiplan").glob("*.py*")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "kernel_backend": backend() if backend else "unknown",
        "MITIPLAN_KERNEL": os.environ.get("MITIPLAN_KERNEL"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "params": prepared.params,
    }


def _layer_metrics(tracer, traced_ns):
    """Per-layer metrics per traced op; spans that no longer exist are
    left out and listed as missing."""
    summary = tracer.summary(traced_ns)
    ops = len(traced_ns)
    counts = summary["counts"]
    values = {
        "mcsim.steps_walked": counts.get("mcsim.steps_walked", 0) / ops,
        "simulator.orders_bytes": counts.get("simulator.orders_bytes", 0) / ops,
        "simulator.blocked_ratio": (
            counts.get("simulator.blocked_trials", 0) / counts["simulator.trials"]
            if counts.get("simulator.trials") else 0.0
        ),
        "matrix.cells": counts.get("matrix.cells", 0) / ops,
        "matrix.dropped": counts.get("matrix.dropped", 0) / ops,
        "catalog.mappings": counts.get("catalog.mappings", 0) / ops,
        "report.bytes": counts.get("report.bytes", 0) / ops,
        "cli.self_ms": (sum(traced_ns.values()) - summary["top_ns"]) / ops / 1e6,
    }
    metrics, missing = {}, []
    for name, unit, span in PER_LAYER:
        if span is not None and span in tracer.missing:
            missing.append(name)
        elif unit == "ms" and name != "cli.self_ms":
            metrics[name] = {"value": summary["self_ns"][span] / ops / 1e6, "unit": unit}
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    return metrics, missing


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the full record (see the module docstring)."""
    import synth
    import workloads
    from spans import Tracer

    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    sink, saved_stderr = Sink(), sys.stderr
    sys.stderr = sink  # the CLI's log handler binds to it on the first call
    try:
        prepared = workloads.WORKLOADS[workload](workdir, seed)
        tracer = Tracer() if trace else None
        _op(prepared, sink)  # warm-up
        _probe_ms()  # warm-up

        latencies, failures, digests, outputs, traced_ns = [], {}, [], {}, {}
        probes = [_probe_ms()]  # probes[i] and probes[i + 1] bracket op i
        deadline = perf_counter_ns() + int(seconds * 1e9)
        while True:
            index = len(latencies)
            if tracer is not None and index % 2:
                with tracer:
                    elapsed, failure, output = _op(prepared, sink)
                traced_ns[tracer.op] = elapsed
            else:
                elapsed, failure, output = _op(prepared, sink)
            probes.append(_probe_ms())
            latencies.append(elapsed)
            key = None if failure else workloads.digest(output)
            digests.append(key)
            if failure:
                failures[index] = failure
            else:
                outputs.setdefault(key, output)
            if perf_counter_ns() >= deadline and (tracer is None or traced_ns):
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # Output checks, outside the timed loop.
        problems = {key: _problems(prepared, output) for key, output in outputs.items()}
        modal = max(outputs, key=digests.count) if outputs else None
        for index, key in enumerate(digests):
            if index in failures:
                continue
            if problems[key]:
                failures[index] = "; ".join(problems[key])
            elif key != modal:
                failures[index] = "output differs from the other ops of the run"
        try:
            run_checks = prepared.run_checks()
        except Exception as exc:  # a reference that cannot read the inputs
            run_checks = {"run_checks": f"raised {type(exc).__name__}: {exc}"}
    finally:
        sys.stderr = saved_stderr
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # another run's work directory is still there
        pass

    ms = [ns / 1e6 for ns in latencies]
    scaled = _scaled(ms, probes, PROBE_REF_MS)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": _provenance(prepared),
        "inputs": prepared.inputs,
        # Per distinct op output, the SHA-256 of each part, to diff commits by.
        "output_digests": {key: synth.describe(output) for key, output in outputs.items()},
        "run_checks": run_checks,
        "attempted": len(ms),
        "failed": len(failures),
        "failures": [f"op {i}: {msg}" for i, msg in sorted(failures.items())[:10]],
        "latencies_ms": ms,
        "probes_ms": probes,
        "scaled_latencies_ms": scaled,
        "peak_rss_mib": peak_rss_mib,
        "stderr_chars": sink.chars,
    }
    record["correct"] = not failures and all(
        value in ("ok", "equal") or value.startswith("skipped")
        for value in run_checks.values()
    )
    if trace:
        metrics, missing = _layer_metrics(tracer, traced_ns)
        # Scaled, so that a speed change does not pass for tracing overhead.
        record["untraced_p50_ms"] = statistics.median(scaled[0::2])
        record["traced_p50_ms"] = statistics.median(scaled[1::2])
        record["traced_mean_ms"] = statistics.fmean(ms[1::2])
        record["tracing_overhead"] = record["traced_p50_ms"] / record["untraced_p50_ms"] - 1
        record["missing_spans"] = missing
        record["spans"] = [
            [s.name, s.op, s.parent, s.start, s.end] for s in tracer.spans
        ]
    else:
        p50, p90, beyond = _percentiles(scaled)
        record["wall_p50_ms"], record["wall_p90_ms"], _ = _percentiles(ms)
        setup_times, setup_probes = _setup_seconds()
        record["setup_times_s"] = setup_times
        record["setup_probes_s"] = setup_probes
        record["wall_setup_s"] = statistics.median(setup_times)
        record["p90_beyond"] = beyond
        metrics = {
            "setup_s": {
                "value": statistics.median(
                    _scaled(setup_times, setup_probes, NUMPY_IMPORT_REF_S)
                ),
                "unit": "s",
            },
            "latency_p50_ms": {"value": p50, "unit": "ms"},
            "latency_p90_ms": {"value": p90, "unit": "ms"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    record["metrics"] = metrics
    return record


def _summary_lines(record) -> list[str]:
    ms = record["latencies_ms"]
    prov = record["provenance"]
    lines = [
        f"workload {record['workload']} seed {record['seed']}: {len(ms)} ops in "
        f"{sum(ms) / 1000:.1f} s, closed loop, 1 client, trace {record['trace']}",
        f"  kernel {prov['kernel_backend']}, python {prov['python']}, numpy "
        f"{prov['numpy']}, nproc {prov['nproc']}, commit {prov['git_commit']}",
    ]
    metrics = record["metrics"]
    if record["trace"]:
        # Layer values are per-op means, so their shares are of the mean op.
        op_ms = record["traced_mean_ms"]
        for name, unit, _ in PER_LAYER:
            if name in metrics:
                value = metrics[name]["value"]
                share = f" ({value / op_ms:6.1%} of op)" if unit == "ms" else ""
                lines.append(f"  {name:28s} {value:14.4f} {unit}{share}")
        for name in record["missing_spans"]:
            lines.append(f"  {name:28s} missing (layer attribute not found)")
        lines.append(
            f"  tracing overhead {record['tracing_overhead']:+.1%}: scaled traced op p50 "
            f"{record['traced_p50_ms']:.3f} ms vs untraced {record['untraced_p50_ms']:.3f} ms"
        )
    else:
        for name, unit in END_TO_END:
            lines.append(f"  {name:16s} {metrics[name]['value']:12.4f} {unit}")
        n, beyond = len(ms), record["p90_beyond"]
        note = "" if beyond >= 10 else "; fewer than 10 beyond p90, read it with care"
        lines[-2] += f" (n={n}, {beyond} beyond{note})"
        lines.append(
            f"  (scaled to the reference speed; raw wall: setup {record['wall_setup_s']:.4f} s,"
            f" p50 {record['wall_p50_ms']:.4f} ms, p90 {record['wall_p90_ms']:.4f} ms,"
            f" speed probe p50 {statistics.median(record['probes_ms']):.3f} ms"
            f" vs reference {PROBE_REF_MS} ms)"
        )
    rate = record["failed"] / record["attempted"]
    lines.append(
        f"  error_rate {rate:.4f} ({record['failed']} of {record['attempted']} ops failed)"
    )
    for name, value in record["run_checks"].items():
        lines.append(f"  check {name}: {value}")
    lines.extend(f"  FAILED {msg}" for msg in record["failures"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Whole-CLI benchmark of mitiplan.")
    parser.add_argument("--workload", required=True,
                        choices=("paper_mc", "enterprise_mc", "enterprise_rank"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    _load_program()

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(_summary_lines(record)))
    print(f"  record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
