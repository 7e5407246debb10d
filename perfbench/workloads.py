"""The benchmark's workloads: inputs, the CLI calls of one op, and checks.

An op is one or more whole ``mitiplan.cli.run([...])`` calls.  Each
workload writes its inputs into a work directory, names the files an op
writes, and knows how to tell a correct op output from a wrong one
using only :mod:`reference`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference
import synth

PAPER_TRIALS = 10000
# 5000 rather than more trials keeps an op near 0.27 s, so a run of the
# benchmark's length holds the 100 ops a p90 with ten samples beyond it needs.
ENTERPRISE_TRIALS = 5000
ENTERPRISE_THRESHOLD = 2
RANK_TIMESTAMP = 1700000000


@dataclass
class Prepared:
    """A workload ready to run in its work directory."""

    commands: tuple[tuple[str, ...], ...]
    outputs: tuple[Path, ...]
    inputs: dict
    params: dict
    # Problems with one op's output ({"stdout": bytes, <file name>: bytes}).
    check: Callable[[dict], list[str]]
    # Checks made once per run: name -> "ok" / "equal" / "skipped: ..." or a problem.
    run_checks: Callable[[], dict] = field(default=lambda: {})


@contextlib.contextmanager
def captured_stdout():
    """Redirect ``sys.stdout`` (text and ``.buffer``) into a BytesIO."""
    buffer = io.BytesIO()
    wrapper = io.TextIOWrapper(buffer, encoding="utf-8", write_through=True)
    saved, sys.stdout = sys.stdout, wrapper
    try:
        yield buffer
    finally:
        sys.stdout = saved
        wrapper.flush()
        wrapper.detach()


def run_cli(argv) -> tuple[int, bytes]:
    """One ``cli.run`` call with stdout captured; returns (exit code, stdout)."""
    from mitiplan import cli

    with captured_stdout() as buffer:
        code = cli.run(list(argv))
    return code, buffer.getvalue()


def _mc_workload(catalog, weights, campaign, threshold, trials, seed, inputs):
    argv = (
        "simulate", "--catalog", str(catalog), "--weights", str(weights),
        "--campaign", ",".join(campaign), "--k", str(threshold),
        "--trials", str(trials), "--seed", str(seed),
    )
    state = {}

    def expected():
        # Computed once, after the timed ops, from the files alone.
        if not state:
            tids, mids, pairs = reference.read_catalog(catalog.read_bytes())
            techniques = reference.resolve(campaign, tids)
            ranking = reference.wsm_ranking(pairs, reference.read_weights(weights.read_bytes()))
            plan_steps = reference.prefix_steps(
                [mid for mid, _, _ in ranking], pairs, techniques, threshold
            )
            orders = reference.reference_orders(len(mids), trials, seed)
            steps = reference.baseline_steps(orders, mids, pairs, techniques, threshold)
            state["stdout"] = reference.simulate_stdout(
                campaign, threshold, trials, seed, plan_steps, steps
            ).encode("utf-8")
            state["parity"] = reference.kernel_parity(
                orders[:2000], mids, pairs, techniques, threshold
            )
        return state

    def check(output):
        if output["stdout"] != expected()["stdout"]:
            return ["stdout differs from the independent plan walk and Monte Carlo"]
        return []

    def run_checks():
        return {"kernel_parity": expected()["parity"]}

    params = {"trials": trials, "mc_seed": seed, "k": threshold, "campaign": list(campaign)}
    return Prepared((argv,), (), inputs, params, check, run_checks)


def paper_mc(workdir: Path, seed: int) -> Prepared:
    """README reproduction: simulate T1053,T1059 on the paper_v13 fixture."""
    code, _ = run_cli(("fixtures", "emit", "--name", "paper_v13", "--out-dir", str(workdir)))
    if code != 0:
        raise RuntimeError("could not emit the paper_v13 fixture")
    catalog = workdir / "paper_v13_catalog.json"
    weights = workdir / "paper_v13_weights.csv"
    inputs = synth.describe({p.name: p.read_bytes() for p in (catalog, weights)})
    prepared = _mc_workload(
        catalog, weights, ("T1053", "T1059"), 1, PAPER_TRIALS, seed, inputs
    )
    mc_checks = prepared.run_checks

    def run_checks():
        golden = (
            "simulate", "--catalog", str(catalog), "--weights", str(weights),
            "--campaign", "T1053,T1059", "--k", "1", "--trials", str(PAPER_TRIALS),
            "--seed", "42",
        )
        code, stdout = run_cli(golden)
        ok = code == 0 and stdout.decode("utf-8") == reference.README_PAPER_MC_SEED42
        readme = "ok" if ok else f"seed 42 output differs from the README: {stdout!r}"
        return {**mc_checks(), "readme_seed42": readme}

    prepared.run_checks = run_checks
    return prepared


def _enterprise(workdir: Path, seed: int):
    data = synth.enterprise_inputs(seed)
    return data, data.write(workdir)


def enterprise_mc(workdir: Path, seed: int) -> Prepared:
    """Synthetic Enterprise-size catalog, 20-technique campaign, k=2."""
    data, paths = _enterprise(workdir, seed)
    catalog = workdir / "catalog.json"
    code, _ = run_cli(
        ("ingest", "stix", "--no-collapse", "--bundle", str(paths["bundle.json"]),
         "--out", str(catalog))
    )
    if code != 0:
        raise RuntimeError("could not ingest the synthetic bundle")
    return _mc_workload(
        catalog, paths["weights.csv"], data.campaign,
        ENTERPRISE_THRESHOLD, ENTERPRISE_TRIALS, seed, synth.describe(data.files),
    )


def enterprise_rank(workdir: Path, seed: int) -> Prepared:
    """Ingest the synthetic bundle (write), then rank with WSM (read)."""
    data, paths = _enterprise(workdir, seed)
    catalog = workdir / "catalog.json"
    plan = workdir / "plan.json"
    weights = paths["weights.csv"]
    commands = (
        ("ingest", "stix", "--no-collapse", "--bundle", str(paths["bundle.json"]),
         "--out", str(catalog)),
        ("--timestamp", str(RANK_TIMESTAMP), "rank", "--catalog", str(catalog),
         "--weights", str(weights), "--method", "wsm", "--format", "json",
         "--out", str(plan)),
    )
    expected_catalog = (list(data.techniques), list(data.mitigations), list(data.pairs))

    def check(output):
        problems = []
        if reference.read_catalog(output["catalog.json"]) != expected_catalog:
            problems.append("ingested catalog differs from the generated bundle")
        problems += reference.check_plan_json(
            output["plan.json"], output["catalog.json"], weights.read_bytes(), RANK_TIMESTAMP
        )
        if output["stdout"]:
            problems.append("rank wrote to stdout")
        return problems

    params = {"method": "wsm", "timestamp": RANK_TIMESTAMP}
    return Prepared(commands, (catalog, plan), synth.describe(data.files), params, check)


WORKLOADS = {
    "paper_mc": paper_mc,
    "enterprise_mc": enterprise_mc,
    "enterprise_rank": enterprise_rank,
}


def digest(output: dict) -> str:
    """One SHA-256 over every part of an op's output."""
    h = hashlib.sha256()
    for name in sorted(output):
        h.update(name.encode("utf-8") + b"\0" + hashlib.sha256(output[name]).digest())
    return h.hexdigest()
