"""Command-line interface.

Subcommands wire the library end to end: ingest catalogs, build the
decision matrix, rank mitigations, simulate campaigns, evaluate the
scoring formulas, and emit the bundled reference fixtures.  Exit codes:
0 success, 1 validation or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from pathlib import Path

from ._version import __version__
from .catalog import (
    load_catalog,
    parse_mapping_csv,
    parse_stix_bundle,
    save_catalog,
    dumps_catalog,
)
from .errors import MitiplanError, ValidationError
from .fixtures import FIXTURE_NAMES, emit_fixture
from .matrix import build_decision_matrix, export_matrix_csv
from .mcdm import METHODS, rank, score_matrix
from .report import render_plan
from .scoring import (
    AttackComplexity,
    AttackVector,
    CvssVector,
    PrivilegesRequired,
    RiskInputs,
    UserInteraction,
    cvss_exploitability,
    load_weights,
    parse_cvss_level,
    risk_factor,
)
from .simulator import Campaign, compare_orders

log = logging.getLogger(__name__)

# CLI spelling of the rendering formats; "md" expands to "markdown".
FORMAT_CHOICES = ("json", "csv", "md")


def _write_bytes(data: bytes, out: str) -> None:
    if out == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(out).write_bytes(data)


def _load_matrix(args: argparse.Namespace):
    """The catalog and decision matrix named by ``--catalog`` and ``--weights``."""
    catalog = load_catalog(args.catalog)
    weights = load_weights(Path(args.weights).read_bytes())
    return catalog, build_decision_matrix(catalog, weights)


def _log_ingest(catalog) -> None:
    """One INFO line of ingest counts (-v), then each warning at DEBUG (-vv)."""
    meta = catalog.meta
    log.info(
        "ingested %d techniques, %d mitigations, %d mappings; "
        "skipped %d objects, %d dangling relationships, %d warnings",
        len(catalog.tids),
        len(catalog.mids),
        len(catalog.mapping_rows),
        meta.skipped_objects,
        meta.dangling_refs,
        len(meta.warnings),
    )
    for warning in meta.warnings:
        log.debug("ingest warning: %s", warning)


def _cmd_ingest_stix(args: argparse.Namespace) -> int:
    catalog = parse_stix_bundle(
        Path(args.bundle).read_bytes(),
        collapse=not args.no_collapse,
        include_deprecated=args.include_deprecated,
    )
    _log_ingest(catalog)
    _write_bytes(dumps_catalog(catalog), args.out)
    return 0


def _cmd_ingest_csv(args: argparse.Namespace) -> int:
    mitigations_csv = (
        Path(args.mitigations).read_bytes() if args.mitigations else None
    )
    catalog = parse_mapping_csv(
        Path(args.techniques).read_bytes(),
        Path(args.mappings).read_bytes(),
        mitigations_csv=mitigations_csv,
    )
    _log_ingest(catalog)
    _write_bytes(dumps_catalog(catalog), args.out)
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    _, matrix = _load_matrix(args)
    _write_bytes(export_matrix_csv(matrix), args.out)
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    _, matrix = _load_matrix(args)
    kwargs = {}
    if args.method == "wpm":
        kwargs["zero_policy"] = args.zero_policy
        kwargs["epsilon"] = args.epsilon
    scores = score_matrix(matrix, args.method, **kwargs)
    plan = rank(scores, matrix)
    if args.top is not None:
        if args.top < 1:
            raise ValidationError("--top must be >= 1")
        plan = plan.top(args.top)
    fmt = "markdown" if args.format == "md" else args.format
    _write_bytes(render_plan(plan, fmt, timestamp=args.timestamp), args.out)
    return 0


def _format_steps(steps: int | None) -> str:
    return str(steps) if steps is not None else "never"


def _cmd_simulate(args: argparse.Namespace) -> int:
    catalog, matrix = _load_matrix(args)
    scores = score_matrix(matrix, args.method)
    plan = rank(scores, matrix)
    techniques = tuple(part.strip() for part in args.campaign.split(",") if part.strip())
    campaign = Campaign(techniques=techniques, block_threshold=args.k)
    report = compare_orders(plan, catalog, campaign, trials=args.trials, seed=args.seed)
    baseline = report.baseline
    if args.out:
        provenance = {
            "tool_version": __version__,
            "catalog_hash": matrix.catalog_hash,
            "weights_hash": matrix.weights_hash,
            "method": args.method,
            "campaign": [tid for tid, _ in report.plan_result.per_technique_block_step],
            "k": campaign.block_threshold,
            "seed": baseline.seed,
            "trials": baseline.trials,
        }
        doc = {**report.to_dict(), "provenance": provenance}
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        _write_bytes(text.encode("utf-8"), args.out)
    print(f"campaign: {','.join(campaign.techniques)} (threshold {args.k})")
    print(f"plan steps to block: {_format_steps(report.plan_steps)}")
    if baseline.mean_steps is not None:
        print(
            "baseline over {} trials (seed {}): mean {:.3f}, std {:.3f}, "
            "unblocked {:.1%}".format(
                baseline.trials,
                baseline.seed,
                baseline.mean_steps,
                baseline.std_steps,
                baseline.unblocked_fraction,
            )
        )
    else:
        print(
            f"baseline over {baseline.trials} trials (seed {baseline.seed}): "
            "never blocked"
        )
    if report.ratio is not None:
        print(f"plan advantage: {report.ratio:.3f}x fewer steps than random")
    return 0


def _cmd_score_risk(args: argparse.Namespace) -> int:
    value = risk_factor(
        RiskInputs(threat=args.threat, vulnerability=args.vuln, impact=args.impact)
    )
    print(f"{value:.6f}")
    return 0


def _cmd_score_cvss(args: argparse.Namespace) -> int:
    vector = CvssVector(
        attack_vector=parse_cvss_level(AttackVector, args.av),
        attack_complexity=parse_cvss_level(AttackComplexity, args.ac),
        privileges_required=parse_cvss_level(PrivilegesRequired, args.pr),
        user_interaction=parse_cvss_level(UserInteraction, args.ui),
        scope_changed=args.scope_changed,
    )
    print(f"{cvss_exploitability(vector):.6f}")
    return 0


def _cmd_fixtures_emit(args: argparse.Namespace) -> int:
    paths = emit_fixture(args.name, args.out_dir)
    for path in paths:
        print(path)
    return 0


def _cmd_fixtures_list(args: argparse.Namespace) -> int:
    for name in FIXTURE_NAMES:
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mitiplan",
        description="Prioritize ATT&CK mitigations against weighted techniques.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="increase log verbosity (-v info, -vv debug)",
    )
    parser.add_argument(
        "--timestamp",
        type=int,
        default=None,
        metavar="SECONDS",
        help="pin report timestamps to this UTC epoch value (byte-stable output)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="build a catalog from STIX or CSV")
    ingest_sub = ingest.add_subparsers(dest="source", required=True)

    stix = ingest_sub.add_parser("stix", help="ingest a STIX 2.1 bundle")
    stix.add_argument("--bundle", required=True, help="bundle JSON file")
    stix.add_argument("--out", required=True, help="catalog JSON output, - for stdout")
    stix.add_argument(
        "--no-collapse",
        action="store_true",
        help="keep sub-techniques instead of folding them into parents",
    )
    stix.add_argument(
        "--include-deprecated",
        action="store_true",
        help="keep revoked and deprecated objects",
    )
    stix.set_defaults(func=_cmd_ingest_stix)

    csv_p = ingest_sub.add_parser("csv", help="ingest technique/mapping CSV files")
    csv_p.add_argument("--techniques", required=True, help="techniques CSV")
    csv_p.add_argument("--mappings", required=True, help="technique,mitigation pairs CSV")
    csv_p.add_argument("--mitigations", help="optional mitigation names CSV")
    csv_p.add_argument("--out", required=True, help="catalog JSON output, - for stdout")
    csv_p.set_defaults(func=_cmd_ingest_csv)

    matrix_p = sub.add_parser("matrix", help="export the decision matrix as CSV")
    matrix_p.add_argument("--catalog", required=True, help="catalog JSON file")
    matrix_p.add_argument("--weights", required=True, help="weights CSV file")
    matrix_p.add_argument("--out", required=True, help="matrix CSV output, - for stdout")
    matrix_p.set_defaults(func=_cmd_matrix)

    rank_p = sub.add_parser("rank", help="rank mitigations into a plan")
    rank_p.add_argument("--catalog", required=True, help="catalog JSON file")
    rank_p.add_argument("--weights", required=True, help="weights CSV file")
    rank_p.add_argument("--method", choices=METHODS, default="wsm")
    rank_p.add_argument("--top", type=int, default=None, metavar="K",
                        help="keep only the first K entries")
    rank_p.add_argument("--out", required=True, help="plan output, - for stdout")
    rank_p.add_argument("--format", choices=FORMAT_CHOICES, default="json")
    rank_p.add_argument(
        "--zero-policy",
        choices=("error", "epsilon"),
        default="error",
        help="WPM only: how to treat zero coverage cells",
    )
    rank_p.add_argument(
        "--epsilon",
        type=float,
        default=1e-6,
        help="WPM only: substitute for zero cells under --zero-policy epsilon",
    )
    rank_p.set_defaults(func=_cmd_rank)

    sim = sub.add_parser("simulate", help="simulate a campaign against the plan")
    sim.add_argument("--catalog", required=True, help="catalog JSON file")
    sim.add_argument("--weights", required=True, help="weights CSV file")
    sim.add_argument(
        "--campaign",
        required=True,
        help="comma-separated technique IDs, e.g. T1053,T1059",
    )
    sim.add_argument("--k", type=int, default=1,
                     help="mitigations required to block one technique")
    sim.add_argument("--trials", type=int, default=10000)
    sim.add_argument("--seed", type=int, default=42)
    # No wpm: without rank's --zero-policy epsilon it rejects any sparse catalog.
    sim.add_argument("--method", choices=("wsm", "topsis"), default="wsm")
    sim.add_argument("--out", help="also write the comparison as JSON, - for stdout")
    sim.set_defaults(func=_cmd_simulate)

    score = sub.add_parser("score", help="evaluate the scoring formulas")
    score_sub = score.add_subparsers(dest="formula", required=True)

    risk = score_sub.add_parser("risk", help="threat x vulnerability x impact")
    risk.add_argument("--threat", type=float, required=True, help="probability in [0, 1]")
    risk.add_argument("--vuln", type=float, required=True, help="probability in [0, 1]")
    risk.add_argument("--impact", type=float, required=True, help="nonnegative magnitude")
    risk.set_defaults(func=_cmd_score_risk)

    cvss = score_sub.add_parser("cvss", help="CVSS v3.1 exploitability sub-score")
    cvss.add_argument("--av", required=True, help="attack vector: N, A, L, or P")
    cvss.add_argument("--ac", required=True, help="attack complexity: L or H")
    cvss.add_argument("--pr", required=True, help="privileges required: N, L, or H")
    cvss.add_argument("--ui", required=True, help="user interaction: N or R")
    cvss.add_argument("--scope-changed", action="store_true")
    cvss.set_defaults(func=_cmd_score_cvss)

    fixtures = sub.add_parser("fixtures", help="bundled reference datasets")
    fixtures_sub = fixtures.add_subparsers(dest="action", required=True)

    emit = fixtures_sub.add_parser("emit", help="write a fixture's files to a directory")
    emit.add_argument("--name", choices=FIXTURE_NAMES, required=True)
    emit.add_argument("--out-dir", default=".", help="target directory")
    emit.set_defaults(func=_cmd_fixtures_emit)

    listing = fixtures_sub.add_parser("list", help="list available fixtures")
    listing.set_defaults(func=_cmd_fixtures_list)

    return parser


class _StderrHandler(logging.StreamHandler):
    """Writes each record to ``sys.stderr`` as it is at that moment, so a
    stream that one call redirected, and maybe closed, is not kept."""

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, _):
        pass


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call.

    Parsing keeps no state in the parser (each call gets a fresh
    namespace), so reuse is safe.  Building it takes a dozen parsers and
    their actions, which also leave reference cycles for the garbage
    collector.
    """
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    """Parse argv and execute one subcommand; returns the exit code.

    Safe to call repeatedly in one process: each call parses its own
    argv and sets the ``mitiplan`` logger's level from its own ``-v``
    count.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # The root handler is installed once, if the host has none; the level
    # is set per call on the package logger, not on the host's root.
    root = logging.getLogger()
    if not root.handlers:
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        root.addHandler(handler)
    logging.getLogger("mitiplan").setLevel(
        logging.WARNING - min(args.verbose, 2) * 10
    )
    try:
        return args.func(args)
    except MitiplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
