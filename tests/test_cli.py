from __future__ import annotations

import gc
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mitiplan
from mitiplan import cli
from mitiplan.catalog import Catalog, Mitigation, Technique, load_catalog, save_catalog
from mitiplan.cli import run
from mitiplan.matrix import build_decision_matrix
from mitiplan.scoring import load_weights


@pytest.fixture()
def fixture_dir(tmp_path):
    assert run(["fixtures", "emit", "--name", "paper_v13", "--out-dir", str(tmp_path)]) == 0
    return tmp_path


def _rank_args(fixture_dir, *extra):
    return [
        "--timestamp",
        "1700000000",
        "rank",
        "--catalog",
        str(fixture_dir / "paper_v13_catalog.json"),
        "--weights",
        str(fixture_dir / "paper_v13_weights.csv"),
        *extra,
    ]


class TestParser:
    def test_version(self, capsys):
        assert run(["--version"]) == 0
        assert capsys.readouterr().out.strip() == "mitiplan 0.1.0"

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["deorbit"]) == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run(["rank"]) == 2


class TestFixtures:
    def test_emit_writes_and_lists_files(self, tmp_path, capsys):
        assert (
            run(["fixtures", "emit", "--name", "paper_v13", "--out-dir", str(tmp_path)])
            == 0
        )
        listed = capsys.readouterr().out.splitlines()
        assert len(listed) == 4
        for line in listed:
            assert (tmp_path / line.split("/")[-1]).exists()
        assert (tmp_path / "paper_v13_catalog.json").exists()

    def test_list(self, capsys):
        assert run(["fixtures", "list"]) == 0
        assert "paper_v13" in capsys.readouterr().out.splitlines()


class TestIngest:
    def test_csv_reproduces_bundled_catalog(self, fixture_dir, tmp_path):
        out = tmp_path / "rebuilt.json"
        code = run(
            [
                "ingest",
                "csv",
                "--techniques",
                str(fixture_dir / "paper_v13_techniques.csv"),
                "--mappings",
                str(fixture_dir / "paper_v13_mappings.csv"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_bytes() == (fixture_dir / "paper_v13_catalog.json").read_bytes()

    def test_csv_to_stdout(self, fixture_dir, capsysbinary):
        code = run(
            [
                "ingest",
                "csv",
                "--techniques",
                str(fixture_dir / "paper_v13_techniques.csv"),
                "--mappings",
                str(fixture_dir / "paper_v13_mappings.csv"),
                "--out",
                "-",
            ]
        )
        assert code == 0
        parsed = json.loads(capsysbinary.readouterr().out)
        assert parsed["schema_version"] == 1
        assert len(parsed["mappings"]) == 46

    def test_bad_mapping_csv_reports_error(self, fixture_dir, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("technique_id,mitigation_id\nT1053,M1026\nT1053,M1026\n")
        code = run(
            [
                "ingest",
                "csv",
                "--techniques",
                str(fixture_dir / "paper_v13_techniques.csv"),
                "--mappings",
                str(bad),
                "--out",
                str(tmp_path / "never.json"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_integer_too_long_to_decode_exits_1(self, fixture_dir, tmp_path, capsys):
        # Past the interpreter's digit limit json.loads raises a plain ValueError.
        digits = "1" * 5000
        bundle = tmp_path / "bundle.json"
        bundle.write_text(f'{{"type": "bundle", "objects": [], "x": {digits}}}')
        assert run(["ingest", "stix", "--bundle", str(bundle), "--out", "-"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: bundle is not valid JSON: Exceeds the limit"
        )
        catalog = fixture_dir / "paper_v13_catalog.json"
        catalog.write_text(f'{{"schema_version": {digits}}}')
        assert run(_rank_args(fixture_dir, "--out", "-")) == 1
        assert capsys.readouterr().err.startswith(
            "error: catalog file is not valid JSON: Exceeds the limit"
        )

    def test_stix_bundle_with_collapse(self, tmp_path):
        bundle = {
            "type": "bundle",
            "id": "bundle--0",
            "objects": [
                {
                    "type": "attack-pattern",
                    "id": "attack-pattern--1",
                    "name": "Phishing",
                    "external_references": [
                        {"source_name": "mitre-attack", "external_id": "T1566"}
                    ],
                },
                {
                    "type": "attack-pattern",
                    "id": "attack-pattern--2",
                    "name": "Spearphishing Attachment",
                    "external_references": [
                        {"source_name": "mitre-attack", "external_id": "T1566.001"}
                    ],
                },
                {
                    "type": "course-of-action",
                    "id": "course-of-action--3",
                    "name": "User Training",
                    "external_references": [
                        {"source_name": "mitre-attack", "external_id": "M1017"}
                    ],
                },
                {
                    "type": "relationship",
                    "id": "relationship--3-2",
                    "relationship_type": "mitigates",
                    "source_ref": "course-of-action--3",
                    "target_ref": "attack-pattern--2",
                },
            ],
        }
        bundle_path = tmp_path / "bundle.json"
        bundle_path.write_text(json.dumps(bundle))

        collapsed_path = tmp_path / "collapsed.json"
        assert (
            run(["ingest", "stix", "--bundle", str(bundle_path), "--out", str(collapsed_path)])
            == 0
        )
        collapsed = load_catalog(collapsed_path)
        assert collapsed.technique_ids() == ("T1566",)
        assert collapsed.mappings == (("M1017", "T1566"),)

        flat_path = tmp_path / "flat.json"
        assert (
            run(
                [
                    "ingest",
                    "stix",
                    "--bundle",
                    str(bundle_path),
                    "--out",
                    str(flat_path),
                    "--no-collapse",
                ]
            )
            == 0
        )
        flat = load_catalog(flat_path)
        assert flat.technique_ids() == ("T1566", "T1566.001")
        assert flat.mappings == (("M1017", "T1566.001"),)

    def test_stix_non_list_external_references_exits_1(self, tmp_path, capsys):
        bundle = {
            "type": "bundle",
            "id": "bundle--0",
            "objects": [
                {"type": "identity", "id": "identity--1"},
                {
                    "type": "attack-pattern",
                    "id": "attack-pattern--1",
                    "name": "Phishing",
                    "external_references": 5,
                },
            ],
        }
        bundle_path = tmp_path / "bundle.json"
        bundle_path.write_text(json.dumps(bundle))
        out = tmp_path / "never.json"
        code = run(["ingest", "stix", "--bundle", str(bundle_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed bundle object at index 1")
        assert "Traceback" not in err
        assert not out.exists()


    def test_stix_unencodable_name_skipped(self, tmp_path, capsys):
        bundle = {
            "type": "bundle",
            "id": "bundle--0",
            "objects": [
                {
                    "type": "attack-pattern",
                    "id": f"attack-pattern--{num}",
                    "name": name,
                    "external_references": [
                        {"source_name": "mitre-attack", "external_id": tid}
                    ],
                }
                for num, tid, name in ((1, "T1566", "Phishing"), (2, "T1059", "x\ud800"))
            ],
        }
        bundle_path = tmp_path / "bundle.json"
        bundle_path.write_text(json.dumps(bundle))
        out = tmp_path / "catalog.json"
        code = run(["ingest", "stix", "--bundle", str(bundle_path), "--out", str(out)])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        assert load_catalog(out).technique_ids() == ("T1566",)

    @pytest.mark.parametrize("prop", ["source_ref", "target_ref"])
    def test_stix_non_string_ref_exits_1(self, tmp_path, capsys, prop):
        relationship = {
            "type": "relationship",
            "id": "relationship--1",
            "relationship_type": "mitigates",
            "source_ref": "course-of-action--1",
            "target_ref": "attack-pattern--1",
        }
        relationship[prop] = [relationship[prop]]
        bundle = {
            "type": "bundle",
            "id": "bundle--0",
            "objects": [{"type": "identity", "id": "identity--1"}, relationship],
        }
        bundle_path = tmp_path / "bundle.json"
        bundle_path.write_text(json.dumps(bundle))
        out = tmp_path / "never.json"
        code = run(["ingest", "stix", "--bundle", str(bundle_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: malformed bundle object at index 1: {prop} must be a string\n"
        assert not out.exists()

    def test_ingest_counts_logged_per_call(self, fixture_dir, tmp_path, caplog):
        args = [
            "ingest",
            "csv",
            "--techniques",
            str(fixture_dir / "paper_v13_techniques.csv"),
            "--mappings",
            str(fixture_dir / "paper_v13_mappings.csv"),
            "--out",
            str(tmp_path / "catalog.json"),
        ]
        caplog.set_level(logging.DEBUG)
        assert run(args) == 0
        assert [r for r in caplog.records if r.name == "mitiplan.cli"] == []
        assert run(["-v", *args]) == 0
        assert [r.getMessage() for r in caplog.records if r.name == "mitiplan.cli"] == [
            "ingested 10 techniques, 18 mitigations, 46 mappings; "
            "skipped 0 objects, 0 dangling relationships, 0 warnings"
        ]


def _fresh_python(code, *argv):
    """Run ``python -c code argv`` on this package in a fresh process."""
    env = dict(os.environ)
    src = str(Path(mitiplan.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )


def _cli_stderr(*argv):
    """stderr of the ``mitiplan`` console script's entry point."""
    proc = _fresh_python("from mitiplan.cli import main; main()", *argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.splitlines()


class TestIngestLogging:
    """Ingest statistics on stderr: none by default, counts with -v,
    every warning too with -vv."""

    @pytest.fixture()
    def bundle_path(self, tmp_path):
        objects = [
            {
                "type": "attack-pattern",
                "id": "attack-pattern--1",
                "name": "Phishing",
                "external_references": [
                    {"source_name": "mitre-attack", "external_id": "T1566"}
                ],
            },
            {
                "type": "course-of-action",
                "id": "course-of-action--2",
                "name": 7,
                "external_references": [
                    {"source_name": "mitre-attack", "external_id": "M1017"}
                ],
            },
            {"type": "identity", "id": "identity--3"},
            {
                "type": "relationship",
                "id": "relationship--4",
                "relationship_type": "mitigates",
                "source_ref": "course-of-action--2",
                "target_ref": "attack-pattern--1",
            },
        ]
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps({"type": "bundle", "id": "bundle--0", "objects": objects}))
        return path

    COUNTS = (
        "INFO mitiplan.cli: ingested 1 techniques, 0 mitigations, 0 mappings; "
        "skipped 2 objects, 1 dangling relationships, 2 warnings"
    )

    def _ingest(self, bundle_path, *flags):
        out = bundle_path.parent / "catalog.json"
        return _cli_stderr(*flags, "ingest", "stix", "--bundle", str(bundle_path),
                           "--out", str(out))

    def test_default_stderr_is_silent(self, bundle_path):
        assert self._ingest(bundle_path) == []

    def test_verbose_logs_counts(self, bundle_path):
        assert self._ingest(bundle_path, "-v") == [self.COUNTS]

    def test_very_verbose_logs_each_warning(self, bundle_path):
        assert self._ingest(bundle_path, "-vv") == [
            self.COUNTS,
            "DEBUG mitiplan.cli: ingest warning: object 1: M1017: name must be a str, got 7",
            "DEBUG mitiplan.cli: ingest warning: relationship at index 3: unresolved endpoint",
        ]


class TestMatrix:
    def test_export_layout(self, fixture_dir, capsysbinary):
        code = run(
            [
                "matrix",
                "--catalog",
                str(fixture_dir / "paper_v13_catalog.json"),
                "--weights",
                str(fixture_dir / "paper_v13_weights.csv"),
                "--out",
                "-",
            ]
        )
        assert code == 0
        lines = capsysbinary.readouterr().out.decode().splitlines()
        assert lines[0].startswith("weight,")
        assert lines[1].startswith("mitigation_id,")
        assert len(lines) == 2 + 18

    def test_warning_reaches_stderr_after_closed_redirect(self, tmp_path):
        # The first call installs the log handler while stderr is a buffer
        # that is then closed; a later warning must still reach stderr.
        catalog = Catalog(
            [Technique("T1053"), Technique("T1059")],
            [Mitigation("M1026")],
            [("M1026", "T1053")],
        )
        save_catalog(catalog, tmp_path / "catalog.json")
        (tmp_path / "weights.csv").write_text(
            "no,score,tid,name\n1,2.0,T1053,x\n2,1.0,T1059,y\n"
        )
        code = (
            "import contextlib, io, sys\n"
            "from mitiplan.cli import run\n"
            "buffer = io.StringIO()\n"
            "with contextlib.redirect_stderr(buffer):\n"
            "    assert run(['fixtures', 'list']) == 0\n"
            "buffer.close()\n"
            "sys.exit(run(sys.argv[1:]))\n"
        )
        proc = _fresh_python(
            code,
            "matrix",
            "--catalog",
            str(tmp_path / "catalog.json"),
            "--weights",
            str(tmp_path / "weights.csv"),
            "--out",
            str(tmp_path / "matrix.csv"),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            "WARNING mitiplan.matrix: dropping 1 technique(s) with no mapped "
            "mitigation: T1059"
        ]


class TestRank:
    def test_json_plan_byte_stable(self, fixture_dir, tmp_path):
        first = tmp_path / "plan1.json"
        second = tmp_path / "plan2.json"
        assert run(_rank_args(fixture_dir, "--out", str(first))) == 0
        assert run(_rank_args(fixture_dir, "--out", str(second))) == 0
        assert first.read_bytes() == second.read_bytes()
        doc = json.loads(first.read_text())
        assert doc["method"] == "wsm"
        assert doc["timestamp"] == 1700000000
        top = doc["entries"][0]
        assert top["mitigation_id"] == "M1026"
        assert top["score"] == pytest.approx(3.428588, abs=2e-5)

    def test_top_truncates_csv(self, fixture_dir, capsysbinary):
        code = run(
            _rank_args(fixture_dir, "--top", "3", "--format", "csv", "--out", "-")
        )
        assert code == 0
        lines = capsysbinary.readouterr().out.decode().splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("1,M1026,,3.428588,")

    def test_md_format(self, fixture_dir, capsysbinary):
        code = run(_rank_args(fixture_dir, "--format", "md", "--out", "-"))
        assert code == 0
        out = capsysbinary.readouterr().out.decode()
        assert out.startswith("| rank | mitigation_id | name | score | covered_techniques |")

    def test_wpm_zero_cell_is_data_error(self, fixture_dir, tmp_path, capsys):
        code = run(
            _rank_args(fixture_dir, "--method", "wpm", "--out", str(tmp_path / "p.json"))
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "M1013" in err and "T1053" in err

    def test_wpm_epsilon_policy_succeeds(self, fixture_dir, tmp_path):
        out = tmp_path / "wpm.json"
        code = run(
            _rank_args(
                fixture_dir,
                "--method",
                "wpm",
                "--zero-policy",
                "epsilon",
                "--out",
                str(out),
            )
        )
        assert code == 0
        assert json.loads(out.read_text())["method"] == "wpm"

    def test_wpm_epsilon_above_a_covered_cell_exits_1(self, fixture_dir, capsys):
        args = ["--method", "wpm", "--zero-policy", "epsilon", "--epsilon", "1e300"]
        code = run(_rank_args(fixture_dir, *args, "--format", "csv", "--out", "-"))
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: epsilon must be below the smallest nonzero coverage cell 0.1, "
            "got 1e+300\n"
        )

    def test_bad_top_value(self, fixture_dir, tmp_path, capsys):
        code = run(_rank_args(fixture_dir, "--top", "0", "--out", str(tmp_path / "p.json")))
        assert code == 1
        assert "--top" in capsys.readouterr().err

    def test_unencodable_catalog_name_exits_1(self, fixture_dir, capsys):
        path = fixture_dir / "paper_v13_catalog.json"
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"name": "', '"name": "\\ud800', 1), encoding="utf-8")
        assert run(_rank_args(fixture_dir, "--out", "-")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "name is not encodable as UTF-8" in err

    def test_weights_id_with_non_ascii_digits_exits_1(self, fixture_dir, capsys):
        path = fixture_dir / "paper_v13_weights.csv"
        text = path.read_text(encoding="utf-8")
        arabic_indic = ",T\u0661\u0660\u0665\u0663,"
        path.write_text(text.replace(",T1053,", arabic_indic, 1), encoding="utf-8")
        assert run(_rank_args(fixture_dir, "--out", "-")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: weights CSV row 1: invalid technique ID")

    @pytest.mark.parametrize("version, shown", [("true", "True"), ("1.0", "1.0"), ('"1"', "'1'")])
    def test_schema_version_not_the_integer_exits_1(self, fixture_dir, capsys, version, shown):
        path = fixture_dir / "paper_v13_catalog.json"
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"schema_version": 1,', f'"schema_version": {version},'))
        assert run(_rank_args(fixture_dir, "--out", "-")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err == (
            f"error: unsupported catalog schema version {shown} (expected 1)\n"
        )

    def test_duplicate_mapping_exits_1(self, fixture_dir, capsys):
        path = fixture_dir / "paper_v13_catalog.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["mappings"].append(doc["mappings"][0])
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(_rank_args(fixture_dir, "--out", "-")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        mid, tid = doc["mappings"][0]
        assert captured.err == f"error: duplicate mapping {mid} -> {tid} in catalog\n"

    def test_missing_catalog_file(self, fixture_dir, tmp_path, capsys):
        code = run(
            [
                "rank",
                "--catalog",
                str(tmp_path / "missing.json"),
                "--weights",
                str(fixture_dir / "paper_v13_weights.csv"),
                "--out",
                "-",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestSimulate:
    def _simulate(self, fixture_dir, campaign, out=None, trials="500"):
        args = [
            "simulate",
            "--catalog",
            str(fixture_dir / "paper_v13_catalog.json"),
            "--weights",
            str(fixture_dir / "paper_v13_weights.csv"),
            "--campaign",
            campaign,
            "--trials",
            trials,
            "--seed",
            "42",
        ]
        if out:
            args += ["--out", out]
        return run(args)

    def test_reference_campaign_report(self, fixture_dir, capsys):
        assert self._simulate(fixture_dir, "T1053,T1059") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "campaign: T1053,T1059 (threshold 1)"
        assert out[1] == "plan steps to block: 1"
        assert out[2].startswith("baseline over 500 trials (seed 42): mean ")
        assert out[3].startswith("plan advantage: ")

    def test_readme_seed_42_summary(self, fixture_dir, capsys):
        assert self._simulate(fixture_dir, "T1053,T1059", trials="10000") == 0
        assert capsys.readouterr().out.splitlines() == [
            "campaign: T1053,T1059 (threshold 1)",
            "plan steps to block: 1",
            "baseline over 10000 trials (seed 42): mean 4.476, std 2.457, unblocked 0.0%",
            "plan advantage: 4.476x fewer steps than random",
        ]

    def test_subtechnique_spelling_equivalent(self, fixture_dir, tmp_path, capsys):
        exact_out = tmp_path / "exact.json"
        sub_out = tmp_path / "sub.json"
        assert self._simulate(fixture_dir, "T1053,T1059", out=str(exact_out)) == 0
        exact_text = capsys.readouterr().out.splitlines()
        assert self._simulate(fixture_dir, "T1053.005,T1059.001", out=str(sub_out)) == 0
        sub_text = capsys.readouterr().out.splitlines()
        assert exact_out.read_bytes() == sub_out.read_bytes()
        assert exact_text[1:] == sub_text[1:]

    def test_out_carries_provenance(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "sim.json"
        assert self._simulate(fixture_dir, "T1059.001,T1053", out=str(out)) == 0
        doc = json.loads(out.read_text())
        assert sorted(doc) == ["baseline", "plan", "provenance", "ratio"]
        matrix = build_decision_matrix(
            load_catalog(fixture_dir / "paper_v13_catalog.json"),
            load_weights((fixture_dir / "paper_v13_weights.csv").read_bytes()),
        )
        assert doc["provenance"] == {
            "tool_version": mitiplan.__version__,
            "catalog_hash": matrix.catalog_hash,
            "weights_hash": matrix.weights_hash,
            "method": "wsm",
            "campaign": ["T1053", "T1059"],
            "k": 1,
            "seed": 42,
            "trials": 500,
        }

    @pytest.mark.parametrize(
        "campaign, line",
        [
            ("T1053,T1059", "forward walk (T1053 has 4 covers, > 2k-1 = 1)"),
            ("T1112", "backward walk (T1112 has 1 covers, <= 2k-1 = 1)"),
        ],
    )
    def test_verbose_names_the_walk(self, fixture_dir, campaign, line):
        argv = [
            "simulate",
            "--catalog",
            str(fixture_dir / "paper_v13_catalog.json"),
            "--weights",
            str(fixture_dir / "paper_v13_weights.csv"),
            "--campaign",
            campaign,
            "--trials",
            "50",
        ]
        assert _cli_stderr(*argv) == []
        walk, error = _cli_stderr("-v", *argv)
        assert walk == f"INFO mitiplan.simulator: random baseline: {line}"
        assert error.startswith(
            "INFO mitiplan.simulator: random baseline: standard error of the mean "
        )
        assert error.endswith(" over 50 blocked trials")

    def test_wpm_is_not_a_simulate_method(self, fixture_dir, capsys):
        args = [
            "simulate",
            "--catalog",
            str(fixture_dir / "paper_v13_catalog.json"),
            "--weights",
            str(fixture_dir / "paper_v13_weights.csv"),
            "--campaign",
            "T1053",
            "--method",
            "wpm",
        ]
        assert run(args) == 2
        assert "invalid choice: 'wpm'" in capsys.readouterr().err

    def test_unknown_campaign_technique(self, fixture_dir, capsys):
        assert self._simulate(fixture_dir, "T9999") == 1
        assert "T9999" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "campaign, message",
        [
            ("T10,T1053", "invalid technique ID: 'T10'"),
            (" , ", "campaign needs at least one technique"),
            ("T1053, T1053", "campaign techniques must be unique"),
        ],
    )
    def test_bad_campaign_exits_1(self, fixture_dir, capsys, campaign, message):
        assert self._simulate(fixture_dir, campaign) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_never_blocked_baseline_line(self, fixture_dir, capsys):
        args = [
            "simulate",
            "--catalog",
            str(fixture_dir / "paper_v13_catalog.json"),
            "--weights",
            str(fixture_dir / "paper_v13_weights.csv"),
            "--campaign",
            "T1112",
            "--k",
            "2",
            "--trials",
            "20",
            "--seed",
            "1",
        ]
        assert run(args) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "plan steps to block: never"
        assert out[2].endswith("never blocked")
        assert len(out) == 3


class TestScore:
    def test_risk(self, capsys):
        assert run(["score", "risk", "--threat", "0.8", "--vuln", "0.5", "--impact", "10"]) == 0
        assert capsys.readouterr().out.strip() == "4.000000"

    def test_risk_rejects_out_of_range(self, capsys):
        assert run(["score", "risk", "--threat", "1.5", "--vuln", "0.5", "--impact", "1"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("threat, impact", [("0.5", "nan"), ("0", "inf")])
    def test_risk_rejects_impact_that_is_not_finite(self, capsys, threat, impact):
        argv = ["score", "risk", "--threat", threat, "--vuln", "0.5", "--impact", impact]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: impact must be finite and nonnegative, got {float(impact)}\n"
        )

    def test_cvss_reference_vector(self, capsys):
        assert run(["score", "cvss", "--av", "N", "--ac", "L", "--pr", "N", "--ui", "N"]) == 0
        assert capsys.readouterr().out.strip() == "3.887043"

    def test_cvss_scope_changes_privilege_weight(self, capsys):
        assert run(["score", "cvss", "--av", "N", "--ac", "L", "--pr", "L", "--ui", "N"]) == 0
        unchanged = float(capsys.readouterr().out)
        assert (
            run(
                [
                    "score",
                    "cvss",
                    "--av",
                    "N",
                    "--ac",
                    "L",
                    "--pr",
                    "L",
                    "--ui",
                    "N",
                    "--scope-changed",
                ]
            )
            == 0
        )
        changed = float(capsys.readouterr().out)
        assert changed > unchanged


class TestRepeatedRuns:
    """``run`` builds its parser once and reuses it across calls."""

    def _simulate_args(self, fixture_dir):
        return [
            "simulate",
            "--catalog",
            str(fixture_dir / "paper_v13_catalog.json"),
            "--weights",
            str(fixture_dir / "paper_v13_weights.csv"),
            "--campaign",
            "T1053,T1059",
        ]

    def test_ops_do_not_rebuild_the_parser(self, fixture_dir, tmp_path, capsys):
        ops = [
            self._simulate_args(fixture_dir),
            _rank_args(fixture_dir, "--out", str(tmp_path / "plan.json")),
        ]
        for argv in ops:  # warm-up: imports, caches, the parser itself
            assert run(argv) == 0
        builds = cli._parser.cache_info().misses
        gc.collect()
        gc.disable()
        try:
            cli.build_parser()
            parser_cycles = gc.collect()  # what building one parser leaves
            for argv in ops:
                assert run(argv) == 0
            garbage = gc.collect()
        finally:
            gc.enable()
        assert cli._parser.cache_info().misses == builds
        if parser_cycles == 0:
            pytest.skip("building a parser leaves no reference cycles here")
        # Building the parser per call would leave at least parser_cycles
        # per op; other libraries' cycles (the JSON encoder's) stay below.
        assert garbage < parser_cycles

    def test_host_root_log_level_unchanged(self, fixture_dir, capsys):
        root = logging.getLogger()
        saved = root.level
        root.setLevel(logging.ERROR)
        try:
            assert run(["-vv", *_rank_args(fixture_dir, "--out", "-")]) == 0
            assert root.level == logging.ERROR
            assert logging.getLogger("mitiplan").level == logging.DEBUG
            assert run(_rank_args(fixture_dir, "--out", "-")) == 0
            assert root.level == logging.ERROR
            assert logging.getLogger("mitiplan").level == logging.WARNING
        finally:
            root.setLevel(saved)

    def test_parser_built_once(self):
        assert cli._parser() is cli._parser()

    def test_parser_not_built_at_import(self):
        proc = _fresh_python(
            "import mitiplan.cli as c; print(c._parser.cache_info().currsize)"
        )
        assert (proc.returncode, proc.stdout) == (0, "0\n")

    def test_reused_parser_behaves_like_a_fresh_one(self, fixture_dir, capsys):
        calls = [
            ["rank", "--method", "nope"],
            _rank_args(fixture_dir, "--top", "2", "--format", "csv", "--out", "-"),
            ["--version"],
        ]

        def outcome(argv):
            code = run(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(outcome(argv))
        reused = [outcome(argv) for argv in calls]
        assert [code for code, _, _ in fresh] == [2, 0, 0]
        assert "invalid choice: 'nope'" in fresh[0][2]
        assert fresh[1][1].startswith("rank,mitigation_id,")
        assert fresh[2][1] == "mitiplan 0.1.0\n"
        assert reused == fresh


class TestProvenanceOnDemand:
    """Each command hashes its inputs only when its output carries them."""

    def _inputs(self, fixture_dir):
        return [
            "--catalog",
            str(fixture_dir / "paper_v13_catalog.json"),
            "--weights",
            str(fixture_dir / "paper_v13_weights.csv"),
        ]

    def _simulate(self, fixture_dir, *extra):
        return run(
            ["simulate", *self._inputs(fixture_dir), "--campaign", "T1053,T1059",
             "--trials", "50", *extra]
        )

    def test_simulate_without_out_hashes_nothing(self, fixture_dir, hash_calls, capsys):
        assert self._simulate(fixture_dir) == 0
        assert hash_calls == {"catalog": 0, "weights": 0}

    def test_simulate_with_out_hashes_each_once(
        self, fixture_dir, tmp_path, hash_calls, capsys
    ):
        assert self._simulate(fixture_dir, "--out", str(tmp_path / "sim.json")) == 0
        assert hash_calls == {"catalog": 1, "weights": 1}

    def test_rank_json_hashes_each_once(self, fixture_dir, hash_calls, capsys):
        assert run(_rank_args(fixture_dir, "--format", "json", "--out", "-")) == 0
        assert hash_calls == {"catalog": 1, "weights": 1}

    @pytest.mark.parametrize("fmt", ["csv", "md"])
    def test_rank_text_formats_hash_nothing(self, fixture_dir, hash_calls, capsys, fmt):
        assert run(_rank_args(fixture_dir, "--format", fmt, "--out", "-")) == 0
        assert hash_calls == {"catalog": 0, "weights": 0}

    def test_matrix_hashes_nothing(self, fixture_dir, hash_calls, capsys):
        assert run(["matrix", *self._inputs(fixture_dir), "--out", "-"]) == 0
        assert hash_calls == {"catalog": 0, "weights": 0}


class TestMalformedCsv:
    """An unclosed quoted cell, or junk after its closing quote, is a
    data error with the file's label and row."""

    @pytest.mark.parametrize(
        "bad, message",
        [
            ('"abc', "error: weights CSV row 3: malformed CSV: unexpected end of data\n"),
            ('"abc"d', "error: weights CSV row 3: malformed CSV: ',' expected after '\"'\n"),
        ],
    )
    def test_weights_exit_1_without_traceback(self, fixture_dir, capsys, bad, message):
        path = fixture_dir / "paper_v13_weights.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[3] = lines[3].rsplit(",", 1)[0] + "," + bad + "\n"
        path.write_text("".join(lines[:4]), encoding="utf-8")
        assert run(_rank_args(fixture_dir, "--out", "-")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    def test_whitespace_rows_are_blank_but_counted(self, fixture_dir, capsysbinary):
        # Whitespace-only rows between the data rows change no ranking,
        # and a later error still cites the row number counting them.
        assert run(_rank_args(fixture_dir, "--format", "csv", "--out", "-")) == 0
        expected = capsysbinary.readouterr().out
        path = fixture_dir / "paper_v13_weights.csv"
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        blanks = [" \n", "\t,\u3000\n", ' ,"  ",\u2028\n']
        spaced = [header]
        for row, blank in zip(rows, blanks * len(rows)):
            spaced += [row, blank]
        path.write_text("".join(spaced), encoding="utf-8")
        assert run(_rank_args(fixture_dir, "--format", "csv", "--out", "-")) == 0
        assert capsysbinary.readouterr().out == expected
        path.write_text("".join(spaced[:5] + ["3,0,T1562,x\n"]), encoding="utf-8")
        assert run(_rank_args(fixture_dir, "--out", "-")) == 1
        assert capsysbinary.readouterr().err.decode() == (
            "error: weights CSV row 5: score must be finite and positive, got 0.0\n"
        )

    def test_mapping_csv_exit_1(self, fixture_dir, tmp_path, capsys):
        mappings = tmp_path / "mappings.csv"
        mappings.write_text('technique_id,mitigation_id\nT1053,"M1047\n', encoding="utf-8")
        code = run(
            ["ingest", "csv", "--techniques", str(fixture_dir / "paper_v13_techniques.csv"),
             "--mappings", str(mappings), "--out", "-"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: mapping CSV row 1: malformed CSV: unexpected end of data\n"
        )
