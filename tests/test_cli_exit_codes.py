"""End-to-end exit-code contracts for ``repro lint``/``audit``/``bench``.

These subcommands (and ``audit-summary``) share one contract, enforced
here through ``main()`` and through a real ``python -m repro`` subprocess
(the code CI actually sees):

* 0 — clean: no findings / every audited claim holds;
* 1 — findings: lint violations or a certified ε violation;
* 2 — usage error: unknown rule, unknown family, bad arguments.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.analysis.__main__ import run as lint_run
from repro.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

# Small sample sizes keep these end-to-end runs fast; the margins they
# certify (see test values) are far wider than the resulting CP widths.
FAST_AUDIT = ["--samples", "2000"]


def _violating_file(tmp_path: pathlib.Path) -> pathlib.Path:
    bad = tmp_path / "repro" / "mechanisms" / "snippet.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(rng):\n    return rng.laplace(0.0, 1.0)\n")
    return bad


def _run_module(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=300,
    )


class TestLintExitCodes:
    def test_clean_tree_exits_zero(self):
        import repro

        assert main(["lint", str(next(iter(repro.__path__)))]) == 0

    def test_findings_exit_one(self, tmp_path):
        assert main(["lint", str(_violating_file(tmp_path))]) == 1

    def test_unknown_rule_exits_two(self, capsys, tmp_path):
        code = main(
            ["lint", "--select", "DPL999", str(_violating_file(tmp_path))]
        )
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys, tmp_path):
        assert main(["lint", str(tmp_path / "nope.py")]) == 2

    def test_subprocess_findings(self, tmp_path):
        result = _run_module("lint", str(_violating_file(tmp_path)))
        assert result.returncode == 1
        assert "DPL003" in result.stdout

    @pytest.mark.parametrize("flag", ["--baseline", "--write-baseline"])
    @pytest.mark.parametrize(
        "run, prefix",
        [(main, ["lint"]), (lint_run, [])],
        ids=["repro-lint", "repro.analysis"],
    )
    def test_baseline_flags_are_gone(self, run, prefix, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run([*prefix, flag, "x.json"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_one_parser_behind_both_entry_points(self, capsys):
        def flags(run, argv):
            with pytest.raises(SystemExit) as excinfo:
                run(argv)
            assert excinfo.value.code == 0
            out = capsys.readouterr().out
            return sorted(set(re.findall(r"--[a-z][a-z-]*", out)))

        repro_flags = flags(main, ["lint", "--help"])
        assert repro_flags == flags(lint_run, ["--help"])
        assert "--jobs" in repro_flags and "--baseline" not in repro_flags


class TestAuditExitCodes:
    def test_honest_mechanism_exits_zero(self, capsys):
        code = main(["audit", "laplace", *FAST_AUDIT])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out

    def test_violation_exits_one(self, capsys):
        code = main(
            ["audit", "laplace", "--noise-scale", "0.4", *FAST_AUDIT]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATION" in out

    def test_unknown_family_exits_two(self, capsys):
        code = main(["audit", "frobnicate", *FAST_AUDIT])
        assert code == 2
        assert "unknown family" in capsys.readouterr().err

    def test_bad_parameters_exit_two(self, capsys):
        code = main(["audit", "laplace", "--epsilon", "-1", *FAST_AUDIT])
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_list_families_exits_zero(self, capsys):
        from repro.testing import AUDIT_FAMILIES

        assert main(["audit", "--list"]) == 0
        out = capsys.readouterr().out
        for family in AUDIT_FAMILIES:
            assert family in out

    def test_json_report_round_trips(self, capsys):
        code = main(
            ["audit", "randomized-response", "--format", "json", *FAST_AUDIT]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["satisfied"] is True
        assert payload["reports"][0]["mechanism"] == "randomized-response"

    def test_gibbs_includes_exact_enumeration(self, capsys):
        code = main(["audit", "gibbs", "--format", "json", *FAST_AUDIT])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["gibbs_exact"]["satisfied"] is True
        assert payload["gibbs_exact"]["measured_epsilon"] <= 1.0

    def test_skip_exact_omits_enumeration(self, capsys):
        code = main(
            ["audit", "gibbs", "--skip-exact", "--format", "json", *FAST_AUDIT]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "gibbs_exact" not in payload

    def test_subprocess_full_contract(self):
        ok = _run_module("audit", "randomized-response", *FAST_AUDIT)
        assert ok.returncode == 0, ok.stderr
        broken = _run_module(
            "audit", "laplace", "--noise-scale", "0.4", *FAST_AUDIT
        )
        assert broken.returncode == 1, broken.stderr
        usage = _run_module("audit", "frobnicate")
        assert usage.returncode == 2


class TestBenchExitCodes:
    def _dirs(self, tmp_path):
        return [
            "--output-dir", str(tmp_path / "out"),
            "--cache-dir", str(tmp_path / "cache"),
        ]

    def test_clean_run_exits_zero_and_writes_manifest(self, capsys, tmp_path):
        # E14 is the cheapest registered bench (pure accounting, no RNG).
        code = main(["bench", "E14", *self._dirs(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "bench OK" in out
        manifest = json.loads((tmp_path / "out" / "BENCH_E14.json").read_text())
        assert manifest["experiment"] == "E14"
        assert manifest["summary"]["failures"] == 0
        assert all(
            c["seconds"] >= 0 for c in manifest["configurations"]
        )

    def test_second_run_hits_cache(self, capsys, tmp_path):
        argv = ["bench", "E14", *self._dirs(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        manifest = json.loads((tmp_path / "out" / "BENCH_E14.json").read_text())
        hits = manifest["summary"]["cache_hits"]
        assert hits == manifest["summary"]["configurations"]
        assert f"{hits} cache hits" in out

    def test_unknown_pattern_exits_two(self, capsys, tmp_path):
        code = main(["bench", "E99", *self._dirs(tmp_path)])
        assert code == 2
        assert "no experiment matches" in capsys.readouterr().err

    def test_bad_workers_exit_two(self, capsys, tmp_path):
        code = main(["bench", "E14", "--workers", "0", *self._dirs(tmp_path)])
        assert code == 2
        assert "workers" in capsys.readouterr().err

    def test_list_exits_zero_without_running(self, capsys, tmp_path):
        code = main(["bench", "E1?", "--list", *self._dirs(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "E10" in out and "E16" in out
        assert not (tmp_path / "out").exists()

    def test_json_report_round_trips(self, capsys, tmp_path):
        code = main(
            ["bench", "E14", "--json", "--no-cache", *self._dirs(tmp_path)]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["cache"] is False
        assert payload["failures"] == 0
        assert payload["manifests"][0]["experiment"] == "E14"

    def test_subprocess_clean_run(self, tmp_path):
        result = _run_module("bench", "E14", *self._dirs(tmp_path))
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "out" / "BENCH_E14.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--compare", "x.json"],
            ["bench", "--tolerance", "1.5"],
            ["bench", "--compare-output", "x.json"],
            ["bench", "--write-baseline", "x.json"],
            ["loadtest", "--compare", "x.json"],
            ["loadtest", "--tolerance", "5"],
        ],
    )
    def test_absolute_seconds_gate_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestLoadtestExitCodes:
    SMALL = ["--clients", "4", "--requests-per-client", "2"]

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--timeout", "nan", "request_timeout"),
            ("--timeout", "inf", "request_timeout"),
            ("--timeout", "0", "request_timeout"),
            ("--flush-window", "nan", "flush_window"),
            ("--flush-window", "inf", "flush_window"),
        ],
    )
    def test_bad_service_config_exits_two(self, flag, value, field, capsys,
                                          tmp_path):
        code = main(
            ["loadtest", *self.SMALL, flag, value,
             "--output-dir", str(tmp_path / "out")]
        )
        assert code == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_timed_run_exits_zero(self, capsys, tmp_path):
        code = main(
            ["loadtest", *self.SMALL, "--timeout", "0.015",
             "--output-dir", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "LOADTEST_smoke.json").read_text())
        assert report["deterministic"]["requests"] == 8

    def test_subprocess_nan_timeout_exits_two(self, tmp_path):
        result = _run_module(
            "loadtest", *self.SMALL, "--timeout", "nan",
            "--output-dir", str(tmp_path),
        )
        assert result.returncode == 2, result.stderr
        assert "request_timeout" in result.stderr


def _audit_row(mechanism="laplace", satisfied=True, **overrides):
    row = {
        "mechanism": mechanism,
        "claimed_epsilon": 1.0,
        "epsilon_lower_bound": 0.8123,
        "point_estimate": 0.9456,
        "satisfied": satisfied,
    }
    row.update(overrides)
    return row


class TestAuditSummaryExitCodes:
    def _write(self, tmp_path, payload) -> str:
        path = tmp_path / "audit.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_clean_report_renders_rows(self, capsys, tmp_path):
        payload = {
            "n": 3, "samples": 2000, "confidence": 0.999, "seed": 0,
            "satisfied": True,
            "reports": [_audit_row("laplace"), _audit_row("geometric")],
            "gibbs_exact": {
                "measured_epsilon": 0.9, "claimed_epsilon": 1.0,
                "satisfied": True, "pairs_checked": 24,
            },
        }
        assert main(["audit-summary", self._write(tmp_path, payload)]) == 0
        out = capsys.readouterr().out
        assert "✅ all audits within claimed ε" in out
        assert "| laplace | 1 | 0.8123 | 0.9456 | ok |" in out
        assert "| geometric |" in out
        assert "Gibbs exact enumeration: measured ε = 0.9000" in out

    def test_violation_report_is_flagged_and_exits_zero(self, capsys, tmp_path):
        payload = {
            "satisfied": False,
            "reports": [_audit_row("laplace", satisfied=False)],
        }
        assert main(["audit-summary", self._write(tmp_path, payload)]) == 0
        out = capsys.readouterr().out
        assert "❌ VIOLATION" in out
        assert "**VIOLATION**" in out

    def test_missing_file_exits_two(self, capsys, tmp_path):
        assert main(["audit-summary", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "audit.json"
        path.write_text("{not json")
        assert main(["audit-summary", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [[], {"satisfied": True}, {"reports": {}}],
        ids=["json-array", "missing-reports", "reports-not-a-list"],
    )
    def test_non_report_payload_exits_two(self, payload, capsys, tmp_path):
        assert main(["audit-summary", self._write(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert "missing 'reports'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "row",
        [
            "laplace",
            {"claimed_epsilon": 1.0, "epsilon_lower_bound": 0.5,
             "point_estimate": 0.6},
            _audit_row(claimed_epsilon=None),
            _audit_row(epsilon_lower_bound="0.5"),
        ],
        ids=["not-a-dict", "no-mechanism", "no-claim", "string-bound"],
    )
    def test_malformed_row_exits_two_before_printing(
        self, row, capsys, tmp_path
    ):
        payload = {"satisfied": True, "reports": [_audit_row(), row]}
        assert main(["audit-summary", self._write(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert "malformed report rows [1]" in captured.err
        assert captured.out == ""

    def test_malformed_exact_section_exits_two(self, capsys, tmp_path):
        payload = {
            "satisfied": True,
            "reports": [_audit_row()],
            "gibbs_exact": {"satisfied": True},
        }
        assert main(["audit-summary", self._write(tmp_path, payload)]) == 2
        assert "gibbs_exact" in capsys.readouterr().err


class TestTraceCli:
    """The observability surface: --trace/--trace-json flags + `repro trace`."""

    def _dirs(self, tmp_path):
        return [
            "--output-dir", str(tmp_path / "out"),
            "--cache-dir", str(tmp_path / "cache"),
        ]

    def test_bench_trace_json_writes_schema_valid_document(
        self, capsys, tmp_path
    ):
        from repro.observability import validate_trace

        trace_path = tmp_path / "traces" / "bench.json"
        code = main(
            [
                "bench", "E14", "--no-cache",
                "--trace-json", str(trace_path),
                *self._dirs(tmp_path),
            ]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert "trace written" in err
        payload = json.loads(trace_path.read_text())
        assert validate_trace(payload) == payload
        assert payload["name"] == "repro bench"
        names = [s["name"] for s in payload["spans"]]
        assert "experiment:E14" in names
        assert "config:E14" in names

    def test_bench_trace_prints_summary_to_stderr(self, capsys, tmp_path):
        code = main(
            ["bench", "E14", "--no-cache", "--trace", *self._dirs(tmp_path)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "repro bench" in captured.err
        assert "experiment:E14" in captured.err
        assert "bench OK" in captured.out  # stdout untouched by the trace

    def test_audit_trace_json_records_audit_spans(self, capsys, tmp_path):
        trace_path = tmp_path / "audit.json"
        code = main(
            [
                "audit", "randomized-response", "--skip-exact",
                "--trace-json", str(trace_path), *FAST_AUDIT,
            ]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(trace_path.read_text())
        assert payload["name"] == "repro audit"
        assert any(
            s["name"].startswith("audit:") for s in payload["spans"]
        )
        assert payload["counters"]["audit.trials"] >= 1
        assert payload["counters"]["mechanism.releases"] >= 1

    def test_trace_command_round_trips(self, capsys, tmp_path):
        trace_path = tmp_path / "t.json"
        assert (
            main(
                [
                    "bench", "E14", "--no-cache",
                    "--trace-json", str(trace_path),
                    *self._dirs(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "experiment:E14" in out
        assert main(["trace", str(trace_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "repro bench"

    def test_trace_command_missing_file_exits_two(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "missing.json")]) == 2
        assert "trace:" in capsys.readouterr().err

    def test_trace_command_malformed_document_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 99}')
        assert main(["trace", str(bad)]) == 2
        assert "schema version" in capsys.readouterr().err

    def test_untraced_commands_leave_no_tracer_active(self, capsys, tmp_path):
        from repro.observability import current

        assert main(["bench", "E14", "--no-cache", *self._dirs(tmp_path)]) == 0
        capsys.readouterr()
        assert current() is None

    def test_subprocess_trace_flow(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        run = _run_module(
            "bench", "E14", "--no-cache",
            "--trace-json", str(trace_path),
            "--output-dir", str(tmp_path / "out"),
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert run.returncode == 0, run.stderr
        show = _run_module("trace", str(trace_path))
        assert show.returncode == 0, show.stderr
        assert "experiment:E14" in show.stdout
