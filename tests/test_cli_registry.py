"""Tests for the CLI and the experiment registry."""

import pathlib

import pytest

from repro.cli import main
from repro.exceptions import ValidationError
from repro.experiments.registry import EXPERIMENTS, get_experiment

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestRegistry:
    def test_ids_are_unique_and_ordered(self):
        ids = [e.id for e in EXPERIMENTS]
        assert ids == [f"E{k}" for k in range(1, len(ids) + 1)]

    def test_every_bench_file_exists(self):
        for experiment in EXPERIMENTS:
            assert (REPO_ROOT / experiment.bench).is_file(), experiment.bench

    def test_every_bench_file_is_registered(self):
        bench_files = {
            f"benchmarks/{p.name}"
            for p in (REPO_ROOT / "benchmarks").glob("bench_*.py")
        }
        registered = {e.bench for e in EXPERIMENTS}
        assert bench_files == registered

    def test_lookup(self):
        assert get_experiment("e4").id == "E4"

    def test_lookup_unknown(self):
        with pytest.raises(ValidationError):
            get_experiment("E99")


class TestCli:
    def test_experiments_lists_all(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for experiment in EXPERIMENTS:
            assert experiment.id in out

    def test_audit_passes(self, capsys):
        code = main(
            ["audit", "gibbs", "--epsilon", "1.0", "--n", "2",
             "--samples", "2000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out
        assert "exact" in out  # the Gibbs family also runs the enumeration audit

    def test_tradeoff_prints_table(self, capsys):
        code = main(["tradeoff", "--epsilons", "0.5", "5.0", "--n", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "frontier" in out
        assert out.count("\n") >= 4

    def test_release_prints_guarantee(self, capsys):
        code = main(["release", "--epsilon", "2.0", "--n", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2-DP" in out
        assert "true risk" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCliLint:
    def test_lint_clean_tree_exits_zero(self, capsys):
        import repro

        package_dir = str(pathlib.Path(next(iter(repro.__path__))))
        assert main(["lint", package_dir]) == 0
        out = capsys.readouterr().out
        assert "no findings" in out

    def test_lint_violating_file_exits_nonzero(self, capsys, tmp_path):
        bad = tmp_path / "repro" / "mechanisms" / "snippet.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "def add_noise(rng, scale):\n"
            '    """Doc.\n\n'
            "    Parameters\n"
            "    ----------\n"
            "    rng, scale : object\n"
            '    """\n'
            "    return rng.laplace(0.0, scale)\n"
        )
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "DPL003" in out

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DPL001", "DPL006"):
            assert rule_id in out

    def test_lint_missing_path_is_usage_error(self, capsys):
        assert main(["lint", "/no/such/dir/anywhere"]) == 2
        assert "no such file" in capsys.readouterr().err
