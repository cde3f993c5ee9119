"""Documentation consistency tests.

README/DESIGN/EXPERIMENTS are deliverables; these tests keep them honest:
the quickstart snippet must actually run, the experiment tables must
mention every registered experiment, every ``repro.…`` path they cite must
exist, and the docs must exist.
"""

import importlib
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def read(name: str) -> str:
    path = REPO_ROOT / name
    assert path.is_file(), f"missing doc: {name}"
    return path.read_text(encoding="utf-8")


class TestDocsExist:
    @pytest.mark.parametrize(
        "name",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/THEORY.md"],
    )
    def test_present_and_nonempty(self, name):
        assert len(read(name)) > 500


class TestReadmeQuickstartRuns:
    def test_python_blocks_execute(self):
        """Every python code block in the README must execute cleanly."""
        text = read("README.md")
        blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
        assert blocks, "README must contain at least one python block"
        for block in blocks:
            exec(compile(block, "<README>", "exec"), {})


class TestExperimentTablesComplete:
    def test_readme_lists_every_experiment(self):
        from repro.experiments.registry import EXPERIMENTS

        text = read("README.md")
        for experiment in EXPERIMENTS:
            assert f"| {experiment.id} |" in text, experiment.id

    def test_experiments_md_covers_every_experiment(self):
        from repro.experiments.registry import EXPERIMENTS

        text = read("EXPERIMENTS.md")
        for experiment in EXPERIMENTS:
            assert experiment.id in text, experiment.id

    def test_design_md_lists_every_bench(self):
        from repro.experiments.registry import EXPERIMENTS

        text = read("DESIGN.md")
        for experiment in EXPERIMENTS:
            assert experiment.bench in text, experiment.bench


class TestExamplesDocumented:
    def test_readme_mentions_every_example(self):
        text = read("README.md")
        for path in (REPO_ROOT / "examples").glob("*.py"):
            assert path.name in text, f"README must document {path.name}"


class TestPaperCheckRecorded:
    def test_design_records_paper_match(self):
        text = read("DESIGN.md")
        assert "Paper-text check" in text


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` imports as a module or is an attribute chain
    below the longest importable module prefix."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        try:
            for name in parts[split:]:
                target = getattr(target, name)
        except AttributeError:
            return False
        return True
    return False


class TestDottedPathsResolve:
    def test_every_cited_repro_path_exists(self):
        """A ``repro.…`` path in a backticked span of README, DESIGN,
        EXPERIMENTS or docs/ names a module or an attribute that exists, so
        a deleted or renamed definition cannot stay cited."""
        names = ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + sorted(
            str(path.relative_to(REPO_ROOT))
            for path in (REPO_ROOT / "docs").glob("*.md")
        )
        cited = {
            (name, dotted)
            for name in names
            for span in re.findall(r"`([^`\n]+)`", read(name))
            for dotted in re.findall(r"\brepro(?:\.\w+)+", span)
        }
        assert len(cited) > 50
        stale = sorted(
            f"{name}: {dotted}" for name, dotted in cited
            if not _resolves(dotted)
        )
        assert stale == []
