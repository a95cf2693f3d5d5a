"""Documentation consistency: the docs must track the artifacts.

These meta-tests keep README / DESIGN.md / EXPERIMENTS.md from drifting as
benches and examples are added -- every runnable artifact must be referenced
where a reader would look for it.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _read(name: str) -> str:
    return (ROOT / name).read_text()


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``; the rest must be
    attributes (``repro.core.fusion.use_fusion``)."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


class TestReadme:
    def test_every_example_listed(self):
        readme = _read("README.md")
        for example in sorted((ROOT / "examples").glob("*.py")):
            assert example.name in readme, (
                f"examples/{example.name} missing from README")

    def test_install_and_test_commands_present(self):
        readme = _read("README.md")
        assert "pip install -e ." in readme
        assert "pytest tests/" in readme
        assert "pytest benchmarks/" in readme

    def test_cites_the_paper(self):
        readme = _read("README.md")
        assert "SC 2020" in readme or "SC20" in readme
        assert "2008.11359" in readme


class TestDesign:
    def test_every_bench_file_documented(self):
        design = _read("DESIGN.md")
        experiments = _read("EXPERIMENTS.md")
        docs = design + experiments
        for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            assert bench.name in docs, (
                f"benchmarks/{bench.name} not referenced in DESIGN.md or "
                "EXPERIMENTS.md")

    def test_paper_verification_recorded(self):
        design = _read("DESIGN.md")
        assert "verified" in design.lower()
        assert "FeatGraph" in design

    @pytest.mark.parametrize("doc", ["DESIGN.md", "docs/API.md"])
    def test_named_modules_and_paths_exist(self, doc):
        text = _read(doc)
        stale = [name for name in sorted(set(
            re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", text)))
            if not _resolves(name)]
        stale += [path for path in sorted(set(
            re.findall(r"\brepro/[\w/]*(?:\.py)?", text)))
            if not (ROOT / "src" / path).exists()]
        assert not stale, f"{doc} names what does not exist: {stale}"

    def test_every_source_package_in_inventory(self):
        design = _read("DESIGN.md")
        for pkg in sorted((ROOT / "src" / "repro").iterdir()):
            if pkg.is_dir() and (pkg / "__init__.py").exists():
                assert f"repro.{pkg.name}" in design or \
                    f"repro/{pkg.name}" in design, (
                        f"package repro.{pkg.name} missing from DESIGN.md")


class TestExperiments:
    @pytest.mark.parametrize("marker", [
        "Table II", "Table III", "Table IV", "Table V", "Table VI",
        "Fig. 10", "Fig. 11", "Fig. 12", "Fig. 13", "Fig. 14", "Fig. 15",
        "Table I", "accuracy",
    ])
    def test_every_paper_artifact_has_a_section(self, marker):
        assert marker in _read("EXPERIMENTS.md")

    def test_deviations_are_documented(self):
        text = _read("EXPERIMENTS.md")
        assert "Known deviations" in text

    def test_api_doc_mentions_all_public_packages(self):
        api = _read("docs/API.md")
        for pkg in ("repro.core", "repro.tensorir", "repro.graph",
                    "repro.hwsim", "repro.baselines", "repro.minidgl",
                    "repro.bench"):
            assert pkg in api
