"""Docs-rot guards: README code runs, examples compile and expose main().

The README's quickstart block is extracted and executed verbatim (≈20 s —
the single slowest test in the suite, and worth it: broken quickstarts are
the most common failure mode of research code).  The example scripts are
compile-checked and structure-checked; their full runs are exercised
manually / by the repository's recorded outputs.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _readme_python_blocks() -> list[str]:
    text = (REPO / "README.md").read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


class TestReadme:
    def test_has_quickstart_block(self):
        blocks = _readme_python_blocks()
        assert blocks, "README lost its quickstart code block"

    def test_quickstart_block_executes(self, capsys):
        block = _readme_python_blocks()[0]
        exec(compile(block, "<README quickstart>", "exec"), {})
        out = capsys.readouterr().out
        assert "ExecutionResult" in out
        assert "OnlineRunResult" in out

    def test_mentions_core_docs(self):
        text = (REPO / "README.md").read_text(encoding="utf-8")
        assert "DESIGN.md" in text
        assert "EXPERIMENTS.md" in text


class TestDesignDocs:
    def test_design_lists_every_experiment(self):
        from repro.experiments import all_experiments

        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        for exp in all_experiments():
            if exp.id.startswith("fig"):
                assert exp.id in design, f"{exp.id} missing from DESIGN.md"

    def test_experiments_md_covers_every_figure(self):
        recorded = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for fig in ("Fig. 4", "Fig. 8", "Fig. 16", "Fig. 17", "Fig. 21", "Fig. 25"):
            assert fig in recorded


EXAMPLES = sorted((REPO / "examples").glob("*.py"))


class TestExamples:
    def test_at_least_five_examples(self):
        assert len(EXAMPLES) >= 5

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_compiles(self, path):
        source = path.read_text(encoding="utf-8")
        compile(source, str(path), "exec")

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_has_main_and_docstring(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert ast.get_docstring(tree), f"{path.name} lacks a docstring"
        names = {
            node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        }
        assert "main" in names, f"{path.name} lacks a main() entry point"

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_repro_imports_resolve(self, path):
        """Every name an example imports from a ``repro`` module exists."""
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[0] != "repro":
                    continue
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(module, alias.name):
                        # ``from pkg import submodule`` imports it on demand.
                        importlib.import_module(f"{node.module}.{alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        importlib.import_module(alias.name)

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_only_public_imports(self, path):
        """Examples must stick to the public API (no underscore imports)."""
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module == "__future__":
                    continue
                assert not node.module.startswith("_")
                for alias in node.names:
                    assert not alias.name.startswith("_"), (
                        f"{path.name} imports private name {alias.name}"
                    )
