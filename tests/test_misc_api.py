"""Coverage for small public APIs not exercised elsewhere."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np

from repro.core import SlotGrid
from repro.experiments.common import ExperimentOutput, ShapeCheck
from repro.submodular import (
    ColorSampler,
    ModularFunction,
    PartitionMatroid,
    lazy_greedy_uniform,
    locally_greedy_partition,
    tabular_greedy,
)


class TestColorSamplerColumn:
    def test_column_matches_matching_samples(self):
        s = ColorSampler(["a", "b"], 3, 20, np.random.default_rng(0))
        col = s.column("a")
        assert col.shape == (20,)
        for c in range(3):
            assert set(np.flatnonzero(col == c)) == set(s.matching_samples("a", c))

    def test_matches_by_color_rows_are_contiguous_lookups(self):
        """Bulk rows equal the per-group lookups, as the compiled kernels
        take them: C-contiguous, native-int, ascending."""
        keys = [("g", j) for j in range(7)]
        s = ColorSampler(keys, 3, 20, np.random.default_rng(1))
        matches = s.matches_by_color()
        for c in range(3):
            for g, key in enumerate(keys):
                rows = matches[c][g]
                assert np.array_equal(rows, s.matching_samples(key, c))
                assert rows.dtype == np.intp and rows.flags.c_contiguous


class TestSlotGridIteration:
    def test_slots_range(self):
        grid = SlotGrid(60.0, 4)
        assert list(grid.slots()) == [0, 1, 2, 3]

    def test_empty_grid(self):
        assert list(SlotGrid(60.0, 0).slots()) == []


class TestResultReprs:
    def test_greedy_result_repr(self):
        f = ModularFunction({"a": 1.0})
        mat = PartitionMatroid({"g": ["a"]})
        res = locally_greedy_partition(f, mat)
        assert "f=" in repr(res)

    def test_lazy_result_trace(self):
        f = ModularFunction({"a": 2.0, "b": 1.0})
        res = lazy_greedy_uniform(f, f.ground_set, 2)
        assert len(res.trace) == 2
        gains = [g for (_grp, _item, g) in res.trace]
        assert gains == sorted(gains, reverse=True)

    def test_tabular_result_repr(self):
        f = ModularFunction({"a": 1.0})
        mat = PartitionMatroid({"g": ["a"]})
        res = tabular_greedy(f, mat, 2, rng=np.random.default_rng(0), num_samples=4)
        assert "|Q|" in repr(res)


class TestExperimentOutput:
    def test_render_includes_notes_and_checks(self):
        out = ExperimentOutput(
            experiment_id="x",
            title="t",
            table="tbl",
            checks=[ShapeCheck("ok", True), ShapeCheck("bad", False, "why")],
            notes="remember this",
        )
        text = out.render()
        assert "remember this" in text
        assert "[PASS] ok" in text
        assert "[FAIL] bad — why" in text
        assert not out.all_passed

    def test_all_passed_empty_checks(self):
        out = ExperimentOutput(experiment_id="x", title="t", table="tbl")
        assert out.all_passed


class TestOfflineResultSummary:
    def test_summary_fields(self, quick_network):
        from repro.offline import schedule_offline

        res = schedule_offline(quick_network, 2, rng=np.random.default_rng(0))
        text = res.summary()
        assert "C=2" in text and "partitions=" in text


class TestOptimalSummaries:
    def test_brute_force_status(self, tiny_network):
        from repro.offline import brute_force_optimal

        res = brute_force_optimal(tiny_network)
        assert res.status == "brute force"
        assert "HASTE-R" in res.summary()


class TestImportCost:
    def test_import_leaves_scipy_unloaded(self):
        """Only the exact MILP needs scipy; ``import repro`` must not pay
        for it."""
        code = (
            "import sys, repro\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
