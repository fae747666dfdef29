"""Unit tests for greedy / lazy-greedy / TabularGreedy / exact maximizers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.submodular import (
    ColorSampler,
    ModularFunction,
    PartitionMatroid,
    UniformMatroid,
    WeightedCoverageFunction,
    brute_force_matroid,
    brute_force_partition,
    exact_color_average,
    lazy_greedy_uniform,
    locally_greedy_partition,
    tabular_greedy,
)


def coverage_fixture():
    f = WeightedCoverageFunction(
        {
            "a1": frozenset({1, 2, 3}),
            "a2": frozenset({3, 4}),
            "b1": frozenset({4, 5}),
            "b2": frozenset({1}),
        }
    )
    mat = PartitionMatroid({"A": ["a1", "a2"], "B": ["b1", "b2"]})
    return f, mat


class TestLocallyGreedy:
    def test_modular_is_exact(self):
        f = ModularFunction({"a": 3.0, "b": 1.0, "c": 2.0})
        mat = PartitionMatroid({"g1": ["a", "b"], "g2": ["c"]})
        res = locally_greedy_partition(f, mat)
        assert res.selected == frozenset({"a", "c"})
        assert res.value == pytest.approx(5.0)

    def test_respects_matroid(self):
        f, mat = coverage_fixture()
        res = locally_greedy_partition(f, mat)
        assert mat.is_independent(res.selected)

    def test_value_consistent(self):
        f, mat = coverage_fixture()
        res = locally_greedy_partition(f, mat)
        assert res.value == pytest.approx(f.value(res.selected))

    def test_half_approximation_guarantee(self):
        """Nemhauser et al. [52]: locally greedy ≥ ½ · OPT."""
        rng = np.random.default_rng(0)
        for trial in range(12):
            items = {}
            groups: dict[str, list] = {"g0": [], "g1": [], "g2": []}
            for idx in range(6):
                cover = frozenset(rng.integers(0, 8, size=3).tolist())
                name = f"e{idx}"
                items[name] = cover
                groups[f"g{idx % 3}"].append(name)
            f = WeightedCoverageFunction(items)
            mat = PartitionMatroid(groups)
            greedy = locally_greedy_partition(f, mat)
            _, opt = brute_force_partition(f, mat)
            assert greedy.value >= 0.5 * opt - 1e-9

    def test_group_order_does_not_break(self):
        f, mat = coverage_fixture()
        res = locally_greedy_partition(f, mat, group_order=["B", "A"])
        assert mat.is_independent(res.selected)
        assert res.value > 0

    def test_unknown_group_order_rejected(self):
        f, mat = coverage_fixture()
        with pytest.raises(ValueError):
            locally_greedy_partition(f, mat, group_order=["A", "Z"])

    def test_skips_zero_gain_groups(self):
        f = ModularFunction({"a": 1.0, "b": 0.0})
        mat = PartitionMatroid({"g1": ["a"], "g2": ["b"]})
        res = locally_greedy_partition(f, mat)
        assert res.selected == frozenset({"a"})


class TestLazyGreedy:
    def test_matches_plain_greedy_value(self):
        rng = np.random.default_rng(1)
        for trial in range(8):
            covers = {
                f"e{i}": frozenset(rng.integers(0, 10, size=3).tolist())
                for i in range(7)
            }
            f = WeightedCoverageFunction(covers)
            k = 3
            lazy = lazy_greedy_uniform(f, covers, k)
            # Plain greedy reference.
            selected: set = set()
            for _ in range(k):
                best, best_gain = None, 1e-12
                for e in sorted(covers):
                    if e in selected:
                        continue
                    gain = f.value(selected | {e}) - f.value(selected)
                    if gain > best_gain:
                        best, best_gain = e, gain
                if best is None:
                    break
                selected.add(best)
            assert lazy.value == pytest.approx(f.value(selected))

    def test_respects_cardinality(self):
        f = ModularFunction({str(i): float(i) for i in range(6)})
        res = lazy_greedy_uniform(f, f.ground_set, 2)
        assert len(res.selected) == 2
        assert res.selected == frozenset({"5", "4"})

    def test_negative_k_rejected(self):
        f = ModularFunction({"a": 1.0})
        with pytest.raises(ValueError):
            lazy_greedy_uniform(f, {"a"}, -1)

    def test_k_zero(self):
        f = ModularFunction({"a": 1.0})
        assert lazy_greedy_uniform(f, {"a"}, 0).selected == frozenset()


class TestColorSampler:
    def test_c1_is_deterministic_single_sample(self):
        s = ColorSampler(["g1", "g2"], num_colors=1, num_samples=32, rng=np.random.default_rng(0))
        assert s.num_samples == 1
        assert list(s.matching_samples("g1", 0)) == [0]

    def test_matching_partition(self):
        s = ColorSampler(["g"], num_colors=3, num_samples=50, rng=np.random.default_rng(0))
        all_rows = np.concatenate([s.matching_samples("g", c) for c in range(3)])
        assert sorted(all_rows) == list(range(50))

    def test_color_out_of_range(self):
        s = ColorSampler(["g"], 2, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            s.matching_samples("g", 5)

    def test_duplicate_groups_rejected(self):
        with pytest.raises(ValueError):
            ColorSampler(["g", "g"], 2, 4, np.random.default_rng(0))

    @pytest.mark.parametrize("num_colors", [1, 2, 4, 7])
    @pytest.mark.parametrize("count", [0, 1, 700])
    def test_batched_final_draw_matches_scalar_draws(self, num_colors, count):
        """The final color draws take one size-N draw where N scalar draws
        ran before: same values, same generator state afterwards."""
        scalar, batched = np.random.default_rng(11), np.random.default_rng(11)
        for rng in (scalar, batched):
            ColorSampler(range(5), num_colors, 24, rng)  # the 2-D table draw
        one_by_one = [int(scalar.integers(0, num_colors)) for _ in range(count)]
        assert batched.integers(0, num_colors, size=count).tolist() == one_by_one
        assert scalar.bit_generator.state == batched.bit_generator.state

    def test_exact_color_average(self):
        # v(c) = c_g1 + 2·c_g2 with colors in {0, 1} → E = 0.5 + 1.0.
        val = exact_color_average(
            lambda assign: assign["g1"] + 2 * assign["g2"], ["g1", "g2"], 2
        )
        assert val == pytest.approx(1.5)


class TestTabularGreedy:
    def test_c1_equals_locally_greedy(self):
        f, mat = coverage_fixture()
        res_tab = tabular_greedy(f, mat, 1, rng=np.random.default_rng(0))
        res_greedy = locally_greedy_partition(f, mat, group_order=sorted(mat.groups, key=repr))
        assert res_tab.selected == res_greedy.selected
        assert res_tab.value == pytest.approx(res_greedy.value)

    def test_output_independent(self):
        f, mat = coverage_fixture()
        for c in (1, 2, 3):
            res = tabular_greedy(f, mat, c, rng=np.random.default_rng(1))
            assert mat.is_independent(res.selected)

    def test_table_keys_are_group_color(self):
        f, mat = coverage_fixture()
        res = tabular_greedy(f, mat, 2, rng=np.random.default_rng(2), num_samples=8)
        for (g, c), item in res.table.items():
            assert g in mat.groups
            assert 0 <= c < 2
            assert item in mat.groups[g]

    def test_deterministic_given_seed(self):
        f, mat = coverage_fixture()
        a = tabular_greedy(f, mat, 3, rng=np.random.default_rng(7), num_samples=8)
        b = tabular_greedy(f, mat, 3, rng=np.random.default_rng(7), num_samples=8)
        assert a.selected == b.selected

    def test_invalid_colors(self):
        f, mat = coverage_fixture()
        with pytest.raises(ValueError):
            tabular_greedy(f, mat, 0, rng=np.random.default_rng(0))

    def test_quality_across_colors(self):
        """TabularGreedy stays within the greedy ballpark of OPT."""
        f, mat = coverage_fixture()
        _, opt = brute_force_partition(f, mat)
        for c in (1, 2, 4):
            res = tabular_greedy(f, mat, c, rng=np.random.default_rng(3), num_samples=16)
            assert res.value >= 0.5 * opt - 1e-9


class TestBruteForce:
    def test_partition_exact_on_modular(self):
        f = ModularFunction({"a": 3.0, "b": 5.0, "c": 2.0})
        mat = PartitionMatroid({"g1": ["a", "b"], "g2": ["c"]})
        best, val = brute_force_partition(f, mat)
        assert best == frozenset({"b", "c"})
        assert val == pytest.approx(7.0)

    def test_matroid_matches_partition(self):
        f, mat = coverage_fixture()
        s1, v1 = brute_force_partition(f, mat)
        s2, v2 = brute_force_matroid(f, mat)
        assert v1 == pytest.approx(v2)

    def test_combination_guard(self):
        f = ModularFunction({str(i): 1.0 for i in range(40)})
        mat = PartitionMatroid({"g": [str(i) for i in range(40)]})
        with pytest.raises(ValueError):
            brute_force_partition(f, mat, max_combinations=10)

    def test_ground_guard(self):
        f = ModularFunction({str(i): 1.0 for i in range(25)})
        mat = UniformMatroid(f.ground_set, 3)
        with pytest.raises(ValueError):
            brute_force_matroid(f, mat, max_ground=20)
