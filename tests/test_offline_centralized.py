"""Unit tests for the centralized offline scheduler (paper Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.objective import HasteObjective, HasteSetFunction
from repro.offline import CentralizedScheduler, schedule_offline
from repro.submodular import haste_policy_matroid, locally_greedy_partition

from conftest import build_network


class TestSchedulerBasics:
    def test_respects_partition_matroid(self, small_network):
        res = schedule_offline(small_network, 2, rng=np.random.default_rng(0))
        # Structural: one policy per (charger, slot) is enforced by the
        # Schedule container; additionally the table is keyed uniquely.
        seen = set()
        for (i, k, c) in res.table:
            assert (i, k, c) not in seen
            seen.add((i, k, c))

    def test_objective_value_matches_schedule(self, small_network):
        res = schedule_offline(small_network, 2, rng=np.random.default_rng(1))
        obj = HasteObjective(small_network)
        assert res.objective_value == pytest.approx(
            obj.value_of_schedule(res.schedule)
        )

    def test_deterministic_given_seed(self, small_network):
        a = schedule_offline(small_network, 3, rng=np.random.default_rng(5))
        b = schedule_offline(small_network, 3, rng=np.random.default_rng(5))
        assert a.schedule == b.schedule
        assert a.objective_value == pytest.approx(b.objective_value)

    def test_invalid_colors(self, small_network):
        with pytest.raises(ValueError):
            schedule_offline(small_network, 0)

    def test_invalid_final_draws(self, small_network):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            CentralizedScheduler(small_network).run(2, final_draws=0, rng=rng)
        # Rejected before the colour sweep draws from the caller's rng.
        assert rng.bit_generator.state == state

    def test_unknown_group_order_rejected(self, small_network):
        sched = CentralizedScheduler(small_network)
        with pytest.raises(ValueError):
            sched.run(1, group_order=[(999, 0)])

    def test_empty_network(self):
        from repro.core import Charger, ChargerNetwork, ChargingTask

        net = ChargerNetwork(
            [Charger(0, 0.0, 0.0)],
            [ChargingTask(0, 100.0, 100.0, 0.0, 0, 2, 10.0)],
        )
        res = schedule_offline(net, 1, rng=np.random.default_rng(0))
        assert res.objective_value == pytest.approx(0.0)


class TestEquivalenceWithReference:
    """The vectorized C=1 scheduler equals the generic locally greedy."""

    @pytest.mark.parametrize("seed", range(4))
    def test_c1_matches_generic_locally_greedy(self, seed):
        net = build_network(seed, n=3, m=8, horizon=4)
        runner = CentralizedScheduler(net)
        res = runner.run(1, rng=np.random.default_rng(0))

        obj = HasteObjective(net)
        f = HasteSetFunction(obj)
        mat = haste_policy_matroid(net)
        order = [g for g in runner.partitions if g in mat.groups]
        ref = locally_greedy_partition(f, mat, group_order=order)
        assert res.objective_value == pytest.approx(ref.value, abs=1e-9)

    def test_c1_order_invariance_of_guarantee(self):
        """Different partition orders give different schedules but values
        in the same ballpark (both are ½-approximations; the paper's
        Thm 6.1 equivalence argument relies on order-insensitivity)."""
        net = build_network(7, n=4, m=10, horizon=5)
        runner = CentralizedScheduler(net)
        forward = runner.run(1, rng=np.random.default_rng(0))
        backward = runner.run(
            1,
            rng=np.random.default_rng(0),
            group_order=list(reversed(runner.partitions)),
        )
        hi = max(forward.objective_value, backward.objective_value)
        lo = min(forward.objective_value, backward.objective_value)
        assert lo >= 0.5 * hi - 1e-9


class TestColors:
    def test_more_colors_do_not_collapse(self, small_network):
        base = schedule_offline(small_network, 1, rng=np.random.default_rng(0))
        multi = schedule_offline(
            small_network, 4, num_samples=24, rng=np.random.default_rng(0)
        )
        # C = 4 with CRN sampling and best-of-draws stays within a few
        # percent of the exact C = 1 run (usually above it).
        assert multi.objective_value >= 0.9 * base.objective_value

    def test_c1_single_sample(self, small_network):
        res = schedule_offline(small_network, 1, rng=np.random.default_rng(0))
        assert res.num_samples == 1

    def test_table_colors_in_range(self, small_network):
        res = schedule_offline(small_network, 3, rng=np.random.default_rng(2))
        assert all(0 <= c < 3 for (_i, _k, c) in res.table)
