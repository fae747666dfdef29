"""Unit tests for the comparison baselines and the smoothing post-pass."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Schedule
from repro.core.network import IDLE_POLICY
from repro.offline import (
    random_schedule,
    schedule_offline,
    smooth_switches,
    static_orientation_schedule,
)
from repro.offline.batched import (
    greedy_cover_schedule_batch,
    greedy_utility_schedule_batch,
)
from repro.sim.engine import execute_schedule

from conftest import build_network


def greedy_utility_schedule(net):
    (sched,) = greedy_utility_schedule_batch([net])
    return sched


def greedy_cover_schedule(net):
    (sched,) = greedy_cover_schedule_batch([net])
    return sched


class TestGreedyUtility:
    def test_produces_valid_schedule(self, small_network):
        sched = greedy_utility_schedule(small_network)
        assert isinstance(sched, Schedule)
        assert sched.n == small_network.n

    def test_deterministic(self, small_network):
        assert greedy_utility_schedule(small_network) == greedy_utility_schedule(
            small_network
        )

    def test_positive_utility_when_coverable(self, small_network):
        sched = greedy_utility_schedule(small_network)
        ex = execute_schedule(small_network, sched)
        assert ex.total_utility > 0


class TestGreedyCover:
    def test_selects_max_cover(self):
        net = build_network(4, n=2, m=8, horizon=4)
        sched = greedy_cover_schedule(net)
        for i in range(net.n):
            cover = net.cover_masks[i]
            for k in range(net.num_slots):
                p = sched.get(i, k)
                if p == IDLE_POLICY:
                    # No policy covers an active task at this slot.
                    assert (cover[1:] @ net.active[:, k]).max(initial=0) == 0
                else:
                    counts = cover @ net.active[:, k]
                    assert counts[p] == counts.max()

    def test_deterministic(self, small_network):
        assert greedy_cover_schedule(small_network) == greedy_cover_schedule(
            small_network
        )


class TestRandomAndStatic:
    def test_random_is_seeded(self, small_network):
        a = random_schedule(small_network, np.random.default_rng(9))
        b = random_schedule(small_network, np.random.default_rng(9))
        assert a == b

    def test_random_fills_relevant_slots(self, small_network):
        sched = random_schedule(small_network, np.random.default_rng(0))
        for i in range(small_network.n):
            if small_network.policy_count(i) <= 1:
                continue
            for k in small_network.relevant_slots(i):
                assert sched.get(i, int(k)) != IDLE_POLICY

    def test_static_uses_one_policy_per_charger(self, small_network):
        sched = static_orientation_schedule(small_network)
        for i in range(small_network.n):
            chosen = {int(p) for p in sched.sel[i] if p != IDLE_POLICY}
            assert len(chosen) <= 1

    def test_haste_beats_random_on_average(self):
        wins = 0
        for seed in range(6):
            net = build_network(seed + 40, n=4, m=12, horizon=5)
            h = schedule_offline(net, 1, rng=np.random.default_rng(0))
            r = random_schedule(net, np.random.default_rng(1))
            hu = execute_schedule(net, h.schedule).total_utility
            ru = execute_schedule(net, r).total_utility
            wins += hu >= ru - 1e-12
        assert wins >= 5


class TestSmoothing:
    @pytest.mark.parametrize("rho", [0.1, 0.5, 1.0])
    def test_never_decreases_delay_aware_utility(self, rho):
        for seed in range(4):
            net = build_network(seed + 60, n=4, m=10, horizon=5)
            res = schedule_offline(net, 2, rng=np.random.default_rng(seed))
            before = execute_schedule(net, res.schedule, rho=rho).total_utility
            smoothed = smooth_switches(net, res.schedule, rho=rho)
            after = execute_schedule(net, smoothed, rho=rho).total_utility
            assert after >= before - 1e-9

    def test_never_increases_switch_count(self, small_network):
        res = schedule_offline(small_network, 2, rng=np.random.default_rng(0))
        before = execute_schedule(small_network, res.schedule, rho=0.5)
        smoothed = smooth_switches(small_network, res.schedule, rho=0.5)
        after = execute_schedule(small_network, smoothed, rho=0.5)
        assert after.switch_count <= before.switch_count

    def test_rho_zero_is_identity(self, small_network):
        res = schedule_offline(small_network, 1, rng=np.random.default_rng(0))
        smoothed = smooth_switches(small_network, res.schedule, rho=0.0)
        assert smoothed == res.schedule

    def test_input_not_mutated(self, small_network):
        res = schedule_offline(small_network, 2, rng=np.random.default_rng(1))
        copy = res.schedule.copy()
        smooth_switches(small_network, res.schedule, rho=0.8)
        assert res.schedule == copy

    def test_start_slot_freezes_past(self, small_network):
        res = schedule_offline(small_network, 2, rng=np.random.default_rng(2))
        boundary = small_network.num_slots // 2
        smoothed = smooth_switches(
            small_network, res.schedule, rho=0.9, start_slot=boundary
        )
        assert np.all(smoothed.sel[:, :boundary] == res.schedule.sel[:, :boundary])

    def test_invalid_rho(self, small_network):
        res = schedule_offline(small_network, 1, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            smooth_switches(small_network, res.schedule, rho=-0.1)
