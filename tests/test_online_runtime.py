"""Unit and behavior tests for the online runtime (arrivals, τ, baselines)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Charger, ChargerNetwork, ChargingTask
from repro.offline import schedule_offline
from repro.online import run_online_baseline, run_online_haste
from repro.sim import SimulationConfig
from repro.sim.engine import execute_schedule
from repro.solvers import Instance, solve_instance

from conftest import build_network


class TestOnlineHaste:
    def test_runs_and_reports(self, small_network):
        res = run_online_haste(
            small_network, num_colors=1, tau=1, rho=0.1, rng=np.random.default_rng(0)
        )
        assert 0.0 <= res.total_utility <= 1.0
        assert res.events > 0
        assert "utility" in res.summary()

    def test_deterministic_given_seed(self, small_network):
        a = run_online_haste(
            small_network, num_colors=2, tau=1, rho=0.1, rng=np.random.default_rng(4)
        )
        b = run_online_haste(
            small_network, num_colors=2, tau=1, rho=0.1, rng=np.random.default_rng(4)
        )
        assert a.schedule == b.schedule

    def test_tau_zero_beats_tau_large(self):
        """More rescheduling delay can only hurt (on average)."""
        diffs = []
        for seed in range(4):
            net = build_network(seed + 70, n=4, m=12, horizon=6)
            u0 = run_online_haste(
                net, num_colors=1, tau=0, rho=0.0, rng=np.random.default_rng(0)
            ).total_utility
            u3 = run_online_haste(
                net, num_colors=1, tau=3, rho=0.0, rng=np.random.default_rng(0)
            ).total_utility
            diffs.append(u0 - u3)
        assert np.mean(diffs) >= -1e-9

    def test_online_at_most_offline_with_tau0_rho0(self):
        """With τ = 0 and ρ = 0 the online algorithm sees everything in
        time; it may still differ from offline (greedy order) but must be
        within the usual greedy band of it."""
        net = build_network(80, n=4, m=12, horizon=6)
        online = run_online_haste(
            net, num_colors=1, tau=0, rho=0.0, rng=np.random.default_rng(0)
        ).total_utility
        offline = schedule_offline(net, 1, rng=np.random.default_rng(0))
        off_val = execute_schedule(net, offline.schedule, rho=0.0).total_utility
        assert online >= 0.5 * off_val - 1e-9

    def test_no_charging_before_first_tau_slots(self):
        """Policies cannot take effect before release + τ."""
        chargers = [Charger(0, 0.0, 0.0, charging_angle=np.pi, radius=20.0)]
        tasks = [
            ChargingTask(0, 5.0, 0.0, np.pi, 0, 6, 1e9, receiving_angle=2 * np.pi)
        ]
        net = ChargerNetwork(chargers, tasks, slot_seconds=60.0)
        res = run_online_haste(
            net, num_colors=1, tau=2, rho=0.0, rng=np.random.default_rng(0)
        )
        # Slots 0 and 1 must be idle — the fleet has not reacted yet.
        assert np.all(res.schedule.sel[:, :2] == 0)
        assert np.any(res.schedule.sel[:, 2:] > 0)

    def test_invalid_tau(self, small_network):
        with pytest.raises(ValueError):
            run_online_haste(small_network, tau=-1)

    def test_invalid_final_draws(self, small_network):
        with pytest.raises(ValueError):
            run_online_haste(small_network, final_draws=0)

    def test_message_stats_accumulate(self, small_network):
        res = run_online_haste(
            small_network, num_colors=1, tau=1, rho=0.1, rng=np.random.default_rng(0)
        )
        assert res.stats.negotiations >= res.events


class TestOnlineBaselines:
    def test_utility_kind(self, small_network):
        res = run_online_baseline(small_network, "utility", tau=1, rho=0.1)
        assert 0.0 <= res.total_utility <= 1.0

    def test_cover_kind(self, small_network):
        res = run_online_baseline(small_network, "cover", tau=1, rho=0.1)
        assert 0.0 <= res.total_utility <= 1.0

    def test_unknown_kind_rejected(self, small_network):
        with pytest.raises(ValueError):
            run_online_baseline(small_network, "bogus")

    def test_tau_delay_blocks_early_reaction(self):
        chargers = [Charger(0, 0.0, 0.0, charging_angle=np.pi, radius=20.0)]
        tasks = [
            ChargingTask(0, 5.0, 0.0, np.pi, 0, 6, 1e9, receiving_angle=2 * np.pi)
        ]
        net = ChargerNetwork(chargers, tasks, slot_seconds=60.0)
        res = run_online_baseline(net, "utility", tau=3, rho=0.0)
        assert np.all(res.schedule.sel[:, :3] == 0)
        assert np.any(res.schedule.sel[:, 3:] > 0)

    def test_online_baseline_at_most_offline_baseline(self):
        """The τ-delayed baseline cannot beat its clairvoyant version on
        average (information monotonicity)."""
        from repro.offline.batched import greedy_utility_schedule_batch

        gaps = []
        for seed in range(4):
            net = build_network(seed + 90, n=4, m=12, horizon=6)
            (off_sched,) = greedy_utility_schedule_batch([net])
            off = execute_schedule(net, off_sched, rho=0.0).total_utility
            on = run_online_baseline(net, "utility", tau=2, rho=0.0).total_utility
            gaps.append(off - on)
        assert np.mean(gaps) >= -1e-9


class TestTauZeroIsOffline:
    """A task is active only while ``release_slot ≤ k < end_slot``, so at
    τ = 0 the delayed activity is the network's own and each online
    baseline plans exactly its offline baseline's schedule."""

    @pytest.mark.parametrize("seed", range(11, 17))
    def test_paper_scale(self, seed):
        inst = Instance.sample(SimulationConfig.paper(), seed)
        for online, offline in (
            ("online-greedy-utility:tau=0", "greedy-utility"),
            ("online-greedy-cover:tau=0", "greedy-cover"),
        ):
            on = solve_instance(online, inst)
            off = solve_instance(offline, inst)
            assert np.array_equal(on.schedule_sel, off.schedule_sel), online
            assert on.total_utility == off.total_utility


class TestCompetitiveBehavior:
    def test_online_haste_beats_online_baselines_on_average(self):
        h, g = [], []
        for seed in range(5):
            net = build_network(seed + 100, n=5, m=14, horizon=6)
            h.append(
                run_online_haste(
                    net, num_colors=1, tau=1, rho=0.1, rng=np.random.default_rng(0)
                ).total_utility
            )
            g.append(
                run_online_baseline(net, "utility", tau=1, rho=0.1).total_utility
            )
        assert np.mean(h) >= np.mean(g) - 0.01
