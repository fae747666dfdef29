"""Edge-case and failure-injection tests across the stack.

Degenerate networks (no coverage, single entities, saturating energies),
boundary parameter values, and misuse paths that must fail loudly rather
than corrupt results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Charger, ChargerNetwork, ChargingTask, Schedule
from repro.objective import HasteObjective
from repro.offline import optimal_schedule, schedule_offline, smooth_switches
from repro.offline.batched import (
    greedy_cover_schedule_batch,
    greedy_utility_schedule_batch,
)
from repro.online import run_online_baseline, run_online_haste
from repro.sim.engine import execute_schedule


def isolated_network():
    """A charger and a task that can never see each other."""
    chargers = [Charger(0, 0.0, 0.0, charging_angle=np.pi / 3, radius=5.0)]
    tasks = [ChargingTask(0, 100.0, 100.0, 0.0, 0, 3, 100.0)]
    return ChargerNetwork(chargers, tasks)


def saturating_network():
    """Tiny required energy: one covered slot saturates the task."""
    chargers = [Charger(0, 0.0, 0.0, charging_angle=np.pi, radius=20.0)]
    tasks = [
        ChargingTask(0, 5.0, 0.0, np.pi, 0, 6, 1e-6, receiving_angle=2 * np.pi,
                     weight=0.5),
        ChargingTask(1, 0.0, 5.0, -np.pi / 2, 0, 6, 1e-6,
                     receiving_angle=2 * np.pi, weight=0.5),
    ]
    return ChargerNetwork(chargers, tasks)


class TestNoCoverage:
    def test_schedulers_return_zero(self):
        net = isolated_network()
        assert schedule_offline(net, 2, rng=np.random.default_rng(0)).objective_value == 0.0
        for driver in (greedy_utility_schedule_batch, greedy_cover_schedule_batch):
            (sched,) = driver([net])
            assert execute_schedule(net, sched).total_utility == 0.0

    def test_online_returns_zero(self):
        net = isolated_network()
        run = run_online_haste(net, num_colors=1, tau=1, rho=0.1,
                               rng=np.random.default_rng(0))
        assert run.total_utility == 0.0
        assert run.stats.messages == 0

    def test_optimal_returns_zero(self):
        net = isolated_network()
        assert optimal_schedule(net).objective_value == pytest.approx(0.0)


class TestSaturation:
    def test_everything_achieves_one(self):
        net = saturating_network()
        res = schedule_offline(net, 1, rng=np.random.default_rng(0))
        ex = execute_schedule(net, res.schedule, rho=0.5)
        assert ex.total_utility == pytest.approx(1.0)

    def test_greedy_stops_after_saturation(self):
        """Once all tasks saturate, further slots stay idle (zero gain)."""
        net = saturating_network()
        res = schedule_offline(net, 1, rng=np.random.default_rng(0))
        nonidle_slots = int(np.count_nonzero(res.schedule.sel))
        # Both tasks saturate in at most two covered slots.
        assert nonidle_slots <= 2


class TestSingleEntities:
    def test_single_charger_single_task(self):
        chargers = [Charger(0, 0.0, 0.0, charging_angle=np.pi / 3, radius=10.0)]
        tasks = [
            ChargingTask(0, 5.0, 0.0, np.pi, 0, 3, 5_000.0,
                         receiving_angle=2 * np.pi)
        ]
        net = ChargerNetwork(chargers, tasks)
        res = schedule_offline(net, 1, rng=np.random.default_rng(0))
        # Only one orientation matters: cover the task for all three slots.
        assert np.all(res.schedule.sel[0, :3] > 0)

    def test_no_tasks_at_all(self):
        net = ChargerNetwork([Charger(0, 0.0, 0.0)], [])
        assert net.m == 0
        assert net.num_slots == 0
        sched = Schedule(net)
        assert sched.sel.shape == (1, 0)

    def test_no_chargers_at_all(self):
        net = ChargerNetwork([], [ChargingTask(0, 0, 0, 0.0, 0, 2, 10.0)])
        assert net.n == 0
        run = run_online_baseline(net, "utility", tau=1, rho=0.1)
        assert run.total_utility == 0.0


class TestBoundaryParameters:
    def test_rho_exactly_one(self):
        net = saturating_network()
        res = schedule_offline(net, 1, rng=np.random.default_rng(0))
        ex = execute_schedule(net, res.schedule, rho=1.0)
        # A switched slot delivers nothing at ρ = 1, but an unswitched
        # follow-up slot still does.
        assert 0.0 <= ex.total_utility <= 1.0

    def test_tau_longer_than_horizon(self):
        net = saturating_network()
        run = run_online_haste(net, num_colors=1, tau=100, rho=0.0,
                               rng=np.random.default_rng(0))
        assert run.total_utility == 0.0
        assert run.events == 0

    def test_zero_weight_tasks_ignored_in_objective(self):
        chargers = [Charger(0, 0.0, 0.0, charging_angle=np.pi, radius=20.0)]
        tasks = [
            ChargingTask(0, 5.0, 0.0, np.pi, 0, 2, 100.0,
                         receiving_angle=2 * np.pi, weight=0.0),
        ]
        net = ChargerNetwork(chargers, tasks)
        obj = HasteObjective(net)
        energies = obj.zero_energy()
        gains = obj.partition_gains(energies, 0, 0)
        assert np.all(gains == 0.0)

    def test_smoothing_on_all_idle_schedule(self):
        net = saturating_network()
        sched = Schedule(net)
        out = smooth_switches(net, sched, rho=0.9)
        assert out == sched


class TestMisuse:
    def test_schedule_wrong_network_shape(self):
        net_a = saturating_network()
        net_b = isolated_network()
        sched = Schedule(net_a)
        with pytest.raises((ValueError, IndexError)):
            Schedule.from_matrix(net_b, sched.sel)

    def test_objective_requires_tasks(self):
        net = ChargerNetwork([Charger(0, 0, 0)], [])
        with pytest.raises(ValueError):
            HasteObjective(net)

    def test_negative_slot_times_rejected(self):
        with pytest.raises(ValueError):
            ChargerNetwork(
                [Charger(0, 0, 0)],
                [ChargingTask(0, 0, 0, 0.0, -1, 2, 10.0)],
            )
