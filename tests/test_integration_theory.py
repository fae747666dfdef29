"""Integration tests: the paper's theorems checked end-to-end.

These tests chain the full pipeline (sample → schedule → execute → account)
and assert the quantitative guarantees of Theorems 5.1 and 6.1 against the
exact MILP optimum on small instances — the code-level analogue of the
paper's Figs. 8 and 9 validation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.offline import optimal_schedule, schedule_offline, smooth_switches
from repro.online import run_online_baseline, run_online_haste
from repro.sim import SimulationConfig, execute_schedule, sample_network

RHO = 1.0 / 12.0
OFFLINE_BOUND = (1 - RHO) * (1 - 1 / np.e)
ONLINE_BOUND = 0.5 * OFFLINE_BOUND


def small_instance(seed: int):
    cfg = SimulationConfig.small_scale()
    return cfg, sample_network(cfg, np.random.default_rng(seed))


class TestTheorem51:
    """Centralized offline ≥ (1 − ρ)(1 − 1/e) · OPT."""

    @pytest.mark.parametrize("seed", range(6))
    def test_approximation_ratio(self, seed):
        cfg, net = small_instance(seed)
        opt = optimal_schedule(net).objective_value
        if opt <= 1e-9:
            pytest.skip("degenerate instance with zero optimum")
        res = schedule_offline(net, 4, rng=np.random.default_rng(seed))
        sched = smooth_switches(net, res.schedule, rho=RHO)
        achieved = execute_schedule(net, sched, rho=RHO).total_utility
        assert achieved >= OFFLINE_BOUND * opt - 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_far_exceeds_bound_in_practice(self, seed):
        """Paper: ≥ 92.97 % of OPT on these instances."""
        cfg, net = small_instance(seed + 50)
        opt = optimal_schedule(net).objective_value
        if opt <= 1e-9:
            pytest.skip("degenerate instance")
        res = schedule_offline(net, 4, rng=np.random.default_rng(seed))
        achieved = execute_schedule(net, res.schedule, rho=RHO).total_utility
        assert achieved >= 0.8 * opt


class TestTheorem61:
    """Distributed online ≥ ½(1 − ρ)(1 − 1/e) · OPT (competitive ratio)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_competitive_ratio(self, seed):
        cfg, net = small_instance(seed + 100)
        opt = optimal_schedule(net).objective_value
        if opt <= 1e-9:
            pytest.skip("degenerate instance")
        run = run_online_haste(
            net, num_colors=4, tau=cfg.tau, rho=RHO, rng=np.random.default_rng(seed)
        )
        assert run.total_utility >= ONLINE_BOUND * opt - 1e-9


class TestAlgorithmOrdering:
    """The paper's headline ordering on averages across seeds."""

    def test_opt_ge_offline_ge_online(self):
        offline_vals, online_vals, opt_vals = [], [], []
        for seed in range(5):
            cfg, net = small_instance(seed + 200)
            opt_vals.append(optimal_schedule(net).objective_value)
            res = schedule_offline(net, 4, rng=np.random.default_rng(seed))
            offline_vals.append(
                execute_schedule(net, res.schedule, rho=RHO).total_utility
            )
            online_vals.append(
                run_online_haste(
                    net,
                    num_colors=4,
                    tau=cfg.tau,
                    rho=RHO,
                    rng=np.random.default_rng(seed),
                ).total_utility
            )
        assert np.mean(opt_vals) >= np.mean(offline_vals) - 1e-9
        assert np.mean(offline_vals) >= np.mean(online_vals) - 0.01

    def test_haste_tops_baselines_offline_and_online(self):
        cfg = SimulationConfig.quick()
        h_off, h_on, gu_off, gu_on = [], [], [], []
        for seed in range(5):
            net = sample_network(cfg, np.random.default_rng(seed + 300))
            res = schedule_offline(net, 1, rng=np.random.default_rng(seed))
            sched = smooth_switches(net, res.schedule, rho=cfg.rho)
            h_off.append(execute_schedule(net, sched, rho=cfg.rho).total_utility)
            from repro.offline.batched import greedy_utility_schedule_batch

            (gu_sched,) = greedy_utility_schedule_batch([net])
            gu_off.append(
                execute_schedule(net, gu_sched, rho=cfg.rho).total_utility
            )
            h_on.append(
                run_online_haste(
                    net,
                    num_colors=1,
                    tau=cfg.tau,
                    rho=cfg.rho,
                    rng=np.random.default_rng(seed),
                ).total_utility
            )
            gu_on.append(
                run_online_baseline(
                    net, "utility", tau=cfg.tau, rho=cfg.rho
                ).total_utility
            )
        assert np.mean(h_off) >= np.mean(gu_off) - 1e-6
        assert np.mean(h_on) >= np.mean(gu_on) - 1e-6


class TestPipelineConsistency:
    def test_full_pipeline_deterministic(self):
        cfg = SimulationConfig.quick()
        outs = []
        for _ in range(2):
            net = sample_network(cfg, np.random.default_rng(11))
            res = schedule_offline(net, 2, rng=np.random.default_rng(12))
            ex = execute_schedule(net, res.schedule, rho=cfg.rho)
            outs.append(ex.total_utility)
        assert outs[0] == pytest.approx(outs[1])

    def test_cross_layer_energy_consistency(self):
        """Objective, engine, and smoothing all agree on relaxed energy."""
        cfg = SimulationConfig.quick()
        net = sample_network(cfg, np.random.default_rng(21))
        res = schedule_offline(net, 2, rng=np.random.default_rng(22))
        from repro.objective import HasteObjective

        obj = HasteObjective(net)
        ex = execute_schedule(net, res.schedule, rho=0.0)
        assert np.allclose(ex.energies, obj.energies_of_schedule(res.schedule))
        smoothed = smooth_switches(net, res.schedule, rho=0.0)
        assert smoothed == res.schedule
