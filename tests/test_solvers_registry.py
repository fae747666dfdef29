"""Tests for the solver registry: specs, lookup, and pinned equivalence.

The pinned-equivalence class is the refactor's safety net: every registered
spec must produce **bit-identical** results to the pre-refactor call it
replaced (the adapter bodies formerly in ``repro.experiments.common`` and
the hand-wired experiment closures), on fixed seeds at quick scale.  The
reference implementations are inlined here on purpose — they must not
drift with the registry they are checking.  The two paper baselines pin
against the scalar loops in ``tests/oracles/baselines.py``:
``online-greedy-cover`` against the dense online loop, and
``online-greedy-utility`` against the GreedyUtility loop on the τ-delayed
activity (the dense loop summed gains over all tasks, so near-ties could
break differently).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.common import config_for_scale
from repro.offline.baselines import random_schedule, static_orientation_schedule
from repro.offline.centralized import schedule_offline
from repro.offline.optimal import optimal_schedule
from repro.offline.smoothing import smooth_switches
from repro.online.runtime import run_online_haste
from repro.sim.config import SimulationConfig
from repro.sim.engine import execute_schedule
from repro.sim.workload import sample_network
from repro.solvers import (
    BoundSolver,
    Instance,
    SolverError,
    SolverLookupError,
    SolverSpec,
    SpecError,
    get_solver,
    parse_spec,
    solve_instance,
    solver_names,
)

from oracles import baselines as ref_baselines


class TestSpecParsing:
    def test_bare_name(self):
        spec = parse_spec("greedy-utility")
        assert spec.name == "greedy-utility"
        assert spec.params == {}
        assert str(spec) == "greedy-utility"

    def test_params_coerced(self):
        spec = parse_spec("haste-offline:c=4,lazy=1,smooth=false,gamma=0.5")
        assert spec.params["c"] == 4 and isinstance(spec.params["c"], int)
        assert spec.params["lazy"] == 1
        assert spec.params["smooth"] is False
        assert spec.params["gamma"] == 0.5

    def test_canonical_sorts_params(self):
        a = parse_spec("online-haste:tau=2,c=1")
        b = parse_spec("online-haste:c=1,tau=2")
        assert a.canonical() == b.canonical()

    def test_roundtrip_idempotent(self):
        spec = parse_spec("haste-offline:samples=8,c=2")
        assert parse_spec(spec.canonical()).canonical() == spec.canonical()

    def test_shard_params_canonicalize(self):
        a = parse_spec("haste-offline:shards=16,halo=auto,c=4")
        b = parse_spec("haste-offline:c=4,halo=auto,shards=16")
        assert a.canonical() == b.canonical()
        assert a.canonical() == "haste-offline:c=4,halo=auto,shards=16"
        assert a.params["shards"] == 16 and isinstance(a.params["shards"], int)
        assert a.params["halo"] == "auto"
        # Numeric halos stay numeric and round-trip through the canon form.
        c = parse_spec("online-haste:shards=8,halo=25.5")
        assert c.params["halo"] == 25.5
        assert parse_spec(c.canonical()).canonical() == c.canonical()

    def test_shard_params_bound_on_shard_capable_solvers(self):
        solver = get_solver("haste-offline:shards=16,halo=auto")
        assert solver.canonical() == "haste-offline:halo=auto,shards=16"
        assert solver.capabilities.supports_shards
        assert "shards" in solver.capabilities.summary()
        online = get_solver("online-haste:shards=4")
        assert online.capabilities.supports_shards

    def test_shards_rejected_on_non_shard_solvers(self):
        for spec in (
            "greedy-utility:shards=2",
            "static:shards=2",
            "random:halo=5",
            # Parameters no built-in solver accepts.
            "haste-offline:lazy=1",
            "haste-offline:sparse=0",
            "online-haste:sparse=0",
        ):
            with pytest.raises(SolverError) as exc:
                get_solver(spec)
            msg = str(exc.value)
            assert "does not accept parameter" in msg
            assert "\n" not in msg  # one-line error, CLI-presentable

    @pytest.mark.parametrize(
        "bad",
        ["", ":c=4", "haste-offline:", "x:c", "x:c=", "x:=1", "x:c=1,c=2"],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(SpecError):
            parse_spec(bad)

    def test_spec_error_is_value_error(self):
        assert issubclass(SpecError, ValueError)


class TestRegistryLookup:
    def test_all_expected_solvers_registered(self):
        names = solver_names()
        for expected in (
            "haste-offline",
            "online-haste",
            "greedy-utility",
            "greedy-cover",
            "online-greedy-utility",
            "online-greedy-cover",
            "static",
            "random",
            "offline-optimal",
        ):
            assert expected in names

    def test_unknown_solver_message(self):
        with pytest.raises(SolverLookupError) as exc:
            get_solver("no-such")
        msg = str(exc.value)
        assert msg.startswith("unknown solver 'no-such'")
        assert "haste-offline" in msg  # lists the known names

    def test_lookup_error_is_keyerror(self):
        # callers that used to catch KeyError keep working
        with pytest.raises(KeyError):
            get_solver("no-such")

    def test_unknown_param_rejected(self):
        with pytest.raises(SolverError) as exc:
            get_solver("greedy-utility:bogus=3")
        assert "does not accept parameter" in str(exc.value)
        assert "utility" in str(exc.value)  # lists the allowed ones

    def test_parameterless_solver_rejects_params(self):
        with pytest.raises(SolverError):
            get_solver("static:c=4")

    def test_get_solver_returns_bound_solver(self):
        solver = get_solver("haste-offline:c=1")
        assert isinstance(solver, BoundSolver)
        assert solver.canonical() == "haste-offline:c=1"
        assert solver.entry.capabilities.setting == "offline"

    def test_capabilities_metadata_complete(self):
        for name in solver_names():
            caps = get_solver(name).entry.capabilities
            assert caps.setting in ("offline", "online")
            assert caps.description
            assert caps.summary()

    def test_spec_object_accepted(self):
        solver = get_solver(SolverSpec("haste-offline", {"c": 1}))
        assert solver.canonical() == "haste-offline:c=1"


class TestSolveArtifact:
    def test_artifact_fields_populated(self):
        cfg = config_for_scale("quick")
        net = sample_network(cfg, np.random.default_rng(3))
        art = get_solver("greedy-utility").solve(net, config=cfg)
        assert art.solver == "greedy-utility"
        assert art.schedule_sel.shape[0] == cfg.num_chargers
        assert art.schedule_sel.dtype == np.int32
        assert art.energies.shape == (cfg.num_tasks,)
        assert art.task_utilities.shape == (cfg.num_tasks,)
        assert 0.0 <= art.total_utility <= 1.0 + 1e-9
        assert art.wall_time_s >= 0.0
        assert art.fingerprint

    def test_online_artifact_has_message_stats(self):
        cfg = config_for_scale("quick")
        net = sample_network(cfg, np.random.default_rng(3))
        art = get_solver("online-haste:c=1").solve(
            net, np.random.default_rng(4), cfg
        )
        assert art.message_stats is not None
        assert art.message_stats["messages"] >= 0
        assert art.message_stats["rounds"] >= 0
        assert art.events >= 0

    def test_solve_instance_parity_after_roundtrip(self, tmp_path):
        inst = Instance.sample(config_for_scale("quick"), seed=11)
        direct = solve_instance("haste-offline:c=1", inst)
        for suffix in (".json", ".npz"):
            path = tmp_path / f"inst{suffix}"
            inst.save(path)
            replayed = solve_instance("haste-offline:c=1", Instance.load(path))
            assert replayed.total_utility == direct.total_utility
            assert np.array_equal(replayed.schedule_sel, direct.schedule_sel)
            assert replayed.content_hash() == direct.content_hash()


# ----------------------------------------------------------------------
# Pinned equivalence: spec ↔ pre-refactor call, bit-identical.
# Reference bodies return (total_utility, energies) for exact comparison.
# ----------------------------------------------------------------------
def _ref_haste_offline_c4(net, rng, cfg):
    res = schedule_offline(
        net, cfg.num_colors, num_samples=cfg.num_samples, rng=rng
    )
    sched = smooth_switches(net, res.schedule, rho=cfg.rho)
    ex = execute_schedule(net, sched, rho=cfg.rho)
    return ex.total_utility, ex.energies


def _ref_haste_offline_c1(net, rng, cfg):
    res = schedule_offline(net, 1, rng=rng)
    sched = smooth_switches(net, res.schedule, rho=cfg.rho)
    ex = execute_schedule(net, sched, rho=cfg.rho)
    return ex.total_utility, ex.energies


def _ref_haste_offline_c1_nosmooth(net, rng, cfg):
    res = schedule_offline(net, 1, rng=rng)
    ex = execute_schedule(net, res.schedule, rho=cfg.rho)
    return ex.total_utility, ex.energies


def _ref_greedy_utility(net, rng, cfg):
    ex = execute_schedule(net, ref_baselines.greedy_utility_schedule(net), rho=cfg.rho)
    return ex.total_utility, ex.energies


def _ref_greedy_cover(net, rng, cfg):
    ex = execute_schedule(net, ref_baselines.greedy_cover_schedule(net), rho=cfg.rho)
    return ex.total_utility, ex.energies


def _ref_static(net, rng, cfg):
    ex = execute_schedule(net, static_orientation_schedule(net), rho=cfg.rho)
    return ex.total_utility, ex.energies


def _ref_random(net, rng, cfg):
    ex = execute_schedule(net, random_schedule(net, rng), rho=cfg.rho)
    return ex.total_utility, ex.energies


def _ref_online_c4(net, rng, cfg):
    run = run_online_haste(
        net,
        num_colors=cfg.num_colors,
        num_samples=cfg.num_samples,
        tau=cfg.tau,
        rho=cfg.rho,
        rng=rng,
    )
    return run.total_utility, run.execution.energies


def _ref_online_c1(net, rng, cfg):
    run = run_online_haste(net, num_colors=1, tau=cfg.tau, rho=cfg.rho, rng=rng)
    return run.total_utility, run.execution.energies


def _ref_online_greedy_utility(net, rng, cfg):
    delayed = ref_baselines.delayed_activity(net, cfg.tau)
    sched = ref_baselines.greedy_utility_schedule(net, active=delayed)
    ex = execute_schedule(net, sched, rho=cfg.rho)
    return ex.total_utility, ex.energies


def _ref_online_greedy_cover(net, rng, cfg):
    sched = ref_baselines.online_baseline_dense(net, "cover", tau=cfg.tau)
    ex = execute_schedule(net, sched, rho=cfg.rho)
    return ex.total_utility, ex.energies


PINNED = {
    "haste-offline": _ref_haste_offline_c4,
    "haste-offline:c=1": _ref_haste_offline_c1,
    "haste-offline:c=1,smooth=0": _ref_haste_offline_c1_nosmooth,
    "greedy-utility": _ref_greedy_utility,
    "greedy-cover": _ref_greedy_cover,
    "static": _ref_static,
    "random": _ref_random,
    "online-haste": _ref_online_c4,
    "online-haste:c=1": _ref_online_c1,
    "online-greedy-utility": _ref_online_greedy_utility,
    "online-greedy-cover": _ref_online_greedy_cover,
}

SEEDS = (0, 1, 2)


class TestPinnedEquivalence:
    @pytest.mark.parametrize("spec", sorted(PINNED))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_spec_matches_pre_refactor_call(self, spec, seed):
        cfg = config_for_scale("quick")
        net = sample_network(cfg, np.random.default_rng(seed))
        ref_u, ref_e = PINNED[spec](net, np.random.default_rng(seed + 100), cfg)
        art = get_solver(spec).solve(net, np.random.default_rng(seed + 100), cfg)
        assert art.total_utility == ref_u
        assert np.array_equal(art.energies, ref_e)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_offline_optimal_matches_pre_refactor_call(self, seed):
        cfg = SimulationConfig.small_scale()
        net = sample_network(cfg, np.random.default_rng(seed))
        ref = optimal_schedule(net)
        art = get_solver("offline-optimal").solve(net, config=cfg)
        assert art.objective_value == ref.objective_value
        ref_ex = execute_schedule(net, ref.schedule, rho=cfg.rho)
        assert art.total_utility == ref_ex.total_utility

    def test_every_registered_solver_is_pinned(self):
        pinned_names = {parse_spec(s).name for s in PINNED} | {"offline-optimal"}
        assert set(solver_names()) == pinned_names
