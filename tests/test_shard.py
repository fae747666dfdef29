"""Tests for the sharded (spatially decomposed) solving subsystem.

Three layers of guarantees:

* **Partition geometry** — ownership is total and deterministic (edge
  chargers included), halos are floored at the charging range ``D``, and
  degenerate layouts (empty tiles, everything in one tile, halo wider than
  the field) partition sanely.
* **The policy-index invariant** — a tile net built from a charger's full
  receivable set reproduces that charger's *global* policy list exactly,
  which is what lets tile-local selections merge into a global schedule.
* **End-to-end equivalence** — ``shards=1`` is bit-identical to the
  unsharded path (3 seeds, compiled and NumPy negotiation kernels), and a
  ``shards>1`` artifact's schedule validates against the global network
  with engine-matching accounting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policy import Schedule, network_fingerprint
from repro.shard import (
    boundary_stages,
    charger_plans_from_network,
    factor_grid,
    find_boundary_chargers,
    fingerprint_from_plans,
    make_partition,
    resolve_halo,
    slice_instance,
)
from repro.sim.config import SimulationConfig
from repro.sim.engine import execute_schedule
from repro.solvers import (
    Instance,
    SolverError,
    clear_network_cache,
    get_solver,
    network_cache_info,
    solve_instance,
)

SEEDS = (7, 11, 23)


def quick_instance(seed: int, **overrides) -> Instance:
    cfg = SimulationConfig.quick()
    return Instance.sample(cfg, seed, **overrides)


# ----------------------------------------------------------------------
# Partition geometry
# ----------------------------------------------------------------------
class TestFactorGrid:
    @pytest.mark.parametrize(
        "shards,expected",
        [(1, (1, 1)), (2, (1, 2)), (4, (2, 2)), (6, (2, 3)), (7, (1, 7)),
         (12, (3, 4)), (16, (4, 4))],
    )
    def test_most_square_factorization(self, shards, expected):
        assert factor_grid(shards) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factor_grid(0)


class TestResolveHalo:
    def test_auto_is_max_radius(self):
        radii = np.array([5.0, 20.0, 12.0])
        assert resolve_halo("auto", radii) == 20.0

    def test_numeric_floored_at_radius(self):
        radii = np.array([20.0])
        assert resolve_halo(5.0, radii) == 20.0
        assert resolve_halo(35.0, radii) == 35.0

    def test_rejects_bad_values(self):
        radii = np.array([20.0])
        with pytest.raises(ValueError):
            resolve_halo("wide", radii)
        with pytest.raises(ValueError):
            resolve_halo(-1.0, radii)
        with pytest.raises(ValueError):
            resolve_halo(float("nan"), radii)


class TestMakePartition:
    def test_ownership_total_and_disjoint(self):
        inst = quick_instance(7)
        part = make_partition(
            inst.charger_xy, inst.task_xy, inst.charger_radius,
            shards=4, halo="auto",
        )
        owned = np.sort(np.concatenate(part.tile_chargers))
        assert np.array_equal(owned, np.arange(inst.n))
        assert part.owner.shape == (inst.n,)
        for t, ids in enumerate(part.tile_chargers):
            assert np.all(part.owner[ids] == t)

    def test_all_chargers_in_one_tile_leaves_others_empty(self):
        rng = np.random.default_rng(0)
        # Chargers clustered in one corner; tasks spread out to span the box.
        chargers = rng.uniform(0.0, 5.0, (10, 2))
        tasks = rng.uniform(0.0, 100.0, (30, 2))
        part = make_partition(chargers, tasks, np.full(10, 20.0), shards=4, halo="auto")
        sizes = [ids.size for ids in part.tile_chargers]
        assert sum(sizes) == 10
        assert max(sizes) == 10  # everything in one tile
        assert len(part.empty_tiles()) == 3
        assert "empty=3" in part.summary()

    def test_charger_exactly_on_edge_owned_by_higher_tile(self):
        # Bounding box [0, 100]², 2x2 grid → interior edges at x=50, y=50.
        chargers = np.array([[50.0, 10.0], [0.0, 0.0], [100.0, 100.0]])
        tasks = np.array([[0.0, 0.0], [100.0, 100.0]])
        part = make_partition(chargers, tasks, np.full(3, 20.0), shards=4, halo="auto")
        assert part.grid == (2, 2)
        # x = 50 sits exactly on the interior edge → higher x-tile (ix=1).
        assert part.owner[0] == 1  # tile (ix=1, iy=0)
        assert part.owner[1] == 0
        assert part.owner[2] == 3

    def test_halo_wider_than_field_gives_every_tile_all_tasks(self):
        inst = quick_instance(11)
        part = make_partition(
            inst.charger_xy, inst.task_xy, inst.charger_radius,
            shards=4, halo=1e6,
        )
        for ids in part.tile_tasks:
            assert np.array_equal(ids, np.arange(inst.m))

    def test_halo_contains_every_owned_chargers_receivable_disk(self):
        inst = quick_instance(23)
        part = make_partition(
            inst.charger_xy, inst.task_xy, inst.charger_radius,
            shards=9, halo="auto",
        )
        # Any task within radius D of an owned charger must be a tile task.
        for t, chargers in enumerate(part.tile_chargers):
            if chargers.size == 0:
                continue
            tile_tasks = set(int(j) for j in part.tile_tasks[t])
            for i in chargers:
                d = np.hypot(*(inst.task_xy - inst.charger_xy[int(i)]).T)
                for j in np.flatnonzero(d <= inst.charger_radius[int(i)]):
                    assert int(j) in tile_tasks

    def test_empty_field(self):
        part = make_partition(
            np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0), shards=4, halo="auto"
        )
        assert part.owner.size == 0
        assert part.empty_tiles() == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# The policy-index invariant
# ----------------------------------------------------------------------
class TestPolicyEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tile_policies_equal_global_policies(self, seed):
        inst = quick_instance(seed)
        net = inst.network()
        part = make_partition(
            inst.charger_xy, inst.task_xy, inst.charger_radius,
            shards=4, halo="auto",
        )
        for t in range(part.num_tiles):
            chargers = part.tile_chargers[t]
            if chargers.size == 0:
                continue
            sub = slice_instance(inst, chargers, part.tile_tasks[t]).network()
            for r, i in enumerate(chargers):
                i = int(i)
                assert np.array_equal(
                    sub.policy_orientations[r],
                    net.policy_orientations[i],
                    equal_nan=True,
                ), f"seed {seed}: charger {i} policy list differs in tile {t}"
                # Receivable columns map back to the same global task ids.
                assert np.array_equal(
                    part.tile_tasks[t][sub.policy_tasks[r]],
                    net.policy_tasks[i],
                )

    def test_fingerprint_from_plans_matches_network_fingerprint(self):
        inst = quick_instance(7)
        net = inst.network()
        sel = np.zeros((net.n, net.num_slots), dtype=np.int32)
        plans = charger_plans_from_network(
            net, np.arange(net.n), np.arange(net.m), sel, net.num_slots
        )
        by_charger = {p.charger: p for p in plans}
        assert fingerprint_from_plans(by_charger, net.n, net.num_slots) == (
            network_fingerprint(net)
        )

    def test_boundary_detection_from_shared_coverage(self):
        inst = quick_instance(7)
        net = inst.network()
        sel = np.zeros((net.n, net.num_slots), dtype=np.int32)
        plans = charger_plans_from_network(
            net, np.arange(net.n), np.arange(net.m), sel, net.num_slots
        )
        owner = np.arange(net.n)  # every charger its own tile
        boundary = find_boundary_chargers(plans, owner, net.m)
        # Reference: charger i is boundary iff it shares a receivable task
        # with any other charger (here all owners differ).
        expected = sorted(
            i for i in range(net.n)
            if any(
                np.intersect1d(net.policy_tasks[i], net.policy_tasks[j]).size
                for j in range(net.n) if j != i
            )
        )
        assert boundary.tolist() == expected
        # Single tile owning everyone → no boundary at all.
        assert find_boundary_chargers(plans, np.zeros(net.n, dtype=int), net.m).size == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_boundary_stages_are_task_disjoint(self, seed):
        inst = quick_instance(seed)
        net = inst.network()
        sel = np.zeros((net.n, net.num_slots), dtype=np.int32)
        plans = charger_plans_from_network(
            net, np.arange(net.n), np.arange(net.m), sel, net.num_slots
        )
        by_charger = {p.charger: p for p in plans}
        part = make_partition(
            inst.charger_xy, inst.task_xy, inst.charger_radius,
            shards=4, halo="auto",
        )
        boundary = find_boundary_chargers(plans, part.owner, net.m)
        if boundary.size == 0:
            pytest.skip("no boundary on this seed")
        groups, stages = boundary_stages(by_charger, boundary, part.owner)
        # groups partition the boundary set exactly
        flat = np.concatenate([g for g in groups])
        assert sorted(flat.tolist()) == boundary.tolist()
        # stages partition the group indices exactly
        staged = sorted(g for stage in stages for g in stage)
        assert staged == list(range(len(groups)))
        # within a stage, groups share no receivable task at all — the
        # property that makes their negotiations independent
        for stage in stages:
            seen: set[int] = set()
            for g in stage:
                tasks = set(
                    int(j)
                    for i in groups[g]
                    for j in by_charger[int(i)].cols.tolist()
                )
                assert not (tasks & seen)
                seen |= tasks


# ----------------------------------------------------------------------
# shards=1 bit-identity and sharded consistency
# ----------------------------------------------------------------------
class TestShardsOneBitIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "base", ["haste-offline:c=2", "online-haste:c=2,tau=1"]
    )
    def test_shards_one_is_bit_identical(self, seed, base):
        inst = quick_instance(seed)
        ref = solve_instance(base, inst)
        one = solve_instance(f"{base},shards=1", inst)
        assert np.array_equal(ref.schedule_sel, one.schedule_sel)
        assert np.array_equal(ref.energies, one.energies)
        assert np.array_equal(ref.task_utilities, one.task_utilities)
        assert ref.total_utility == one.total_utility
        assert ref.relaxed_utility == one.relaxed_utility
        assert ref.objective_value == one.objective_value
        assert ref.switch_count == one.switch_count
        assert ref.fingerprint == one.fingerprint
        assert ref.message_stats == one.message_stats

    @pytest.mark.parametrize("seed", SEEDS)
    def test_shards_one_bit_identical_numpy_kernels(self, seed, monkeypatch):
        from repro.online import distributed

        monkeypatch.setattr(distributed, "_C", None)
        inst = quick_instance(seed)
        ref = solve_instance("online-haste:c=2,tau=1", inst)
        one = solve_instance("online-haste:c=2,tau=1,shards=1", inst)
        assert np.array_equal(ref.schedule_sel, one.schedule_sel)
        assert ref.total_utility == one.total_utility


class TestShardedConsistency:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("spec", [
        "haste-offline:c=2,shards=4",
        "online-haste:c=2,tau=1,shards=4",
    ])
    def test_sharded_schedule_validates_and_accounts_globally(self, seed, spec):
        inst = quick_instance(seed)
        art = solve_instance(spec, inst)
        net = inst.network()
        assert art.fingerprint == network_fingerprint(net)
        # from_matrix validates every selection against the global policy
        # lists — the merged global-index invariant in action.
        sched = Schedule.from_matrix(net, art.schedule_sel)
        ex = execute_schedule(net, sched, rho=inst.config.rho)
        assert np.allclose(ex.energies, art.energies, rtol=1e-10, atol=1e-12)
        assert abs(ex.total_utility - art.total_utility) < 1e-10
        assert abs(ex.relaxed_utility - art.relaxed_utility) < 1e-10
        assert ex.switch_count == art.switch_count
        shard_meta = art.meta["shard"]
        assert shard_meta["shards"] == 4 and shard_meta["tiles"] == 4

    def test_sharded_offline_consistent_with_numpy_kernels(self, monkeypatch):
        from repro.online import distributed

        monkeypatch.setattr(distributed, "_C", None)
        inst = quick_instance(7)
        art = solve_instance("haste-offline:c=2,shards=4", inst)
        net = inst.network()
        sched = Schedule.from_matrix(net, art.schedule_sel)
        ex = execute_schedule(net, sched, rho=inst.config.rho)
        assert np.allclose(ex.energies, art.energies, rtol=1e-10, atol=1e-12)

    def test_sharded_offline_reports_reconciliation(self):
        inst = quick_instance(7)
        art = solve_instance("haste-offline:c=2,shards=4", inst)
        meta = art.meta["shard"]
        assert meta["boundary_chargers"] + meta["interior_chargers"] == inst.n
        if meta["boundary_chargers"]:
            # Boundary negotiation runs the lossless protocol, which counts
            # each broadcast's deliveries → message stats.
            assert art.message_stats is not None
            assert art.message_stats.get("messages", 0) > 0

    def test_clustered_field_with_empty_tiles_solves(self):
        rng = np.random.default_rng(3)
        cfg = SimulationConfig.quick()
        chargers = rng.uniform(0.0, 8.0, (cfg.num_chargers, 2))
        inst = Instance.sample(cfg, 3, charger_positions=chargers)
        art = solve_instance("haste-offline:c=2,shards=9", inst)
        assert art.meta["shard"]["empty_tiles"] > 0
        net = inst.network()
        sched = Schedule.from_matrix(net, art.schedule_sel)
        ex = execute_schedule(net, sched, rho=inst.config.rho)
        assert np.allclose(ex.energies, art.energies, rtol=1e-10, atol=1e-12)

    def test_sharded_solve_from_instance_never_builds_global_network(self, monkeypatch):
        inst = quick_instance(7)
        calls = []
        original = Instance.network

        def spy(self, *, cached=False):
            calls.append(self.n)
            return original(self, cached=cached)

        monkeypatch.setattr(Instance, "network", spy)
        solver = get_solver("haste-offline:c=2,shards=4")
        solver.solve_from_instance(inst)
        # Tile and reconciliation nets only — never the full n-charger net.
        assert calls and all(n < inst.n for n in calls)


# ----------------------------------------------------------------------
# Parameter validation & the network LRU cache
# ----------------------------------------------------------------------
class TestShardParams:
    def test_unsupported_solver_rejects_shards(self):
        with pytest.raises(SolverError, match="does not accept parameter"):
            get_solver("greedy-utility:shards=2")

    def test_bad_shard_count_raises_solver_error(self):
        inst = quick_instance(7)
        for spec in ("haste-offline:shards=0", "haste-offline:shards=nope"):
            with pytest.raises(SolverError, match="shards"):
                solve_instance(spec, inst)

    def test_bad_halo_raises_solver_error(self):
        inst = quick_instance(7)
        with pytest.raises(SolverError, match="halo"):
            solve_instance("haste-offline:shards=4,halo=wide", inst)

    def test_custom_network_utility_object_rejected(self):
        from repro.core.utility import LogUtility

        inst = quick_instance(7)
        net = inst.network()
        net.utility = LogUtility(net.required_energy)
        solver = get_solver("haste-offline:c=2,shards=4")
        with pytest.raises(SolverError, match="utility"):
            solver.solve(net)

    def test_utility_family_param_supported_sharded(self):
        inst = quick_instance(7)
        art = solve_instance("haste-offline:c=2,shards=4,utility=log", inst)
        net = inst.network()
        from repro.core.utility import LogUtility

        sched = Schedule.from_matrix(net, art.schedule_sel)
        ex = execute_schedule(
            net, sched, rho=inst.config.rho, utility=LogUtility(net.required_energy)
        )
        assert np.allclose(ex.energies, art.energies, rtol=1e-10, atol=1e-12)
        assert abs(ex.total_utility - art.total_utility) < 1e-10


class TestNetworkCache:
    def test_cached_network_reused_and_evicted(self):
        clear_network_cache()
        cfg = SimulationConfig.quick()
        inst = Instance.sample(cfg, 7)
        n1 = inst.network(cached=True)
        assert inst.network(cached=True) is n1
        assert inst.network() is not n1  # uncached path always rebuilds
        capacity = network_cache_info()["capacity"]
        for seed in range(capacity + 2):
            Instance.sample(cfg, 100 + seed).network(cached=True)
        info = network_cache_info()
        assert info["size"] == capacity
        # The original entry was least-recently used → evicted.
        assert inst.network(cached=True) is not n1
        clear_network_cache()
        assert network_cache_info()["size"] == 0

    def test_cached_network_equivalent_to_fresh(self):
        clear_network_cache()
        inst = quick_instance(11)
        cached = inst.network(cached=True)
        fresh = inst.network()
        assert network_fingerprint(cached) == network_fingerprint(fresh)
        assert np.array_equal(cached.power, fresh.power)
        clear_network_cache()
