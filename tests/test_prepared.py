"""Tests for the prepare phase: :class:`PreparedNetwork` + the LRU cache.

The two-phase contract's safety net: prepared state must be built exactly
once per ``content_hash`` (single-flight, even under a thread pool), be
shareable across concurrent solves without torn reads, and produce
artifacts bit-identical to cold ``prepare(cached=False)`` calls.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import obs
from repro.sim.config import SimulationConfig
from repro.solvers import (
    Instance,
    clear_prepared_cache,
    get_solver,
    prepare,
    prepare_network,
    prepared_cache_info,
    solve_instance,
)
from repro.solvers.prepared import PreparedCache

QUICK = SimulationConfig.quick()


def _solve_cold(spec: str, inst: Instance):
    """A from-scratch solve: private prepared object, fresh rng."""
    cold = prepare(inst, cached=False)
    solver = get_solver(spec)
    rng = np.random.default_rng(inst.seed)
    return solver.solve_prepared(cold, rng, inst.config)


class TestPreparedNetwork:
    def test_network_built_lazily_and_once(self):
        inst = Instance.sample(QUICK, 3)
        prepared = prepare(inst, cached=False)
        assert prepared.network_builds == 0
        net = prepared.network
        assert prepared.network is net
        assert prepared.network_builds == 1
        assert prepared.key == inst.content_hash()

    def test_objective_and_scheduler_cached_per_key(self):
        prepared = prepare(Instance.sample(QUICK, 3), cached=False)
        objective = prepared.objective()
        assert prepared.objective() is objective
        assert objective.network is prepared.network
        log = prepared.objective(utility_family="log")
        assert log is not objective
        assert prepared.objective(utility_family="log") is log
        sched = prepared.scheduler()
        assert prepared.scheduler() is sched
        assert sched.objective is objective
        assert prepared.scheduler(utility_family="log").objective is log

    def test_utility_families_share_state_correctly(self):
        prepared = prepare(Instance.sample(QUICK, 4), cached=False)
        assert prepared.scoring_utility(None) is None
        log_a = prepared.scoring_utility("log")
        assert prepared.scoring_utility("log", gamma=0.9) is log_a
        pl_3 = prepared.scoring_utility("powerlaw", gamma=0.3)
        assert prepared.scoring_utility("powerlaw", gamma=0.3) is pl_3
        assert prepared.scoring_utility("powerlaw", gamma=0.7) is not pl_3

    def test_shard_state_cached_and_never_builds_network(self):
        inst = Instance.sample(QUICK, 5)
        prepared = prepare(inst, cached=False)
        state = prepared.shard_state(2, "auto")
        assert prepared.shard_state(2, "auto") is state
        assert set(state) == {"partition", "subs"}
        assert prepared.shard_state(3, "auto") is not state
        # Tile slicing must not have forced the global network build.
        assert prepared.network_builds == 0

    def test_wrapped_network_is_ephemeral(self):
        inst = Instance.sample(QUICK, 6)
        net = inst.network()
        prepared = prepare_network(net)
        assert prepared.key is None
        assert prepared.network is net
        assert prepared.network_builds == 0
        snap = prepared.snapshot_instance(QUICK)
        assert prepared.snapshot_instance() is snap  # cached after first call
        assert (snap.content_hash()
                == Instance.from_network(net, config=QUICK).content_hash())
        with pytest.raises(ValueError, match="requires an instance"):
            prepare_network(inst.network()).shard_state(2, "auto")


class TestPreparedCache:
    def test_hit_miss_eviction_counters(self):
        cache = PreparedCache(capacity=2)
        a, b, c = (Instance.sample(QUICK, s) for s in (101, 102, 103))
        pa, hit = cache.get_or_prepare(a)
        assert not hit
        pa2, hit = cache.get_or_prepare(a)
        assert hit and pa2 is pa
        cache.get_or_prepare(b)
        cache.get_or_prepare(c)  # evicts a (LRU)
        info = cache.info()
        assert info["size"] == 2 and info["capacity"] == 2
        assert info["hits"] == 1 and info["misses"] == 3
        assert info["evictions"] == 1 and info["builds"] == 3
        pa3, hit = cache.get_or_prepare(a)
        assert not hit and pa3 is not pa

    def test_single_flight_under_thread_pool(self):
        cache = PreparedCache(capacity=8)
        instances = [Instance.sample(QUICK, 200 + s) for s in range(3)]
        results: dict[str, set[int]] = {i.content_hash(): set() for i in instances}
        barrier = threading.Barrier(8)

        def hammer(worker: int):
            barrier.wait()
            for _ in range(5):
                for inst in instances:
                    prepared, _ = cache.get_or_prepare(inst)
                    _ = prepared.network  # force the lazy build too
                    results[prepared.key].add(id(prepared))
                    assert prepared.network_builds == 1

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))

        # Exactly one build and one object per distinct content hash.
        info = cache.info()
        assert info["builds"] == len(instances)
        assert info["misses"] == len(instances)
        assert all(len(ids) == 1 for ids in results.values())
        assert info["hits"] == 8 * 5 * len(instances) - len(instances)

    def test_global_cache_shared_with_instance_network_shim(self):
        clear_prepared_cache()
        inst = Instance.sample(QUICK, 17)
        net = inst.network(cached=True)
        prepared = prepare(inst)
        assert prepared.network is net
        info = prepared_cache_info()
        assert info["size"] >= 1

    def test_obs_counters_mirrored(self):
        owns = not obs.enabled()
        if owns:
            obs.configure()
        try:
            clear_prepared_cache()
            inst = Instance.sample(QUICK, 23)
            prepare(inst)
            prepare(inst)
            counters = obs.get_registry().snapshot()["counters"]
            assert counters.get("prepared.cache_misses", 0) >= 1
            assert counters.get("prepared.cache_hits", 0) >= 1
        finally:
            if owns:
                obs.shutdown()


class TestConcurrentSolvesBitIdentical:
    """Thread-pool hammering of prepare/solve on mixed content hashes."""

    SPECS = ("haste-offline:c=2", "online-haste:c=1", "greedy-utility")

    def test_warm_concurrent_solves_match_cold(self):
        instances = [Instance.sample(QUICK, 300 + s) for s in range(3)]
        jobs = [(spec, inst) for spec in self.SPECS for inst in instances]
        cold_hashes = {
            (spec, inst.content_hash()): _solve_cold(spec, inst).content_hash()
            for spec, inst in jobs
        }

        clear_prepared_cache()
        before = prepared_cache_info()
        seen_prepared: dict[str, set[int]] = {
            inst.content_hash(): set() for inst in instances
        }
        failures: list[str] = []
        lock = threading.Lock()

        def run(job):
            spec, inst = job
            prepared = prepare(inst)
            solver = get_solver(spec)
            rng = np.random.default_rng(inst.seed)
            artifact = solver.solve_prepared(prepared, rng, inst.config)
            got = artifact.content_hash()
            want = cold_hashes[(spec, inst.content_hash())]
            with lock:
                seen_prepared[prepared.key].add(id(prepared))
                if got != want:
                    failures.append(f"{spec} on {prepared.key[:8]}: "
                                    f"{got} != {want}")

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(run, jobs * 3))

        assert not failures, failures
        # One prepared object per hash, prepared exactly once.
        assert all(len(ids) == 1 for ids in seen_prepared.values())
        after = prepared_cache_info()
        assert after["builds"] - before["builds"] == len(instances)

    def test_solve_instance_unchanged_by_warm_state(self):
        # The direct path must be bit-identical whether or not warm
        # prepared state already exists for the hash.
        inst = Instance.sample(QUICK, 31)
        clear_prepared_cache()
        cold = solve_instance("haste-offline:c=2", inst)
        warm = solve_instance("haste-offline:c=2", inst)
        assert cold.content_hash() == warm.content_hash()
        sharded_cold = solve_instance("online-haste:shards=2,c=1", inst)
        sharded_warm = solve_instance("online-haste:shards=2,c=1", inst)
        assert sharded_cold.content_hash() == sharded_warm.content_hash()
