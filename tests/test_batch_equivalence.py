"""Differential pins for the batched multi-instance solve path (PR 10).

The contract under test: at float64,
:func:`repro.solvers.solve_batch` (and the underlying
:meth:`~repro.solvers.registry.BoundSolver.solve_prepared_batch`) is
**bit-identical** — same ``content_hash`` — to the sequential
:func:`~repro.solvers.solve_instance` loop, for every registered spec,
on ragged mixed-size batches, in both kernel modes.  Solvers without a
batched kernel route through the sequential-loop fallback, which must be
exact by construction; solvers with one (``greedy-utility``,
``greedy-cover``) exercise the stacked evaluation in
:class:`~repro.objective.haste.BatchedCharger` and
:mod:`repro.offline.batched`.  Their solo solve is a batch of one, so
:class:`TestOraclePins` also pins the drivers against the scalar loops in
``tests/oracles/baselines.py``, on the network's activity and on
τ-delayed activity.

Float32 is the *opt-in* relaxation: the planning kernel runs in single
precision (execution stays float64), tolerance pinned here at paper
scale per DESIGN.md §14.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.offline.batched import (
    greedy_cover_schedule_batch,
    greedy_utility_schedule_batch,
)
from repro.sim.config import SimulationConfig
from repro.solvers import (
    Instance,
    InstanceBatch,
    SolverError,
    get_solver,
    solve_batch,
    solve_instance,
    solver_names,
)
from repro.solvers.builtin import resolve_utility

from oracles import baselines as ref

QUICK = SimulationConfig.quick()
SMALL = SimulationConfig.small_scale()
SEEDS = (0, 1, 2)

#: Specs whose registry entry carries a batched kernel.
BATCHED = ("greedy-utility", "greedy-cover")


def _ragged_instances(spec: str) -> list[Instance]:
    """A mixed-size batch; the exact solver gets small instances only."""
    if spec == "offline-optimal":
        return [Instance.sample(SMALL, 300 + s) for s in SEEDS]
    return [Instance.sample(QUICK, 300 + s) for s in SEEDS] + [
        Instance.sample(SMALL, 400 + s) for s in SEEDS[:2]
    ]


def _hashes(artifacts) -> list[str]:
    return [a.content_hash() for a in artifacts]


class TestBatchLoopEquivalence:
    @pytest.mark.parametrize("kernel", ["compiled", "numpy"])
    @pytest.mark.parametrize("spec", sorted(solver_names()))
    def test_solve_batch_matches_sequential_loop(
        self, spec, kernel, monkeypatch
    ):
        if kernel == "numpy":
            from repro.online import distributed

            monkeypatch.setattr(distributed, "_C", None)
        instances = _ragged_instances(spec)
        direct = [solve_instance(spec, inst) for inst in instances]
        batched = solve_batch(spec, instances)
        assert _hashes(batched) == _hashes(direct)

    @pytest.mark.parametrize("spec", BATCHED)
    def test_explicit_seeds_honored(self, spec):
        instances = [Instance.sample(QUICK, 310 + s) for s in SEEDS]
        seeds = [7, None, 11]
        direct = [
            solve_instance(spec, inst, seed=s)
            for inst, s in zip(instances, seeds)
        ]
        batched = solve_batch(spec, instances, seeds=seeds)
        assert _hashes(batched) == _hashes(direct)

    @pytest.mark.parametrize("spec", BATCHED)
    def test_batch_of_one(self, spec):
        inst = Instance.sample(QUICK, 321)
        direct = solve_instance(spec, inst)
        (batched,) = solve_batch(spec, [inst])
        assert batched.content_hash() == direct.content_hash()
        assert batched.meta["batch"] == {
            "size": 1,
            "index": 0,
            "digest": batched.meta["batch"]["digest"],
        }

    def test_empty_batch(self):
        assert solve_batch("greedy-utility", []) == []

    def test_batch_meta_records_provenance(self):
        instances = [Instance.sample(QUICK, 330 + s) for s in SEEDS]
        arts = solve_batch("greedy-utility", instances)
        digests = {a.meta["batch"]["digest"] for a in arts}
        assert len(digests) == 1  # one digest for the whole batch
        assert [a.meta["batch"]["index"] for a in arts] == [0, 1, 2]
        assert all(a.meta["batch"]["size"] == 3 for a in arts)
        # meta is excluded from content_hash, so provenance stamping
        # cannot break bit-identity with the un-batched artifact.
        direct = solve_instance("greedy-utility", instances[0])
        assert arts[0].content_hash() == direct.content_hash()

    def test_each_member_hashed_once(self, monkeypatch):
        instances = [Instance.sample(QUICK, 330 + s) for s in SEEDS]
        instances.append(instances[0])  # a repeat is hashed, not re-prepared
        want = InstanceBatch.from_instances(instances).digest()
        hashed = []
        content_hash = Instance.content_hash

        def counting(inst):
            hashed.append(inst)
            return content_hash(inst)

        monkeypatch.setattr(Instance, "content_hash", counting)
        arts = solve_batch("greedy-utility", instances)
        assert len(hashed) == len(instances)
        assert [a.meta["batch"]["digest"] for a in arts] == [want] * len(instances)

    @pytest.mark.parametrize("spec", BATCHED)
    def test_duplicate_instances_in_one_batch(self, spec):
        inst = Instance.sample(QUICK, 341)
        arts = solve_batch(spec, [inst, inst, inst])
        want = solve_instance(spec, inst).content_hash()
        assert _hashes(arts) == [want] * 3

    def test_utility_param_batches_identically(self):
        for spec in (
            "greedy-utility:utility=log",
            "greedy-utility:utility=powerlaw,gamma=0.7",
        ):
            instances = [Instance.sample(QUICK, 350 + s) for s in SEEDS]
            direct = [solve_instance(spec, inst) for inst in instances]
            assert _hashes(solve_batch(spec, instances)) == _hashes(direct)


class TestOraclePins:
    """Every member of a ragged batch equals the scalar loop, bit for bit."""

    @staticmethod
    def _networks(config=None, seeds=SEEDS):
        if config is not None:
            return [Instance.sample(config, 11 + s).network() for s in seeds]
        return [inst.network() for inst in _ragged_instances("greedy-utility")]

    @pytest.mark.parametrize(
        "params",
        [{}, {"utility": "log"}, {"utility": "powerlaw", "gamma": 0.7}],
        ids=["linear", "log", "powerlaw"],
    )
    def test_greedy_utility(self, params):
        nets = self._networks()
        utils = [resolve_utility(net, params) for net in nets]
        got = greedy_utility_schedule_batch(nets, utilities=utils)
        for net, util, sched in zip(nets, utils, got):
            assert sched == ref.greedy_utility_schedule(net, utility=util)

    def test_greedy_cover(self):
        nets = self._networks()
        got = greedy_cover_schedule_batch(nets)
        assert got == [ref.greedy_cover_schedule(net) for net in nets]

    @pytest.mark.parametrize("tau", [0, 1, 3])
    def test_delayed_activity(self, tau):
        nets = self._networks()
        actives = [ref.delayed_activity(net, tau) for net in nets]
        got_u = greedy_utility_schedule_batch(nets, actives=actives)
        got_c = greedy_cover_schedule_batch(nets, actives=actives)
        for net, active, su, sc in zip(nets, actives, got_u, got_c):
            assert su == ref.greedy_utility_schedule(net, active=active)
            assert sc == ref.greedy_cover_schedule(net, active=active)
            assert sc == ref.online_baseline_dense(net, "cover", tau=tau)

    def test_paper_scale(self):
        nets = self._networks(SimulationConfig.paper(), seeds=(0, 1))
        actives = [ref.delayed_activity(net, 1) for net in nets]
        for acts in (None, actives):
            got = greedy_utility_schedule_batch(nets, actives=acts)
            for b, net in enumerate(nets):
                active = None if acts is None else acts[b]
                assert got[b] == ref.greedy_utility_schedule(net, active=active)

    def test_network_activity_untouched(self):
        (net,) = self._networks(QUICK, seeds=(0,))
        before = net.active.copy()
        greedy_utility_schedule_batch([net], actives=[ref.delayed_activity(net, 2)])
        assert np.array_equal(net.active, before)
        assert all(
            np.array_equal(sub, net.active[cols])
            for sub, cols in zip(net.active_by_charger(), net.policy_tasks)
        )


class TestFloat32Path:
    def test_float32_tolerance_at_paper_scale(self):
        # The planning kernel runs in float32; execution stays float64.
        # Measured divergence at paper scale is zero (the greedy argmax
        # decisions are insensitive to the precision drop at this
        # conditioning); the pin leaves two orders of margin.
        paper = SimulationConfig.paper()
        instances = [Instance.sample(paper, 360 + s) for s in SEEDS[:2]]
        f64 = solve_batch("greedy-utility", instances)
        f32 = solve_batch("greedy-utility", instances, dtype=np.float32)
        for a, b in zip(f64, f32):
            rel = abs(a.total_utility - b.total_utility) / abs(a.total_utility)
            assert rel <= 1e-6
            assert b.meta["batch"]["size"] == 2
            assert b.meta.get("dtype") == "float32"

    def test_float32_quick_scale_close(self):
        instances = [Instance.sample(QUICK, 370 + s) for s in SEEDS]
        f64 = solve_batch("greedy-cover", instances)
        f32 = solve_batch("greedy-cover", instances, dtype=np.float32)
        for a, b in zip(f64, f32):
            assert b.total_utility == pytest.approx(a.total_utility, rel=1e-6)

    def test_float32_rejected_on_loop_fallback_solver(self):
        inst = Instance.sample(QUICK, 380)
        with pytest.raises(SolverError, match="float32"):
            solve_batch("static", [inst], dtype=np.float32)

    def test_bad_dtype_rejected(self):
        inst = Instance.sample(QUICK, 381)
        with pytest.raises(SolverError, match="dtype"):
            solve_batch("greedy-utility", [inst], dtype=np.int32)


class TestBatchedPreparedPath:
    def test_solve_prepared_batch_matches_loop(self):
        from repro.solvers.prepared import prepare

        solver = get_solver("greedy-utility")
        instances = [Instance.sample(QUICK, 390 + s) for s in SEEDS]
        prepareds = [prepare(inst, cached=False) for inst in instances]
        configs = [inst.config for inst in instances]
        direct = [
            solver.solve_prepared(p, np.random.default_rng(9), c)
            for p, c in zip(prepareds, configs)
        ]
        rngs = [np.random.default_rng(9) for _ in instances]
        batched = solver.solve_prepared_batch(prepareds, rngs, configs)
        assert _hashes(batched) == _hashes(direct)

    def test_sharded_binding_falls_back_to_loop(self):
        # shards>1 bindings never route through the batched kernel —
        # the sharded path has its own tiling; the loop fallback keeps
        # solve_batch total over every binding.
        instances = [Instance.sample(QUICK, 395 + s) for s in SEEDS[:2]]
        spec = "online-haste:c=1,shards=2"
        direct = [solve_instance(spec, inst) for inst in instances]
        assert _hashes(solve_batch(spec, instances)) == _hashes(direct)
