"""Seeded equivalence of the fast-path kernels against the reference path.

The perf layer (column-compressed kernels, incremental sub-network
restriction, shared masked objectives, the compiled sweep and negotiation
kernels, column-compressed smoothing and execution) must be a pure
optimization: same seeds → same schedules and objective values as the
plain formulations it replaces.  The dense full-width objective and the
scalar smoothing and execution passes live in ``tests/oracles``; these
tests pin the program against them on several random instances.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import Charger, ChargerNetwork, ChargingTask, LinearBoundedUtility
from repro.core.network import IDLE_POLICY
from repro.core.policy import network_fingerprint
from repro.core.utility import LogUtility, PowerLawUtility
from repro.objective import HasteObjective
from repro.offline.batched import (
    greedy_cover_schedule_batch,
    greedy_utility_schedule_batch,
)
from repro.offline.centralized import CentralizedScheduler
from repro.offline.smoothing import smooth_switches
from repro.online import run_online_haste
from repro.sim import SimulationConfig, sample_network
from repro.sim.engine import ExecutionResult, execute_schedule, orientation_trace
from repro.solvers import Instance, solve_instance
from repro.submodular.estimation import ColorSampler

from oracles import DenseObjective
from oracles import engine as ref_engine
from oracles import smoothing as ref_smoothing

SEEDS = [7, 19, 123]


def make_net(seed: int, config: SimulationConfig | None = None):
    config = config if config is not None else SimulationConfig.quick()
    return sample_network(config, np.random.default_rng(seed))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("num_colors", [1, 4])
class TestOfflineEquivalence:
    def test_same_schedule_and_value(self, seed, num_colors):
        net = make_net(seed)
        ref = CentralizedScheduler(net, objective=DenseObjective(net)).run(
            num_colors, rng=np.random.default_rng(seed)
        )
        opt = CentralizedScheduler(net).run(
            num_colors, rng=np.random.default_rng(seed)
        )
        assert np.array_equal(ref.schedule.sel, opt.schedule.sel)
        assert ref.objective_value == opt.objective_value
        assert ref.table == opt.table


def _assert_gains_close(net, seed: int, slots_per_charger: int = 3) -> None:
    """Partition gains agree with the oracle to rounding."""
    sparse = HasteObjective(net)
    dense = DenseObjective(net)
    energies = np.random.default_rng(seed).uniform(0.0, 2000.0, size=(5, net.m))
    rows = np.array([0, 2, 4])
    for i in range(net.n):
        if net.policy_count(i) <= 1:
            continue
        for k in net.relevant_slots(i)[:slots_per_charger]:
            k = int(k)
            np.testing.assert_allclose(
                sparse.partition_gains(energies[0], i, k),
                dense.partition_gains(energies[0], i, k),
                rtol=1e-12,
                atol=1e-15,
            )
            np.testing.assert_allclose(
                sparse.partition_gains_rows(energies, rows, i, k),
                dense.partition_gains_rows(energies, rows, i, k),
                rtol=1e-12,
                atol=1e-15,
            )


def _assert_energies_bit_identical(net, seed: int) -> None:
    """Applies and whole-schedule energies equal the oracle's bit for bit."""
    sparse = HasteObjective(net)
    dense = DenseObjective(net)
    e_sparse = sparse.zero_energy((3,))
    e_dense = dense.zero_energy((3,))
    rng = np.random.default_rng(seed)
    rows = np.array([0, 2])
    for i in range(net.n):
        slots = net.relevant_slots(i)
        if net.policy_count(i) <= 1 or slots.size == 0:
            continue
        k = int(slots[0])
        p = int(rng.integers(1, net.policy_count(i)))
        sparse.apply_rows(e_sparse, rows, i, k, p)
        dense.apply_rows(e_dense, rows, i, k, p)
        sparse.apply(e_sparse[1], i, k, p)
        dense.apply(e_dense[1], i, k, p)
    assert np.array_equal(e_sparse, e_dense)

    res = CentralizedScheduler(net).run(1, rng=np.random.default_rng(seed))
    assert np.array_equal(
        sparse.energies_of_schedule(res.schedule),
        dense.energies_of_schedule(res.schedule),
    )
    assert sparse.value_of_schedule(res.schedule) == dense.value_of_schedule(
        res.schedule
    )


@pytest.mark.parametrize("seed", SEEDS)
class TestSparseKernelEquivalence:
    def test_partition_gains_match_dense(self, seed):
        _assert_gains_close(make_net(seed), seed)

    def test_apply_and_schedule_energy_bit_identical(self, seed):
        _assert_energies_bit_identical(make_net(seed), seed)


class TestPaperScaleOracle:
    """The kernels against the oracle at paper scale.

    Schedules are not compared here: with 50 chargers and 200 tasks some
    partitions hold policies of equal gain, and the rounding difference
    between the ``|T_i|``-wide and ``m``-wide task sums breaks those ties
    differently.  Gains must still agree to rounding, and energies exactly.
    """

    def test_gains_close_and_energies_bit_identical(self):
        net = make_net(11, SimulationConfig.paper())
        _assert_gains_close(net, 11, slots_per_charger=2)
        _assert_energies_bit_identical(net, 11)


@pytest.mark.parametrize("seed", SEEDS)
class TestIncrementalRestriction:
    def test_matches_full_reconstruction(self, seed):
        net = make_net(seed)
        rng = np.random.default_rng(seed)
        ids = sorted(
            int(j) for j in rng.choice(net.m, size=max(net.m // 2, 1), replace=False)
        )
        fast = net.restricted_to_tasks(ids)
        full = net.restricted_to_tasks(ids, incremental=False)
        assert fast.task_origin == full.task_origin == ids
        assert fast.num_slots == full.num_slots
        for attr in (
            "dist",
            "azimuth",
            "receivable",
            "power",
            "active",
            "weights",
            "required_energy",
            "release_slots",
            "end_slots",
            "task_xy",
        ):
            assert np.array_equal(getattr(fast, attr), getattr(full, attr)), attr
        for i in range(net.n):
            assert np.array_equal(fast.cover_masks[i], full.cover_masks[i])
            assert np.array_equal(fast.policy_power[i], full.policy_power[i])
            assert np.array_equal(
                fast.policy_orientations[i],
                full.policy_orientations[i],
                equal_nan=True,
            )
            assert np.array_equal(fast.policy_tasks[i], full.policy_tasks[i])
            assert np.array_equal(fast.sparse_power[i], full.sparse_power[i])
        assert fast.neighbors == full.neighbors
        assert network_fingerprint(fast) == network_fingerprint(full)

    def test_restricted_network_schedules_identically(self, seed):
        net = make_net(seed)
        ids = list(range(0, net.m, 2))
        fast = net.restricted_to_tasks(ids)
        full = net.restricted_to_tasks(ids, incremental=False)
        r_fast = CentralizedScheduler(fast).run(1, rng=np.random.default_rng(seed))
        r_full = CentralizedScheduler(full).run(1, rng=np.random.default_rng(seed))
        assert np.array_equal(r_fast.schedule.sel, r_full.schedule.sel)
        assert r_fast.objective_value == r_full.objective_value


@pytest.mark.parametrize("seed", SEEDS)
class TestOnlineEquivalence:
    def test_masked_view_matches_fresh_masked_objective(self, seed):
        net = make_net(seed)
        known = net.release_slots <= int(np.median(net.release_slots))
        view = HasteObjective(net).masked_view(known)
        fresh = HasteObjective(net, task_mask=known)
        assert np.array_equal(view.active, fresh.active)
        assert np.array_equal(view.weights, fresh.weights)
        energies = np.zeros(net.m)
        for i in range(net.n):
            slots = view.relevant_slots(i)
            assert np.array_equal(slots, fresh.relevant_slots(i))
            if net.policy_count(i) <= 1 or slots.size == 0:
                continue
            k = int(slots[0])
            assert np.array_equal(
                view.partition_gains(energies, i, k),
                fresh.partition_gains(energies, i, k),
            )


def _haste_schedules(net, seed: int) -> list:
    """HASTE C=1 and C=4 plus greedy-utility schedules of one network."""
    return [
        CentralizedScheduler(net).run(c, rng=np.random.default_rng(seed)).schedule
        for c in (1, 4)
    ] + greedy_utility_schedule_batch([net])


def _smoothing_options(net) -> list[dict]:
    """Plain, log and power-law scoring, and a task mask with a start slot."""
    boundary = int(np.median(net.release_slots))
    return [
        {},
        {"utility": LogUtility(net.required_energy)},
        {"utility": PowerLawUtility(net.required_energy, gamma=0.5)},
        {"task_mask": net.release_slots <= boundary, "start_slot": boundary},
    ]


def _assert_smoothing_matches(net, schedules, cases) -> int:
    """Same selections as the scalar pass; returns how many cases smoothed."""
    changed = 0
    for sched in schedules:
        for rho, kwargs in cases:
            got = smooth_switches(net, sched, rho=rho, **kwargs)
            ref = ref_smoothing.smooth_switches(net, sched, rho=rho, **kwargs)
            assert np.array_equal(got.sel, ref.sel), (rho, sorted(kwargs))
            changed += not np.array_equal(got.sel, sched.sel)
    return changed


class TestSmoothingOracle:
    """Column-compressed smoothing selects exactly what the scalar pass does."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_quick_scale(self, seed):
        net = make_net(seed)
        cases = [
            (rho, kwargs)
            for rho in (1 / 12, 0.5, 1.0)
            for kwargs in _smoothing_options(net)
        ]
        _assert_smoothing_matches(net, _haste_schedules(net, seed), cases)

    def test_paper_scale(self):
        net = make_net(11, SimulationConfig.paper())
        plain, log, _power, masked = _smoothing_options(net)
        cases = [(1 / 12, plain), (1.0, plain), (1 / 12, log), (0.5, masked)]
        schedules = _haste_schedules(net, 11)[1:]
        assert _assert_smoothing_matches(net, schedules, cases) > 0


def _bits(value) -> tuple:
    arr = np.asarray(value)
    return arr.dtype.str, arr.shape, arr.tobytes()


def _assert_executions_match(net, schedules) -> None:
    """Every ExecutionResult field equals the scalar executor's, bit for bit."""
    fields = [f.name for f in dataclasses.fields(ExecutionResult)]
    for sched in schedules:
        trace = orientation_trace(net, sched)
        assert _bits(trace) == _bits(ref_engine.orientation_trace(net, sched))
        for rho in (0.0, 1 / 12, 1.0):
            for util in (None, LogUtility(net.required_energy)):
                got = execute_schedule(net, sched, rho=rho, utility=util)
                ref = ref_engine.execute_schedule(net, sched, rho=rho, utility=util)
                for name in fields:
                    assert _bits(getattr(got, name)) == _bits(getattr(ref, name)), (
                        name, rho, util,
                    )


class TestExecutionOracle:
    """The column-compressed executor against the per-slot scalar one."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_quick_scale(self, seed):
        net = make_net(seed)
        schedules = [
            CentralizedScheduler(net).run(4, rng=np.random.default_rng(seed)).schedule,
            *greedy_utility_schedule_batch([net]),
            *greedy_cover_schedule_batch([net]),
        ]
        _assert_executions_match(net, schedules)

    def test_paper_scale(self):
        net = make_net(11, SimulationConfig.paper())
        schedules = [
            CentralizedScheduler(net).run(4, rng=np.random.default_rng(11)).schedule,
            *greedy_cover_schedule_batch([net]),
        ]
        _assert_executions_match(net, schedules)


def _assert_sweeps_match(net, num_colors: int, seed: int, monkeypatch) -> None:
    """The compiled sweep against the NumPy sweep on one network."""
    from repro.online import distributed

    kernel = distributed._C
    opt = CentralizedScheduler(net).run(num_colors, rng=np.random.default_rng(seed))
    monkeypatch.setattr(distributed, "_C", None)
    ref = CentralizedScheduler(net).run(num_colors, rng=np.random.default_rng(seed))
    monkeypatch.setattr(distributed, "_C", kernel)
    assert opt.table == ref.table
    assert np.array_equal(opt.schedule.sel, ref.schedule.sel)
    assert opt.objective_value == ref.objective_value
    assert opt.candidate_scans == ref.candidate_scans


class _NoKernel:
    """Stands in for the compiled module; any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"compiled kernel {name!r} used")


class TestSweepPaths:
    def test_log_utility_takes_numpy_sweep(self, monkeypatch):
        from repro.online import distributed

        net = make_net(7)
        util = LogUtility(net.required_energy)
        ref = CentralizedScheduler(net, utility=util).run(
            4, rng=np.random.default_rng(7)
        )
        monkeypatch.setattr(distributed, "_C", _NoKernel())
        got = CentralizedScheduler(net, utility=util).run(
            4, rng=np.random.default_rng(7)
        )
        assert got.table == ref.table
        assert got.objective_value == ref.objective_value

    def test_disabled_kernel_subprocess_same_hash(self):
        """``REPRO_DISABLE_CKERNEL=1`` in a fresh interpreter: same artifacts."""
        specs = ["haste-offline:c=4", "online-haste"]
        inst = Instance.sample(SimulationConfig.quick(), 5)
        expected = [solve_instance(spec, inst).content_hash() for spec in specs]
        code = (
            "from repro.online import distributed\n"
            "from repro.sim import SimulationConfig\n"
            "from repro.solvers import Instance, solve_instance\n"
            "assert distributed._C is None\n"
            "inst = Instance.sample(SimulationConfig.quick(), 5)\n"
            f"for spec in {specs!r}:\n"
            "    print(solve_instance(spec, inst).content_hash())\n"
        )
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["REPRO_DISABLE_CKERNEL"] = "1"
        env["PYTHONPATH"] = os.path.join(repo, "src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == expected


needs_ckernel = pytest.mark.skipif(
    __import__("repro.online.distributed", fromlist=["_C"])._C is None,
    reason="compiled negotiation kernels unavailable",
)


@needs_ckernel
class TestCKernelBitwise:
    """The compiled negotiation kernels against their NumPy formulas.

    ``fill`` and ``fold`` are element-wise IEEE operations and must match
    bit-for-bit; ``finish`` replicates NumPy's sequential axis-0 sum, so
    its verdict must equal the reference argmax exactly.
    """

    def test_fill_matches_numpy_elementwise(self):
        from repro.online import distributed

        rng = np.random.default_rng(0)
        S, m, R, P, t = 24, 40, 7, 5, 9
        view = rng.uniform(0.0, 2.0, (S, m))
        rows = np.sort(rng.choice(S, R, replace=False)).astype(np.intp)
        cols = np.sort(rng.choice(m, t, replace=False)).astype(np.intp)
        add = rng.uniform(0.0, 1.0, (P, t))
        E = rng.uniform(0.5, 3.0, t)
        tens = np.empty((R, P, t))
        distributed._C.fill(view, tens, rows, None, cols, add, E)
        cur = view[rows[:, None], cols][:, None, :]
        ref = np.minimum((cur + add) / E, 1.0) - np.minimum(cur / E, 1.0)
        assert np.array_equal(tens, ref)
        # Dirty-row refresh after the view changed under two rows.
        view[rows[1]] += 0.25
        view[rows[4]] += 0.5
        distributed._C.fill(view, tens, rows, [1, 4], cols, add, E)
        cur = view[rows[:, None], cols][:, None, :]
        ref = np.minimum((cur + add) / E, 1.0) - np.minimum(cur / E, 1.0)
        assert np.array_equal(tens, ref)

    def test_finish_matches_numpy_sum_argmax(self):
        from repro.online import distributed

        rng = np.random.default_rng(1)
        for R, P in [(1, 2), (6, 4), (24, 12)]:
            rg = rng.uniform(0.0, 1.0, (R, P))
            best_p, best_v = distributed._C.finish(rg, 24)
            total = rg.sum(axis=0) / 24
            assert best_p == int(total.argmax())
            assert best_v == float(total[best_p])

    def test_fold_matches_numpy_scatter(self):
        from repro.online import distributed

        rng = np.random.default_rng(2)
        n, S, m, R, t = 5, 8, 30, 4, 6
        views = rng.uniform(0.0, 1.0, (n, S, m))
        ref = views.copy()
        rows = np.sort(rng.choice(S, R, replace=False)).astype(np.intp)
        cols = np.sort(rng.choice(m, t, replace=False)).astype(np.intp)
        vals = rng.uniform(0.0, 1.0, t)
        distributed._C.fold(views, [0, 3, 4], rows, cols, vals)
        obs = np.array([0, 3, 4])
        ref[obs[:, None, None], rows[None, :, None], cols[None, None, :]] += vals
        assert np.array_equal(views, ref)

    def test_fill_rejects_short_required_energy(self):
        from repro.online import distributed

        view = np.zeros((4, 10))
        tens = np.empty((2, 3, 5))
        rows = np.array([0, 2], dtype=np.intp)
        cols = np.arange(5, dtype=np.intp)
        add = np.ones((3, 5))
        with pytest.raises(ValueError, match="one entry per task column"):
            distributed._C.fill(view, tens, rows, None, cols, add, np.ones(1))


@needs_ckernel
class TestCompiledSweep:
    """Same seeds → same sweep with and without the compiled kernels."""

    @pytest.mark.parametrize("num_colors", [1, 4])
    def test_quick_scale(self, num_colors, monkeypatch):
        for seed in SEEDS:
            _assert_sweeps_match(make_net(seed), num_colors, seed, monkeypatch)

    @pytest.mark.parametrize("num_colors", [1, 4])
    def test_paper_scale(self, num_colors, monkeypatch):
        net = make_net(11, SimulationConfig.paper())
        _assert_sweeps_match(net, num_colors, 11, monkeypatch)


class _SlotKernelSpy:
    """The compiled module with its ``negotiate_slot`` calls counted, or,
    with ``allow=False``, failing the test; everything else passes through."""

    def __init__(self, kernel, allow: bool = True):
        self._kernel, self._allow, self.slot_calls = kernel, allow, 0

    def negotiate_slot(self, *args):
        if not self._allow:
            raise AssertionError("compiled slot kernel used")
        self.slot_calls += 1
        return self._kernel.negotiate_slot(*args)

    def __getattr__(self, name):
        return getattr(self._kernel, name)


def _edge_network(shape: str) -> tuple[ChargerNetwork, list[int]]:
    """A default-scale network plus chargers placed past its field that
    reach one of the slot kernel's edge shapes; returns the network and the
    added chargers.

    ``"one-task"``: two neighbouring chargers whose only receivable task is
    the same one (``t = 1``, where NumPy's matmul takes its non-BLAS
    branch).  ``"wide"``: two chargers over a cluster of 110 tasks they
    both receive.  ``"one-colour"``: the network as sampled.
    """
    base = make_net(7, SimulationConfig())
    n, m, K = base.n, base.m, base.num_slots
    x0 = 4 * SimulationConfig().field_size  # out of every base charger's reach
    rng = np.random.default_rng(5)
    chargers, tasks = [], []
    if shape == "one-task":
        chargers = [
            Charger(n, x0, 0.0, radius=5.0), Charger(n + 1, x0 + 2, 0.0, radius=5.0)
        ]
        tasks = [
            ChargingTask(m, x0 + 1, 1.0, 0.0, 0, K, 30_000.0, 2 * np.pi, 1 / m)
        ]
    elif shape == "wide":
        chargers = [
            Charger(n, x0 - 1, 0.0, radius=15.0),
            Charger(n + 1, x0 + 1, 0.0, radius=15.0),
        ]
        for j in range(110):
            r, phi = 8.0 * np.sqrt(rng.uniform()), rng.uniform(0.0, 2 * np.pi)
            release = int(rng.integers(0, K - 20))
            tasks.append(ChargingTask(
                m + j, x0 + r * np.cos(phi), r * np.sin(phi), 0.0, release,
                release + int(rng.integers(5, 20)), float(rng.uniform(5e3, 2e4)),
                2 * np.pi, 1 / m,
            ))
    net = ChargerNetwork(
        list(base.chargers) + chargers, list(base.tasks) + tasks,
        power_model=base.power_model, slot_seconds=base.slot_seconds,
    )
    return net, [c.id for c in chargers]


def _assert_windows_match(a, b) -> None:
    assert a.table == b.table
    assert a.commit_trace == b.commit_trace
    assert a.stats == b.stats
    assert a.proposal_evals == b.proposal_evals
    assert a.proposal_cache_hits == b.proposal_cache_hits


@needs_ckernel
class TestCKernelProtocolEquivalence:
    """Same seeds → same negotiation outcome with and without the C path."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_negotiation_identical_without_c(self, seed, monkeypatch):
        from repro.online import distributed
        from repro.online.distributed import negotiate_window

        net = make_net(seed)
        slots = [int(k) for k in range(min(6, net.num_slots))]
        res_c = negotiate_window(
            net, HasteObjective(net), slots, 2,
            rng=np.random.default_rng(seed), num_samples=8,
        )
        monkeypatch.setattr(distributed, "_C", None)
        res_py = negotiate_window(
            net, HasteObjective(net), slots, 2,
            rng=np.random.default_rng(seed), num_samples=8,
        )
        assert res_c.table == res_py.table
        assert res_c.stats == res_py.stats
        assert res_c.commit_trace == res_py.commit_trace

    @pytest.mark.parametrize("seed", SEEDS)
    def test_online_run_identical_without_c(self, seed, monkeypatch):
        from repro.online import distributed

        net = make_net(seed)
        opt = run_online_haste(net, rng=np.random.default_rng(seed))
        monkeypatch.setattr(distributed, "_C", None)
        ref = run_online_haste(net, rng=np.random.default_rng(seed))
        assert np.array_equal(ref.schedule.sel, opt.schedule.sel)
        assert ref.total_utility == opt.total_utility
        assert ref.stats == opt.stats

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scalar_required_energy_identical_without_c(self, seed, monkeypatch):
        """A network-wide scalar required energy reaches the kernels at full
        length (one entry per receivable column)."""
        from repro.online import distributed

        base = make_net(seed)
        net = ChargerNetwork(
            base.chargers, base.tasks, power_model=base.power_model,
            slot_seconds=base.slot_seconds,
            utility=LinearBoundedUtility(8000.0),
        )
        opt = run_online_haste(net, rng=np.random.default_rng(1))
        monkeypatch.setattr(distributed, "_C", None)
        ref = run_online_haste(net, rng=np.random.default_rng(1))
        assert np.array_equal(ref.schedule.sel, opt.schedule.sel)
        assert ref.total_utility == opt.total_utility

    def test_online_run_at_benchmark_scale_identical_without_c(self, monkeypatch):
        """One run at the default online scale (n=25, m=100, 60 slots)."""
        from repro.online import distributed

        net = make_net(7, SimulationConfig())
        spy = _SlotKernelSpy(distributed._C)
        monkeypatch.setattr(distributed, "_C", spy)
        opt = run_online_haste(net, rng=np.random.default_rng(7))
        assert spy.slot_calls > 0
        monkeypatch.setattr(distributed, "_C", None)
        ref = run_online_haste(net, rng=np.random.default_rng(7))
        assert opt.schedule.sel.tobytes() == ref.schedule.sel.tobytes()
        assert opt.total_utility == ref.total_utility
        assert opt.stats == ref.stats
        assert opt.events == ref.events

    def test_lossy_bus_window_identical_without_c(self, monkeypatch):
        """An explicit null-fault lossy bus, as shard reconcile passes it:
        the counts land on the caller's bus."""
        from repro.faults import FaultModel
        from repro.faults.bus import LossyMessageBus
        from repro.online import distributed
        from repro.online.distributed import negotiate_window

        net = make_net(19, SimulationConfig())
        banked = np.random.default_rng(19).uniform(0.0, 2000.0, net.m)

        def window():
            bus = LossyMessageBus(list(net.neighbors), FaultModel().injector(net.n))
            res = negotiate_window(
                net, HasteObjective(net), list(range(20, 40)), 4,
                rng=np.random.default_rng(19), initial_energies=banked, bus=bus,
            )
            assert res.stats is bus.stats
            return res

        spy = _SlotKernelSpy(distributed._C)
        monkeypatch.setattr(distributed, "_C", spy)
        opt = window()
        assert spy.slot_calls > 0 and opt.table
        monkeypatch.setattr(distributed, "_C", None)
        _assert_windows_match(opt, window())

    @pytest.mark.parametrize("route", ["async", "log-utility"])
    def test_python_loop_routes_identical_without_c(self, route, monkeypatch):
        """With the kernel loaded, the asynchronous model and non-linear
        utilities take the Python loop, and it matches the NumPy path."""
        from repro.online import distributed
        from repro.online.distributed import negotiate_window

        net = make_net(7)
        utility = LogUtility(net.required_energy) if route == "log-utility" else None
        dropout = 0.3 if route == "async" else 0.0

        def window():
            return negotiate_window(
                net, HasteObjective(net, utility), list(range(8)), 4,
                rng=np.random.default_rng(7), async_dropout=dropout,
                async_rng=np.random.default_rng(8),
            )

        monkeypatch.setattr(
            distributed, "_C", _SlotKernelSpy(distributed._C, allow=False)
        )
        opt = window()
        assert opt.table
        monkeypatch.setattr(distributed, "_C", None)
        _assert_windows_match(opt, window())

    @pytest.mark.parametrize("shape", ["one-task", "one-colour", "wide"])
    def test_edge_shapes_identical_without_c(self, shape, monkeypatch):
        """Shapes the benchmark scale never reaches: one receivable task,
        one colour (``S = 1``, so ``R = S``) and over a hundred receivable
        tasks; each added charger wins at least one negotiation."""
        from repro.online import distributed
        from repro.online.distributed import negotiate_window

        net, added = _edge_network(shape)
        receivable = {net.policy_tasks[i].size for i in added}
        if shape == "one-task":
            assert receivable == {1}
        elif shape == "wide":
            assert min(receivable) >= 100
        num_colors = 1 if shape == "one-colour" else 4
        banked = np.random.default_rng(3).uniform(0.0, 2000.0, net.m)

        def window():
            return negotiate_window(
                net, HasteObjective(net), list(range(net.num_slots)), num_colors,
                rng=np.random.default_rng(11), initial_energies=banked,
            )

        spy = _SlotKernelSpy(distributed._C)
        monkeypatch.setattr(distributed, "_C", spy)
        opt = window()
        assert spy.slot_calls > 0
        assert set(added) <= {i for i, _k, _c in opt.table}
        assert opt.sampler.num_samples == (1 if num_colors == 1 else 24)
        monkeypatch.setattr(distributed, "_C", None)
        _assert_windows_match(opt, window())

    def test_more_samples_than_a_word_identical_without_c(self, monkeypatch):
        """80 samples: row sets wider than 64 bits stay on the compiled path."""
        from repro.online import distributed
        from repro.online.distributed import negotiate_window

        net = make_net(123, SimulationConfig())

        def window():
            return negotiate_window(
                net, HasteObjective(net), list(range(20, 30)), 4,
                rng=np.random.default_rng(123), num_samples=80,
            )

        spy = _SlotKernelSpy(distributed._C)
        monkeypatch.setattr(distributed, "_C", spy)
        opt = window()
        assert spy.slot_calls > 0 and opt.table
        monkeypatch.setattr(distributed, "_C", None)
        _assert_windows_match(opt, window())


def _window_objectives(net) -> list:
    """A knowledge-masked objective, as each arrival plans on, and one on
    τ-delayed activity (``HasteObjective(active=…)``), with the boundary."""
    boundary = int(np.median(net.release_slots))
    slots = np.arange(net.num_slots)
    delayed = net.active & (net.release_slots[:, None] + 2 <= slots)
    return [
        (HasteObjective(net).masked_view(net.release_slots <= boundary), boundary),
        (HasteObjective(net, active=delayed), boundary),
    ]


@pytest.mark.parametrize("config", [SimulationConfig.quick(), SimulationConfig()])
class TestWindowSetup:
    """The window's partitions and its compiled bindings, built in bulk."""

    def test_partitions_match_relevant_slots(self, config):
        from repro.online import distributed

        net = make_net(19, config)
        for objective, boundary in _window_objectives(net):
            slots = list(range(boundary, net.num_slots))
            participants, part_keys, by_slot = distributed._window_partitions(
                net, objective, slots
            )
            expected = [
                [
                    i for i in range(net.n)
                    if net.policy_count(i) > 1 and k in objective.relevant_slots(i)
                ]
                for k in slots
            ]
            assert [active for active, _groups in by_slot] == expected
            keys = [(i, k) for k, active in zip(slots, expected) for i in active]
            assert part_keys == keys
            assert [g for _active, groups in by_slot for g in groups] == list(
                range(len(keys))
            )
            assert participants == sorted({i for i, _k in keys})

    @needs_ckernel
    def test_blocks_equal_added_energy_cols(self, config):
        """Every participant's bound block row is ``added_energy_cols``'s
        bytes at every window slot; chargers outside the window get no
        binding."""
        from repro.online import distributed

        net = make_net(19, config)
        for objective, boundary in _window_objectives(net):
            slots = list(range(boundary, net.num_slots))
            participants, part_keys, _ = distributed._window_partitions(
                net, objective, slots
            )
            sampler = ColorSampler(part_keys, 4, 24, np.random.default_rng(0))
            views = objective.zero_energy((net.n, sampler.num_samples))
            window = distributed._slot_window(
                net, objective, slots, participants, sampler, views
            )
            bindings = window[4]
            assert participants
            for i in range(net.n):
                if i not in participants:
                    assert bindings[i] is None
                    continue
                blocks = bindings[i][5]
                assert blocks.flags.c_contiguous
                for q, k in enumerate(slots):
                    assert (
                        blocks[q].tobytes()
                        == objective.added_energy_cols(i, k).tobytes()
                    )


class TestStackedDrawScorer:
    """``values_of_selections`` equals ``value_of_schedule`` per candidate."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("last_slot", [False, True])
    def test_equals_value_of_schedule(self, seed, last_slot):
        net = make_net(seed)
        K = net.num_slots
        boundary = K - 1 if last_slot else int(np.median(net.release_slots)) + 1
        committed = (
            CentralizedScheduler(net).run(4, rng=np.random.default_rng(seed)).schedule
        )
        rng = np.random.default_rng(seed)
        counts = np.array([net.policy_count(i) for i in range(net.n)])
        sels = np.repeat(committed.sel[None], 5, axis=0)
        future = rng.integers(0, counts[None, :, None], size=(5, net.n, K - boundary))
        # Candidates differ in which slots are idle.
        future[rng.uniform(size=future.shape) < 0.4] = IDLE_POLICY
        sels[:, :, boundary:] = future
        busy = np.flatnonzero(counts > 1)
        # One charger idle in every candidate at a slot the others use, one
        # idle in every candidate over the whole future.
        sels[:, busy[0], boundary] = IDLE_POLICY
        sels[:, busy[1], boundary:] = IDLE_POLICY
        assert sels[:, busy[2:], boundary].any()
        assert len({(sel == IDLE_POLICY).tobytes() for sel in sels}) > 1
        known = net.release_slots < boundary
        for objective in (HasteObjective(net), HasteObjective(net).masked_view(known)):
            values = objective.values_of_selections(sels)
            assert len(values) == len(sels)
            for sel, value in zip(sels, values):
                candidate = committed.copy()
                candidate.sel[:] = sel
                assert value.hex() == objective.value_of_schedule(candidate).hex()
