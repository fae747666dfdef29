"""Tests for the serve-layer resilience stack (DESIGN.md §13).

Unit coverage for the primitives (deadline, cooperative sleep, retry
policy, circuit breaker, degradation ladder, process fault model) plus
fast engine/daemon integration: deadline and breaker trips answer
degraded-but-valid, crashes quarantine and restart workers, identical
retried requests never double-execute, and the client's typed failures
and retry loop behave.  The long mixed-fault soak lives in
``test_serve_chaos.py`` (``-m chaos``).
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.policy import Schedule
from repro.faults import (
    InjectedWorkerCrash,
    ProcessFaultModel,
    ReplayDivergence,
    ReplayProcessInjector,
    parse_process_faults,
)
from repro.serve import (
    BreakerOpen,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    EngineBusy,
    EngineClosed,
    RetryPolicy,
    ScheduleEngine,
    ServeClient,
    ServeProtocolError,
    ServeUnavailable,
    WorkerCrashed,
    cooperative_sleep,
    default_degradation_rungs,
    start_in_thread,
)
from repro.serve.resilience import CancelToken
from repro.sim.config import SimulationConfig
from repro.sim.engine import execute_schedule
from repro.solvers import Instance
from repro.solvers.prepared import PreparedCache, _env_capacity

QUICK = SimulationConfig.quick()


def _engine(**kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("supervision_interval_s", 0.02)
    return ScheduleEngine(**kwargs)


def _assert_valid(artifact, instance):
    """The artifact is a feasible schedule with finite utility.

    ``Schedule.from_matrix`` validates every selection against the
    network's policy lists; re-executing must reproduce the artifact's
    claimed utility.
    """
    net = instance.network()
    sched = Schedule.from_matrix(net, artifact.schedule_sel)
    ex = execute_schedule(net, sched, rho=instance.config.rho)
    assert np.isfinite(artifact.total_utility)
    assert abs(ex.total_utility - artifact.total_utility) < 1e-9


# ----------------------------------------------------------------------
# Deadline + cooperative sleep
# ----------------------------------------------------------------------
class TestDeadline:
    def test_budget_accounting_with_fake_clock(self):
        t = [100.0]
        d = Deadline(2.0, clock=lambda: t[0])
        assert d.remaining() == pytest.approx(2.0)
        assert not d.expired() and not d.in_reserve()
        t[0] += 1.9
        assert d.in_reserve()  # reserve = min(0.25*2, 0.25) = 0.25
        assert not d.expired()
        t[0] += 0.2
        assert d.expired()
        with pytest.raises(DeadlineExceeded, match="deadline"):
            d.check("unit")
        assert d.remaining() < 0

    def test_reserve_scales_down_for_tiny_budgets(self):
        d = Deadline(0.4, clock=lambda: 0.0)
        assert d.reserve_s == pytest.approx(0.1)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_budget_rejected(self, bad):
        with pytest.raises(ValueError, match="budget"):
            Deadline(bad)


class TestCooperativeSleep:
    def test_full_sleep_returns_true(self):
        start = time.monotonic()
        assert cooperative_sleep(0.05) is True
        assert time.monotonic() - start >= 0.05

    def test_cancel_interrupts(self):
        token = CancelToken()
        threading.Timer(0.03, token.cancel).start()
        start = time.monotonic()
        assert cooperative_sleep(5.0, token=token) is False
        assert time.monotonic() - start < 2.0

    def test_deadline_reserve_interrupts(self):
        deadline = Deadline(0.1)
        start = time.monotonic()
        assert cooperative_sleep(5.0, deadline=deadline) is False
        assert time.monotonic() - start < 2.0


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_seeded_delays_are_replayable_and_capped(self):
        policy = RetryPolicy(retries=6, base_s=0.05, max_s=0.4, seed=7)
        a, b = list(policy.delays()), list(policy.delays())
        assert a == b and len(a) == 6
        for attempt, delay in enumerate(a):
            assert 0.0 <= delay <= min(0.4, 0.05 * 2**attempt)

    def test_full_jitter_spreads_clients(self):
        delays = {
            tuple(RetryPolicy(retries=3, seed=s).delays()) for s in range(8)
        }
        assert len(delays) == 8  # eight clients, eight distinct schedules

    @pytest.mark.parametrize(
        "kwargs",
        [{"retries": -1}, {"base_s": 0.0}, {"base_s": 1.0, "max_s": 0.5}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def _breaker(self, clock, **kwargs):
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("reset_timeout_s", 10.0)
        return CircuitBreaker(clock=clock, **kwargs)

    def test_trips_after_consecutive_failures(self):
        t = [0.0]
        cb = self._breaker(lambda: t[0])
        for _ in range(2):
            cb.record_failure("spec-a")
        assert cb.state("spec-a") == "closed" and cb.allow("spec-a")
        cb.record_failure("spec-a")
        assert cb.state("spec-a") == "open"
        assert not cb.allow("spec-a")
        # Other keys are independent.
        assert cb.allow("spec-b")

    def test_success_resets_the_failure_streak(self):
        t = [0.0]
        cb = self._breaker(lambda: t[0])
        cb.record_failure("s")
        cb.record_failure("s")
        cb.record_success("s")
        cb.record_failure("s")
        cb.record_failure("s")
        assert cb.state("s") == "closed"

    def test_half_open_probe_then_close(self):
        t = [0.0]
        cb = self._breaker(lambda: t[0])
        for _ in range(3):
            cb.record_failure("s")
        t[0] += 10.1
        assert cb.allow("s")  # the single half-open probe
        assert cb.state("s") == "half-open"
        assert not cb.allow("s")  # second probe refused
        cb.record_success("s")
        assert cb.state("s") == "closed" and cb.allow("s")

    def test_half_open_probe_failure_reopens(self):
        t = [0.0]
        cb = self._breaker(lambda: t[0])
        for _ in range(3):
            cb.record_failure("s")
        t[0] += 10.1
        assert cb.allow("s")
        cb.record_failure("s")
        assert cb.state("s") == "open"
        t[0] += 5.0
        assert not cb.allow("s")  # timeout restarted at the re-open
        snap = cb.snapshot()
        assert snap["s"]["trips"] == 2


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
class TestDegradationLadder:
    def test_sharded_offline_strips_then_baselines(self):
        assert default_degradation_rungs("haste-offline:shards=4") == (
            "haste-offline:shards=4",
            "haste-offline",
            "greedy-utility",
        )

    def test_online_ladder_targets_online_baseline(self):
        rungs = default_degradation_rungs("online-haste:c=1,shards=2")
        assert rungs[0] == "online-haste:c=1,shards=2"
        assert rungs[-1] == "online-greedy-utility"
        assert "greedy-utility" not in rungs  # offline baseline never mixed in

    def test_baseline_has_no_fallbacks(self):
        assert default_degradation_rungs("greedy-utility") == ("greedy-utility",)

    def test_every_rung_is_registered(self):
        from repro.solvers import get_solver

        for spec in ("haste-offline:shards=2,halo=2.0", "online-haste"):
            for rung in default_degradation_rungs(spec):
                get_solver(rung)


# ----------------------------------------------------------------------
# Process fault model + injector
# ----------------------------------------------------------------------
class TestProcessFaultModel:
    def test_null_detection_and_roundtrip(self):
        model = ProcessFaultModel()
        assert model.is_null()
        loud = ProcessFaultModel(crash=0.1, slow=0.2, stall=0.05, seed=3)
        assert not loud.is_null()
        assert ProcessFaultModel.from_dict(loud.as_dict()) == loud

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash": 1.5},
            {"slow": -0.1},
            {"crash": 0.6, "slow": 0.3, "stall": 0.2},
            {"slow_s": -1.0},
            {"stall_s": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ProcessFaultModel(**kwargs)

    def test_parse_cli_string(self):
        model = parse_process_faults("crash=0.1, slow=0.2, slow_s=0.01, seed=7")
        assert model == ProcessFaultModel(crash=0.1, slow=0.2, slow_s=0.01, seed=7)
        assert parse_process_faults("").is_null()
        with pytest.raises(ValueError, match="known:"):
            parse_process_faults("bogus=1")
        with pytest.raises(ValueError, match="bad value"):
            parse_process_faults("crash=lots")

    def test_injector_is_deterministic_and_replayable(self):
        model = ProcessFaultModel(crash=0.2, slow=0.3, stall=0.1, seed=11)
        a, b = model.injector(), model.injector()
        queries = [("spec-a", f"{i:012x}cafe") for i in range(64)]
        decisions = [a.decide(s, h) for s, h in queries]
        assert decisions == [b.decide(s, h) for s, h in queries]
        assert a.stats()["trace_digest"] == b.stats()["trace_digest"]
        kinds = {d.kind for d in decisions}
        assert kinds >= {"crash", "slow", "none"}  # 64 draws hit the bands
        assert a.stats()["decisions"] == 64

        replay = ReplayProcessInjector(a.trace)
        assert [replay.decide(s, h) for s, h in queries] == decisions
        assert replay.exhausted()
        assert replay.stats()["trace_digest"] == a.stats()["trace_digest"]

    def test_replay_divergence_detected(self):
        model = ProcessFaultModel(slow=0.5, seed=1)
        inj = model.injector()
        inj.decide("spec-a", "a" * 16)
        replay = ReplayProcessInjector(inj.trace)
        with pytest.raises(ReplayDivergence, match="divergence"):
            replay.decide("spec-b", "a" * 16)
        replay2 = ReplayProcessInjector(inj.trace)
        replay2.decide("spec-a", "a" * 16)
        with pytest.raises(ReplayDivergence, match="exhausted"):
            replay2.decide("spec-a", "a" * 16)


# ----------------------------------------------------------------------
# PreparedCache capacity (REPRO_PREPARED_CACHE satellite)
# ----------------------------------------------------------------------
class TestPreparedCacheCapacity:
    def test_env_parsing(self):
        assert _env_capacity(environ={}) == 8
        assert _env_capacity(environ={"REPRO_PREPARED_CACHE": "32"}) == 32
        assert _env_capacity(environ={"REPRO_PREPARED_CACHE": "0"}) == 8
        assert _env_capacity(environ={"REPRO_PREPARED_CACHE": "nope"}) == 8

    def test_set_capacity_shrink_evicts_lru(self):
        cache = PreparedCache(capacity=4)
        instances = [Instance.sample(QUICK, 900 + i) for i in range(4)]
        for inst in instances:
            cache.get_or_prepare(inst)
        assert cache.info()["size"] == 4
        cache.set_capacity(2)
        assert cache.info()["size"] == 2
        assert cache.info()["evictions"] == 2
        # The two most recent survive.
        for inst in instances[2:]:
            _, warm = cache.get_or_prepare(inst)
            assert warm
        with pytest.raises(ValueError):
            cache.set_capacity(0)

    def test_engine_kwarg_scopes_private_cache(self):
        """The kwarg must not resize the process-global cache (a side
        effect that would outlive the engine and evict prepared state
        other components rely on) — the engine gets its own cache."""
        from repro.solvers.prepared import PREPARED_CACHE

        original = PREPARED_CACHE.capacity
        engine = _engine(prepared_cache_capacity=3)
        try:
            assert PREPARED_CACHE.capacity == original
            stats = engine.stats()["prepared_cache"]
            assert stats["capacity"] == 3
            assert stats["builds"] == 0
            engine.solve(
                "greedy-utility", Instance.sample(QUICK, 905), seed=0,
                timeout=30,
            )
            # The solve flowed through the engine's private cache.
            assert engine.stats()["prepared_cache"]["builds"] == 1
        finally:
            engine.close()
        assert PREPARED_CACHE.capacity == original

    def test_eviction_pressure_still_correct(self):
        """Capacity 1 under alternating instances: every request reprepares,
        but results stay identical to a warm cache."""
        from repro.solvers import solve_instance

        cache = PreparedCache(capacity=1)
        a, b = Instance.sample(QUICK, 910), Instance.sample(QUICK, 911)
        direct = {
            inst.content_hash(): solve_instance(
                "greedy-utility", inst, seed=0
            ).content_hash()
            for inst in (a, b)
        }
        from repro.solvers import get_solver

        solver = get_solver("greedy-utility")
        for _ in range(3):
            for inst in (a, b):
                prepared, warm = cache.get_or_prepare(inst)
                assert not warm  # capacity 1 + alternation = always cold
                art = solver.solve_prepared(
                    prepared, np.random.default_rng(0), inst.config
                )
                assert art.content_hash() == direct[inst.content_hash()]
        assert cache.info()["evictions"] >= 5


# ----------------------------------------------------------------------
# Engine resilience integration
# ----------------------------------------------------------------------
class TestEngineDegradation:
    def test_stall_past_deadline_degrades(self):
        model = ProcessFaultModel(stall=1.0, stall_s=30.0, seed=0)
        engine = _engine(fault_model=model)
        try:
            inst = Instance.sample(QUICK, 920)
            start = time.monotonic()
            result = engine.solve(
                "haste-offline", inst, seed=0, deadline_s=0.6, timeout=30
            )
            assert time.monotonic() - start < 5.0  # no 30 s hang
            assert result.degraded
            assert result.degraded_from == "haste-offline"
            assert result.degrade_reason == "deadline"
            assert result.spec == "greedy-utility"
            meta = result.artifact.meta["degraded"]
            assert meta["from"] == "haste-offline"
            assert meta["to"] == "greedy-utility"
            assert meta["utility"] == pytest.approx(
                float(result.artifact.total_utility)
            )
            _assert_valid(result.artifact, inst)
            stats = engine.stats()
            assert stats["degraded"] == 1
            assert stats["deadline_expired"] >= 1
        finally:
            engine.close()

    def test_deadline_without_degradation_raises(self):
        model = ProcessFaultModel(stall=1.0, stall_s=30.0, seed=0)
        engine = _engine(fault_model=model, degradation=False)
        try:
            with pytest.raises(DeadlineExceeded):
                engine.solve(
                    "haste-offline",
                    Instance.sample(QUICK, 921),
                    seed=0,
                    deadline_s=0.4,
                    timeout=30,
                )
        finally:
            engine.close()

    def test_open_breaker_short_circuits_to_ladder(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=60.0)
        engine = _engine(breaker=breaker)
        try:
            breaker.record_failure("haste-offline")
            assert breaker.state("haste-offline") == "open"
            result = engine.solve(
                "haste-offline", Instance.sample(QUICK, 922), seed=0, timeout=30
            )
            assert result.degraded and result.degrade_reason == "breaker"
            assert result.spec == "greedy-utility"
            # The healthy rung's breaker entry recorded the success.
            assert breaker.state("greedy-utility") == "closed"
        finally:
            engine.close()

    def test_open_breaker_without_degradation_refuses(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=60.0)
        engine = _engine(breaker=breaker, degradation=False)
        try:
            breaker.record_failure("haste-offline")
            with pytest.raises(BreakerOpen):
                engine.solve(
                    "haste-offline",
                    Instance.sample(QUICK, 923),
                    seed=0,
                    timeout=30,
                )
        finally:
            engine.close()

    def test_degraded_results_never_enter_the_result_cache(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=0.01)
        engine = _engine(breaker=breaker)
        try:
            inst = Instance.sample(QUICK, 924)
            breaker.record_failure("haste-offline")
            degraded = engine.solve("haste-offline", inst, seed=0, timeout=30)
            assert degraded.degraded
            time.sleep(0.05)  # breaker timeout elapses → half-open probe
            healthy = engine.solve("haste-offline", inst, seed=0, timeout=30)
            assert not healthy.degraded and not healthy.cached
            assert healthy.spec == "haste-offline"
        finally:
            engine.close()


class TestWorkerSupervision:
    def test_crash_restarts_worker_and_quarantines(self):
        model = ProcessFaultModel(crash=1.0, seed=0)
        engine = _engine(fault_model=model)
        try:
            inst = Instance.sample(QUICK, 930)
            result = engine.solve(
                "haste-offline", inst, seed=0, deadline_s=30, timeout=30
            )
            # The poisoning request still gets a valid degraded answer.
            assert result.degraded and result.degrade_reason == "crash"
            _assert_valid(result.artifact, inst)

            # An exact repeat skips the primary via quarantine — the
            # injector (crash=1.0) is never consulted again for it.
            repeat = engine.solve(
                "haste-offline", inst, seed=0, deadline_s=30, timeout=30
            )
            assert repeat.degraded and repeat.degrade_reason == "quarantine"

            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if engine.stats()["worker_restarts"] >= 1:
                    break
                time.sleep(0.02)
            stats = engine.stats()
            assert stats["worker_crashes"] == 1
            assert stats["worker_restarts"] >= 1
            assert stats["workers_alive"] == stats["workers"]
            assert stats["quarantined"] == 1

            # The restarted pool still serves fresh work: a new request
            # crashes its primary again (crash=1.0), but the ladder
            # answers from online-greedy-utility on a live worker.
            fresh = engine.solve(
                "online-haste", Instance.sample(QUICK, 931), seed=0,
                deadline_s=30, timeout=30,
            )
            assert fresh.degraded and fresh.degrade_reason == "crash"
            assert fresh.spec == "online-greedy-utility"
        finally:
            engine.close()

    def test_crashed_worker_is_replaced_exactly_once(self, monkeypatch):
        """The dying worker and the supervisor both replace dead workers;
        a replacement that is in the pool but not yet started must not
        look dead to the supervisor, or a second, untracked worker starts
        that ``close()`` never stops."""
        import repro.serve.engine as engine_module

        class SlowStart(threading.Thread):
            def start(self):
                time.sleep(0.1)  # ten supervisor ticks
                super().start()

        monkeypatch.setattr(engine_module.threading, "Thread", SlowStart)
        model = ProcessFaultModel(crash=1.0, seed=0)
        engine = _engine(fault_model=model, supervision_interval_s=0.01)
        try:
            result = engine.solve(
                "haste-offline", Instance.sample(QUICK, 933), seed=0,
                timeout=30,
            )
            assert result.degraded and result.degrade_reason == "crash"
            time.sleep(0.3)
            stats = engine.stats()
            assert stats["worker_crashes"] == 1
            assert stats["worker_restarts"] == 1
            assert stats["workers_alive"] == stats["workers"] == 1
        finally:
            engine.close()

    def test_crash_without_degradation_raises_worker_crashed(self):
        model = ProcessFaultModel(crash=1.0, seed=0)
        engine = _engine(fault_model=model, degradation=False)
        try:
            with pytest.raises(WorkerCrashed):
                engine.solve(
                    "haste-offline",
                    Instance.sample(QUICK, 932),
                    seed=0,
                    timeout=30,
                )
        finally:
            engine.close()

    def test_injected_crash_is_base_exception(self):
        assert issubclass(InjectedWorkerCrash, BaseException)
        assert not issubclass(InjectedWorkerCrash, Exception)


class TestSingleFlightDedup:
    def test_concurrent_identical_requests_collapse(self):
        model = ProcessFaultModel(slow=1.0, slow_s=0.4, seed=0)
        engine = ScheduleEngine(
            workers=2, fault_model=model, supervision_interval_s=0.02
        )
        try:
            inst = Instance.sample(QUICK, 940)
            first = engine.submit("greedy-utility", inst, seed=5)
            time.sleep(0.1)  # let the leader register and start its slowdown
            second = engine.submit("greedy-utility", inst, seed=5)
            a, b = first.result(timeout=30), second.result(timeout=30)
            assert a.artifact.content_hash() == b.artifact.content_hash()
            assert b.deduped and b.cached
            stats = engine.stats()
            assert stats["solves"] == 1  # never double-executed
            assert stats["inflight_dedup"] == 1
        finally:
            engine.close()

    def test_identical_requests_execute_once_per_key_under_contention(self):
        """More workers than cores and a tiny switch interval: every
        idempotency key executes exactly once, whether a copy is grouped,
        follows its leader or hits the result cache, and no follower
        waits out its bound because two workers wait on each other."""
        instances = [Instance.sample(QUICK, 990 + j) for j in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ScheduleEngine(workers=4, queue_limit=64) as engine:
                futs = [
                    (j, engine.submit("greedy-cover", instances[j], seed=1))
                    for _ in range(8)
                    for j in range(3)
                ]
                results = [(j, f.result(timeout=60)) for j, f in futs]
                stats = engine.stats()
        finally:
            sys.setswitchinterval(interval)
        for j in range(3):
            assert len({
                r.artifact.content_hash() for k, r in results if k == j
            }) == 1
        assert stats["solves"] == 3
        assert stats["degraded"] == 0
        assert stats["errors"] == 0
        assert stats["completed"] == len(futs)


class TestStuckLeader:
    """A non-cooperating leader must never pin other requests with it.

    The leader below stalls 30 s with *no deadline and no cancellation*
    — the engine-level stand-in for a worker wedged in non-cooperative
    code.  Watchdog resubmissions and dedup followers both have to get
    out from behind it (REVIEW: single-flight dedup defeating
    ``skip_primary``; unbounded ``_await_leader`` waits)."""

    def _stuck_leader(self):
        model = ProcessFaultModel(stall=1.0, stall_s=30.0, seed=0)
        engine = ScheduleEngine(
            workers=2, fault_model=model, supervision_interval_s=0.02
        )
        inst = Instance.sample(QUICK, 945)
        leader = engine.submit("haste-offline", inst, seed=5)
        time.sleep(0.2)  # leader registers in-flight, starts its stall
        return engine, inst, leader

    def test_skip_primary_bypasses_dedup_behind_stuck_leader(self):
        """The daemon's watchdog retry shares the stuck request's
        idempotency key; it must degrade, not follow the wedged leader."""
        engine, inst, leader = self._stuck_leader()
        try:
            retry = engine.submit(
                "haste-offline", inst, seed=5,
                skip_primary=True, degrade_reason="watchdog",
            )
            res = retry.result(timeout=10)
            assert res.degraded and res.degrade_reason == "watchdog"
            assert not res.deduped
            _assert_valid(res.artifact, inst)
            assert engine.stats()["inflight_dedup"] == 0
        finally:
            leader.cancel_token.cancel()  # wake the stall for teardown
            engine.close()

    def test_follower_with_deadline_degrades_behind_stuck_leader(self):
        engine, inst, leader = self._stuck_leader()
        try:
            follower = engine.submit(
                "haste-offline", inst, seed=5, deadline_s=1.0
            )
            res = follower.result(timeout=10)
            assert res.degraded and res.degrade_reason == "deadline"
            _assert_valid(res.artifact, inst)
            assert engine.stats()["inflight_dedup"] == 1
        finally:
            leader.cancel_token.cancel()
            engine.close()

    def test_deadline_less_follower_unblocks_on_cancel(self):
        """A cancelled follower with no deadline must not wait on the
        leader forever (the worker-pool-depletion failure mode)."""
        engine, inst, leader = self._stuck_leader()
        try:
            follower = engine.submit("haste-offline", inst, seed=5)
            time.sleep(0.3)  # follower is polling the wedged leader
            follower.cancel_token.cancel()
            res = follower.result(timeout=10)
            assert res.degraded and res.degrade_reason == "watchdog"
            _assert_valid(res.artifact, inst)
        finally:
            leader.cancel_token.cancel()
            engine.close()


class TestEngineDrain:
    def test_drain_finishes_inflight_then_refuses(self):
        model = ProcessFaultModel(slow=1.0, slow_s=0.3, seed=0)
        engine = _engine(fault_model=model)
        try:
            fut = engine.submit(
                "greedy-utility", Instance.sample(QUICK, 950), seed=0
            )
            time.sleep(0.05)
            assert engine.drain(timeout_s=30) is True
            assert fut.done() and not fut.exception()
            with pytest.raises(EngineClosed, match="draining"):
                engine.submit(
                    "greedy-utility", Instance.sample(QUICK, 951), seed=0
                )
        finally:
            engine.close()


# ----------------------------------------------------------------------
# Client failure taxonomy + retries
# ----------------------------------------------------------------------
class TestClientResilience:
    def test_unreachable_daemon_raises_typed_connection_error(self):
        client = ServeClient(port=1, timeout=0.5)  # nothing listens on :1
        with pytest.raises(ServeUnavailable):
            client.solve(sample={"scale": "quick", "seed": 0})
        assert issubclass(ServeUnavailable, ConnectionError)
        assert issubclass(ServeUnavailable, OSError)
        assert issubclass(ServeProtocolError, RuntimeError)

    def test_retries_recover_from_transient_503(self):
        engine = ScheduleEngine(workers=1, queue_limit=8)
        handle = start_in_thread(engine)
        try:
            client = ServeClient(port=handle.port)
            client.wait_ready()
            original = engine.submit
            failures = [2]

            def flaky_submit(*args, **kwargs):
                if failures[0] > 0:
                    failures[0] -= 1
                    raise EngineBusy("synthetic backpressure")
                return original(*args, **kwargs)

            engine.submit = flaky_submit
            try:
                slept = []
                status, reply = client.solve_with_retries(
                    spec="greedy-utility",
                    sample={"scale": "quick", "seed": 3},
                    seed=3,
                    policy=RetryPolicy(retries=4, base_s=0.01, seed=1),
                    sleep=slept.append,
                )
            finally:
                engine.submit = original
            assert status == 200, reply
            assert len(slept) == 2  # exactly the two 503s were retried
        finally:
            handle.stop()
            engine.close()

    def test_retries_exhausted_returns_last_status(self):
        engine = ScheduleEngine(workers=1, queue_limit=8)
        handle = start_in_thread(engine)
        try:
            client = ServeClient(port=handle.port)
            client.wait_ready()
            original = engine.submit

            def always_busy(*args, **kwargs):
                raise EngineBusy("synthetic backpressure")

            engine.submit = always_busy
            try:
                status, reply = client.solve_with_retries(
                    sample={"scale": "quick", "seed": 0},
                    policy=RetryPolicy(retries=2, base_s=0.01, seed=0),
                    sleep=lambda s: None,
                )
            finally:
                engine.submit = original
            assert status == 503
        finally:
            handle.stop()
            engine.close()


class TestBackpressureConvergence:
    def test_retrying_clients_converge_without_double_execution(self):
        """The EngineBusy satellite: a herd of retrying clients hammering a
        1-deep queue all converge to 200, and the identical seeded request
        is executed exactly once (idempotency key + single-flight)."""
        engine = ScheduleEngine(workers=1, queue_limit=1)
        handle = start_in_thread(engine)
        try:
            client = ServeClient(port=handle.port)
            client.wait_ready()
            inst = Instance.sample(QUICK, 960)
            outcomes: list[tuple[int, dict]] = []
            lock = threading.Lock()

            def hammer(k: int) -> None:
                status, reply = client.solve_with_retries(
                    spec="haste-offline",
                    instance=inst,
                    seed=4,
                    policy=RetryPolicy(retries=8, base_s=0.02, seed=k),
                )
                with lock:
                    outcomes.append((status, reply))

            threads = [
                threading.Thread(target=hammer, args=(k,)) for k in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert len(outcomes) == 6
            hashes = {reply["artifact_hash"] for status, reply in outcomes}
            assert all(status == 200 for status, _ in outcomes)
            assert len(hashes) == 1  # every client got the same artifact
            assert engine.stats()["solves"] == 1  # executed exactly once
        finally:
            handle.stop()
            engine.close()


# ----------------------------------------------------------------------
# Protocol + daemon resilience surface
# ----------------------------------------------------------------------
class TestProtocolDeadlines:
    def test_deadline_and_degrade_fields_parse(self):
        from repro.serve import parse_solve_request

        req = parse_solve_request(
            {
                "sample": {"scale": "quick", "seed": 0},
                "deadline_s": 2.5,
                "degrade": False,
            },
            default_spec="haste-offline",
        )
        assert req.deadline_s == pytest.approx(2.5)
        assert req.degrade is False
        default = parse_solve_request(
            {"sample": {"scale": "quick", "seed": 0}},
            default_spec="haste-offline",
        )
        assert default.deadline_s is None and default.degrade is True

    @pytest.mark.parametrize(
        "payload",
        [
            {"deadline_s": 0},
            {"deadline_s": -1.0},
            {"deadline_s": True},
            {"deadline_s": "fast"},
            {"degrade": "yes"},
        ],
    )
    def test_bad_resilience_fields_are_400s(self, payload):
        from repro.serve import ProtocolError, parse_solve_request

        body = {"sample": {"scale": "quick", "seed": 0}, **payload}
        with pytest.raises(ProtocolError):
            parse_solve_request(body, default_spec="haste-offline")

    def test_degraded_keys_absent_on_healthy_responses(self):
        from repro.serve import solve_response

        engine = ScheduleEngine(workers=1)
        try:
            result = engine.solve(
                "greedy-utility", Instance.sample(QUICK, 970), seed=0,
                timeout=30,
            )
            body = solve_response(result)
            assert "degraded" not in body
            assert "degrade_reason" not in body
        finally:
            engine.close()


class TestDaemonDrainMode:
    def test_drain_mode_refuses_new_solves(self):
        engine = ScheduleEngine(workers=1)
        handle = start_in_thread(engine)
        try:
            client = ServeClient(port=handle.port)
            assert client.wait_ready()["status"] == "ok"
            handle.daemon.begin_drain()
            assert client.healthz()["status"] == "draining"
            status, reply = client.solve(
                sample={"scale": "quick", "seed": 0}
            )
            assert status == 503
            assert "draining" in reply["error"]
        finally:
            handle.stop()
            engine.close()

    def test_stall_through_daemon_answers_degraded_200(self):
        """End to end over HTTP: a 30 s stall against a 0.6 s budget is
        interrupted cooperatively and answered 200-degraded with the
        degradation keys on the wire."""
        model = ProcessFaultModel(stall=1.0, stall_s=30.0, seed=0)
        engine = ScheduleEngine(
            workers=1, fault_model=model, supervision_interval_s=0.02
        )
        handle = start_in_thread(engine)
        try:
            client = ServeClient(port=handle.port)
            client.wait_ready()
            start = time.monotonic()
            status, reply = client.solve(
                spec="haste-offline",
                sample={"scale": "quick", "seed": 1},
                seed=1,
                deadline_s=0.6,
            )
            assert time.monotonic() - start < 10.0
            assert status == 200, reply
            assert reply["degraded"] is True
            assert reply["degraded_from"] == "haste-offline"
            assert reply["degrade_reason"] == "deadline"
            assert reply["spec"] == "greedy-utility"
        finally:
            handle.stop()
            engine.close()
