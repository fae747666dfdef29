"""Tests for the serving subsystem: engine, daemon, protocol, client.

The acceptance bar: every registered spec served through the daemon
returns an artifact **bit-identical** to a direct ``solve_instance``
call on the same instance and seed — the HTTP hop, the worker pool, and
the warm prepared state must all be invisible in the results.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from concurrent.futures import Future

import pytest

from repro.serve import (
    CircuitBreaker,
    DeadlineExceeded,
    EngineBusy,
    EngineClosed,
    ProtocolError,
    RequestQuarantined,
    ScheduleEngine,
    ServeClient,
    ServeResult,
    parse_solve_request,
    start_in_thread,
)
from repro.sim.config import SimulationConfig
from repro.solvers import Instance, RunArtifact, solve_instance, solver_names

QUICK = SimulationConfig.quick()
SEEDS = (0, 1, 2)

#: Parameterized variants that must be servable beyond the bare names:
#: a non-default utility, a sharded solve, and a fault-injected one.
EXTRA_SPECS = (
    "haste-offline:c=2,utility=log",
    "online-haste:c=1,shards=2",
    "online-haste:fault_seed=5,loss=0.2",
)


@pytest.fixture(scope="module")
def served():
    """One daemon (own event-loop thread) shared by the module's tests."""
    engine = ScheduleEngine(workers=2, queue_limit=32)
    handle = start_in_thread(engine)
    client = ServeClient(port=handle.port)
    client.wait_ready()
    yield engine, client
    handle.stop()
    engine.close()


def _raw_request(client: ServeClient, method: str, path: str, body=None):
    """An HTTP round trip bypassing the client's JSON encoding."""
    conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


class TestDaemonBitIdentity:
    @pytest.mark.parametrize("spec", sorted(solver_names()) + list(EXTRA_SPECS))
    def test_served_artifact_matches_direct_solve(self, served, spec):
        _engine, client = served
        for seed in SEEDS:
            inst = Instance.sample(QUICK, 400 + seed)
            direct = solve_instance(spec, inst, seed=seed)
            status, reply = client.solve(spec=spec, instance=inst, seed=seed)
            assert status == 200, reply
            assert reply["artifact_hash"] == direct.content_hash()
            assert reply["spec"] == direct.solver
            assert reply["seed"] == seed
            assert reply["instance_hash"] == inst.content_hash()
            # The shipped artifact decodes back to the same content.
            decoded = RunArtifact.from_dict(reply["artifact"])
            assert decoded.content_hash() == direct.content_hash()

    def test_sample_form_matches_local_sample(self, served):
        _engine, client = served
        inst = Instance.sample(QUICK, 7)
        direct = solve_instance("greedy-utility", inst, seed=3)
        status, reply = client.solve(
            spec="greedy-utility", sample={"scale": "quick", "seed": 7}, seed=3
        )
        assert status == 200, reply
        assert reply["artifact_hash"] == direct.content_hash()

    def test_fault_meta_survives_the_wire(self, served):
        _engine, client = served
        status, reply = client.solve(
            spec="online-haste:fault_seed=5,loss=0.2",
            sample={"scale": "quick", "seed": 7},
            seed=1,
        )
        assert status == 200, reply
        art = RunArtifact.from_dict(reply["artifact"])
        assert art.meta.get("faults"), "fault telemetry missing from meta"

    def test_repeat_request_is_result_cache_hit(self, served):
        _engine, client = served
        payload = dict(
            spec="haste-offline:c=2", sample={"scale": "quick", "seed": 9},
            seed=5,
        )
        status, first = client.solve(**payload)
        status2, second = client.solve(**payload)
        assert status == status2 == 200
        assert second["cached"] and second["warm"]
        assert second["artifact_hash"] == first["artifact_hash"]
        assert second["solve_s"] == 0.0


class TestDaemonRoutesAndErrors:
    def test_healthz_and_solvers(self, served):
        _engine, client = served
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["kernel"] in ("compiled", "numpy")
        solvers = client.solvers()
        assert set(solvers) == set(solver_names())
        assert "summary" in solvers["haste-offline"]

    def test_stats_shape(self, served):
        _engine, client = served
        stats = client.stats()
        for key in ("requests", "completed", "errors", "rejected",
                    "queue_depth", "queue_limit", "workers",
                    "result_cache", "prepared_cache", "latency"):
            assert key in stats, key
        assert stats["result_cache"]["capacity"] > 0
        assert stats["prepared_cache"]["capacity"] > 0

    def test_unknown_route_404(self, served):
        _engine, client = served
        assert client.get("/nope")[0] == 404
        assert client.post("/nope", {})[0] == 404

    def test_wrong_method_405(self, served):
        _engine, client = served
        status, _ = _raw_request(client, "PUT", "/healthz")
        assert status == 405

    def test_invalid_json_body_400(self, served):
        _engine, client = served
        status, payload = _raw_request(client, "POST", "/solve", b"{not json")
        assert status == 400
        assert "invalid JSON" in payload["error"]

    @pytest.mark.parametrize("value", ["abc", "-5", "1.5"])
    def test_malformed_content_length_400(self, served, value):
        """A bad Content-Length must answer 400, not drop the connection
        with an unhandled ValueError."""
        _engine, client = served
        with socket.create_connection(
            (client.host, client.port), timeout=30
        ) as conn:
            conn.sendall(
                f"POST /solve HTTP/1.1\r\n"
                f"Content-Length: {value}\r\n\r\n".encode()
            )
            data = b""
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                data += chunk
        assert data.split(b"\r\n", 1)[0].split()[1] == b"400"
        assert b"invalid Content-Length" in data

    @pytest.mark.parametrize(
        "body",
        [
            {},  # neither instance nor sample
            {"sample": {"scale": "quick"}, "instance": {}},  # both
            {"sample": {"scale": "galactic"}},  # unknown scale
            {"sample": {"scale": "quick", "seed": "x"}},  # bad seed type
            {"spec": 7, "sample": {"scale": "quick"}},  # bad spec type
            {"instance": {"format": "nope"}},  # malformed instance
        ],
    )
    def test_protocol_errors_400(self, served, body):
        _engine, client = served
        status, payload = client.post("/solve", body)
        assert status == 400, payload
        assert "error" in payload

    def test_unknown_solver_400(self, served):
        _engine, client = served
        status, payload = client.solve(
            spec="bogus-solver", sample={"scale": "quick", "seed": 1}
        )
        assert status == 400
        assert "bogus-solver" in payload["error"]

    def test_queue_full_503(self):
        engine = ScheduleEngine(workers=1, queue_limit=1)
        try:
            with start_in_thread(engine) as handle:
                client = ServeClient(port=handle.port)
                client.wait_ready()
                engine.submit = _raise_busy  # saturate deterministically
                status, payload = client.solve(
                    sample={"scale": "quick", "seed": 1}
                )
                assert status == 503
                assert "full" in payload["error"]
        finally:
            engine.close()


def _raise_busy(*args, **kwargs):
    raise EngineBusy("request queue is full (1 pending)")


class _BlockingInstance:
    """Delegates to a real instance but stalls ``content_hash`` on a gate
    (pins a worker so queue backpressure can be tested deterministically)."""

    def __init__(self, inner, gate):
        self._inner = inner
        self._gate = gate

    def content_hash(self):
        self._gate.wait(timeout=30)
        return self._inner.content_hash()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestEngine:
    def test_backpressure_raises_engine_busy(self):
        inst = Instance.sample(QUICK, 13)
        gate = threading.Event()
        engine = ScheduleEngine(workers=1, queue_limit=1)
        try:
            stalled = engine.submit(
                "greedy-utility", _BlockingInstance(inst, gate), seed=1
            )
            # Wait for the single worker to pick the stalled job up.
            deadline = threading.Event()
            for _ in range(200):
                if engine._queue.qsize() == 0:
                    break
                deadline.wait(0.01)
            queued = engine.submit("greedy-utility", inst, seed=2)
            with pytest.raises(EngineBusy):
                engine.submit("greedy-utility", inst, seed=3)
            assert engine.rejected == 1
            gate.set()
            assert stalled.result(timeout=30).artifact is not None
            assert queued.result(timeout=30).artifact is not None
        finally:
            gate.set()
            engine.close()

    def test_closed_engine_rejects(self):
        engine = ScheduleEngine(workers=1)
        engine.close()
        with pytest.raises(EngineClosed):
            engine.submit("greedy-utility", Instance.sample(QUICK, 1))

    def test_result_cache_keyed_by_hash_spec_seed(self):
        inst = Instance.sample(QUICK, 19)
        with ScheduleEngine(workers=1) as engine:
            a = engine.solve("greedy-utility", inst, seed=1)
            b = engine.solve("greedy-utility", inst, seed=1)
            assert not a.cached and b.cached
            assert b.artifact.content_hash() == a.artifact.content_hash()
            c = engine.solve("greedy-utility", inst, seed=2)
            assert not c.cached  # different seed, different key
            d = engine.solve("greedy-cover", inst, seed=1)
            assert not d.cached  # different spec, different key
            stats = engine.stats()
            assert stats["result_cache"]["hits"] == 1
            assert stats["result_cache"]["misses"] == 3

    def test_each_request_hashed_once(self, monkeypatch):
        instances = [Instance.sample(QUICK, 60 + j) for j in range(3)]
        hashed = []
        content_hash = Instance.content_hash

        def counting(inst):
            hashed.append(inst)
            return content_hash(inst)

        monkeypatch.setattr(Instance, "content_hash", counting)
        with ScheduleEngine(workers=1, coalesce_max=4) as engine:
            futs = [engine.submit("greedy-utility", inst, seed=1) for inst in instances]
            results = [f.result(timeout=60) for f in futs]
        assert all(not r.cached for r in results)
        assert len(hashed) == len(instances)

    def test_seedless_solves_never_cached(self):
        inst = Instance.from_network(Instance.sample(QUICK, 19).network(), config=QUICK)
        assert inst.seed is None
        with ScheduleEngine(workers=1) as engine:
            a = engine.solve("greedy-utility", inst)
            b = engine.solve("greedy-utility", inst)
            assert a.seed is None and not a.cached and not b.cached

    def test_use_result_cache_false_always_solves(self):
        inst = Instance.sample(QUICK, 19)
        with ScheduleEngine(workers=1) as engine:
            a = engine.solve("greedy-utility", inst, seed=1,
                             use_result_cache=False)
            b = engine.solve("greedy-utility", inst, seed=1,
                             use_result_cache=False)
            assert not a.cached and not b.cached
            assert b.artifact.content_hash() == a.artifact.content_hash()
            assert b.warm  # prepared state still shared


class TestProtocol:
    def test_default_spec_applied(self):
        req = parse_solve_request(
            {"sample": {"scale": "quick", "seed": 2}},
            default_spec="haste-offline",
        )
        assert req.spec == "haste-offline"
        assert req.seed is None

    def test_seed_bool_rejected(self):
        with pytest.raises(ProtocolError, match="seed"):
            parse_solve_request(
                {"seed": True, "sample": {"scale": "quick"}},
                default_spec="haste-offline",
            )

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_solve_request([1, 2], default_spec="haste-offline")


class TestTrafficEnginePath:
    def test_drive_stream_through_engine_bit_identical(self):
        from repro.traffic import TrafficModel, drive_stream

        model = TrafficModel(process="poisson", rate=1.5, seed=3)
        stream = model.stream(QUICK)
        direct = drive_stream(stream, "online-haste", telemetry=False)
        with ScheduleEngine(workers=1) as engine:
            served = drive_stream(
                stream, "online-haste", telemetry=False, engine=engine
            )
            again = drive_stream(
                stream, "online-haste", telemetry=False, engine=engine
            )
            stats = engine.stats()
        assert (served.artifact.content_hash()
                == direct.artifact.content_hash())
        assert (again.artifact.content_hash()
                == direct.artifact.content_hash())
        # The drive bypasses the result cache (it measures the solve)…
        assert stats["result_cache"]["hits"] == 0
        # …but the prepared state is shared across drives.
        assert stats["completed"] == 2

    def test_run_traffic_report_matches_engine_path(self):
        from repro.traffic import TrafficModel, run_traffic

        model = TrafficModel(process="poisson", rate=1.5, seed=5)
        direct = run_traffic(model, QUICK, loads=(1.0,), telemetry=False)
        with ScheduleEngine(workers=1) as engine:
            served = run_traffic(
                model, QUICK, loads=(1.0,), telemetry=False, engine=engine
            )
        for key in ("utility", "events", "digest", "arrivals"):
            assert served.points[0][key] == direct.points[0][key], key


class TestCoalescing:
    """Micro-batch coalescing (PR 10): invisible in the artifacts.

    The single-worker engine makes the scenario deterministic: a gated
    ``static`` request pins the worker while same-spec requests pile up
    in the queue; releasing the gate lets the worker dequeue the first
    one as leader and drain the rest into one batched solve.
    """

    @staticmethod
    def _pile_up(engine, gate, blocker, submit):
        """Pin the single worker, queue followers, release, collect."""
        stall = engine.submit(
            "static", _BlockingInstance(blocker, gate), seed=1
        )
        for _ in range(200):  # wait for the worker to pick the stall up
            if engine._queue.qsize() == 0:
                break
            threading.Event().wait(0.01)
        futs = submit()
        gate.set()
        return stall, [f.result(timeout=60) for f in futs]

    def test_coalesced_bit_identical_to_direct_solve(self):
        instances = [Instance.sample(QUICK, 900 + j) for j in range(4)]
        direct = [
            solve_instance("greedy-utility", inst, seed=5).content_hash()
            for inst in instances
        ]
        gate = threading.Event()
        engine = ScheduleEngine(workers=1, queue_limit=32, coalesce_max=4)
        try:
            stall, results = self._pile_up(
                engine, gate, Instance.sample(QUICK, 890),
                lambda: [
                    engine.submit("greedy-utility", inst, seed=5)
                    for inst in instances
                ],
            )
            assert stall.result(timeout=60).artifact is not None
        finally:
            gate.set()
            engine.close()
        assert [r.artifact.content_hash() for r in results] == direct
        assert sum(r.coalesced for r in results) >= 2
        assert all(not r.cached and not r.degraded for r in results)
        stats = engine.stats()
        assert stats["coalesced_batches"] >= 1
        assert stats["coalesced_requests"] >= 2
        assert stats["errors"] == 0

    def test_coalesce_max_zero_disables(self):
        instances = [Instance.sample(QUICK, 910 + j) for j in range(3)]
        gate = threading.Event()
        engine = ScheduleEngine(workers=1, queue_limit=32, coalesce_max=0)
        try:
            _stall, results = self._pile_up(
                engine, gate, Instance.sample(QUICK, 891),
                lambda: [
                    engine.submit("greedy-utility", inst, seed=5)
                    for inst in instances
                ],
            )
        finally:
            gate.set()
            engine.close()
        assert all(not r.coalesced for r in results)
        assert engine.stats()["coalesced_batches"] == 0

    def test_single_flight_dedup_preserved_in_batch(self):
        inst = Instance.sample(QUICK, 920)
        other = Instance.sample(QUICK, 921)
        gate = threading.Event()
        engine = ScheduleEngine(workers=1, queue_limit=32, coalesce_max=4)
        try:
            _stall, results = self._pile_up(
                engine, gate, Instance.sample(QUICK, 892),
                lambda: [
                    engine.submit("greedy-utility", inst, seed=7),
                    engine.submit("greedy-utility", inst, seed=7),
                    engine.submit("greedy-utility", other, seed=7),
                ],
            )
        finally:
            gate.set()
            engine.close()
        first, dup, distinct = results
        assert dup.deduped and dup.artifact.content_hash() == \
            first.artifact.content_hash()
        assert not first.deduped and not distinct.deduped
        stats = engine.stats()
        assert stats["inflight_dedup"] == 1
        # The duplicate never solved: one batch covered the two keys.
        assert stats["coalesced_requests"] == 2

    def test_degraded_resubmission_never_coalesces(self):
        instances = [Instance.sample(QUICK, 930 + j) for j in range(2)]
        resub = Instance.sample(QUICK, 935)
        gate = threading.Event()
        engine = ScheduleEngine(workers=1, queue_limit=32, coalesce_max=4)
        try:
            _stall, results = self._pile_up(
                engine, gate, Instance.sample(QUICK, 893),
                lambda: [
                    engine.submit("greedy-utility", instances[0], seed=3),
                    engine.submit(
                        "haste-offline", resub, seed=3, skip_primary=True,
                        degrade_reason="watchdog",
                    ),
                    engine.submit("greedy-utility", instances[1], seed=3),
                ],
            )
        finally:
            gate.set()
            engine.close()
        leader, resubbed, follower = results
        # The resubmission degraded on its own path, never batched…
        assert resubbed.degraded and not resubbed.coalesced
        assert resubbed.degrade_reason == "watchdog"
        assert resubbed.degraded_from == "haste-offline"
        assert resubbed.spec == "greedy-utility"
        # …while the requests around it coalesced normally.
        assert leader.coalesced and follower.coalesced
        assert not leader.degraded and not follower.degraded

    def test_float32_results_never_answer_float64_requests(self):
        import numpy as np

        inst = Instance.sample(QUICK, 940)
        with ScheduleEngine(workers=1) as engine:
            f32 = engine.solve(
                "greedy-utility", inst, seed=1, dtype=np.float32
            )
            f64 = engine.solve("greedy-utility", inst, seed=1)
            assert not f32.cached and not f64.cached  # no cross-dtype hit
            f64_again = engine.solve("greedy-utility", inst, seed=1)
            f32_again = engine.solve(
                "greedy-utility", inst, seed=1, dtype="float32"
            )
            assert f64_again.cached and f32_again.cached
            assert f32.artifact.meta.get("dtype") == "float32"
            assert f64.artifact.meta.get("dtype") is None
            assert f64.artifact.total_utility == pytest.approx(
                f32.artifact.total_utility, rel=1e-6
            )

    def test_float32_rejected_on_unbatched_solver(self):
        import numpy as np

        inst = Instance.sample(QUICK, 941)
        with ScheduleEngine(workers=1, degradation=False) as engine:
            with pytest.raises(Exception, match="float32"):
                engine.solve("static", inst, seed=1, dtype=np.float32)

    # -- requests a group's drain admits through the gates ----------------
    def _group_with(self, make_drained, *, prepare=None, settle_s=0.0):
        """Queue a fresh ``greedy-utility`` leader and one request behind
        it, so the leader's drain admits that request.

        Returns the leader's result, the drained request's future and the
        engine's final stats, after checking that the queue's accounting
        returned to zero.
        """
        gate = threading.Event()
        engine = ScheduleEngine(workers=1, queue_limit=32, coalesce_max=4)
        drained = []
        try:
            if prepare is not None:
                prepare(engine)

            def submit():
                lead = engine.submit(
                    "greedy-utility", Instance.sample(QUICK, 960), seed=4
                )
                drained.append(make_drained(engine, lead))
                time.sleep(settle_s)
                return [lead]

            _stall, [lead] = self._pile_up(
                engine, gate, Instance.sample(QUICK, 895), submit
            )
            assert engine.drain(timeout_s=30)
            assert engine._queue.unfinished_tasks == 0
        finally:
            gate.set()
            engine.close()
        assert drained[0].done()
        return lead, drained[0], engine.stats()

    def test_drained_result_cache_hit_answers_at_once(self):
        inst = Instance.sample(QUICK, 961)
        first = []
        lead, fut, stats = self._group_with(
            lambda engine, _lead: engine.submit(
                "greedy-utility", inst, seed=4
            ),
            prepare=lambda engine: first.append(
                engine.solve("greedy-utility", inst, seed=4)
            ),
        )
        hit = fut.result()
        assert hit.cached and not hit.coalesced and not hit.deduped
        assert hit.artifact.content_hash() == \
            first[0].artifact.content_hash()
        assert not lead.coalesced  # the hit never joined the group
        assert stats["result_cache"]["hits"] == 1
        assert stats["coalesced_batches"] == 0
        assert stats["errors"] == 0

    @pytest.mark.parametrize("degrade", [True, False])
    def test_drained_quarantined_request(self, degrade):
        inst = Instance.sample(QUICK, 962)

        def quarantine(engine):
            engine._quarantine[(inst.content_hash(), "haste-offline", 4)] = 1

        lead, fut, stats = self._group_with(
            lambda engine, _lead: engine.submit(
                "haste-offline", inst, seed=4, degrade=degrade
            ),
            prepare=quarantine,
        )
        assert not lead.degraded and not lead.coalesced
        if degrade:
            res = fut.result()
            assert res.degraded and res.degrade_reason == "quarantine"
            assert res.spec == "greedy-utility"
            assert stats["errors"] == 0
        else:
            assert isinstance(fut.exception(), RequestQuarantined)
            assert stats["errors"] == 1

    @pytest.mark.parametrize("degrade", [True, False])
    def test_drained_expired_deadline(self, degrade):
        inst = Instance.sample(QUICK, 963)
        lead, fut, stats = self._group_with(
            lambda engine, _lead: engine.submit(
                "haste-offline", inst, seed=4, deadline_s=0.05,
                degrade=degrade,
            ),
            settle_s=0.2,  # the budget runs out while the request queues
        )
        assert not lead.degraded
        assert stats["deadline_expired"] == 1
        if degrade:
            res = fut.result()
            assert res.degraded and res.degrade_reason == "deadline"
            assert stats["errors"] == 0
        else:
            assert isinstance(fut.exception(), DeadlineExceeded)
            assert stats["errors"] == 1

    def test_drained_cancelled_future_is_skipped(self):
        def cancelled(engine, _lead):
            fut = engine.submit(
                "greedy-utility", Instance.sample(QUICK, 964), seed=4
            )
            assert fut.cancel()
            return fut

        lead, fut, stats = self._group_with(cancelled)
        assert fut.cancelled()
        assert not lead.coalesced
        assert stats["solves"] == 2  # the stall and the leader
        assert stats["errors"] == 0

    def test_drained_follower_of_outside_leader(self):
        """A drained request identical to one in flight outside the group
        takes that request's answer, as it would when dequeued first."""
        inst = Instance.sample(QUICK, 965)
        direct = solve_instance("greedy-utility", inst, seed=4)
        key = (inst.content_hash(), "greedy-utility", 4)
        outside: Future = Future()

        def follower(engine, lead):
            # The outside request finishes once the group has solved.
            lead.add_done_callback(
                lambda _f: outside.set_result(
                    ServeResult(
                        artifact=direct, spec="greedy-utility",
                        instance_hash=key[0], seed=4, cached=False,
                        warm=False, solve_s=0.0, queued_s=0.0,
                    )
                )
            )
            return engine.submit("greedy-utility", inst, seed=4)

        lead, fut, stats = self._group_with(
            follower,
            prepare=lambda engine: engine._inflight.__setitem__(key, outside),
        )
        res = fut.result()
        assert res.deduped and res.cached and not lead.coalesced
        assert res.artifact.content_hash() == direct.content_hash()
        assert stats["inflight_dedup"] == 1
        assert stats["solves"] == 2  # the stall and the leader
        assert stats["errors"] == 0

    def test_failed_group_retries_each_member_alone(self, monkeypatch):
        from repro.solvers.registry import BoundSolver

        batch = BoundSolver.solve_prepared_batch

        def fails_when_grouped(self, prepareds, *args, **kwargs):
            if len(prepareds) > 1:
                raise RuntimeError("batched kernel failed")
            return batch(self, prepareds, *args, **kwargs)

        monkeypatch.setattr(
            BoundSolver, "solve_prepared_batch", fails_when_grouped
        )

        class CountingBreaker(CircuitBreaker):
            charged = 0

            def record_failure(self, key):
                type(self).charged += 1
                super().record_failure(key)

        instances = [Instance.sample(QUICK, 970 + j) for j in range(3)]
        direct = [
            solve_instance("greedy-utility", inst, seed=5).content_hash()
            for inst in instances
        ]
        gate = threading.Event()
        engine = ScheduleEngine(
            workers=1, queue_limit=32, coalesce_max=4,
            breaker=CountingBreaker(),
        )
        try:
            _stall, results = self._pile_up(
                engine, gate, Instance.sample(QUICK, 896),
                lambda: [
                    engine.submit("greedy-utility", inst, seed=5)
                    for inst in instances
                ],
            )
        finally:
            gate.set()
            engine.close()
        assert [r.artifact.content_hash() for r in results] == direct
        assert all(not r.coalesced and not r.degraded for r in results)
        assert CountingBreaker.charged == 1
        stats = engine.stats()
        assert stats["coalesced_batches"] == 0
        assert stats["solves"] == 4  # the stall and three members alone
        assert stats["errors"] == 0

    def test_close_during_drain_lets_every_worker_exit(self):
        """A drain that takes one ``_SHUTDOWN`` sentinel must leave the
        other for the other worker, so ``close()`` strands no thread."""
        gates = [threading.Event(), threading.Event()]
        engine = ScheduleEngine(workers=2, queue_limit=32, coalesce_max=4)
        try:
            for j, gate in enumerate(gates):  # pin both workers
                engine.submit(
                    "static",
                    _BlockingInstance(Instance.sample(QUICK, 980 + j), gate),
                    seed=1,
                )
            for _ in range(200):
                if engine._queue.qsize() == 0:
                    break
                time.sleep(0.01)
            utility = engine.submit(
                "greedy-utility", Instance.sample(QUICK, 982), seed=1
            )
            cover = engine.submit(
                "greedy-cover", Instance.sample(QUICK, 983), seed=1
            )
            engine.close(wait=False)
            gates[0].set()
            assert utility.result(timeout=60).artifact is not None
            assert cover.result(timeout=60).artifact is not None
            gates[1].set()
            for t in engine._workers:
                t.join(timeout=5)
            assert not any(t.is_alive() for t in engine._workers)
        finally:
            for gate in gates:
                gate.set()
            engine.close()
