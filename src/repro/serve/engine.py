"""The warm-state scheduling engine: queue, workers, caches, resilience.

:class:`ScheduleEngine` is the serving core the daemon (and the traffic
harness) sit on.  One engine holds:

* a **bounded request queue** — submissions beyond ``queue_limit`` are
  rejected immediately with :class:`EngineBusy` (the daemon maps that to
  HTTP 503), so a burst degrades to fast refusals instead of unbounded
  memory growth;
* a **worker pool** of threads, each resolving spec strings locally via
  :func:`~repro.solvers.registry.get_solver`, plus a **supervisor**
  thread that detects crashed workers, restarts them, and counts the
  restarts (``serve.worker_restarts``) — a request that kills a worker
  is quarantined instead of wedging the queue;
* a **prepared-state cache**: requests for the same
  ``Instance.content_hash`` share one :class:`~repro.solvers.prepared.
  PreparedNetwork` — the process-global :data:`~repro.solvers.prepared.
  PREPARED_CACHE` by default, or a private cache when
  ``prepared_cache_capacity`` is given (so sizing one engine never
  evicts state other components rely on);
* a **result cache** keyed by ``content_hash × canonical spec × seed``
  — the serving layer's idempotency key: an exact repeat of a seeded
  request (a client retry after a lost response, say) is answered
  without solving again, and *concurrent* identical requests collapse
  single-flight onto one execution (``serve.inflight_dedup``).

Resilience (PR 9, DESIGN.md §13) threads through every request:

* **deadlines** — a per-request monotonic :class:`~repro.serve.
  resilience.Deadline` checked cooperatively at phase seams (dequeue,
  fault injection, prepare, per-rung), so no request outlives its budget
  beyond the daemon's watchdog grace;
* a per-spec **circuit breaker** (closed/open/half-open) that learns
  which specs are failing and routes around them;
* the **graceful-degradation ladder** — when the deadline, the breaker,
  or a quarantine trips, the request re-resolves to a cheaper registered
  spec (decomposition params stripped, then the greedy baseline) and
  returns a *valid* schedule tagged ``meta["degraded"]`` instead of an
  error;
* an optional seeded **process fault injector**
  (:class:`~repro.faults.process.ProcessFaultModel`) driving the chaos
  suite — a null (or absent) model leaves every request on the exact
  PR 8 path, bit for bit.

Micro-batch coalescing (PR 10, DESIGN.md §14): when a worker dequeues a
request for a solver registered with a batched kernel (``batch_fn``), it
opportunistically drains up to ``coalesce_max - 1`` already-queued
requests for the *same canonical spec and dtype* and answers the whole
group with one :meth:`~repro.solvers.registry.BoundSolver.
solve_prepared_batch` call.  At float64 the batched kernel is
bit-identical to per-request solves, so coalescing is invisible in the
artifacts (pinned by ``tests/test_serve.py``); only
``ServeResult.coalesced`` and the ``coalesced_batches``/
``coalesced_requests`` counters reveal it.  Degraded and skip-primary
resubmissions never coalesce, chaos runs (an active fault injector)
disable coalescing entirely, and result-cache hits, single-flight
dedup, quarantine, and deadline gates are applied per member exactly as
on the solo path.  ``submit(dtype=np.float32)`` opts a request into the
single-precision batched kernel; float32 results are cached under a
*distinct* result-cache key so they can never answer a float64 request.

Telemetry: the engine always feeds its own
:class:`~repro.obs.windows.WindowedHistogram` of request latency
(windowed per solver, readable via :meth:`ScheduleEngine.stats` and the
daemon's ``/stats``), and mirrors counters/gauges into :mod:`repro.obs`
when the global registry is enabled (``serve.requests``,
``serve.result_cache_hits``/``misses``, ``serve.rejected``,
``serve.queue_depth``, ``serve.request_latency``, ``serve.degraded``,
``serve.worker_restarts``, ``serve.breaker_*``, …).
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..faults.process import InjectedWorkerCrash, ProcessFaultModel
from ..obs.windows import WindowedHistogram
from ..solvers.artifact import RunArtifact
from ..solvers.prepared import PREPARED_CACHE, PreparedCache
from ..solvers.registry import get_solver
from .resilience import (
    BreakerOpen,
    CancelToken,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    DegradationLadder,
    RequestQuarantined,
    WorkerCrashed,
    cooperative_sleep,
)

__all__ = ["EngineBusy", "EngineClosed", "ServeResult", "ScheduleEngine"]

#: Windowed request-latency metric (window = solver name).
LATENCY_METRIC = "serve.request_latency"

#: Poll cadence of a follower waiting on an identical in-flight leader —
#: between polls the follower checks its cancel token and deadline.
_FOLLOWER_POLL_S = 0.05

#: Hard bound on how long a *deadline-less* follower waits on a leader
#: before falling through to the degradation ladder — a wedged leader
#: must never pin follower worker threads along with its own.
FOLLOWER_MAX_WAIT_S = 30.0

_SHUTDOWN = object()


class EngineBusy(RuntimeError):
    """The bounded request queue is full (HTTP 503)."""


class EngineClosed(RuntimeError):
    """The engine is closed or draining; no further submissions."""


@dataclass(frozen=True)
class ServeResult:
    """One served solve: the artifact plus its serving provenance."""

    artifact: RunArtifact
    #: canonical spec string that produced the artifact (the degraded
    #: rung's spec when ``degraded``)
    spec: str
    #: ``Instance.content_hash`` of the solved instance
    instance_hash: str
    #: effective rng seed (request seed, else instance provenance seed)
    seed: int | None
    #: answered from the result cache (no solve ran)
    cached: bool
    #: prepared state was already warm for this content hash
    warm: bool
    #: in-worker seconds (0 for result-cache hits)
    solve_s: float
    #: seconds spent waiting in the bounded queue
    queued_s: float
    #: answered by waiting on an identical in-flight request
    deduped: bool = False
    #: the degradation ladder produced this (see ``artifact.meta["degraded"]``)
    degraded: bool = False
    #: the originally requested canonical spec, when ``degraded``
    degraded_from: str | None = None
    #: what tripped: ``deadline`` | ``breaker`` | ``crash`` | ``quarantine``
    #: | ``watchdog``
    degrade_reason: str | None = None
    #: answered by an opportunistic micro-batch (coalesced solve)
    coalesced: bool = False


@dataclass(frozen=True)
class _Job:
    spec: str
    instance: object
    seed: int | None
    config: object
    use_result_cache: bool
    deadline: Deadline | None = None
    token: CancelToken = field(default_factory=CancelToken)
    degrade: bool = True
    skip_primary: bool = False
    degrade_reason: str | None = None
    #: normalized np.dtype (float32) or None (float64 default path)
    dtype: object = None


class ScheduleEngine:
    """Long-lived warm-state solver: submit requests, get artifacts."""

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_limit: int = 64,
        result_cache_capacity: int = 256,
        prepared_cache_capacity: int | None = None,
        default_deadline_s: float | None = None,
        degradation=True,
        breaker=None,
        fault_model=None,
        supervise: bool = True,
        supervision_interval_s: float = 0.1,
        quarantine_after: int = 1,
        coalesce_max: int = 4,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if coalesce_max < 0:
            raise ValueError(
                f"coalesce_max must be >= 0, got {coalesce_max}"
            )
        if default_deadline_s is not None and not (default_deadline_s > 0):
            raise ValueError(
                f"default_deadline_s must be > 0, got {default_deadline_s}"
            )
        if quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, got {quarantine_after}"
            )
        self.queue_limit = int(queue_limit)
        self.default_deadline_s = default_deadline_s
        self.quarantine_after = int(quarantine_after)
        #: micro-batch size cap — 0 or 1 disables coalescing entirely
        self.coalesce_max = int(coalesce_max)
        self.supervision_interval_s = float(supervision_interval_s)
        # `prepared_cache_capacity` scopes a *private* PreparedCache to
        # this engine; without it the engine shares the process-global
        # cache.  (Resizing the global here would silently change
        # eviction for every other engine/solver in the process.)
        if prepared_cache_capacity is not None:
            self._prepared_cache = PreparedCache(
                capacity=prepared_cache_capacity
            )
        else:
            self._prepared_cache = PREPARED_CACHE

        # Resilience collaborators.  `degradation=True` builds the default
        # ladder; `breaker=None` the default circuit breaker — pass False
        # to disable either (the PR 8 hot path is untouched either way:
        # a closed breaker and an untriggered ladder cost one dict lookup).
        if degradation is True:
            self._ladder: DegradationLadder | None = DegradationLadder()
        elif degradation in (False, None):
            self._ladder = None
        elif isinstance(degradation, DegradationLadder):
            self._ladder = degradation
        elif callable(degradation):
            self._ladder = DegradationLadder(degradation)
        else:
            raise TypeError(f"bad degradation argument {degradation!r}")
        if breaker is None:
            self._breaker: CircuitBreaker | None = CircuitBreaker()
        elif breaker is False:
            self._breaker = None
        elif isinstance(breaker, CircuitBreaker):
            self._breaker = breaker
        else:
            raise TypeError(f"bad breaker argument {breaker!r}")
        if fault_model is None:
            self._injector = None
        elif isinstance(fault_model, ProcessFaultModel):
            self._injector = (
                None if fault_model.is_null() else fault_model.injector()
            )
        elif hasattr(fault_model, "decide"):
            self._injector = fault_model  # injector (or replay) directly
        else:
            raise TypeError(f"bad fault_model argument {fault_model!r}")

        self._queue: queue.Queue = queue.Queue(maxsize=self.queue_limit)
        self._lock = threading.Lock()
        self._closed = False
        self._draining = False
        self._results: OrderedDict[tuple, tuple[RunArtifact, str]] = OrderedDict()
        self._result_capacity = int(result_cache_capacity)
        self._inflight: dict[tuple, Future] = {}
        self._quarantine: dict[tuple, int] = {}
        self._latency = WindowedHistogram(LATENCY_METRIC)
        # Lifetime counters (exported via stats() and the daemon /stats).
        self.requests = 0
        self.completed = 0
        self.errors = 0
        self.rejected = 0
        self.result_hits = 0
        self.result_misses = 0
        self.result_evictions = 0
        self.solves = 0
        self.degraded = 0
        self.deadline_expired = 0
        self.deadline_timeouts = 0
        self.worker_crashes = 0
        self.worker_restarts = 0
        self.inflight_dedup = 0
        self.coalesced_batches = 0
        self.coalesced_requests = 0
        #: worker thread idents that must exit after their current item
        #: (a coalescing drain consumed their _SHUTDOWN sentinel)
        self._deferred_exit: set[int] = set()
        self._stop = threading.Event()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(int(workers))
        ]
        for t in self._workers:
            t.start()
        self._supervisor: threading.Thread | None = None
        if supervise:
            self._supervisor = threading.Thread(
                target=self._supervise_loop, name="serve-supervisor", daemon=True
            )
            self._supervisor.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: str,
        instance,
        *,
        seed: int | None = None,
        config=None,
        use_result_cache: bool = True,
        deadline_s: float | None = None,
        degrade: bool = True,
        skip_primary: bool = False,
        degrade_reason: str | None = None,
        dtype=None,
    ) -> Future:
        """Enqueue one solve; returns a :class:`concurrent.futures.Future`.

        Raises :class:`EngineBusy` when the bounded queue is full and
        :class:`EngineClosed` after :meth:`close` or during
        :meth:`drain` — both *before* any work is done, which is what
        makes the backpressure cheap.  ``deadline_s`` starts this
        request's monotonic budget **now** (queueing time counts);
        ``None`` falls back to the engine's ``default_deadline_s``.
        ``skip_primary`` jumps straight to the degradation ladder (the
        daemon uses it to re-route a request whose primary execution
        crashed a worker or tripped the watchdog).  ``dtype=np.float32``
        opts into the single-precision batched kernel (batched solvers
        only; see DESIGN.md §14) — float32 results live under a distinct
        result-cache key, never answering a float64 request.
        """
        if self._closed or self._draining:
            raise EngineClosed(
                "engine is draining" if self._draining else "engine is closed"
            )
        if dtype is not None:
            dtype = np.dtype(dtype)
            if dtype == np.dtype(np.float64):
                dtype = None  # the default path — one cache key, not two
            elif dtype != np.dtype(np.float32):
                raise ValueError(
                    f"dtype must be float64 or float32, got {dtype}"
                )
        budget = deadline_s if deadline_s is not None else self.default_deadline_s
        deadline = Deadline(budget) if budget is not None else None
        fut: Future = Future()
        token = CancelToken()
        fut.cancel_token = token  # cooperative-cancel handle for the daemon
        job = _Job(
            spec=spec,
            instance=instance,
            seed=seed,
            config=config,
            use_result_cache=use_result_cache,
            deadline=deadline,
            token=token,
            degrade=degrade,
            skip_primary=skip_primary,
            degrade_reason=degrade_reason,
            dtype=dtype,
        )
        try:
            self._queue.put_nowait((fut, job, time.perf_counter()))
        except queue.Full:
            with self._lock:
                self.rejected += 1
            obs.inc("serve.rejected")
            raise EngineBusy(
                f"request queue is full ({self.queue_limit} pending)"
            ) from None
        with self._lock:
            self.requests += 1
        obs.inc("serve.requests")
        obs.set_gauge("serve.queue_depth", self._queue.qsize())
        return fut

    def solve(
        self,
        spec: str,
        instance,
        *,
        seed: int | None = None,
        config=None,
        use_result_cache: bool = True,
        timeout: float | None = None,
        deadline_s: float | None = None,
        degrade: bool = True,
        dtype=None,
    ) -> ServeResult:
        """Submit and wait — the synchronous convenience path."""
        return self.submit(
            spec,
            instance,
            seed=seed,
            config=config,
            use_result_cache=use_result_cache,
            deadline_s=deadline_s,
            degrade=degrade,
            dtype=dtype,
        ).result(timeout=timeout)

    def note_deadline_timeout(self, spec: str) -> None:
        """Record a daemon-side watchdog expiry against ``spec``.

        The stuck worker cannot be interrupted (threads), but the breaker
        learns: enough watchdog trips open the circuit and subsequent
        requests for the spec degrade immediately instead of queueing
        behind a pathological solve.
        """
        try:
            canonical = get_solver(spec).canonical()
        except Exception:
            canonical = str(spec)
        with self._lock:
            self.deadline_timeouts += 1
        if self._breaker is not None:
            self._breaker.record_failure(canonical)
        obs.inc("serve.deadline_timeouts")

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            died = False
            try:
                if item is _SHUTDOWN:
                    return
                fut, job, enqueued = item
                if not fut.set_running_or_notify_cancel():
                    continue
                try:
                    fut.set_result(self._execute(job, enqueued, fut))
                except Exception as exc:
                    with self._lock:
                        self.errors += 1
                    obs.inc("serve.errors")
                    fut.set_exception(exc)
                except BaseException as exc:
                    # A worker-killing crash: answer/requeue the poisoning
                    # request, quarantine it, and let this thread die
                    # (quietly — the supervisor restarts a replacement).
                    self._note_poison(fut, job, enqueued, exc)
                    died = True
                finally:
                    with self._lock:
                        key = getattr(fut, "_engine_key", None)
                        if key is not None and self._inflight.get(key) is fut:
                            del self._inflight[key]
            finally:
                self._queue.task_done()
                obs.set_gauge("serve.queue_depth", self._queue.qsize())
            if died or self._check_deferred_exit():
                return

    def _check_deferred_exit(self) -> bool:
        """Whether this worker consumed a _SHUTDOWN while coalescing."""
        ident = threading.get_ident()
        with self._lock:
            if ident in self._deferred_exit:
                self._deferred_exit.discard(ident)
                return True
        return False

    def _note_poison(self, fut: Future, job: _Job, enqueued, exc) -> None:
        """Handle a request that killed its worker (quarantine + answer)."""
        key = getattr(fut, "_engine_key", None)
        with self._lock:
            self.worker_crashes += 1
            self.errors += 1
            quarantined = False
            if key is not None:
                self._quarantine[key] = self._quarantine.get(key, 0) + 1
                quarantined = self._quarantine[key] >= self.quarantine_after
        obs.inc("serve.worker_crashes")
        obs.event(
            "serve.worker_crash",
            level="error",
            spec=job.spec,
            error=repr(exc),
            quarantined=quarantined,
        )
        crash_error = WorkerCrashed(
            f"worker died executing {job.spec!r}: {type(exc).__name__}: {exc}"
        )
        if job.degrade and self._ladder is not None and not job.skip_primary:
            # Re-route the poisoned request to the degradation ladder on a
            # fresh future bridged back onto the caller's — the restarted
            # pool answers it degraded instead of 500.
            retry_fut: Future = Future()
            retry_fut.cancel_token = job.token
            retry_job = _Job(
                spec=job.spec,
                instance=job.instance,
                seed=job.seed,
                config=job.config,
                use_result_cache=job.use_result_cache,
                deadline=job.deadline,
                token=job.token,
                degrade=True,
                skip_primary=True,
                degrade_reason="crash",
            )

            def _bridge(done: Future) -> None:
                err = done.exception()
                if err is not None:
                    fut.set_exception(err)
                else:
                    fut.set_result(done.result())

            retry_fut.add_done_callback(_bridge)
            try:
                self._queue.put_nowait((retry_fut, retry_job, enqueued))
                return
            except queue.Full:
                pass
        fut.set_exception(crash_error)

    def _is_quarantined(self, key: tuple) -> bool:
        with self._lock:
            return self._quarantine.get(key, 0) >= self.quarantine_after

    def _supervise_loop(self) -> None:
        interval = max(0.01, self.supervision_interval_s)
        while not self._stop.wait(interval):
            if self._closed:
                return
            with self._lock:
                snapshot = list(enumerate(self._workers))
            for i, t in snapshot:
                if t.is_alive():
                    continue
                replacement = threading.Thread(
                    target=self._worker_loop, name=t.name, daemon=True
                )
                with self._lock:
                    if self._closed or self._workers[i] is not t:
                        continue
                    self._workers[i] = replacement
                    self.worker_restarts += 1
                replacement.start()
                obs.inc("serve.worker_restarts")
                obs.event(
                    "serve.worker_restart", level="warning", worker=t.name
                )

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------
    def _execute(self, job: _Job, enqueued: float, fut: Future) -> ServeResult:
        queued_s = time.perf_counter() - enqueued
        # Spec strings resolve in the worker (sim/runner.py's pattern) —
        # the canonical form is also the result-cache key component.
        solver = get_solver(job.spec)
        canonical = solver.canonical()
        instance = job.instance
        content = instance.content_hash()
        effective = job.seed if job.seed is not None else instance.seed

        key = self._result_key(content, canonical, effective, job.dtype)
        fut._engine_key = key  # poison quarantine + in-flight cleanup
        # A degrade-only resubmission (worker crash / daemon watchdog)
        # bypasses the result cache *and* single-flight dedup: its key is
        # the very request it replaces, so following that (possibly
        # wedged) leader would block instead of degrading.
        cacheable = (
            job.use_result_cache
            and effective is not None
            and not job.skip_primary
        )
        if cacheable:
            with self._lock:
                hit = self._results.get(key)
                if hit is not None:
                    self._results.move_to_end(key)
                    self.result_hits += 1
                    self.completed += 1
            if hit is not None:
                obs.inc("serve.result_cache_hits")
                self._observe_latency(solver.name, queued_s)
                return ServeResult(
                    artifact=hit[0],
                    spec=canonical,
                    instance_hash=content,
                    seed=effective,
                    cached=True,
                    warm=True,
                    solve_s=0.0,
                    queued_s=queued_s,
                )
            with self._lock:
                self.result_misses += 1
            obs.inc("serve.result_cache_misses")

        # Single-flight: concurrent identical seeded requests collapse
        # onto one execution — the idempotency guarantee retrying clients
        # rely on (no request is ever double-executed).
        if cacheable:
            with self._lock:
                leader = self._inflight.get(key)
                if leader is None or leader is fut or leader.done():
                    self._inflight[key] = fut
                    leader = None
            if leader is not None:
                return self._await_leader(
                    leader, job, solver, canonical, content, effective,
                    queued_s,
                )

        return self._solve_job(
            job, solver, canonical, instance, content, effective, key,
            cacheable, queued_s,
        )

    def _await_leader(
        self, leader, job: _Job, solver, canonical, content, effective,
        queued_s,
    ) -> ServeResult:
        """Wait on an identical in-flight request's result — *bounded*.

        The wait polls instead of blocking: between polls the follower
        checks its cancel token and deadline, and a deadline-less
        follower gives up after :data:`FOLLOWER_MAX_WAIT_S`, so a wedged
        leader never pins follower worker threads along with its own.
        A stuck or cancelled wait falls through to the degradation
        ladder (typed :class:`DeadlineExceeded` when degradation is
        off).
        """
        with self._lock:
            self.inflight_dedup += 1
        obs.inc("serve.inflight_dedup")
        deadline, token = job.deadline, job.token
        budget = (
            max(deadline.remaining(), 0.01)
            if deadline is not None
            else FOLLOWER_MAX_WAIT_S
        )
        limit = time.monotonic() + budget
        while True:
            try:
                lead: ServeResult = leader.result(
                    timeout=min(
                        _FOLLOWER_POLL_S,
                        max(limit - time.monotonic(), 0.001),
                    )
                )
                break
            except FutureTimeout:
                if not token.cancelled and time.monotonic() < limit:
                    continue
                reason = "watchdog" if token.cancelled else "deadline"
                if job.degrade and self._ladder is not None:
                    return self._solve_degraded(
                        job, canonical, job.instance, content, effective,
                        queued_s, reason,
                    )
                raise DeadlineExceeded(
                    f"gave up waiting on an identical in-flight request "
                    f"for {canonical} after {budget:.3f}s"
                ) from None
        with self._lock:
            self.completed += 1
        self._observe_latency(solver.name, queued_s)
        return ServeResult(
            artifact=lead.artifact,
            spec=lead.spec,
            instance_hash=content,
            seed=effective,
            cached=True,
            warm=True,
            solve_s=0.0,
            queued_s=queued_s,
            deduped=True,
            degraded=lead.degraded,
            degraded_from=lead.degraded_from,
            degrade_reason=lead.degrade_reason,
        )

    @staticmethod
    def _result_key(content, canonical, effective, dtype) -> tuple:
        """Result-cache / single-flight key for one request.

        The float64 key keeps its historical three-component shape;
        float32 requests get a fourth component so a single-precision
        artifact can never answer (or be answered by) a float64 request.
        """
        if dtype is not None:
            return (content, canonical, effective, "float32")
        return (content, canonical, effective)

    def _solve_job(
        self, job: _Job, solver, canonical, instance, content, effective,
        key, cacheable, queued_s, *, coalesce: bool = True,
    ) -> ServeResult:
        deadline, token = job.deadline, job.token
        degradable = job.degrade and self._ladder is not None
        reason: str | None = None
        if job.skip_primary:
            reason = job.degrade_reason or "crash"
        elif self._is_quarantined(key):
            if not degradable:
                raise RequestQuarantined(
                    f"request {content[:12]}×{canonical} previously crashed "
                    f"a worker and is quarantined"
                )
            reason = "quarantine"
        elif deadline is not None and deadline.expired():
            with self._lock:
                self.deadline_expired += 1
            obs.inc("serve.deadline_expired")
            if not degradable:
                deadline.check(canonical)  # raises DeadlineExceeded
            reason = "deadline"
        elif self._breaker is not None and not self._breaker.allow(canonical):
            if not degradable:
                raise BreakerOpen(f"circuit breaker open for {canonical}")
            reason = "breaker"

        if reason is None:
            if coalesce and self._coalesceable(job, solver):
                group = self._drain_followers()
                if group:
                    return self._solve_coalesced(
                        job, solver, canonical, content, effective, key,
                        cacheable, queued_s, group,
                    )
            start = time.perf_counter()
            try:
                artifact, warm = self._solve_once(
                    solver, canonical, instance, content, effective,
                    job.config, deadline, token, inject=True,
                    dtype=job.dtype,
                )
            except DeadlineExceeded:
                if self._breaker is not None:
                    self._breaker.record_failure(canonical)
                with self._lock:
                    self.deadline_expired += 1
                obs.inc("serve.deadline_expired")
                if not degradable:
                    raise
                reason = "deadline"
            except InjectedWorkerCrash:
                if self._breaker is not None:
                    self._breaker.record_failure(canonical)
                raise
            except Exception:
                if self._breaker is not None:
                    self._breaker.record_failure(canonical)
                raise
            else:
                if self._breaker is not None:
                    self._breaker.record_success(canonical)
                solve_s = time.perf_counter() - start
                if cacheable:
                    with self._lock:
                        self._results[key] = (artifact, artifact.content_hash())
                        while len(self._results) > self._result_capacity:
                            self._results.popitem(last=False)
                            self.result_evictions += 1
                with self._lock:
                    self.completed += 1
                self._observe_latency(solver.name, queued_s + solve_s)
                return ServeResult(
                    artifact=artifact,
                    spec=canonical,
                    instance_hash=content,
                    seed=effective,
                    cached=False,
                    warm=warm,
                    solve_s=solve_s,
                    queued_s=queued_s,
                )

        return self._solve_degraded(
            job, canonical, instance, content, effective, queued_s, reason
        )

    # ------------------------------------------------------------------
    # Opportunistic micro-batch coalescing
    # ------------------------------------------------------------------
    def _coalesceable(self, job: _Job, solver) -> bool:
        """Whether this request may lead an opportunistic micro-batch.

        Chaos runs (an active fault injector) and degraded/skip-primary
        resubmissions never coalesce — those stay on the exact
        per-request path, bit for bit.
        """
        return (
            self.coalesce_max >= 2
            and self._injector is None
            and not job.skip_primary
            and job.degrade_reason is None
            and solver._batchable()
        )

    def _drain_followers(self) -> list[tuple]:
        """Non-blockingly drain up to ``coalesce_max - 1`` queued items.

        Every drained item is *owned* by the caller — answered in
        :meth:`_solve_coalesced` (batched, deduped, degraded, or run
        solo) and matched with one ``task_done`` there.  Nothing is ever
        put back, so a full queue can never deadlock the drain.  A
        drained ``_SHUTDOWN`` sentinel stops the drain and marks this
        worker for exit after the current group (close() is tearing
        down).
        """
        drained: list[tuple] = []
        limit = self.coalesce_max - 1
        while len(drained) < limit:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                self._queue.task_done()
                with self._lock:
                    self._deferred_exit.add(threading.get_ident())
                break
            drained.append(item)
        if drained:
            obs.set_gauge("serve.queue_depth", self._queue.qsize())
        return drained

    def _run_drained(self, fut: Future, job: _Job, enqueued: float) -> None:
        """Answer one drained-but-uncoalescible item as the worker would.

        Mirrors the ``_worker_loop`` body: regular failures become the
        future's exception; a worker-killing crash quarantines/requeues
        via :meth:`_note_poison` and defers this worker's exit (the
        supervisor restarts a replacement).
        """
        if not fut.set_running_or_notify_cancel():
            return
        try:
            fut.set_result(self._execute(job, enqueued, fut))
        except Exception as exc:
            with self._lock:
                self.errors += 1
            obs.inc("serve.errors")
            fut.set_exception(exc)
        except BaseException as exc:
            self._note_poison(fut, job, enqueued, exc)
            with self._lock:
                self._deferred_exit.add(threading.get_ident())
        finally:
            with self._lock:
                key = getattr(fut, "_engine_key", None)
                if key is not None and self._inflight.get(key) is fut:
                    del self._inflight[key]

    def _solve_coalesced(
        self, job: _Job, solver, canonical, content, effective, key,
        cacheable, queued_s, drained,
    ) -> ServeResult:
        """Answer the leader plus a drained group with one batched solve.

        Each drained item is classified exactly as the solo path would
        have: different-spec/dtype (or resubmitted) items run solo after
        the batch; result-cache hits answer immediately; quarantined or
        deadline-expired members degrade; duplicates of an in-group key
        dedup onto the member's artifact; followers of an *external*
        in-flight leader wait on it.  The rest — distinct keys, same
        canonical spec and dtype — solve in one
        :meth:`~repro.solvers.registry.BoundSolver.solve_prepared_batch`
        call, bit-identical at float64 to per-member solves.  If the
        batched kernel raises, every member falls back to its own solo
        :meth:`_solve_job` (coalescing suppressed), so no request is
        lost to a batch failure.
        """
        now = time.perf_counter()
        # Members: the leader (fut None — its result is *returned*) plus
        # every coalesced follower.  Parallel per-member state.
        members: list[dict] = [
            dict(
                fut=None, job=job, content=content, effective=effective,
                key=key, cacheable=cacheable, queued_s=queued_s,
                result=None,
            )
        ]
        members_by_key: dict[tuple, int] = {key: 0} if cacheable else {}
        passthrough: list[tuple] = []  # (fut, job, enqueued) → _run_drained
        dups: list[tuple] = []         # (fut, content, effective, queued_s, idx)
        ext_waiters: list[tuple] = []  # (fut, job, leader_fut, content, eff, q)
        degrades: list[tuple] = []     # (fut, job, content, eff, q, reason)
        group_futs: list[Future] = []
        leader_exc: Exception | None = None
        pending_exc: BaseException | None = None
        try:
            for fut2, job2, enq2 in drained:
                queued2 = now - enq2
                eligible = (
                    not job2.skip_primary
                    and job2.degrade_reason is None
                    and job2.dtype == job.dtype
                )
                if eligible:
                    try:
                        eligible = get_solver(job2.spec).canonical() == canonical
                    except Exception:
                        eligible = False
                if not eligible:
                    passthrough.append((fut2, job2, enq2))
                    continue
                if not fut2.set_running_or_notify_cancel():
                    continue
                group_futs.append(fut2)
                instance2 = job2.instance
                try:
                    content2 = instance2.content_hash()
                except Exception as exc:
                    with self._lock:
                        self.errors += 1
                    obs.inc("serve.errors")
                    fut2.set_exception(exc)
                    continue
                effective2 = (
                    job2.seed if job2.seed is not None else instance2.seed
                )
                key2 = self._result_key(
                    content2, canonical, effective2, job2.dtype
                )
                fut2._engine_key = key2
                cacheable2 = job2.use_result_cache and effective2 is not None
                if cacheable2:
                    with self._lock:
                        hit = self._results.get(key2)
                        if hit is not None:
                            self._results.move_to_end(key2)
                            self.result_hits += 1
                            self.completed += 1
                    if hit is not None:
                        obs.inc("serve.result_cache_hits")
                        self._observe_latency(solver.name, queued2)
                        fut2.set_result(
                            ServeResult(
                                artifact=hit[0],
                                spec=canonical,
                                instance_hash=content2,
                                seed=effective2,
                                cached=True,
                                warm=True,
                                solve_s=0.0,
                                queued_s=queued2,
                            )
                        )
                        continue
                    with self._lock:
                        self.result_misses += 1
                    obs.inc("serve.result_cache_misses")
                degradable2 = job2.degrade and self._ladder is not None
                if self._is_quarantined(key2):
                    if not degradable2:
                        with self._lock:
                            self.errors += 1
                        fut2.set_exception(
                            RequestQuarantined(
                                f"request {content2[:12]}×{canonical} "
                                f"previously crashed a worker and is "
                                f"quarantined"
                            )
                        )
                        continue
                    degrades.append(
                        (fut2, job2, content2, effective2, queued2,
                         "quarantine")
                    )
                    continue
                if job2.deadline is not None and job2.deadline.expired():
                    with self._lock:
                        self.deadline_expired += 1
                    obs.inc("serve.deadline_expired")
                    if not degradable2:
                        with self._lock:
                            self.errors += 1
                        fut2.set_exception(
                            DeadlineExceeded(
                                f"deadline exceeded for {canonical} while "
                                f"queued for a coalesced solve"
                            )
                        )
                        continue
                    degrades.append(
                        (fut2, job2, content2, effective2, queued2,
                         "deadline")
                    )
                    continue
                if cacheable2:
                    dup_idx = members_by_key.get(key2)
                    if dup_idx is not None:
                        dups.append(
                            (fut2, content2, effective2, queued2, dup_idx)
                        )
                        continue
                    with self._lock:
                        leader2 = self._inflight.get(key2)
                        if leader2 is None or leader2.done():
                            self._inflight[key2] = fut2
                            leader2 = None
                    if leader2 is not None:
                        ext_waiters.append(
                            (fut2, job2, leader2, content2, effective2,
                             queued2)
                        )
                        continue
                idx = len(members)
                members.append(
                    dict(
                        fut=fut2, job=job2, content=content2,
                        effective=effective2, key=key2,
                        cacheable=cacheable2, queued_s=queued2,
                        result=None,
                    )
                )
                if cacheable2:
                    members_by_key[key2] = idx

            # --- the batched solve over every distinct member ---------
            batch_error: Exception | None = None
            artifacts: list[RunArtifact] = []
            warms: list[bool] = []
            start = time.perf_counter()
            try:
                prepareds, rngs, cfgs = [], [], []
                for mem in members:
                    prepared, warm = self._prepared_cache.get_or_prepare(
                        mem["job"].instance
                    )
                    prepareds.append(prepared)
                    warms.append(warm)
                    rngs.append(np.random.default_rng(mem["effective"]))
                    cfg = mem["job"].config
                    if cfg is None:
                        cfg = mem["job"].instance.config
                    cfgs.append(cfg)
                artifacts = solver.solve_prepared_batch(
                    prepareds, rngs, cfgs, dtype=job.dtype
                )
            except Exception as exc:
                batch_error = exc

            if batch_error is None:
                solve_s = time.perf_counter() - start
                with self._lock:
                    self.solves += len(members)
                    self.coalesced_batches += 1
                    self.coalesced_requests += len(members)
                obs.inc("serve.coalesced_batches")
                obs.inc("serve.coalesced_requests", len(members))
                for mem, artifact, warm in zip(members, artifacts, warms):
                    if self._breaker is not None:
                        self._breaker.record_success(canonical)
                    if mem["cacheable"]:
                        with self._lock:
                            self._results[mem["key"]] = (
                                artifact, artifact.content_hash(),
                            )
                            while len(self._results) > self._result_capacity:
                                self._results.popitem(last=False)
                                self.result_evictions += 1
                    with self._lock:
                        self.completed += 1
                    self._observe_latency(
                        solver.name, mem["queued_s"] + solve_s
                    )
                    res = ServeResult(
                        artifact=artifact,
                        spec=canonical,
                        instance_hash=mem["content"],
                        seed=mem["effective"],
                        cached=False,
                        warm=warm,
                        solve_s=solve_s,
                        queued_s=mem["queued_s"],
                        coalesced=True,
                    )
                    mem["result"] = res
                    if mem["fut"] is not None:
                        mem["fut"].set_result(res)
            else:
                # The batched kernel failed as a whole: charge the
                # breaker once, then answer every member with its own
                # solo solve (coalescing suppressed — no recursion).
                if self._breaker is not None:
                    self._breaker.record_failure(canonical)
                obs.event(
                    "serve.coalesce_fallback",
                    level="warning",
                    spec=canonical,
                    batch=len(members),
                    error=repr(batch_error),
                )
                for mem in members:
                    mjob = mem["job"]
                    try:
                        res = self._solve_job(
                            mjob, solver, canonical, mjob.instance,
                            mem["content"], mem["effective"], mem["key"],
                            mem["cacheable"], mem["queued_s"],
                            coalesce=False,
                        )
                    except Exception as exc:
                        if mem["fut"] is None:
                            leader_exc = exc
                        else:
                            with self._lock:
                                self.errors += 1
                            obs.inc("serve.errors")
                            mem["fut"].set_exception(exc)
                        continue
                    mem["result"] = res
                    if mem["fut"] is not None:
                        mem["fut"].set_result(res)

            # --- in-group duplicates dedup onto their member ----------
            for fut2, content2, effective2, queued2, idx in dups:
                lead = members[idx]["result"]
                if lead is None:
                    # The member itself failed — give the duplicate its
                    # own solo attempt rather than inheriting the error.
                    mjob = members[idx]["job"]
                    try:
                        res = self._solve_job(
                            mjob, solver, canonical, mjob.instance,
                            content2, effective2, members[idx]["key"],
                            members[idx]["cacheable"], queued2,
                            coalesce=False,
                        )
                        fut2.set_result(res)
                    except Exception as exc:
                        with self._lock:
                            self.errors += 1
                        obs.inc("serve.errors")
                        fut2.set_exception(exc)
                    continue
                with self._lock:
                    self.inflight_dedup += 1
                    self.completed += 1
                obs.inc("serve.inflight_dedup")
                self._observe_latency(solver.name, queued2)
                fut2.set_result(
                    ServeResult(
                        artifact=lead.artifact,
                        spec=lead.spec,
                        instance_hash=content2,
                        seed=effective2,
                        cached=True,
                        warm=True,
                        solve_s=0.0,
                        queued_s=queued2,
                        deduped=True,
                        degraded=lead.degraded,
                        degraded_from=lead.degraded_from,
                        degrade_reason=lead.degrade_reason,
                        coalesced=lead.coalesced,
                    )
                )

            # --- followers of an external in-flight leader ------------
            for fut2, job2, leader2, content2, effective2, queued2 in \
                    ext_waiters:
                try:
                    fut2.set_result(
                        self._await_leader(
                            leader2, job2, solver, canonical, content2,
                            effective2, queued2,
                        )
                    )
                except Exception as exc:
                    with self._lock:
                        self.errors += 1
                    obs.inc("serve.errors")
                    fut2.set_exception(exc)

            # --- members whose gates tripped degrade as usual ---------
            for fut2, job2, content2, effective2, queued2, reason2 in \
                    degrades:
                try:
                    fut2.set_result(
                        self._solve_degraded(
                            job2, canonical, job2.instance, content2,
                            effective2, queued2, reason2,
                        )
                    )
                except Exception as exc:
                    with self._lock:
                        self.errors += 1
                    obs.inc("serve.errors")
                    fut2.set_exception(exc)

            # --- uncoalescible drained items run solo, in order -------
            for fut2, job2, enq2 in passthrough:
                self._run_drained(fut2, job2, enq2)
        except BaseException as exc:
            pending_exc = exc
            raise
        finally:
            # One task_done per drained item (the leader's own item is
            # accounted by the worker loop), in-flight cleanup for every
            # group future, and a safety sweep so no follower future is
            # ever left unresolved by an unexpected unwind.
            with self._lock:
                for fut2 in group_futs:
                    k2 = getattr(fut2, "_engine_key", None)
                    if k2 is not None and self._inflight.get(k2) is fut2:
                        del self._inflight[k2]
            for fut2 in group_futs:
                if not fut2.done():
                    with self._lock:
                        self.errors += 1
                    obs.inc("serve.errors")
                    fut2.set_exception(
                        pending_exc
                        if pending_exc is not None
                        else RuntimeError("coalesced solve aborted")
                    )
            for _ in drained:
                self._queue.task_done()
            obs.set_gauge("serve.queue_depth", self._queue.qsize())

        if leader_exc is not None:
            raise leader_exc
        leader_result = members[0]["result"]
        assert leader_result is not None
        return leader_result

    def _solve_degraded(
        self, job: _Job, canonical, instance, content, effective,
        queued_s, reason: str,
    ) -> ServeResult:
        """Walk the ladder below ``canonical`` until a rung answers.

        Degraded rungs run **without** deadline checks or fault injection
        — the whole point is to return a valid schedule rather than fail,
        and the fallback rungs are cheap by construction.
        """
        fallbacks = (
            self._ladder.fallbacks(canonical) if self._ladder is not None else ()
        )
        last_error: Exception | None = None
        start = time.perf_counter()
        for rung_spec in fallbacks:
            rung = get_solver(rung_spec)
            rcanon = rung.canonical()
            if self._breaker is not None and not self._breaker.allow(rcanon):
                continue
            try:
                artifact, warm = self._solve_once(
                    rung, rcanon, instance, content, effective, job.config,
                    deadline=None, token=job.token, inject=False,
                )
            except Exception as exc:
                if self._breaker is not None:
                    self._breaker.record_failure(rcanon)
                last_error = exc
                continue
            if self._breaker is not None:
                self._breaker.record_success(rcanon)
            solve_s = time.perf_counter() - start
            artifact.meta["degraded"] = {
                "from": canonical,
                "to": rcanon,
                "reason": reason,
                "utility": float(artifact.total_utility),
            }
            with self._lock:
                self.degraded += 1
                self.completed += 1
            obs.inc("serve.degraded")
            obs.event(
                "serve.degraded",
                level="warning",
                from_spec=canonical,
                to_spec=rcanon,
                reason=reason,
            )
            self._observe_latency(rung.name, queued_s + solve_s)
            return ServeResult(
                artifact=artifact,
                spec=rcanon,
                instance_hash=content,
                seed=effective,
                cached=False,
                warm=warm,
                solve_s=solve_s,
                queued_s=queued_s,
                degraded=True,
                degraded_from=canonical,
                degrade_reason=reason,
            )
        # Ladder exhausted (or absent): surface the trip as a typed error.
        if last_error is not None:
            raise last_error
        if reason == "deadline":
            raise DeadlineExceeded(
                f"deadline exceeded for {canonical} and no degradation rung "
                f"was available"
            )
        if reason in ("crash", "watchdog"):
            raise WorkerCrashed(
                f"primary execution of {canonical} crashed and no "
                f"degradation rung was available"
            )
        if reason == "quarantine":
            raise RequestQuarantined(
                f"request {content[:12]}×{canonical} is quarantined and no "
                f"degradation rung was available"
            )
        raise BreakerOpen(f"circuit breaker open for {canonical}")

    def _solve_once(
        self, solver, canonical, instance, content, effective, config,
        deadline: Deadline | None, token: CancelToken, *, inject: bool,
        dtype=None,
    ) -> tuple[RunArtifact, bool]:
        """One solve attempt: fault injection, prepare, solve.

        Identical to the PR 8 hot path when no deadline is set and the
        injector is absent — same call order, same rng construction.
        A float32 request routes through the batched kernel as a batch
        of one (non-batchable solvers surface the registry's
        SolverError).
        """
        if deadline is not None:
            deadline.check(canonical)
        if inject and self._injector is not None:
            fault = self._injector.decide(canonical, content)
            if fault.kind == "crash":
                raise InjectedWorkerCrash(
                    f"injected crash for {canonical} on {content[:12]}"
                )
            if fault.kind in ("slow", "stall"):
                finished = cooperative_sleep(
                    fault.seconds, token=token, deadline=deadline
                )
                if fault.kind == "stall" and not finished:
                    # The stall ate the budget down to the degradation
                    # reserve (or the daemon cancelled): degrade now.
                    raise DeadlineExceeded(
                        f"injected {fault.seconds:g}s stall interrupted for "
                        f"{canonical}"
                    )
            if deadline is not None:
                deadline.check(canonical)
        prepared, warm = self._prepared_cache.get_or_prepare(instance)
        if deadline is not None:
            deadline.check(canonical)
        rng = np.random.default_rng(effective)
        cfg = config if config is not None else instance.config
        if dtype is not None:
            artifact = solver.solve_prepared_batch(
                [prepared], [rng], [cfg], dtype=dtype
            )[0]
        else:
            artifact = solver.solve_prepared(prepared, rng, cfg)
        with self._lock:
            self.solves += 1
        return artifact, warm

    def _observe_latency(self, window: str, seconds: float) -> None:
        with self._lock:
            self._latency.observe(seconds, window=window)
        obs.observe_windowed(LATENCY_METRIC, seconds, window=window)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Everything the daemon's ``/stats`` endpoint reports."""
        with self._lock:
            latency = self._latency.snapshot()
            result_cache = {
                "size": len(self._results),
                "capacity": self._result_capacity,
                "hits": self.result_hits,
                "misses": self.result_misses,
                "evictions": self.result_evictions,
            }
            counters = {
                "requests": self.requests,
                "completed": self.completed,
                "errors": self.errors,
                "rejected": self.rejected,
                "solves": self.solves,
                "degraded": self.degraded,
                "deadline_expired": self.deadline_expired,
                "deadline_timeouts": self.deadline_timeouts,
                "inflight_dedup": self.inflight_dedup,
                "coalesced_batches": self.coalesced_batches,
                "coalesced_requests": self.coalesced_requests,
                "worker_crashes": self.worker_crashes,
                "worker_restarts": self.worker_restarts,
                "quarantined": len(
                    [
                        1
                        for count in self._quarantine.values()
                        if count >= self.quarantine_after
                    ]
                ),
            }
            workers_alive = sum(1 for t in self._workers if t.is_alive())
        stats = {
            **counters,
            "queue_depth": self._queue.qsize(),
            "queue_limit": self.queue_limit,
            "coalesce_max": self.coalesce_max,
            "workers": len(self._workers),
            "workers_alive": workers_alive,
            "default_deadline_s": self.default_deadline_s,
            "degradation": self._ladder is not None,
            "result_cache": result_cache,
            "prepared_cache": self._prepared_cache.info(),
            "latency": latency,
        }
        if self._breaker is not None:
            stats["breaker"] = self._breaker.snapshot()
        if self._injector is not None:
            stats["faults"] = self._injector.stats()
        return stats

    def clear_result_cache(self) -> None:
        with self._lock:
            self._results.clear()

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Stop accepting new work; wait for queued + in-flight requests.

        Returns ``True`` when everything finished inside ``timeout_s``.
        The engine stays alive (stats remain readable) — call
        :meth:`close` afterwards for the final teardown.  The graceful
        SIGTERM path of ``repro-haste serve`` is: stop the listener,
        ``drain(deadline)``, ``close()``, exit 0.
        """
        self._draining = True
        end = time.monotonic() + max(0.0, float(timeout_s))
        # `unfinished_tasks` counts puts not yet matched by task_done(),
        # which workers call only after fully answering a request — so a
        # dequeued-but-executing item still counts, with no window where
        # the engine looks idle mid-request.
        q = self._queue
        with q.all_tasks_done:
            while q.unfinished_tasks:
                remaining = end - time.monotonic()
                if remaining <= 0.0:
                    return False
                q.all_tasks_done.wait(remaining)
        return True

    def close(self, *, wait: bool = True) -> None:
        """Stop accepting work and (optionally) join the workers."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._supervisor is not None and wait:
            self._supervisor.join(timeout=5)
        with self._lock:
            workers = list(self._workers)
        for _ in workers:
            self._queue.put(_SHUTDOWN)
        if wait:
            for t in workers:
                t.join(timeout=30)

    def __enter__(self) -> "ScheduleEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
