"""The warm-state scheduling engine: queue, workers, caches, resilience.

:class:`ScheduleEngine` is the serving core the daemon (and the traffic
harness) sit on.  One engine holds:

* a **bounded request queue** — submissions beyond ``queue_limit`` are
  rejected immediately with :class:`EngineBusy` (the daemon maps that to
  HTTP 503), so a burst degrades to fast refusals instead of unbounded
  memory growth;
* a **worker pool** of threads, each resolving spec strings locally via
  :func:`~repro.solvers.registry.get_solver`; a worker that a request
  kills starts its replacement before that request is answered, and a
  **supervisor** thread restarts workers that die any other way (both
  counted in ``serve.worker_restarts``) — a request that kills a worker
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

Every request takes one pipeline (DESIGN.md §12); a solo request is a
group of one:

1. **Admit** — each gate once, in this order: result-cache hit
   (answered at once), single-flight (an identical request in flight
   makes this one its follower), quarantine, deadline, circuit breaker.
2. **Group** — only when the admitted request needs a solve on a
   solver registered with a batched kernel (``batch_fn``), the worker
   drains up to ``coalesce_max - 1`` queued items and admits each
   through the same gates.  Those sharing the leader's canonical spec
   and dtype join its group; the others are served afterwards as groups
   of their own, without draining again.
3. **Solve** — one call per group: a group of one calls
   ``solve_prepared`` (``solve_prepared_batch([p], dtype=float32)`` for
   a float32 request), a larger group ``solve_prepared_batch``, which is
   bit-identical at float64 (pinned by ``tests/test_serve.py``).  If a
   larger group fails, each member is retried as a group of one.
4. **Finish** — per member: breaker, result cache, latency, reply.
   Requests a gate tripped then walk the degradation ladder, and
   followers take their leader's answer.

Only ``ServeResult.coalesced`` and the ``coalesced_batches``/
``coalesced_requests`` counters reveal a group larger than one.
``submit(dtype=np.float32)`` opts a request into the single-precision
batched kernel (DESIGN.md §14); float32 results are cached under a
*distinct* result-cache key so they can never answer a float64 request.

Resilience (DESIGN.md §13) threads through the pipeline:

* **deadlines** — a per-request monotonic :class:`~repro.serve.
  resilience.Deadline` checked cooperatively at phase seams (admission,
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
  suite — it disables grouping, so recorded traces replay unchanged,
  and a null (or absent) model leaves every request on the exact
  healthy path, bit for bit.

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


class _Request:
    """One dequeued submission on its way through the pipeline.

    :meth:`ScheduleEngine._admit` resolves the solver, content hash,
    effective seed and idempotency key.  A pending request then carries
    at most one of ``reason`` (walk the degradation ladder) and
    ``leader`` (take an in-flight request's answer); with neither it is
    owed a solve.
    """

    __slots__ = (
        "fut", "job", "enqueued", "pending", "queued_s", "solver",
        "canonical", "content", "effective", "key", "cacheable", "reason",
        "leader",
    )

    def __init__(self, fut: Future, job: _Job, enqueued: float) -> None:
        self.fut, self.job, self.enqueued = fut, job, enqueued
        #: still owed an answer by this worker
        self.pending = True
        self.key: tuple | None = None
        self.reason: str | None = None
        self.leader: Future | None = None

    @property
    def solving(self) -> bool:
        return self.pending and self.reason is None and self.leader is None


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
        self._results: OrderedDict[tuple, RunArtifact] = OrderedDict()
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
            if item is _SHUTDOWN:
                self._queue.task_done()
                return
            reqs = [_Request(*item)]
            try:
                exit_after = self._serve(reqs)
            finally:
                with self._lock:
                    for req in reqs:
                        if self._inflight.get(req.key) is req.fut:
                            del self._inflight[req.key]
                for _ in reqs:
                    self._queue.task_done()
                obs.set_gauge("serve.queue_depth", self._queue.qsize())
            if exit_after:
                return

    def _note_poison(self, req: _Request, exc: BaseException) -> None:
        """Handle a request that killed its worker (quarantine + answer).

        The dying worker hands its slot to a replacement *before* the
        request is answered, so the pool is back at full strength by the
        time the caller hears of the crash; the supervisor restarts
        threads that die any other way.
        """
        self._replace_worker(threading.current_thread())
        job, key = req.job, req.key
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
                    req.fut.set_exception(err)
                else:
                    req.fut.set_result(done.result())

            retry_fut.add_done_callback(_bridge)
            try:
                self._queue.put_nowait((retry_fut, retry_job, req.enqueued))
                return
            except queue.Full:
                pass
        req.fut.set_exception(crash_error)

    def _supervise_loop(self) -> None:
        interval = max(0.01, self.supervision_interval_s)
        while not self._stop.wait(interval):
            if self._closed:
                return
            with self._lock:
                dead = [t for t in self._workers if not t.is_alive()]
            for t in dead:
                self._replace_worker(t)

    def _replace_worker(self, old: threading.Thread) -> None:
        """Start a fresh worker thread in ``old``'s slot (not once closed).

        The replacement starts under the lock, so the other replacer
        (the dying worker or the supervisor) never sees a not-yet-started
        thread in the pool, takes it for dead and starts a second one
        that ``close()`` would never stop.
        """
        with self._lock:
            if self._closed or old not in self._workers:
                return
            replacement = threading.Thread(
                target=self._worker_loop, name=old.name, daemon=True
            )
            replacement.start()
            self._workers[self._workers.index(old)] = replacement
            self.worker_restarts += 1
        obs.inc("serve.worker_restarts")
        obs.event("serve.worker_restart", level="warning", worker=old.name)

    # ------------------------------------------------------------------
    # The request pipeline: admit → group → solve → finish
    # ------------------------------------------------------------------
    def _serve(self, reqs: list[_Request]) -> bool:
        """Answer ``reqs[0]`` and the group it may drain behind it.

        Drained items are appended to ``reqs``; the caller owes each a
        ``task_done``.  Returns whether this worker must exit afterwards:
        a request killed it, or the drain took a ``_SHUTDOWN`` sentinel.
        """
        died = self._settle(reqs[0], self._admit)
        shutdown = False
        if reqs[0].solving and self._groupable(reqs[0]):
            drained, shutdown = self._drain()
            for item in drained:
                reqs.append(_Request(*item))
                died |= self._settle(reqs[-1], self._admit)
        # Members sharing the leader's canonical spec and dtype solve in
        # its group; the others form groups of their own, without
        # draining again.
        groups: dict = {}
        for req in reqs:
            if req.solving:
                same = (req.canonical, req.job.dtype)
                groups.setdefault(
                    same if self._groupable(req) else req, []
                ).append(req)
        for group in groups.values():
            died |= self._solve_group(group)
        for req in reqs:
            if req.pending and req.reason is not None:
                died |= self._settle(req, self._solve_degraded)
        # Followers last: every member is answered before any follower
        # waits, and followers own no key, so no two workers can wait on
        # each other.  Followers of a group member go first — that member
        # is answered already, so the worker never waits on itself.
        followers = [r for r in reqs if r.pending and r.leader is not None]
        for req in sorted(followers, key=lambda r: not r.leader.done()):
            died |= self._settle(req, self._await_leader)
        return died or shutdown

    def _settle(self, req: _Request, step) -> bool:
        """Run one pipeline ``step`` for ``req`` and answer its outcome.

        A returned :class:`ServeResult` answers the request; ``None``
        leaves it to a later step.  An exception answers it as an
        error.  A worker-killing crash (a ``BaseException``) answers or
        requeues it via :meth:`_note_poison`, which also starts this
        worker's replacement, and returns True: the worker exits once
        its other requests are answered.
        """
        died = False
        try:
            result = step(req)
            if result is None:
                return False
            req.fut.set_result(result)
        except Exception as exc:
            with self._lock:
                self.errors += 1
            obs.inc("serve.errors")
            req.fut.set_exception(exc)
        except BaseException as exc:
            self._note_poison(req, exc)
            died = True
        req.pending = False
        return died

    def _admit(self, req: _Request) -> ServeResult | None:
        """Admit: run one request through every gate, each written once.

        Returns the reply for a result-cache hit.  Otherwise ``req`` is
        left following an in-flight leader (``req.leader``), tripped to
        the degradation ladder (``req.reason``), or owed a solve; a gate
        that refuses a request with degradation off raises its typed
        error.
        """
        if not req.fut.set_running_or_notify_cancel():
            req.pending = False  # cancelled while queued
            return None
        job, instance = req.job, req.job.instance
        req.queued_s = time.perf_counter() - req.enqueued
        # Spec strings resolve in the worker (sim/runner.py's pattern) —
        # the canonical form is also the result-cache key component.
        req.solver = get_solver(job.spec)
        req.canonical = canonical = req.solver.canonical()
        req.content = content = instance.content_hash()
        req.effective = job.seed if job.seed is not None else instance.seed
        req.key = key = self._result_key(
            content, canonical, req.effective, job.dtype
        )
        # A degrade-only resubmission (worker crash / daemon watchdog)
        # bypasses the result cache *and* single-flight dedup: its key is
        # the very request it replaces, so following that (possibly
        # wedged) leader would block instead of degrading.
        req.cacheable = (
            job.use_result_cache
            and req.effective is not None
            and not job.skip_primary
        )
        if req.cacheable:
            # Result cache, then single-flight in the same lock round:
            # concurrent identical seeded requests collapse onto one
            # execution — the idempotency guarantee retrying clients rely
            # on (no request is ever double-executed).
            with self._lock:
                hit = self._results.get(key)
                if hit is not None:
                    self._results.move_to_end(key)
                    self.result_hits += 1
                    self.completed += 1
                else:
                    self.result_misses += 1
                    leader = self._inflight.get(key)
                    if leader is None or leader.done():
                        self._inflight[key] = req.fut
                    else:
                        req.leader = leader
            if hit is not None:
                obs.inc("serve.result_cache_hits")
                self._observe_latency(req.solver.name, req.queued_s)
                return ServeResult(
                    artifact=hit,
                    spec=canonical,
                    instance_hash=content,
                    seed=req.effective,
                    cached=True,
                    warm=True,
                    solve_s=0.0,
                    queued_s=req.queued_s,
                )
            obs.inc("serve.result_cache_misses")
            if req.leader is not None:
                return None

        deadline = job.deadline
        degradable = job.degrade and self._ladder is not None
        if job.skip_primary:
            req.reason = job.degrade_reason or "crash"
        elif self._is_quarantined(key):
            if not degradable:
                raise RequestQuarantined(
                    f"request {content[:12]}×{canonical} previously crashed "
                    f"a worker and is quarantined"
                )
            req.reason = "quarantine"
        elif deadline is not None and deadline.expired():
            with self._lock:
                self.deadline_expired += 1
            obs.inc("serve.deadline_expired")
            if not degradable:
                deadline.check(canonical)  # raises DeadlineExceeded
            req.reason = "deadline"
        elif self._breaker is not None and not self._breaker.allow(canonical):
            if not degradable:
                raise BreakerOpen(f"circuit breaker open for {canonical}")
            req.reason = "breaker"
        return None

    def _is_quarantined(self, key: tuple) -> bool:
        with self._lock:
            return self._quarantine.get(key, 0) >= self.quarantine_after

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

    def _groupable(self, req: _Request) -> bool:
        """Whether ``req`` may share one solve call with other requests.

        Only solvers registered with a batched kernel group.  Chaos runs
        (an active fault injector) and resubmissions keep the exact
        per-request path, so recorded fault traces replay unchanged.
        """
        return (
            self.coalesce_max >= 2
            and self._injector is None
            and req.job.degrade_reason is None
            and req.solver._batchable()
        )

    def _drain(self) -> tuple[list, bool]:
        """Take up to ``coalesce_max - 1`` queued items without blocking.

        Nothing is ever put back, so a full queue can never deadlock the
        drain.  A ``_SHUTDOWN`` sentinel ends it and is reported: this
        worker exits once its requests are answered (``close()`` is
        tearing down).
        """
        drained: list = []
        while len(drained) < self.coalesce_max - 1:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                self._queue.task_done()
                return drained, True
            drained.append(item)
        return drained, False

    def _solve_group(self, group: list[_Request]) -> bool:
        """Solve: one call for ``group``, then finish every member.

        A group of one makes exactly the solo call, with its deadline
        checks and fault injection.  If a larger group's call fails, the
        breaker is charged once and each member is retried as a group of
        one, where any crash is charged to the member that causes it.
        """
        if len(group) == 1:
            return self._settle(group[0], self._solve_one)
        lead = group[0]
        start = time.perf_counter()
        try:
            solved = self._solve_once(
                lead.solver, lead.canonical, group, dtype=lead.job.dtype
            )
        except BaseException as exc:
            if self._breaker is not None:
                self._breaker.record_failure(lead.canonical)
            obs.event(
                "serve.coalesce_fallback",
                level="warning",
                spec=lead.canonical,
                batch=len(group),
                error=repr(exc),
            )
            died = False
            for req in group:
                died |= self._solve_group([req])
            return died
        solve_s = time.perf_counter() - start
        with self._lock:
            self.coalesced_batches += 1
            self.coalesced_requests += len(group)
        obs.inc("serve.coalesced_batches")
        obs.inc("serve.coalesced_requests", len(group))
        for req, (artifact, warm) in zip(group, solved):
            req.fut.set_result(
                self._finish(req, artifact, warm, solve_s, coalesced=True)
            )
            req.pending = False
        return False

    def _solve_one(self, req: _Request) -> ServeResult | None:
        """A group of one; an exhausted deadline trips it to the ladder."""
        start = time.perf_counter()
        try:
            [(artifact, warm)] = self._solve_once(
                req.solver, req.canonical, [req], deadline=req.job.deadline,
                inject=True, dtype=req.job.dtype,
            )
        except DeadlineExceeded:
            if self._breaker is not None:
                self._breaker.record_failure(req.canonical)
            with self._lock:
                self.deadline_expired += 1
            obs.inc("serve.deadline_expired")
            if not (req.job.degrade and self._ladder is not None):
                raise
            req.reason = "deadline"
            return None
        except (Exception, InjectedWorkerCrash):
            if self._breaker is not None:
                self._breaker.record_failure(req.canonical)
            raise
        return self._finish(req, artifact, warm, time.perf_counter() - start)

    def _finish(
        self, req: _Request, artifact, warm, solve_s, *, coalesced=False
    ) -> ServeResult:
        """Finish one solved member: breaker, result cache, latency, reply."""
        if self._breaker is not None:
            self._breaker.record_success(req.canonical)
        with self._lock:
            if req.cacheable:
                self._results[req.key] = artifact
                while len(self._results) > self._result_capacity:
                    self._results.popitem(last=False)
                    self.result_evictions += 1
            self.completed += 1
        self._observe_latency(req.solver.name, req.queued_s + solve_s)
        return ServeResult(
            artifact=artifact,
            spec=req.canonical,
            instance_hash=req.content,
            seed=req.effective,
            cached=False,
            warm=warm,
            solve_s=solve_s,
            queued_s=req.queued_s,
            coalesced=coalesced,
        )

    def _await_leader(self, req: _Request) -> ServeResult:
        """Take an identical in-flight request's answer — waiting *bounded*.

        The wait polls instead of blocking: between polls the follower
        checks its cancel token and deadline, and a deadline-less
        follower gives up after :data:`FOLLOWER_MAX_WAIT_S`, so a wedged
        leader never pins follower worker threads along with its own.
        A stuck or cancelled wait falls through to the degradation
        ladder (typed :class:`DeadlineExceeded` when degradation is
        off).  A leader's error is the follower's error.
        """
        with self._lock:
            self.inflight_dedup += 1
        obs.inc("serve.inflight_dedup")
        deadline, token = req.job.deadline, req.job.token
        budget = (
            max(deadline.remaining(), 0.01)
            if deadline is not None
            else FOLLOWER_MAX_WAIT_S
        )
        limit = time.monotonic() + budget
        while True:
            try:
                lead: ServeResult = req.leader.result(
                    timeout=min(
                        _FOLLOWER_POLL_S,
                        max(limit - time.monotonic(), 0.001),
                    )
                )
                break
            except FutureTimeout:
                if not token.cancelled and time.monotonic() < limit:
                    continue
                req.reason = "watchdog" if token.cancelled else "deadline"
                if req.job.degrade and self._ladder is not None:
                    return self._solve_degraded(req)
                raise DeadlineExceeded(
                    f"gave up waiting on an identical in-flight request "
                    f"for {req.canonical} after {budget:.3f}s"
                ) from None
        with self._lock:
            self.completed += 1
        self._observe_latency(req.solver.name, req.queued_s)
        return ServeResult(
            artifact=lead.artifact,
            spec=lead.spec,
            instance_hash=req.content,
            seed=req.effective,
            cached=True,
            warm=True,
            solve_s=0.0,
            queued_s=req.queued_s,
            deduped=True,
            degraded=lead.degraded,
            degraded_from=lead.degraded_from,
            degrade_reason=lead.degrade_reason,
            coalesced=lead.coalesced,
        )

    def _solve_degraded(self, req: _Request) -> ServeResult:
        """Walk the ladder below ``req.canonical`` until a rung answers.

        Degraded rungs run **without** deadline checks or fault injection
        — the whole point is to return a valid schedule rather than fail,
        and the fallback rungs are cheap by construction.
        """
        canonical, reason = req.canonical, req.reason
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
                [(artifact, warm)] = self._solve_once(rung, rcanon, [req])
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
            self._observe_latency(rung.name, req.queued_s + solve_s)
            return ServeResult(
                artifact=artifact,
                spec=rcanon,
                instance_hash=req.content,
                seed=req.effective,
                cached=False,
                warm=warm,
                solve_s=solve_s,
                queued_s=req.queued_s,
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
                f"request {req.content[:12]}×{canonical} is quarantined and "
                f"no degradation rung was available"
            )
        raise BreakerOpen(f"circuit breaker open for {canonical}")

    def _solve_once(
        self, solver, canonical, reqs: list[_Request], *,
        deadline: Deadline | None = None, inject: bool = False, dtype=None,
    ) -> list[tuple[RunArtifact, bool]]:
        """One solve call for ``reqs``: fault injection, prepare, solve.

        A float64 group of one calls ``solve_prepared`` — with no
        deadline and no injector this is exactly what a direct
        ``solve_instance`` does: same call order, same rng construction
        (the daemon-vs-direct digest pins).  Anything else calls
        ``solve_prepared_batch``, bit-identical at float64; a float32
        request for a solver without a batched kernel surfaces the
        registry's SolverError.  Returns ``(artifact, warm)`` per
        request.
        """
        if deadline is not None:
            deadline.check(canonical)
        if inject and self._injector is not None:
            fault = self._injector.decide(canonical, reqs[0].content)
            if fault.kind == "crash":
                raise InjectedWorkerCrash(
                    f"injected crash for {canonical} on {reqs[0].content[:12]}"
                )
            if fault.kind in ("slow", "stall"):
                finished = cooperative_sleep(
                    fault.seconds, token=reqs[0].job.token, deadline=deadline
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
        prepared = [
            self._prepared_cache.get_or_prepare(req.job.instance)
            for req in reqs
        ]
        if deadline is not None:
            deadline.check(canonical)
        rngs = [np.random.default_rng(req.effective) for req in reqs]
        configs = [
            req.job.config if req.job.config is not None
            else req.job.instance.config
            for req in reqs
        ]
        if dtype is None and len(reqs) == 1:
            artifacts = [solver.solve_prepared(prepared[0][0], rngs[0], configs[0])]
        else:
            artifacts = solver.solve_prepared_batch(
                [p for p, _warm in prepared], rngs, configs, dtype=dtype
            )
        with self._lock:
            self.solves += len(reqs)
        return [(a, warm) for a, (_p, warm) in zip(artifacts, prepared)]

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
