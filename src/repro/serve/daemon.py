"""The scheduling daemon: a long-lived asyncio HTTP/JSON front end.

Stdlib only — no FastAPI/aiohttp in the toolchain — so the daemon speaks
a deliberately small slice of HTTP/1.1 over ``asyncio.start_server``:
one request per connection, JSON bodies, ``Connection: close``.  The
shape follows the edge-EMS controller split the ROADMAP cites: the
:class:`~repro.serve.engine.ScheduleEngine` is the controller + thread
manager (queue, workers, caches), this module is the thin API listener,
and :mod:`repro.serve.protocol` is the schema layer.

Routes:

==============  ====================================================
``GET /healthz``   liveness + kernel mode
``GET /solvers``   every registered solver with capability summary
``GET /stats``     engine counters, cache stats, latency percentiles
``POST /solve``    solve request (see :mod:`repro.serve.protocol`)
==============  ====================================================

Status mapping: malformed body / unknown solver / bad params → 400,
unknown route → 404, wrong method → 405, bounded queue full (or breaker
open, or draining) → 503, deadline exhausted with degradation off → 504,
worker crash / quarantine / anything unexpected in the solver → 500.
Responses to ``/solve`` include the artifact's content hash so replay
harnesses can assert bit-identity without re-parsing arrays.

Resilience (DESIGN.md §13): every ``/solve`` with a deadline is guarded
by an **asyncio watchdog** — if the engine future outlives the budget
plus a small grace (a worker stuck in non-cooperative code), the daemon
cancels the request's token, records the timeout against the spec's
circuit breaker, and re-submits in degrade-only mode so the client still
gets a valid (tagged) schedule.  :meth:`ServeDaemon.begin_drain` flips
the daemon into drain mode: new ``/solve`` requests get 503 while
in-flight ones finish — the graceful-SIGTERM path of ``repro-haste
serve``.
"""

from __future__ import annotations

import asyncio
import json
import threading

from .. import obs
from ..solvers.registry import REGISTRY, SolverError, get_solver
from ..solvers.spec import SpecError
from .engine import EngineBusy, EngineClosed, ScheduleEngine
from .protocol import ProtocolError, parse_solve_request, solve_response
from .resilience import (
    BreakerOpen,
    DeadlineExceeded,
    RequestQuarantined,
    WorkerCrashed,
)

__all__ = [
    "ServeDaemon",
    "DaemonHandle",
    "configure_telemetry",
    "start_in_thread",
]

#: Hard cap on request bodies (64 MiB ≈ a few-hundred-thousand-task
#: instance in JSON) — beyond this the daemon refuses rather than buffer.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Telemetry records (spans and events) the daemon keeps in memory.
#: Nothing drains the daemon's sink, so it holds only the newest ones;
#: ``/stats`` reads the registry's aggregates, not these records.
TELEMETRY_RECORDS = 4096

#: Watchdog slack past the request budget before the daemon intervenes —
#: the engine's cooperative checks normally finish well inside this.
WATCHDOG_GRACE_S = 0.25

#: How long the degrade-only watchdog resubmission may take before the
#: daemon gives up with 504 (fallback rungs are near-instant greedy runs).
WATCHDOG_RETRY_S = 10.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def configure_telemetry() -> obs.MetricRegistry:
    """Enable telemetry for a long-running daemon, with bounded memory."""
    return obs.configure(sink=obs.RingSink(TELEMETRY_RECORDS))


def _kernel_mode() -> str:
    from ..online import _ckernel

    return "compiled" if _ckernel.load() is not None else "numpy"


def _response_bytes(status: int, payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode()
    return head + body


class ServeDaemon:
    """One listening socket over one :class:`ScheduleEngine`."""

    def __init__(
        self,
        engine: ScheduleEngine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        default_spec: str = "haste-offline",
    ) -> None:
        # A bad default spec should fail at boot, not on the first request.
        get_solver(default_spec)
        self.engine = engine
        self.host = host
        self.port = int(port)
        self.default_spec = default_spec
        self._server: asyncio.AbstractServer | None = None
        self._draining = False

    def begin_drain(self) -> None:
        """Stop accepting new ``/solve`` work (503) while in-flight
        requests finish — step one of the graceful-shutdown ladder."""
        self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        """Bind the socket (resolves ``port=0`` to the chosen port)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await self._respond(reader)
            writer.write(_response_bytes(status, payload))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, reader: asyncio.StreamReader) -> tuple[int, dict]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) < 2:
            return 400, {"error": f"malformed request line {request_line!r}"}
        method, path = parts[0].upper(), parts[1].split("?", 1)[0]

        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

        raw_length = headers.get("content-length", "").strip() or "0"
        try:
            length = int(raw_length)
        except ValueError:
            return 400, {"error": f"invalid Content-Length {raw_length!r}"}
        if length < 0:
            return 400, {"error": f"invalid Content-Length {raw_length!r}"}
        if length > MAX_BODY_BYTES:
            return 413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}
        body = await reader.readexactly(length) if length else b""

        if method == "GET":
            return self._get(path)
        if method == "POST":
            if path != "/solve":
                return 404, {"error": f"unknown path {path!r}"}
            return await self._solve(body)
        return 405, {"error": f"method {method} not allowed"}

    def _get(self, path: str) -> tuple[int, dict]:
        if path == "/healthz":
            return 200, {
                "status": "draining" if self._draining else "ok",
                "kernel": _kernel_mode(),
                "default_spec": self.default_spec,
            }
        if path == "/solvers":
            solvers = {
                name: {
                    "summary": REGISTRY.entry(name).capabilities.summary(),
                    "description": REGISTRY.entry(name).capabilities.description,
                    "defaults": {
                        k: v for k, v in REGISTRY.entry(name).defaults.items()
                    },
                }
                for name in REGISTRY.names()
            }
            return 200, {"solvers": solvers}
        if path == "/stats":
            return 200, self.engine.stats()
        return 404, {"error": f"unknown path {path!r}"}

    async def _solve(self, body: bytes) -> tuple[int, dict]:
        if self._draining:
            return 503, {"error": "daemon is draining; retry elsewhere"}
        try:
            payload = json.loads(body or b"null")
        except json.JSONDecodeError as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}
        try:
            request = parse_solve_request(payload, default_spec=self.default_spec)
            get_solver(request.spec)  # reject bad specs before queueing
        except ProtocolError as exc:
            return 400, {"error": str(exc)}
        except (SpecError, SolverError) as exc:
            return 400, {"error": str(exc)}
        try:
            fut = self.engine.submit(
                request.spec,
                request.instance,
                seed=request.seed,
                deadline_s=request.deadline_s,
                degrade=request.degrade,
            )
        except (EngineBusy, EngineClosed) as exc:
            return 503, {"error": str(exc)}

        budget = (
            request.deadline_s
            if request.deadline_s is not None
            else self.engine.default_deadline_s
        )
        watchdog = (
            budget + max(WATCHDOG_GRACE_S, 0.25 * budget)
            if budget is not None
            else None
        )
        try:
            result = await asyncio.wait_for(asyncio.wrap_future(fut), watchdog)
        except asyncio.TimeoutError:
            # The worker blew past the budget *and* the grace — it is stuck
            # in non-cooperative code.  Cancel the token (wakes any
            # cooperative wait), charge the spec's breaker, and answer from
            # the degradation ladder on a fresh submission.
            token = getattr(fut, "cancel_token", None)
            if token is not None:
                token.cancel()
            self.engine.note_deadline_timeout(request.spec)
            return await self._solve_watchdogged(request)
        except DeadlineExceeded as exc:
            return 504, {"error": str(exc)}
        except (BreakerOpen, EngineClosed) as exc:
            return 503, {"error": str(exc)}
        except (WorkerCrashed, RequestQuarantined) as exc:
            return 500, {"error": str(exc)}
        except (SpecError, SolverError) as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive 500
            return 500, {"error": f"{type(exc).__name__}: {exc}"}
        return 200, solve_response(result)

    async def _solve_watchdogged(self, request) -> tuple[int, dict]:
        """Degrade-only retry after a watchdog expiry (or 504/500)."""
        if not request.degrade:
            return 504, {
                "error": (
                    f"request for {request.spec!r} exceeded its "
                    f"{request.deadline_s!r}s deadline (degradation disabled)"
                )
            }
        try:
            # skip_primary also bypasses the engine's result cache and
            # single-flight dedup — the retry's idempotency key matches
            # the wedged request it replaces, and following that leader
            # would block forever — and carries its own bounded deadline.
            fut = self.engine.submit(
                request.spec,
                request.instance,
                seed=request.seed,
                deadline_s=WATCHDOG_RETRY_S,
                skip_primary=True,
                degrade_reason="watchdog",
            )
        except (EngineBusy, EngineClosed) as exc:
            return 503, {"error": str(exc)}
        try:
            result = await asyncio.wait_for(
                asyncio.wrap_future(fut), WATCHDOG_RETRY_S
            )
        except asyncio.TimeoutError:
            return 504, {
                "error": (
                    f"request for {request.spec!r} timed out even on the "
                    f"degradation ladder"
                )
            }
        except Exception as exc:
            return 500, {"error": f"{type(exc).__name__}: {exc}"}
        return 200, solve_response(result)


class DaemonHandle:
    """A daemon running on a background thread (tests, benchmarks, CLI)."""

    def __init__(self, daemon: ServeDaemon, loop, thread: threading.Thread):
        self.daemon = daemon
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.daemon.host

    @property
    def port(self) -> int:
        return self.daemon.port

    def stop(self) -> None:
        """Stop the server and join the thread (idempotent)."""
        if self._thread.is_alive():
            async def _shutdown():
                await self.daemon.stop()
                self._loop.stop()

            self._loop.call_soon_threadsafe(asyncio.ensure_future, _shutdown())
            self._thread.join(timeout=10)

    def __enter__(self) -> "DaemonHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_in_thread(
    engine: ScheduleEngine,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    default_spec: str = "haste-offline",
) -> DaemonHandle:
    """Boot a daemon on its own event-loop thread and wait until bound."""
    daemon = ServeDaemon(
        engine, host=host, port=port, default_spec=default_spec
    )
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    boot_error: list[BaseException] = []

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(daemon.start())
        except BaseException as exc:  # bind failures surface to the caller
            boot_error.append(exc)
            ready.set()
            return
        ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=_run, name="serve-daemon", daemon=True)
    thread.start()
    ready.wait(timeout=30)
    if boot_error:
        raise boot_error[0]
    return DaemonHandle(daemon, loop, thread)
