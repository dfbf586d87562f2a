"""The asyncio HTTP front-end: ``python -m repro serve``.

Routes:

* ``POST /v1/jobs`` — submit a job spec (:mod:`repro.service.jobspec`);
  the response is an NDJSON event stream (or SSE with
  ``Accept: text/event-stream``): ``accepted``, ``scheduled``,
  ``progress``, ``phase`` (per-epoch :class:`PhaseSample` when the
  spec sets ``epoch``), ``result`` (with an ETag-style validator), and
  ``error`` events, ending with one ``done`` summary line.
* ``GET /healthz`` — liveness + schema version.
* ``GET /metrics`` — queue depth, in-flight jobs, store hit ratio,
  shed counts, connection and request counts, cumulative executor
  stats.

One connection carries requests until a response cannot be framed by
``Content-Length``, the client asks to close (``Connection: close``
or HTTP/1.0), a request is malformed, or the daemon shuts down. A
submission whose every key is already in the store is answered with
one ``Content-Length`` NDJSON body in a single write; any submission
with queued or deduplicated keys, and every SSE request, streams
close-delimited events instead.

Overload degrades gracefully instead of falling over: per-client
token buckets answer ``429 Too Many Requests`` and a full admission
queue answers ``503 Service Unavailable``, both with ``Retry-After``.
Error payloads mirror the CLI exit-code contract (config = 2,
execution = 3, verification = 4; see ``docs/robustness.md``). With
``--verify-fraction`` a sample of computed jobs is shadow-verified on
the reference engine; ``verify`` events appear on the stream and
``verified`` / ``verify_mismatches`` counters in ``/metrics``.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set

from repro.errors import ConfigError
from repro.exec.executor import Executor
from repro.exec.jobs import RESULT_SCHEMA_VERSION
from repro.exec.store import ResultStore
from repro.service import protocol
from repro.service.jobspec import expand_spec
from repro.service.ratelimit import RateLimiter
from repro.service.scheduler import JobManager, Overloaded, Subscription
from repro.verify.shadow import DEFAULT_VERIFY_ENGINE, VERIFY_ENGINES

#: The service's default port: "ACRD" on a phone keypad would be nice,
#: but 8765 is memorable and unprivileged.
DEFAULT_PORT = 8765


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    jobs: int = 1
    retries: int = 1
    timeout: Optional[float] = None
    results_dir: Optional[str] = None
    use_store: bool = True
    max_pending: int = 256
    rate: float = 5.0  # submissions per second per client
    burst: float = 10.0
    max_body: int = protocol.MAX_BODY_BYTES
    resume: bool = True
    verify_fraction: float = 0.0  # shadow-verify this share of computed jobs
    verify_engine: str = DEFAULT_VERIFY_ENGINE

    def __post_init__(self):
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if not 0 <= self.port <= 65535:
            raise ConfigError(f"port must be in [0, 65535], got {self.port}")
        if self.max_body < 1024:
            raise ConfigError(
                f"max_body must be >= 1024, got {self.max_body}"
            )
        if not 0.0 <= self.verify_fraction <= 1.0:
            raise ConfigError(
                f"verify_fraction must be in [0, 1], "
                f"got {self.verify_fraction}"
            )
        if self.verify_engine not in VERIFY_ENGINES:
            raise ConfigError(
                f"verify_engine must be one of {', '.join(VERIFY_ENGINES)}, "
                f"got {self.verify_engine!r}"
            )


class SweepService:
    """A long-lived daemon serving simulations over HTTP."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        store = (
            ResultStore(config.results_dir) if config.use_store else None
        )
        executor = Executor(
            jobs=config.jobs,
            store=store,
            retries=config.retries,
            timeout=config.timeout,
            verify_fraction=config.verify_fraction,
            verify_engine=config.verify_engine,
        )
        self.manager = JobManager(
            executor,
            store,
            max_pending=config.max_pending,
            journal_batches=config.use_store,
        )
        self.limiter = RateLimiter(config.rate, config.burst)
        self._server: Optional[asyncio.AbstractServer] = None
        # Connections waiting for their next request: close() ends them
        # rather than waiting on clients that keep them pooled.
        self._idle: Set[asyncio.StreamWriter] = set()
        self._closing = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind, resume journaled work, and begin accepting clients."""
        self.manager.start()
        if self.config.resume:
            resumed = self.manager.resume_pending()
            if resumed:
                print(
                    f"resuming {resumed} journaled job(s) from a previous "
                    "daemon instance",
                    file=sys.stderr,
                )
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )

    @property
    def port(self) -> int:
        """The bound port (useful when configured with port 0)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._closing = True
            self._server.close()
            for writer in list(self._idle):
                writer.close()
            await self._server.wait_closed()
            self._server = None
        await self.manager.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # -- request handling --------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        counters = self.manager.counters
        counters["connections"] += 1
        try:
            while not self._closing:
                self._idle.add(writer)
                try:
                    request = await protocol.read_request(
                        reader, max_body=self.config.max_body
                    )
                finally:
                    self._idle.discard(writer)
                if request is None:
                    return
                counters["requests"] += 1
                keep_alive = request.keep_alive and not self._closing
                if not await self._route(request, writer, keep_alive):
                    return
        except protocol.ProtocolError as exc:
            # The request stream may be out of step: answer and close.
            try:
                await protocol.send_error(
                    writer, exc.status, str(exc), kind="config"
                )
            except (ConnectionError, OSError):
                pass
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _client_key(self, writer) -> str:
        peer = writer.get_extra_info("peername")
        if isinstance(peer, (tuple, list)) and peer:
            return str(peer[0])
        return str(peer)

    async def _route(
        self, request: protocol.Request, writer, keep_alive: bool
    ) -> bool:
        """Answer one request; True if the connection stays open."""
        if request.path in ("/healthz", "/health", "/metrics"):
            if request.method != "GET":
                await protocol.send_error(
                    writer, 405, "use GET", kind="config",
                    keep_alive=keep_alive,
                )
            elif request.path == "/metrics":
                await protocol.send_json(
                    writer, 200, self.manager.metrics(),
                    keep_alive=keep_alive,
                )
            else:
                await protocol.send_json(writer, 200, {
                    "status": "ok",
                    "schema_version": RESULT_SCHEMA_VERSION,
                    "uptime_seconds":
                        self.manager.metrics()["uptime_seconds"],
                    "inflight": len(self.manager._inflight),
                }, keep_alive=keep_alive)
            return keep_alive
        if request.path == "/v1/jobs":
            if request.method != "POST":
                await protocol.send_error(
                    writer, 405, "POST a job spec", kind="config",
                    keep_alive=keep_alive,
                )
                return keep_alive
            return await self._submit(request, writer, keep_alive)
        await protocol.send_error(
            writer, 404,
            f"no such endpoint {request.path!r}; "
            "try POST /v1/jobs, GET /healthz, GET /metrics",
            kind="config", keep_alive=keep_alive,
        )
        return keep_alive

    async def _submit(
        self, request: protocol.Request, writer, keep_alive: bool
    ) -> bool:
        allowed, wait = self.limiter.check(self._client_key(writer))
        if not allowed:
            self.manager.counters["shed_rate_limited"] += 1
            await protocol.send_error(
                writer, 429,
                "per-client rate limit exceeded",
                kind="execution", retryable=True, retry_after=wait,
                keep_alive=keep_alive,
            )
            return keep_alive
        try:
            spec = request.json()
            keys, labels, workloads = expand_spec(spec)
        except (protocol.ProtocolError, ConfigError) as exc:
            await protocol.send_error(
                writer, 400, str(exc), kind="config", keep_alive=keep_alive
            )
            return keep_alive
        try:
            sub = self.manager.submit(keys)
        except Overloaded as exc:
            await protocol.send_error(
                writer, 503, str(exc),
                kind="execution", retryable=True,
                retry_after=exc.retry_after, keep_alive=keep_alive,
            )
            return keep_alive

        accepted = {
            "event": "accepted",
            "schema_version": RESULT_SCHEMA_VERSION,
            "keys": len(sub.remaining) + sub.counts["cached"],
            "designs": labels,
            "workloads": workloads,
            "counts": dict(sub.counts),
        }
        if not sub.remaining and not request.wants_sse:
            # Fully warm: every event is already settled in the queue.
            sub.closed = True
            events = [accepted]
            while not sub.queue.empty():
                event = sub.queue.get_nowait()
                if event is not None:
                    events.append(event)
            events.append(self._done_event(sub))
            await protocol.send_events(writer, events, keep_alive=keep_alive)
            return keep_alive

        stream = protocol.EventStream(writer, sse=request.wants_sse)
        try:
            await stream.start()
            await stream.send(accepted)
            while True:
                event = await sub.queue.get()
                if event is None:
                    break
                await stream.send(event)
            await stream.send(self._done_event(sub))
        except (ConnectionError, OSError):
            pass  # client disconnected mid-stream; computation continues
        finally:
            sub.closed = True
            await stream.close()
        return False

    @staticmethod
    def _done_event(sub: Subscription) -> Dict[str, Any]:
        return {
            "event": "done",
            "counts": dict(sub.counts),
            "failed": sub.counts["failed"],
        }


async def run_service(config: ServiceConfig) -> None:
    """Run the daemon until SIGINT/SIGTERM; used by ``repro serve``."""
    service = SweepService(config)
    await service.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, ValueError):
            pass  # platforms/threads without signal support
    print(
        f"repro sweep service listening on "
        f"http://{config.host}:{service.port} "
        f"(jobs={config.jobs}, "
        f"store={'on' if config.use_store else 'off'})",
        file=sys.stderr,
    )
    try:
        await stop.wait()
    finally:
        await service.close()


__all__ = [
    "DEFAULT_PORT",
    "ServiceConfig",
    "SweepService",
    "run_service",
]
