"""Blocking client for the sweep service: ``python -m repro submit``.

Stdlib-only (``http.client``). The client expands the job spec with
the *same* :func:`~repro.service.jobspec.expand_spec` the server uses,
so it knows each key's digest up front and can map streamed ``result``
events back onto (design label, workload) cells without any extra
round-trip — which is also what makes the submitted sweep bit-identical
to the CLI path: same keys, same store slots, same result payloads.
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ExecutionError, ReproError
from repro.service.server import DEFAULT_PORT

#: Called with each streamed event dict as it arrives.
EventFn = Callable[[Dict[str, Any]], None]


class ServiceError(ReproError):
    """The service answered with an error payload (or malformed HTTP).

    ``status`` is the HTTP status (0 when the failure was transport
    level), ``payload`` the decoded error body when there was one, and
    ``retry_after`` the service's backoff hint in seconds, if any.
    """

    def __init__(
        self,
        message: str,
        status: int = 0,
        payload: Optional[Dict[str, Any]] = None,
        retry_after: Optional[float] = None,
    ):
        super().__init__(message)
        self.status = status
        self.payload = payload or {}
        self.retry_after = retry_after

    @property
    def exit_code(self) -> int:
        """The CLI exit code this error maps to (2 config, 3 execution)."""
        error = self.payload.get("error", {})
        code = error.get("exit_code")
        if isinstance(code, int):
            return code
        return 2 if self.status == 400 else 3


class ServiceClient:
    """Talks to one daemon over a pool of keep-alive connections.

    A call takes an idle connection from the pool (or opens one) and
    gives it back once its response, framed by ``Content-Length``, is
    read to the end; close-delimited streams and ``Connection: close``
    answers end their connection. The pool is shared by every thread
    using the client. A pooled connection the daemon has since closed
    fails before any status line arrives; that request is sent once
    more on a fresh connection, which is safe because submissions are
    content-addressed and deduplicated. Nothing is retried once a
    response has begun. :meth:`close` drops the idle connections.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float = 300.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._idle: List[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def _exchange(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        """Send one request; the connection and its response's head."""
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is not None:
            try:
                return conn, self._send(conn, method, path, body, headers)
            except (ConnectionResetError, BrokenPipeError):
                pass  # RemoteDisconnected too: dropped while idle; resend
        conn = self._connect()
        return conn, self._send(conn, method, path, body, headers)

    @staticmethod
    def _send(conn, method, path, body, headers) -> http.client.HTTPResponse:
        try:
            conn.request(method, path, body=body, headers=headers or {})
            return conn.getresponse()
        except BaseException:
            conn.close()
            raise

    def _release(
        self,
        conn: http.client.HTTPConnection,
        response: http.client.HTTPResponse,
    ) -> None:
        """Pool ``conn`` if its finished response allows reuse, else close."""
        if (
            response.isclosed()
            and not response.will_close
            and response.getheader("Content-Length") is not None
        ):
            with self._lock:
                self._idle.append(conn)
        else:
            response.close()
            conn.close()

    def close(self) -> None:
        """Close every pooled connection (the client stays usable)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _get_json(self, path: str) -> Dict[str, Any]:
        try:
            conn, response = self._exchange("GET", path)
        except OSError as exc:
            raise ServiceError(
                f"cannot reach service at {self.host}:{self.port}: {exc}"
            ) from exc
        try:
            body = response.read()
        except (OSError, http.client.HTTPException) as exc:
            response.close()
            conn.close()
            raise ServiceError(
                f"GET {path} broke mid-response: {exc}"
            ) from exc
        self._release(conn, response)
        try:
            payload = json.loads(body.decode("utf-8"))
        except ValueError as exc:
            raise ServiceError(
                f"GET {path} answered malformed JSON: {exc}",
                status=response.status,
            ) from exc
        if response.status != 200:
            raise ServiceError(
                f"GET {path} failed with {response.status}",
                status=response.status, payload=payload,
            )
        return payload

    def health(self) -> Dict[str, Any]:
        return self._get_json("/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._get_json("/metrics")

    def stream_job(self, spec: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
        """Submit a spec; yield each streamed event dict until ``done``.

        Raises :class:`ServiceError` on 4xx/5xx (429/503 carry the
        service's ``Retry-After`` hint) and on transport failures; a
        stream that ends without a ``done`` event raises too, so a
        caller can never mistake a truncated stream for success.
        """
        body = json.dumps(spec).encode("utf-8")
        try:
            conn, response = self._exchange(
                "POST", "/v1/jobs", body=body,
                headers={"Content-Type": "application/json"},
            )
        except OSError as exc:
            raise ServiceError(
                f"cannot reach service at {self.host}:{self.port}: {exc}"
            ) from exc
        released = False
        try:
            if response.status != 200:
                raw = response.read()
                self._release(conn, response)
                released = True
                try:
                    payload = json.loads(raw.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    payload = {}
                retry_after = None
                header = response.getheader("Retry-After")
                if header is not None:
                    try:
                        retry_after = float(header)
                    except ValueError:
                        pass
                message = (
                    payload.get("error", {}).get("message")
                    or f"service answered {response.status}"
                )
                raise ServiceError(
                    message, status=response.status, payload=payload,
                    retry_after=retry_after,
                )
            saw_done = False
            while True:
                try:
                    line = response.readline()
                except OSError as exc:
                    raise ServiceError(
                        f"stream broke mid-response: {exc}"
                    ) from exc
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                if line.startswith(b"data:"):  # SSE framing
                    line = line[len(b"data:"):].strip()
                try:
                    event = json.loads(line.decode("utf-8"))
                except (ValueError, UnicodeDecodeError) as exc:
                    raise ServiceError(
                        f"malformed event line from service: {exc}"
                    ) from exc
                yield event
                if event.get("event") == "done":
                    saw_done = True
                    break
            if not saw_done:
                raise ServiceError(
                    "stream ended before the service's 'done' event"
                )
            if not response.will_close:
                response.read()  # mark the framed body consumed
            self._release(conn, response)
            released = True
        finally:
            if not released:
                response.close()
                conn.close()

    def submit(
        self,
        spec: Dict[str, Any],
        on_event: Optional[EventFn] = None,
    ) -> Dict[str, Dict[str, Any]]:
        """Submit and collect: digest → ``result`` event for every key.

        ``on_event`` (if given) observes every streamed event —
        progress lines, per-epoch phases — while results accumulate.
        An ``error`` event raises :class:`ExecutionError` after the
        stream drains, carrying the service's message.
        """
        results: Dict[str, Dict[str, Any]] = {}
        errors = []
        for event in self.stream_job(spec):
            if on_event is not None:
                on_event(event)
            if event.get("event") == "result":
                results[event["key"]] = event
            elif event.get("event") == "error":
                errors.append(event)
        if errors:
            first = errors[0].get("error", {})
            raise ExecutionError(
                f"{len(errors)} job(s) failed on the service: "
                f"{first.get('message', 'unknown error')}"
            )
        return results


__all__ = ["EventFn", "ServiceClient", "ServiceError"]
