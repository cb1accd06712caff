"""A small, retrying client for the ``repro serve`` daemon.

Built on :mod:`http.client` (stdlib only).  The headline behaviour is
*polite* retry: transient outcomes — 429 queue-full, 503
draining/circuit-open, refused/dropped connections — are retried with
jittered exponential backoff, honouring the server's ``Retry-After``
hint (preferring the fractional ``X-Repro-Retry-After`` header when
present, since HTTP's ``Retry-After`` is whole seconds).  Final
outcomes — 200, 400, 404, 500, 504 — are returned to the caller
immediately; retrying a deterministic failure would only add load.

All randomness flows from an injectable seeded ``random.Random`` so a
fleet of clients (see :mod:`repro.serve.loadgen`) behaves reproducibly.

Each client keeps one HTTP/1.1 connection per calling thread and
reuses it for every attempt, so a request pays for its job rather than
a TCP handshake and a fresh server handler thread.  A kept connection
the daemon closed while it sat idle (its keep-alive timeout, or a
drain) fails before any status line arrives; that request is resent
at once on a new connection.  The resend is not an attempt: it neither
backs off nor journals a second ``client-send``.  Every other failure
drops the connection and takes the ordinary retry path.

Every logical request carries a correlation ID: the client mints one
(:func:`repro.obs.events.new_request_id`) unless the caller supplies
its own, sends it as ``X-Repro-Request-Id`` on every attempt (retries
share the ID — they are one logical request), and exposes the server's
echo as :attr:`Response.request_id`.  An optional
:class:`repro.obs.events.EventJournal` receives ``client-send`` /
``client-final`` records per logical request, which is what lets a
loadgen request be traced from the client log through the server
journal into engine job events and spans by one ID.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.obs.events import NULL_JOURNAL, new_request_id

__all__ = ["ClientError", "ReproClient", "Response"]

#: HTTP statuses worth retrying (the server said "later", not "no").
RETRYABLE_STATUS = frozenset({429, 503})

#: How a kept connection fails when the server closed it while idle:
#: before any status line arrives.  ``RemoteDisconnected`` is a
#: ``ConnectionResetError``.
_STALE_CONNECTION = (BrokenPipeError, ConnectionResetError)


class ClientError(Exception):
    """Raised when retries are exhausted without reaching a final
    outcome (the server stayed unreachable or kept shedding load)."""


class Response:
    """One final HTTP exchange, parsed."""

    __slots__ = ("status", "headers", "body", "attempts", "seconds")

    def __init__(
        self,
        status: int,
        headers: Dict[str, str],
        body: Dict[str, object],
        attempts: int,
        seconds: float,
    ):
        self.status = status
        self.headers = headers
        self.body = body
        #: total HTTP exchanges it took to get this final outcome
        self.attempts = attempts
        #: wall-clock seconds from first attempt to final outcome
        self.seconds = seconds

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def cached(self) -> bool:
        return self.headers.get("x-repro-cached") == "true"

    @property
    def request_id(self) -> str:
        """The correlation ID the server echoed (``""`` if none)."""
        return self.headers.get("x-repro-request-id", "")

    def error_kind(self) -> Optional[str]:
        """The structured error kind, or ``None`` on success."""
        error = self.body.get("error")
        if isinstance(error, dict):
            return str(error.get("kind"))
        return None if self.status == 200 else f"http-{self.status}"

    def __repr__(self) -> str:
        return (
            f"<Response {self.status} kind={self.error_kind()!r} "
            f"attempts={self.attempts}>"
        )


class ReproClient:
    """Talks to one daemon over one kept connection per calling thread.
    Sharing an instance across threads is safe for the transport, but
    the threads then share one ``rng``; give each client thread its own
    instance for a reproducible fleet."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8736,
        retries: int = 5,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        timeout: float = 60.0,
        rng: Optional[random.Random] = None,
        clock=time.monotonic,
        sleep=time.sleep,
        journal=None,
    ):
        self.host = host
        self.port = port
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.timeout = timeout
        self.rng = rng or random.Random(0)
        self._clock = clock
        self._sleep = sleep
        #: an :class:`repro.obs.events.EventJournal` receiving
        #: ``client-send``/``client-final`` records (default: no-op)
        self.journal = journal if journal is not None else NULL_JOURNAL
        self._local = threading.local()

    # -- transport -----------------------------------------------------------

    def _exchange(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        request_id: str = "",
    ) -> Tuple[int, Dict[str, str], Dict[str, object]]:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        headers = {"Content-Type": "application/json"} if body else {}
        if request_id:
            headers["X-Repro-Request-Id"] = request_id
        try:
            reused = connection.sock is not None
            try:
                connection.request(method, path, body=body, headers=headers)
                raw = connection.getresponse()
            except _STALE_CONNECTION:
                if not reused:
                    raise
                # the daemon closed the idle connection: resend once on
                # a fresh one (``request`` reopens a closed connection)
                connection.close()
                connection.request(method, path, body=body, headers=headers)
                raw = connection.getresponse()
            data = raw.read()
        except BaseException:
            # a half-used connection cannot carry the next request
            connection.close()
            raise
        header_map = {k.lower(): v for k, v in raw.getheaders()}
        try:
            parsed = json.loads(data) if data else {}
        except ValueError:
            parsed = {"raw": data.decode(errors="replace")}
        if not isinstance(parsed, dict):
            parsed = {"value": parsed}
        return raw.status, header_map, parsed

    def close(self) -> None:
        """Close the calling thread's kept connection (the next request
        opens a new one)."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()

    def _backoff(
        self, attempt: int, headers: Optional[Dict[str, str]]
    ) -> float:
        """Seconds to wait before attempt ``attempt + 1``."""
        hinted = None
        if headers is not None:
            fractional = headers.get("x-repro-retry-after")
            coarse = headers.get("retry-after")
            try:
                hinted = float(fractional if fractional is not None else coarse)
            except (TypeError, ValueError):
                hinted = None
        computed = min(self.backoff_base * (2**attempt), self.backoff_cap)
        base = hinted if hinted is not None else computed
        # full jitter on the computed part keeps a retrying fleet from
        # stampeding the queue in lockstep
        return min(base + self.rng.uniform(0, computed), self.backoff_cap * 2)

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]] = None,
        request_id: Optional[str] = None,
    ) -> Response:
        """One logical request: retries transient outcomes, returns the
        first final one.  Raises :class:`ClientError` if every attempt
        was transient.  ``request_id`` (minted when not given) is sent
        as ``X-Repro-Request-Id`` on every attempt — retries share it,
        because they are the same logical request."""
        body = (
            json.dumps(payload, sort_keys=True).encode()
            if payload is not None
            else None
        )
        rid = request_id or new_request_id()
        started = self._clock()
        last: Optional[Tuple[int, Dict[str, str], Dict[str, object]]] = None
        failure = "no attempts made"
        for attempt in range(self.retries + 1):
            self.journal.emit(
                "client-send", request_id=rid, method=method, path=path,
                attempt=attempt + 1,
            )
            try:
                status, headers, parsed = self._exchange(
                    method, path, body, request_id=rid
                )
            except (ConnectionError, socket.timeout, http.client.HTTPException, OSError) as exc:
                failure = f"{type(exc).__name__}: {exc}"
                last = None
                if attempt < self.retries:
                    self._sleep(self._backoff(attempt, None))
                continue
            if status not in RETRYABLE_STATUS:
                self.journal.emit(
                    "client-final", request_id=rid, method=method,
                    path=path, status=status, attempts=attempt + 1,
                )
                return Response(
                    status, headers, parsed, attempt + 1, self._clock() - started
                )
            failure = f"http {status} ({parsed.get('error')})"
            last = (status, headers, parsed)
            if attempt < self.retries:
                self._sleep(self._backoff(attempt, headers))
        if last is not None:
            # exhausted retries against a live but shedding server:
            # surface the last transient response as the outcome
            status, headers, parsed = last
            self.journal.emit(
                "client-final", request_id=rid, method=method, path=path,
                status=status, attempts=self.retries + 1,
            )
            return Response(
                status, headers, parsed, self.retries + 1, self._clock() - started
            )
        self.journal.emit(
            "client-unreachable", request_id=rid, method=method, path=path,
            attempts=self.retries + 1,
        )
        raise ClientError(
            f"{method} {path} failed after {self.retries + 1} attempts: {failure}"
        )

    # -- convenience ---------------------------------------------------------

    def submit(
        self,
        task: str,
        params: Dict[str, object],
        deadline: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> Response:
        payload: Dict[str, object] = {"task": task, "params": params}
        if deadline is not None:
            payload["deadline"] = deadline
        return self.request("POST", "/v1/jobs", payload, request_id=request_id)

    def lookup(self, key: str) -> Response:
        return self.request("GET", f"/v1/jobs/{key}")

    def stats(self) -> Dict[str, object]:
        return self.request("GET", "/v1/stats").body

    def metrics_text(self) -> str:
        """The raw Prometheus exposition from ``GET /metrics``
        (``""`` when the daemon runs with telemetry off)."""
        response = self.request("GET", "/metrics")
        raw = response.body.get("raw")
        return raw if isinstance(raw, str) else ""

    def tasks(self) -> List[str]:
        names = self.request("GET", "/v1/tasks").body.get("tasks", [])
        return list(names) if isinstance(names, list) else []

    def healthy(self) -> bool:
        try:
            return self._exchange("GET", "/healthz", None)[0] == 200
        except OSError:
            return False

    def ready(self) -> bool:
        try:
            return self._exchange("GET", "/readyz", None)[0] == 200
        except OSError:
            return False

    def drain(self) -> Response:
        return self.request("POST", "/v1/drain", {})

    def wait_ready(self, timeout: float = 10.0, interval: float = 0.05) -> bool:
        """Poll ``/readyz`` until it answers 200 (or time runs out)."""
        ends = self._clock() + timeout
        while self._clock() < ends:
            if self.ready():
                return True
            self._sleep(interval)
        return False
