"""A keep-alive JSON-over-HTTP client for the benchmark's load loop.

One :class:`Client` owns one connection and is used by one thread, so
"connections" in a workload description means client objects.  Every
call returns a :class:`Reply` carrying the wall time from send to the
last body byte; transport errors and timeouts come back as replies with
``status == 0`` instead of exceptions, so :mod:`drive` counts them as
failed operations rather than aborting the run.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class Reply:
    status: int
    body: Dict[str, object]
    headers: Dict[str, str] = field(default_factory=dict)
    elapsed_s: float = 0.0
    error: Optional[str] = None
    #: ``time.perf_counter()`` when the call began, when the request
    #: was handed to the socket, and when the response head arrived
    #: (the traced run turns these into client-side spans).
    started: float = 0.0
    sent_at: float = 0.0
    head_at: float = 0.0


class Client:
    def __init__(self, host: str, port: int, timeout_s: float = 60.0):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._conn: Optional[http.client.HTTPConnection] = None
        #: Extra headers sent with every request (the traced run tags
        #: each request with its benchmark-side id).
        self.headers: Dict[str, str] = {}

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def call(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Reply:
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json", **self.headers}
        started = time.perf_counter()
        try:
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            sent_at = time.perf_counter()
            response = conn.getresponse()
            head_at = time.perf_counter()
            raw = response.read()
            elapsed = time.perf_counter() - started
            reply_headers = {k.lower(): v for k, v in response.getheaders()}
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return Reply(
                0, {}, elapsed_s=time.perf_counter() - started,
                error=f"{type(exc).__name__}: {exc}", started=started,
            )
        try:
            doc = json.loads(raw) if raw else {}
        except ValueError as exc:
            return Reply(
                response.status, {}, reply_headers, elapsed,
                error=f"unparsable body: {exc}", started=started,
            )
        if not isinstance(doc, dict):
            doc = {"value": doc}
        return Reply(response.status, doc, reply_headers, elapsed,
                     started=started, sent_at=sent_at, head_at=head_at)

    def get(self, path: str) -> Reply:
        return self.call("GET", path)

    def post(self, path: str, payload: dict) -> Reply:
        return self.call("POST", path, payload)

    def put(self, path: str, payload: dict) -> Reply:
        return self.call("PUT", path, payload)
