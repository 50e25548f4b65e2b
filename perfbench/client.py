"""Closed-loop HTTP clients driven by workload scripts.

A script is a generator that yields :class:`Req` objects and receives
each reply (the decoded JSON body) before yielding the next, so a
client never has more than one request outstanding and its next click
depends on what the tier answered.  A refused or failed request is
thrown into the script as :class:`RequestFailed`; scripts abandon the
session and carry on.  Every request is recorded with its class, its
round trip measured on the client, and the local port of the
connection that carried it (the traced run pairs that with the
server-side span).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

__all__ = ["SESSION_END", "Client", "Record", "Req", "RequestFailed", "run_phase"]

#: Yielded by a script after each finished session (counts sessions).
SESSION_END = object()


@dataclass
class Req:
    """One request: an HTTP call, or a direct ``call`` into the tier."""

    method: str
    path: str
    body: Any = None
    cls: str = "read"
    kind: str = ""
    call: Callable[[], Any] | None = None


@dataclass
class Record:
    phase: int
    cls: str
    kind: str
    start: float
    end: float
    ok: bool
    port: int | None
    nbytes: int
    reply: Any = field(default=None, repr=False)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class RequestFailed(Exception):
    """A request was refused, failed, or could not be sent."""


Script = Generator[Any, Any, None]


class Client:
    """One closed-loop client: a keep-alive connection and a script."""

    def __init__(self, host: str, port: int, script: Script, clock: Callable[[], float]):
        self._conn = http.client.HTTPConnection(host, port, timeout=120)
        self._script = script
        self._clock = clock
        self._reply: Any = None
        self._failure: RequestFailed | None = None
        self._started = False
        self.records: list[Record] = []
        self.cpu_seconds = 0.0
        self.error: BaseException | None = None

    def _next(self) -> Any:
        if not self._started:
            self._started = True
            return next(self._script)
        if self._failure is not None:
            failure, self._failure = self._failure, None
            return self._script.throw(failure)
        return self._script.send(self._reply)

    def _http(self, req: Req) -> tuple[float, float, bool, int | None, int, Any]:
        body = None if req.body is None else json.dumps(req.body).encode()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        port = None
        start = self._clock()
        try:
            self._conn.request(req.method, req.path, body=body, headers=headers)
            port = self._conn.sock.getsockname()[1]
            response = self._conn.getresponse()
            data = response.read()
            end = self._clock()
        except (OSError, http.client.HTTPException) as exc:
            self._conn.close()
            return start, self._clock(), False, port, 0, repr(exc)
        try:
            reply = json.loads(data)
        except ValueError:
            reply = data[:200].decode("latin-1")
        return start, end, 200 <= response.status < 300, port, len(data), reply

    def _call(self, req: Req) -> tuple[float, float, bool, None, int, Any]:
        start = self._clock()
        try:
            reply = req.call()
        except Exception as exc:  # the tier's failure is recorded, not raised
            return start, self._clock(), False, None, 0, repr(exc)
        return start, self._clock(), True, None, 0, reply

    def run(self, phase: int, deadline: float | None, sessions: int | None = None) -> None:
        """Issue requests until ``deadline`` passes or, when given,
        until ``sessions`` more sessions have ended."""
        cpu = time.thread_time()
        ended = 0
        try:
            while deadline is None or self._clock() < deadline:
                req = self._next()
                if req is SESSION_END:
                    ended += 1
                    if sessions is not None and ended >= sessions:
                        self._reply = None
                        break
                    self._reply = None
                    continue
                start, end, ok, port, nbytes, reply = (
                    self._call(req) if req.call is not None else self._http(req)
                )
                self.records.append(
                    Record(phase, req.cls, req.kind, start, end, ok, port, nbytes, reply)
                )
                if ok:
                    self._reply = reply
                else:
                    self._failure = RequestFailed(f"{req.method} {req.path}: {reply}")
        except BaseException as exc:  # surfaced by run_phase
            self.error = exc
        finally:
            self.cpu_seconds += time.thread_time() - cpu

    def close(self) -> None:
        self._conn.close()
        self._script.close()


def run_phase(
    clients: list[Client],
    phase: int,
    *,
    seconds: float | None = None,
    sessions: int | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> float:
    """Run every client concurrently for one phase; returns its length."""
    start = clock()
    deadline = None if seconds is None else start + seconds
    threads = [
        threading.Thread(target=c.run, args=(phase, deadline, sessions), name=f"client-{i}")
        for i, c in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish its phase")
    for client in clients:
        if client.error is not None:
            raise RuntimeError("client script crashed") from client.error
    return clock() - start
