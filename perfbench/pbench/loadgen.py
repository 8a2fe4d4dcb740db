"""HTTP load generators over a few keep-alive connections.

:func:`run_open_loop` sends requests on a precomputed arrival schedule
regardless of how fast the server answers.  One thread runs an event
loop over the connections: the next due request goes out on an idle
connection; when every connection is busy it is sent late, and its
latency is still counted from when it was due.  ``lateness`` (send time
minus due time) shows how far the generator fell behind.

:func:`run_closed_loop` keeps every connection busy for a fixed time:
each answer is followed at once by the next request on that connection.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

TRACE_HEADER = "X-Repro-Trace"


@dataclass
class LoadResult:
    """Per-request timings (seconds, relative to the schedule start)."""

    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    status: np.ndarray
    ok: np.ndarray  # answered and passed the response check
    was_sent: np.ndarray  # False where an overloaded run stopped sending
    trace_ids: list[str]

    @property
    def n(self) -> int:
        return len(self.due)

    @property
    def n_unsent(self) -> int:
        return int(self.n - self.was_sent.sum())

    @property
    def n_failed(self) -> int:
        """Requests sent that were refused, shed or answered wrongly."""
        return int((self.was_sent & ~self.ok).sum())

    def latency_ms(self) -> np.ndarray:
        """Due-to-done latency; failed or unsent requests count as
        infinitely slow."""
        lat = (self.done - self.due) * 1e3
        return np.where(self.ok, lat, np.inf)

    def lateness_ms(self) -> np.ndarray:
        return (self.sent - self.due) * 1e3


class _Conn:
    """Non-blocking connection state for the event loop."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buf = bytearray()
        self.current = -1  # request index in flight, -1 when idle

    def response(self) -> tuple[int, bytes] | None:
        """A complete response from the buffer, if one arrived."""
        end = self.buf.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = bytes(self.buf[:end]).split(b"\r\n")
        status = int(head[0].split(b" ", 2)[1])
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        total = end + 4 + length
        if len(self.buf) < total:
            return None
        body = bytes(self.buf[end + 4:total])
        del self.buf[:total]
        return status, body


def run_open_loop(
    host: str,
    port: int,
    due: np.ndarray,
    targets: list[str],
    *,
    check: Callable[[str, int, bytes], bool] | None = None,
    connections: int = 2,
    trace_prefix: str = "",
    abort_lateness_s: float | None = None,
) -> LoadResult:
    """Send ``targets[i]`` at ``due[i]`` seconds after start.

    One thread drives ``connections`` keep-alive connections through a
    selector: a request goes out on an idle connection once it is due;
    when none is idle it waits, and is sent late.  ``check(target,
    status, body)`` decides whether an answer is right; a refused, shed
    or wrong answer makes the request fail.  With a ``trace_prefix``
    each request carries a trace id in ``X-Repro-Trace`` so server-side
    spans can be joined to it.  With ``abort_lateness_s`` the generator
    stops sending once a request is that late (an overloaded step); the
    rest count as not sent.
    """
    n = len(due)
    sent = np.zeros(n)
    done = np.zeros(n)
    status = np.zeros(n, dtype=np.int32)
    ok = np.zeros(n, dtype=bool)
    was_sent = np.zeros(n, dtype=bool)
    trace_ids = [f"{trace_prefix}{i:08x}" for i in range(n)] if trace_prefix else []
    header = f"Host: {host}\r\n"
    conns = [_Conn(host, port) for _ in range(connections)]
    # select(2) takes a microsecond timeout (epoll only milliseconds).
    selector = selectors.SelectSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    idle = list(conns)
    busy = 0
    nxt = 0
    start = time.perf_counter() + 0.02
    try:
        while nxt < n or busy:
            now = time.perf_counter() - start
            while idle and nxt < n and due[nxt] <= now:
                if abort_lateness_s is not None and now - due[nxt] > abort_lateness_s:
                    nxt = n  # saturated: stop sending
                    break
                conn = idle.pop()
                extra = f"{TRACE_HEADER}: {trace_ids[nxt]}\r\n" if trace_ids else ""
                conn.sock.sendall(
                    f"GET {targets[nxt]} HTTP/1.1\r\n{header}{extra}\r\n".encode("latin-1")
                )
                sent[nxt] = now
                was_sent[nxt] = True
                conn.current = nxt
                busy += 1
                nxt += 1
                now = time.perf_counter() - start
            if idle and nxt < n:
                timeout = max(0.0, due[nxt] - now)
            else:
                timeout = None if busy else 0.0
            for key, _ in selector.select(timeout):
                conn = key.data
                chunk = conn.sock.recv(262144)
                if not chunk:
                    raise ConnectionError("server closed a keep-alive connection")
                conn.buf += chunk
                reply = conn.response()
                if reply is None:
                    continue
                i = conn.current
                done[i] = time.perf_counter() - start
                status[i] = reply[0]
                ok[i] = check(targets[i], *reply) if check else reply[0] == 200
                conn.current = -1
                busy -= 1
                idle.append(conn)
    finally:
        selector.close()
        for conn in conns:
            conn.sock.close()
    return LoadResult(due=np.asarray(due, float), sent=sent, done=done,
                      status=status, ok=ok, was_sent=was_sent, trace_ids=trace_ids)


def run_closed_loop(
    host: str,
    port: int,
    targets: list[str],
    duration_s: float,
    *,
    check: Callable[[str, int, bytes], bool] | None = None,
    connections: int = 2,
) -> LoadResult:
    """Send ``targets`` in order, one in flight per connection, for
    ``duration_s`` seconds (or until ``targets`` runs out).

    Each request is due when it is sent; targets not sent before the
    time is up count as not sent.
    """
    n = len(targets)
    sent = np.zeros(n)
    done = np.zeros(n)
    status = np.zeros(n, dtype=np.int32)
    ok = np.zeros(n, dtype=bool)
    was_sent = np.zeros(n, dtype=bool)
    header = f"Host: {host}\r\n"
    conns = [_Conn(host, port) for _ in range(connections)]
    selector = selectors.DefaultSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    nxt = 0
    start = time.perf_counter()

    def send(conn: _Conn) -> None:
        nonlocal nxt
        conn.sock.sendall(f"GET {targets[nxt]} HTTP/1.1\r\n{header}\r\n".encode("latin-1"))
        sent[nxt] = time.perf_counter() - start
        was_sent[nxt] = True
        conn.current = nxt
        nxt += 1

    busy = 0
    try:
        for conn in conns:
            if nxt < n:
                send(conn)
                busy += 1
        while busy:
            for key, _ in selector.select(None):
                conn = key.data
                chunk = conn.sock.recv(262144)
                if not chunk:
                    raise ConnectionError("server closed a keep-alive connection")
                conn.buf += chunk
                reply = conn.response()
                if reply is None:
                    continue
                i = conn.current
                done[i] = time.perf_counter() - start
                status[i] = reply[0]
                ok[i] = check(targets[i], *reply) if check else reply[0] == 200
                conn.current = -1
                busy -= 1
                if nxt < n and done[i] < duration_s:
                    send(conn)
                    busy += 1
    finally:
        selector.close()
        for conn in conns:
            conn.sock.close()
    return LoadResult(due=sent.copy(), sent=sent, done=done, status=status, ok=ok,
                      was_sent=was_sent, trace_ids=[])
