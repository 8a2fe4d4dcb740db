"""A trivial HTTP server for the generator-ceiling check.

It answers every GET with a fixed small JSON body from one event-loop
thread, doing no other work, so a load-generator run against it
measures how well the generator itself keeps its schedule.  Run as
``python -m pbench.stub_server``; it prints ``stub on port N`` and
serves until SIGINT or SIGTERM.
"""

from __future__ import annotations

import selectors
import signal
import socket

BODY = b'{"stub":true}'
RESPONSE = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    + f"Content-Length: {len(BODY)}\r\n".encode()
    + b"Connection: keep-alive\r\n\r\n"
    + BODY
)


def serve(listener: socket.socket) -> None:
    selector = selectors.DefaultSelector()
    selector.register(listener, selectors.EVENT_READ, None)
    buffers: dict[socket.socket, bytearray] = {}
    try:
        while True:
            for key, _ in selector.select():
                if key.data is None:
                    conn, _ = listener.accept()
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    conn.setblocking(False)
                    buffers[conn] = bytearray()
                    selector.register(conn, selectors.EVENT_READ, True)
                    continue
                conn = key.fileobj
                try:
                    chunk = conn.recv(65536)
                except ConnectionError:
                    chunk = b""
                if not chunk:
                    selector.unregister(conn)
                    conn.close()
                    del buffers[conn]
                    continue
                buf = buffers[conn]
                buf += chunk
                replies = buf.count(b"\r\n\r\n")
                if replies:
                    del buf[: buf.rfind(b"\r\n\r\n") + 4]
                    conn.sendall(RESPONSE * replies)
    finally:
        selector.close()


def main() -> int:
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    listener = socket.create_server(("127.0.0.1", 0))
    print(f"stub on port {listener.getsockname()[1]}", flush=True)
    try:
        serve(listener)
    except KeyboardInterrupt:
        pass
    finally:
        listener.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
