"""Serving front ends: in-process for tests, sockets for real clients.

Both speak the same :mod:`repro.serve.protocol` dataclasses against the
same :class:`~repro.serve.service.GraphService`, so every serving-
semantics test (consistent reads, backpressure, lossless drain) runs
unchanged over either. The in-process client is a direct method-call
veneer; the socket front end is a small threaded accept loop — one
handler thread per connection, lockstep request/reply frames using the
PR 9 length-prefixed framing — suitable for the load generator and the
CI smoke lane, not a production ingress.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import EngineError
from repro.runtime.frames import close_socket
from repro.serve.protocol import (
    ReadRequest,
    StatsReply,
    StatsRequest,
    WriteRequest,
    recv_reply,
    recv_request,
    send_reply,
    send_request,
)
from repro.serve.service import GraphService

#: Accept-loop poll cadence: how often the acceptor checks for stop.
_ACCEPT_POLL = 0.2


class InprocClient:
    """Direct, zero-copy client: protocol objects, no wire.

    The test harness's front end — request objects go straight into
    :meth:`GraphService.request`, so serving semantics are exercised
    without socket nondeterminism. API-compatible with
    :class:`SocketClient`.
    """

    def __init__(self, service: GraphService) -> None:
        self._service = service

    def request(self, request: Any, timeout: Optional[float] = 30.0) -> Any:
        return self._service.request(request, timeout=timeout)

    def read(
        self,
        vertex: Any,
        scope: bool = False,
        timeout: Optional[float] = 30.0,
    ) -> Any:
        return self.request(ReadRequest(vertex, scope), timeout=timeout)

    def write(
        self,
        vertex: Any,
        value: Any,
        schedule: bool = True,
        timeout: Optional[float] = 30.0,
    ) -> Any:
        return self.request(
            WriteRequest(vertex, value, schedule), timeout=timeout
        )

    def stats(self) -> Dict[str, Any]:
        reply = self.request(StatsRequest())
        assert isinstance(reply, StatsReply)
        return reply.stats

    def close(self) -> None:
        """Nothing to release (the service owns every resource)."""


class SocketFrontend:
    """Threaded socket server exposing one :class:`GraphService`.

    Binds ``host:port`` (port 0 = ephemeral; read :attr:`address`),
    accepts any number of connections, and serves each in lockstep —
    one request frame in, one reply frame out — on its own handler
    thread. Backpressure is end-to-end: a shed request returns its
    :class:`~repro.serve.protocol.Rejection` over the wire immediately,
    and an admitted one occupies only its own connection while waiting.
    """

    def __init__(
        self,
        service: GraphService,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: Optional[float] = 30.0,
    ) -> None:
        self._service = service
        self._request_timeout = request_timeout
        self._listener = socket.create_server(
            (host, port), reuse_port=False
        )
        self._listener.settimeout(_ACCEPT_POLL)
        #: ``(host, port)`` actually bound — hand this to clients.
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._conns: List[socket.socket] = []
        self._handlers: List[threading.Thread] = []
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._acceptor.start()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                break
            with self._lock:
                if self._stop.is_set():
                    close_socket(conn)
                    break
                self._conns.append(conn)
                handler = threading.Thread(
                    target=self._handle,
                    args=(conn,),
                    name="serve-conn",
                    daemon=True,
                )
                self._handlers.append(handler)
            handler.start()

    def _handle(self, conn: socket.socket) -> None:
        try:
            while not self._stop.is_set():
                try:
                    request = recv_request(conn)
                except (ConnectionError, OSError):
                    break  # client hung up (or we are stopping)
                reply = self._service.request(
                    request, timeout=self._request_timeout
                )
                try:
                    send_reply(conn, reply)
                except (ConnectionError, OSError):
                    break
        finally:
            close_socket(conn)

    def close(self) -> None:
        """Stop accepting, close every connection, join the threads.

        Does **not** close the service — callers typically drain the
        front end first, then :meth:`GraphService.close` for the
        lossless engine drain.
        """
        self._stop.set()
        close_socket(self._listener)
        with self._lock:
            conns = list(self._conns)
            handlers = list(self._handlers)
        for conn in conns:
            close_socket(conn)
        self._acceptor.join(timeout=5.0)
        for handler in handlers:
            handler.join(timeout=5.0)

    def __enter__(self) -> "SocketFrontend":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


class SocketClient:
    """Blocking lockstep client for :class:`SocketFrontend`.

    One socket, one outstanding request at a time (callers wanting
    concurrency open more clients — connections are cheap here). The
    same read/write/stats surface as :class:`InprocClient`; replies are
    whatever protocol object the service produced, including structured
    :class:`~repro.serve.protocol.Rejection` sheds.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        connect_timeout: float = 5.0,
    ) -> None:
        self._sock = socket.create_connection(
            address, timeout=connect_timeout
        )
        self._sock.settimeout(None)
        self._lock = threading.Lock()

    def request(self, request: Any, timeout: Optional[float] = 30.0) -> Any:
        with self._lock:
            self._sock.settimeout(timeout)
            try:
                send_request(self._sock, request)
                return recv_reply(self._sock)
            except (ConnectionError, OSError) as exc:
                raise EngineError(
                    f"serving connection failed ({exc})"
                ) from exc

    def read(
        self,
        vertex: Any,
        scope: bool = False,
        timeout: Optional[float] = 30.0,
    ) -> Any:
        return self.request(ReadRequest(vertex, scope), timeout=timeout)

    def write(
        self,
        vertex: Any,
        value: Any,
        schedule: bool = True,
        timeout: Optional[float] = 30.0,
    ) -> Any:
        return self.request(
            WriteRequest(vertex, value, schedule), timeout=timeout
        )

    def stats(self) -> Dict[str, Any]:
        reply = self.request(StatsRequest())
        assert isinstance(reply, StatsReply)
        return reply.stats

    def close(self) -> None:
        close_socket(self._sock)

    def __enter__(self) -> "SocketClient":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
