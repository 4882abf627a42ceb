"""The length-prefixed frame codec shared by every socket wire.

Every frame is a 5-byte header — one kind byte plus a big-endian u32
body length — followed by the body. The TCP transport
(:mod:`repro.runtime.socket_transport`) and the serving front end
(:mod:`repro.serve.protocol`) speak disjoint kind vocabularies over this
one format; nothing outside this module knows the header layout.
"""

from __future__ import annotations

import socket
import struct
from typing import Optional, Tuple

HEADER = struct.Struct("!cI")

#: Once a frame's first byte has arrived, the rest must follow within
#: this bound; a frame that stalls mid-body is torn, not slow.
FRAME_TIMEOUT = 5.0


def close_socket(sock: Optional[socket.socket]) -> None:
    if sock is not None:
        try:
            sock.close()
        except OSError:  # pragma: no cover - already torn down
            pass


def send_frame(sock: socket.socket, kind: bytes, body: bytes = b"") -> None:
    sock.sendall(HEADER.pack(kind, len(body)) + body)


def recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        buf += chunk
    return bytes(buf)


def recv_frame(sock: socket.socket) -> Tuple[bytes, bytes]:
    """One whole frame, blocking; raises ``ConnectionError`` on EOF."""
    kind, length = HEADER.unpack(recv_exact(sock, HEADER.size))
    body = recv_exact(sock, length) if length else b""
    return kind, body


def poll_frame(
    sock: socket.socket, idle_timeout: float
) -> Optional[Tuple[bytes, bytes]]:
    """One frame, or ``None`` if no byte arrived within ``idle_timeout``.

    Raises ``ConnectionError`` on EOF, reset, or a torn frame (a frame
    that started but stalled past :data:`FRAME_TIMEOUT` — the
    ``reset_mid_frame`` failure shape).
    """
    sock.settimeout(idle_timeout)
    try:
        first = sock.recv(1)
    except TimeoutError:
        return None
    except OSError as exc:
        raise ConnectionError(f"socket error ({exc})") from None
    if not first:
        raise ConnectionError("connection closed by peer")
    sock.settimeout(FRAME_TIMEOUT)
    try:
        header = first + recv_exact(sock, HEADER.size - 1)
        kind, length = HEADER.unpack(header)
        body = recv_exact(sock, length) if length else b""
    except (TimeoutError, OSError) as exc:
        raise ConnectionError(f"torn frame ({exc})") from None
    return kind, body
