"""Request/reply vocabulary and wire framing for the serving front end.

The serving subsystem (PR 10) exposes the resident graph through a
deliberately small protocol: three request shapes (read a vertex or its
scope, write one vertex's data, ask for service stats) and four reply
shapes (snapshot, write acknowledgement, stats, structured rejection).
Every message is a frozen dataclass, so both front ends — the in-process
client used by tests and the threaded socket server — speak exactly the
same objects; the socket front end just adds pickling and the
length-prefixed frames already proven out by the PR 9 transport (the
one codec in :mod:`repro.runtime.frames`, reused rather than
re-invented).

Rejections are structured, not exceptional: admission control sheds load
by *answering* with a :class:`Rejection` (HTTP-flavored ``code`` 429 for
a full queue, 503 while draining, 500 when the engine died), so a client
under backpressure gets an immediate, parseable "try later" instead of a
hung connection or an unbounded queue.
"""

from __future__ import annotations

import pickle
import socket
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.errors import EngineError
from repro.runtime.frames import recv_frame, send_frame

# Frame kinds on a serving connection, disjoint from the transport's
# O/I/A/C/R/H control vocabulary: one request frame, one reply frame.
REQUEST_FRAME = b"Q"
REPLY_FRAME = b"P"

#: Rejection codes (HTTP-flavored, but this is not HTTP).
REJECT_BAD_REQUEST = 400
REJECT_QUEUE_FULL = 429
REJECT_DRAINING = 503
REJECT_FAILED = 500


@dataclass(frozen=True)
class ReadRequest:
    """Version-tagged read of one vertex (``scope=True`` adds S_v)."""

    vertex: Any
    scope: bool = False


@dataclass(frozen=True)
class WriteRequest:
    """Replace one vertex's data; optionally schedule its dependents.

    A write is one atomicity unit: the value lands at the owner inside
    one serve barrier, version-bumped and dirty-marked so ghost copies
    refresh through the normal routed wire. With ``schedule=True`` the
    touched neighborhood (the vertex's out-neighbors — the pull-model
    dependency direction) is injected as dynamic updates, so the
    resident program re-converges the perturbed region in the
    background.
    """

    vertex: Any
    value: Any
    schedule: bool = True


@dataclass(frozen=True)
class StatsRequest:
    """Service counters/latency summary; answered without a barrier."""


@dataclass(frozen=True)
class ReadReply:
    """One consistent snapshot: value + version, optionally the scope.

    ``neighbors`` / ``in_edges`` (present iff the request asked for
    scope) map each in-neighbor ``u`` to ``(data, version)`` for D_u and
    D_{u->v} respectively — every element read inside the same worker
    command, so the scope is never half-updated.
    """

    vertex: Any
    value: Any
    version: int
    neighbors: Optional[Dict[Any, Tuple[Any, int]]] = None
    in_edges: Optional[Dict[Any, Tuple[Any, int]]] = None


@dataclass(frozen=True)
class WriteReply:
    """Write acknowledged; ``scheduled`` = dynamic updates injected."""

    vertex: Any
    scheduled: int = 0


@dataclass(frozen=True)
class StatsReply:
    """Point-in-time service counters (see ``GraphService.stats``)."""

    stats: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Rejection:
    """Structured shed: the request was NOT admitted (or NOT completed).

    ``code`` follows HTTP spirit: 429 = queue full (retry later), 503 =
    service draining (find another replica), 500 = the engine failed
    under this request. ``depth``/``limit`` report the queue state that
    triggered the shed, so clients can back off proportionally.
    """

    code: int
    reason: str
    depth: int = 0
    limit: int = 0


REQUEST_TYPES = (ReadRequest, WriteRequest, StatsRequest)
REPLY_TYPES = (ReadReply, WriteReply, StatsReply, Rejection)


def encode_message(message: Any) -> bytes:
    """Pickle one protocol dataclass for the wire."""
    return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


def decode_message(data: bytes, expect: Tuple[type, ...]) -> Any:
    """Unpickle + shape-check one message (defense against skew)."""
    message = pickle.loads(data)
    if not isinstance(message, expect):
        names = "/".join(t.__name__ for t in expect)
        raise EngineError(
            f"serving protocol violation: expected {names}, "
            f"got {type(message).__name__}"
        )
    return message


def send_request(sock: socket.socket, request: Any) -> None:
    """Frame + send one request on a serving connection."""
    send_frame(sock, REQUEST_FRAME, encode_message(request))


def send_reply(sock: socket.socket, reply: Any) -> None:
    """Frame + send one reply on a serving connection."""
    send_frame(sock, REPLY_FRAME, encode_message(reply))


def recv_request(sock: socket.socket) -> Any:
    """Receive one request frame (server side)."""
    kind, body = recv_frame(sock)
    if kind != REQUEST_FRAME:
        raise EngineError(
            f"serving protocol violation: expected request frame, "
            f"got {kind!r}"
        )
    return decode_message(body, REQUEST_TYPES)


def recv_reply(sock: socket.socket) -> Any:
    """Receive one reply frame (client side)."""
    kind, body = recv_frame(sock)
    if kind != REPLY_FRAME:
        raise EngineError(
            f"serving protocol violation: expected reply frame, "
            f"got {kind!r}"
        )
    return decode_message(body, REPLY_TYPES)
