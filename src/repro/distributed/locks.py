"""Non-blocking distributed readers-writer locks (Sec. 4.2.2).

Each machine manages a lock table for the vertices it *owns*. Regular
blocking RW locks would stall the pipeline thread on contention, so —
like the paper — requests are callback-based: :meth:`VertexLockTable
.request` immediately returns a future that resolves when the lock is
granted. Grants are strictly FIFO per vertex (a reader never overtakes
a queued writer), which combined with the canonical ``(owner, vertex)``
acquisition order makes the distributed protocol deadlock-free and
starvation-free.

The grant discipline itself lives in :class:`RWQueueCore`, a pure
token-based state machine with no simulator dependency: the simulated
:class:`VertexLockTable` wraps it with kernel futures, and the real
runtime backend's locking worker
(:mod:`repro.runtime.locking_worker`) drives the *same* core with its
own scope tokens — one implementation of the FIFO readers-writer
rules, two execution substrates. A key's state is one int (``-1``
writer, ``n >= 0`` readers) plus a waiter deque that exists only while
the key is contended. The simulator and the bench probe take single
keys (``request`` / ``release``); the runtime worker takes whole
per-owner groups (``request_group`` / ``release_group``), which loop
over the single-key calls.

:func:`build_lock_chain` is the other shared half: the per-vertex lock
plan grouped into per-owner hops in the canonical total order, used
verbatim by the simulated pipelined chains (Example 4 of the paper) and
— compiled to dense keys and int32 wire groups by
:func:`compile_chain` — by the runtime engine's owner-routed lock
batches.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Sequence,
    Tuple,
)

from repro.core.consistency import Consistency, LockKind, lock_plan
from repro.core.graph import DataGraph, VertexId
from repro.errors import SimulationError
from repro.sim.kernel import Future, SimKernel


#: Enum attribute lookups cost ~100 ns each; the single-key fast path
#: compares against this module constant instead.
_WRITE = LockKind.WRITE


class RWQueueCore:
    """FIFO readers-writer queues over opaque grant tokens.

    The single source of the grant rules both lock backends rely on:

    * grants are strictly FIFO per key — a reader never overtakes a
      queued writer (no starvation);
    * a writer is exclusive; consecutive readers at the head of the
      queue are granted together.

    **Representation.** A key's state is one int — ``-1`` while a writer
    holds it, ``n >= 0`` while ``n`` readers do — and a FIFO deque of
    ``(is_write, token)`` waiters exists only while the key has waiters,
    so the uncontended request/release touches one dict entry.

    ``request`` returns whether the token was granted immediately;
    ``release`` returns every token the release newly granted, in grant
    order. The caller decides what a token *is* (a simulator future, a
    runtime scope record) and how to deliver the grant. The group
    operations are the runtime worker's path and are loops over the
    single-key calls, so the grant rules live only there:
    :meth:`request_group` enqueues a whole per-owner lock group for one
    token and returns how many of its locks still wait;
    :meth:`release_group` releases a group key by key and fires
    ``on_grant`` for each newly granted token right after that key's
    release, so a callback that issues new requests interleaves with
    later releases. A request never grants any token but its own.
    """

    __slots__ = ("_held", "_waiters")

    def __init__(self, keys: Iterable[Hashable]) -> None:
        self._held: Dict[Hashable, int] = dict.fromkeys(keys, 0)
        self._waiters: Dict[Hashable, Deque[Tuple[bool, Any]]] = {}

    def request(self, key: Hashable, kind: LockKind, token: Any) -> bool:
        """Queue a request; returns True when granted immediately."""
        held = self._held
        try:
            state = held[key]
        except KeyError:
            raise _not_owned(key) from None
        write = kind is _WRITE
        if key not in self._waiters:
            if write:
                if state == 0:
                    held[key] = -1
                    return True
            elif state >= 0:
                held[key] = state + 1
                return True
        self._waiters.setdefault(key, deque()).append((write, token))
        return False

    def release(self, key: Hashable, kind: LockKind) -> List[Any]:
        """Release a held lock; returns tokens newly granted by it."""
        held = self._held
        try:
            state = held[key]
        except KeyError:
            raise _not_owned(key) from None
        if kind is _WRITE:
            if state != -1:
                raise SimulationError(f"write-release without hold on {key!r}")
            state = 0
        else:
            if state <= 0:
                raise SimulationError(f"read-release without hold on {key!r}")
            state -= 1
        if key not in self._waiters:
            held[key] = state
            return []
        return self._pump(key, state)

    def request_group(
        self, keys: Sequence[Hashable], kinds: Sequence[LockKind], token: Any
    ) -> int:
        """Queue one token for every key of a group; returns how many of
        its locks were not granted immediately."""
        request = self.request
        waiting = 0
        for key, kind in zip(keys, kinds):
            if not request(key, kind, token):
                waiting += 1
        return waiting

    def release_group(
        self,
        keys: Sequence[Hashable],
        kinds: Sequence[LockKind],
        on_grant: Callable[[Any], None],
    ) -> None:
        """Release a group key by key, calling ``on_grant`` for each
        token a key's release grants before releasing the next key."""
        release = self.release
        for key, kind in zip(keys, kinds):
            for token in release(key, kind):
                on_grant(token)

    def _pump(self, key: Hashable, state: int) -> List[Any]:
        """Grant ``key``'s waiters FIFO after a release left holder state
        ``state`` (so no writer holds it): the head writer alone if
        nothing is held, else every reader up to the next writer. Store
        the resulting state."""
        queue = self._waiters[key]
        granted: List[Any] = []
        while queue:
            write, token = queue[0]
            if write:
                if state == 0:
                    queue.popleft()
                    state = -1
                    granted.append(token)
                # Nothing passes a queued writer, and a granted one is
                # exclusive.
                break
            queue.popleft()
            state += 1
            granted.append(token)
        if not queue:
            del self._waiters[key]
        self._held[key] = state
        return granted

    # ------------------------------------------------------------------
    # Introspection for tests.
    # ------------------------------------------------------------------
    def holders(self, key: Hashable) -> Tuple[int, bool]:
        """``(reader_count, writer_held)`` for a key."""
        try:
            state = self._held[key]
        except KeyError:
            raise _not_owned(key) from None
        return (0, True) if state < 0 else (state, False)

    def queue_length(self, key: Hashable) -> int:
        """Pending (ungranted) requests for a key."""
        if key not in self._held:
            raise _not_owned(key)
        queue = self._waiters.get(key)
        return len(queue) if queue is not None else 0


def _not_owned(key: Hashable) -> SimulationError:
    return SimulationError(f"lock request for vertex {key!r} not owned here")


def build_lock_chain(
    graph: DataGraph,
    vertex: VertexId,
    model: Consistency,
    owner: Mapping[VertexId, int],
) -> List[Tuple[int, List[Tuple[VertexId, LockKind]]]]:
    """Lock plan for ``vertex`` grouped by owning machine.

    The canonical total order is
    :func:`~repro.distributed.deploy.canonical_order_key` —
    ``(owner(u), vertex_index(u))``: machines are visited in ascending
    id, vertices within a machine in ascending dense index. Acquiring
    one group at a time in this fixed order makes the distributed
    protocol deadlock-free (Sec. 4.2.2): a scope holding locks at
    machine ``m`` only ever waits at machines ``> m``, and within a
    machine groups enqueue atomically, so wait-for edges cannot form a
    cycle. Shared by the simulated lock chains and the runtime locking
    engine.
    """
    from repro.distributed.deploy import canonical_order_key

    plan = lock_plan(
        graph, vertex, model, order_key=canonical_order_key(graph, owner)
    )
    chain: List[Tuple[int, List[Tuple[VertexId, LockKind]]]] = []
    for vid, kind in plan:
        machine = owner[vid]
        if chain and chain[-1][0] == machine:
            chain[-1][1].append((vid, kind))
        else:
            chain.append((machine, [(vid, kind)]))
    return chain


#: Lock kinds by their int32 wire code (``0`` read, ``1`` write).
_KINDS = (LockKind.READ, LockKind.WRITE)

#: One compiled chain hop: ``(owner, keys, kinds, request_ints,
#: unlock_ints)`` — the group's dense vertex indices and lock kinds (the
#: lock table's group arguments), then the same group as it crosses the
#: int32 wire: ``[k, key0, code0, …]`` after the scope id of a lock
#: request, ``[key0, code0, …]`` in an unlock batch.
Hop = Tuple[
    int,
    Tuple[int, ...],
    Tuple[LockKind, ...],
    Tuple[int, ...],
    Tuple[int, ...],
]


def compile_chain(
    chain: List[Tuple[int, List[Tuple[VertexId, LockKind]]]],
    index_of: Mapping[VertexId, int],
) -> List[Hop]:
    """Compile a :func:`build_lock_chain` result (which stays the one
    definition of the canonical order) into the runtime locking worker's
    per-owner hops, once per vertex and model."""
    hops: List[Hop] = []
    for owner, group in chain:
        keys = tuple(index_of[vid] for vid, _kind in group)
        kinds = tuple(kind for _vid, kind in group)
        unlock = tuple(
            x
            for key, kind in zip(keys, kinds)
            for x in (key, _KINDS.index(kind))
        )
        hops.append((owner, keys, kinds, (len(keys),) + unlock, unlock))
    return hops


class VertexLockTable:
    """Per-machine lock manager for its owned vertices (simulator side).

    A thin future-delivering wrapper over :class:`RWQueueCore`: tokens
    are kernel futures, resolved at grant time.
    """

    def __init__(self, kernel: SimKernel, vertices: Iterable[VertexId]) -> None:
        self.kernel = kernel
        self._core = RWQueueCore(vertices)

    def request(self, vid: VertexId, kind: LockKind) -> Future:
        """Request a lock; the returned future resolves at grant time."""
        future = Future(self.kernel)
        if self._core.request(vid, kind, future):
            future.resolve()
        return future

    def release(self, vid: VertexId, kind: LockKind) -> None:
        """Release a held lock and grant the next queued requests."""
        for token in self._core.release(vid, kind):
            token.resolve()

    # ------------------------------------------------------------------
    # Introspection for tests.
    # ------------------------------------------------------------------
    def holders(self, vid: VertexId) -> Tuple[int, bool]:
        """``(reader_count, writer_held)`` for a vertex."""
        return self._core.holders(vid)

    def queue_length(self, vid: VertexId) -> int:
        """Pending (ungranted) requests for a vertex."""
        return self._core.queue_length(vid)
