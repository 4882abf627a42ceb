"""Batch update kernels: whole frontiers as numpy passes over the CSR.

The GraphLab abstraction makes update functions data-parallel over
static scopes (Sec. 3.2), and the chromatic engines already execute
whole *color-steps* — independent sets under the active consistency
model — whose outcome cannot depend on intra-step order (Sec. 4.2.1).
That is exactly the structure bulk vertex-centric frameworks exploit:
instead of interpreting the update function once per vertex in Python,
an :class:`UpdateKernel` executes the entire step as a handful of numpy
passes over the finalize-time compiled :class:`~repro.core.csr.CSRGraph`
and its typed data columns.

**The bit-identity requirement.** A kernel is not an approximation of
the scalar update function — it is the same function, evaluated in
batch. Engines treat the scalar interpreter as the oracle, so every
kernel must produce *bit-identical* float results: gathers accumulate in
the same neighbor order as the scalar loop (see
:func:`ordered_segment_add`: one ``ufunc.at`` scatter, which applies
its updates one index at a time in index order; plain
``np.add.reduceat`` is **not** order-stable across numpy versions and
must not be used), elementwise expressions keep the scalar code's
association order, and reductions over a small label axis are explicit
left-to-right loops in helpers the scalar update calls too (LBP's
``_row_normalize``), so they never rest on numpy's reduction order. The
property tests in
``tests/test_kernels.py`` compare kernel and interpreter executions
exactly, value for value.

**Dispatch rules** (the "Batch kernel contract" in ROADMAP.md): an
engine dispatches to ``update_fn.kernel`` when one is attached, the
graph has the typed columns the kernel declares itself
:meth:`~UpdateKernel.compatible` with, the work unit is an independent
frontier (a color-step, or a :class:`~repro.runtime.oracle.
ColorSweepScheduler` drive), and nothing about the run needs per-update
hooks (tracing, per-update sync cadence). Anything else falls back to
the scalar interpreter — silently, because both paths compute the same
bits.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.csr import undirected_plan
from repro.errors import EngineError, SchedulerError

_EMPTY_INDEX = np.empty(0, dtype=np.int64)
_EMPTY_GLOBALS: Mapping[str, Any] = {}


def _as_index(values: Optional[Any]) -> np.ndarray:
    if values is None:
        return _EMPTY_INDEX
    array = np.asarray(values, dtype=np.int64)
    return array if array.size else _EMPTY_INDEX


class KernelResult:
    """Outcome of one batch step, everything in dense-index space.

    ``scheduled`` are vertex indices to (re)schedule — set semantics, no
    priorities (the chromatic engines ignore them, per the paper).
    ``wrote_v`` / ``wrote_e`` are the vertex indices / edge slots whose
    data the step overwrote; stores use them to bump versions and mark
    dirty state in one vectorized pass (the bookkeeping the scalar path
    does per ``set_*`` call).
    """

    __slots__ = ("scheduled", "wrote_v", "wrote_e")

    def __init__(
        self,
        scheduled: Optional[Any] = None,
        wrote_v: Optional[Any] = None,
        wrote_e: Optional[Any] = None,
    ) -> None:
        self.scheduled = _as_index(scheduled)
        self.wrote_v = _as_index(wrote_v)
        self.wrote_e = _as_index(wrote_e)


class UpdateKernel:
    """Contract for batch execution of an update function.

    Instances are attached by app factories to the scalar closure they
    mirror (``update_fn.kernel``); engines discover them via
    :func:`kernel_of`. A kernel must be stateless across steps (all
    state lives in the data columns), mirroring the paper's stateless
    update-function requirement — which is what makes one kernel object
    safe to share between an engine and its oracle, or to rebuild
    per worker process from the shipped :class:`~repro.runtime.program.
    UpdateProgram`.
    """

    def compatible(self, graph: Any) -> bool:
        """Whether ``graph`` carries the typed columns this kernel needs.

        Engines call this once at dispatch time; ``False`` means "use
        the scalar interpreter", never an error.
        """
        raise NotImplementedError

    def bind(self, graph: Any) -> None:
        """Materialize structure plans (memoized on the compiled CSR).

        Called once per engine construction; plans land in
        ``CSRGraph.plan_cache`` so every copy and worker process shares
        them.
        """

    def step(
        self,
        graph: Any,
        active: np.ndarray,
        vdata: Any,
        edata: Any,
        globals_view: Mapping[str, Any] = _EMPTY_GLOBALS,
    ) -> KernelResult:
        """Execute the update function on every vertex of ``active``.

        ``active`` is an int64 array of dense vertex indices forming an
        independent frontier under the run's consistency model — the
        caller guarantees no two of them are scope-adjacent, which is
        what makes "gather everything, apply everything, scatter
        everything" equal to any serial execution order. ``vdata`` /
        ``edata`` are the data columns to read and write (the compiled
        graph's own columns, or a shard's flat clones).
        """
        raise NotImplementedError


def kernel_of(update_fn: Any) -> Optional[UpdateKernel]:
    """The batch kernel an update function advertises, if any."""
    kernel = getattr(update_fn, "kernel", None)
    return kernel if isinstance(kernel, UpdateKernel) else None


def independent_classes(graph: Any, classes: Iterable[Iterable[Any]]) -> bool:
    """Whether every class is an independent set of the undirected graph.

    The batch step evaluates a whole class from its pre-step state
    (Jacobi within the step); that equals the scalar engine's in-order
    execution only when no class member can observe another's writes —
    i.e. the classes form a **proper** coloring. Edge/full-consistency
    runs already guarantee this (their colorings validate proper or
    stronger), but vertex consistency legally admits colorings with
    adjacent same-color vertices (``constant_coloring``), where batch
    and scalar would genuinely diverge — so engines call this before
    dispatching and fall back to the scalar interpreter when it fails.
    """
    csr = getattr(graph, "compiled", None)
    if csr is not None:
        # One O(V + E) pass over the canonical endpoint arrays — no
        # Python-level neighbor views needed (kernel-mode runtime
        # workers never build them).
        index_of = csr.index_of
        color = np.full(len(csr.vertex_ids), -1, dtype=np.int64)
        for tag, members in enumerate(classes):
            for v in members:
                color[index_of[v]] = tag
        src_color = color[csr.edge_src_index]
        dst_color = color[csr.edge_dst_index]
        return not ((src_color == dst_color) & (src_color >= 0)).any()
    for members in classes:
        selected = set(members)
        for v in selected:
            if not graph.neighbor_set(v).isdisjoint(selected):
                return False
    return True


# ----------------------------------------------------------------------
# Structure plans (memoized on CSRGraph.plan_cache, shared by copies).
# ----------------------------------------------------------------------
def in_edge_plan(csr: Any) -> np.ndarray:
    """Edge slot of every position of the in-neighbor CSR.

    Aligned with ``csr.in_sources``: position ``k`` (an in-edge
    ``u -> v``) stores ``edge_slot[(u, v)]``, so a kernel can gather
    edge data for a whole frontier with one fancy index.
    """
    plan = csr.plan_cache.get("in_edge_slots")
    if plan is None:
        # The in-CSR lists each vertex's in-edges in edge insertion
        # order, and vertices in dense-index order — i.e. the edge
        # slots stable-sorted by destination index. One vectorized
        # argsort, no Python-level views (kernel-mode workers never
        # build those).
        plan = np.argsort(csr.edge_dst_index, kind="stable")
        csr.plan_cache["in_edge_slots"] = plan
    return plan


def out_edge_plan(csr: Any) -> np.ndarray:
    """Edge slot of every position of the out-neighbor CSR.

    The twin of :func:`in_edge_plan`, aligned with ``csr.out_targets``:
    a vertex's out-edges are listed in edge insertion order, so the plan
    is the edge slots stable-sorted by source index.
    """
    plan = csr.plan_cache.get("out_edge_slots")
    if plan is None:
        plan = np.argsort(csr.edge_src_index, kind="stable")
        csr.plan_cache["out_edge_slots"] = plan
    return plan


def _gather_plan(
    csr: Any, name: str, index: int, offsets: Any, ends: Any, slots: Any
) -> Tuple[Tuple[Any, int, int], ...]:
    """``(neighbor id, edge slot, neighbor index)`` per position of one
    directed CSR row, memoized per vertex under ``name`` in the shared
    plan cache, so only the vertices a process updates pay for it."""
    plans = csr.plan_cache.get(name)
    if plans is None:
        plans = csr.plan_cache[name] = {}
    plan = plans.get(index)
    if plan is None:
        lo, hi = int(offsets[index]), int(offsets[index + 1])
        vertex_ids = csr.vertex_ids
        plan = plans[index] = tuple(
            (vertex_ids[j], slot, j)
            for j, slot in zip(
                ends[lo:hi].tolist(), slots(csr)[lo:hi].tolist()
            )
        )
    return plan


def in_gather(csr: Any, index: int) -> Tuple[Tuple[Any, int, int], ...]:
    """``(u, edge slot, u's dense index)`` per in-edge ``u -> v`` of the
    vertex at dense ``index``, in in-CSR order: the interpreter's
    gather-in plan (``Scope.gather_in``, ``CSRShardStore.gather_in``),
    from ``in_offsets`` / ``in_sources`` and :func:`in_edge_plan`."""
    return _gather_plan(
        csr, "in_gather", index, csr.in_offsets, csr.in_sources, in_edge_plan
    )


def out_gather(csr: Any, index: int) -> Tuple[Tuple[Any, int, int], ...]:
    """``(w, edge slot, w's dense index)`` per out-edge ``v -> w`` of the
    vertex at dense ``index``, in out-CSR order: the interpreter's
    gather-out plan (``Scope.gather_out``, ``CSRShardStore.gather_out``),
    from ``out_offsets`` / ``out_targets`` and :func:`out_edge_plan`."""
    return _gather_plan(
        csr, "out_gather", index, csr.out_offsets, csr.out_targets,
        out_edge_plan,
    )


def schedule_set(targets: np.ndarray, num_vertices: int) -> np.ndarray:
    """The distinct vertex indices of ``targets``, ascending, as int64 —
    what ``np.unique(targets)`` returns, from a boolean mask over the
    vertex count instead of a sort.

    Every kernel's :attr:`KernelResult.scheduled` goes through it: a
    color-step's rescheduled neighbours repeat (two actives share a
    neighbour), and a mask pass is linear in the vertex count whatever
    the repeats. It also keeps ``np.unique``, whose first call imports
    ``numpy.ma``, off every color-step and launch path.
    """
    if targets.size == 0:
        return _EMPTY_INDEX
    mask = np.zeros(num_vertices, dtype=bool)
    mask[targets] = True
    return np.flatnonzero(mask)


def flat_rows(column: np.ndarray) -> np.ndarray:
    """A ``(count, 2, L)`` data column as its ``(2 * count, L)`` row view:
    row ``2 * i + d`` is half ``d`` of datum ``i``.

    Kernels gather and scatter whole rows through it with one index
    (``take`` / one fancy assignment) instead of an index pair. Writes
    must reach the caller's column, so a column that is not C-contiguous
    — where a reshape would silently copy — is refused.
    """
    if not column.flags.c_contiguous:
        raise EngineError(
            "batch kernel needs a C-contiguous data column to write "
            f"through; got strides {column.strides} for shape "
            f"{column.shape}"
        )
    return column.reshape(-1, column.shape[-1])


def _directed_slot_lookup(
    csr: Any, sources: np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``(src, dst) -> (slot, found)`` over index pairs."""
    num_vertices = len(csr.vertex_ids)
    num_edges = len(csr.edge_keys)
    codes = csr.edge_src_index * num_vertices + csr.edge_dst_index
    order = np.argsort(codes)
    sorted_codes = codes[order]
    wanted = sources * num_vertices + targets
    pos = np.searchsorted(sorted_codes, wanted)
    pos = np.minimum(pos, num_edges - 1)
    found = sorted_codes[pos] == wanted
    return order[pos], found


def nbr_message_plan(
    csr: Any,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
           np.ndarray]:
    """Undirected neighbor CSR plus directed-message resolution.

    Returns ``(nbr_offsets, nbr_targets, in_slot, in_dir, out_slot,
    out_dir)``. The first two reproduce the interpreter's undirected
    neighborhood layout (in-neighbors first, then out, first-seen
    dedup) and the rest resolve, for position ``k`` (vertex ``v``,
    neighbor ``u``), where the two directed messages live in a
    ``(num_edges, 2, ...)`` edge column storing ``(D_{src->dst},
    D_{dst->src})`` pairs:

    * ``in_slot[k], in_dir[k]`` — the message ``u -> v`` (the incoming
      message the scalar path reads via ``get_message``);
    * ``out_slot[k], out_dir[k]`` — the message ``v -> u`` (the outgoing
      message the scalar path writes via ``set_message``).

    Preference order matches the scalar helpers: the stored direction
    ``(frm, to)`` wins when both orientations of an edge exist. Built
    entirely from the canonical endpoint arrays — like
    :func:`in_edge_plan`, it never materializes the Python-level
    interpreter views, so kernel-mode runtime workers skip that launch
    cost for LBP too.
    """
    plan = csr.plan_cache.get("nbr_message_plan")
    if plan is None:
        offsets, pair_nbr = undirected_plan(csr)
        if pair_nbr.size == 0:
            empty = np.empty(0, dtype=np.int64)
            plan = (offsets, pair_nbr, empty, empty, empty, empty)
            csr.plan_cache["nbr_message_plan"] = plan
            return plan
        pair_vert = np.repeat(
            np.arange(len(csr.vertex_ids), dtype=np.int64),
            np.diff(offsets),
        )
        fwd_slot, fwd_found = _directed_slot_lookup(
            csr, pair_nbr, pair_vert
        )
        rev_slot, rev_found = _directed_slot_lookup(
            csr, pair_vert, pair_nbr
        )
        in_slot = np.where(fwd_found, fwd_slot, rev_slot)
        in_dir = np.where(fwd_found, 0, 1)
        out_slot = np.where(rev_found, rev_slot, fwd_slot)
        out_dir = np.where(rev_found, 0, 1)
        plan = (offsets, pair_nbr, in_slot, in_dir, out_slot, out_dir)
        csr.plan_cache["nbr_message_plan"] = plan
    return plan


def nbr_message_index(csr: Any) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`nbr_message_plan`'s message resolution as flat row indices.

    Returns ``(in_msg, out_msg)``: for neighbour position ``k``,
    ``in_msg[k] = in_slot[k] * 2 + in_dir[k]`` is the row of the
    incoming message ``u -> v`` and ``out_msg[k]`` the row of the
    outgoing ``v -> u``, both in the :func:`flat_rows` view of a
    ``(num_edges, 2, L)`` edge column. Memoized beside the plan.
    """
    index = csr.plan_cache.get("nbr_message_index")
    if index is None:
        _offsets, _targets, in_slot, in_dir, out_slot, out_dir = (
            nbr_message_plan(csr)
        )
        index = (in_slot * 2 + in_dir, out_slot * 2 + out_dir)
        csr.plan_cache["nbr_message_index"] = index
    return index


# ----------------------------------------------------------------------
# Segment primitives.
# ----------------------------------------------------------------------
def segment_positions(
    offsets: np.ndarray, active: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flattened CSR positions of every active vertex's segment.

    Returns ``(pos, counts, ends)``: ``pos`` indexes the CSR value
    arrays, concatenating each active vertex's slice in order; ``counts``
    is the per-vertex segment length; ``ends`` its cumulative sum (so
    ``pos[ends[i]-counts[i]:ends[i]]`` is vertex ``i``'s slice).
    """
    starts = offsets[active]
    counts = offsets[active + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if counts.size else 0
    if total == 0:
        return _EMPTY_INDEX, counts, ends
    pos = (
        np.arange(total, dtype=np.int64)
        - np.repeat(ends - counts, counts)
        + np.repeat(starts, counts)
    )
    return pos, counts, ends


def _ordered_segment_reduce(
    ufunc: np.ufunc,
    base: np.ndarray,
    counts: np.ndarray,
    ends: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """Per-segment reduction in **exact segment order**, in place.

    ``base[i] = op(...op(op(base[i], v0), v1)..., vn)`` over segment
    ``i``'s values, left to right — bit-identical to the scalar
    interpreter's ``for u in neighbors: acc = op(acc, term)`` loop,
    including the seed in ``base``. It is one unbuffered ``ufunc.at``
    scatter: ``ufunc.at`` applies the operation once per index, in
    index order, with no buffering or pairwise regrouping, so
    segment-major target ids give the scalar loop's association order
    whatever the segment lengths (a power-law hub costs its entries,
    not a numpy pass per neighbour). Rows ``(n, L)`` scatter one cell
    column at a time with the same segment ids, which keeps every
    cell's updates in neighbour order; the columns may be strided views
    (a label-major ``(L, n)`` block passed transposed scatters straight
    into its contiguous rows), and the scatter lands in ``base`` itself
    whatever its strides. ``np.ufunc.reduceat`` stays
    banned: its accumulation order is an implementation detail of the
    running numpy (observed non-sequential for ``add`` on numpy 2.4).
    ``tests/test_kernels.py::TestOrderedReduceExactness`` pins the
    ``ufunc.at`` order on the running numpy.
    """
    if values.shape[0] == 0:
        return base
    ids = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    for cell in np.ndindex(base.shape[1:]):
        at = (slice(None),) + cell
        ufunc.at(base[at], ids, values[at])
    return base


def ordered_segment_add(
    base: np.ndarray,
    counts: np.ndarray,
    ends: np.ndarray,
    contrib: np.ndarray,
) -> np.ndarray:
    """Exact-order per-segment sum (see :func:`_ordered_segment_reduce`)."""
    return _ordered_segment_reduce(np.add, base, counts, ends, contrib)


def ordered_segment_mul(
    base: np.ndarray,
    counts: np.ndarray,
    ends: np.ndarray,
    factors: np.ndarray,
) -> np.ndarray:
    """Exact-order per-segment product, rows allowed (LBP's cavity
    product; see :func:`_ordered_segment_reduce`)."""
    return _ordered_segment_reduce(np.multiply, base, counts, ends, factors)


# ----------------------------------------------------------------------
# The mask-based color-sweep driver (SequentialEngine's batch loop).
# ----------------------------------------------------------------------
def run_color_sweeps(
    graph: Any,
    kernel: UpdateKernel,
    classes: List[List[Any]],
    initial: Iterable[Tuple[Any, float]],
    max_updates: Optional[int] = None,
    globals_view: Mapping[str, Any] = _EMPTY_GLOBALS,
) -> Tuple[np.ndarray, int, bool]:
    """Drive ``kernel`` over color-steps until quiescence (or a cap).

    A vectorized replica of :class:`~repro.runtime.oracle.
    ColorSweepScheduler` + the scalar pop loop: the task set ``T`` is a
    boolean mask, a color's work list is snapshotted (``pending &
    class``) when the color is visited, vertices rescheduled during
    their own step wait for the next sweep, empty colors are skipped,
    and ``max_updates`` can truncate mid-color — in which case the
    unexecuted suffix stays scheduled, exactly like vertices left in the
    scalar scheduler when the cap binds. Returns ``(counts_vector,
    num_updates, converged)``.
    """
    csr = graph.compiled
    if csr is None:
        raise EngineError("batch execution requires a finalized graph")
    kernel.bind(graph)
    index_of = csr.index_of
    num_vertices = len(csr.vertex_ids)
    class_idx = [
        np.fromiter(
            (index_of[v] for v in members), dtype=np.int64, count=len(members)
        )
        for members in classes
    ]
    num_colors = len(class_idx)
    covered = np.zeros(num_vertices, dtype=bool)
    for members in class_idx:
        covered[members] = True
    pending = np.zeros(num_vertices, dtype=bool)
    for vertex, _prio in initial:
        index = index_of[vertex]
        if not covered[index]:
            # Same loud failure the scalar ColorSweepScheduler raises.
            raise SchedulerError(
                f"vertex {vertex!r} is not covered by the coloring"
            )
        pending[index] = True
    counts = np.zeros(num_vertices, dtype=np.int64)
    vdata, edata = csr.vdata, csr.edata
    updates = 0
    color = 0
    converged = False
    while True:
        if not pending.any():
            converged = True
            break
        if max_updates is not None and updates >= max_updates:
            break
        work = None
        for _ in range(num_colors):
            current = color
            color = (color + 1) % num_colors
            members = class_idx[current]
            selected = members[pending[members]]
            if selected.size:
                work = selected
                break
        if work is None:  # pragma: no cover - pending.any() guarantees work
            converged = True
            break
        pending[work] = False
        if max_updates is not None and updates + work.size > max_updates:
            # The cap binds mid-color: the scalar engine would stop with
            # the suffix still sitting in the scheduler, so it stays
            # scheduled here too (converged comes out False above).
            pending[work[max_updates - updates:]] = True
            work = work[: max_updates - updates]
        result = kernel.step(graph, work, vdata, edata, globals_view)
        counts[work] += 1
        updates += work.size
        requested = result.scheduled
        if requested.size:
            if not covered[requested].all():
                missing = requested[~covered[requested]][0]
                raise SchedulerError(
                    f"vertex {graph.compiled.vertex_ids[missing]!r} is "
                    "not covered by the coloring"
                )
            pending[requested] = True
    return counts, updates, converged
