"""One ghost-entry path: one router, one entry form, one filter.

* The two publish paths agree: ``collect_dirty_plane``'s ring runs, read
  back as batches, plus its pipe overflow are ``collect_dirty_flat``'s
  batches field for field, at any ring capacity, and applying either
  leaves a destination with identical values and versions.
* ``apply_flat`` — the only version / held / duplicate filter — matches
  the per-entry loop it replaced, for array- and list-valued batches
  with duplicate slots, version ties, stale and unheld entries.
* Every batch carries int32 index and version arrays, untyped graphs'
  dirty batches included.
"""

import dataclasses
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import DataGraph
from repro.runtime.plane import DEFAULT_RING_CAP, LocalDataPlane, plane_spec_for
from repro.runtime.shard import CSRShardStore, FlatEntries, concat_entries

from tests.helpers import grid_graph, ring_graph

NUM_WORKERS = 3


def typed_graph(seed=3, n=16, m=40):
    """Random digraph: (2,)-row float vertex column, float edge column."""
    rng = random.Random(seed)
    g = DataGraph()
    for i in range(n):
        g.add_vertex(i, data=[float(i), 0.0])
    edges = set()
    while len(edges) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((a, b))
    for a, b in sorted(edges):
        g.add_edge(a, b, data=0.0)
    return g.finalize(vertex_dtype=float, edge_dtype=float, vertex_shape=(2,))


TYPED = typed_graph()


def fields_equal(a, b):
    for name in FlatEntries.__slots__:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            x, y = np.asarray(x), np.asarray(y)
            if x.size == 0 and y.size == 0:
                continue
            if x.dtype != y.dtype or not np.array_equal(x, y):
                return False
        elif list(x) != list(y):
            return False
    return True


def write_round(stores, rng, graph):
    """The same random writes on every store of a twin group: owned
    vertices, held edges, and FULL-consistency ghost writes."""
    first = stores[0]
    csr = graph.compiled
    vertices = sorted(first.owned_vertices) + sorted(first.ghost_vertices)
    edges = [
        key for key in csr.edge_keys
        if first.has_vertex(key[0]) and first.has_vertex(key[1])
        and (key[0] in first.owned_vertices or key[1] in first.owned_vertices)
    ]
    writes = []
    for _ in range(rng.randrange(1, 12)):
        if rng.random() < 0.6 and vertices:
            vid = rng.choice(vertices)
            writes.append(("v", vid, [rng.random(), rng.random()]))
        elif edges:
            writes.append(("e", rng.choice(edges), rng.random()))
    for store in stores:
        for kind, key, value in writes:
            if kind == "v":
                store.set_vertex_data(key, np.array(value))
            else:
                store.set_edge_data(key[0], key[1], value)


def ring_batches(writer, meta):
    half = writer.segment.halves[writer.half]
    return {dst: half.entries(*run) for dst, run in meta.items()}


def apply_state(store):
    return (
        store.vdata_flat.copy(), store.edata_flat.copy(),
        store._vversion.copy(), store._eversion.copy(),
    )


class TestPublishPathsAgree:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        src=st.integers(0, NUM_WORKERS - 1),
        cap=st.sampled_from(["one", "small", "default"]),
        rounds=st.integers(1, 3),
    )
    def test_ring_plus_overflow_equals_flat(self, seed, src, cap, rounds):
        rng = random.Random(seed)
        owner = {v: rng.randrange(NUM_WORKERS) for v in TYPED.vertices()}
        flat_src = CSRShardStore(src, TYPED, owner)
        plane_src = CSRShardStore(src, TYPED, owner)
        csr = TYPED.compiled
        spec = plane_spec_for(
            TYPED, NUM_WORKERS, len(csr.vertex_ids), 2 * len(csr.edge_keys),
            kind="local",
        )
        size = {"one": 1, "small": 5, "default": None}[cap]
        if size is not None:
            spec = dataclasses.replace(spec, ring_v=size, ring_e=size)
        else:
            assert spec.ring_v <= DEFAULT_RING_CAP
        plane = LocalDataPlane(spec)
        segment = plane.segments[src]
        plane_src.adopt_buffers(
            segment.vdata, segment.edata, segment.vversion, segment.eversion
        )
        writer = plane.writer_for(src)
        others = [w for w in range(NUM_WORKERS) if w != src]
        flat_dst = {w: CSRShardStore(w, TYPED, owner) for w in others}
        plane_dst = {w: CSRShardStore(w, TYPED, owner) for w in others}
        for _ in range(rounds):
            write_round([flat_src, plane_src], rng, TYPED)
            flat = flat_src.collect_dirty_flat()
            writer.begin_round()
            meta, overflow = plane_src.collect_dirty_plane(writer)
            runs = ring_batches(writer, meta)
            assert set(flat) == set(runs) | set(overflow)
            for dst, batch in flat.items():
                parts = [b for b in (runs.get(dst), overflow.get(dst)) if b]
                assert fields_equal(concat_entries(parts), batch)
                flat_dst[dst].apply_flat(batch)
                for part in parts:  # ring runs first, as a worker does
                    plane_dst[dst].apply_flat(part)
            for w in others:
                for a, b in zip(apply_state(flat_dst[w]), apply_state(plane_dst[w])):
                    assert np.array_equal(a, b)
            if size == 1:
                assert not any(c > 1 for run in meta.values() for c in run[1::2])


# ----------------------------------------------------------------------
# apply_flat against the per-entry loop it replaced.
# ----------------------------------------------------------------------
def reference_apply(store, batch):
    """The per-entry filter ``apply_flat`` ran on list-valued batches
    before it became the only filter: in order, an entry lands only on
    a held slot and only if strictly newer than what is stored."""
    held = store._held_v_mask
    versions = store._vversion
    vdata = store.vdata_flat
    for index, value, version in zip(
        batch.v_index, batch.v_value, batch.v_version
    ):
        if held[index] and version > versions[index]:
            versions[index] = version
            vdata[index] = value
    held_e = store._held_e_mask
    eversions = store._eversion
    edata = store.edata_flat
    for slot, value, version in zip(
        batch.e_slot, batch.e_value, batch.e_version
    ):
        if held_e[slot] and version > eversions[slot]:
            eversions[slot] = version
            edata[slot] = value


def entries(draw, count, values):
    """``(index, version)`` lists over a few slots (duplicates and
    version ties likely) and one distinct value per entry."""
    n = draw(st.integers(0, 12))
    index = draw(st.lists(st.integers(0, count - 1), min_size=n, max_size=n))
    version = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return index, version, [values(k) for k in range(n)]


UNTYPED = ring_graph(8)
GRAPHS = {"typed": TYPED, "untyped": UNTYPED}


@st.composite
def batches(draw):
    kind = draw(st.sampled_from(sorted(GRAPHS)))
    graph = GRAPHS[kind]
    csr = graph.compiled
    base = draw(st.integers(1, 1000)) * 1.0
    if kind == "typed":
        vvalue = lambda k: np.array([base + k, -k])  # noqa: E731
    else:
        vvalue = lambda k: base + k  # noqa: E731
    v = entries(draw, len(csr.vertex_ids), vvalue)
    e = entries(draw, len(csr.edge_keys), lambda k: base - k)
    as_arrays = kind == "typed" and draw(st.booleans())
    if as_arrays:
        v = (
            np.array(v[0], dtype=np.int32),
            np.array(v[2]).reshape(-1, 2),
            np.array(v[1], dtype=np.int32),
        )
        e = (
            np.array(e[0], dtype=np.int32),
            np.array(e[2]),
            np.array(e[1], dtype=np.int32),
        )
    else:
        v = (v[0], v[2], v[1])
        e = (e[0], e[2], e[1])
    seed = draw(st.integers(0, 2**16))
    return kind, FlatEntries(*v, *e), seed


class TestApplyFlatMatchesPerEntryLoop:
    @settings(max_examples=150, deadline=None)
    @given(case=batches(), machine=st.integers(0, 1))
    def test_differential(self, case, machine):
        kind, batch, seed = case
        graph = GRAPHS[kind]
        rng = random.Random(seed)
        owner = {v: rng.randrange(2) for v in graph.vertices()}
        ours = CSRShardStore(machine, graph, owner)
        ref = CSRShardStore(machine, graph, owner)
        start_v = np.array([rng.randrange(3) for _ in ours._vversion])
        start_e = np.array([rng.randrange(3) for _ in ours._eversion])
        for store in (ours, ref):
            store._vversion[:] = start_v
            store._eversion[:] = start_e
        ours.apply_flat(batch)
        reference_apply(ref, batch)
        assert np.array_equal(ours._vversion, ref._vversion)
        assert np.array_equal(ours._eversion, ref._eversion)
        if kind == "typed":
            assert np.array_equal(ours.vdata_flat, ref.vdata_flat)
            assert np.array_equal(ours.edata_flat, ref.edata_flat)
        else:
            assert ours.vdata_flat == ref.vdata_flat
            assert ours.edata_flat == ref.edata_flat

    def test_tie_keeps_the_earliest_entry(self):
        owner = {v: 0 for v in UNTYPED.vertices()}
        store = CSRShardStore(0, UNTYPED, owner)
        batch = FlatEntries(
            np.array([3, 1, 3, 3], dtype=np.int32), [7.0, 1.0, 8.0, 9.0],
            np.array([2, 1, 2, 1], dtype=np.int32), [], [], [],
        )
        store.apply_flat(batch)
        assert store.vdata_flat[3] == 7.0 and store._vversion[3] == 2
        assert store.vdata_flat[1] == 1.0


def test_untyped_dirty_batch_has_journal_dtypes():
    g = grid_graph(4, 4)
    owner = {v: (v[0] + v[1]) % 2 for v in g.vertices()}
    store = CSRShardStore(0, g, owner)
    for v in store.owned_vertices:
        store.set_vertex_data(v, 3.0)
    a, b = next(
        key for key in g.edges() if owner[key[0]] == 0 or owner[key[1]] == 0
    )
    store.set_edge_data(a, b, "x")
    journal = store.checkpoint_payload()
    batches = store.collect_dirty_flat()
    assert batches
    for batch in batches.values():
        for name in ("v_index", "v_version", "e_slot", "e_version"):
            field, reference = getattr(batch, name), getattr(journal, name)
            assert isinstance(field, np.ndarray)
            assert field.dtype == reference.dtype == np.int32
        assert isinstance(batch.v_value, list)
        assert isinstance(batch.e_value, list)
