"""Setup on the compiled arrays: colorings, BFS partitioning and the
ownership plan read the undirected CSR, never the interpreter views.

The differential suite's references are the per-id loops these
functions used before they moved onto the arrays, copied verbatim
below and run on an *unfinalized* twin of each drawn graph, so the
reference neighborhoods come from the builder dictionaries and share
no code with :func:`repro.core.csr.undirected_plan`. Every output must
match: coloring values *and* dict order, validation verdicts and the
pair they name, BFS assignments, and the atom index, placement and
owner map the journals induce.
"""

from collections import deque
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.pagerank import make_pagerank_update
from repro.core import Consistency
from repro.core.coloring import (
    _sort_token,
    bipartite_coloring,
    greedy_coloring,
    second_order_coloring,
    validate_coloring,
)
from repro.core.graph import DataGraph
from repro.datasets.webgraph import power_law_web_graph
from repro.distributed.atom import (
    ADD_EDGE,
    ADD_VERTEX,
    COMMAND_OVERHEAD_BYTES,
    Atom,
    AtomCommand,
    AtomIndex,
)
from repro.distributed.deploy import deploy, plan_ownership
from repro.distributed.ingress import ownership_from_placement
from repro.distributed.models import DataSizeModel
from repro.distributed.partition import bfs_assignment
from repro.errors import (
    ColoringError,
    GraphNotFinalizedError,
    GraphStructureError,
    PartitionError,
)
from repro.runtime import (
    RuntimeChromaticEngine,
    RuntimeLockingEngine,
    UpdateProgram,
)


# ----------------------------------------------------------------------
# References: the per-id loops, as they read before the arrays.
# ----------------------------------------------------------------------
def ref_greedy_coloring(graph, order="degree"):
    if order == "degree":
        vertices = sorted(
            graph.vertices(), key=lambda v: (-graph.degree(v), _sort_token(v))
        )
    elif order == "natural":
        vertices = list(graph.vertices())
    else:
        raise ColoringError(f"unknown coloring order {order!r}")
    colors = {}
    for v in vertices:
        taken = {colors[u] for u in graph.neighbors(v) if u in colors}
        color = 0
        while color in taken:
            color += 1
        colors[v] = color
    return colors


def ref_second_order_coloring(graph):
    vertices = sorted(
        graph.vertices(), key=lambda v: (-graph.degree(v), _sort_token(v))
    )
    colors = {}
    for v in vertices:
        taken = set()
        for u in graph.neighbors(v):
            if u in colors:
                taken.add(colors[u])
            for w in graph.neighbors(u):
                if w != v and w in colors:
                    taken.add(colors[w])
        color = 0
        while color in taken:
            color += 1
        colors[v] = color
    return colors


def ref_bipartite_coloring(graph):
    colors = {}
    for root in graph.vertices():
        if root in colors:
            continue
        colors[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u in graph.neighbors(v):
                if u not in colors:
                    colors[u] = 1 - colors[v]
                    queue.append(u)
                elif colors[u] == colors[v]:
                    raise ColoringError(
                        "graph is not bipartite: odd cycle through "
                        f"{v!r} - {u!r}"
                    )
    return colors


def ref_validate_coloring(graph, coloring, model):
    missing = [v for v in graph.vertices() if v not in coloring]
    if missing:
        raise ColoringError(
            f"coloring misses {len(missing)} vertices (first: {missing[0]!r})"
        )
    if model is Consistency.VERTEX:
        return
    for v in graph.vertices():
        for u in graph.neighbors(v):
            if coloring[u] == coloring[v]:
                raise ColoringError(
                    f"adjacent vertices {v!r}, {u!r} share color "
                    f"{coloring[v]}"
                )
            if model is Consistency.FULL:
                for w in graph.neighbors(u):
                    if w != v and coloring[w] == coloring[v]:
                        raise ColoringError(
                            f"distance-2 vertices {v!r}, {w!r} share color "
                            f"{coloring[v]} (full consistency needs a "
                            "second-order coloring)"
                        )


def ref_bfs_assignment(graph, k):
    target = max(1, -(-graph.num_vertices // k))
    assignment = {}
    part = 0
    filled = 0
    for root in graph.vertices():
        if root in assignment:
            continue
        queue = deque([root])
        while queue:
            v = queue.popleft()
            if v in assignment:
                continue
            if filled >= target and part < k - 1:
                part += 1
                filled = 0
            assignment[v] = part
            filled += 1
            for u in graph.neighbors(v):
                if u not in assignment:
                    queue.append(u)
    return assignment


def ref_build_atoms(graph, assignment, num_atoms, sizes=DataSizeModel()):
    """The journal-first atom build: the index falls out of journaling."""
    missing = [v for v in graph.vertices() if v not in assignment]
    if missing:
        raise PartitionError(
            f"assignment misses {len(missing)} vertices "
            f"(first: {missing[0]!r})"
        )
    bad = [a for a in assignment.values() if not 0 <= a < num_atoms]
    if bad:
        raise PartitionError(
            f"atom id {bad[0]} outside [0, {num_atoms})"
        )
    owned: List[list] = [[] for _ in range(num_atoms)]
    for v in graph.vertices():
        owned[assignment[v]].append(v)
    ghosts: List[set] = [set() for _ in range(num_atoms)]
    cross: Dict[Tuple[int, int], int] = {}
    for (u, w) in graph.edges():
        au, aw = assignment[u], assignment[w]
        if au != aw:
            ghosts[au].add(w)
            ghosts[aw].add(u)
            key = (min(au, aw), max(au, aw))
            cross[key] = cross.get(key, 0) + 1
    atoms = []
    vertex_counts = {}
    for atom_id in range(num_atoms):
        commands = []
        size = 0.0
        for v in owned[atom_id]:
            commands.append(
                AtomCommand(ADD_VERTEX, (v,), graph.vertex_data(v))
            )
            size += sizes.vbytes(v) + COMMAND_OVERHEAD_BYTES
        for v in sorted(ghosts[atom_id], key=repr):
            commands.append(AtomCommand(ADD_VERTEX, (v,), None))
            size += COMMAND_OVERHEAD_BYTES
        for v in owned[atom_id]:
            for w in graph.out_neighbors(v):
                commands.append(
                    AtomCommand(ADD_EDGE, (v, w), graph.edge_data(v, w))
                )
                size += sizes.ebytes(v, w) + COMMAND_OVERHEAD_BYTES
        atoms.append(
            Atom(
                atom_id=atom_id,
                commands=commands,
                owned_vertices=frozenset(owned[atom_id]),
                ghost_vertices=frozenset(ghosts[atom_id]),
                size_bytes=size,
            )
        )
        vertex_counts[atom_id] = len(owned[atom_id])
    index = AtomIndex(
        num_atoms=num_atoms, vertex_counts=vertex_counts, connectivity=cross
    )
    return atoms, index


# ----------------------------------------------------------------------
# Drawn graphs: mixed id types, reciprocal edges, isolated vertices.
# ----------------------------------------------------------------------
#: Small ints collide on purpose (``hash(-1) == hash(-2)``), strings and
#: tuples exercise ``_sort_token``'s cross-type order.
VERTEX_IDS = st.one_of(
    st.integers(min_value=-3, max_value=40),
    st.text(alphabet="ab", min_size=0, max_size=2),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)


@st.composite
def twin_graphs(draw, max_vertices=14):
    """``(builder, compiled)``: one structure, left unfinalized and
    finalized. Drawn self-loops are offered to ``add_edge``, which
    rejects them (the data graph is simple), so ``N[v]`` never holds
    ``v``."""
    ids = draw(
        st.lists(VERTEX_IDS, max_size=max_vertices, unique_by=_sort_token)
    )
    builder = DataGraph()
    for v in ids:  # not DataGraph(vertices=...): it reads pairs as (id, data)
        builder.add_vertex(v)
    if ids:
        pairs = draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(ids) - 1),
                    st.integers(0, len(ids) - 1),
                    st.booleans(),
                ),
                max_size=3 * len(ids),
            )
        )
        for a, b, reciprocal in pairs:
            for src, dst in ((a, b), (b, a)) if reciprocal else ((a, b),):
                u, w = ids[src], ids[dst]
                if u == w:
                    with pytest.raises(GraphStructureError):
                        builder.add_edge(u, w)
                elif not builder.has_edge(u, w):
                    builder.add_edge(u, w)
    return builder, builder.copy().finalize()


def outcome(fn, *args):
    """``("ok", value)`` or ``("error", type, message)``."""
    try:
        return ("ok", fn(*args))
    except (ColoringError, PartitionError) as exc:
        return ("error", type(exc), str(exc))


def same_dict(a, b):
    return a == b and list(a) == list(b)


class TestColoringDifferential:
    @given(twin_graphs())
    @settings(max_examples=150, deadline=None)
    def test_greedy_and_second_order_match_values_and_order(self, twins):
        builder, compiled = twins
        for order in ("degree", "natural"):
            assert same_dict(
                greedy_coloring(compiled, order),
                ref_greedy_coloring(builder, order),
            )
        assert same_dict(
            second_order_coloring(compiled),
            ref_second_order_coloring(builder),
        )

    @given(twin_graphs())
    @settings(max_examples=100, deadline=None)
    def test_bipartite_bfs_matches(self, twins):
        builder, compiled = twins
        got = outcome(bipartite_coloring, compiled)
        want = outcome(ref_bipartite_coloring, builder)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert same_dict(got[1], want[1])
        else:
            assert got == want

    @given(twin_graphs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_validate_gives_same_verdict_and_pair(self, twins, data):
        builder, compiled = twins
        ids = list(compiled.vertices())
        palette = data.draw(st.integers(1, 4))
        coloring = {
            v: data.draw(st.integers(0, palette - 1)) for v in ids
        }
        if ids and data.draw(st.booleans()):
            # Valid colorings too, so "no error" is exercised.
            coloring = ref_second_order_coloring(builder)
        for model in (Consistency.EDGE, Consistency.FULL, Consistency.VERTEX):
            assert outcome(
                validate_coloring, compiled, coloring, model
            ) == outcome(ref_validate_coloring, builder, coloring, model)

    @given(twin_graphs(), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_bfs_assignment_matches(self, twins, k):
        builder, compiled = twins
        assert same_dict(
            bfs_assignment(compiled, k), ref_bfs_assignment(builder, k)
        )

    @given(twin_graphs())
    @settings(max_examples=50, deadline=None)
    def test_degrees_read_the_offsets(self, twins):
        builder, compiled = twins
        for v in builder.vertices():
            assert compiled.degree(v) == len(builder.neighbors(v))
            assert compiled.out_degree(v) == builder.out_degree(v)
            assert compiled.in_degree(v) == builder.in_degree(v)
            assert type(compiled.degree(v)) is int
        assert not compiled.compiled._views.built

    def test_unfinalized_graph_is_refused(self):
        g = DataGraph(vertices=[0, 1], edges=[(0, 1)])
        for fn in (greedy_coloring, second_order_coloring, bipartite_coloring):
            with pytest.raises(GraphNotFinalizedError):
                fn(g)
        with pytest.raises(GraphNotFinalizedError):
            validate_coloring(g, {0: 0, 1: 1}, Consistency.EDGE)
        with pytest.raises(GraphNotFinalizedError):
            bfs_assignment(g, 2)


class TestPlanDifferential:
    @given(
        twin_graphs(max_vertices=20),
        st.integers(1, 3),
        st.integers(1, 3),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_index_placement_owner_match_the_journals(
        self, twins, machines, per_machine, data
    ):
        builder, compiled = twins
        num_atoms = machines * per_machine
        ids = list(compiled.vertices())
        assignment = {
            v: data.draw(st.integers(0, num_atoms - 1)) for v in ids
        }
        corrupt = data.draw(st.sampled_from(["none", "missing", "range"]))
        if ids and corrupt == "missing":
            del assignment[data.draw(st.sampled_from(ids))]
        elif ids and corrupt == "range":
            assignment[data.draw(st.sampled_from(ids))] = num_atoms
        want = outcome(ref_build_atoms, builder, assignment, num_atoms)
        got = outcome(
            plan_ownership,
            compiled,
            machines,
            None,
            assignment,
            per_machine,
        )
        assert got[0] == want[0]
        if got[0] == "error":
            assert got == want
            return
        plan, (ref_atoms, ref_index) = got[1], want[1]
        assert plan.index == ref_index
        assert plan.placement == ref_index.place(machines)
        assert plan.owner == ownership_from_placement(
            ref_atoms, plan.placement
        )
        assert not compiled.compiled._views.built
        assert "atoms" not in vars(plan)

    def test_index_matches_on_a_power_law_graph(self):
        g = power_law_web_graph(400, out_degree=4, seed=3)
        plan = plan_ownership(g, 3, partitioner="bfs", atoms_per_machine=5)
        twin = power_law_web_graph(400, out_degree=4, seed=3)
        ref_atoms, ref_index = ref_build_atoms(
            twin, ref_bfs_assignment(twin, 15), 15
        )
        assert plan.index == ref_index
        assert plan.owner == ownership_from_placement(
            ref_atoms, plan.placement
        )
        assert [a.encode() for a in plan.atoms] == [
            a.encode() for a in ref_atoms
        ]


def test_unique_return_index_gives_first_occurrences():
    """Canary for the numpy order rules ``undirected_plan`` relies on:
    ``np.unique(..., return_index=True)`` reports the *first* index of
    each value, and a stable argsort keeps equal keys in input order."""
    codes = np.array([7, 3, 7, 3, 9, 3, 7, 9, 1, 1], dtype=np.int64)
    values, first = np.unique(codes, return_index=True)
    assert values.tolist() == [1, 3, 7, 9]
    assert first.tolist() == [8, 1, 0, 4]
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 50, size=20_000)
    _values, first = np.unique(keys, return_index=True)
    for value, index in zip(_values.tolist(), first.tolist()):
        assert index == int(np.flatnonzero(keys == value)[0])
    order = np.argsort(keys, kind="stable")
    for value in range(50):
        run = order[keys[order] == value]
        assert np.all(np.diff(run) > 0)


# ----------------------------------------------------------------------
# Structural guards: construction and run() build no view, no journal.
# ----------------------------------------------------------------------
def test_chromatic_construct_and_run_build_no_views_or_journals():
    graph = power_law_web_graph(300, out_degree=3, seed=2, typed=True)
    engine = RuntimeChromaticEngine(
        graph,
        UpdateProgram(make_pagerank_update, kwargs={"schedule": "self"}),
        num_workers=2,
        transport="inproc",
        coloring=greedy_coloring(graph),
        max_sweeps=2,
    )
    result = engine.run(initial=graph.vertices())
    assert result.num_updates == 2 * graph.num_vertices
    assert graph.compiled._views.built is False
    assert "atoms" not in vars(engine.plan)


def test_locking_construct_builds_no_views_or_journals():
    graph = power_law_web_graph(300, out_degree=3, seed=2, typed=True)
    engine = RuntimeLockingEngine(
        graph,
        UpdateProgram(make_pagerank_update),
        num_workers=2,
        transport="inproc",
    )
    assert graph.compiled._views.built is False
    assert "atoms" not in vars(engine.plan)


def test_deploy_journals_encode_like_the_journal_first_build():
    """``deploy()``'s simulated ingress still reads the journals, and
    they serialize byte for byte as the journal-first build wrote them."""
    graph = power_law_web_graph(120, out_degree=3, seed=5)
    dep = deploy(graph, 3, partitioner="bfs", skip_ingress_io=True)
    ref_atoms, ref_index = ref_build_atoms(
        graph, ref_bfs_assignment(graph, 12), 12
    )
    assert dep.index == ref_index
    assert [a.encode() for a in dep.atoms] == [a.encode() for a in ref_atoms]
    assert dep.owner == ownership_from_placement(
        ref_atoms, ref_index.place(3)
    )
