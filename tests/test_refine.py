"""Color refinement over tuples: enumeration, the four update rules, and
the pair-distinguishing harness."""

import itertools
import random
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_helpers import random_graph
from wlsim import refine
from wlsim.errors import (
    INVALID_SCHEMA,
    ITERATION_LIMIT,
    MEMORY_LIMIT,
    SHAPE_MISMATCH,
    SPACE_MISMATCH,
    VARIANT_MISMATCH,
    LimitError,
    ValidationError,
)
from wlsim.graphs import Graph, apply_permutation, atomic_types, builtin_pair
from wlsim.refine import (
    SORT_ROWS,
    VARIANTS,
    Coloring,
    TupleSpace,
    _dense_relabel,
    _gather_plans,
    _initial_ids,
    _relabel_rows,
    _row_weights,
    _sorted_ids,
    _summary_ids,
    distinguish,
    enumerate_tuples,
    initial_coloring,
    refine_step,
    refine_to_stable,
    run_to_dict,
)
from wlsim.simulate import (
    construct_kgt_weights,
    generalized_adjacency,
    gnn_reference_step,
    initial_tokens,
    simulate_and_compare,
)
from wlsim.tokens import TokenizerConfig

ALL_VARIANTS = (("kwl", 1, 1), ("kwl", 2, 2), ("delta_kwl", 2, 2), ("delta_klwl", 2, 2), ("ks_lwl", 2, 1))


def index_of(space):
    """Map from each tuple of the space to its row."""
    return {v: i for i, v in enumerate(space.tuples)}


def every_node(space):
    """Every node, once per tuple: the ``(t, n)`` argument with which
    ``TupleSpace.substitute`` gives all the substitutions at a position."""
    return np.broadcast_to(np.arange(space.num_nodes), (len(space.nodes), space.num_nodes))


def classic_refinement(graph):
    """Independent 1-WL oracle: dict-based, no engine code.

    Returns the stable partition as a tuple of dense ids in node order.
    """
    colors = {v: graph.labels[v] for v in range(graph.num_nodes)}
    while True:
        keys = {
            v: (colors[v], tuple(sorted(colors[w] for w in graph.neighbor_sets[v])))
            for v in range(graph.num_nodes)
        }
        table = {}
        nxt = {}
        for v in range(graph.num_nodes):
            nxt[v] = table.setdefault(keys[v], len(table))
        if partition_of(list(nxt.values())) == partition_of(list(colors.values())):
            return tuple(nxt[v] for v in range(graph.num_nodes))
        colors = nxt


def partition_of(colors):
    groups = {}
    for i, c in enumerate(colors):
        groups.setdefault(c, []).append(i)
    return frozenset(tuple(g) for g in groups.values())


def components_of(graph, nodes):
    nodes = set(nodes)
    seen = set()
    count = 0
    for start in nodes:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for w in graph.neighbor_sets[v]:
                if w in nodes and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


# --------------------------------------------------------- enumerate_tuples


def test_full_space_is_row_major():
    g = Graph(2, [(0, 1)])
    space = enumerate_tuples(g, 2, 2)
    assert space.tuples == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_k1_space_is_the_node_list(c6):
    assert enumerate_tuples(c6, 1, 1).tuples == tuple((v,) for v in range(6))


def test_restricted_space_drops_disconnected_tuples(k3, p3):
    assert len(enumerate_tuples(k3, 2, 1).tuples) == 9
    space = enumerate_tuples(p3, 2, 1)
    assert len(space.tuples) == 7
    assert (0, 2) not in index_of(space)
    assert (2, 0) not in index_of(space)


def test_restricted_space_agrees_with_component_counting(graph_samples):
    for g in graph_samples(7, 10, 2, 5):
        space = enumerate_tuples(g, 2, 1)
        expected = [
            tup
            for tup in itertools.product(range(g.num_nodes), repeat=2)
            if components_of(g, set(tup)) <= 1
        ]
        assert list(space.tuples) == expected


@pytest.mark.parametrize("k,s", [(1, 1), (2, 2), (2, 1), (3, 3), (3, 2), (3, 1)])
def test_substitution_table_matches_index_of(graph_samples, k, s):
    for g in graph_samples(13, 6, 2, 5):
        space = enumerate_tuples(g, k, s)
        rows = index_of(space)
        for j in range(k):
            table = space.substitute(j, every_node(space))
            assert table.dtype == np.int32
            assert table.shape == (len(space.tuples), g.num_nodes)
            for i, tup in enumerate(space.tuples):
                for w in range(g.num_nodes):
                    want = rows.get(tup[:j] + (w,) + tup[j + 1 :], -1)
                    assert table[i, w] == want


def _component_count(graph, tup):
    """Connected components of the subgraph induced by the tuple's nodes:
    the per-candidate search the engine used before its vectorized filter,
    kept as the reference."""
    left, count = set(tup), 0
    while left:
        count += 1
        stack = [left.pop()]
        while stack:
            reach = graph.neighbor_sets[stack.pop()] & left
            left -= reach
            stack.extend(reach)
    return count


@st.composite
def filter_graphs(draw):
    """A connected graph, a graph of two connected parts, or an edge case:
    a single edge, a complete graph K3-K5, or a path beside a clique."""
    kind = draw(st.sampled_from(("connected", "two_components", "edge", "complete", "path_clique")))
    rng = random.Random(draw(st.integers(0, 10_000)))
    if kind == "connected":
        return random_graph(rng, rng.randint(2, 7), edge_prob=rng.uniform(0.1, 0.9), connected=True)
    if kind == "two_components":
        a = random_graph(rng, rng.randint(2, 4), edge_prob=rng.uniform(0.1, 0.9), connected=True)
        b = random_graph(rng, rng.randint(2, 3), edge_prob=rng.uniform(0.1, 0.9), connected=True)
        shifted = [(u + a.num_nodes, v + a.num_nodes) for u, v in b.edges]
        return Graph(a.num_nodes + b.num_nodes, list(a.edges) + shifted)
    if kind == "edge":
        return Graph(2, [(0, 1)])
    if kind == "complete":
        n = rng.randint(3, 5)
        return Graph(n, list(itertools.combinations(range(n), 2)))
    a, b = rng.randint(2, 3), rng.randint(2, 3)
    edges = [(i, i + 1) for i in range(a - 1)]
    edges += [(a + i, a + j) for i, j in itertools.combinations(range(b), 2)]
    return Graph(a + b, edges)


@settings(max_examples=40, deadline=None)
@given(g=filter_graphs())
def test_vectorized_filter_equals_component_counting(g):
    for k in range(1, 5):
        candidates = list(itertools.product(range(g.num_nodes), repeat=k))
        for s in range(1, k + 1):
            expected = [tup for tup in candidates if _component_count(g, tup) <= s]
            assert enumerate_tuples(g, k, s).tuples == tuple(expected), (k, s)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_full_space_substitution_is_arithmetic(graph_samples, k):
    # s = k: the substitution is i + (w - u_j) * n ** (k - 1 - j), with no
    # position map.
    for g in graph_samples(29, 3, 2, 5):
        space = enumerate_tuples(g, k, k)
        rows = index_of(space)
        for j in range(k):
            table = space.substitute(j, every_node(space))
            for i, tup in enumerate(space.tuples):
                for w in range(g.num_nodes):
                    assert table[i, w] == rows[tup[:j] + (w,) + tup[j + 1 :]]
        assert "_position" not in space.__dict__


def test_tuple_space_is_a_read_only_node_array(p3):
    space = enumerate_tuples(p3, 2, 1)
    assert space.nodes.dtype == np.int64 and space.nodes.shape == (7, 2)
    assert not space.nodes.flags.writeable
    assert space == enumerate_tuples(Graph(3, [(0, 1), (1, 2)]), 2, 1)
    assert space != enumerate_tuples(p3, 2, 2)
    assert space != enumerate_tuples(Graph(3, [(0, 1), (0, 2)]), 2, 1)


def _connected_graph_with_edges(rng, n, m):
    """A random recursive tree on n nodes plus uniform extra edges up to m."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph(n, sorted(edges))


def test_restricted_space_filter_runs_in_blocks_at_the_cap():
    # n ** k = 1,953,125 candidates, under the default cap of 2,000,000.
    g = _connected_graph_with_edges(random.Random(125), 125, 320)
    g.adjacency_matrix  # measure the filter, not the graph's own matrix
    tracemalloc.start()
    try:
        space = enumerate_tuples(g, 3, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16_000_000
    # Connected tuples over 1, 2 and 3 distinct nodes: every node, 2^3 - 2
    # tuples per edge, and 3! per connected triple, of which there are
    # sum C(deg, 2) minus two per triangle (a triangle has three centers).
    degrees = [len(nb) for nb in g.neighbor_sets]
    triangles = sum(len(g.neighbor_sets[u] & g.neighbor_sets[v]) for u, v in g.edges) // 3
    triples = sum(d * (d - 1) // 2 for d in degrees) - 2 * triangles
    assert len(space.nodes) == g.num_nodes + 6 * len(g.edges) + 6 * triples
    rng = random.Random(3)
    for i in rng.sample(range(len(space.nodes)), 200):
        assert _component_count(g, tuple(space.nodes[i].tolist())) == 1


@pytest.mark.parametrize("variant", ["kwl", "delta_klwl", "ks_lwl"])
def test_local_rules_on_a_sparse_graph_stay_within_degree_memory(variant):
    # A 3000-cycle with a leaf on every third node: 4000 nodes, degree <= 3.
    # An n x n table or adjacency would take 16-64 MB here.
    n_cycle = 3000
    edges = [(v, (v + 1) % n_cycle) for v in range(n_cycle)]
    edges += [(v, n_cycle + v // 3) for v in range(0, n_cycle, 3)]
    g = Graph(n_cycle + n_cycle // 3, edges)
    g.neighbor_sets  # measure the refinement, not the graph's own sets
    tracemalloc.start()
    try:
        run = refine_to_stable(g, 1, 1, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
    assert partition_of(run[-1].colors) == partition_of(classic_refinement(g))


def test_tuple_space_memory_cap(c6):
    with pytest.raises(LimitError) as exc:
        enumerate_tuples(c6, 9, 9)
    assert exc.value.code == MEMORY_LIMIT


def test_an_order_past_the_cap_bit_length_is_refused_without_n_to_the_k(p3):
    # Up to the cap's bit length, 21, the refusal writes n^k out; past it
    # every graph (n >= 2) is over the cap, and n^k is not computed.
    with pytest.raises(LimitError) as exc:
        enumerate_tuples(p3, 21, 21)
    assert exc.value.message == "tuple space of size 3^21 = 10460353203 exceeds the cap of 2000000"
    for k, s in ((22, 22), (10**6, 1), (10**8, 10**8)):
        with pytest.raises(LimitError) as exc:
            enumerate_tuples(p3, k, s)
        assert exc.value.code == MEMORY_LIMIT
        assert exc.value.message == f"tuple space of size 3^{k} exceeds the cap of 2000000"


@pytest.mark.parametrize("k,s", [(0, 0), (2, 3), (1, 0)])
def test_order_bounds_are_validated(p3, k, s):
    with pytest.raises(ValidationError) as exc:
        enumerate_tuples(p3, k, s)
    assert exc.value.code == INVALID_SCHEMA


# --------------------------------------------------------- initial_coloring


def test_unlabeled_cycle_starts_monochrome(c6):
    space = enumerate_tuples(c6, 1, 1)
    assert set(initial_coloring(c6, space).colors) == {0}


def test_k3_pairs_start_with_two_colors(k3):
    space = enumerate_tuples(k3, 2, 2)
    coloring = initial_coloring(k3, space)
    assert len(set(coloring.colors)) == 2


def test_p3_pairs_start_with_three_colors(p3):
    space = enumerate_tuples(p3, 2, 2)
    coloring = initial_coloring(p3, space)
    assert len(set(coloring.colors)) == 3
    # canonical ids appear in first-occurrence order
    assert coloring.colors[0] == 0


def test_node_labels_enter_initial_colors():
    g = Graph(3, [(0, 1), (1, 2)], labels=(5, 5, 9))
    coloring = initial_coloring(g, enumerate_tuples(g, 1, 1))
    assert coloring.colors[0] == coloring.colors[1] != coloring.colors[2]


# -------------------------------------------------------------- refine_step


def test_regular_graph_stays_monochrome(c6):
    space = enumerate_tuples(c6, 1, 1)
    after = refine_step(c6, space, initial_coloring(c6, space), "kwl")
    assert set(after.colors) == {0}


def test_p3_splits_by_degree(p3):
    space = enumerate_tuples(p3, 1, 1)
    after = refine_step(p3, space, initial_coloring(p3, space), "kwl")
    assert after.colors[0] == after.colors[2] != after.colors[1]


def test_stable_coloring_is_a_fixed_point(graph_samples):
    for g in graph_samples(41, 8, 2, 6):
        for variant, k, s in ALL_VARIANTS:
            space = enumerate_tuples(g, k, s)
            stable = refine_to_stable(g, k, s, variant)[-1]
            again = refine_step(g, space, stable, variant)
            assert partition_of(again.colors) == partition_of(stable.colors)


def test_variant_space_mismatch():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    space = enumerate_tuples(g, 2, 1)
    with pytest.raises(ValidationError) as exc:
        refine_step(g, space, initial_coloring(g, space), "kwl")
    assert exc.value.code == VARIANT_MISMATCH


def test_unknown_variant_rejected(p3):
    space = enumerate_tuples(p3, 1, 1)
    with pytest.raises(ValidationError) as exc:
        refine_step(p3, space, initial_coloring(p3, space), "wl2")
    assert exc.value.code == INVALID_SCHEMA


@pytest.mark.parametrize(
    "colors",
    [(0, 1, 2), np.zeros((6, 6), dtype=np.int64), np.zeros(36), [True] * 36, ["0"] * 36],
)
def test_a_coloring_that_does_not_fit_its_space_is_refused(c6, colors):
    # 36 tuples at k = 2: the engine would fail to reshape these colors and
    # the oracle to broadcast them.
    with pytest.raises(ValidationError) as exc:
        Coloring(enumerate_tuples(c6, 2, 2), colors, 0)
    assert exc.value.code == SHAPE_MISMATCH


def test_a_coloring_holds_one_read_only_int64_array(c6):
    space = enumerate_tuples(c6, 2, 2)
    ids = _initial_ids([space])[0]
    assert Coloring(space, ids, 0).colors is ids
    # Negative colors are the digit oracle's to refuse, not the coloring's.
    listed = Coloring(space, [-1] * 36, 0).colors
    assert listed.dtype == np.int64 and listed.tolist() == [-1] * 36
    for colors in (ids, listed):
        with pytest.raises(ValueError):
            colors[0] = 1


# --------------------------------------------------------- refine_to_stable


def test_single_edge_is_stable_immediately(single_edge):
    run = refine_to_stable(single_edge, 1, 1, "kwl")
    assert len(run) == 1
    assert set(run[0].colors) == {0}


def test_p3_stabilizes_after_one_round(p3):
    run = refine_to_stable(p3, 1, 1, "kwl")
    assert len(run) == 2
    assert len(set(run[-1].colors)) == 2


def test_c6_pair_space_regression(c6):
    # regression value frozen on first run: the initial 3-way split by
    # atomic type is already stable for plain pairwise refinement
    run = refine_to_stable(c6, 2, 2, "kwl")
    assert len(run) == 1
    assert len(set(run[-1].colors)) == 3


def test_monotone_refinement_along_the_run(graph_samples):
    for g in graph_samples(43, 10, 2, 7):
        run = refine_to_stable(g, 2, 2, "delta_kwl")
        for earlier, later in zip(run, run[1:]):
            assert refines(later, earlier)
            assert not refines(earlier, later) or partition_of(earlier.colors) == partition_of(
                later.colors
            )


def test_iteration_cap_guards_bugs(p3):
    with pytest.raises(LimitError) as exc:
        refine_to_stable(p3, 1, 1, "kwl", max_iterations=0)
    assert exc.value.code == ITERATION_LIMIT


@pytest.mark.parametrize("cap", [-1, 1.5, True, None])
def test_iteration_cap_must_be_a_non_negative_int(p3, cap):
    with pytest.raises(ValidationError) as exc:
        refine_to_stable(p3, 1, 1, "kwl", max_iterations=cap)
    assert exc.value.code == INVALID_SCHEMA
    with pytest.raises(ValidationError) as exc:
        distinguish(p3, p3, "kwl", 1, 1, max_iterations=cap)
    assert exc.value.code == INVALID_SCHEMA


def test_stable_partition_matches_classic_oracle(graph_samples):
    for g in graph_samples(47, 40, 2, 8, label_count=2):
        stable = refine_to_stable(g, 1, 1, "kwl")[-1]
        assert partition_of(stable.colors) == partition_of(classic_refinement(g))


def test_a_run_plans_its_gathers_once(monkeypatch, graph_samples):
    # A full space reads its neighbor blocks along the color grid, so it never
    # substitutes. A restricted space's gather depends on the graph and the
    # space only, so one run substitutes once per position, not once per
    # position and round.
    calls = []
    substitute = TupleSpace.substitute

    def counting(self, j, nodes):
        calls.append(j)
        return substitute(self, j, nodes)

    monkeypatch.setattr(TupleSpace, "substitute", counting)
    for g in graph_samples(41, 4, 5, 7):
        for k in (1, 2, 3):
            for variant in VARIANTS:
                calls.clear()
                run = refine_to_stable(g, k, k, variant)
                assert len(run) >= 2  # at least two rounds ran
                assert calls == [], variant
            for s in range(1, k):
                calls.clear()
                run = refine_to_stable(g, k, s, "ks_lwl")
                assert len(run) >= 2
                assert sorted(calls) == list(range(k)), s


def _asymmetric_tree():
    """Legs of one, two and three edges at node 0: no automorphism, so
    classic refinement ends with every node in its own class."""
    return Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])


@pytest.mark.parametrize("variant, k", [("kwl", 1), ("delta_klwl", 1), ("delta_kwl", 2), ("delta_klwl", 2)])
def test_a_run_that_turns_discrete_makes_no_confirming_round(monkeypatch, variant, k):
    # A discrete coloring numbered 0, 1, ... is its own next round, so the
    # run ends on it without computing that round.
    steps = []
    step = refine.refine_step

    def counting(*args):
        steps.append(args)
        return step(*args)

    monkeypatch.setattr(refine, "refine_step", counting)
    run = refine_to_stable(_asymmetric_tree(), k, k, variant)
    assert run[-1].colors.tolist() == list(range(7**k))
    assert len(run) >= 2
    assert len(steps) == len(run) - 1


@pytest.mark.parametrize(
    "graph, k, variant",
    [
        (_asymmetric_tree(), 1, "kwl"),
        (_asymmetric_tree(), 2, "delta_kwl"),
        (Graph(4, [(0, 1), (1, 2), (2, 3)]), 2, "kwl"),
    ],
)
def test_the_iteration_cap_counts_the_rounds_that_change_the_partition(graph, k, variant):
    # Whether or not the run ends discrete, it needs len(run) rounds: a cap
    # one lower is reached, and a cap of len(run) returns the run.
    run = refine_to_stable(graph, k, k, variant)
    with pytest.raises(LimitError) as exc:
        refine_to_stable(graph, k, k, variant, max_iterations=len(run) - 1)
    assert exc.value.code == ITERATION_LIMIT
    capped = refine_to_stable(graph, k, k, variant, max_iterations=len(run))
    assert [c.colors.tolist() for c in capped] == [c.colors.tolist() for c in run]


@pytest.mark.parametrize("color", [-1, 2**31, 2**32])
def test_refine_step_refuses_colors_outside_the_int32_range(color):
    # Node 0 has degree 1 and node 2 degree 2, so one local round splits
    # them. A color of -1 is read as padding and one of 2 ** 32 as 0, and
    # either merged the two.
    g = Graph(5, [(0, 1), (2, 3), (2, 4)])
    space = enumerate_tuples(g, 1, 1)
    split = refine_step(g, space, Coloring(space, [0, 5, 0, 6, 5], 0), "delta_klwl")
    assert split.colors[0] != split.colors[2]
    with pytest.raises(ValidationError) as exc:
        refine_step(g, space, Coloring(space, [0, 5, 0, color, 5], 0), "delta_klwl")
    assert exc.value.code == INVALID_SCHEMA


def _reference_summary_ids(graphs, spaces, variant, color_lists):
    """One round through every substitution at every position: the row builder
    the engine used before it sorted fibers, kept as the reference. The full
    rules gather every substitution, with the (color, adjacent) pair packed
    as ``2 * color + adjacent`` under ``delta_kwl``. The local rules keep the
    colors reached through neighbors and -1 elsewhere, and after the sort
    the last entries, as many as the largest degree of the graphs. Its rows
    are numbered through the dict on their bytes, not through the
    ``_relabel_rows`` the engine uses."""
    local = variant in ("delta_klwl", "ks_lwl") or (variant == "kwl" and spaces[0].k == 1)
    width = max(int(graph.adjacency_matrix.sum(axis=1).max()) for graph in graphs)
    row_arrays = []
    for graph, space, colors in zip(graphs, spaces, color_lists):
        colors = np.asarray(colors, dtype=np.int32)
        blocks = [colors[:, None]]
        for j in range(space.k):
            block = colors[space.substitute(j, every_node(space))]
            adjacent = graph.adjacency_matrix[space.nodes[:, j]]
            if local:
                block = np.where(adjacent, block, -1)
            elif variant == "delta_kwl":
                block = 2 * block + adjacent
            block.sort(axis=1)
            blocks.append(block[:, block.shape[1] - width :] if local else block)
        rows = np.hstack(blocks)
        row_arrays.append([row.tobytes() for row in rows])
    return _dense_relabel(row_arrays)


@st.composite
def labelled_graphs(draw, n):
    """A graph on n nodes: connected, or two connected parts, with or
    without node labels."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    if draw(st.booleans()) and n >= 4:
        a = rng.randint(2, n - 2)
        first = random_graph(rng, a, edge_prob=rng.uniform(0.2, 0.9), connected=True)
        second = random_graph(rng, n - a, edge_prob=rng.uniform(0.2, 0.9), connected=True)
        edges = list(first.edges) + [(u + a, v + a) for u, v in second.edges]
    else:
        edges = random_graph(rng, n, edge_prob=rng.uniform(0.1, 0.9), connected=True).edges
    labels = tuple(rng.randint(0, 1) for _ in range(n)) if draw(st.booleans()) else None
    return Graph(n, list(edges), labels=labels)


def _assert_rounds_equal_the_reference(graphs, spaces, noise):
    # Every round of a run and a random coloring, under every rule of a full
    # space: the engine's ids equal the reference's, through one table for
    # all the graphs.
    for variant in VARIANTS:
        plans = _gather_plans(spaces, variant)
        colors = _initial_ids(spaces)
        for _ in range(4):
            ids = [graph_ids.tolist() for graph_ids in _summary_ids(plans, colors)]
            assert ids == _reference_summary_ids(graphs, spaces, variant, colors), variant
            colors = ids
        ids = [graph_ids.tolist() for graph_ids in _summary_ids(plans, noise)]
        assert ids == _reference_summary_ids(graphs, spaces, variant, noise), variant


@settings(max_examples=40, deadline=None)
@given(data=st.data(), k=st.integers(1, 4), joint=st.booleans())
def test_fiber_rows_equal_the_table_rows_id_for_id(data, k, joint):
    n = data.draw(st.integers(2, {1: 9, 2: 7, 3: 6, 4: 5}[k]))
    graphs = [data.draw(labelled_graphs(n)) for _ in range(1 + joint)]
    spaces = [enumerate_tuples(g, k, k) for g in graphs]
    noise = [data.draw(st.lists(st.integers(0, 3), min_size=n**k, max_size=n**k)) for _ in graphs]
    _assert_rounds_equal_the_reference(graphs, spaces, noise)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_joint_neighbor_blocks_pad_to_the_larger_degree(k):
    # A star (degree 5) with two labelled paths (degree 2): the paths' blocks
    # carry more -1 padding than their own degree needs.
    star = Graph(6, [(0, v) for v in range(1, 6)])
    paths = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)], labels=(0, 1, 0, 1, 0, 1))
    graphs = [paths, star]
    spaces = [enumerate_tuples(g, k, k) for g in graphs]
    rng = random.Random(k)
    noise = [[rng.randrange(4) for _ in range(6**k)] for _ in graphs]
    _assert_rounds_equal_the_reference(graphs, spaces, noise)


@pytest.mark.parametrize("variant, k, s", ALL_VARIANTS + (("delta_kwl", 3, 3), ("kwl", 3, 3), ("ks_lwl", 3, 2)))
def test_engine_runs_never_build_the_substitution_table(monkeypatch, p3, c6, variant, k, s):
    # The engine reads the neighbor substitutions only: it never asks
    # ``substitute`` for every node at a position, the (t, n) table.
    real = TupleSpace.substitute

    def refuse_every_node(self, j, nodes):
        if nodes.shape[1] == self.num_nodes and (nodes == np.arange(self.num_nodes)).all():
            raise AssertionError("the engine built a substitution table of every node")
        return real(self, j, nodes)

    monkeypatch.setattr(TupleSpace, "substitute", refuse_every_node)
    refine_to_stable(c6, k, s, variant)
    distinguish(p3, c6, variant, k, s)
    distinguish(c6, c6, variant, k, s)
    g, h = builtin_pair("k33_vs_prism")
    distinguish(g, h, variant, k, s)


@pytest.mark.parametrize("variant", ["kwl", "delta_kwl"])
def test_full_rules_at_order_three_stay_within_fiber_memory(variant):
    # 64,000 tuples; the (k, t, n) table alone would take 30.7 MB here, and
    # the gathered (t, 1 + k * n) rows another 31 MB.
    g = _connected_graph_with_edges(random.Random(40), 40, 80)
    g.neighbor_array, g.adjacency_matrix  # measure the refinement, not the graph
    tracemalloc.start()
    try:
        run = refine_to_stable(g, 3, 3, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000_000
    assert len(run) >= 2


@pytest.mark.parametrize("variant", ["delta_kwl", "delta_klwl"])
def test_neighbor_blocks_at_order_three_are_written_in_place(variant):
    # 64,000 tuples at degree up to 10. Neighbor blocks gathered through a
    # substitute plan into arrays of their own, then joined into the rows,
    # peak at about 35 MB here; taken along the grid into the rows, at about
    # 17 MB.
    g = random_graph(random.Random(40), 40, 0.1, connected=True)
    g.neighbor_array, g.adjacency_matrix  # measure the refinement, not the graph
    tracemalloc.start()
    try:
        run = refine_to_stable(g, 3, 3, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25_000_000
    assert len(run) >= 2


@pytest.mark.parametrize("variant, k, s", ALL_VARIANTS + (("delta_kwl", 3, 3), ("ks_lwl", 3, 2)))
def test_engine_runs_never_build_python_tuples(monkeypatch, p3, c6, variant, k, s):
    def refuse(self):
        raise AssertionError("the engine read TupleSpace.tuples")

    monkeypatch.setattr(TupleSpace, "tuples", property(refuse))
    refine_to_stable(c6, k, s, variant)
    distinguish(p3, c6, variant, k, s)
    distinguish(c6, c6, variant, k, s)


def test_runs_are_deterministic(c6):
    a = refine_to_stable(c6, 2, 2, "delta_kwl")
    b = refine_to_stable(c6, 2, 2, "delta_kwl")
    assert [c.colors.tolist() for c in a] == [c.colors.tolist() for c in b]


# --------------------------------------------------------------- refines


def refines(a, b):
    """True when every color class of ``a`` sits inside one class of ``b``."""
    if a.space != b.space:
        raise ValidationError(SPACE_MISMATCH, "colorings live on different tuple spaces")
    image = {}
    for ca, cb in zip(a.colors, b.colors):
        if image.setdefault(ca, cb) != cb:
            return False
    return True


def test_refines_is_reflexive(p3):
    c = initial_coloring(p3, enumerate_tuples(p3, 1, 1))
    assert refines(c, c)


def test_one_step_refines_its_input(graph_samples):
    for g in graph_samples(53, 10, 2, 6):
        space = enumerate_tuples(g, 2, 2)
        c = initial_coloring(g, space)
        assert refines(refine_step(g, space, c, "kwl"), c)


def test_refines_requires_one_space(p3, single_edge):
    a = initial_coloring(p3, enumerate_tuples(p3, 1, 1))
    b = initial_coloring(single_edge, enumerate_tuples(single_edge, 1, 1))
    with pytest.raises(ValidationError) as exc:
        refines(a, b)
    assert exc.value.code == SPACE_MISMATCH


def test_delta_refines_plain_per_iteration(graph_samples):
    for g in graph_samples(59, 15, 2, 6):
        plain = refine_to_stable(g, 2, 2, "kwl")
        delta = refine_to_stable(g, 2, 2, "delta_kwl")
        rounds = max(len(plain), len(delta))
        for t in range(rounds):
            a = delta[min(t, len(delta) - 1)]
            b = plain[min(t, len(plain) - 1)]
            assert refines(a, b)


def test_local_one_one_equals_classic(graph_samples):
    for g in graph_samples(61, 25, 2, 8, connected=True):
        local = refine_to_stable(g, 1, 1, "ks_lwl")[-1]
        plain = refine_to_stable(g, 1, 1, "kwl")[-1]
        assert partition_of(local.colors) == partition_of(plain.colors)


# ------------------------------------------------------------- distinguish


def joint_histogram_oracle(g, h, k):
    """Throwaway plain pairwise-refinement oracle for distinguish, sharing
    one relabeling table across both graphs. Kept deliberately naive."""

    def initial(graph):
        space = list(itertools.product(range(graph.num_nodes), repeat=k))
        keys = []
        for tup in space:
            keys.append(
                (
                    tuple(graph.labels[v] for v in tup),
                    tuple(
                        2 if tup[i] == tup[j] else 1 if tup[j] in graph.neighbor_sets[tup[i]] else 3
                        for i in range(k)
                        for j in range(k)
                    ),
                )
            )
        return space, keys

    def step(graph, space, colors):
        index = {tup: i for i, tup in enumerate(space)}
        keys = []
        for i, tup in enumerate(space):
            rows = []
            for j in range(k):
                row = []
                for w in range(graph.num_nodes):
                    swapped = tup[:j] + (w,) + tup[j + 1 :]
                    row.append(colors[index[swapped]])
                rows.append(tuple(sorted(row)))
            keys.append((colors[i], tuple(rows)))
        return keys

    spaces = {}
    keys = {}
    for name, graph in (("g", g), ("h", h)):
        spaces[name], keys[name] = initial(graph)
    for iteration in range(20):
        table = {}
        colors = {
            name: [table.setdefault(key, len(table)) for key in keys[name]] for name in ("g", "h")
        }
        if Counter(colors["g"]) != Counter(colors["h"]):
            return True, iteration
        keys = {name: step(graph, spaces[name], colors[name]) for name, graph in (("g", g), ("h", h))}
        new_table = {}
        new_colors = {
            name: [new_table.setdefault(key, len(new_table)) for key in keys[name]]
            for name in ("g", "h")
        }
        stable = all(
            partition_of(new_colors[name]) == partition_of(colors[name]) for name in ("g", "h")
        )
        keys = {
            name: [(c,) for c in new_colors[name]] for name in ("g", "h")
        }
        if stable:
            return False, None
    raise AssertionError("oracle did not stabilize")


def test_permuted_copies_are_never_distinguished(graph_samples, shuffled):
    for i, g in enumerate(graph_samples(67, 20, 2, 7, label_count=2)):
        h = apply_permutation(g, shuffled(200 + i, g.num_nodes))
        for variant, k, s in ALL_VARIANTS:
            assert not distinguish(g, h, variant, k, s).distinguished


FROZEN_VERDICTS = [
    # verdicts below were derived from the naive joint oracle above (plain
    # rule) and hand refinement (local/adjacency rules) before the engine
    # existed, then frozen
    ("c6_vs_2c3", "kwl", 1, 1, False, None),
    ("c6_vs_2c3", "kwl", 2, 2, False, None),
    ("c6_vs_2c3", "delta_kwl", 2, 2, True, 1),
    ("c6_vs_2c3", "delta_klwl", 2, 2, True, 1),
    ("c6_vs_2c3", "ks_lwl", 2, 1, True, 1),
    ("k33_vs_prism", "kwl", 1, 1, False, None),
    ("k33_vs_prism", "kwl", 2, 2, False, None),
    ("k33_vs_prism", "delta_kwl", 2, 2, True, 1),
    ("k33_vs_prism", "delta_klwl", 2, 2, True, 1),
    ("k33_vs_prism", "ks_lwl", 2, 1, True, 1),
    ("shrikhande_vs_rook", "kwl", 2, 2, False, None),
    ("shrikhande_vs_rook", "delta_kwl", 2, 2, False, None),
    ("shrikhande_vs_rook", "delta_klwl", 2, 2, False, None),
    ("shrikhande_vs_rook", "ks_lwl", 2, 1, False, None),
    ("shrikhande_vs_rook", "delta_kwl", 3, 3, True, 1),
]


@pytest.mark.parametrize("pair,variant,k,s,want,at", FROZEN_VERDICTS)
def test_distinguish_verdict_matrix(pair, variant, k, s, want, at):
    g, h = builtin_pair(pair)
    res = distinguish(g, h, variant, k, s)
    assert res.distinguished is want
    assert res.at_iteration == at


def test_plain_pairwise_verdicts_match_the_naive_oracle():
    for pair in ("c6_vs_2c3", "k33_vs_prism"):
        g, h = builtin_pair(pair)
        want, at = joint_histogram_oracle(g, h, 2)
        res = distinguish(g, h, "kwl", 2, 2)
        assert (res.distinguished, res.at_iteration) == (want, at)


def test_oracle_and_engine_agree_on_random_pairs(graph_samples):
    graphs = graph_samples(71, 12, 2, 4)
    rng = random.Random(73)
    for _ in range(8):
        g, h = rng.sample(graphs, 2)
        if g.num_nodes != h.num_nodes:
            continue
        want, _ = joint_histogram_oracle(g, h, 2)
        assert distinguish(g, h, "kwl", 2, 2).distinguished is want


def reference_distinguish(g, h, variant, k, s, max_iterations=refine.DEFAULT_MAX_ITERATIONS):
    """The joint loop without the isomorphism stop: every run ends on a
    round whose histograms differ or that reproduces both colorings.
    Returns the result and the number of rounds computed."""
    spaces = [enumerate_tuples(g, k, s), enumerate_tuples(h, k, s)]
    colors = _initial_ids(spaces)
    plans = _gather_plans(spaces, variant)
    for iteration in itertools.count():
        if not np.array_equal(np.bincount(colors[0]), np.bincount(colors[1])):
            return refine.DistinguishResult(True, iteration), iteration
        if iteration >= max_iterations:
            raise LimitError(
                ITERATION_LIMIT, f"no joint stable partition within {max_iterations} rounds"
            )
        nxt = _summary_ids(plans, colors)
        if all(map(np.array_equal, nxt, colors)):
            return refine.DistinguishResult(False, None), iteration + 1
        colors = nxt


def outcome(run):
    """A run's result, or its LimitError's code and message."""
    try:
        return run()
    except LimitError as exc:
        return exc.code, exc.message


@st.composite
def joint_pairs(draw):
    """A rule, its order and bound, and two graphs on n nodes: g and a
    relabelled copy of g, or of g with one edge moved, or another graph."""
    k = draw(st.integers(1, 3))
    variant = draw(st.sampled_from(VARIANTS))
    s = draw(st.integers(1, k)) if variant == "ks_lwl" else k
    n = draw(st.integers(3, {1: 9, 2: 7, 3: 6}[k]))
    g = draw(labelled_graphs(n))
    rng = random.Random(draw(st.integers(0, 10_000)))
    kind = draw(st.sampled_from(["copy", "moved", "other"]))
    if kind == "other":
        return variant, k, s, g, draw(labelled_graphs(n))
    edges = list(g.edges)
    if kind == "moved":
        absent = [e for e in itertools.combinations(range(n), 2) if e not in g.edges]
        if absent:
            edges[rng.randrange(len(edges))] = rng.choice(absent)
        if len({v for e in edges for v in e}) < n:
            edges = list(g.edges)
    perm = list(range(n))
    rng.shuffle(perm)
    return variant, k, s, g, apply_permutation(Graph(n, edges, g.labels), perm)


@settings(max_examples=150, deadline=None)
@given(case=joint_pairs())
def test_the_isomorphism_stop_keeps_every_verdict_and_every_cap(case):
    # At every cap from 0 to one past the rounds the reference computes,
    # distinguish returns the reference's result or raises its refusal.
    variant, k, s, g, h = case
    _, rounds = reference_distinguish(g, h, variant, k, s)
    for cap in range(rounds + 2):
        want = outcome(lambda: reference_distinguish(g, h, variant, k, s, cap)[0])
        assert outcome(partial(distinguish, g, h, variant, k, s, cap)) == want, cap


@pytest.mark.parametrize("variant", ["delta_kwl", "kwl"])
def test_a_relabelled_asymmetric_pair_ends_without_a_confirming_round(monkeypatch, variant):
    # The 12-node graph has no automorphism, so its second joint round is
    # discrete and matched through the relabelling: the third round, which
    # would reproduce it, is not computed.
    g = random_graph(random.Random(0), 12, 0.45, connected=True)
    perm = list(range(12))
    random.Random(1).shuffle(perm)
    h = apply_permutation(g, perm)
    assert reference_distinguish(g, h, variant, 3, 3) == (refine.DistinguishResult(False, None), 3)
    rounds = []
    summary = refine._summary_ids
    monkeypatch.setattr(refine, "_summary_ids", lambda *args: rounds.append(1) or summary(*args))
    assert distinguish(g, h, variant, 3, 3) == refine.DistinguishResult(False, None)
    assert len(rounds) == 2


def _carried_colors(space_g, space_h, pi):
    """h's colors that the node map ``pi`` carries from g's discrete
    coloring: the tuple pi(v) of h gets v's row in g."""
    colors = np.full(len(space_h.nodes), -1, dtype=np.int64)
    rows = {tup: i for i, tup in enumerate(space_h.tuples)}
    for i, tup in enumerate(space_g.tuples):
        colors[rows[tuple(pi[v] for v in tup)]] = i
    return colors


@pytest.mark.parametrize("k, s", [(1, 1), (2, 2), (2, 1), (3, 3), (3, 2)])
def test_the_stop_needs_both_an_adjacency_isomorphism_and_matched_colors(k, s):
    # Hand-built discrete colorings, not refinement rounds: the stop fires
    # when pi is an isomorphism that carries every color, and not when pi
    # breaks an edge or one pair of tuples swaps colors.
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
    pi = [3, 0, 4, 1, 2]
    h = apply_permutation(g, pi)
    other = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    space_g, space_h, space_o = (enumerate_tuples(x, k, s) for x in (g, h, other))
    carried = _carried_colors(space_g, space_h, pi)
    assert refine._exhibits_isomorphism(space_g, space_h, carried)
    if s == k:
        # Same tuples, different edges: the colors match, the adjacency does not.
        broken = _carried_colors(space_g, space_o, pi)
        assert not refine._exhibits_isomorphism(space_g, space_o, broken)
    if k > 1:
        # Two tuples off the diagonal swap colors: pi is unchanged.
        diagonal = {i for i, tup in enumerate(space_h.tuples) if len(set(tup)) == 1}
        a, b = [i for i in range(len(carried)) if i not in diagonal][:2]
        swapped = carried.copy()
        swapped[[a, b]] = swapped[[b, a]]
        assert not refine._exhibits_isomorphism(space_g, space_h, swapped)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 4), joint=st.booleans())
def test_initial_rows_equal_the_atomic_type_rows_id_for_id(data, k, joint):
    # The reference writes each row as the label ids, then the upper
    # triangle of ``atomic_types``, and numbers the rows through one table.
    n = data.draw(st.integers(2, {1: 9, 2: 7, 3: 6, 4: 5}[k]))
    s = data.draw(st.integers(1, k))
    labels = st.sampled_from([0, 1, 2, 2**63, 2**70])
    graphs = [
        Graph(n, g.edges, data.draw(st.lists(labels, min_size=n, max_size=n)))
        for g in (data.draw(labelled_graphs(n)) for _ in range(1 + joint))
    ]
    spaces = [enumerate_tuples(g, k, s) for g in graphs]
    above = np.triu_indices(k, 1)
    rows = [
        np.hstack(
            [
                np.asarray(ids, dtype=np.int32)[space.nodes],
                atomic_types(g, space.nodes)[:, above[0], above[1]].astype(np.int32),
            ]
        )
        for g, space, ids in zip(graphs, spaces, _dense_relabel([g.labels for g in graphs]))
    ]
    assert [ids.tolist() for ids in _initial_ids(spaces)] == _bytes_ids(rows)


# -------------------------------------------------------------- run_to_dict


def test_run_serialization_shape(p3):
    run = refine_to_stable(p3, 1, 1, "kwl")
    doc = run_to_dict(run, "kwl")
    arrays = doc["colors_per_iteration"] + doc["histograms"]
    assert all(a.dtype == np.int64 and a.ndim == 1 and not a.flags.writeable for a in arrays)
    as_lists = {
        **doc,
        "colors_per_iteration": [a.tolist() for a in doc["colors_per_iteration"]],
        "histograms": [a.tolist() for a in doc["histograms"]],
    }
    assert as_lists == {
        "k": 1,
        "s": 1,
        "variant": "kwl",
        "iterations": 2,
        "colors_per_iteration": [[0, 0, 0], [0, 1, 0]],
        "histograms": [[3], [2, 1]],
    }


# ------------------------------------------------------------ _dense_relabel
# The engine, the digit oracle and the constructed transformer all number
# their keys through this one helper, so it is checked on its own here: a
# fault in it could otherwise hide behind their three-way agreement.


def test_relabel_numbers_keys_by_first_occurrence():
    assert _dense_relabel([["b", "a", "b", "c", "a"]]) == [[0, 1, 0, 2, 1]]


def test_relabel_shares_one_table_across_lists():
    assert _dense_relabel([["x", "y"], [], ["y", "z", "x"]]) == [[0, 1], [], [1, 2, 0]]


@given(st.lists(st.lists(st.integers(-3, 3), max_size=8), max_size=4))
def test_relabel_ids_are_equal_exactly_when_keys_are(key_lists):
    id_lists = _dense_relabel(key_lists)
    assert [len(ids) for ids in id_lists] == [len(keys) for keys in key_lists]
    keys = [key for keys in key_lists for key in keys]
    ids = [i for row in id_lists for i in row]
    for (ka, ia), (kb, ib) in itertools.combinations(zip(keys, ids), 2):
        assert (ka == kb) == (ia == ib)
    assert sorted(set(ids)) == list(range(len(set(keys))))


# From SORT_ROWS rows of one integer dtype and width, _relabel_rows numbers
# row hashes by sorting. These tests hold it to the dict on row bytes.


def _bytes_ids(row_arrays):
    """The dict path: ``_dense_relabel`` on the bytes of each row."""
    return _dense_relabel([[row.tobytes() for row in rows] for rows in row_arrays])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from([np.int32, np.int64]),
    width=st.integers(1, 40),
    distinct=st.integers(1, 1000),
    high=st.sampled_from([1, 4, 100, 2**31 - 1, 2**62]),
    sizes=st.lists(st.integers(0, 700), min_size=1, max_size=4).filter(
        lambda sizes: sum(sizes) >= SORT_ROWS
    ),
)
def test_sorted_ids_equal_the_dict_id_for_id(seed, dtype, width, distinct, high, sizes):
    rng = np.random.default_rng(seed)
    pool = rng.integers(-1, high, (distinct, width), endpoint=True).astype(dtype)
    arrays = [pool[rng.integers(0, distinct, size)] for size in sizes]
    expected = _bytes_ids(arrays)
    ids = _sorted_ids(arrays)
    assert ids is not None
    assert [graph_ids.tolist() for graph_ids in ids] == expected
    assert [graph_ids.tolist() for graph_ids in _relabel_rows(arrays)] == expected


def test_a_hash_collision_falls_back_to_the_dict():
    # Rows differing by d with d0 = w1 and d1 = -w0 share a hash:
    # d0 * w0 + d1 * w1 wraps to 0.
    w0, w1 = _row_weights(2).tolist()
    rows = np.zeros((SORT_ROWS, 2), dtype=np.int64)
    rows[1::2] = [w1, -w0]
    rows[2::4] += 1
    assert _sorted_ids([rows]) is None
    ids = [graph_ids.tolist() for graph_ids in _relabel_rows([rows[:10], rows[10:]])]
    assert ids == _bytes_ids([rows[:10], rows[10:]])
    assert ids[0][:4] == [0, 1, 2, 1]


def test_relabel_rows_takes_no_arrays_mixed_widths_and_mixed_dtypes():
    assert _relabel_rows([]) == []
    narrow = np.zeros((SORT_ROWS, 2), dtype=np.int32)
    for arrays in (
        [narrow, np.zeros((SORT_ROWS, 3), dtype=np.int32), np.empty((0, 2), dtype=np.int32)],
        [narrow, narrow.astype(np.int64)],
    ):
        ids = [graph_ids.tolist() for graph_ids in _relabel_rows(arrays)]
        assert ids == _bytes_ids(arrays)
        assert ids[0] == [0] * SORT_ROWS and ids[1] == [1] * SORT_ROWS


def test_calls_below_the_cutoff_never_sort(monkeypatch):
    def refuse(arrays):
        raise AssertionError("a call below SORT_ROWS rows was sorted")

    monkeypatch.setattr(refine, "_sorted_ids", refuse)
    rows = np.arange(2 * (SORT_ROWS - 1), dtype=np.int64).reshape(-1, 2) % 7
    ids = [graph_ids.tolist() for graph_ids in _relabel_rows([rows[:5], rows[5:]])]
    assert ids == _bytes_ids([rows[:5], rows[5:]])


# -------------------------------------------------------------- validation
# Every entry point that takes an order k, a component bound s or a variant
# hands them to refine's checks, so the same bad value yields the same code
# everywhere. Letters say which inputs an entry point takes: k, s, v
# (variant), and m (can pair a plain rule with a restricted space).


def _restricted_coloring(graph, s):
    return initial_coloring(graph, enumerate_tuples(graph, 2, s))


ENTRY_POINTS = {
    "refine_to_stable": ("ksvm", lambda g, k, s, v: partial(refine_to_stable, g, k, s, v)),
    "distinguish": ("ksvm", lambda g, k, s, v: partial(distinguish, g, g, v, k, s)),
    "simulate_and_compare": (
        "ksvm",
        lambda g, k, s, v: partial(simulate_and_compare, g, k, s, v, t_layers=1),
    ),
    "initial_tokens": ("ks", lambda g, k, s, v: partial(initial_tokens, g, k, s)),
    "TokenizerConfig": ("ks", lambda g, k, s, v: partial(TokenizerConfig, k=k, s=s, dim=4)),
    "generalized_adjacency": ("k", lambda g, k, s, v: partial(generalized_adjacency, g, k, 1, 1)),
    "construct_kgt_weights": ("kv", lambda g, k, s, v: partial(construct_kgt_weights, g, k, v, 1)),
    "gnn_reference_step": (
        "vm",
        lambda g, k, s, v: partial(gnn_reference_step, _restricted_coloring(g, s), g, v),
    ),
}

BAD_INPUTS = {
    "unknown_variant": ("v", 2, 2, "classic", INVALID_SCHEMA),
    "zero_order": ("k", 0, 1, "kwl", INVALID_SCHEMA),
    "bool_order": ("k", True, 1, "kwl", INVALID_SCHEMA),
    "zero_bound": ("s", 2, 0, "ks_lwl", INVALID_SCHEMA),
    "bound_above_order": ("s", 2, 3, "ks_lwl", INVALID_SCHEMA),
    "plain_rule_on_restricted_space": ("m", 2, 1, "kwl", VARIANT_MISMATCH),
    # 3^14 candidate tuples exceed the size cap; the request is refused first.
    "plain_rule_on_an_over_cap_space": ("m", 14, 1, "kwl", VARIANT_MISMATCH),
}


@pytest.mark.parametrize(
    "entry,case",
    [
        pytest.param(entry, case, id=f"{entry}-{case}")
        for entry, (takes, _) in ENTRY_POINTS.items()
        for case, (needs, *_) in BAD_INPUTS.items()
        if needs in takes
    ],
)
def test_every_entry_point_rejects_bad_order_and_variant(p3, entry, case):
    _, k, s, variant, code = BAD_INPUTS[case]
    call = ENTRY_POINTS[entry][1](p3, k, s, variant)
    with pytest.raises(ValidationError) as exc:
        call()
    assert exc.value.code == code
