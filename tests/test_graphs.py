"""Graph model: validation, atomic types, permutations, the brute-force
isomorphism oracle, and the builtin test pairs."""

import itertools
import json
import random
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_helpers import SIZE_LIMIT, are_isomorphic_bruteforce, random_graph
from wlsim.errors import (
    DUPLICATE_EDGE,
    INVALID_SCHEMA,
    ISOLATED_NODE,
    LimitError,
    NODE_INDEX_OUT_OF_RANGE,
    NON_BIJECTIVE,
    SELF_LOOP,
    UNKNOWN_PAIR,
    ValidationError,
)
from wlsim.graphs import (
    BUILTIN_PAIR_NAMES,
    Graph,
    apply_permutation,
    atomic_types,
    builtin_pair,
    graph_to_dict,
    load_graph,
)


def induced_subgraph(graph, nodes):
    """Reindex ``nodes`` to 0..len-1 and keep the edges among them."""
    order = sorted(nodes)
    rank = {v: i for i, v in enumerate(order)}
    edges = [
        (rank[u], rank[v])
        for u, v in itertools.combinations(order, 2)
        if graph.has_edge(u, v)
    ]
    return Graph(len(order), edges, tuple(graph.labels[v] for v in order))


def reachable_from_zero(graph):
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in graph.neighbor_sets[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


# ---------------------------------------------------------------- load_graph


def test_load_minimal_graph():
    g = load_graph('{"num_nodes": 2, "edges": [[0, 1]]}')
    assert g.num_nodes == 2
    assert g.edges == ((0, 1),)
    assert g.labels == (0, 0)


@pytest.mark.parametrize(
    "doc,code",
    [
        ('{"num_nodes": 3, "edges": [[0, 1]]}', ISOLATED_NODE),
        ('{"num_nodes": 1000000000000000, "edges": [[0, 1]]}', ISOLATED_NODE),
        ('{"num_nodes": 2, "edges": [[0, 0]]}', SELF_LOOP),
        ('{"num_nodes": 2, "edges": [[0, 1], [1, 0]]}', DUPLICATE_EDGE),
        ('{"num_nodes": 2, "edges": [[0, 2]]}', NODE_INDEX_OUT_OF_RANGE),
        ("not json", INVALID_SCHEMA),
        ('{"edges": [[0, 1]]}', INVALID_SCHEMA),
        ('{"num_nodes": 2, "edges": [[0, 1]], "labels": [1]}', INVALID_SCHEMA),
        ('{"num_nodes": 2, "edges": [[0, 1]], "extra": 3}', INVALID_SCHEMA),
    ],
)
def test_load_rejections_carry_distinct_codes(doc, code):
    with pytest.raises(ValidationError) as exc:
        load_graph(doc)
    assert exc.value.code == code


def test_text_beyond_the_parsers_limits_is_a_schema_error():
    # Deeper than the interpreter's recursion limit, and more digits than
    # int() converts: both are valid JSON that json.loads cannot take.
    for text in ("[" * 200_000, '{"num_nodes": 2, "edges": [[0, 1]], "labels": [0, %s]}' % ("9" * 5000)):
        with pytest.raises(ValidationError) as exc:
            load_graph(text)
        assert exc.value.code == INVALID_SCHEMA
    g = load_graph('{"num_nodes": 2, "edges": [[0, 1]], "labels": [0, %s]}' % ("9" * 4000))
    assert g.labels == (0, int("9" * 4000))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["num_nodes", "edges", "labels", "edge_labels", "x"]), inner),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _JSON_VALUES.map(json.dumps)))
def test_load_graph_returns_a_graph_or_a_validation_error(text):
    try:
        assert isinstance(load_graph(text), Graph)
    except ValidationError:
        pass


def test_isolated_node_is_named_before_anything_of_size_n_is_built():
    with pytest.raises(ValidationError) as exc:
        Graph(10**15, [(0, 1), (1, 3)])
    assert (exc.value.code, exc.value.message) == (ISOLATED_NODE, "node 2 has no incident edge")
    with pytest.raises(ValidationError) as exc:
        Graph(10**15, [(0, 1)], labels=[0, 0])
    assert exc.value.code == INVALID_SCHEMA


def test_round_trip_through_dict(graph_samples):
    for g in graph_samples(11, 20, 2, 8, label_count=3):
        h = load_graph(json.dumps(graph_to_dict(g)))
        assert h.num_nodes == g.num_nodes
        assert h.edges == g.edges
        assert h.labels == g.labels


# -------------------------------------------------------------- atomic_type


@dataclass(frozen=True)
class AtomicTypeMatrix:
    """Pairwise relation pattern of a node tuple: ``entries[i][j]`` is the
    code of ``atomic_types`` for positions i and j."""

    k: int
    entries: tuple[tuple[int, ...], ...]


def atomic_type(graph, tup):
    """Atomic type of one validated node tuple, read from ``atomic_types``."""
    k = len(tup)
    if k < 1:
        raise ValidationError(INVALID_SCHEMA, "tuple must have at least one position")
    for v in tup:
        graph._check_node(v)
    codes = atomic_types(graph, np.array([tup], dtype=np.int64))[0]
    return AtomicTypeMatrix(k, tuple(map(tuple, codes.tolist())))


def test_atomic_type_of_repeated_node(k3):
    assert atomic_type(k3, (0, 0)).entries == ((2, 2), (2, 2))


def test_atomic_type_of_adjacent_pair(k3):
    assert atomic_type(k3, (0, 1)).entries == ((2, 1), (1, 2))


def test_atomic_type_of_nonadjacent_pair(p3):
    assert atomic_type(p3, (0, 2)).entries == ((2, 3), (3, 2))


def test_a_missing_edge_has_no_label(p3):
    assert p3.edge_label(1, 0) == 0
    with pytest.raises(ValidationError) as exc:
        p3.edge_label(0, 2)
    assert exc.value.code == INVALID_SCHEMA
    assert exc.value.message == "no edge between 0 and 2"


def test_atomic_type_index_check(p3):
    with pytest.raises(ValidationError) as exc:
        atomic_type(p3, (0, 3))
    assert exc.value.code == NODE_INDEX_OUT_OF_RANGE


def test_atomic_type_commutes_with_permutation(graph_samples, shuffled):
    for i, g in enumerate(graph_samples(23, 15, 2, 7)):
        perm = shuffled(i, g.num_nodes)
        h = apply_permutation(g, perm)
        rng = random.Random(i)
        for _ in range(10):
            tup = tuple(rng.randrange(g.num_nodes) for _ in range(3))
            mapped = tuple(perm[v] for v in tup)
            assert atomic_type(g, tup).entries == atomic_type(h, mapped).entries


def test_atomic_types_match_the_pairwise_definition(graph_samples):
    for g in graph_samples(17, 6, 2, 5):
        for k in (1, 2, 3):
            tuples = list(itertools.product(range(g.num_nodes), repeat=k))
            codes = atomic_types(g, np.array(tuples).reshape(-1, k))
            assert codes.shape == (len(tuples), k, k)
            for tup, code in zip(tuples, codes.tolist()):
                want = [
                    [2 if u == v else 1 if v in g.neighbor_sets[u] else 3 for v in tup]
                    for u in tup
                ]
                assert code == want


def test_adjacency_arrays_match_the_neighbor_sets(graph_samples):
    for g in graph_samples(19, 6, 2, 7):
        adj, nbrs, types = g.adjacency_matrix, g.neighbor_array, g.pair_types
        assert not adj.flags.writeable and not nbrs.flags.writeable and not types.flags.writeable
        assert nbrs.shape == (g.num_nodes, max(map(len, g.neighbor_sets)))
        assert types.dtype == np.int8
        for v in range(g.num_nodes):
            assert set(np.flatnonzero(adj[v]).tolist()) == g.neighbor_sets[v]
            want = [2 if u == v else 1 if u in g.neighbor_sets[v] else 3 for u in range(g.num_nodes)]
            assert types[v].tolist() == want
            pad = nbrs.shape[1] - len(g.neighbor_sets[v])
            assert nbrs[v].tolist() == sorted(g.neighbor_sets[v]) + [-1] * pad


# ------------------------------------------------------- apply_permutation


def test_identity_permutation_is_a_noop(p3):
    assert apply_permutation(p3, (0, 1, 2)).edges == p3.edges


def test_p3_reversal_is_an_automorphism(p3):
    assert apply_permutation(p3, (2, 1, 0)).edges == p3.edges


def test_permuted_c6_stays_isomorphic(c6, shuffled):
    for seed in range(5):
        h = apply_permutation(c6, shuffled(seed, 6))
        assert are_isomorphic_bruteforce(c6, h)


def test_non_bijective_permutation_rejected(p3):
    with pytest.raises(ValidationError) as exc:
        apply_permutation(p3, (0, 0, 1))
    assert exc.value.code == NON_BIJECTIVE


def test_permutation_moves_labels_with_nodes():
    g = Graph(3, [(0, 1), (1, 2)], labels=(7, 8, 9))
    h = apply_permutation(g, (2, 0, 1))
    # node v of g becomes node perm[v] of h and keeps its label
    assert h.labels == (8, 9, 7)


# --------------------------------------------- are_isomorphic_bruteforce


def test_oracle_accepts_permuted_copies(graph_samples, shuffled):
    for i, g in enumerate(graph_samples(31, 25, 2, 8, label_count=2)):
        h = apply_permutation(g, shuffled(100 + i, g.num_nodes))
        assert are_isomorphic_bruteforce(g, h)


def test_oracle_separates_c6_from_triangles():
    g, h = builtin_pair("c6_vs_2c3")
    assert not are_isomorphic_bruteforce(g, h)


def test_oracle_separates_k33_from_prism():
    g, h = builtin_pair("k33_vs_prism")
    assert not are_isomorphic_bruteforce(g, h)


def test_oracle_respects_labels(p3):
    center_marked = Graph(3, [(0, 1), (1, 2)], labels=(0, 1, 0))
    end_marked = Graph(3, [(0, 1), (1, 2)], labels=(1, 0, 0))
    other_end = Graph(3, [(0, 1), (1, 2)], labels=(0, 0, 1))
    assert not are_isomorphic_bruteforce(center_marked, end_marked)
    assert are_isomorphic_bruteforce(end_marked, other_end)


def test_oracle_size_cap():
    g, _ = builtin_pair("shrikhande_vs_rook")
    with pytest.raises(LimitError) as exc:
        are_isomorphic_bruteforce(g, g)
    assert exc.value.code == SIZE_LIMIT


def test_oracle_needs_matching_order(single_edge, p3):
    assert not are_isomorphic_bruteforce(single_edge, p3)


# ------------------------------------------------------------ builtin pairs


def test_unknown_pair_name():
    with pytest.raises(ValidationError) as exc:
        builtin_pair("bogus")
    assert exc.value.code == UNKNOWN_PAIR


def test_c6_pair_shape():
    cycle, triangles = builtin_pair("c6_vs_2c3")
    assert cycle.num_nodes == triangles.num_nodes == 6
    assert all(cycle.degree(v) == 2 for v in range(6))
    assert all(triangles.degree(v) == 2 for v in range(6))
    assert len(reachable_from_zero(cycle)) == 6
    assert len(reachable_from_zero(triangles)) == 3


def test_k33_pair_shape():
    bipartite, prism = builtin_pair("k33_vs_prism")
    assert all(bipartite.degree(v) == 3 for v in range(6))
    assert all(prism.degree(v) == 3 for v in range(6))
    # K3,3 is triangle-free, the prism is not
    def triangle_count(g):
        return sum(
            1
            for a, b, c in itertools.combinations(range(g.num_nodes), 3)
            if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        )

    assert triangle_count(bipartite) == 0
    assert triangle_count(prism) == 2


def test_strongly_regular_pair_parameters():
    shrikhande, rook = builtin_pair("shrikhande_vs_rook")
    for g in (shrikhande, rook):
        assert g.num_nodes == 16
        assert all(g.degree(v) == 6 for v in range(16))
        for u, v in itertools.combinations(range(16), 2):
            common = len(g.neighbor_sets[u] & g.neighbor_sets[v])
            assert common == 2  # both lambda and mu equal 2


def test_rook_edges_match_grid_definition():
    _, rook = builtin_pair("shrikhande_vs_rook")
    expected = {
        (min(i, j), max(i, j))
        for i in range(16)
        for j in range(16)
        if i != j and (i // 4 == j // 4 or i % 4 == j % 4)
    }
    assert set(rook.edges) == expected


def test_shrikhande_edges_match_cayley_definition():
    shrikhande, _ = builtin_pair("shrikhande_vs_rook")
    connection = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    expected = set()
    for a in range(4):
        for b in range(4):
            for da, db in connection:
                u = 4 * a + b
                v = 4 * ((a + da) % 4) + ((b + db) % 4)
                if u != v:
                    expected.add((min(u, v), max(u, v)))
    assert set(shrikhande.edges) == expected


def test_neighborhood_witness_separates_the_16_node_pair(c6):
    """The two 16-node graphs agree on every strongly-regular parameter, so
    the non-isomorphism proof used here is the local one: a rook node's
    neighborhood induces two triangles while the other graph's induces a
    6-cycle, and those two small graphs are brute-force non-isomorphic."""
    shrikhande, rook = builtin_pair("shrikhande_vs_rook")
    two_triangles = builtin_pair("c6_vs_2c3")[1]

    rook_local = induced_subgraph(rook, rook.neighbor_sets[0])
    shrik_local = induced_subgraph(shrikhande, shrikhande.neighbor_sets[0])
    assert are_isomorphic_bruteforce(rook_local, two_triangles)
    assert are_isomorphic_bruteforce(shrik_local, c6)
    assert not are_isomorphic_bruteforce(rook_local, shrik_local)


# ------------------------------------------------------------ random_graph


@given(st.integers(0, 10_000), st.integers(2, 9), st.booleans())
@settings(max_examples=60, deadline=None)
def test_random_graphs_satisfy_the_model_invariants(seed, n, connected):
    g = random_graph(random.Random(seed), n, connected=connected)
    assert g.num_nodes == n
    assert all(g.degree(v) >= 1 for v in range(n))
    assert all(u < v for u, v in g.edges)
    if connected:
        assert len(reachable_from_zero(g)) == n


def test_direct_construction_validates_too():
    with pytest.raises(ValidationError) as exc:
        Graph(2, [(0, 1), (0, 1)])
    assert exc.value.code == DUPLICATE_EDGE
    with pytest.raises(ValidationError) as exc:
        Graph(4, [(0, 1), (2, 2), (2, 3)])
    assert exc.value.code == SELF_LOOP


def test_builtin_names_are_stable():
    assert BUILTIN_PAIR_NAMES == ("c6_vs_2c3", "k33_vs_prism", "shrikhande_vs_rook")
