"""Token matrices: node tokens, tuple tokens, edge-based atomic-type
embeddings, and the width rule for reusing one layer stack across orders."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_helpers import random_graph
from wlsim import tokens
from wlsim.errors import INVALID_SCHEMA, ITERATION_LIMIT, LimitError, ValidationError
from wlsim.graphs import Graph, apply_permutation, atomic_types
from wlsim.refine import enumerate_tuples, initial_coloring
from wlsim.tokens import (
    TokenizerConfig,
    TokenMatrix,
    node_tokens,
    tuple_tokens,
)


def cfg_for(k, s=None, dim=6, **kw):
    return TokenizerConfig(k=k, s=s if s is not None else k, dim=dim, **kw)


def zero_pe(graph):
    return np.zeros((graph.num_nodes, 6))


def row_partition(rows):
    groups = {}
    for i, row in enumerate(np.asarray(rows)):
        groups.setdefault(row.tobytes(), []).append(i)
    return frozenset(tuple(g) for g in groups.values())


def color_partition(colors):
    groups = {}
    for i, c in enumerate(colors):
        groups.setdefault(c, []).append(i)
    return frozenset(tuple(g) for g in groups.values())


def finer_or_equal(fine, coarse):
    image = {}
    for a, b in zip(fine, coarse):
        if image.setdefault(a, b) != b:
            return False
    return True


# -------------------------------------------------------------- node tokens


def test_node_token_row_count_and_build_settings(p3):
    tm = node_tokens(p3, cfg_for(1, dim=5))
    assert tm.num_rows == 3
    assert tm.rows.shape == (3, 5)
    assert (tm.k, tm.s, tm.dim) == (1, 1, 5)
    assert tm.encoder_id == "lpe"


def test_node_tokens_require_order_one(p3):
    with pytest.raises(ValidationError) as exc:
        node_tokens(p3, cfg_for(2))
    assert exc.value.code == INVALID_SCHEMA


def test_equal_inputs_make_equal_rows(c6):
    # same label, same degree, and a constant PE leave nothing to separate
    tm = node_tokens(c6, cfg_for(1), pe_fn=zero_pe)
    assert len({row.tobytes() for row in tm.rows}) == 1


def test_stub_tokens_separate_exactly_by_label_and_degree(p3):
    def one_hot_degree(d):
        row = np.zeros(6)
        row[d] = 1.0
        return row

    tm = node_tokens(
        p3,
        cfg_for(1),
        degree_fn=one_hot_degree,
        pe_fn=zero_pe,
        ffn_fn=lambda x: x,
    )
    assert np.array_equal(tm.rows[0], tm.rows[2])
    assert not np.array_equal(tm.rows[0], tm.rows[1])


def test_labels_split_node_tokens():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], labels=(0, 1, 0, 1))
    tm = node_tokens(g, cfg_for(1), pe_fn=zero_pe)
    assert np.array_equal(tm.rows[0], tm.rows[2])
    assert np.array_equal(tm.rows[1], tm.rows[3])
    assert not np.array_equal(tm.rows[0], tm.rows[1])


def test_node_tokens_depend_only_on_seed(p3):
    a = node_tokens(p3, cfg_for(1, seed=4))
    b = node_tokens(p3, cfg_for(1, seed=4))
    c = node_tokens(p3, cfg_for(1, seed=5))
    assert np.array_equal(a.rows, b.rows)
    assert not np.array_equal(a.rows, c.rows)


def test_pe_kind_is_validated():
    with pytest.raises(ValidationError) as exc:
        cfg_for(1, pe_kind="fourier")
    assert exc.value.code == INVALID_SCHEMA


@pytest.mark.parametrize(
    "field,value",
    [("dim", 0), ("dim", True), ("seed", -1), ("seed", 1.0), ("eig_count", 0),
     ("eig_count", 2.0), ("rank_m", 0), ("rank_m", 4), ("rank_m", False)],
)
@pytest.mark.parametrize("pe_kind", ["lpe", "spe", "raw_targets"])
def test_every_build_checks_every_encoder_flag(p3, field, value, pe_kind):
    # The config takes any value; each build refuses it before a draw,
    # whatever kind reads the flag (the rank must lie in 1..3 here).
    for k, build in ((1, node_tokens), (2, tuple_tokens)):
        cfg = cfg_for(k, pe_kind=pe_kind, **{field: value})
        with pytest.raises(ValidationError) as exc:
            build(p3, cfg)
        assert exc.value.code == INVALID_SCHEMA


@pytest.mark.parametrize("pe_kind", ["lpe", "spe", "raw_targets"])
def test_every_pe_kind_produces_rows(p3, pe_kind):
    tm = node_tokens(p3, cfg_for(1, pe_kind=pe_kind))
    assert tm.rows.shape == (3, 6)


# ------------------------------------------------------------- tuple tokens


def test_tuple_tokens_require_higher_order(p3):
    with pytest.raises(ValidationError) as exc:
        tuple_tokens(p3, cfg_for(1))
    assert exc.value.code == INVALID_SCHEMA


def test_k3_pair_tokens_split_like_atomic_types(k3):
    tm = tuple_tokens(k3, cfg_for(2, s=1), pe_fn=zero_pe)
    assert tm.num_rows == 9
    space = enumerate_tuples(k3, 2, 1)
    diagonal = {i for i, tup in enumerate(space.tuples) if tup[0] == tup[1]}
    classes = {}
    for i, row in enumerate(tm.rows):
        classes.setdefault(row.tobytes(), set()).add(i)
    assert set(frozenset(c) for c in classes.values()) == {
        frozenset(diagonal),
        frozenset(set(range(9)) - diagonal),
    }


def test_token_partition_refines_initial_colors(graph_samples):
    for g in graph_samples(29, 8, 2, 6):
        tm = tuple_tokens(g, cfg_for(2))
        space = enumerate_tuples(g, 2, 2)
        init = initial_coloring(g, space)
        keys = [row.tobytes() for row in tm.rows]
        assert finer_or_equal(keys, init.colors)


def test_stub_token_partition_equals_initial_colors(graph_samples):
    # a constant structural part leaves (label, atomic type), which is
    # exactly the initial color content
    for g in graph_samples(31, 8, 2, 6, label_count=2):
        tm = tuple_tokens(
            g,
            cfg_for(2),
            degree_fn=lambda d: np.zeros(6),
            pe_fn=zero_pe,
            ffn_fn=lambda x: x,
        )
        init = initial_coloring(g, enumerate_tuples(g, 2, 2))
        assert row_partition(tm.rows) == color_partition(init.colors)


def test_a_projection_that_conflates_tokens_is_redrawn(monkeypatch, c6):
    # A zero projection at salt 0 leaves only the atomic-type rows, which
    # conflate tuples of distinct nodes; the build draws salt 1, whose rows
    # are equal exactly where the component node rows and the type are.
    real = tokens._draw_matrix
    salts = []

    def draw(seed, stream, salt, shape):
        if stream == tokens._STREAM_PROJECTION:
            salts.append(salt)
            if salt == 0:
                return np.zeros(shape)
        return real(seed, stream, salt, shape)

    monkeypatch.setattr(tokens, "_draw_matrix", draw)
    for atp_from_edges in (False, True):
        salts.clear()
        cfg = cfg_for(2, s=1, atp_from_edges=atp_from_edges)
        tm = tuple_tokens(c6, cfg)
        assert salts == [0, 1]
        nodes = node_tokens(c6, cfg_for(1)).rows
        space = enumerate_tuples(c6, 2, 1)
        types = atomic_types(c6, space.nodes).reshape(len(space.nodes), -1)
        keys = [(nodes[tup].tobytes(), tuple(t)) for tup, t in zip(space.tuples, types.tolist())]
        assert row_partition(tm.rows) == color_partition(keys)


def stub_table(seed, stream, dim, keys):
    """Distinct nonzero rows without a draw: the i-th key's row is i + 1."""
    return {key: np.full(dim, i + 1.0) for i, key in enumerate(dict.fromkeys(keys))}


RE_SALTED_BUILDS = {
    "the embedding table": lambda g: node_tokens(g, cfg_for(1)),
    "the raw_targets projection": lambda g: node_tokens(g, cfg_for(1, pe_kind="raw_targets")),
    "the tuple-token projection": lambda g: tuple_tokens(g, cfg_for(2, s=1)),
}


@pytest.mark.parametrize("loop", list(RE_SALTED_BUILDS))
def test_every_re_salted_build_stops_at_the_salt_bound(monkeypatch, p3, loop):
    """With ``_distinct`` reporting a collision on every draw, each build
    raises ITERATION_LIMIT, naming its loop, after ``MAX_SALTS`` draws.
    The stand-in returns NaN, a count equal to no count, and fails once it
    is called more often than the bound allows, so an unbounded loop fails
    here instead of running forever. Every build but the table's own gets
    its tables from ``stub_table``, so its own loop is the one that runs."""
    monkeypatch.setattr(tokens, "MAX_SALTS", 5)
    calls = []

    def always_a_collision(rows):
        calls.append(len(rows))
        assert len(calls) <= 6, "re-salted past the bound"
        return math.nan

    monkeypatch.setattr(tokens, "_distinct", always_a_collision)
    if loop != "the embedding table":
        monkeypatch.setattr(tokens, "_table", stub_table)
    with pytest.raises(LimitError) as err:
        RE_SALTED_BUILDS[loop](p3)
    assert err.value.code == ITERATION_LIMIT
    assert err.value.message.startswith(loop)
    assert err.value.message.endswith("in 5 salts")
    # The table checks its draws against a known count; the projections
    # count their keys first.
    assert len(calls) == 5 + (loop != "the embedding table")


def test_distinct_tokens_are_counted_like_their_byte_keys(graph_samples):
    # The re-salt check counts (node-row ids, type id) rows; on random
    # graphs every build is injective on the byte keys it replaces.
    for g in graph_samples(37, 6, 3, 9):
        for k, s, edges in ((2, 1, False), (2, 2, True), (3, 1, False), (3, 1, True)):
            cfg = cfg_for(k, s=s, atp_from_edges=edges)
            tm = tuple_tokens(g, cfg)
            nodes = node_tokens(g, cfg_for(1)).rows
            space = enumerate_tuples(g, k, s)
            if edges:
                types = [edge_row(g, tup, cfg).tobytes() for tup in space.tuples]
            else:
                types = list(map(tuple, atomic_types(g, space.nodes).reshape(len(space.nodes), -1).tolist()))
            keys = [(nodes[list(tup)].tobytes(), t) for tup, t in zip(space.tuples, types)]
            assert row_partition(tm.rows) == color_partition(keys)


def test_permuted_graph_gives_permuted_rows(c6, shuffled):
    cfg = cfg_for(2)
    base = tuple_tokens(c6, cfg, pe_fn=zero_pe)
    perm = shuffled(3, 6)
    h = apply_permutation(c6, perm)
    other = tuple_tokens(h, cfg, pe_fn=lambda g: np.zeros((6, 6)))
    a = np.array(sorted(base.rows.tolist()))
    b = np.array(sorted(other.rows.tolist()))
    assert np.allclose(a, b)


def test_token_matrix_width_is_checked():
    with pytest.raises(ValidationError) as exc:
        TokenMatrix(rows=np.zeros((2, 3)), k=1, s=1, dim=4, encoder_id="lpe", seed=0)
    assert exc.value.code == INVALID_SCHEMA


def test_to_dict_round_trips_shape(p3):
    tm = node_tokens(p3, cfg_for(1))
    doc = tm.to_dict()
    assert doc["k"] == 1 and doc["s"] == 1 and doc["dim"] == 6
    assert doc["encoder"] == "lpe"
    assert len(doc["rows"]) == 3 and len(doc["rows"][0]) == 6


# ------------------------------------------------- edge-built atomic types


def per_tuple_edge_embedding(graph, k, cfg):
    """The edge-built atomic-type embedding of k-tuples of one graph, one
    tuple at a time: for every strict position pair (i, j), i > j, the
    same-node row, the edge-label row or zero, concatenated and projected
    to width d. The rows and the projection are drawn once."""
    labels = dict(zip(graph.edges, graph.edge_labels or [0] * len(graph.edges)))
    rows = tokens._table(cfg.seed, tokens._STREAM_EDGE, cfg.dim, [-1, *sorted(set(labels.values()))])
    zero = np.zeros(cfg.dim)
    shape = (cfg.dim * k * (k - 1) // 2, cfg.dim)
    proj = tokens._draw_matrix(cfg.seed, tokens._STREAM_EDGE_PROJECTION, k, shape)

    def embed(tup):
        blocks = []
        for i in range(1, k):
            for j in range(i):
                u, w = sorted((tup[i], tup[j]))
                if u == w:
                    blocks.append(rows[-1])
                elif (u, w) in labels:
                    blocks.append(rows[labels[u, w]])
                else:
                    blocks.append(zero)
        return np.concatenate(blocks) @ proj

    return embed


def edge_row(graph, tup, cfg):
    """The batch construction's row of one tuple, from a one-row array."""
    return tokens._edge_rows(graph, np.array([tup], dtype=np.int64), cfg)[0]


EDGE_LABELS = st.sampled_from([0, 1, 7, 2**70, 2**70 + 1])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(2, 5),
    st.integers(2, 4),
    st.integers(0, 3),
    st.data(),
)
def test_edge_rows_equal_the_per_tuple_construction(graph_seed, n, k, seed, data):
    g = random_graph(random.Random(graph_seed), n, edge_prob=0.5)
    labels = data.draw(st.lists(EDGE_LABELS, min_size=len(g.edges), max_size=len(g.edges)))
    g = Graph(n, g.edges, edge_labels=tuple(labels))
    cfg = cfg_for(k, seed=seed)
    s = data.draw(st.integers(1, k))
    nodes = enumerate_tuples(g, k, s).nodes
    embed = per_tuple_edge_embedding(g, k, cfg)
    want = np.stack([embed(tup) for tup in nodes.tolist()])
    got = tokens._edge_rows(g, nodes, cfg)
    # Bit for bit: the same bytes, -0.0 and all.
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_repeated_node_tuple_uses_the_same_node_vector(k3):
    cfg = cfg_for(2)
    row_aa = edge_row(k3, (0, 0), cfg)
    row_bb = edge_row(k3, (1, 1), cfg)
    assert row_aa.shape == (6,)
    assert np.array_equal(row_aa, row_bb)


def test_edge_and_non_edge_blocks_differ(p3):
    cfg = cfg_for(2)
    adjacent = edge_row(p3, (0, 1), cfg)
    apart = edge_row(p3, (0, 2), cfg)
    assert np.array_equal(apart, np.zeros(6))
    assert not np.array_equal(adjacent, apart)


def test_edge_labels_separate_embeddings():
    g = Graph(3, [(0, 1), (1, 2)], edge_labels=(0, 1))
    cfg = cfg_for(2)
    first = edge_row(g, (0, 1), cfg)
    second = edge_row(g, (1, 2), cfg)
    assert not np.array_equal(first, second)


def atomic_type_entries(graph, tup):
    """The atomic type of one tuple as nested tuples of its pairwise codes."""
    return tuple(map(tuple, atomic_types(graph, np.array([tup], dtype=np.int64))[0].tolist()))


def test_edge_variant_matches_atomic_type_partition(graph_samples):
    for g in graph_samples(37, 5, 2, 5):
        cfg = cfg_for(2, atp_from_edges=True)
        space = enumerate_tuples(g, 2, 2)
        keys = [edge_row(g, tup, cfg).tobytes() for tup in space.tuples]
        types = [atomic_type_entries(g, tup) for tup in space.tuples]
        # equal embeddings exactly where the atomic types agree
        assert row_partition_from(keys) == row_partition_from(types)


def row_partition_from(keys):
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return frozenset(tuple(g) for g in groups.values())


def test_edge_rows_are_drawn_once_per_build(monkeypatch, c6):
    # 18, 36 and 216 tuples: the same-node row and the one edge label's row
    # are drawn once per build, not once per tuple.
    draws = []
    real = tokens._draw_row

    def counting(seed, stream, salt, key, dim):
        draws.append(stream)
        return real(seed, stream, salt, key, dim)

    monkeypatch.setattr(tokens, "_draw_row", counting)
    for k, s in ((2, 1), (2, 2), (3, 3)):
        draws.clear()
        tuple_tokens(c6, cfg_for(k, s=s, atp_from_edges=True))
        assert draws.count(tokens._STREAM_EDGE) == 2, (k, s)


def test_edge_variant_feeds_tuple_tokens(k3):
    tm = tuple_tokens(k3, cfg_for(2, atp_from_edges=True), pe_fn=zero_pe)
    assert tm.num_rows == 9


# -------------------------------------------------------------- token count


def test_known_counts(k3, p3, c6):
    assert len(enumerate_tuples(k3, 2, 1).nodes) == 9
    assert len(enumerate_tuples(p3, 2, 1).nodes) == 7
    assert len(enumerate_tuples(c6, 1, 1).nodes) == 6


def test_restricted_pair_count_is_nodes_plus_ordered_edges(graph_samples):
    for g in graph_samples(41, 30, 2, 8):
        m = len(g.edges)
        assert len(enumerate_tuples(g, 2, 1).nodes) == g.num_nodes + 2 * m


def test_count_matches_brute_force_component_bound(graph_samples):
    def components(graph, nodes):
        nodes = set(nodes)
        seen, count = set(), 0
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

    for g in graph_samples(43, 6, 2, 5):
        want = sum(
            1
            for tup in itertools.product(range(g.num_nodes), repeat=2)
            if components(g, tup) <= 1
        )
        assert len(enumerate_tuples(g, 2, 1).nodes) == want


# ----------------------------------------------------------- order transfer


def test_one_layer_runs_on_both_orders(p3):
    # the same dense layer consumes node tokens and pair tokens alike when
    # the widths agree
    from wlsim.simulate import AttentionHead, LayerWeights, transformer_layer

    dim = 6
    rng = np.random.default_rng(0)
    head = AttentionHead(
        w_q=rng.normal(size=(dim, dim)),
        w_k=rng.normal(size=(dim, dim)),
        w_v=rng.normal(size=(dim, dim)),
    )
    weights = LayerWeights(heads=(head,), w_o=np.eye(dim))
    low = node_tokens(p3, cfg_for(1, dim=dim))
    high = tuple_tokens(p3, cfg_for(2, s=1, dim=dim))
    assert transformer_layer(low.rows, weights).shape == (3, dim)
    assert transformer_layer(high.rows, weights).shape == (7, dim)
