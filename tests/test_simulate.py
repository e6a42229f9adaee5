"""Tests for the constructed-transformer simulation layer.

The hand examples replay single layers with explicit weight matrices, the
substitution-adjacency laws are checked against a throwaway brute-force
builder written here, and the end-to-end driver is compared round by round
against the refinement engine and the digit oracle.
"""

import dataclasses
import functools
import itertools
import math
import random
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wlsim.refine
import wlsim.simulate
from wlsim.digits import encode_multiset
from wlsim.errors import (
    DIGIT_OVERFLOW,
    INVALID_SCHEMA,
    MEMORY_LIMIT,
    SHAPE_MISMATCH,
    SPACE_MISMATCH,
    VARIANT_MISMATCH,
    ZERO_ROW,
    LimitError,
    ValidationError,
)
from wlsim.graphs import Graph, builtin_pair, random_graph
from wlsim.refine import (
    DEFAULT_MEMORY_LIMIT,
    VARIANTS,
    Coloring,
    TupleSpace,
    _dense_relabel,
    enumerate_tuples,
    initial_coloring,
    refine_step,
    refine_to_stable,
)
from wlsim.simulate import (
    DEFAULT_TEMPERATURE,
    ROUNDING_SLACK_LIMIT,
    AttentionHead,
    ConstructedWeights,
    LayerWeights,
    attention_error_curve,
    construct_kgt_weights,
    generalized_adjacency,
    gnn_reference_step,
    initial_tokens,
    simulate_and_compare,
    softmax_rows,
    transformer_layer,
    weighted_indicator,
)


def canon(colors):
    """First-occurrence dense relabel, the shared partition normal form."""
    table = {}
    out = []
    for c in colors:
        out.append(table.setdefault(c, len(table)))
    return tuple(out)


def same_coloring(a, b):
    """Equal tuple space, round and colors."""
    return a.space == b.space and a.iteration == b.iteration and np.array_equal(a.colors, b.colors)


def row_classes(matrix):
    """Dense ids of a float matrix's rows, rounded to kill round-off."""
    table = {}
    ids = []
    for row in np.asarray(matrix, dtype=float):
        key = tuple(np.round(row, 6))
        ids.append(table.setdefault(key, len(table)))
    return tuple(ids)


def index_of(space):
    """Map from each tuple of the space to its row."""
    return {v: i for i, v in enumerate(space.tuples)}


def brute_substitution_matrix(graph, k, j, gamma, space):
    """Independent rebuild of the substitution adjacency, straight from
    its definition: walk every tuple, try every replacement node at the
    1-based position j, and keep the ones on the right side of the
    adjacency test that still land inside the space."""
    t = len(space.tuples)
    mat = np.zeros((t, t))
    nbs = graph.neighbor_sets
    rows = index_of(space)
    for i, tup in enumerate(space.tuples):
        anchor = tup[j - 1]
        for w in range(graph.num_nodes):
            adjacent = w in nbs[anchor]
            if gamma == 1 and not adjacent:
                continue
            if gamma == -1 and adjacent:
                continue
            moved = tup[: j - 1] + (w,) + tup[j:]
            idx = rows.get(moved)
            if idx is not None:
                mat[i, idx] = 1.0
    return mat


def degree_normalized_adjacency(graph):
    adj = graph.adjacency_matrix.astype(float)
    return adj / adj.sum(axis=1)[:, None]


# The weights (alpha, beta) that a head puts on an adjacent and on a
# non-adjacent substitution at its position, written out independently of
# the construction: the local rules count adjacent substitutions only, plain
# counting counts all alike, and the adjacency-aware rule weighs a neighbor
# n + 1 times a non-neighbor.
def slot_weights(variant, k, n):
    if variant in ("delta_klwl", "ks_lwl") or k == 1:
        return 1.0, 0.0
    return (n + 1.0 if variant == "delta_kwl" else 1.0), 1.0


def substitution_target(graph, k, j, weights, space):
    """Row-normalized alpha * adjacent + beta * non-adjacent substitutions at
    the 1-based position j; rows without any stay 0."""
    alpha, beta = weights
    mat = alpha * generalized_adjacency(graph, k, j, 1, space=space)
    mat += beta * generalized_adjacency(graph, k, j, -1, space=space)
    sums = mat.sum(axis=1, keepdims=True)
    return np.divide(mat, sums, out=np.zeros_like(mat), where=sums > 0)


# ----------------------------------------------------------- transformer_layer


def test_layer_with_zero_value_paths_is_the_identity():
    x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    zero = np.zeros((2, 2))
    layer = LayerWeights(heads=(AttentionHead(zero, zero, zero),), w_o=np.eye(2))
    assert np.array_equal(transformer_layer(x, layer), x)


def test_zero_score_head_adds_the_column_means():
    # W^Q = W^K = 0 makes every score 0, so attention is uniform and the
    # residual output is X + (1/n) 11^T X exactly.
    x = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    eye = np.eye(2)
    layer = LayerWeights(heads=(AttentionHead(np.zeros((2, 2)), np.zeros((2, 2)), eye),), w_o=eye)
    expected = x + np.full((3, 3), 1.0 / 3.0) @ x
    assert np.allclose(transformer_layer(x, layer), expected, atol=1e-12)


def test_requested_attention_matrices_are_row_stochastic():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 3))
    heads = tuple(
        AttentionHead(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
        for _ in range(2)
    )
    layer = LayerWeights(heads=heads, w_o=rng.normal(size=(6, 3)))
    out, atts = transformer_layer(x, layer, return_attention=True)
    assert out.shape == (4, 3)
    assert len(atts) == 2
    for att in atts:
        assert att.shape == (4, 4)
        assert np.allclose(att.sum(axis=1), 1.0, atol=1e-12)
        assert (att > 0).all()


def test_ffn_runs_after_the_residual_and_may_change_width():
    x = np.array([[1.0, 1.0], [2.0, 0.0]])
    zero = np.zeros((2, 2))
    layer = LayerWeights(
        heads=(AttentionHead(zero, zero, zero),),
        w_o=np.eye(2),
        ffn=lambda rows: rows[:, :1] * 10.0,
    )
    assert np.array_equal(transformer_layer(x, layer), np.array([[10.0], [20.0]]))


def test_layer_accepts_token_matrix_carriers():
    class Carrier:
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])

    zero = np.zeros((2, 2))
    layer = LayerWeights(heads=(AttentionHead(zero, zero, zero),), w_o=np.eye(2))
    assert np.array_equal(transformer_layer(Carrier(), layer), Carrier.rows)


def test_layer_rejects_mismatched_head_input_width():
    x = np.ones((2, 2))
    bad = AttentionHead(np.zeros((3, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValidationError) as err:
        transformer_layer(x, LayerWeights(heads=(bad,), w_o=np.eye(2)))
    assert err.value.code == SHAPE_MISMATCH


def test_layer_rejects_query_key_width_disagreement():
    x = np.ones((2, 2))
    bad = AttentionHead(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValidationError) as err:
        transformer_layer(x, LayerWeights(heads=(bad,), w_o=np.eye(2)))
    assert err.value.code == SHAPE_MISMATCH


def test_layer_rejects_wrong_output_projection_shape():
    x = np.ones((2, 2))
    head = AttentionHead(np.eye(2), np.eye(2), np.eye(2))
    with pytest.raises(ValidationError) as err:
        transformer_layer(x, LayerWeights(heads=(head,), w_o=np.eye(3)))
    assert err.value.code == SHAPE_MISMATCH


def test_layer_rejects_one_dimensional_input():
    head = AttentionHead(np.eye(2), np.eye(2), np.eye(2))
    with pytest.raises(ValidationError) as err:
        transformer_layer(np.ones(4), LayerWeights(heads=(head,), w_o=np.eye(2)))
    assert err.value.code == SHAPE_MISMATCH


def test_layer_rejects_scores_that_overflow():
    x = np.array([[1e200, 0.0], [0.0, 1.0]])
    head = AttentionHead(1e200 * np.eye(2), np.eye(2), np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            transformer_layer(x, LayerWeights(heads=(head,), w_o=np.eye(2)))
    assert err.value.code == INVALID_SCHEMA


def test_layer_rejects_non_finite_tokens():
    x = np.array([[1.0, np.nan], [0.0, 1.0]])
    head = AttentionHead(np.eye(2), np.eye(2), np.eye(2))
    with pytest.raises(ValidationError) as err:
        transformer_layer(x, LayerWeights(heads=(head,), w_o=np.eye(2)))
    assert err.value.code == INVALID_SCHEMA


def test_softmax_rows_matches_a_direct_computation():
    scores = np.array([[0.0, math.log(3.0)], [10.0, 10.0]])
    out = softmax_rows(scores)
    assert np.allclose(out, [[0.25, 0.75], [0.5, 0.5]], atol=1e-12)


# ------------------------------------------------------- generalized_adjacency


def test_order_one_positive_substitution_is_the_adjacency_matrix(p3, k3):
    for g in (p3, k3):
        assert np.array_equal(
            generalized_adjacency(g, 1, 1, 1), g.adjacency_matrix.astype(float)
        )


def test_order_one_negative_substitution_complements_with_diagonal(p3):
    # w = v itself is non-adjacent (no self loops), so the diagonal is set.
    expected = np.ones((3, 3)) - p3.adjacency_matrix.astype(float) - np.eye(3)
    expected += np.eye(3)
    assert np.array_equal(generalized_adjacency(p3, 1, 1, -1), expected)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("gamma", [1, -1])
def test_substitution_matrix_matches_the_brute_force_builder(k, gamma):
    rng = random.Random(300 + k + gamma)
    for _ in range(8):
        n = rng.randint(2, 5 if k == 3 else 6)
        g = random_graph(rng, n, edge_prob=rng.uniform(0.3, 0.8))
        space = enumerate_tuples(g, k, k)
        for j in range(1, k + 1):
            got = generalized_adjacency(g, k, j, gamma, space=space)
            assert np.array_equal(got, brute_substitution_matrix(g, k, j, gamma, space))


@pytest.mark.parametrize("k", [2, 3])
def test_row_sums_are_degree_and_codegree_of_the_anchored_node(k):
    rng = random.Random(17 * k)
    for _ in range(10):
        n = rng.randint(2, 5)
        g = random_graph(rng, n, edge_prob=rng.uniform(0.25, 0.75))
        space = enumerate_tuples(g, k, k)
        for j in range(1, k + 1):
            plus = generalized_adjacency(g, k, j, 1, space=space).sum(axis=1)
            minus = generalized_adjacency(g, k, j, -1, space=space).sum(axis=1)
            for i, tup in enumerate(space.tuples):
                assert plus[i] == g.degree(tup[j - 1])
                assert minus[i] == n - g.degree(tup[j - 1])


def test_both_signs_together_cover_every_substitution_once(k3):
    space = enumerate_tuples(k3, 2, 2)
    for j in (1, 2):
        total = generalized_adjacency(k3, 2, j, 1, space=space) + generalized_adjacency(
            k3, 2, j, -1, space=space
        )
        assert set(np.unique(total)) <= {0.0, 1.0}
        assert np.array_equal(total.sum(axis=1), np.full(len(space.tuples), 3.0))
        assert np.array_equal(np.diag(total), np.ones(len(space.tuples)))


def test_restricted_space_drops_substitutions_that_leave_it(p3):
    # The (2,1) space over a path misses (0,2) and (2,0); replacements
    # landing there vanish from the matrix instead of erroring.
    full = enumerate_tuples(p3, 2, 2)
    local = enumerate_tuples(p3, 2, 1)
    assert len(local.tuples) < len(full.tuples)
    got = generalized_adjacency(p3, 2, 1, 1, space=local)
    assert np.array_equal(got, brute_substitution_matrix(p3, 2, 1, 1, local))
    assert got.sum() < generalized_adjacency(p3, 2, 1, 1).sum()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k": 0, "j": 1, "gamma": 1},
        {"k": 2, "j": 0, "gamma": 1},
        {"k": 2, "j": 3, "gamma": 1},
        {"k": 2, "j": 1, "gamma": 0},
        {"k": 2, "j": 1, "gamma": 2},
    ],
)
def test_substitution_matrix_rejects_bad_indices(p3, kwargs):
    with pytest.raises(ValidationError) as err:
        generalized_adjacency(p3, gamma=kwargs["gamma"], k=kwargs["k"], j=kwargs["j"])
    assert err.value.code == INVALID_SCHEMA


def test_substitution_matrix_rejects_foreign_spaces(p3, single_edge):
    wrong_order = enumerate_tuples(p3, 1, 1)
    with pytest.raises(ValidationError) as err:
        generalized_adjacency(p3, 2, 1, 1, space=wrong_order)
    assert err.value.code == SPACE_MISMATCH
    other_graph = enumerate_tuples(single_edge, 2, 2)
    with pytest.raises(ValidationError) as err:
        generalized_adjacency(p3, 2, 1, 1, space=other_graph)
    assert err.value.code == SPACE_MISMATCH


def test_substitution_matrix_enforces_the_memory_cap(c6):
    with pytest.raises(LimitError) as err:
        generalized_adjacency(c6, 9, 1, 1)
    assert err.value.code == MEMORY_LIMIT


# ---------------------------------------------------------- weighted_indicator


def test_indicator_of_the_identity_is_the_identity():
    result = weighted_indicator(np.eye(4))
    assert np.array_equal(result.matrix, np.eye(4))
    assert result.zero_rows == ()
    assert result.flag is None


def test_indicator_splits_rows_by_their_sums():
    result = weighted_indicator(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    assert np.allclose(result.matrix, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])


def test_indicator_of_the_adjacency_is_the_degree_normalized_walk(p3, c6):
    for g in (p3, c6):
        adj = g.adjacency_matrix.astype(float)
        assert np.allclose(weighted_indicator(adj).matrix, degree_normalized_adjacency(g))


def test_indicator_reports_zero_rows_without_raising():
    result = weighted_indicator(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert result.zero_rows == (0,)
    assert result.flag == ZERO_ROW
    assert np.array_equal(result.matrix[0], np.zeros(2))


def test_indicator_rejects_non_binary_entries():
    with pytest.raises(ValidationError) as err:
        weighted_indicator(np.array([[0.5, 1.0], [0.0, 1.0]]))
    assert err.value.code == INVALID_SCHEMA


def test_indicator_rejects_one_dimensional_input():
    with pytest.raises(ValidationError) as err:
        weighted_indicator(np.ones(3))
    assert err.value.code == SHAPE_MISMATCH


# ------------------------------------------------ construct_kgt_weights at k=1


def test_order_one_construction_has_one_head_per_layer(p3):
    cw = construct_kgt_weights(p3, 1, "kwl", 3, b=40.0)
    assert isinstance(cw, ConstructedWeights)
    assert cw.k == 1
    assert cw.head_count == 1
    assert cw.temperature == 40.0
    assert len(cw.layers) == 3
    assert all(len(layer.heads) == 1 for layer in cw.layers)


def class_block_1(rows, n):
    """Slice the leading one-hot class block out of order-1 token rows.

    Rows use the order-k layout at k = 1: class one-hot, count scratch of
    the same width, one degree cell, then the node and adjacency
    identification blocks of width n each, so the palette size falls out of
    the row width.
    """
    c = (rows.shape[1] - 2 * n - 1) // 2
    assert rows.shape[1] == 2 * c + 1 + 2 * n
    return rows[:, :c]


def test_replayed_first_layer_splits_the_path_like_refinement(p3):
    x = initial_tokens(p3, 1)
    layer = construct_kgt_weights(p3, 1, "kwl", 1).layers[0]
    out, (att,) = transformer_layer(x, layer, return_attention=True)
    assert np.linalg.norm(att - degree_normalized_adjacency(p3)) < 1e-8
    classes = row_classes(class_block_1(out, 3))
    assert classes[0] == classes[2] != classes[1]


def test_replayed_layers_keep_a_cycle_monochrome(c6):
    x = initial_tokens(c6, 1)
    for layer in construct_kgt_weights(c6, 1, "kwl", 2).layers:
        x = transformer_layer(x, layer)
        assert len(set(row_classes(class_block_1(x, 6)))) == 1


def test_constructed_attention_tracks_the_walk_matrix_on_random_graphs():
    rng = random.Random(41)
    for _ in range(12):
        g = random_graph(rng, rng.randint(2, 8), edge_prob=rng.uniform(0.3, 0.8), connected=True)
        x = initial_tokens(g, 1)
        layer = construct_kgt_weights(g, 1, "kwl", 1).layers[0]
        _, (att,) = transformer_layer(x, layer, return_attention=True)
        assert np.linalg.norm(att - degree_normalized_adjacency(g)) < 1e-8


def test_order_one_construction_validates_its_arguments(p3):
    with pytest.raises(ValidationError) as err:
        construct_kgt_weights(p3, 1, "kwl", 0)
    assert err.value.code == INVALID_SCHEMA
    with pytest.raises(ValidationError) as err:
        construct_kgt_weights(p3, 1, "kwl", 1, b=0.0)
    assert err.value.code == INVALID_SCHEMA


# ------------------------------------------------------- construct_kgt_weights


def test_order_two_construction_uses_one_head_per_position(k3):
    cw = construct_kgt_weights(k3, 2, "kwl", 2)
    assert cw.head_count == 2
    assert cw.k == 2
    assert len(cw.layers) == 2
    assert all(len(layer.heads) == 2 for layer in cw.layers)


@pytest.mark.parametrize("graph_name", ["p3", "k3"])
def test_each_head_attends_like_its_substitution_target(graph_name, request):
    # Head order is j = 1, 2; each softmax should land on the row-normalized
    # weighted substitution matrix of its position, for both full rules.
    g = request.getfixturevalue(graph_name)
    space = enumerate_tuples(g, 2, 2)
    x = initial_tokens(g, 2)
    for variant in ("kwl", "delta_kwl"):
        cw = construct_kgt_weights(g, 2, variant, 1)
        _, atts = transformer_layer(x, cw.layers[0], return_attention=True)
        assert len(atts) == 2
        weights = slot_weights(variant, 2, g.num_nodes)
        for j, att in enumerate(atts, start=1):
            target = substitution_target(g, 2, j, weights, space)
            assert (target.sum(axis=1) > 0).all()
            assert np.abs(att - target).max() < 1e-6


def test_one_simulated_round_matches_one_engine_round(k3):
    space = enumerate_tuples(k3, 2, 2)
    start = initial_coloring(k3, space)
    stepped = refine_step(k3, space, start, "kwl")
    report = simulate_and_compare(k3, 2, 2, "kwl", t_layers=1)
    assert np.array_equal(report.transformer_partitions[1], canon(stepped.colors))
    assert report.all_equal


def test_adjacency_aware_order_two_separates_the_cycle_pair():
    g1, g2 = builtin_pair("c6_vs_2c3")
    final = []
    for g in (g1, g2):
        report = simulate_and_compare(g, 2, 2, "delta_kwl")
        assert report.all_equal
        final.append(sorted(np.bincount(report.transformer_partitions[-1])))
    assert final[0] != final[1]

    # Plain refinement over single nodes never tells the pair apart: both
    # graphs are 2-regular, so every round keeps one class per graph.
    plain = []
    for g in (g1, g2):
        report = simulate_and_compare(g, 1, 1, "kwl")
        assert report.all_equal
        plain.append(sorted(np.bincount(report.transformer_partitions[-1])))
    assert plain[0] == plain[1] == [6]


def test_order_k_construction_validates_variant_and_order(p3):
    with pytest.raises(ValidationError) as err:
        construct_kgt_weights(p3, 0, "kwl", 1)
    assert err.value.code == INVALID_SCHEMA
    # Order 1 implements plain refinement only, with simulate_and_compare's error.
    for variant in ("delta_kwl", "delta_klwl"):
        raised = []
        for call in (construct_kgt_weights, lambda g, k, v, t: simulate_and_compare(g, k, k, v, t)):
            with pytest.raises(ValidationError) as err:
                call(p3, 1, variant, 1)
            raised.append((err.value.code, err.value.message))
        assert raised[0] == raised[1]
        assert raised[0][0] == VARIANT_MISMATCH
    with pytest.raises(ValidationError) as err:
        construct_kgt_weights(p3, 2, "ks_lwl", 1)
    assert err.value.code == VARIANT_MISMATCH


def test_head_count_contract_is_enforced_at_construction():
    layer = LayerWeights(heads=(AttentionHead(np.eye(1), np.eye(1), np.eye(1)),), w_o=np.eye(1))
    with pytest.raises(ValidationError) as err:
        ConstructedWeights(layers=(layer,), temperature=60.0, head_count=1, k=2, variant="kwl")
    assert err.value.code == INVALID_SCHEMA
    with pytest.raises(ValidationError) as err:
        ConstructedWeights(layers=(layer, layer), temperature=60.0, head_count=2, k=2, variant="kwl")
    assert err.value.code == INVALID_SCHEMA


# Heads per layer: every rule reads one weighted substitution slot per
# position, the full rules and the local rules alike.
HEAD_COUNTS = [
    ("kwl", 1, 1, 1),
    ("kwl", 2, 2, 2),
    ("kwl", 3, 3, 3),
    ("delta_kwl", 2, 2, 2),
    ("delta_kwl", 3, 3, 3),
    ("delta_klwl", 2, 2, 2),
    ("delta_klwl", 3, 3, 3),
    ("ks_lwl", 2, 1, 2),
    ("ks_lwl", 3, 1, 3),
    ("ks_lwl", 3, 2, 3),
]


def structured_layer(g, k, s, variant, b=DEFAULT_TEMPERATURE):
    """The first constructed layer of a run, in its structured form."""
    sim = wlsim.simulate
    setup = sim._setup(g, k, s, DEFAULT_MEMORY_LIMIT)
    weights = sim._slot_weights(variant, k, g.num_nodes)
    heads = sim._head_forms(setup.parts, k, b, weights)
    return sim._StructuredLayer(setup, heads, weights, setup.classes)


@pytest.mark.parametrize("variant,k,s,heads", HEAD_COUNTS)
def test_each_rule_builds_only_the_heads_it_reads(p3, variant, k, s, heads):
    structured = structured_layer(p3, k, s, variant)
    layer = structured.dense()
    c = max(structured.classes) + 1
    assert len(structured.heads) == len(layer.heads) == heads
    assert layer.w_o.shape == (heads * c, initial_tokens(p3, k, s).shape[1])
    if variant != "ks_lwl":
        cw = construct_kgt_weights(p3, k, variant, 2)
        assert cw.head_count == heads
        assert all(len(layer.heads) == heads for layer in cw.layers)
    report = simulate_and_compare(p3, k, s, variant, t_layers=2)
    assert report.all_equal
    assert [len(errors) for errors in report.attention_errors] == [heads, heads]


@pytest.mark.parametrize("variant,k,s,heads", HEAD_COUNTS)
def test_dense_projections_read_each_score_slot_from_its_own_position(p3, variant, k, s, heads):
    """Every nonzero of w_q and w_k lies in a (position block, score slot)
    pair, the only layout for which the product form of the softmax is exact.
    Plain counting at k > 1 weighs every substitution alike, so head j's
    query block of slot j is exactly zero; every other block is not."""
    sim = wlsim.simulate
    structured = structured_layer(p3, k, s, variant)
    n = p3.num_nodes
    lay = sim._KLayout(c=max(structured.classes) + 1, k=k, n=n)
    inside = np.zeros((lay.width, k * n), dtype=bool)
    for o in range(k):
        inside[lay.positional(o), o * n : (o + 1) * n] = True
    uniform = variant == "kwl" and k > 1
    for j, head in enumerate(structured.dense().heads):
        for w in (head.w_q, head.w_k):
            assert w.shape == inside.shape
            assert np.count_nonzero(w[~inside]) == 0
            for o in range(k):
                block = w[lay.positional(o), o * n : (o + 1) * n]
                if uniform and w is head.w_q and o == j:
                    assert np.count_nonzero(block) == 0
                else:
                    assert np.count_nonzero(block) > 0


@pytest.mark.parametrize("k", [2, 3])
def test_plain_counting_slot_attends_uniformly(k):
    # Plain counting weighs all n substitutions alike: slot j scores 0, so
    # its factor is exactly J / n at any temperature.
    sim = wlsim.simulate
    g = random_graph(random.Random(50 + k), 7, edge_prob=0.4, connected=True)
    n = g.num_nodes
    parts = sim._spectral_parts(g)
    for b in (0.5, DEFAULT_TEMPERATURE):
        heads = sim._head_forms(parts, k, b, sim._slot_weights("kwl", k, n))
        assert len(heads) == k
        for head in heads:
            factor = sim._position_factors(head, parts.positional)[head.j]
            assert np.array_equal(factor, np.full((n, n), 1.0 / n))


@pytest.mark.parametrize("n", [10, 16, 40, 64, 128])
@pytest.mark.parametrize("density", [3.0, 0.3])
def test_adjacency_aware_slot_recovers_the_weighted_count(n, density):
    # Slot j weighs a neighbor n + 1 times a non-neighbor, so Z F_j with
    # Z = (n + 1) deg + (n - deg) rounds exactly to (n + 1) A + (J - A).
    # Only n x n arrays: the two factors of an order-2 head.
    sim = wlsim.simulate
    edge_prob = density / n if density > 1 else density
    g = random_graph(random.Random(n), n, edge_prob=edge_prob, connected=True)
    parts = sim._spectral_parts(g)
    head = sim._head_forms(parts, 2, DEFAULT_TEMPERATURE, sim._slot_weights("delta_kwl", 2, n))[0]
    factor = sim._position_factors(head, parts.positional)[head.j]
    adj = g.adjacency_matrix.astype(float)
    deg = adj.sum(axis=1, keepdims=True)
    counts = ((n + 1) * deg + (n - deg)) * factor
    assert np.array_equal(np.rint(counts), (n + 1) * adj + (1.0 - adj))
    assert np.abs(counts - np.rint(counts)).max() < 1e-9


def test_no_tuple_space_runs_the_dense_layer(monkeypatch, p3):
    """Every row of the head-count table, restricted spaces included, runs
    the structured forward: ``transformer_layer``, ``dense()`` and
    ``_token_rows_k`` are reached only by ``construct_kgt_weights``."""
    sim = wlsim.simulate
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    builders = ((sim, "transformer_layer"), (sim, "_token_rows_k"), (sim._StructuredLayer, "dense"))
    for owner, name in builders:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    for variant, k, s, _ in HEAD_COUNTS:
        assert simulate_and_compare(p3, k, s, variant, t_layers=2).all_equal
    assert calls == []
    assert construct_kgt_weights(p3, 1, "kwl", 2).head_count == 1
    assert calls == ["dense", "dense"]


@pytest.mark.parametrize("b", [math.inf, -math.inf, math.nan, 0.0])
def test_temperature_must_be_positive_and_finite(p3, b):
    calls = (
        lambda: construct_kgt_weights(p3, 1, "kwl", 1, b=b),
        lambda: construct_kgt_weights(p3, 2, "kwl", 1, b=b),
        lambda: simulate_and_compare(p3, 1, 1, "kwl", b=b),
        lambda: attention_error_curve(p3, temperatures=(b,)),
    )
    for call in calls:
        with pytest.raises(ValidationError) as err:
            call()
        assert err.value.code == INVALID_SCHEMA


@pytest.mark.parametrize("k, variant", [(1, "kwl"), (2, "delta_kwl"), (3, "delta_klwl")])
def test_temperature_whose_query_scale_overflows_is_rejected(c6, k, variant):
    # b sqrt(kn) or b (2n + 2) sqrt(kn) is inf: the weights would hold inf and
    # NaN, and the report a NaN error. No numpy warning may escape either.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        calls = [lambda: simulate_and_compare(c6, k, k, variant, b=1e308)]
        if k > 1:
            calls.append(lambda: simulate_and_compare(c6, k, 1, "ks_lwl", b=1e308))
            calls.append(lambda: construct_kgt_weights(c6, k, variant, 1, b=1e308))
        for call in calls:
            with pytest.raises(ValidationError) as err:
                call()
            assert err.value.code == INVALID_SCHEMA


def test_temperature_whose_scores_overflow_is_rejected():
    # On a 9-node star the query scale b sqrt(9) is finite at b = 5.9e307,
    # but projecting the adjacency eigenfactorization overflows.
    star = Graph(9, [(0, v) for v in range(1, 9)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            simulate_and_compare(star, 1, 1, "kwl", b=5.9e307)
        assert err.value.code == INVALID_SCHEMA
        report = simulate_and_compare(star, 1, 1, "kwl", b=1e306)
    assert math.isfinite(report.max_attention_error)


# ------------------------------------------------------- simulate_and_compare


@pytest.mark.parametrize("k,s,variant", [(1, 1, "kwl"), (2, 2, "delta_kwl"), (2, 1, "ks_lwl")])
def test_partitions_are_read_only_int64_arrays_at_every_leg(c6, k, s, variant):
    space = enumerate_tuples(c6, k, s)
    t = len(space.nodes)

    def frozen(colors):
        return (
            isinstance(colors, np.ndarray)
            and colors.dtype == np.int64
            and colors.shape == (t,)
            and not colors.flags.writeable
        )

    start = initial_coloring(c6, space)
    assert frozen(start.colors)
    assert frozen(refine_step(c6, space, start, variant).colors)
    assert frozen(gnn_reference_step(start, c6, k, variant).colors)
    report = simulate_and_compare(c6, k, s, variant)
    # The transformer's partitions past the first are the FFN's classes.
    for partitions in (
        report.transformer_partitions,
        report.wl_partitions,
        report.oracle_partitions,
    ):
        assert len(partitions) == report.layers + 1
        assert all(frozen(p) for p in partitions)


def test_zero_layer_report_compares_only_the_shared_start(p3):
    report = simulate_and_compare(p3, 1, 1, "kwl", t_layers=0)
    assert report.layers == 0
    assert report.partition_equal_per_layer == (True,)
    assert report.all_equal
    assert report.attention_errors == ()
    assert report.max_attention_error == 0.0
    assert report.rounding_slack_max == 0.0
    # The shared start is the atomic-type coloring, which is blind to
    # degree, so an unlabeled path begins monochrome.
    for partitions in (
        report.transformer_partitions,
        report.wl_partitions,
        report.oracle_partitions,
    ):
        assert [p.tolist() for p in partitions] == [[0, 0, 0]]


def test_default_run_reaches_and_witnesses_the_fixed_point(p3):
    report = simulate_and_compare(p3, 1, 1, "kwl")
    stable = refine_to_stable(p3, 1, 1, "kwl")
    assert report.layers == len(stable) == 2
    assert report.all_equal
    assert len(report.transformer_partitions) == report.layers + 1
    assert np.array_equal(report.transformer_partitions[-1], canon(stable[-1].colors))
    assert np.array_equal(report.transformer_partitions[-1], report.transformer_partitions[-2])
    assert report.max_attention_error < 1e-8
    assert report.rounding_slack_max < ROUNDING_SLACK_LIMIT


def test_default_run_steps_the_engine_once_per_round(monkeypatch, p3):
    """The engine's run to its fixed point supplies every engine partition.

    ``refine_to_stable`` looks ``refine_step`` up in ``wlsim.refine`` and the
    lockstep loop in ``wlsim.simulate``, so one counter wraps both names.
    """
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return refine_step(*args, **kwargs)

    monkeypatch.setattr(wlsim.refine, "refine_step", counting)
    monkeypatch.setattr(wlsim.simulate, "refine_step", counting)
    report = simulate_and_compare(p3, 2, 2, "delta_kwl")
    assert report.layers >= 2
    assert report.all_equal
    assert len(calls) == report.layers
    calls.clear()
    assert simulate_and_compare(p3, 2, 2, "delta_kwl", t_layers=3).all_equal
    assert len(calls) == 3


def test_order_one_simulation_agrees_on_random_graphs():
    rng = random.Random(90)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 8), edge_prob=rng.uniform(0.25, 0.75))
        report = simulate_and_compare(g, 1, 1, "kwl")
        assert report.all_equal
        assert report.max_attention_error < 1e-8


@pytest.mark.parametrize("variant", ["kwl", "delta_kwl", "delta_klwl"])
def test_order_two_simulation_agrees_on_random_graphs(variant):
    # crc32, not hash(): str hashes are salted per process, so a failure
    # drawn from them could not be replayed.
    rng = random.Random(zlib.crc32(variant.encode()) % 1000)
    for _ in range(6):
        g = random_graph(rng, rng.randint(2, 5), edge_prob=rng.uniform(0.3, 0.8))
        report = simulate_and_compare(g, 2, 2, variant)
        assert report.all_equal
        assert report.max_attention_error < 1e-6
        assert report.rounding_slack_max < ROUNDING_SLACK_LIMIT


def test_local_skip_variant_runs_on_the_restricted_space(k3):
    report = simulate_and_compare(k3, 2, 1, "ks_lwl")
    assert report.s == 1
    assert report.all_equal
    rng = random.Random(55)
    g = random_graph(rng, 5, edge_prob=0.5, connected=True)
    assert simulate_and_compare(g, 2, 1, "ks_lwl").all_equal


def test_order_one_simulation_needs_the_plain_rule(p3):
    with pytest.raises(ValidationError) as err:
        simulate_and_compare(p3, 1, 1, "delta_kwl")
    assert err.value.code == VARIANT_MISMATCH


def test_report_dictionary_has_the_documented_keys(p3):
    doc = simulate_and_compare(p3, 1, 1, "kwl", t_layers=1).to_dict()
    assert set(doc) == {
        "k",
        "s",
        "variant",
        "layers",
        "partition_equal_per_layer",
        "max_attention_error",
        "rounding_slack_max",
    }
    assert doc["k"] == 1 and doc["s"] == 1
    assert doc["variant"] == "kwl"
    assert doc["layers"] == 1
    assert doc["partition_equal_per_layer"] == [True, True]


def test_simulation_is_deterministic(k3):
    first = simulate_and_compare(k3, 2, 2, "delta_kwl")
    second = simulate_and_compare(k3, 2, 2, "delta_kwl")
    assert [p.tolist() for p in first.transformer_partitions] == [
        p.tolist() for p in second.transformer_partitions
    ]
    assert first.attention_errors == second.attention_errors
    assert first.max_attention_error == second.max_attention_error


# ------------------------------------------ structured forward against dense


def lockstep_forwards(g, k, s, variant, b, t_layers):
    """Step the dense and the structured forward on the same constructed layers.

    Each round both paths start from the same classes.  The dense path runs
    ``transformer_layer`` on the layer's ``dense()`` weights and token rows,
    the structured path ``forward`` on the attention maps of its heads.
    Yields a dict keyed by path of (attention matrices, residual sum before
    the FFN, FFN output, FFN trace).  The structured attentions are rebuilt
    as dense Kronecker products of their factors on a full space and are
    the restricted t x t attentions on a restricted one; its residual sum
    puts each head's attended one-hot into the count scratch of the token
    rows, and its FFN output is the token rows of its classes.  The dense
    output feeds the next round.

    Under "compared" it also yields where the two must agree: per head the
    rows that have a target, and the residual sum outside the count scratch
    of the rows that have none.  A row of a restricted space without an
    admissible substitution has degree 0.  The dense softmax and the
    renormalized product weigh it differently (the product leaves it 0 if
    its mass underflows), and the FFN multiplies either by that 0.
    """
    sim = wlsim.simulate
    setup = sim._setup(g, k, s, DEFAULT_MEMORY_LIMIT)
    slots = sim._slot_weights(variant, k, g.num_nodes)
    heads = sim._head_forms(setup.parts, k, b, slots)
    attends, _ = sim._head_attention(setup, heads, slots, DEFAULT_MEMORY_LIMIT)
    if s == k:
        factors, _ = sim._full_space_attention(g, setup.parts, heads, slots)
        atts_f = [functools.reduce(np.kron, f) for f in factors]
    else:
        atts_f, _ = sim._restricted_space_attention(setup, heads, DEFAULT_MEMORY_LIMIT)
    rows = [substitution_target(g, k, head.j + 1, slots, setup.space).any(axis=1) for head in heads]
    x, classes = initial_tokens(g, k, s), setup.classes
    for _ in range(t_layers):
        layer = sim._StructuredLayer(setup, heads, slots, classes)
        lay = sim._KLayout(c=max(classes) + 1, k=k, n=g.num_nodes)
        trace_d = {"slack": 0.0, "classes": ()}
        weights = layer.dense(DEFAULT_MEMORY_LIMIT, trace_d)
        bare = dataclasses.replace(weights, ffn=None)
        combined_d, atts_d = transformer_layer(x, bare, return_attention=True)
        out_d = weights.ffn(combined_d)
        trace_f = {"slack": 0.0, "classes": ()}
        layer.forward(attends, trace_f, DEFAULT_MEMORY_LIMIT)
        combined_f = x.copy()
        agree = np.ones(x.shape, dtype=bool)
        for head, attend, kept in zip(heads, attends, rows):
            combined_f[:, lay.counts(head.j)] += attend(x[:, : lay.c])
            agree[~kept, lay.counts(head.j)] = False
        out_f = sim._token_rows_k(setup, trace_f["classes"], DEFAULT_MEMORY_LIMIT)
        yield {
            "dense": (atts_d, combined_d, out_d, trace_d),
            "structured": (atts_f, combined_f, out_f, trace_f),
            "compared": (rows, agree),
        }
        x, classes = out_d, trace_d["classes"]


@pytest.mark.parametrize("b", [DEFAULT_TEMPERATURE, 0.5])
@pytest.mark.parametrize("k,n", [(2, 2), (2, 5), (2, 9), (2, 14), (2, 18), (3, 3), (3, 5), (3, 7)])
def test_factored_forward_matches_the_dense_layer(k, n, b):
    rng = random.Random(1000 * k + n)
    g = random_graph(rng, n, edge_prob=rng.uniform(0.3, 0.7), connected=True)
    # Every rule builds one head per position; ks_lwl runs on every
    # restricted space s < k.
    runs = [(variant, k) for variant in ("kwl", "delta_kwl", "delta_klwl")]
    runs += [("ks_lwl", s) for s in range(1, k)]
    for variant, s in runs:
        for rounds in lockstep_forwards(g, k, s, variant, b, 2):
            atts_d, combined_d, out_d, trace_d = rounds["dense"]
            atts_f, combined_f, out_f, trace_f = rounds["structured"]
            rows, agree = rounds["compared"]
            assert len(atts_d) == len(atts_f) == k
            for dense, rebuilt, kept in zip(atts_d, atts_f, rows):
                assert np.abs(dense[kept] - rebuilt[kept]).max() < 1e-12
            assert np.abs(combined_d - combined_f)[agree].max() < 1e-9
            assert np.array_equal(trace_d["classes"], trace_f["classes"])
            assert abs(trace_d["slack"] - trace_f["slack"]) < 1e-9
            assert np.array_equal(out_d, out_f)


@pytest.mark.parametrize("b", [DEFAULT_TEMPERATURE, 0.5])
@pytest.mark.parametrize("k,n", [(2, 10), (3, 5)])
def test_reported_attention_error_is_the_distance_of_the_kronecker_product(k, n, b):
    # The reported error comes from per-factor inner products.  The dense
    # distance of the rebuilt product from the t x t target is the
    # reference; at b = 60 it is about 1e-13, where subtracting products of
    # norms would leave only cancellation noise.
    sim = wlsim.simulate
    rng = random.Random(77 + k * n)
    g = random_graph(rng, n, edge_prob=0.5, connected=True)
    space = enumerate_tuples(g, k, k)
    report = simulate_and_compare(g, k, k, "delta_kwl", t_layers=1, b=b)
    layer = structured_layer(g, k, k, "delta_kwl", b)
    factors, _ = sim._full_space_attention(g, sim._spectral_parts(g), layer.heads, layer.weights)
    assert [head.j for head in layer.heads] == list(range(k))
    weights = slot_weights("delta_kwl", k, n)
    for j, (got, head) in enumerate(zip(report.attention_errors[0], factors), start=1):
        target = substitution_target(g, k, j, weights, space)
        want = np.linalg.norm(functools.reduce(np.kron, head) - target)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-15)


def test_full_space_layers_enforce_the_memory_cap(p3):
    # The dense form: the path at k = 2 has 9 tuples of width 23 (three
    # initial classes).
    with pytest.raises(LimitError) as err:
        initial_tokens(p3, 2, memory_limit=100)
    assert err.value.code == MEMORY_LIMIT
    assert "9x23 token matrix" in err.value.message
    # One edge with two node labels at k = 2: its four tuples are four
    # classes, so 4 x 22 tokens fit and the 8 x 22 output projection (k c
    # rows) does not.
    edge = Graph(2, [(0, 1)], [0, 1])
    with pytest.raises(LimitError) as err:
        structured_layer(edge, 2, 2, "kwl").dense(memory_limit=100)
    assert err.value.code == MEMORY_LIMIT
    assert "8x22 output projection" in err.value.message
    with pytest.raises(LimitError) as err:
        construct_kgt_weights(edge, 2, "kwl", 1, memory_limit=100)
    assert "8x22 output projection" in err.value.message
    # The structured forward allocates neither, only its t x (1 + k) c rows of
    # one-hot and counts: 4 x 12 for the edge, 9 x 9 for the path.
    assert simulate_and_compare(edge, 2, 2, "kwl", memory_limit=100).all_equal
    with pytest.raises(LimitError) as err:
        simulate_and_compare(p3, 2, 2, "kwl", memory_limit=80)
    assert err.value.code == MEMORY_LIMIT
    assert "9x9 FFN row" in err.value.message


class DenseBuilt(Exception):
    """Raised by the stand-ins for the dense builders."""


def test_full_spaces_never_write_a_layer_out(monkeypatch):
    """No ``w_q``/``w_k``/``w_v``, ``w_o`` or token matrix on any tuple
    space, restricted ones included: ``dense()`` and ``_token_rows_k`` are
    the only builders of them, and only ``construct_kgt_weights`` calls them."""
    sim = wlsim.simulate

    def refuse(*args, **kwargs):
        raise DenseBuilt

    monkeypatch.setattr(sim._StructuredLayer, "dense", refuse)
    monkeypatch.setattr(sim, "_token_rows_k", refuse)
    g = random_graph(random.Random(8), 6, edge_prob=0.4, connected=True)
    for k in (1, 2, 3):
        for variant in ("kwl",) if k == 1 else ("kwl", "delta_kwl", "delta_klwl"):
            report = simulate_and_compare(g, k, k, variant)
            assert report.all_equal, (k, variant)
            assert report.rounding_slack_max < ROUNDING_SLACK_LIMIT
    report = simulate_and_compare(g, 2, 1, "ks_lwl")
    assert report.all_equal
    assert report.rounding_slack_max < ROUNDING_SLACK_LIMIT
    with pytest.raises(DenseBuilt):
        construct_kgt_weights(g, 2, "kwl", 1)


@pytest.mark.parametrize(
    "k,variant",
    [(1, "kwl"), (2, "kwl"), (2, "delta_kwl"), (3, "delta_klwl"), (2, "ks_lwl"), (3, "ks_lwl")],
)
def test_full_space_layers_report_one_attention_error_tuple(k, variant):
    # The attentions and the targets are the same in every layer, on the
    # full space and on every restricted one (ks_lwl, s < k).
    g = random_graph(random.Random(31), 7, edge_prob=0.4, connected=True)
    for s in range(1, k) if variant == "ks_lwl" else (k,):
        report = simulate_and_compare(g, k, s, variant)
        assert report.layers >= 2
        assert all(errors == report.attention_errors[0] for errors in report.attention_errors)


def test_twenty_nodes_at_order_two_pass_at_the_default_cap():
    # The 1600 x 2084 output projection of the dense form used to refuse this
    # run at the default cap; the structured forward holds t x c blocks.
    g = random_graph(random.Random(20), 20, 3 / 20, connected=True)
    g.adjacency_matrix
    tracemalloc.start()
    try:
        report = simulate_and_compare(g, 2, 2, "delta_kwl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_equal
    assert report.max_attention_error < 1e-8
    assert report.rounding_slack_max < ROUNDING_SLACK_LIMIT
    assert max(report.transformer_partitions[-1]) + 1 == 400
    assert peak < 48_000_000


@pytest.mark.parametrize("n,classes", [(8, 356), (12, 624)])
def test_order_three_restricted_spaces_pass_at_the_default_cap(n, classes):
    # The dense form refused both for its output projection (1068 x 2546 at
    # n = 8); the restricted forward holds k t x t attentions and the
    # t x (1 + k) c FFN row, and both runs reach the discrete partition.
    g = random_graph(random.Random(n), n, 3 / n, connected=True)
    g.adjacency_matrix
    tracemalloc.start()
    try:
        report = simulate_and_compare(g, 3, 1, "ks_lwl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_equal
    assert report.max_attention_error < 1e-8
    assert report.rounding_slack_max < ROUNDING_SLACK_LIMIT
    assert max(report.transformer_partitions[-1]) + 1 == classes
    assert peak < 128_000_000


@pytest.mark.parametrize("b", [DEFAULT_TEMPERATURE, 1000.0])
def test_rows_without_a_target_stay_finite_on_a_restricted_space(p3, b):
    # On P3 at k = 3, s = 1, two tuples per position have no adjacent
    # substitution on the space, so their rows have no target and degree 0.
    # At b = 1000 every product on such a row underflows: the row stays 0
    # instead of NaN, and no numpy warning escapes at either temperature.
    # Each error equals the distance from the weighted_indicator target on
    # the rows that have one, bit for bit.
    sim = wlsim.simulate
    setup = sim._setup(p3, 3, 1, DEFAULT_MEMORY_LIMIT)
    heads = sim._head_forms(setup.parts, 3, b, sim._slot_weights("ks_lwl", 3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        atts, errors = sim._restricted_space_attention(setup, heads, DEFAULT_MEMORY_LIMIT)
        report = simulate_and_compare(p3, 3, 1, "ks_lwl", b=b)
    for head, att, error in zip(heads, atts, errors):
        target = weighted_indicator(generalized_adjacency(p3, 3, head.j + 1, 1, space=setup.space))
        kept = np.ones(len(att), dtype=bool)
        kept[list(target.zero_rows)] = False
        assert np.count_nonzero(~kept) == 2
        assert np.isfinite(att).all()
        assert np.allclose(att[kept].sum(axis=1), 1.0)
        assert error == np.linalg.norm(att[kept] - target.matrix[kept])
        if b > DEFAULT_TEMPERATURE:
            assert not att[~kept].any()
    assert report.all_equal
    assert report.attention_errors[0] == errors
    assert report.max_attention_error < 1e-8


@pytest.mark.parametrize("variant", ["kwl", "delta_kwl", "delta_klwl"])
def test_order_three_transformer_replays_the_strongly_regular_pair(variant):
    # t = 16^3 = 4096 tuples: the dense t x t attention would exceed the cap.
    shrikhande, rook = builtin_pair("shrikhande_vs_rook")
    grows = variant != "kwl"
    for g, classes in ((shrikhande, [15, 22, 31, 31] if grows else [15, 15]), (rook, [15, 15])):
        report = simulate_and_compare(g, 3, 3, variant)
        assert report.all_equal, variant
        assert [max(p) + 1 for p in report.transformer_partitions] == classes
        assert report.max_attention_error < 1e-8
        assert report.rounding_slack_max < ROUNDING_SLACK_LIMIT


# -------------------------------------------------------- gnn_reference_step


def test_digit_step_fixes_the_stable_coloring(p3, c6):
    for g, k, s, variant in ((p3, 1, 1, "kwl"), (c6, 2, 2, "delta_kwl")):
        stable = refine_to_stable(g, k, s, variant)[-1]
        again = gnn_reference_step(stable, g, k, variant)
        assert canon(again.colors) == canon(stable.colors)
        assert again.iteration == stable.iteration + 1


def test_digit_step_matches_the_engine_on_hand_graphs(p3, k3):
    space1 = enumerate_tuples(p3, 1, 1)
    start1 = initial_coloring(p3, space1)
    assert canon(gnn_reference_step(start1, p3, 1, "kwl").colors) == canon(
        refine_step(p3, space1, start1, "kwl").colors
    )
    space2 = enumerate_tuples(k3, 2, 2)
    start2 = initial_coloring(k3, space2)
    assert canon(gnn_reference_step(start2, k3, 2, "kwl").colors) == canon(
        refine_step(k3, space2, start2, "kwl").colors
    )


@pytest.mark.parametrize(
    "variant,k,s",
    [
        ("kwl", 1, 1),
        ("kwl", 2, 2),
        ("delta_kwl", 2, 2),
        ("delta_klwl", 2, 2),
        ("ks_lwl", 2, 1),
        ("kwl", 3, 3),
        ("delta_kwl", 3, 3),
        ("delta_klwl", 3, 3),
        ("ks_lwl", 3, 1),
    ],
)
def test_digit_step_stays_in_lockstep_with_the_engine(variant, k, s):
    rng = random.Random(140 + k + s)
    for _ in range(8):
        g = random_graph(rng, rng.randint(2, 5), edge_prob=rng.uniform(0.3, 0.8))
        space = enumerate_tuples(g, k, s)
        engine = oracle = initial_coloring(g, space)
        for _ in range(3):
            engine = refine_step(g, space, engine, variant)
            oracle = gnn_reference_step(oracle, g, k, variant)
            assert canon(oracle.colors) == canon(engine.colors)


def test_digit_step_validates_space_and_variant(p3, single_edge):
    space = enumerate_tuples(p3, 2, 2)
    start = initial_coloring(p3, space)
    with pytest.raises(ValidationError) as err:
        gnn_reference_step(start, p3, 1, "kwl")
    assert err.value.code == SPACE_MISMATCH
    with pytest.raises(ValidationError) as err:
        gnn_reference_step(start, single_edge, 2, "kwl")
    assert err.value.code == SPACE_MISMATCH


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_digit_step_agrees_with_the_engine_on_sampled_graphs(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 6), edge_prob=rng.uniform(0.2, 0.9))
    space = enumerate_tuples(g, 1, 1)
    colors = initial_coloring(g, space)
    assert canon(gnn_reference_step(colors, g, 1, "kwl").colors) == canon(
        refine_step(g, space, colors, "kwl").colors
    )


def loop_digit_step(colors, graph, k, variant):
    """The digit oracle as one ``encode_multiset`` per tuple, walking the
    tuples and substitutions in Python: the reference that the block-wise
    ``gnn_reference_step`` must equal id for id."""
    space = colors.space
    n = graph.num_nodes
    big_n = len(space.nodes)
    nbs = graph.neighbor_sets
    cols = colors.colors
    vectors = []
    if k == 1 and variant == "kwl":
        for v in range(n):
            depths = [cols[v] + 1]
            depths.extend(big_n + cols[w] + 1 for w in nbs[v])
            vectors.append(encode_multiset(depths, n + 1))
    elif variant == "ks_lwl":
        rows = index_of(space)
        for i, tup in enumerate(space.tuples):
            depths = [cols[i] + 1]
            for j in range(k):
                offset = big_n * (j + 1) + 1
                for w in nbs[tup[j]]:
                    idx = rows.get(tup[:j] + (w,) + tup[j + 1 :])
                    if idx is not None:
                        depths.append(offset + cols[idx])
            vectors.append(encode_multiset(depths, n + 1))
    else:
        strides = space.strides
        for i, tup in enumerate(space.tuples):
            depths = [cols[i] + 1]
            for j in range(k):
                base = i - tup[j] * strides[j]
                neighbors = nbs[tup[j]]
                for w in range(n):
                    if variant == "kwl":
                        offset = big_n * (j + 1)
                    elif variant == "delta_kwl":
                        offset = big_n * (2 * j + 1) if w in neighbors else big_n * (2 * j + 2)
                    else:  # delta_klwl
                        if w not in neighbors:
                            continue
                        offset = big_n * (j + 1)
                    depths.append(offset + cols[base + w * strides[j]] + 1)
            vectors.append(encode_multiset(depths, n + 1))
    ids = _dense_relabel([vectors])[0]
    return Coloring(space, tuple(ids), colors.iteration + 1)


def every_rule(max_k=3):
    """(k, s, variant) for every variant at k = 1..max_k and every s <= k
    that the variant accepts."""
    for k in range(1, max_k + 1):
        for variant in VARIANTS:
            for s in range(1, k + 1) if variant == "ks_lwl" else (k,):
                yield k, s, variant


@st.composite
def oracle_graphs(draw):
    """A labeled connected graph or a graph of two connected parts."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    if draw(st.booleans()):
        return random_graph(
            rng, rng.randint(2, 5), edge_prob=rng.uniform(0.2, 0.9), label_count=2, connected=True
        )
    a = random_graph(rng, rng.randint(2, 3), edge_prob=rng.uniform(0.3, 0.9), connected=True)
    b = random_graph(rng, 2, edge_prob=1.0, connected=True)
    shifted = [(u + a.num_nodes, v + a.num_nodes) for u, v in b.edges]
    labels = [rng.randint(0, 1) for _ in range(a.num_nodes + b.num_nodes)]
    return Graph(a.num_nodes + b.num_nodes, list(a.edges) + shifted, labels)


@settings(max_examples=30, deadline=None)
@given(g=oracle_graphs(), seed=st.integers(0, 10_000), block=st.integers(1, 3))
def test_block_oracle_equals_the_per_tuple_loop(g, seed, block):
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wlsim.simulate, "ORACLE_BLOCK", block)
        for k, s, variant in every_rule():
            space = enumerate_tuples(g, k, s)
            t = len(space.nodes)
            palette = rng.randint(1, t)
            shuffled = Coloring(space, tuple(rng.randrange(palette) for _ in range(t)), 0)
            for colors in (initial_coloring(g, space), shuffled):
                for _ in range(2):
                    want = loop_digit_step(colors, g, k, variant)
                    got = gnn_reference_step(colors, g, k, variant)
                    assert same_coloring(got, want), (k, s, variant, block)
                    colors = got


def _overflow_coloring(space, variant):
    """Colors under which tuple (a, 0) of an order-2 space on a complete
    graph counts 2n - 2 substitutions at one depth: the adjacent tuples
    (w, 0) sit one position range above the adjacent tuples (a, w)."""
    shift = 2 * len(space.nodes) if variant == "delta_kwl" else len(space.nodes)
    return Coloring(space, tuple(shift if b == 0 else 0 for _, b in space.tuples), 0)


@pytest.mark.parametrize("k,s,variant", [(2, 2, v) for v in VARIANTS] + [(2, 1, "ks_lwl")])
def test_block_oracle_overflows_where_the_loop_does(k, s, variant):
    k4 = Graph(4, list(itertools.combinations(range(4), 2)))
    colors = _overflow_coloring(enumerate_tuples(k4, k, s), variant)
    messages = []
    for step in (loop_digit_step, gnn_reference_step):
        with pytest.raises(ValidationError) as err:
            step(colors, k4, k, variant)
        assert err.value.code == DIGIT_OVERFLOW, step
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("k,s,variant", list(every_rule()))
def test_block_oracle_refuses_negative_colors_where_the_loop_does(p3, k, s, variant):
    space = enumerate_tuples(p3, k, s)
    t = len(space.nodes)
    for bad in (-1, -t - 2):
        colors = Coloring(space, tuple(bad if i == t // 2 else i % 2 for i in range(t)), 0)
        messages = []
        for step in (loop_digit_step, gnn_reference_step):
            with pytest.raises(ValidationError) as err:
                step(colors, p3, k, variant)
            assert err.value.code == INVALID_SCHEMA, step
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def test_oracle_reaches_no_engine_internals(monkeypatch, c6):
    """The oracle finds substituted tuples by its own arithmetic: it never
    asks the space or the engine for substitutions, fibers or gather plans,
    nor walks the tuples in Python."""
    g = Graph(6, list(c6.edges) + [(0, 3)], [0, 1, 0, 1, 0, 0])
    starts = {
        (k, s, variant): initial_coloring(g, enumerate_tuples(g, k, s))
        for k, s, variant in every_rule()
    }
    want = {key: loop_digit_step(c, g, key[0], key[2]) for key, c in starts.items()}

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle reached an engine internal")

    monkeypatch.setattr(TupleSpace, "substitute", forbidden)
    for name in ("_position", "substitution", "tuples"):
        monkeypatch.setattr(TupleSpace, name, property(forbidden))
    for name in ("_summary_ids", "_gather_plans"):
        monkeypatch.setattr(wlsim.refine, name, forbidden)
    for (k, s, variant), colors in starts.items():
        got = gnn_reference_step(colors, g, k, variant)
        assert same_coloring(got, want[(k, s, variant)]), (k, s, variant)


def test_oracle_round_memory_is_bounded_by_its_blocks():
    # k = 3, n = 20: t = 8000 tuples of 61 depths.  The per-tuple loop
    # peaked at about 47 MB here; the blocks and the keys take about 10 MB.
    g = random_graph(random.Random(20), 20, 3 / 20, connected=True)
    space = enumerate_tuples(g, 3, 3)
    colors = refine_step(g, space, initial_coloring(g, space), "kwl")
    g.adjacency_matrix  # cached on the graph, not part of the round
    tracemalloc.start()
    try:
        out = gnn_reference_step(colors, g, 3, "kwl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(out.colors) + 1 == 8000
    assert peak < 16_000_000


@st.composite
def edge_case_graphs(draw):
    """A single edge, a complete graph K3-K5, or a path beside a clique, with
    node and edge labels."""
    kind = draw(st.sampled_from(("edge", "complete", "two_components")))
    if kind == "edge":
        n, edges = 2, [(0, 1)]
    elif kind == "complete":
        n = draw(st.integers(3, 5))
        edges = list(itertools.combinations(range(n), 2))
    else:
        a, b = draw(st.integers(2, 3)), draw(st.integers(2, 3))
        n = a + b
        edges = [(i, i + 1) for i in range(a - 1)]
        edges += [(a + i, a + j) for i, j in itertools.combinations(range(b), 2)]
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    edge_labels = draw(st.lists(st.integers(0, 2), min_size=len(edges), max_size=len(edges)))
    return Graph(n, edges, labels, edge_labels)


@settings(max_examples=25, deadline=None)
@given(g=edge_case_graphs())
def test_digit_step_agrees_with_the_engine_at_the_edges_of_the_model(g):
    for k in (1, 2, 3):
        for variant in VARIANTS:
            for s in range(1, k + 1) if variant == "ks_lwl" else (k,):
                space = enumerate_tuples(g, k, s)
                engine = oracle = initial_coloring(g, space)
                while True:
                    nxt = refine_step(g, space, engine, variant)
                    oracle = gnn_reference_step(oracle, g, k, variant)
                    assert np.array_equal(oracle.colors, nxt.colors), (k, s, variant)
                    if np.array_equal(nxt.colors, engine.colors):
                        break
                    engine = nxt


@settings(max_examples=25, deadline=None)
@given(g=edge_case_graphs())
def test_transformer_agrees_with_engine_and_oracle_at_the_edges_of_the_model(g):
    for k in (1, 2, 3):
        for variant in VARIANTS:
            for s in range(1, k + 1) if variant == "ks_lwl" else (k,):
                if k == 1 and variant != "kwl":
                    with pytest.raises(ValidationError) as err:
                        simulate_and_compare(g, k, s, variant)
                    assert err.value.code == VARIANT_MISMATCH
                    continue
                report = simulate_and_compare(g, k, s, variant)
                assert report.all_equal, (k, s, variant)
                assert report.rounding_slack_max < ROUNDING_SLACK_LIMIT, (k, s, variant)


# ------------------------------------------------------ attention_error_curve


def test_error_curve_is_tiny_at_the_default_temperature(p3, c6):
    for g in (p3, c6):
        curve = attention_error_curve(g)
        assert len(curve) == 3
        assert curve[-1] < 1e-8


def test_error_curve_never_rises_above_the_noise_floor():
    # Below roughly 1e-10 the curve is eigenfactorization round-off, not
    # approximation error, and round-off is free to wiggle.  Clamping to
    # that floor makes the sharpening claim testable.
    rng = random.Random(23)
    graphs = [random_graph(rng, rng.randint(3, 7), edge_prob=0.5, connected=True) for _ in range(5)]
    for g in graphs:
        curve = [max(e, 1e-10) for e in attention_error_curve(g, temperatures=(20.0, 40.0, 60.0))]
        assert curve[0] >= curve[1] >= curve[2]


def test_error_curve_honors_custom_temperatures(k3):
    curve = attention_error_curve(k3, temperatures=(5.0, 60.0))
    assert len(curve) == 2
    assert curve[1] <= curve[0]
    with pytest.raises(ValidationError) as err:
        attention_error_curve(k3, temperatures=(0.0,))
    assert err.value.code == INVALID_SCHEMA
