"""Test-only graph helpers: a seeded random-graph sampler, a brute-force
isomorphism oracle, a random sign flip of eigenvectors and the attention
error curve over temperatures.

No subcommand, benchmark job or reference path of the package calls these,
so they live beside the tests that do. The module name is one that no
``perfbench/`` module uses, because both directories are test paths and
their modules are imported by bare name.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from wlsim.errors import INVALID_SCHEMA, LimitError, ValidationError
from wlsim.graphs import Graph
from wlsim.simulate import _adjacency_part, _check_temperature, softmax_rows
from wlsim.spectral import SpectralDecomposition

#: Hard cap for the exhaustive isomorphism search (factorial blow-up).
BRUTE_FORCE_MAX_NODES = 9

#: Code of the ``LimitError`` the brute-force search raises above its cap.
SIZE_LIMIT = "SIZE_LIMIT"


def random_graph(
    rng,
    num_nodes: int,
    edge_prob: float = 0.5,
    label_count: int = 1,
    connected: bool = False,
) -> Graph:
    """Sample a valid random graph.

    Isolated nodes are repaired by attaching them to a random other node, so
    every draw satisfies the model invariants. With ``connected=True`` a
    random spanning tree is merged in first.
    """
    if num_nodes < 2:
        raise ValidationError(INVALID_SCHEMA, "need at least two nodes for a valid graph")
    edges = {
        (u, v)
        for u, v in itertools.combinations(range(num_nodes), 2)
        if rng.random() < edge_prob
    }
    if connected:
        nodes = list(range(num_nodes))
        rng.shuffle(nodes)
        for a, b in zip(nodes, nodes[1:]):
            edges.add((min(a, b), max(a, b)))
    else:
        degree = [0] * num_nodes
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        for v in range(num_nodes):
            if degree[v] == 0:
                w = rng.choice([u for u in range(num_nodes) if u != v])
                edges.add((min(v, w), max(v, w)))
                degree[v] += 1
                degree[w] += 1
    labels = tuple(rng.randrange(label_count) for _ in range(num_nodes))
    return Graph(num_nodes, tuple(sorted(edges)), labels)


def are_isomorphic_bruteforce(g: Graph, h: Graph) -> bool:
    """Exhaustive isomorphism test, the ground truth for soundness checks.

    Searches over bijections with degree and label pruning, so it is exact
    but only usable for small graphs.

    Raises
    ------
    LimitError
        With code ``SIZE_LIMIT`` when either graph has more than
        ``BRUTE_FORCE_MAX_NODES`` nodes.
    """
    if g.num_nodes > BRUTE_FORCE_MAX_NODES or h.num_nodes > BRUTE_FORCE_MAX_NODES:
        raise LimitError(
            SIZE_LIMIT,
            f"brute-force search is capped at {BRUTE_FORCE_MAX_NODES} nodes",
        )
    n = g.num_nodes
    if n != h.num_nodes or len(g.edges) != len(h.edges):
        return False
    deg_g = [len(nb) for nb in g.neighbor_sets]
    deg_h = [len(nb) for nb in h.neighbor_sets]
    if sorted(zip(g.labels, deg_g)) != sorted(zip(h.labels, deg_h)):
        return False
    marks_g, marks_h = (
        dict(zip(graph.edges, graph.edge_labels or [0] * len(graph.edges))) for graph in (g, h)
    )

    def mark(marks: dict, u: int, v: int) -> int | None:
        return marks.get((u, v) if u < v else (v, u))

    # Most-constrained-first: mapping high-degree nodes early prunes fastest.
    order = sorted(range(n), key=lambda v: (-deg_g[v], v))
    image = [-1] * n
    used = [False] * n

    def extend(idx: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        for w in range(n):
            if used[w] or g.labels[v] != h.labels[w] or deg_g[v] != deg_h[w]:
                continue
            if all(mark(marks_g, v, u) == mark(marks_h, w, image[u]) for u in order[:idx]):
                image[v] = w
                used[w] = True
                if extend(idx + 1):
                    return True
                image[v] = -1
                used[w] = False
        return False

    return extend(0)


def sign_flip(dec: SpectralDecomposition, seed: int) -> SpectralDecomposition:
    """Multiply each eigenvector by an independent uniform sign.

    Models the data augmentation that forces encoders to be sign-invariant.
    Residual and orthonormality are untouched, but the canonical sign
    convention of ``eigh`` is deliberately not preserved.
    """
    rng = np.random.default_rng(seed)
    flips = rng.integers(0, 2, size=dec.n) * 2 - 1
    return SpectralDecomposition(
        dec.eigenvalues.copy(),
        dec.eigenvectors * flips.astype(float),
        dec.source,
        dec.residual,
    )


def attention_error_curve(
    graph: Graph, temperatures: Sequence[float] = (20.0, 40.0, 60.0)
) -> tuple[float, ...]:
    """Frobenius distance of adjacency-shaped attention from its target.

    Uses one fixed eigenfactorization of the adjacency matrix and sweeps the
    softmax temperature, returning the distance of ``softmax(b * scores)``
    from the degree-normalized adjacency for each ``b``.  The curve is the
    quantitative face of the temperature argument: a larger ``b`` sharpens
    the row maxima until only the eigenfactorization's round-off is left.
    """
    adj_part, signs = _adjacency_part(graph)
    scores = (adj_part * signs) @ adj_part.T
    adj = graph.adjacency_matrix.astype(float)
    target = adj / adj.sum(axis=1, keepdims=True)  # no isolated nodes, so no zero row
    out = []
    for b in temperatures:
        b = _check_temperature(b)
        out.append(float(np.linalg.norm(softmax_rows(b * scores) - target)))
    return tuple(out)
