"""Graph data model: validation, permutations, atomic types, JSON loading,
and built-in non-isomorphic test pairs.

Graphs here are undirected, node-labeled, without self-loops and without
isolated nodes. Node indexing is 0-based and index order is the fixed node
ordering that every downstream enumeration relies on. Validation is plain
Python; the cached adjacency, pair-type and neighbor arrays are the numpy
views that the tuple engine gathers from, and :func:`atomic_types` reads
the pair types at every position pair of a node array.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    DUPLICATE_EDGE,
    INVALID_SCHEMA,
    ISOLATED_NODE,
    NODE_INDEX_OUT_OF_RANGE,
    NON_BIJECTIVE,
    SELF_LOOP,
    UNKNOWN_PAIR,
    ValidationError,
)

_GRAPH_KEYS = {"num_nodes", "edges", "labels", "edge_labels"}


def _natural(value: object, what: str) -> int:
    """Coerce-check a JSON-ish value as a non-negative integer."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValidationError(
            INVALID_SCHEMA, f"{what} must be a non-negative integer, got {value!r}"
        )
    return value


def _check_seed(seed: object) -> None:
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValidationError(INVALID_SCHEMA, f"seed must be a non-negative int, got {seed!r}")


@dataclass(frozen=True)
class Graph:
    """Undirected node-labeled graph.

    Parameters
    ----------
    num_nodes:
        Number of nodes; indices run over ``[0, num_nodes)``.
    edges:
        Iterable of unordered pairs. Stored sorted as ``(u, v)`` with
        ``u < v``, so two graphs with the same edge set compare equal no
        matter how the edges were spelled.
    labels:
        Optional per-node natural numbers; defaults to all zeros.
    edge_labels:
        Optional per-edge natural numbers, parallel to ``edges`` as passed
        in; reordered together with the edges during normalization.

    Raises
    ------
    ValidationError
        With code ``SELF_LOOP``, ``ISOLATED_NODE``, ``DUPLICATE_EDGE``,
        ``NODE_INDEX_OUT_OF_RANGE``, or ``INVALID_SCHEMA`` depending on
        which invariant the input breaks.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[int, ...] | None = None
    edge_labels: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        n = self.num_nodes
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValidationError(
                INVALID_SCHEMA, f"num_nodes must be a positive integer, got {n!r}"
            )

        seen: set[tuple[int, int]] = set()
        ordered: list[tuple[int, int]] = []
        for raw in self.edges:
            try:
                pair = tuple(raw)
            except TypeError:
                raise ValidationError(INVALID_SCHEMA, f"edge {raw!r} is not a pair") from None
            if len(pair) != 2:
                raise ValidationError(INVALID_SCHEMA, f"edge {raw!r} is not a pair")
            u = _natural(pair[0], "edge endpoint")
            v = _natural(pair[1], "edge endpoint")
            if u == v:
                raise ValidationError(SELF_LOOP, f"self-loop at node {u}")
            if u >= n or v >= n:
                raise ValidationError(
                    NODE_INDEX_OUT_OF_RANGE,
                    f"edge ({u}, {v}) references a node outside [0, {n})",
                )
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValidationError(
                    DUPLICATE_EDGE, f"edge ({key[0]}, {key[1]}) appears more than once"
                )
            seen.add(key)
            ordered.append(key)

        if self.edge_labels is not None:
            marks = tuple(_natural(x, "edge label") for x in self.edge_labels)
            if len(marks) != len(ordered):
                raise ValidationError(
                    INVALID_SCHEMA,
                    f"edge_labels has length {len(marks)} but there are {len(ordered)} edges",
                )
            joint = sorted(zip(ordered, marks))
            object.__setattr__(self, "edges", tuple(e for e, _ in joint))
            object.__setattr__(self, "edge_labels", tuple(m for _, m in joint))
        else:
            object.__setattr__(self, "edges", tuple(sorted(ordered)))

        if self.labels is not None:
            lab = tuple(_natural(x, "node label") for x in self.labels)
            if len(lab) != n:
                raise ValidationError(
                    INVALID_SCHEMA,
                    f"labels has length {len(lab)} but num_nodes is {n}",
                )
            object.__setattr__(self, "labels", lab)

        # Checked before anything of size n is built: a num_nodes beyond the
        # endpoints is refused however large it is.
        ends = {v for edge in self.edges for v in edge}
        if len(ends) < n:
            v = next(v for v in range(n) if v not in ends)
            raise ValidationError(ISOLATED_NODE, f"node {v} has no incident edge")
        if self.labels is None:
            object.__setattr__(self, "labels", (0,) * n)

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        """Neighbor set of every node, indexed by node."""
        sets: list[set[int]] = [set() for _ in range(self.num_nodes)]
        for u, v in self.edges:
            sets[u].add(v)
            sets[v].add(u)
        return tuple(frozenset(s) for s in sets)

    @cached_property
    def adjacency_matrix(self) -> np.ndarray:
        """Read-only ``(n, n)`` bool adjacency matrix in node-index order."""
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        adj = np.zeros((self.num_nodes, self.num_nodes), dtype=bool)
        adj[ends[:, 0], ends[:, 1]] = True
        adj[ends[:, 1], ends[:, 0]] = True
        adj.setflags(write=False)
        return adj

    @cached_property
    def pair_types(self) -> np.ndarray:
        """Read-only ``(n, n)`` int8 atomic type of every node pair: 2 for the
        same node, 1 for adjacent nodes, 3 otherwise."""
        types = np.where(self.adjacency_matrix, 1, 3).astype(np.int8)
        np.fill_diagonal(types, 2)
        types.setflags(write=False)
        return types

    @cached_property
    def neighbor_array(self) -> np.ndarray:
        """Read-only ``(n, max degree)`` sorted neighbor lists, padded with -1."""
        width = max(len(nb) for nb in self.neighbor_sets)
        out = np.full((self.num_nodes, width), -1, dtype=np.int64)
        for v, nb in enumerate(self.neighbor_sets):
            out[v, : len(nb)] = sorted(nb)
        out.setflags(write=False)
        return out

    @cached_property
    def _edge_label_map(self) -> dict[tuple[int, int], int]:
        if self.edge_labels is None:
            return {}
        return dict(zip(self.edges, self.edge_labels))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        self._check_node(v)
        return len(self.neighbor_sets[v])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return v in self.neighbor_sets[u]

    def edge_label(self, u: int, v: int) -> int:
        """Label of the edge {u, v}, defaulting to 0 when no labels were given."""
        if not self.has_edge(u, v):
            raise ValidationError(INVALID_SCHEMA, f"no edge between {u} and {v}")
        key = (u, v) if u < v else (v, u)
        return self._edge_label_map.get(key, 0)

    def _check_node(self, v: int) -> None:
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < self.num_nodes:
            raise ValidationError(
                NODE_INDEX_OUT_OF_RANGE,
                f"node index {v!r} outside [0, {self.num_nodes})",
            )


def atomic_types(graph: Graph, nodes: np.ndarray) -> np.ndarray:
    """Atomic types of the rows of a ``(t, k)`` node array, as ``(t, k, k)``
    int8 codes: 2 where two positions hold the same node, 1 where they hold
    adjacent nodes, 3 otherwise.

    A type depends only on which positions coincide and which are adjacent,
    never on the node identities themselves, which is what makes it a sound
    initial color for tuple refinement. Entry ``[r, i, j]`` is
    ``graph.pair_types`` at the nodes of row r at positions i and j.
    """
    if nodes.shape[1] == 1:  # no pair of positions: skip the n x n matrix
        return np.full((len(nodes), 1, 1), 2, dtype=np.int8)
    return graph.pair_types[nodes[:, :, None], nodes[:, None, :]]


def apply_permutation(graph: Graph, perm: Sequence[int]) -> Graph:
    """Relabel nodes by a bijection, giving an isomorphic graph.

    ``perm[v]`` is the new index of node ``v``; node labels travel with
    their nodes and edge labels with their edges.
    """
    n = graph.num_nodes
    p = tuple(perm)
    if len(p) != n or any(isinstance(x, bool) or not isinstance(x, int) for x in p) or sorted(p) != list(range(n)):
        raise ValidationError(
            NON_BIJECTIVE, f"perm must be a bijection on [0, {n}), got {p!r}"
        )
    new_edges = [(p[u], p[v]) for u, v in graph.edges]
    new_labels = [0] * n
    for v, mark in enumerate(graph.labels):
        new_labels[p[v]] = mark
    return Graph(n, tuple(new_edges), tuple(new_labels), graph.edge_labels)


# The 16-node pair below is stored as explicit edge lists so that a slip in
# some on-the-fly construction can never silently change what the expressivity
# tests exercise. Both lists come from the standard definitions (tests
# re-derive them): the rook graph puts i and j adjacent iff they share a row
# or column of a 4x4 grid (i // 4 == j // 4 or i % 4 == j % 4), and the other
# graph is the Cayley graph of Z4 x Z4 with connection set
# {(1,0), (3,0), (0,1), (0,3), (1,1), (3,3)}. Both are 6-regular with every
# adjacent and non-adjacent pair sharing exactly two common neighbors, yet
# they are non-isomorphic: the neighborhood of any rook node induces two
# triangles, while its counterpart induces a single 6-cycle.
_ROOK_4X4_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 8), (0, 12), (1, 2), (1, 3), (1, 5),
    (1, 9), (1, 13), (2, 3), (2, 6), (2, 10), (2, 14), (3, 7), (3, 11),
    (3, 15), (4, 5), (4, 6), (4, 7), (4, 8), (4, 12), (5, 6), (5, 7), (5, 9),
    (5, 13), (6, 7), (6, 10), (6, 14), (7, 11), (7, 15), (8, 9), (8, 10),
    (8, 11), (8, 12), (9, 10), (9, 11), (9, 13), (10, 11), (10, 14), (11, 15),
    (12, 13), (12, 14), (12, 15), (13, 14), (13, 15), (14, 15),
)

_SHRIKHANDE_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 3), (0, 4), (0, 5), (0, 12), (0, 15), (1, 2), (1, 5), (1, 6),
    (1, 12), (1, 13), (2, 3), (2, 6), (2, 7), (2, 13), (2, 14), (3, 4),
    (3, 7), (3, 14), (3, 15), (4, 5), (4, 7), (4, 8), (4, 9), (5, 6), (5, 9),
    (5, 10), (6, 7), (6, 10), (6, 11), (7, 8), (7, 11), (8, 9), (8, 11),
    (8, 12), (8, 13), (9, 10), (9, 13), (9, 14), (10, 11), (10, 14), (10, 15),
    (11, 12), (11, 15), (12, 13), (12, 15), (13, 14), (14, 15),
)

BUILTIN_PAIR_NAMES = ("c6_vs_2c3", "k33_vs_prism", "shrikhande_vs_rook")


def builtin_pair(name: str) -> tuple[Graph, Graph]:
    """Named non-isomorphic graph pairs used as expressivity probes.

    ``c6_vs_2c3`` is the 6-cycle against two disjoint triangles (the classic
    pair that plain color refinement cannot tell apart), ``k33_vs_prism``
    is the complete bipartite K3,3 against the triangular prism, and
    ``shrikhande_vs_rook`` is a strongly regular 16-node pair that needs
    more than pairwise refinement to separate.
    """
    if name == "c6_vs_2c3":
        cycle = Graph(6, tuple((i, (i + 1) % 6) for i in range(6)))
        triangles = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
        return cycle, triangles
    if name == "k33_vs_prism":
        bipartite = Graph(6, tuple((i, j) for i in range(3) for j in range(3, 6)))
        prism = Graph(
            6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5))
        )
        return bipartite, prism
    if name == "shrikhande_vs_rook":
        return Graph(16, _SHRIKHANDE_EDGES), Graph(16, _ROOK_4X4_EDGES)
    raise ValidationError(
        UNKNOWN_PAIR,
        f"unknown pair {name!r}, expected one of {', '.join(BUILTIN_PAIR_NAMES)}",
    )


def graph_from_dict(doc: object) -> Graph:
    """Build a validated Graph from an already-parsed JSON document."""
    if not isinstance(doc, dict):
        raise ValidationError(INVALID_SCHEMA, "graph document must be a JSON object")
    unknown = set(doc) - _GRAPH_KEYS
    if unknown:
        raise ValidationError(INVALID_SCHEMA, f"unknown keys: {sorted(unknown)}")
    for key in ("num_nodes", "edges"):
        if key not in doc:
            raise ValidationError(INVALID_SCHEMA, f"missing required key {key!r}")
    edges = doc["edges"]
    if not isinstance(edges, (list, tuple)):
        raise ValidationError(INVALID_SCHEMA, "edges must be an array of pairs")
    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, (list, tuple)):
        raise ValidationError(INVALID_SCHEMA, "labels must be an array of integers")
    edge_labels = doc.get("edge_labels")
    if edge_labels is not None and not isinstance(edge_labels, (list, tuple)):
        raise ValidationError(INVALID_SCHEMA, "edge_labels must be an array of integers")
    return Graph(
        doc["num_nodes"],
        tuple(edges),
        tuple(labels) if labels is not None else None,
        tuple(edge_labels) if edge_labels is not None else None,
    )


def load_graph(text: str) -> Graph:
    """Parse a graph JSON document.

    The schema is an object with ``num_nodes`` and ``edges`` plus optional
    ``labels`` and ``edge_labels`` arrays; anything else is rejected with
    code ``INVALID_SCHEMA``, and the structural rules (no self-loops, no
    isolated nodes, no duplicate edges, indices in range) each fail with
    their own code. Text the parser cannot take is ``INVALID_SCHEMA`` too:
    nesting beyond the interpreter's recursion limit, or an integer of more
    digits than ``int`` converts.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(INVALID_SCHEMA, f"not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ValidationError(INVALID_SCHEMA, f"JSON the parser cannot take: {exc}") from exc
    return graph_from_dict(doc)


def graph_to_dict(graph: Graph) -> dict:
    """Inverse of :func:`graph_from_dict`, omitting redundant defaults."""
    doc: dict = {
        "num_nodes": graph.num_nodes,
        "edges": [[u, v] for u, v in graph.edges],
    }
    if any(graph.labels):
        doc["labels"] = list(graph.labels)
    if graph.edge_labels is not None:
        doc["edge_labels"] = list(graph.edge_labels)
    return doc

