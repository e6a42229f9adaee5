"""Closed-form attention layers that replay tuple color refinement.

The forward pass in this module is ordinary multi-head softmax attention.
What is unusual is where the weights come from: given a graph, every query,
key, value, and output projection is written down in closed form from
eigenfactorizations of the adjacency matrix and the Laplacian, so that each
head's attention matrix approaches a row-normalized adjacency pattern
between node tuples as the temperature grows.  A designed, exact
feed-forward map then de-normalizes the attended averages back into integer
neighbor-color counts and relabels the rows.  Iterating the layer
reproduces, class for class, the refinement computed by the multiset engine
in ``refine``.

One construction serves every order, order 1 being k = 1, and every rule
builds k heads.  Head j attends to the tuples reached by substituting a node
at position j, weighing an adjacent substitution alpha and a non-adjacent
one beta: (1, 0) for the local rules, which count adjacent substitutions
only, (1, 1) for plain counting and (n + 1, 1) for the adjacency-aware rule,
whose de-normalized count (n + 1) * adjacent + non_adjacent is injective.

Every head of a run is built from two row-stochastic n x n factors, the
same in every layer: the slot factor, the softmax of the signed adjacency
spectrum, and the node factor, the softmax of the orthonormal Laplacian
rows, which approaches the identity.  Head j's query and key read one
tuple position per score slot, so on a full tuple space (s = k) its softmax
is exactly the Kronecker product of the slot factor at position j and the
node factor at every other position, and on a restricted space that
product on the space, renormalized per row.  The simulation applies each
head to the one-hot of the classes, as k mode products or one t x t
attention, without the token matrix or projections.  ``dense`` writes a
layer out as matrices for ``transformer_layer``, the reference that
``construct_kgt_weights`` and the tests read.

``simulate_and_compare`` runs three implementations side by side: the
constructed transformer, the hash-based engine, and an exact digit oracle
(``gnn_reference_step``), which reads the colors through its own int32 plan
of substitutions into keys equal exactly when the base-``m`` fixed-point
codes of the neighbor-color multisets are.  The three never share
intermediate state, only the final lookup that numbers each round's keys
by first occurrence (``refine._relabel_rows``); agreement of their
partitions at every iteration is the point of the exercise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .errors import (
    INVALID_SCHEMA,
    ITERATION_LIMIT,
    MEMORY_LIMIT,
    SHAPE_MISMATCH,
    SPACE_MISMATCH,
    VARIANT_MISMATCH,
    LimitError,
    ValidationError,
)
from .graphs import Graph
from .refine import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_MEMORY_LIMIT,
    Coloring,
    TupleSpace,
    _check_order,
    _check_request,
    _is_local,
    _refine_until_stable,
    _relabel_rows,
    enumerate_tuples,
    initial_coloring,
    refine_step,
)
from .spectral import eigh, laplacian_eigh

__all__ = [
    "DEFAULT_TEMPERATURE",
    "ROUNDING_SLACK_LIMIT",
    "AttentionHead",
    "LayerWeights",
    "ConstructedWeights",
    "SimReport",
    "softmax_rows",
    "transformer_layer",
    "generalized_adjacency",
    "initial_tokens",
    "construct_kgt_weights",
    "gnn_reference_step",
    "simulate_and_compare",
]

DEFAULT_TEMPERATURE = 60.0

# Recovered neighbor counts must sit strictly closer than this to an integer
# for a run to pass; the margin is the quantitative witness that the
# attention approximation is tight enough to be read back exactly.
ROUNDING_SLACK_LIMIT = 0.4

# Tuples per block of the digit oracle's plan build, which bounds its int64
# flat-index scratch at ORACLE_BLOCK * n entries per position, 1.3 MB at
# n = 40. The plan and each round's keys hold 4 bytes per depth each.
ORACLE_BLOCK = 1 << 12


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction so large scores cannot overflow."""
    scores = np.asarray(scores, dtype=float)
    shifted = scores - scores.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


@dataclass(frozen=True, eq=False)
class AttentionHead:
    """Projection triple for one attention head."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray


@dataclass(frozen=True, eq=False)
class LayerWeights:
    """One layer: heads, output projection, and the designed exact map.

    ``ffn`` stands in for the feed-forward block.  It receives the residual
    sum ``X + concat(heads) @ w_o`` and may change the row width (the
    constructions re-encode colors one-hot against a fresh palette each
    layer).  ``None`` means identity.
    """

    heads: tuple[AttentionHead, ...]
    w_o: np.ndarray
    ffn: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True, eq=False)
class ConstructedWeights:
    """Per-layer weights produced by one of the builders."""

    layers: tuple[LayerWeights, ...]
    temperature: float
    k: int
    variant: str

    @property
    def head_count(self) -> int:
        """Heads per layer: one weighted substitution slot per position, k."""
        return self.k

    def __post_init__(self) -> None:
        for i, layer in enumerate(self.layers):
            if len(layer.heads) != self.head_count:
                raise ValidationError(
                    INVALID_SCHEMA,
                    f"layer {i} has {len(layer.heads)} heads, expected {self.head_count}",
                )


def _finite_scores(scores: np.ndarray) -> np.ndarray:
    """Return the scores, or raise ``ValidationError`` (``INVALID_SCHEMA``)
    when an entry is not finite. Callers compute them with numpy's overflow
    warnings off, so a too large temperature ends in this one typed error
    instead of warnings and NaN attention."""
    if not np.isfinite(scores).all():
        raise ValidationError(INVALID_SCHEMA, "attention scores overflow at this temperature")
    return scores


def _as_rows(x) -> np.ndarray:
    rows = getattr(x, "rows", x)
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(SHAPE_MISMATCH, f"token matrix must be 2-d, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(INVALID_SCHEMA, "token matrix contains non-finite entries")
    return arr


def transformer_layer(x, weights: LayerWeights, return_attention: bool = False):
    """Run one multi-head attention layer with residual and exact FFN.

    Parameters
    ----------
    x : array-like or TokenMatrix
        Token rows, one per node or tuple.
    weights : LayerWeights
        Head projections, output projection, and optional exact map.
    return_attention : bool
        When true, also return each head's post-softmax attention matrix.

    Returns
    -------
    np.ndarray or (np.ndarray, tuple[np.ndarray, ...])
        ``ffn(x + [h_1 ... h_M] w_o)``; attention matrices if requested.
    """
    arr = _as_rows(x)
    d = arr.shape[1]
    outputs = []
    attentions = []
    for idx, head in enumerate(weights.heads):
        w_q, w_k, w_v = head.w_q, head.w_k, head.w_v
        if w_q.ndim != 2 or w_k.ndim != 2 or w_v.ndim != 2:
            raise ValidationError(SHAPE_MISMATCH, f"head {idx} projections must be 2-d")
        if w_q.shape[0] != d or w_k.shape[0] != d or w_v.shape[0] != d:
            raise ValidationError(
                SHAPE_MISMATCH,
                f"head {idx} expects input width {w_q.shape[0]}, token width is {d}",
            )
        if w_q.shape[1] != w_k.shape[1]:
            raise ValidationError(
                SHAPE_MISMATCH,
                f"head {idx} query width {w_q.shape[1]} != key width {w_k.shape[1]}",
            )
        d_k = w_q.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):
            scores = (arr @ w_q) @ (arr @ w_k).T / math.sqrt(d_k)
        att = softmax_rows(_finite_scores(scores))
        outputs.append(att @ (arr @ w_v))
        if return_attention:
            attentions.append(att)
    concat = np.hstack(outputs)
    w_o = weights.w_o
    if w_o.shape != (concat.shape[1], d):
        raise ValidationError(
            SHAPE_MISMATCH,
            f"output projection is {w_o.shape}, expected {(concat.shape[1], d)}",
        )
    combined = arr + concat @ w_o
    out = combined if weights.ffn is None else weights.ffn(combined)
    if return_attention:
        return out, tuple(attentions)
    return out


def _check_dense(rows: int, cols: int, what: str) -> None:
    """Refuse a dense float matrix with more than ``DEFAULT_MEMORY_LIMIT`` entries."""
    if rows * cols > DEFAULT_MEMORY_LIMIT:
        raise LimitError(
            MEMORY_LIMIT, f"dense {rows}x{cols} {what} exceeds the cap of {DEFAULT_MEMORY_LIMIT}"
        )


def generalized_adjacency(
    graph: Graph, k: int, j: int, gamma: int, space: TupleSpace | None = None
) -> np.ndarray:
    """Adjacency between k-tuples that differ in the j-th position.

    Entry ``(i, l)`` is 1 when tuple ``l`` arises from tuple ``i`` by
    substituting some node ``w`` at position ``j``, with ``w`` adjacent to
    the replaced node for ``gamma = +1`` and non-adjacent (the node itself
    included, as there are no self-loops) for ``gamma = -1``.  Read from
    ``TupleSpace.substitute`` with every node.

    Parameters
    ----------
    graph : Graph
    k : int
        Tuple order; ``j`` is 1-based and at most ``k``.
    gamma : int
        Either +1 or -1.
    space : TupleSpace, optional
        Restricted tuple domain; substitutions leaving it are skipped.
        Defaults to the full order-``k`` space.

    Returns
    -------
    np.ndarray
        Dense 0/1 matrix over the tuple ordering of ``space``.
    """
    _check_order(k, k)
    if isinstance(j, bool) or not isinstance(j, int) or not 1 <= j <= k:
        raise ValidationError(INVALID_SCHEMA, f"position j must be in 1..{k}, got {j!r}")
    if gamma not in (-1, 1):
        raise ValidationError(INVALID_SCHEMA, f"gamma must be +1 or -1, got {gamma!r}")
    if space is None:
        space = enumerate_tuples(graph, k, k)
    else:
        if space.k != k:
            raise ValidationError(SPACE_MISMATCH, f"space has order {space.k}, expected {k}")
        if space.num_nodes != graph.num_nodes:
            raise ValidationError(
                SPACE_MISMATCH,
                f"space was built over {space.num_nodes} nodes, graph has {graph.num_nodes}",
            )
    t = len(space.nodes)
    _check_dense(t, t, "tuple adjacency")
    every = np.broadcast_to(np.arange(space.num_nodes), (t, space.num_nodes))
    index = space.substitute(j - 1, every)
    hit = (graph.adjacency_matrix[space.nodes[:, j - 1]] == (gamma == 1)) & (index >= 0)
    mat = np.zeros((t, t))
    mat[np.nonzero(hit)[0], index[hit]] = 1.0
    return mat


# ---------------------------------------------------------------------------
# Shared spectral ingredients for the weight builders.


def _adjacency_part(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """V_A |lam|^(1/2) and the signs of lam, whose products recover A."""
    dec_a = eigh(graph.adjacency_matrix.astype(float), source="adjacency")
    lam = dec_a.eigenvalues
    return dec_a.eigenvectors * np.sqrt(np.abs(lam)), np.where(lam >= 0.0, 1.0, -1.0)


def _number_chunk(ids: np.ndarray, heads: Sequence[np.ndarray]) -> tuple[np.ndarray, float]:
    """One numbering step of the designed FFN, shared by both forwards.

    ``heads`` holds each head's de-normalized counts on one chunk of class
    columns, t x chunk apiece; they are rounded, and overwritten with their
    distance from the rounding, from which the slack is read.  The int32
    rows ``[ids | counts of head 1 | ... | counts of head k]`` are numbered
    by first occurrence into read-only ids, returned with the largest slack.
    Ids that number a prefix of a row stand for that prefix, so the chunks
    taken in turn, each numbered with the ids of those before it, give the
    ids of the whole row.  The slot weights make the counts faithful to the
    variant.
    """
    width = heads[0].shape[1]
    rows = np.empty((len(ids), 1 + len(heads) * width), dtype=np.int32)
    rows[:, 0] = ids
    slack = 0.0
    for j, values in enumerate(heads):
        rounded = np.rint(values)
        rows[:, 1 + j * width : 1 + (j + 1) * width] = rounded
        values -= rounded
        slack = max(slack, float(np.abs(values, out=values).max()))
    ids = _relabel_rows([rows])[0]
    ids.setflags(write=False)
    return ids, slack


# ---------------------------------------------------------------------------
# Order-k construction: one head per position, over the weighted substitutions.


@dataclass(frozen=True, eq=False)
class _KLayout:
    """Column layout of the dense token rows."""

    c: int
    k: int
    n: int

    @property
    def width(self) -> int:
        return (self.k + 1) * self.c + self.k + 2 * self.n * self.k

    def counts(self, j: int) -> slice:
        """Count scratch of head j: the k blocks follow the one-hot."""
        start = self.c * (1 + j)
        return slice(start, start + self.c)

    @property
    def deg0(self) -> int:
        return self.c * (self.k + 1)

    def positional(self, j: int) -> slice:
        """Positional block of position j: its node, then its adjacency rows."""
        base = self.deg0 + self.k + 2 * self.n * j
        return slice(base, base + 2 * self.n)


@dataclass(frozen=True, eq=False)
class _Setup:
    """Layer-0 state of a construction: the graph, its tuple space and the
    initial classes.  Each spectrum, the degree block and the neighbor
    substitutions are computed on first use, so a run of zero layers never
    builds them, and a run that reads no node part solves no Laplacian."""

    graph: Graph
    space: TupleSpace
    classes: np.ndarray

    @cached_property
    def node_part(self) -> np.ndarray:
        """The orthonormal Laplacian eigenvector rows, V V^T = I."""
        return laplacian_eigh(self.graph).eigenvectors

    @cached_property
    def adjacency_part(self) -> tuple[np.ndarray, np.ndarray]:
        return _adjacency_part(self.graph)

    @cached_property
    def neighbors(self) -> tuple[np.ndarray, ...]:
        """Per position j of a restricted space, ``TupleSpace.substitute`` at
        the neighbors of the node at j: entry ``[i, c]`` is the tuple reached
        through the c-th neighbor, -1 for padding and off the space."""
        space, nbrs = self.space, self.graph.neighbor_array
        return tuple(space.substitute(j, nbrs[space.nodes[:, j]]) for j in range(space.k))

    @cached_property
    def degblock(self) -> np.ndarray:
        """The adjacent substitutions at each position: deg(u_j) on a full
        space, the ones that stay on the space on a restricted one."""
        graph, space = self.graph, self.space
        if space.s == space.k:
            return graph.adjacency_matrix.sum(axis=1)[space.nodes].astype(float)
        hits = [(index >= 0).sum(axis=1) for index in self.neighbors]
        return np.stack(hits, axis=1).astype(float)


def _setup(graph: Graph, k: int, s: int) -> _Setup:
    space = enumerate_tuples(graph, k, s)
    return _Setup(graph, space, initial_coloring(graph, space).colors)


def _token_rows_k(setup: _Setup, classes: np.ndarray) -> np.ndarray:
    """Dense token rows: the one-hot of the classes, zeroed count scratch,
    the degree block and the positional blocks of every position."""
    space = setup.space
    lay = _KLayout(c=int(classes.max()) + 1, k=space.k, n=space.num_nodes)
    t = len(space.nodes)
    _check_dense(t, lay.width, "token matrix")
    x = np.zeros((t, lay.width))
    x[np.arange(t), classes] = 1.0
    x[:, lay.deg0 : lay.deg0 + lay.k] = setup.degblock
    # Each position's block holds the n x 2n rows [node_part | adj_part].
    positional = np.hstack([setup.node_part, setup.adjacency_part[0]])
    x[:, lay.positional(0).start :] = positional[space.nodes].reshape(t, -1)
    return x


def _slot_weights(variant: str, k: int, n: int) -> tuple[float, float]:
    """The weights (alpha, beta) that head j puts on the substitution at
    position j of an adjacent and of a non-adjacent node.

    The local rules count adjacent substitutions only, (1, 0); the 0 is
    reached as b grows.  Plain counting weighs all n substitutions alike,
    (1, 1).  The adjacency-aware rule weighs a neighbor n + 1 times a
    non-neighbor, so the de-normalized count ``(n + 1) * adjacent +
    non_adjacent`` is injective: both counts are at most n.
    """
    if _is_local(variant, k):
        return 1.0, 0.0
    return (float(n + 1) if variant == "delta_kwl" else 1.0), 1.0


def _query_scales(b: float, n: int, k: int, weights: tuple[float, float]) -> tuple[float, float]:
    """The query scales of a head's slot j, sigma sqrt(kn), and of its node
    slots, b (2n + 2) sqrt(kn), which exist for k > 1 only.  Slot j's softmax
    weighs a neighbor e^sigma times a non-neighbor, so sigma = ln(alpha /
    beta), or b when beta = 0: a ratio reached only as b grows.

    Raises ``ValidationError`` (``INVALID_SCHEMA``) when a scale that the
    construction uses is not finite.
    """
    alpha, beta = weights
    root = math.sqrt(k * n)
    slot_scale = (math.log(alpha / beta) if beta else b) * root
    node_scale = b * (2.0 * n + 2.0) * root
    if not math.isfinite(slot_scale) or (k > 1 and not math.isfinite(node_scale)):
        raise ValidationError(
            INVALID_SCHEMA, f"temperature {b!r} makes the query scale overflow"
        )
    return slot_scale, node_scale


def _head_factors(slot: np.ndarray, node: np.ndarray | None, k: int) -> list[list[np.ndarray]]:
    """Head j's k factors: the slot factor at position j, the node factor at
    every other position."""
    return [[slot if o == j else node for o in range(k)] for j in range(k)]


@dataclass(frozen=True, eq=False)
class _StructuredLayer:
    """The constructed layer of a run: its setup, rule and temperature, and
    what they fix once per run: the slot weights, the two factors and the
    heads.  Every layer of a run has the same heads; only the classes its
    tokens carry change, and each call takes them.

    ``run`` drives ``forward`` from the initial classes; ``forward`` runs the
    layer on any tuple space from the one-hot of the classes alone; ``dense``
    writes it out as the matrices ``transformer_layer`` runs, the reference
    that ``construct_kgt_weights`` returns.
    """

    setup: _Setup
    variant: str
    b: float

    @cached_property
    def weights(self) -> tuple[float, float]:
        """The rule's slot weights (alpha, beta), ``_slot_weights``."""
        space = self.setup.space
        return _slot_weights(self.variant, space.k, space.num_nodes)

    @cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The two row-stochastic n x n factors of every head's attention.

        Head j's score slot j scores the signed adjacency spectrum, so the
        slot factor approaches the row-normalized alpha A + beta (J - A); its
        other slots score the orthonormal Laplacian rows at a larger scale,
        so the node factor, built for k > 1 only, approaches the identity.
        """
        setup = self.setup
        k, n = setup.space.k, setup.space.num_nodes
        adj_part, signs = setup.adjacency_part
        slot_scale, node_scale = _query_scales(self.b, n, k, self.weights)
        root = math.sqrt(k * n)
        with np.errstate(over="ignore", invalid="ignore"):
            slot = (adj_part * (slot_scale * signs)) @ adj_part.T / root
            node = (setup.node_part * node_scale) @ setup.node_part.T / root if k > 1 else None
        slot = softmax_rows(_finite_scores(slot))
        return slot, None if node is None else softmax_rows(_finite_scores(node))

    @cached_property
    def heads(self) -> tuple[list[Callable], tuple[float, ...]]:
        """Each head as a map from t x c values to their attended averages,
        and its attention error: neither depends on the classes."""
        if self.setup.space.s == self.setup.space.k:
            heads, errors = _full_space_attention(self.setup, *self.factors, self.weights)
            return [partial(_mode_products, f) for f in heads], errors
        atts, errors = _restricted_space_attention(self.setup, *self.factors)
        return [partial(np.matmul, att) for att in atts], errors

    def run(self, t_layers: int) -> tuple[tuple[np.ndarray, ...], float]:
        """The classes of ``t_layers`` forwards, the initial ones first, and
        the largest rounding slack.  A run of zero layers builds no head."""
        partitions = [self.setup.classes]
        slack_max = 0.0
        for _ in range(t_layers):
            classes, slack = self.forward(partitions[-1])
            partitions.append(classes)
            slack_max = max(slack_max, slack)
        return tuple(partitions), slack_max

    def denormalizer(self, degree: np.ndarray) -> np.ndarray:
        """alpha deg + beta (n - deg) per position, the mass of a row of head
        j's unnormalized target: it turns an attended average into a count."""
        alpha, beta = self.weights
        return alpha * degree + beta * (self.setup.space.num_nodes - degree)

    @cached_property
    def denormalizers(self) -> tuple[np.ndarray, ...]:
        """Each head's de-normalizer column, t x 1, built once per run."""
        z = self.denormalizer(self.setup.degblock)
        return tuple(z[:, [j]] for j in range(self.setup.space.k))

    def dense(self, classes: np.ndarray, trace: dict | None = None) -> LayerWeights:
        """The layer as dense projections, with an FFN that records its slack
        and new classes in ``trace`` and returns the next token rows.

        Head j's query and key map the positional block of each position o
        into score slot o: for o = j its adjacency rows, scaled by the slot
        scale and the signs, for o != j its node rows, scaled by the node
        scale.  Every other entry is zero.
        """
        space, signs = self.setup.space, self.setup.adjacency_part[1]
        k, n = space.k, space.num_nodes
        lay = _KLayout(c=int(classes.max()) + 1, k=k, n=n)
        c, d = lay.c, lay.width
        _check_dense(k * c, d, "output projection")
        slot_scale, node_scale = _query_scales(self.b, n, k, self.weights)
        trace = {} if trace is None else trace
        diagonal = np.arange(n)
        heads = []
        for j in range(k):
            w_q, w_k = np.zeros((d, k * n)), np.zeros((d, k * n))
            for o in range(k):
                rows = lay.positional(o).start + (n if o == j else 0) + diagonal
                w_q[rows, o * n + diagonal] = slot_scale * signs if o == j else node_scale
                w_k[rows, o * n + diagonal] = 1.0
            heads.append(AttentionHead(w_q, w_k, np.eye(d, c)))
        # Head j's attended one-hot lands in the count scratch of position j.
        w_o = np.eye(k * c, d, c)

        def ffn(xt: np.ndarray) -> np.ndarray:
            z = self.denormalizer(xt[:, lay.deg0 : lay.deg0 + k])
            heads = [xt[:, lay.counts(j)] * z[:, [j]] for j in range(k)]
            # The one-hot is a function of the class id, which numbers alike.
            ids = xt[:, 0:c].argmax(axis=1)
            trace["classes"], trace["slack"] = _number_chunk(ids, heads)
            return _token_rows_k(self.setup, trace["classes"])

        return LayerWeights(heads=tuple(heads), w_o=w_o, ffn=ffn)

    def forward(self, classes: np.ndarray) -> tuple[np.ndarray, float]:
        """The next classes and the rounding slack, with each head's attended
        averages (``heads``) de-normalized as in the dense layer.

        The heads run on the one-hot of the classes a chunk of class columns
        at a time, each chunk numbered (``_number_chunk``) with the ids of
        those before it, so the ids equal those of the whole t x (1 + k) c
        row of one-hot and counts.  A chunk is as wide as
        ``DEFAULT_MEMORY_LIMIT`` allows t x (1 + k) entries per column, so
        every layer that fits under the cap whole runs as one chunk.
        """
        attends, _ = self.heads
        t, k = len(self.setup.space.nodes), self.setup.space.k
        _check_dense(t, 1 + k, "FFN class column")
        chunk = DEFAULT_MEMORY_LIMIT // (t * (1 + k))
        c = int(classes.max()) + 1
        ids, slack = classes, 0.0
        for start in range(0, c, chunk):
            width = min(chunk, c - start)
            column = classes - start
            rows = np.flatnonzero((column >= 0) & (column < width))
            onehot = np.zeros((t, width))
            onehot[rows, column[rows]] = 1.0
            heads = []
            for attend, z in zip(attends, self.denormalizers):
                values = attend(onehot)
                values *= z
                heads.append(values)
            ids, chunk_slack = _number_chunk(ids, heads)
            slack = max(slack, chunk_slack)
        return ids, slack


# ---------------------------------------------------------------------------
# Factored attention.
#
# Tuple i = (u_1, ..., u_k) of a full space sits at the row-major index of
# its nodes, and its positional blocks hold P[u_o] with P = [node_part |
# adj_part].  A head's score slot o reads only the block of position o, so
# its score is a sum of per-position terms S_o[u_o, v_o], exp factorizes and
# softmax(score) = F_1 (x) ... (x) F_k with F_o = softmax_rows(S_o).  A
# restricted space keeps some of those rows and columns, and its softmax is
# the product on them, renormalized per row.


def _mode_products(factors: Sequence[np.ndarray], values: np.ndarray) -> np.ndarray:
    """``(F_1 (x) ... (x) F_k) @ values`` as one mode-o product per position
    on the ``(n,)*k`` value tensor (Kolda & Bader, SIAM Review 2009)."""
    t, width = values.shape
    n = factors[0].shape[0]
    out = values
    for o, factor in enumerate(factors):
        out = (factor @ out.reshape(n**o, n, -1)).reshape(t, width)
    return out


def _kron_error(factors: np.ndarray, targets: np.ndarray) -> float:
    """Frobenius distance between the Kronecker products of two stacks of
    k square factors.

    With E_o = F_o - T_o, the difference is the sum over the 2^k - 1
    nonempty sets S of positions of the products that take E_o on S and
    T_o elsewhere.  Its squared norm sums the inner products of every pair
    of those terms, and each is a product of k n x n inner products: entry
    (S, S') of the Kronecker product of the 2 x 2 Gram matrices of (T_o,
    E_o).  Every term carries an E factor on both sides, so a tiny error is
    not the difference of two O(1) numbers.
    """
    errors = factors - targets
    tt, te, ee = (
        np.einsum("oij,oij->o", a, b)
        for a, b in ((targets, targets), (targets, errors), (errors, errors))
    )
    grams = np.stack([tt, te, te, ee], axis=1).reshape(-1, 2, 2)
    gram = grams[0]
    for g in grams[1:]:
        # np.kron(gram, g) without its generic set-up: one product per entry.
        size = 2 * len(gram)
        gram = (gram[:, None, :, None] * g[None, :, None, :]).reshape(size, size)
    return math.sqrt(max(float(gram[1:, 1:].sum()), 0.0))


def _full_space_attention(
    setup: _Setup, slot: np.ndarray, node: np.ndarray | None, weights: tuple[float, float]
) -> tuple[list[list[np.ndarray]], tuple[float, ...]]:
    """Each head's factors and its distance from its target.

    The target of head j is the row-normalized alpha A + beta (J - A) at
    position j and the identity elsewhere.  No row is zero: there are no
    isolated nodes, and with beta > 0 every node weighs itself.  Neither
    depends on the classes, so they hold for every layer.
    """
    n, k = setup.space.num_nodes, setup.space.k
    alpha, beta = weights
    adj = setup.graph.adjacency_matrix.astype(float)
    weighted = alpha * adj + beta * (1.0 - adj)
    walk = weighted / weighted.sum(axis=1, keepdims=True)
    heads = _head_factors(slot, node, k)
    targets = _head_factors(walk, np.eye(n), k)
    errors = tuple(_kron_error(np.stack(f), np.stack(t)) for f, t in zip(heads, targets))
    return heads, errors


def _restricted_space_attention(
    setup: _Setup, slot: np.ndarray, node: np.ndarray | None
) -> tuple[list[np.ndarray], tuple[float, ...]]:
    """Each head's t x t attention on a restricted space and its distance
    from its target, the row-normalized adjacent substitutions that stay on
    the space (a restricted space runs the local rule ``ks_lwl`` only).

    The dense softmax runs over the space's tuples with the full space's
    exponent sum_o S_o[u_o, v_o], so it is the product of the factors on the
    space, renormalized per row: the factors' own normalizers cancel.  A row
    without an admissible substitution has a zero target and degree 0; if
    its mass underflows it stays 0, not NaN, and the FFN multiplies it by 0.
    Such rows are left out of the distance (``_restricted_error``).
    """
    space = setup.space
    t = len(space.nodes)
    _check_dense(t, t, "attention")
    # Each position's slot and node blocks are gathered once and multiplied
    # into every head in position order, as ``_head_factors`` assigns them.
    atts = [np.ones((t, t)) for _ in range(space.k)]
    for o, u in enumerate(space.nodes.T):
        cells = np.ix_(u, u)
        slot_block, node_block = slot[cells], node[cells]
        for j, att in enumerate(atts):
            att *= slot_block if j == o else node_block
    errors = []
    for j, att in enumerate(atts):
        mass = att.sum(axis=1, keepdims=True)
        np.divide(att, mass, out=att, where=mass > 0)
        errors.append(_restricted_error(setup, j, att))
    return atts, tuple(errors)


def _restricted_error(setup: _Setup, j: int, att: np.ndarray) -> float:
    """Frobenius distance of head j's attention from its target, 1/deg at its
    on-space adjacent substitutions, on the rows that have one."""
    deg = setup.degblock[:, j]
    kept = deg > 0
    index = setup.neighbors[j]
    hit = index >= 0
    rows = np.nonzero(hit)[0]
    diff = att[kept]
    diff[np.cumsum(kept)[rows] - 1, index[hit]] -= 1.0 / deg[rows]
    return float(np.linalg.norm(diff))


# ---------------------------------------------------------------------------
# Drivers.


def _check_temperature(b) -> float:
    if isinstance(b, bool) or not isinstance(b, (int, float)) or not 0 < b < math.inf:
        raise ValidationError(INVALID_SCHEMA, f"temperature must be positive and finite, got {b!r}")
    return float(b)


def _check_construction(k, s, variant) -> None:
    """Refine's request check, then the one rule of the construction: order
    1 implements plain refinement only."""
    _check_request(k, s, variant)
    if k == 1 and variant != "kwl":
        raise ValidationError(
            VARIANT_MISMATCH,
            f"the order-1 construction implements plain refinement only, got {variant!r}",
        )


def _check_layers(t_layers, minimum: int) -> int:
    """Refuse, before any setup, a layer count below ``minimum`` or above the
    engine's round cap, which also bounds the default count (one past the
    stable round)."""
    if isinstance(t_layers, bool) or not isinstance(t_layers, int) or t_layers < minimum:
        raise ValidationError(
            INVALID_SCHEMA, f"layer count must be an integer >= {minimum}, got {t_layers!r}"
        )
    if t_layers > DEFAULT_MAX_ITERATIONS:
        raise LimitError(
            ITERATION_LIMIT,
            f"layer count {t_layers} exceeds the cap of {DEFAULT_MAX_ITERATIONS} rounds",
        )
    return t_layers


def initial_tokens(graph: Graph, k: int = 1, s: int | None = None) -> np.ndarray:
    """Layer-0 token rows in the layout the constructed weights expect.

    Rows hold a one-hot of the initial tuple class, zeroed count scratch,
    the de-normalization degrees, and the spectral identification blocks.
    Feed the result to ``transformer_layer`` with the first layer of a
    ``ConstructedWeights`` to replay the construction by hand.
    """
    setup = _setup(graph, k, k if s is None else s)
    return _token_rows_k(setup, setup.classes)


def construct_kgt_weights(
    graph: Graph,
    k: int,
    variant: str,
    t_layers: int,
    b: float = DEFAULT_TEMPERATURE,
) -> ConstructedWeights:
    """Closed-form multi-head layers that replay order-k tuple refinement,
    written out densely for ``transformer_layer`` and ``initial_tokens``.

    Every rule builds k heads.  Head ``j`` attends to the tuples reached by
    substituting a node at position ``j``, weighing an adjacent node alpha
    and a non-adjacent one beta: the local rule ``delta_klwl`` (1, 0), so
    its softmax approaches the degree-normalized adjacency as b grows,
    plain counting (1, 1), whose slot scores 0 and attends uniformly, and
    ``delta_kwl`` (n + 1, 1), which keeps the adjacency split visible in
    one injective count.  The FFN de-normalizes by alpha deg + beta (n -
    deg).  At k = 1 plain refinement is a local rule: its one head attends
    to the neighbors.

    Parameters
    ----------
    graph : Graph
    k : int
        Tuple order, at least 1.
    variant : str
        One of ``kwl``, ``delta_kwl``, ``delta_klwl``; ``kwl`` only at k = 1.
    t_layers : int
        Number of layers to construct (at least 1).
    b : float
        Softmax temperature, folded into the query projections.

    Returns
    -------
    ConstructedWeights
    """
    _check_construction(k, k, variant)
    if variant == "ks_lwl":
        raise ValidationError(
            VARIANT_MISMATCH,
            "the restricted-space rule is driven through simulate_and_compare with s < k",
        )
    t_layers, b = _check_layers(t_layers, 1), _check_temperature(b)
    layer = _StructuredLayer(_setup(graph, k, k), variant, b)
    partitions = layer.run(t_layers)[0]
    dense = tuple(layer.dense(classes) for classes in partitions[:-1])
    return ConstructedWeights(dense, b, k, variant)


def _oracle_plan(space: TupleSpace, graph: Graph, variant: str) -> np.ndarray:
    """What every round of the digit oracle reads on one space and graph: one
    whole-space int32 array of ``1 + k * n`` columns.  Column 0 is the
    tuple's own row.  Column ``1 + j * n + w`` is the row of the tuple with
    node w at position j, plus t under ``delta_kwl`` when w is adjacent to
    the node it replaces, or -1 where the rule does not count the
    substitution (a non-neighbor under a local rule, a tuple off a
    restricted space).

    The substituted tuple is found by the row-major flat index, ``i - u_j *
    n^(k-1-j) + w * n^(k-1-j)``, which is the row on a full space and is
    looked up among the space's sorted flat indices on a restricted one.
    The plan is built ``ORACLE_BLOCK`` tuples at a time.
    """
    k, n, t = space.k, graph.num_nodes, len(space.nodes)
    strides = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    flat = space.nodes @ strides
    local = _is_local(variant, k)
    plan = np.empty((t, 1 + k * n), dtype=np.int32)
    plan[:, 0] = np.arange(t)
    for start in range(0, t, ORACLE_BLOCK):
        rows = slice(start, start + ORACLE_BLOCK)
        nodes = space.nodes[rows]
        for j in range(k):
            moved = (flat[rows] - nodes[:, j] * strides[j])[:, None]
            moved = moved + np.arange(n) * strides[j]
            counted = True
            if space.s < k:
                row = np.minimum(np.searchsorted(flat, moved), t - 1)
                counted = flat[row] == moved
                moved = row
            if variant == "delta_kwl":
                moved = moved + t * graph.adjacency_matrix[nodes[:, j]]
            elif local:
                counted = counted & graph.adjacency_matrix[nodes[:, j]]
            plan[rows, 1 + j * n : 1 + (j + 1) * n] = np.where(counted, moved, -1)
    return plan


def _row_keys(colors: np.ndarray, plan: np.ndarray, k: int) -> np.ndarray:
    """The oracle's int32 key per row of its plan: the row's own color, then
    each position's n-wide block of read colors, ascending.

    A plan entry of i < t reads color i, one of t + i reads it shifted into
    the adjacent group t..2t-1, and -1 reads -1, a skipped substitution, so
    with colors in 0..t-1 two blocks are equal exactly when they count the
    same colors in each group and skip as many nodes.
    """
    ext = np.concatenate((colors, colors + len(colors), [-1])).astype(np.int32)
    keys = ext[plan]
    # The blocks are a view of the keys, so they sort in place.
    keys[:, 1:].reshape(len(keys), k, -1).sort(axis=2)
    return keys


def gnn_reference_step(colors: Coloring, graph: Graph, k: int, variant: str) -> Coloring:
    """One refinement round computed with exact base-m digit arithmetic.

    Every color is coded as a fixed-point digit vector ``m^-(c+1)`` with
    ``m = n + 1``, so digit-wise sums count multisets without collision.
    Per-position contributions sit in disjoint digit ranges, the adjacent
    and non-adjacent groups in separate ranges when the variant
    distinguishes them.  A tuple's code is its own color's depth, then one
    depth per substitution that the rule counts.  Colors outside 0..t-1,
    for t tuples, would move a depth into another range or below the first,
    so they raise INVALID_SCHEMA.

    The oracle never forms the code: each position's substitutions have n columns
    of their own in the oracle's plan (``_oracle_plan``), which depends on
    the space, the graph and the rule only, so it is kept on the space,
    with the graph it is for, and the rounds of one run plan once.  A round
    gathers the colors through the plan and sorts each position's block
    (``_row_keys``), a key equal exactly when the codes are, and numbers
    the keys through one table.

    Parameters
    ----------
    colors : Coloring
        Current coloring; its space fixes the tuple ordering.
    graph : Graph
    k : int
        Must match the space's order.
    variant : str
        Any of the engine's refinement rules.

    Returns
    -------
    Coloring
        The refined coloring with ``iteration`` advanced by one.
    """
    _check_order(k, k)
    space = colors.space
    _check_request(space.k, space.s, variant)
    if space.k != k:
        raise ValidationError(SPACE_MISMATCH, f"coloring has order {space.k}, expected {k}")
    if space.num_nodes != graph.num_nodes:
        raise ValidationError(
            SPACE_MISMATCH,
            f"coloring was built over {space.num_nodes} nodes, graph has {graph.num_nodes}",
        )
    cols, t = colors.colors, len(space.nodes)
    if not 0 <= cols.min() <= cols.max() < t:
        raise ValidationError(INVALID_SCHEMA, f"colors must lie in 0..{t - 1}")
    planned = space._plans.get(("oracle", variant))
    if planned is None or planned[0] is not graph:
        planned = space._plans[("oracle", variant)] = (graph, _oracle_plan(space, graph, variant))
    ids = _relabel_rows([_row_keys(cols, planned[1], k)])[0]
    return Coloring(space, ids, colors.iteration + 1)


@dataclass(frozen=True, eq=False)
class SimReport:
    """Side-by-side record of the three implementations.

    Partitions are read-only int64 arrays.  ``head_errors`` holds each head's
    attention error, the same in every layer, and is empty for a run of zero
    layers.
    """

    k: int
    s: int
    variant: str
    layers: int
    transformer_partitions: tuple[np.ndarray, ...]
    wl_partitions: tuple[np.ndarray, ...]
    oracle_partitions: tuple[np.ndarray, ...]
    partition_equal_per_layer: tuple[bool, ...]
    head_errors: tuple[float, ...]
    max_attention_error: float
    rounding_slack_max: float

    @property
    def all_equal(self) -> bool:
        return all(self.partition_equal_per_layer)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "s": self.s,
            "variant": self.variant,
            "layers": self.layers,
            "partition_equal_per_layer": list(self.partition_equal_per_layer),
            "max_attention_error": self.max_attention_error,
            "rounding_slack_max": self.rounding_slack_max,
        }


def simulate_and_compare(
    graph: Graph,
    k: int,
    s: int,
    variant: str,
    t_layers: int | None = None,
    b: float = DEFAULT_TEMPERATURE,
) -> SimReport:
    """Run the constructed transformer, the engine, and the digit oracle.

    The three implementations are advanced in lockstep over the same tuple
    ordering and their partitions are compared after every round, the shared
    initial coloring included.  When ``t_layers`` is ``None`` the engine is
    run once, to its stable point, and the round count is one past it, so
    the report also witnesses the fixed point.

    Parameters
    ----------
    graph : Graph
    k, s : int
        Tuple order and component bound; ``s < k`` requires the ``ks_lwl``
        variant, whose heads skip substitutions leaving the space.
    variant : str
    t_layers : int, optional
        Number of rounds; defaults to stabilization plus one.
    b : float
        Softmax temperature of the constructed layers.

    Returns
    -------
    SimReport
    """
    _check_construction(k, s, variant)
    b = _check_temperature(b)
    if t_layers is not None:
        t_layers = _check_layers(t_layers, 0)
    setup = _setup(graph, k, s)
    engine = [Coloring(setup.space, setup.classes, 0)]
    if t_layers is None:
        engine = _refine_until_stable(graph, engine[0], variant)
        # The run stopped at a discrete coloring or at the first round that
        # repeated the last one, so the round past the fixed point is that
        # coloring again.
        engine.append(engine[-1])
        t_layers = len(engine) - 1

    layer = _StructuredLayer(setup, variant, b)
    partitions, slack_max = layer.run(t_layers)
    head_errors = layer.heads[1] if t_layers else ()
    while len(engine) <= t_layers:
        engine.append(refine_step(graph, setup.space, engine[-1], variant))
    oracle = [engine[0]]
    for _ in range(t_layers):
        oracle.append(gnn_reference_step(oracle[-1], graph, k, variant))
    wl_partitions = tuple(c.colors for c in engine)
    oracle_partitions = tuple(c.colors for c in oracle)

    triples = zip(partitions, wl_partitions, oracle_partitions)
    equal = tuple(np.array_equal(t, e) and np.array_equal(e, o) for t, e, o in triples)
    return SimReport(
        k=k,
        s=s,
        variant=variant,
        layers=t_layers,
        transformer_partitions=partitions,
        wl_partitions=wl_partitions,
        oracle_partitions=oracle_partitions,
        partition_equal_per_layer=equal,
        head_errors=head_errors,
        max_attention_error=max(head_errors, default=0.0),
        rounding_slack_max=slack_max,
    )
