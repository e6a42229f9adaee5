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

A layer is kept in the form the construction writes it: per head its
position and the positional blocks of its query and key, which are the
same in every layer, plus the slot weights and the classes its tokens carry.
Each head's query and key read only the positional block of one tuple
position per score slot, so on a full tuple space (s = k) its softmax is
exactly a Kronecker product of k row-stochastic n x n factors, and on a
restricted space that product on the space, renormalized per row.  The
simulation applies each head to the one-hot of the classes, as k mode
products or one t x t attention, without the token matrix or projections.
``dense`` writes the layer out as matrices for ``transformer_layer``, the
reference that ``construct_kgt_weights`` and the tests read.

``simulate_and_compare`` runs three implementations side by side: the
constructed transformer, the hash-based engine, and an exact fixed-point
digit encoding (``gnn_reference_step``) that aggregates neighbor colors with
base-``m`` arithmetic.  The three never share intermediate state, only the
final lookup that numbers each round's keys by first occurrence
(``refine._relabel_rows``); agreement of their partitions at every
iteration is the point of the exercise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .digits import encode_rows
from .errors import (
    INVALID_SCHEMA,
    MEMORY_LIMIT,
    SHAPE_MISMATCH,
    SPACE_MISMATCH,
    VARIANT_MISMATCH,
    ZERO_ROW,
    LimitError,
    ValidationError,
)
from .graphs import Graph
from .refine import (
    DEFAULT_MEMORY_LIMIT,
    Coloring,
    TupleSpace,
    _check_order,
    _check_variant_space,
    _is_local,
    _refine_until_stable,
    _relabel_rows,
    enumerate_tuples,
    initial_coloring,
    refine_step,
)
from .spectral import eigh, laplacian

__all__ = [
    "DEFAULT_TEMPERATURE",
    "ROUNDING_SLACK_LIMIT",
    "AttentionHead",
    "LayerWeights",
    "ConstructedWeights",
    "IndicatorResult",
    "SimReport",
    "softmax_rows",
    "transformer_layer",
    "generalized_adjacency",
    "weighted_indicator",
    "initial_tokens",
    "construct_kgt_weights",
    "gnn_reference_step",
    "simulate_and_compare",
    "attention_error_curve",
]

DEFAULT_TEMPERATURE = 60.0

# Recovered neighbor counts must sit strictly closer than this to an integer
# for a run to pass; the margin is the quantitative witness that the
# attention approximation is tight enough to be read back exactly.
ROUNDING_SLACK_LIMIT = 0.4

# Tuples per block of the digit oracle. A block's depth rows then hold at
# most ORACLE_BLOCK * (1 + k * n) int64 entries, 4 MB at k = 3, n = 40.
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
    head_count: int
    k: int
    variant: str

    def __post_init__(self) -> None:
        if self.head_count != self.k:
            raise ValidationError(
                INVALID_SCHEMA,
                f"k={self.k} construction uses {self.k} heads, got {self.head_count}",
            )
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


def _check_dense(rows: int, cols: int, what: str, memory_limit: int) -> None:
    """Refuse a dense float matrix with more than ``memory_limit`` entries."""
    if rows * cols > memory_limit:
        raise LimitError(
            MEMORY_LIMIT, f"dense {rows}x{cols} {what} exceeds the cap of {memory_limit}"
        )


def generalized_adjacency(
    graph: Graph,
    k: int,
    j: int,
    gamma: int,
    space: TupleSpace | None = None,
    memory_limit: int = DEFAULT_MEMORY_LIMIT,
) -> np.ndarray:
    """Adjacency between k-tuples that differ in the j-th position.

    Entry ``(i, l)`` is 1 when tuple ``l`` arises from tuple ``i`` by
    substituting some node ``w`` at position ``j``, with ``w`` adjacent to
    the replaced node for ``gamma = +1`` and non-adjacent (the node itself
    included, as there are no self-loops) for ``gamma = -1``.  Read from
    the space's substitution table.

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
        space = enumerate_tuples(graph, k, k, memory_limit=memory_limit)
    else:
        if space.k != k:
            raise ValidationError(SPACE_MISMATCH, f"space has order {space.k}, expected {k}")
        if space.num_nodes != graph.num_nodes:
            raise ValidationError(
                SPACE_MISMATCH,
                f"space was built over {space.num_nodes} nodes, graph has {graph.num_nodes}",
            )
    t = len(space.nodes)
    _check_dense(t, t, "tuple adjacency", memory_limit)
    hit = _substitution_hits(graph, space, j - 1, gamma)
    mat = np.zeros((t, t))
    mat[np.nonzero(hit)[0], space.substitution[j - 1][hit]] = 1.0
    return mat


def _substitution_hits(graph: Graph, space: TupleSpace, j: int, gamma: int) -> np.ndarray:
    """Entry ``[i, w]`` is true when putting node ``w`` at the 0-based
    position ``j`` of tuple ``i`` stays on the space and ``w`` is adjacent
    (``gamma = +1``) or non-adjacent (``gamma = -1``) to the replaced node."""
    adjacent = graph.adjacency_matrix[space.nodes[:, j]] == (gamma == 1)
    return adjacent & (space.substitution[j] >= 0)


@dataclass(frozen=True, eq=False)
class IndicatorResult:
    """Row-normalized binary matrix plus the rows that could not be normalized."""

    matrix: np.ndarray
    zero_rows: tuple[int, ...]

    @property
    def flag(self) -> str | None:
        return ZERO_ROW if self.zero_rows else None


def weighted_indicator(binary: np.ndarray) -> IndicatorResult:
    """Divide each row of a 0/1 matrix by its row sum.

    All-zero rows are left as zeros and reported in ``zero_rows`` rather
    than raising; downstream comparisons decide what to do with them.
    """
    mat = np.asarray(binary, dtype=float)
    if mat.ndim != 2:
        raise ValidationError(SHAPE_MISMATCH, f"expected a 2-d matrix, got shape {mat.shape}")
    if not np.logical_or(mat == 0.0, mat == 1.0).all():
        raise ValidationError(INVALID_SCHEMA, "indicator input must contain only 0 and 1")
    sums = mat.sum(axis=1)
    zero_rows = tuple(int(i) for i in np.flatnonzero(sums == 0))
    safe = np.where(sums == 0, 1.0, sums)
    return IndicatorResult(mat / safe[:, None], zero_rows)


# ---------------------------------------------------------------------------
# Shared spectral ingredients for the weight builders.


@dataclass(frozen=True, eq=False)
class _SpectralParts:
    node_part: np.ndarray  # orthonormal rows, V V^T = I
    adj_part: np.ndarray  # V_A |lam|^(1/2); with the sign matrix recovers A
    signs: np.ndarray

    @property
    def positional(self) -> np.ndarray:
        """The n x 2n rows [node_part | adj_part] a position's block holds."""
        return np.hstack([self.node_part, self.adj_part])


def _spectral_parts(graph: Graph) -> _SpectralParts:
    adj = graph.adjacency_matrix.astype(float)
    dec_a = eigh(adj, source="adjacency")
    lam = dec_a.eigenvalues
    signs = np.where(lam >= 0.0, 1.0, -1.0)
    adj_part = dec_a.eigenvectors * np.sqrt(np.abs(lam))
    dec_l = eigh(laplacian(graph), source="laplacian")
    return _SpectralParts(node_part=dec_l.eigenvectors, adj_part=adj_part, signs=signs)


def _round_counts(values: np.ndarray, trace: dict) -> np.ndarray:
    """Round recovered counts, recording their largest distance from an integer."""
    rounded = np.rint(values)
    slack = float(np.abs(values - rounded).max()) if values.size else 0.0
    trace["slack"] = max(trace["slack"], slack)
    return rounded


def _ffn_classes(onehot: np.ndarray, k: int, denormalized: Iterable, trace: dict) -> np.ndarray:
    """The designed FFN of both forwards: round each head's de-normalized
    counts, yielded one head (position) at a time by ``denormalized``, and
    number the ``[one-hot | counts_1 ... counts_k]`` rows by first occurrence
    into read-only classes. The slot weights make the counts faithful to the variant.
    """
    t, c = onehot.shape
    rows = np.zeros((t, (1 + k) * c), dtype=np.int64)
    rows[:, :c] = onehot
    for j, values in enumerate(denormalized):
        rows[:, (1 + j) * c : (2 + j) * c] = _round_counts(values, trace)
    trace["classes"] = _relabel_rows([rows])[0]
    trace["classes"].setflags(write=False)
    return trace["classes"]


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
    initial classes.  The spectral blocks and the degree block are computed
    on first use, so a run of zero layers never builds them."""

    graph: Graph
    space: TupleSpace
    classes: np.ndarray

    @cached_property
    def parts(self) -> _SpectralParts:
        return _spectral_parts(self.graph)

    @cached_property
    def degblock(self) -> np.ndarray:
        """The adjacent substitutions at each position: deg(u_j) on a full
        space, the ones that stay on the space on a restricted one."""
        graph, space = self.graph, self.space
        if space.s == space.k:
            return graph.adjacency_matrix.sum(axis=1)[space.nodes].astype(float)
        hits = [_substitution_hits(graph, space, j, 1).sum(axis=1) for j in range(space.k)]
        return np.stack(hits, axis=1).astype(float)


def _setup(graph: Graph, k: int, s: int, memory_limit: int) -> _Setup:
    space = enumerate_tuples(graph, k, s, memory_limit=memory_limit)
    return _Setup(graph, space, initial_coloring(graph, space).colors)


def _token_rows_k(setup: _Setup, classes: np.ndarray, memory_limit: int) -> np.ndarray:
    """Dense token rows: the one-hot of the classes, zeroed count scratch,
    the degree block and the positional blocks of every position."""
    space, parts = setup.space, setup.parts
    lay = _KLayout(c=int(classes.max()) + 1, k=space.k, n=space.num_nodes)
    t = len(space.nodes)
    _check_dense(t, lay.width, "token matrix", memory_limit)
    x = np.zeros((t, lay.width))
    x[np.arange(t), classes] = 1.0
    x[:, lay.deg0 : lay.deg0 + lay.k] = setup.degblock
    x[:, lay.positional(0).start :] = parts.positional[space.nodes].reshape(t, -1)
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


@dataclass(frozen=True, eq=False)
class _HeadForm:
    """Head j, which attends to the substitutions at the 0-based position
    ``j``, in the form the construction writes it.  ``query[o]`` and
    ``key[o]`` are the 2n x n blocks that map the positional rows
    ``positional(o)`` into score slot o; every other entry of ``w_q`` and
    ``w_k`` is zero.  Nothing here depends on the classes, so a run builds
    its heads once.
    """

    j: int
    query: np.ndarray  # (k, 2n, n)
    key: np.ndarray  # (k, 2n, n)


def _head_forms(
    parts: _SpectralParts, k: int, b: float, weights: tuple[float, float]
) -> tuple[_HeadForm, ...]:
    """The k heads of the construction, one per position.

    Slot j scores the signed adjacency spectrum, so its softmax approaches
    the row-normalized alpha A + beta (J - A); every other slot scores the
    orthonormal Laplacian rows at a larger scale, so its softmax approaches
    the identity.
    """
    n = len(parts.signs)
    slot_scale, node_scale = _query_scales(b, n, k, weights)
    heads = []
    for j in range(k):
        query, key = np.zeros((k, 2 * n, n)), np.zeros((k, 2 * n, n))
        for o in range(k):
            if o == j:
                query[o, n:] = slot_scale * np.diag(parts.signs)
                key[o, n:] = np.eye(n)
            else:
                query[o, :n] = node_scale * np.eye(n)
                key[o, :n] = np.eye(n)
        heads.append(_HeadForm(j, query, key))
    return tuple(heads)


@dataclass(frozen=True, eq=False)
class _StructuredLayer:
    """One constructed layer: the run's heads, their slot weights and the
    classes its tokens carry.

    ``forward`` runs it on any tuple space from the one-hot of the classes
    alone; ``dense`` writes it out as the matrices ``transformer_layer`` runs,
    the reference that ``construct_kgt_weights`` returns.
    """

    setup: _Setup
    heads: tuple[_HeadForm, ...]
    weights: tuple[float, float]
    classes: np.ndarray

    def denormalizer(self, degree: np.ndarray) -> np.ndarray:
        """alpha deg + beta (n - deg) per position, the mass of a row of head
        j's unnormalized target: it turns an attended average into a count."""
        alpha, beta = self.weights
        return alpha * degree + beta * (self.setup.space.num_nodes - degree)

    def dense(
        self, memory_limit: int = DEFAULT_MEMORY_LIMIT, trace: dict | None = None
    ) -> LayerWeights:
        """The layer as dense projections, with an FFN that records its slack
        and new classes in ``trace`` and returns the next token rows."""
        space = self.setup.space
        k, n = space.k, space.num_nodes
        lay = _KLayout(c=int(self.classes.max()) + 1, k=k, n=n)
        c, d = lay.c, lay.width
        _check_dense(k * c, d, "output projection", memory_limit)
        trace = {"slack": 0.0, "classes": None} if trace is None else trace
        diagonal = np.arange(k)
        heads = []
        for head in self.heads:
            w_q, w_k = np.zeros((d, k * n)), np.zeros((d, k * n))
            for w, blocks in ((w_q, head.query), (w_k, head.key)):
                # Entry (o, :, o) is the (block of position o, score slot o) submatrix.
                w[lay.positional(0).start :].reshape(k, 2 * n, k, n)[diagonal, :, diagonal] = blocks
            heads.append(AttentionHead(w_q, w_k, np.eye(d, c)))
        # Head j's attended one-hot lands in the count scratch of position j.
        w_o = np.eye(k * c, d, c)

        def ffn(xt: np.ndarray) -> np.ndarray:
            z = self.denormalizer(xt[:, lay.deg0 : lay.deg0 + k])
            denormalized = (xt[:, lay.counts(j)] * z[:, [j]] for j in range(k))
            classes = _ffn_classes(xt[:, 0:c], k, denormalized, trace)
            return _token_rows_k(self.setup, classes, memory_limit)

        return LayerWeights(heads=tuple(heads), w_o=w_o, ffn=ffn)

    def forward(self, attends: Sequence[Callable], trace: dict, memory_limit: int) -> None:
        """The layer, given each head as a map from the t x c one-hot of the
        classes to its attended averages (``_head_attention``).

        Each head's averages are de-normalized as in the dense layer and
        handed to the FFN, which records the slack and the new classes in
        ``trace``.
        """
        t, k = len(self.setup.space.nodes), self.setup.space.k
        c = int(self.classes.max()) + 1
        _check_dense(t, (1 + k) * c, "FFN row", memory_limit)
        onehot = np.zeros((t, c))
        onehot[np.arange(t), self.classes] = 1.0
        z = self.denormalizer(self.setup.degblock)
        denormalized = (attend(onehot) * z[:, [j]] for j, attend in enumerate(attends))
        _ffn_classes(onehot, k, denormalized, trace)


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


def _position_factors(head: _HeadForm, pe: np.ndarray) -> np.ndarray:
    """The k row-stochastic n x n factors of one head's attention, stacked."""
    k, n = head.query.shape[0], pe.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        query, key = pe @ head.query, pe @ head.key
        scores = query @ key.transpose(0, 2, 1) / math.sqrt(k * n)
    return softmax_rows(_finite_scores(scores).reshape(k * n, n)).reshape(k, n, n)


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
    graph: Graph, parts: _SpectralParts, heads: Sequence[_HeadForm], weights: tuple[float, float]
) -> tuple[list[np.ndarray], tuple[float, ...]]:
    """Each head's factors and its distance from its target.

    The target of head j is the row-normalized alpha A + beta (J - A) at
    position j and the identity elsewhere.  No row is zero: there are no
    isolated nodes, and with beta > 0 every node weighs itself.  Neither
    depends on the classes, so they hold for every layer.
    """
    n, k = graph.num_nodes, len(heads)
    alpha, beta = weights
    adj = graph.adjacency_matrix.astype(float)
    weighted = alpha * adj + beta * (1.0 - adj)
    walk = weighted / weighted.sum(axis=1, keepdims=True)
    factors = [_position_factors(head, parts.positional) for head in heads]
    errors = tuple(
        _kron_error(f, np.stack([walk if o == head.j else np.eye(n) for o in range(k)]))
        for head, f in zip(heads, factors)
    )
    return factors, errors


def _restricted_space_attention(
    setup: _Setup, heads: Sequence[_HeadForm], memory_limit: int
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
    _check_dense(t, t, "attention", memory_limit)
    atts, errors = [], []
    for head in heads:
        att = np.ones((t, t))
        for factor, u in zip(_position_factors(head, setup.parts.positional), space.nodes.T):
            att *= factor[np.ix_(u, u)]
        mass = att.sum(axis=1, keepdims=True)
        np.divide(att, mass, out=att, where=mass > 0)
        atts.append(att)
        errors.append(_restricted_error(setup, head.j, att))
    return atts, tuple(errors)


def _restricted_error(setup: _Setup, j: int, att: np.ndarray) -> float:
    """Frobenius distance of head j's attention from its target, 1/deg at its
    on-space adjacent substitutions, on the rows that have one."""
    space = setup.space
    deg = setup.degblock[:, j]
    kept = deg > 0
    rows, nodes = np.nonzero(_substitution_hits(setup.graph, space, j, 1))
    diff = att[kept]
    diff[np.cumsum(kept)[rows] - 1, space.substitution[j][rows, nodes]] -= 1.0 / deg[rows]
    return float(np.linalg.norm(diff))


def _head_attention(
    setup: _Setup, heads: Sequence[_HeadForm], weights: tuple[float, float], memory_limit: int
) -> tuple[list[Callable], tuple[float, ...]]:
    """Each head as a map from t x c values to their attended averages, and
    its attention error, built once per run: neither depends on the classes."""
    if setup.space.s == setup.space.k:
        factors, errors = _full_space_attention(setup.graph, setup.parts, heads, weights)
        return [partial(_mode_products, f) for f in factors], errors
    atts, errors = _restricted_space_attention(setup, heads, memory_limit)
    return [partial(np.matmul, att) for att in atts], errors


# ---------------------------------------------------------------------------
# Drivers.


@dataclass(frozen=True, eq=False)
class _DriveRecord:
    layers: tuple[_StructuredLayer, ...]
    partitions: tuple[np.ndarray, ...]
    attention_errors: tuple[tuple[float, ...], ...]
    slack_max: float


def _check_temperature(b) -> float:
    if isinstance(b, bool) or not isinstance(b, (int, float)) or not 0 < b < math.inf:
        raise ValidationError(INVALID_SCHEMA, f"temperature must be positive and finite, got {b!r}")
    return float(b)


def _check_construction(k, s, variant) -> None:
    """Refine's checks of the order, the bound and the variant, and the one
    rule of the construction: order 1 implements plain refinement only."""
    _check_order(k, s)
    _check_variant_space(variant, k, s)
    if k == 1 and variant != "kwl":
        raise ValidationError(
            VARIANT_MISMATCH,
            f"the order-1 construction implements plain refinement only, got {variant!r}",
        )


def _check_layers(t_layers, minimum: int) -> int:
    if isinstance(t_layers, bool) or not isinstance(t_layers, int) or t_layers < minimum:
        raise ValidationError(
            INVALID_SCHEMA, f"layer count must be an integer >= {minimum}, got {t_layers!r}"
        )
    return t_layers


def _drive(
    setup: _Setup, variant: str, t_layers: int, b: float, memory_limit: int
) -> _DriveRecord:
    space = setup.space
    weights = _slot_weights(variant, space.k, space.num_nodes)
    heads = _head_forms(setup.parts, space.k, b, weights)
    attends, head_errors = _head_attention(setup, heads, weights, memory_limit)
    classes = setup.classes
    partitions = [classes]
    layers = []
    slack_max = 0.0
    for _ in range(t_layers):
        layer = _StructuredLayer(setup, heads, weights, classes)
        trace = {"slack": 0.0, "classes": None}
        layer.forward(attends, trace, memory_limit)
        layers.append(layer)
        slack_max = max(slack_max, trace["slack"])
        classes = trace["classes"]
        partitions.append(classes)
    return _DriveRecord(tuple(layers), tuple(partitions), (head_errors,) * t_layers, slack_max)


def initial_tokens(
    graph: Graph,
    k: int = 1,
    s: int | None = None,
    memory_limit: int = DEFAULT_MEMORY_LIMIT,
) -> np.ndarray:
    """Layer-0 token rows in the layout the constructed weights expect.

    Rows hold a one-hot of the initial tuple class, zeroed count scratch,
    the de-normalization degrees, and the spectral identification blocks.
    Feed the result to ``transformer_layer`` with the first layer of a
    ``ConstructedWeights`` to replay the construction by hand.
    """
    setup = _setup(graph, k, k if s is None else s, memory_limit)
    return _token_rows_k(setup, setup.classes, memory_limit)


def construct_kgt_weights(
    graph: Graph,
    k: int,
    variant: str,
    t_layers: int,
    b: float = DEFAULT_TEMPERATURE,
    memory_limit: int = DEFAULT_MEMORY_LIMIT,
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
    layers = _drive(_setup(graph, k, k, memory_limit), variant, t_layers, b, memory_limit).layers
    dense = tuple(layer.dense(memory_limit) for layer in layers)
    return ConstructedWeights(dense, b, len(layers[0].heads), k, variant)


def gnn_reference_step(colors: Coloring, graph: Graph, k: int, variant: str) -> Coloring:
    """One refinement round computed with exact base-m digit arithmetic.

    Every color is coded as a fixed-point digit vector ``m^-(c+1)`` with
    ``m = n + 1``, so digit-wise sums count multisets without collision.
    Per-position contributions are shifted into disjoint digit ranges, the
    adjacent and non-adjacent groups into separate ranges when the variant
    distinguishes them.  A tuple's code is the multiset of its depths: its
    own color's, then one per substitution that the rule counts.

    The tuples are coded ``ORACLE_BLOCK`` at a time.  A block's depths form
    one row of ``1 + k * n`` entries per tuple, one per position and node,
    with the substitutions the rule skips masked.  The substituted tuple is
    found by the row-major flat index, ``i - u_j * n^(k-1-j) + w *
    n^(k-1-j)``, which is the row on a full space and is looked up among the
    space's sorted flat indices on a restricted one.  ``encode_rows`` turns
    each row into a code key, and the keys of all blocks, in one array, are
    numbered through one table.

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
    _check_variant_space(variant, space.k, space.s)
    if space.k != k:
        raise ValidationError(SPACE_MISMATCH, f"coloring has order {space.k}, expected {k}")
    if space.num_nodes != graph.num_nodes:
        raise ValidationError(
            SPACE_MISMATCH,
            f"coloring was built over {space.num_nodes} nodes, graph has {graph.num_nodes}",
        )
    n, t = graph.num_nodes, len(space.nodes)
    cols = colors.colors
    strides = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    flat = space.nodes @ strides
    local = _is_local(variant, k)

    def depth_rows(start: int, stop: int) -> np.ndarray:
        # A tuple of color c counts at depth c + 1; a substituted tuple counts
        # at its color's depth past the offset of its position and group.
        nodes = space.nodes[start:stop]
        depths = np.empty((len(nodes), 1 + k * n), dtype=np.int64)
        valid = np.ones(depths.shape, dtype=bool)
        depths[:, 0] = cols[start:stop] + 1
        for j in range(k):
            block = slice(1 + j * n, 1 + (j + 1) * n)
            moved = (flat[start:stop] - nodes[:, j] * strides[j])[:, None]
            moved = moved + np.arange(n) * strides[j]
            if space.s < k:
                row = np.minimum(np.searchsorted(flat, moved), t - 1)
                valid[:, block] = flat[row] == moved
                moved = row
            if variant == "delta_kwl":
                adjacent = graph.adjacency_matrix[nodes[:, j]]
                offset = np.where(adjacent, t * (2 * j + 1), t * (2 * j + 2))
            else:
                offset = t * (j + 1)
                if local:
                    valid[:, block] &= graph.adjacency_matrix[nodes[:, j]]
            depths[:, block] = offset + cols[moved] + 1
        return encode_rows(depths, valid, n + 1)

    keys = np.empty((t, 1 + k * n), dtype=np.int64)
    for i in range(0, t, ORACLE_BLOCK):
        keys[i : i + ORACLE_BLOCK] = depth_rows(i, min(i + ORACLE_BLOCK, t))
    ids = _relabel_rows([keys])[0]
    return Coloring(space, ids, colors.iteration + 1)


@dataclass(frozen=True, eq=False)
class SimReport:
    """Side-by-side record of the three implementations; partitions are read-only int64 arrays."""

    k: int
    s: int
    variant: str
    layers: int
    transformer_partitions: tuple[np.ndarray, ...]
    wl_partitions: tuple[np.ndarray, ...]
    oracle_partitions: tuple[np.ndarray, ...]
    partition_equal_per_layer: tuple[bool, ...]
    attention_errors: tuple[tuple[float, ...], ...]
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
    memory_limit: int = DEFAULT_MEMORY_LIMIT,
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
    setup = _setup(graph, k, s, memory_limit)
    engine = [Coloring(setup.space, setup.classes, 0)]
    if t_layers is None:
        engine = _refine_until_stable(graph, engine[0], variant)
        # The run stopped at the first round that repeated the last coloring,
        # so the round past the fixed point is that coloring again.
        engine.append(engine[-1])
        t_layers = len(engine) - 1

    if t_layers == 0:
        record = _DriveRecord((), (setup.classes,), (), 0.0)
    else:
        record = _drive(setup, variant, t_layers, b, memory_limit)
    while len(engine) <= t_layers:
        engine.append(refine_step(graph, setup.space, engine[-1], variant))
    oracle = [engine[0]]
    for _ in range(t_layers):
        oracle.append(gnn_reference_step(oracle[-1], graph, k, variant))
    wl_partitions = tuple(c.colors for c in engine)
    oracle_partitions = tuple(c.colors for c in oracle)

    triples = zip(record.partitions, wl_partitions, oracle_partitions)
    equal = tuple(np.array_equal(t, e) and np.array_equal(e, o) for t, e, o in triples)
    flat_errors = [e for layer in record.attention_errors for e in layer]
    return SimReport(
        k=k,
        s=s,
        variant=variant,
        layers=t_layers,
        transformer_partitions=record.partitions,
        wl_partitions=wl_partitions,
        oracle_partitions=oracle_partitions,
        partition_equal_per_layer=equal,
        attention_errors=record.attention_errors,
        max_attention_error=max(flat_errors) if flat_errors else 0.0,
        rounding_slack_max=record.slack_max,
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
    parts = _spectral_parts(graph)
    scores = (parts.adj_part * parts.signs) @ parts.adj_part.T
    target = weighted_indicator(graph.adjacency_matrix.astype(float)).matrix
    out = []
    for b in temperatures:
        b = _check_temperature(b)
        out.append(float(np.linalg.norm(softmax_rows(b * scores) - target)))
    return tuple(out)
