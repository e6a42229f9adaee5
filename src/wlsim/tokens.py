"""Token matrices for graph transformers: per-node embeddings, per-tuple
embeddings over a restricted tuple space, and atomic-type embeddings.

"Learnable" tables are stood in for by seeded pseudo-random rows, drawn
deterministically per index so no table is ever materialized beyond the
indices actually used. Injectivity on the used index set is asserted after
every build and the draw is re-salted on collision, so equal rows always
mean equal inputs. A build that finds no injective draw in ``MAX_SALTS``
salts raises ``LimitError`` (``ITERATION_LIMIT``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

import numpy as np

from .errors import INVALID_SCHEMA, ITERATION_LIMIT, LimitError, ValidationError
from .graphs import Graph, atomic_types
from .refine import _check_order, _relabel_rows, enumerate_tuples
from .spectral import (
    ENCODER_KINDS,
    check_encoder_request,
    identifying_targets,
    positional_encoding,
    run_mlp,
    seeded_mlp,
)

PE_KINDS = (*ENCODER_KINDS, "raw_targets")

# Disjoint sub-stream tags so every parameter block has its own seed lane.
_STREAM_FEATURE = 101
_STREAM_DEGREE = 102
_STREAM_ATP = 103
_STREAM_PROJECTION = 104
_STREAM_FFN = 105
_STREAM_EDGE = 106
_STREAM_EDGE_PROJECTION = 107
_STREAM_RAW_PE = 108

# Salts a build draws, from 0 up, before it gives up on distinct rows.
MAX_SALTS = 1 << 15


def _draw_row(seed: int, stream: int, salt: int, key: Hashable, dim: int) -> np.ndarray:
    """The row of an int key, or of a flat tuple of ints, seeded by the key's
    ints zigzagged to non-negative ones."""
    ints = key if isinstance(key, tuple) else (key,)
    zigzag = [2 * x if x >= 0 else -2 * x - 1 for x in ints]
    rng = np.random.default_rng([seed, stream, salt, *zigzag])
    return rng.normal(0.0, 1.0 / math.sqrt(dim), dim)


def _row_ids(rows: np.ndarray) -> np.ndarray:
    """Ids of float or int64 rows by their bytes, through their int64 view:
    equal ids exactly where ``tobytes`` is equal."""
    return _relabel_rows([np.ascontiguousarray(rows).view(np.int64)])[0]


def _distinct(rows: np.ndarray) -> int:
    """The number of distinct rows, by their bytes."""
    return int(_row_ids(rows).max()) + 1


def _salted(draw: Callable[[int], np.ndarray], distinct: int, loop: str) -> np.ndarray:
    """``draw(salt)`` at the first salt from 0 up whose rows are ``distinct``
    distinct ones; ``LimitError`` (``ITERATION_LIMIT``) naming ``loop`` when
    no salt below ``MAX_SALTS`` gives them."""
    for salt in range(MAX_SALTS):
        rows = draw(salt)
        if _distinct(rows) == distinct:
            return rows
    raise LimitError(
        ITERATION_LIMIT, f"{loop} drew no {distinct} distinct rows in {MAX_SALTS} salts"
    )


def _table(seed: int, stream: int, dim: int, keys: Iterable[Hashable]) -> dict[Hashable, np.ndarray]:
    """Deterministic embedding rows for the used keys, re-salted until the
    rows are pairwise distinct (and nonzero) on that key set. A row depends
    on the key alone, so the keys' order changes nothing."""
    used = set(keys)

    def draw(salt: int) -> np.ndarray:
        return np.stack([np.zeros(dim), *(_draw_row(seed, stream, salt, key, dim) for key in used)])

    rows = _salted(draw, len(used) + 1, "the embedding table")
    return dict(zip(used, rows[1:]))


def _draw_matrix(seed: int, stream: int, salt: int, shape: tuple[int, int]) -> np.ndarray:
    rng = np.random.default_rng([seed, stream, salt])
    return rng.normal(0.0, 1.0 / math.sqrt(shape[0]), shape)


@dataclass(frozen=True)
class TokenizerConfig:
    """Shape and seeding choices for one tokenizer.

    ``eig_count`` and ``rank_m`` default to the graph order at call time.
    Every build checks them, ``dim`` and ``seed`` (``check_encoder_request``)
    before anything is drawn, whatever ``pe_kind`` reads. ``normalized``
    selects the degree-normalized Laplacian as the spectral source.
    ``atp_from_edges`` switches the atomic-type embedding from the
    type-matrix table to the concatenated edge-embedding construction.
    """

    k: int
    s: int
    dim: int
    pe_kind: str = "lpe"
    seed: int = 0
    eig_count: int | None = None
    rank_m: int | None = None
    normalized: bool = False
    atp_from_edges: bool = False

    def __post_init__(self) -> None:
        _check_order(self.k, self.s)
        if self.pe_kind not in PE_KINDS:
            raise ValidationError(INVALID_SCHEMA, f"pe_kind must be one of {PE_KINDS}, got {self.pe_kind!r}")


@dataclass(frozen=True, eq=False)
class TokenMatrix:
    """Embedding rows in tuple-space order, tagged with the settings that built them."""

    rows: np.ndarray
    k: int
    s: int
    dim: int
    encoder_id: str
    seed: int

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ValidationError(
                INVALID_SCHEMA, f"rows must be 2-d with width {self.dim}, got shape {rows.shape}"
            )
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def num_rows(self) -> int:
        return self.rows.shape[0]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "s": self.s,
            "dim": self.dim,
            "encoder": self.encoder_id,
            "seed": self.seed,
            "rows": self.rows.tolist(),
        }


def _pe_matrix(graph: Graph, cfg: TokenizerConfig) -> np.ndarray:
    n = graph.num_nodes
    if cfg.pe_kind == "raw_targets":
        targets = identifying_targets(graph, normalized=cfg.normalized)
        raw = np.concatenate([targets.p_node, targets.p_adj], axis=1)

        def draw(salt: int) -> np.ndarray:
            rng = np.random.default_rng([cfg.seed, _STREAM_RAW_PE, salt, n])
            return raw @ rng.normal(0.0, 1.0 / math.sqrt(2 * n), (2 * n, cfg.dim))

        # The projection must not conflate rows the raw embedding separates.
        return _salted(draw, _distinct(raw), "the raw_targets projection")
    return positional_encoding(
        graph, cfg.pe_kind, cfg.dim, cfg.seed, cfg.eig_count, cfg.rank_m, cfg.normalized
    )[0]


def _node_matrix(
    graph: Graph,
    cfg: TokenizerConfig,
    degree_fn: Callable[[int], np.ndarray] | None,
    pe_fn: Callable[[Graph], np.ndarray] | None,
    ffn_fn: Callable[[np.ndarray], np.ndarray] | None,
) -> np.ndarray:
    n = graph.num_nodes
    degrees = graph.adjacency_matrix.sum(axis=1).tolist()
    features = _table(cfg.seed, _STREAM_FEATURE, cfg.dim, graph.labels)
    if degree_fn is None:
        table = _table(cfg.seed, _STREAM_DEGREE, cfg.dim, degrees)
        degree_fn = table.__getitem__
    if ffn_fn is None:
        weights = seeded_mlp(cfg.seed, _STREAM_FFN, cfg.dim, max(8, 2 * cfg.dim), cfg.dim)
        ffn_fn = lambda x: run_mlp(weights, x)
    pe_rows = np.asarray(_pe_matrix(graph, cfg) if pe_fn is None else pe_fn(graph), dtype=float)
    if pe_rows.shape != (n, cfg.dim):
        raise ValidationError(
            INVALID_SCHEMA, f"PE rows must have shape ({n}, {cfg.dim}), got {pe_rows.shape}"
        )
    feat = np.stack([features[label] for label in graph.labels])
    deg = np.stack([np.asarray(degree_fn(d), dtype=float) for d in degrees])
    return feat + np.asarray(ffn_fn(deg + pe_rows), dtype=float)


def node_tokens(
    graph: Graph,
    cfg: TokenizerConfig,
    *,
    degree_fn: Callable[[int], np.ndarray] | None = None,
    pe_fn: Callable[[Graph], np.ndarray] | None = None,
    ffn_fn: Callable[[np.ndarray], np.ndarray] | None = None,
) -> TokenMatrix:
    """One token per node: a label-embedding row plus a structural part built
    from the degree embedding and the positional encoding.

    The ``*_fn`` hooks replace the seeded defaults with caller-supplied maps;
    they exist so closed-form stubs can be dropped in when exact values
    matter more than realism.
    """
    if cfg.k != 1:
        raise ValidationError(INVALID_SCHEMA, f"node tokens require k = 1, got k = {cfg.k}")
    check_encoder_request(cfg.pe_kind, graph.num_nodes, cfg.dim, cfg.seed, cfg.eig_count, cfg.rank_m)
    rows = _node_matrix(graph, cfg, degree_fn, pe_fn, ffn_fn)
    return TokenMatrix(rows=rows, k=1, s=1, dim=cfg.dim, encoder_id=cfg.pe_kind, seed=cfg.seed)


def _edge_rows(graph: Graph, nodes: np.ndarray, cfg: TokenizerConfig) -> np.ndarray:
    """Atomic-type embeddings assembled from per-pair edge embeddings, one
    row per row of the ``(t, k)`` node array, k >= 2.

    For every strict position pair (i, j), i > j, one block of width d:
    a dedicated vector when the two entries are the same node, the edge-label
    embedding when they share an edge, and zero otherwise. The diagonal
    pairs are omitted because they would always carry the same-node vector.
    The concatenation is projected down to width d, once per distinct row
    of blocks, and gathered per tuple.
    """
    k = nodes.shape[1]
    labels = dict(zip(graph.edges, graph.edge_labels or [0] * len(graph.edges)))
    # Key -1 is reserved for the same-node vector; edge labels are >= 0.
    table = _table(cfg.seed, _STREAM_EDGE, cfg.dim, [-1, *labels.values()])
    blocks = np.stack([np.zeros(cfg.dim), *table.values()])
    block_of = {key: i for i, key in enumerate(table, 1)}
    # pair_block[u, w]: the block of the pair (u, w), 0 (zero) off the edges.
    pair_block = np.zeros((graph.num_nodes,) * 2, dtype=np.int64)
    np.fill_diagonal(pair_block, block_of[-1])
    for (u, v), label in labels.items():
        pair_block[u, v] = pair_block[v, u] = block_of[label]
    pairs = [(i, j) for i in range(1, k) for j in range(i)]
    keys = np.stack([pair_block[nodes[:, i], nodes[:, j]] for i, j in pairs], axis=1)
    ids = _relabel_rows([keys])[0]
    proj = _draw_matrix(cfg.seed, _STREAM_EDGE_PROJECTION, k, (cfg.dim * keys.shape[1], cfg.dim))
    firsts = np.unique(ids, return_index=True)[1]
    return np.stack([blocks[keys[i]].reshape(-1) @ proj for i in firsts])[ids]


def tuple_tokens(
    graph: Graph,
    cfg: TokenizerConfig,
    *,
    degree_fn: Callable[[int], np.ndarray] | None = None,
    pe_fn: Callable[[Graph], np.ndarray] | None = None,
    ffn_fn: Callable[[np.ndarray], np.ndarray] | None = None,
) -> TokenMatrix:
    """One token per tuple in the (k, s)-restricted space: the node tokens of
    the components, concatenated in component order and projected to width d,
    plus an atomic-type embedding.

    Equal rows imply equal component node-tokens and equal atomic type; the
    build re-salts its projection until that holds on the actual token set.
    """
    if cfg.k < 2:
        raise ValidationError(INVALID_SCHEMA, f"tuple tokens require k >= 2, got k = {cfg.k}")
    check_encoder_request(cfg.pe_kind, graph.num_nodes, cfg.dim, cfg.seed, cfg.eig_count, cfg.rank_m)
    space = enumerate_tuples(graph, cfg.k, cfg.s)
    node_rows = _node_matrix(graph, cfg, degree_fn, pe_fn, ffn_fn)

    if cfg.atp_from_edges:
        atp_rows = _edge_rows(graph, space.nodes, cfg)
        atp_ids = _row_ids(atp_rows)
    else:
        codes = atomic_types(graph, space.nodes).reshape(len(space.nodes), -1)
        atp_ids = _relabel_rows([codes])[0]
        # The ids number the types by first occurrence: one table row per id.
        keys = list(map(tuple, codes[np.unique(atp_ids, return_index=True)[1]].tolist()))
        table = _table(cfg.seed, _STREAM_ATP, cfg.dim, keys)
        atp_rows = np.stack([table[key] for key in keys])[atp_ids]

    concat = node_rows[space.nodes].reshape(len(space.nodes), -1)
    # A token's key: the id of each component's node row, then its type's id.
    token_keys = np.column_stack([_row_ids(node_rows)[space.nodes], atp_ids])

    def draw(salt: int) -> np.ndarray:
        proj = _draw_matrix(cfg.seed, _STREAM_PROJECTION, salt, (cfg.dim * cfg.k, cfg.dim))
        return concat @ proj + atp_rows

    rows = _salted(draw, _distinct(token_keys), "the tuple-token projection")
    return TokenMatrix(rows=rows, k=cfg.k, s=cfg.s, dim=cfg.dim, encoder_id=cfg.pe_kind, seed=cfg.seed)
