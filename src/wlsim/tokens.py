"""Token matrices for graph transformers: per-node embeddings, per-tuple
embeddings over a restricted tuple space, and atomic-type embeddings.

"Learnable" tables are stood in for by seeded pseudo-random rows, drawn
deterministically per index so no table is ever materialized beyond the
indices actually used. Injectivity on the used index set is asserted after
every build and the draw is re-salted on collision, so equal rows always
mean equal inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .errors import INVALID_SCHEMA, ValidationError
from .graphs import Graph, atomic_types
from .refine import _check_order, enumerate_tuples
from .spectral import (
    EncoderParams,
    _check_dim,
    _check_seed,
    eigh,
    identifying_targets,
    laplacian,
    lpe,
    run_mlp,
    seeded_mlp,
    spe,
)

PE_KINDS = ("lpe", "spe", "raw_targets")

# Disjoint sub-stream tags so every parameter block has its own seed lane.
_STREAM_FEATURE = 101
_STREAM_DEGREE = 102
_STREAM_ATP = 103
_STREAM_PROJECTION = 104
_STREAM_FFN = 105
_STREAM_EDGE = 106
_STREAM_EDGE_PROJECTION = 107
_STREAM_RAW_PE = 108


def _encode_index(key: Hashable) -> tuple[int, ...]:
    """Flatten an index into non-negative ints for seeding (zigzag for sign)."""
    if isinstance(key, tuple):
        out: list[int] = []
        for part in key:
            out.extend(_encode_index(part))
        return tuple(out)
    if not isinstance(key, int) or isinstance(key, bool):
        raise ValidationError(INVALID_SCHEMA, f"table index must be an int, got {key!r}")
    return (2 * key,) if key >= 0 else (-2 * key - 1,)


def _draw_row(seed: int, stream: int, salt: int, key: Hashable, dim: int) -> np.ndarray:
    rng = np.random.default_rng([seed, stream, salt, *_encode_index(key)])
    return rng.normal(0.0, 1.0 / math.sqrt(dim), dim)


def _table(seed: int, stream: int, dim: int, keys: Iterable[Hashable]) -> dict[Hashable, np.ndarray]:
    """Deterministic embedding rows for the used keys, re-salted until the
    rows are pairwise distinct (and nonzero) on that key set."""
    used = sorted(set(keys), key=_encode_index)
    salt = 0
    while True:
        rows = {key: _draw_row(seed, stream, salt, key, dim) for key in used}
        seen = {row.tobytes() for row in rows.values()}
        seen.add(np.zeros(dim).tobytes())
        if len(seen) == len(rows) + 1:
            return rows
        salt += 1


def _draw_matrix(seed: int, stream: int, salt: int, shape: tuple[int, int]) -> np.ndarray:
    rng = np.random.default_rng([seed, stream, salt])
    return rng.normal(0.0, 1.0 / math.sqrt(shape[0]), shape)


@dataclass(frozen=True)
class TokenizerConfig:
    """Shape and seeding choices for one tokenizer.

    ``eig_count`` and ``rank_m`` default to the graph order at call time;
    ``normalized`` selects the degree-normalized Laplacian as the spectral
    source. ``atp_from_edges`` switches the atomic-type embedding from the
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
        if isinstance(self.dim, bool) or not isinstance(self.dim, int) or self.dim < 1:
            raise ValidationError(INVALID_SCHEMA, f"dim must be a positive int, got {self.dim!r}")
        _check_dim(self.dim)
        if self.pe_kind not in PE_KINDS:
            raise ValidationError(INVALID_SCHEMA, f"pe_kind must be one of {PE_KINDS}, got {self.pe_kind!r}")
        _check_seed(self.seed)
        for name in ("eig_count", "rank_m"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool) or not isinstance(value, int) or value < 1):
                raise ValidationError(INVALID_SCHEMA, f"{name} must be a positive int or None, got {value!r}")


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
        salt = 0
        while True:
            proj = np.random.default_rng([cfg.seed, _STREAM_RAW_PE, salt, n]).normal(
                0.0, 1.0 / math.sqrt(2 * n), (2 * n, cfg.dim)
            )
            out = raw @ proj
            # The projection must not conflate rows the raw embedding separates.
            if len({r.tobytes() for r in out}) == len({r.tobytes() for r in raw}):
                return out
            salt += 1
    source = "normalized_laplacian" if cfg.normalized else "laplacian"
    dec = eigh(laplacian(graph, normalized=cfg.normalized), source=source)
    count = cfg.eig_count if cfg.eig_count is not None else n
    params = EncoderParams.seeded(cfg.seed, count, cfg.dim)
    if cfg.pe_kind == "lpe":
        return lpe(dec, params)
    return spe(dec, params, cfg.rank_m if cfg.rank_m is not None else n)


def _node_matrix(
    graph: Graph,
    cfg: TokenizerConfig,
    feature_fn: Callable[[int], np.ndarray] | None,
    degree_fn: Callable[[int], np.ndarray] | None,
    pe_fn: Callable[[Graph], np.ndarray] | None,
    ffn_fn: Callable[[np.ndarray], np.ndarray] | None,
) -> np.ndarray:
    n = graph.num_nodes
    if feature_fn is None:
        table = _table(cfg.seed, _STREAM_FEATURE, cfg.dim, graph.labels)
        feature_fn = table.__getitem__
    if degree_fn is None:
        degrees = [graph.degree(v) for v in range(n)]
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
    feat = np.stack([np.asarray(feature_fn(graph.labels[v]), dtype=float) for v in range(n)])
    deg = np.stack([np.asarray(degree_fn(graph.degree(v)), dtype=float) for v in range(n)])
    return feat + np.asarray(ffn_fn(deg + pe_rows), dtype=float)


def node_tokens(
    graph: Graph,
    cfg: TokenizerConfig,
    *,
    feature_fn: Callable[[int], np.ndarray] | None = None,
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
    rows = _node_matrix(graph, cfg, feature_fn, degree_fn, pe_fn, ffn_fn)
    return TokenMatrix(rows=rows, k=1, s=1, dim=cfg.dim, encoder_id=cfg.pe_kind, seed=cfg.seed)


def _edge_blocks(graph: Graph, tup: Sequence[int], cfg: TokenizerConfig) -> np.ndarray:
    k = len(tup)
    used_labels = sorted({graph.edge_label(u, v) for u, v in graph.edges})
    salt = 0
    while True:
        # Key -1 is reserved for the same-node vector; edge labels are >= 0.
        s_vector = _draw_row(cfg.seed, _STREAM_EDGE, salt, -1, cfg.dim)
        label_rows = {
            label: _draw_row(cfg.seed, _STREAM_EDGE, salt, label, cfg.dim) for label in used_labels
        }
        distinct = {s_vector.tobytes(), np.zeros(cfg.dim).tobytes()}
        distinct.update(row.tobytes() for row in label_rows.values())
        if len(distinct) == len(used_labels) + 2:
            break
        salt += 1
    blocks = []
    for i in range(1, k):
        for j in range(i):
            u, w = tup[i], tup[j]
            if u == w:
                blocks.append(s_vector)
            elif graph.has_edge(u, w):
                blocks.append(label_rows[graph.edge_label(u, w)])
            else:
                blocks.append(np.zeros(cfg.dim))
    return np.concatenate(blocks)


def atp_embedding_from_edges(graph: Graph, tup: Sequence[int], cfg: TokenizerConfig) -> np.ndarray:
    """Atomic-type embedding assembled from per-pair edge embeddings.

    For every strict position pair (i, j), i > j, one block of width d:
    a dedicated vector when the two entries are the same node, the edge-label
    embedding when they share an edge, and zero otherwise. The diagonal
    pairs are omitted because they would always carry the same-node vector.
    The concatenation is projected down to width d.
    """
    k = len(tup)
    if k < 2:
        raise ValidationError(INVALID_SCHEMA, f"edge-based type embedding needs k >= 2, got {k}")
    concat = _edge_blocks(graph, tup, cfg)
    proj = _draw_matrix(cfg.seed, _STREAM_EDGE_PROJECTION, k, (cfg.dim * k * (k - 1) // 2, cfg.dim))
    return concat @ proj


def tuple_tokens(
    graph: Graph,
    cfg: TokenizerConfig,
    *,
    feature_fn: Callable[[int], np.ndarray] | None = None,
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
    space = enumerate_tuples(graph, cfg.k, cfg.s)
    node_rows = _node_matrix(graph, cfg, feature_fn, degree_fn, pe_fn, ffn_fn)

    if cfg.atp_from_edges:
        atp_rows = [atp_embedding_from_edges(graph, tup, cfg) for tup in space.nodes.tolist()]
        atp_keys: list[Hashable] = [row.tobytes() for row in atp_rows]
    else:
        codes = atomic_types(graph, space.nodes).reshape(len(space.nodes), -1)
        flat_keys = list(map(tuple, codes.tolist()))
        table = _table(cfg.seed, _STREAM_ATP, cfg.dim, flat_keys)
        atp_rows = [table[key] for key in flat_keys]
        atp_keys = list(flat_keys)

    concat = node_rows[space.nodes].reshape(len(space.nodes), -1)
    node_keys = [row.tobytes() for row in node_rows]
    row_keys = [
        (tuple(node_keys[v] for v in tup), atp_key)
        for tup, atp_key in zip(space.nodes.tolist(), atp_keys)
    ]
    salt = 0
    while True:
        proj = _draw_matrix(cfg.seed, _STREAM_PROJECTION, salt, (cfg.dim * cfg.k, cfg.dim))
        rows = concat @ proj + np.stack(atp_rows)
        if len({r.tobytes() for r in rows}) == len(set(row_keys)):
            break
        salt += 1
    return TokenMatrix(rows=rows, k=cfg.k, s=cfg.s, dim=cfg.dim, encoder_id=cfg.pe_kind, seed=cfg.seed)


def token_count(graph: Graph, k: int, s: int) -> int:
    """Number of tuples the (k, s)-restricted tokenizer emits."""
    return len(enumerate_tuples(graph, k, s).nodes)
