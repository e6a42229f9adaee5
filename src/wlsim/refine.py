"""Color refinement over node tuples.

Every rule is one operation: for each tuple and each position j, collect
the multiset of colors of the tuples reached by putting another node at j.
The rules, selected by name, differ only in which substitutions count:

``kwl``
    Every node. For k = 1 this is classic 1-dimensional refinement, which
    aggregates neighbor colors only.
``delta_kwl``
    Every node, each color tagged with whether the new node is adjacent to
    the replaced one. Refines ``kwl`` round for round.
``delta_klwl``
    Local: only the neighbors of the replaced node.
``ks_lwl``
    The local rule on the tuples whose induced subgraph has at most s
    connected components; substitutions leaving that space are skipped.

A space is the ``(t, k)`` node array of its tuples (``TupleSpace.nodes``).
A full space is the row-major index grid, so the tuple reached by a
substitution is found by arithmetic on its row; a restricted space is the
grid filtered block by block by a vectorized component count, and finds it
through a map from the flat index.

On a full space the multiset at position j depends only on the other k - 1
positions: it is the fiber along axis j of the ``(n,) * k`` color grid. The
full rules sort each fiber once, number the fibers through one table and
read a tuple's k fiber ids. ``delta_kwl`` adds, per position, the colors
reached through the neighbors of the replaced node, which with the fiber
fix its (color, adjacent) multiset. The local rules read those neighbor
blocks only. A full space takes the block at position j along axis j of
the color grid, at the graph's neighbor table; a restricted space plans,
once per run, which tuples each block reads (``TupleSpace.substitute``).
The initial row of a tuple is the label id of each position, then the
pair type of each position pair (``Graph.pair_types``), one flat gather
per pair. A round writes each tuple's row in place, sorts its blocks and
numbers the rows by first occurrence in enumeration order, so two runs
over the same input produce identical arrays and a repeated partition
shows up as a repeated array. A run to stable also ends at a discrete
coloring, which is its own next round. A joint run (``distinguish``) ends
without that round when g's coloring is discrete and a graph isomorphism
carries it onto h's, tuple by tuple: the round would rebuild both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Hashable, Iterable, NamedTuple, Sequence

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

VARIANTS = ("kwl", "delta_kwl", "delta_klwl", "ks_lwl")

DEFAULT_MEMORY_LIMIT = 2_000_000
DEFAULT_MAX_ITERATIONS = 64
INT32_MAX = np.iinfo(np.int32).max

# Candidate tuples per block of the restricted-space filter. Its working
# arrays then peak at about 2.5 MB at k = 3, below the 8 MB int32 position
# map that a restricted space of n ** k = 2,000,000 candidates builds.
FILTER_BLOCK = 1 << 14

# Rows from which ``_relabel_rows`` sorts row hashes instead of filling a
# dict; the two cross between 256 and 512 rows (``DECISIONS.md`` §16).
SORT_ROWS = 512
# Row entries per block of the sorted relabel's hash and check passes.
HASH_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class TupleSpace:
    """Enumerated tuple domain of one graph.

    ``nodes`` is the read-only ``(t, k)`` int64 array of the tuples. For
    s = k these are all ``num_nodes ** k`` tuples in row-major order, so a
    tuple's row is its flat index; for s < k only the tuples whose induced
    subgraph has at most ``s`` connected components survive, in the same
    relative order. Two spaces are equal when k, s, n and the tuples are.
    """

    k: int
    s: int
    num_nodes: int
    nodes: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TupleSpace):
            return NotImplemented
        return self is other or (
            (self.k, self.s, self.num_nodes) == (other.k, other.s, other.num_nodes)
            and np.array_equal(self.nodes, other.nodes)
        )

    @cached_property
    def tuples(self) -> tuple[tuple[int, ...], ...]:
        """The tuples as Python tuples. Only the benchmark's tracer reads them
        (``perfbench/tracing.py``), and only a change to the benchmark may change it."""
        return tuple(map(tuple, self.nodes.tolist()))

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Row-major position weights of the full space's flat index."""
        return tuple(self.num_nodes ** (self.k - 1 - j) for j in range(self.k))

    @cached_property
    def _flat(self) -> np.ndarray:
        """Row-major flat index of every tuple in the full space."""
        if self.s == self.k:
            return np.arange(len(self.nodes), dtype=np.int64)
        return self.nodes @ np.array(self.strides, dtype=np.int64)

    @cached_property
    def _position(self) -> np.ndarray:
        """Map of size ``n ** k`` from the flat index to the row in
        ``nodes``, -1 off the space (restricted spaces only)."""
        position = np.full(self.num_nodes**self.k, -1, dtype=np.int32)
        position[self._flat] = np.arange(len(self.nodes), dtype=np.int32)
        return position

    def substitute(self, j: int, nodes: np.ndarray) -> np.ndarray:
        """Entry ``[i, c]`` is the index of tuple ``i`` with node
        ``nodes[i, c]`` at position ``j``, or -1 where that node is -1 or
        that tuple is off the space (int32, shaped like ``nodes``)."""
        stride = self.strides[j]
        # On a full space the flat index is the row, so no lookup is needed.
        found = (self._flat - self.nodes[:, j] * stride)[:, None] + nodes * stride
        if self.s < self.k:
            # A -1 node lands on a valid (negative) index; the mask drops it.
            found = self._position[found]
        return np.where(nodes < 0, -1, found).astype(np.int32)

    @cached_property
    def _plans(self) -> dict:
        """Each implementation's per-run plan, with the graph it is for:
        ``refine_step``'s gather plan under the rule's name, and the digit
        oracle's plan (``simulate._oracle_plan``) under ``("oracle", rule)``."""
        return {}


@dataclass(frozen=True, eq=False)
class Coloring:
    """Dense tuple coloring produced by one refinement round.

    ``colors`` is a read-only int64 array, one id per row of ``space.nodes``:
    the one partition format of the engine, the oracle and the transformer.
    An int64 array, as ``_relabel_rows`` returns, is kept without a copy;
    colors that are not a 1-d integer sequence of that length raise SHAPE_MISMATCH.
    """

    space: TupleSpace
    colors: np.ndarray
    iteration: int

    def __post_init__(self) -> None:
        colors = np.asarray(self.colors)
        t = len(self.space.nodes)
        if colors.shape != (t,) or colors.dtype.kind not in "iu":
            message = f"expected {t} integer colors, got {colors.dtype} of shape {colors.shape}"
            raise ValidationError(SHAPE_MISMATCH, message)
        colors = colors.astype(np.int64, copy=False)
        colors.setflags(write=False)
        object.__setattr__(self, "colors", colors)


@dataclass(frozen=True)
class DistinguishResult:
    distinguished: bool
    at_iteration: int | None


def _check_order(k: object, s: object) -> None:
    for name, val in (("k", k), ("s", s)):
        if isinstance(val, bool) or not isinstance(val, int) or val < 1:
            raise ValidationError(INVALID_SCHEMA, f"{name} must be a positive integer, got {val!r}")
    if s > k:  # type: ignore[operator]
        raise ValidationError(INVALID_SCHEMA, f"component bound s={s} exceeds order k={k}")


def _check_request(k: object, s: object, variant: str) -> None:
    """The one check of a refinement request, made before any tuple space is
    sized: the order and the bound, then the variant's name, then the variant
    against the space (a restricted space, s < k, takes ``ks_lwl`` only)."""
    _check_order(k, s)
    if variant not in VARIANTS:
        raise ValidationError(
            INVALID_SCHEMA, f"unknown variant {variant!r}, expected one of {', '.join(VARIANTS)}"
        )
    if variant != "ks_lwl" and s != k:
        raise ValidationError(
            VARIANT_MISMATCH,
            f"variant {variant!r} needs the unrestricted tuple space, got s={s} < k={k}",
        )


def _is_local(variant: str, k: int) -> bool:
    """True for the rules that count adjacent substitutions only:
    ``delta_klwl``, ``ks_lwl`` and, at k = 1, ``kwl``."""
    return variant in ("delta_klwl", "ks_lwl") or (k == 1 and variant == "kwl")


def _check_max_iterations(cap: object) -> None:
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 0:
        raise ValidationError(
            INVALID_SCHEMA, f"iteration cap must be a non-negative integer, got {cap!r}"
        )


def enumerate_tuples(graph: Graph, k: int, s: int) -> TupleSpace:
    """Build the ordered tuple domain for refinement.

    Raises
    ------
    LimitError
        With code ``MEMORY_LIMIT`` when the unrestricted candidate count
        ``num_nodes ** k`` exceeds ``DEFAULT_MEMORY_LIMIT`` (the restricted
        space is found by filtering, so the full sweep is unavoidable either way).
    """
    _check_order(k, s)
    n = graph.num_nodes
    # A graph has at least two nodes, so past the cap's bit length n^k is
    # over the cap, and it is neither computed nor written out.
    huge = k > DEFAULT_MEMORY_LIMIT.bit_length()
    if huge or n**k > DEFAULT_MEMORY_LIMIT:
        size = f"{n}^{k}" if huge else f"{n}^{k} = {n ** k}"
        raise LimitError(
            MEMORY_LIMIT, f"tuple space of size {size} exceeds the cap of {DEFAULT_MEMORY_LIMIT}"
        )
    if s == k:
        # Every tuple on at most k distinct nodes induces at most k components.
        # The transposed index grid lists the tuples in row-major order.
        nodes = np.indices((n,) * k, dtype=np.int64).reshape(k, -1).T
    else:
        nodes = np.concatenate(
            [
                _connected_rows(graph, start, min(start + FILTER_BLOCK, n**k), k, s)
                for start in range(0, n**k, FILTER_BLOCK)
            ]
        )
    nodes.setflags(write=False)
    return TupleSpace(k=k, s=s, num_nodes=n, nodes=nodes)


def _connected_rows(graph: Graph, start: int, stop: int, k: int, s: int) -> np.ndarray:
    """The tuples with row-major flat index in ``[start, stop)`` whose induced
    subgraph has at most ``s`` components, as a ``(rows, k)`` array.

    Positions are linked when they hold the same node or adjacent nodes, and
    each position starts as its own root. A pass gives every position the
    smallest root among its links, so after p passes it holds the smallest
    position within p links. A component of k positions spans at most k - 1
    links, so after k - 1 passes every position holds its component's
    smallest position, and the components are the positions that are their
    own root. The arrays run along the candidates in their last axis.
    """
    n = graph.num_nodes
    flat = np.arange(start, stop, dtype=np.int64)
    nodes = np.stack([flat // n ** (k - 1 - j) % n for j in range(k)])
    u, v = nodes[:, None, :], nodes[None, :, :]
    linked = (u == v) | graph.adjacency_matrix.ravel()[u * n + v]
    position = np.arange(k, dtype=np.int8)[:, None]
    roots = np.broadcast_to(position, nodes.shape)
    for _ in range(k - 1):
        roots = np.where(linked, roots[None, :, :], np.int8(k)).min(axis=1)
    return nodes[:, (roots == position).sum(axis=0) <= s].T


def _dense_relabel(key_lists: Sequence[Sequence[Hashable]]) -> list[list[int]]:
    """Map keys to dense ids by first occurrence, shared across all lists."""
    table: dict[Hashable, int] = {}
    # len(table) is the next id; setdefault stores it only for a new key.
    return [[table.setdefault(key, len(table)) for key in keys] for keys in key_lists]


def _relabel_rows(row_arrays: Iterable[np.ndarray]) -> list[np.ndarray]:
    """``_dense_relabel`` over integer rows, each keyed by its bytes: the
    int64 ids of each array, by first occurrence through one table.

    A call of at least ``SORT_ROWS`` rows of one integer dtype and width is
    numbered by sorting row hashes (``_sorted_ids``), which is exact or
    falls back to the dict; smaller calls go to the dict at once."""
    arrays = [np.ascontiguousarray(rows) for rows in row_arrays]
    if (
        sum(map(len, arrays)) >= SORT_ROWS
        and len({(rows.dtype, rows.shape[1]) for rows in arrays}) == 1
        and arrays[0].dtype.kind in "iu"
    ):
        ids = _sorted_ids(arrays)
        if ids is not None:
            return ids
    keys = []
    for rows in arrays:
        whole_row = np.dtype((np.void, rows.itemsize * rows.shape[1]))
        keys.append(rows.view(whole_row).ravel().tolist())
    return [np.array(ids, dtype=np.int64) for ids in _dense_relabel(keys)]


@lru_cache(maxsize=64)
def _row_weights(width: int) -> np.ndarray:
    """``width`` fixed odd int64 weights: the splitmix64 outputs of 1, 2, ...,
    with the low bit set, so that the row hash is a wrapping product."""
    z = np.arange(1, width + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    weights = ((z ^ (z >> np.uint64(31))) | np.uint64(1)).view(np.int64)
    weights.setflags(write=False)
    return weights


def _sorted_ids(arrays: Sequence[np.ndarray]) -> list[np.ndarray] | None:
    """``_dense_relabel``'s ids of the rows of each array (one dtype and
    width), by sorting one wrapping int64 hash per row, or None when two
    unequal rows share a hash.

    Integer arithmetic makes the hashes of equal rows equal. The sort groups
    equal hashes, and each group's smallest row index is its first row.
    Every row is compared with the first row of its group, so a collision
    is seen, not trusted. A row's id is then the number of first rows
    before its group's. Several arrays are joined once; the hash and the
    check run in row blocks, so no int64 copy of all the rows is made."""
    rows = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    weights = _row_weights(rows.shape[1])
    step = max(1, HASH_BLOCK // rows.shape[1])
    keys = np.empty(len(rows), dtype=np.int64)
    for i in range(0, len(rows), step):
        np.matmul(rows[i : i + step].astype(np.int64, copy=False), weights, out=keys[i : i + step])
    order = np.argsort(keys)
    keys = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    firsts = np.minimum.reduceat(order, np.flatnonzero(new))
    first_of = np.empty(len(rows), dtype=np.int64)
    first_of[order] = firsts[np.cumsum(new) - 1]
    for i in range(0, len(rows), step):
        if not np.array_equal(rows[i : i + step], rows[first_of[i : i + step]]):
            return None
    is_first = np.zeros(len(rows), dtype=bool)
    is_first[firsts] = True
    ids = (np.cumsum(is_first) - 1)[first_of]
    bounds = list(accumulate(map(len, arrays), initial=0))
    return [ids[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _initial_ids(graphs: Sequence[Graph], spaces: Sequence[TupleSpace]) -> list[np.ndarray]:
    """Initial ids through one table. A tuple's int32 row is the label id of
    each position, then the upper triangle of its (symmetric) atomic type:
    for each position pair i < j in row-major order, one flat gather of the
    graph's pair types (``Graph.pair_types``) at the two nodes."""
    label_ids = _dense_relabel([graph.labels for graph in graphs])
    row_arrays = []
    for graph, space, labels in zip(graphs, spaces, label_ids):
        k, n, nodes = space.k, space.num_nodes, space.nodes
        rows = np.empty((len(nodes), k + k * (k - 1) // 2), dtype=np.int32)
        rows[:, :k] = np.asarray(labels, dtype=np.int32)[nodes]
        # At k = 1 there is no pair, and no n x n matrix is built.
        for col, (i, j) in enumerate(zip(*np.triu_indices(k, 1)), start=k):
            rows[:, col] = graph.pair_types.ravel()[nodes[:, i] * n + nodes[:, j]]
        row_arrays.append(rows)
    return _relabel_rows(row_arrays)


class _Plan(NamedTuple):
    """What a round reads on one graph of order ``k`` on ``n`` nodes.

    ``fibers`` is True under the full rules, whose rows hold the k fiber ids
    of the ``(n,) * k`` color grid. ``width`` is the neighbor block width,
    the largest degree of the graphs, or 0 under ``kwl`` at k > 1. Where
    blocks are read, a full space has ``table``, the neighbor table padded
    with -1 to that width and each -1 mapped to n, and a restricted space
    has ``index``, each position's ``TupleSpace.substitute`` index."""

    k: int
    n: int
    fibers: bool
    width: int
    table: np.ndarray | None
    index: Sequence[np.ndarray]


def _gather_plans(
    graphs: Sequence[Graph], spaces: Sequence[TupleSpace], variant: str
) -> list[_Plan]:
    """What a round reads, per graph. Every rule but ``kwl`` at k > 1 reads,
    at each position j, the colors of the tuples reached by putting a
    neighbor of the replaced node at j, padded with -1 up to the largest
    degree of the graphs. A full space reads them along its color grid, so
    only a restricted space plans which tuples they are
    (``TupleSpace.substitute``). A plan depends on the graphs and spaces
    only, so a run builds it once."""
    k = spaces[0].k
    local = _is_local(variant, k)
    width = 0
    if local or variant == "delta_kwl":
        width = max(graph.neighbor_array.shape[1] for graph in graphs)
    plans = []
    for graph, space in zip(graphs, spaces):
        table, index = None, []
        if width:
            nbrs = graph.neighbor_array
            nbrs = np.pad(nbrs, ((0, 0), (0, width - nbrs.shape[1])), constant_values=-1)
            if space.s == k:
                table = np.where(nbrs < 0, space.num_nodes, nbrs)
            else:
                index = [space.substitute(j, nbrs[space.nodes[:, j]]) for j in range(k)]
        plans.append(_Plan(k, space.num_nodes, not local, width, table, index))
    return plans


def _summary_ids(plans: Sequence[_Plan], color_lists: Sequence[Sequence[int]]) -> list[np.ndarray]:
    """One round on every graph through one table. A tuple's row is
    ``[old color | fiber ids | sorted neighbor blocks]``, written in place
    into one int32 array per graph. Under the full rules, fiber id j numbers
    the sorted colors along axis j of the color grid through the tuple,
    through one table shared by every graph. Block j holds the colors of the
    tuples reached through the neighbors of the node at j, and -1 for
    padding and for tuples off the space. A full space takes them along axis
    j of its grid, padded with a -1 slice, at the plan's neighbor table; a
    restricted space reads them at the plan's substitute index."""
    colors = [np.asarray(c, dtype=np.int32) for c in color_lists]
    fiber_rows = []
    for plan, flat in zip(plans, colors):
        if plan.fibers:
            grid = flat.reshape((plan.n,) * plan.k)
            for j in range(plan.k):
                fiber_rows.append(np.sort(np.moveaxis(grid, j, -1).reshape(-1, plan.n), axis=1))
    fiber_ids = iter(_relabel_rows(fiber_rows))
    row_arrays = []
    for (k, n, fibers, width, table, index), flat in zip(plans, colors):
        shape = (n,) * k
        first = 1 + k * fibers  # the first column of the neighbor blocks
        rows = np.empty((len(flat), first + k * width), dtype=np.int32)
        rows[:, 0] = flat
        if fibers:
            for j in range(k):
                ids = next(fiber_ids).astype(np.int32).reshape(shape[:j] + shape[j + 1 :])
                rows[:, 1 + j].reshape(shape)[...] = np.expand_dims(ids, j)
        blocks = [rows[:, first + j * width : first + (j + 1) * width] for j in range(k)]
        if table is not None:
            padded = np.full((n + 1,) * k, -1, dtype=np.int32)
            padded[(slice(n),) * k] = flat.reshape(shape)
            for j, block in enumerate(blocks):
                along_j = padded[(slice(n),) * j + (slice(None),) + (slice(n),) * (k - 1 - j)]
                out = np.moveaxis(block.reshape(shape + (width,)), k, j + 1)
                # The table's entries lie in 0..n, so "clip" moves none; unlike
                # the default mode it writes to ``out`` without a buffer.
                np.take(along_j, table, axis=j, out=out, mode="clip")
        elif index:
            padded = np.append(flat, np.int32(-1))
            for block, at in zip(blocks, index):
                np.take(padded, at, out=block, mode="wrap")  # -1 wraps to the sentinel
        for block in blocks:
            block.sort(axis=1)
        row_arrays.append(rows)
    return _relabel_rows(row_arrays)


def initial_coloring(graph: Graph, space: TupleSpace) -> Coloring:
    """Color tuples by atomic type and label sequence, with canonical ids."""
    return Coloring(space, _initial_ids([graph], [space])[0], 0)


def refine_step(graph: Graph, space: TupleSpace, coloring: Coloring, variant: str) -> Coloring:
    """One refinement round under the chosen rule.

    The gather plan is kept on the space per rule, with the graph it was
    built for, so the rounds of one run plan once. Colors outside
    0..``INT32_MAX`` raise INVALID_SCHEMA.
    """
    _check_request(space.k, space.s, variant)
    if coloring.space != space:
        raise ValidationError(SPACE_MISMATCH, "coloring was built for a different tuple space")
    # A round reads -1 as padding and colors as int32, so a color outside
    # that range would be merged with the padding or with another color.
    if not 0 <= coloring.colors.min() <= coloring.colors.max() <= INT32_MAX:
        raise ValidationError(INVALID_SCHEMA, f"colors must lie in 0..{INT32_MAX}")
    planned = space._plans.get(variant)
    if planned is None or planned[0] is not graph:
        planned = space._plans[variant] = (graph, _gather_plans([graph], [space], variant)[0])
    ids = _summary_ids([planned[1]], [coloring.colors])[0]
    return Coloring(space, ids, coloring.iteration + 1)


def refine_to_stable(
    graph: Graph,
    k: int,
    s: int,
    variant: str,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> list[Coloring]:
    """Run refinement to its fixed point.

    Returns the colorings that changed the partition, starting with the
    initial one; the first round that reproduces the previous partition is
    discarded, and is not computed once the partition is discrete. A
    partition can strictly refine at most ``|tuples| - 1`` times, so the
    iteration cap only guards against implementation bugs.
    """
    _check_request(k, s, variant)
    _check_max_iterations(max_iterations)
    space = enumerate_tuples(graph, k, s)
    return _refine_until_stable(graph, initial_coloring(graph, space), variant, max_iterations)


def _refine_until_stable(
    graph: Graph, start: Coloring, variant: str, max_iterations: int = DEFAULT_MAX_ITERATIONS
) -> list[Coloring]:
    """``refine_to_stable`` from a coloring already built on its space."""
    out = [start]
    for _ in range(max_iterations):
        if _is_discrete(out[-1].colors):
            return out
        nxt = refine_step(graph, start.space, out[-1], variant)
        if np.array_equal(nxt.colors, out[-1].colors):
            return out
        out.append(nxt)
    raise LimitError(
        ITERATION_LIMIT, f"no stable partition within {max_iterations} rounds"
    )


def _is_discrete(colors: np.ndarray) -> bool:
    """True when every tuple has its own color, numbered 0, 1, ... in row
    order. Such a coloring is the next round's too: its rows differ in their
    first entry, so first-occurrence ids number them 0, 1, ... again."""
    return colors.max() + 1 == len(colors) and np.array_equal(colors, np.arange(len(colors)))


def _exhibits_isomorphism(
    g: Graph, h: Graph, space_g: TupleSpace, space_h: TupleSpace, colors_h: np.ndarray
) -> bool:
    """True when g's discrete coloring (its colors are its rows) is carried
    onto h's, which holds the same colors (equal histograms), by a graph
    isomorphism: the node map pi that sends v to the node whose diagonal
    tuple (pi(v), ..., pi(v)) of h has the color of (v, ..., v) in g is a
    bijection that preserves adjacency, and every tuple v of g has the
    color of the tuple pi(v) of h.

    Every round reads a tuple's color, the colors of the tuples reached
    by substitution and whether the substituted nodes are adjacent, so pi
    carries the next round's row of each tuple of g onto that of its image,
    and the next round reproduces both colorings."""
    k, n = space_g.k, space_g.num_nodes
    diagonal = np.arange(n) * sum(space_g.strides)
    if space_g.s < k:  # a diagonal tuple induces one component, so it is kept
        diagonal = space_g._position[diagonal]
    row_of = np.empty(len(colors_h), dtype=np.int64)
    row_of[colors_h] = np.arange(len(colors_h))
    images = space_h.nodes[row_of[diagonal]]
    pi = images[:, 0]
    if not (images == pi[:, None]).all():
        return False
    # pi preserves adjacency when it maps g's edges onto h's, whose keys
    # u * n + v (u < v) ascend. No n x n matrix is built.
    key = np.array([n, 1], dtype=np.int64)
    ends = np.sort(pi[np.array(g.edges, dtype=np.int64)], axis=1)
    if not np.array_equal(np.sort(ends @ key), np.array(h.edges, dtype=np.int64) @ key):
        return False
    flat = pi[space_g.nodes] @ np.array(space_h.strides, dtype=np.int64)
    rows = flat if space_h.s == k else space_h._position[flat]
    return np.array_equal(rows, row_of)


def distinguish(
    g: Graph,
    h: Graph,
    variant: str,
    k: int,
    s: int,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> DistinguishResult:
    """Decide whether refinement tells two graphs apart.

    Both graphs are refined in lockstep through one shared relabel table
    (initial round included), which makes their color histograms directly
    comparable. The run stops at the first iteration whose histograms
    differ, or once the joint partition stops changing. A round that would
    reproduce both colorings is not computed when g's coloring is discrete
    and an isomorphism carries it onto h's (``_exhibits_isomorphism``), so
    the verdict, its iteration and the cap's refusal are those of the run
    that computes it.
    """
    _check_request(k, s, variant)
    _check_max_iterations(max_iterations)
    space_g = enumerate_tuples(g, k, s)
    space_h = enumerate_tuples(h, k, s)
    colors_g, colors_h = _initial_ids([g, h], [space_g, space_h])
    plans = None
    iteration = 0
    while True:
        if not np.array_equal(np.bincount(colors_g), np.bincount(colors_h)):
            return DistinguishResult(True, iteration)
        if iteration >= max_iterations:
            raise LimitError(
                ITERATION_LIMIT, f"no joint stable partition within {max_iterations} rounds"
            )
        if _is_discrete(colors_g) and _exhibits_isomorphism(g, h, space_g, space_h, colors_h):
            return DistinguishResult(False, None)
        if plans is None:
            plans = _gather_plans([g, h], [space_g, space_h], variant)
        next_g, next_h = _summary_ids(plans, [colors_g, colors_h])
        if np.array_equal(next_g, colors_g) and np.array_equal(next_h, colors_h):
            return DistinguishResult(False, None)
        colors_g, colors_h = next_g, next_h
        iteration += 1


def run_to_dict(colorings: Sequence[Coloring], variant: str) -> dict:
    """The document of a refinement run, as ``refine`` writes it.

    ``colors_per_iteration`` holds each round's ``Coloring.colors`` and
    ``histograms`` the class sizes of each round: read-only int64 arrays,
    not lists, which the CLI's JSON writer writes as the lists of their
    entries without a Python int per entry.
    """
    space = colorings[0].space
    histograms = [np.bincount(c.colors) for c in colorings]
    for histogram in histograms:
        histogram.setflags(write=False)
    return {
        "k": space.k,
        "s": space.s,
        "variant": variant,
        "iterations": len(colorings),
        "colors_per_iteration": [c.colors for c in colorings],
        "histograms": histograms,
    }
