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
blocks only. A run plans, once, which tuples each neighbor block reads
(``TupleSpace.substitute``). A round then gathers and sorts the blocks and
numbers the rows by first occurrence in enumeration order, so two runs over
the same input produce identical arrays and a repeated partition shows up
as a repeated array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Hashable, Iterable, Sequence

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
from .graphs import Graph, atomic_types

VARIANTS = ("kwl", "delta_kwl", "delta_klwl", "ks_lwl")

DEFAULT_MEMORY_LIMIT = 2_000_000
DEFAULT_MAX_ITERATIONS = 64

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

    def __hash__(self) -> int:
        return hash((self.k, self.s, self.num_nodes, self.nodes.tobytes()))

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
    def substitution(self) -> np.ndarray:
        """``substitute`` at every position with every node: entry
        ``[j, i, w]`` is the index of tuple ``i`` with node ``w`` at
        position ``j``, or -1 off the space (int32, shape ``(k, t, n)``)."""
        every = np.broadcast_to(np.arange(self.num_nodes), (len(self.nodes), self.num_nodes))
        return np.stack([self.substitute(j, every) for j in range(self.k)])

    @cached_property
    def _plans(self) -> dict:
        """``refine_step``'s gather plan per rule, with the graph it is for."""
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


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValidationError(
            INVALID_SCHEMA, f"unknown variant {variant!r}, expected one of {', '.join(VARIANTS)}"
        )


def _check_variant_space(variant: str, k: int, s: int) -> None:
    """Reject unknown variants and restricted spaces (s < k) for every rule but ks_lwl."""
    _check_variant(variant)
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


def enumerate_tuples(
    graph: Graph, k: int, s: int, memory_limit: int = DEFAULT_MEMORY_LIMIT
) -> TupleSpace:
    """Build the ordered tuple domain for refinement.

    Raises
    ------
    LimitError
        With code ``MEMORY_LIMIT`` when the unrestricted candidate count
        ``num_nodes ** k`` exceeds ``memory_limit`` (the restricted space is
        found by filtering, so the full sweep is unavoidable either way).
    """
    _check_order(k, s)
    n = graph.num_nodes
    if n**k > memory_limit:
        raise LimitError(
            MEMORY_LIMIT,
            f"tuple space of size {n}^{k} = {n ** k} exceeds the cap of {memory_limit}",
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
    """Initial ids through one table. A tuple's row is the label id of each
    position, then the upper triangle of its (symmetric) atomic type."""
    label_ids = _dense_relabel([graph.labels for graph in graphs])
    row_arrays = []
    for graph, space, labels in zip(graphs, spaces, label_ids):
        above = np.triu_indices(space.k, 1)
        types = atomic_types(graph, space.nodes)[:, above[0], above[1]]
        labels = np.asarray(labels, dtype=np.int32)[space.nodes]
        row_arrays.append(np.hstack([labels, types.astype(np.int32)]))
    return _relabel_rows(row_arrays)


def _gather_plans(
    graphs: Sequence[Graph], spaces: Sequence[TupleSpace], variant: str
) -> list[tuple[tuple[int, ...] | None, list[np.ndarray]]]:
    """What a round reads, per graph: the grid shape ``(n,) * k`` whose
    fibers the full rules sort (None under the local rules), and at each
    position j the index of every tuple reached by putting a neighbor of the
    replaced node at j (none under ``kwl`` at k > 1), with -1 off the space
    and -1 padding up to the largest degree of the graphs. It depends on the
    graphs and spaces only, so a run builds it once."""
    k = spaces[0].k
    local = _is_local(variant, k)
    if variant == "kwl" and not local:
        return [((space.num_nodes,) * k, []) for space in spaces]
    width = max(graph.neighbor_array.shape[1] for graph in graphs)
    plans = []
    for graph, space in zip(graphs, spaces):
        nbrs = graph.neighbor_array
        nbrs = np.pad(nbrs, ((0, 0), (0, width - nbrs.shape[1])), constant_values=-1)
        blocks = [space.substitute(j, nbrs[space.nodes[:, j]]) for j in range(k)]
        plans.append((None if local else (space.num_nodes,) * k, blocks))
    return plans


def _summary_ids(
    plans: Sequence[tuple[tuple[int, ...] | None, Sequence[np.ndarray]]],
    color_lists: Sequence[Sequence[int]],
) -> list[np.ndarray]:
    """One round on every graph through one table. A tuple's row is
    ``[old color | fiber ids | sorted neighbor blocks]``. Under the full
    rules, fiber id j numbers the sorted colors along axis j of the color
    grid through the tuple, through one table shared by every graph. Block j
    holds the colors the plan gathers at j, -1 where it reads -1."""
    colors = [np.asarray(c, dtype=np.int32) for c in color_lists]
    fibers = []
    for (shape, _), flat in zip(plans, colors):
        if shape is not None:
            grid = flat.reshape(shape)
            for j, n in enumerate(shape):
                fibers.append(np.sort(np.moveaxis(grid, j, -1).reshape(-1, n), axis=1))
    fiber_ids = iter(_relabel_rows(fibers))
    row_arrays = []
    for (shape, blocks), flat in zip(plans, colors):
        columns = [flat[:, None]]
        if shape is not None:
            for j in range(len(shape)):
                ids = next(fiber_ids).astype(np.int32)
                ids = np.expand_dims(ids.reshape(shape[:j] + shape[j + 1 :]), j)
                columns.append(np.broadcast_to(ids, shape).reshape(-1, 1))
        padded = np.append(flat, np.int32(-1))  # index -1 reads this sentinel
        for index in blocks:
            block = padded[index]
            block.sort(axis=1)
            columns.append(block)
        row_arrays.append(np.hstack(columns))
    return _relabel_rows(row_arrays)


def initial_coloring(graph: Graph, space: TupleSpace) -> Coloring:
    """Color tuples by atomic type and label sequence, with canonical ids."""
    return Coloring(space, _initial_ids([graph], [space])[0], 0)


def refine_step(graph: Graph, space: TupleSpace, coloring: Coloring, variant: str) -> Coloring:
    """One refinement round under the chosen rule.

    The gather plan is kept on the space per rule, with the graph it was
    built for, so the rounds of one run plan once.
    """
    _check_variant_space(variant, space.k, space.s)
    if coloring.space != space:
        raise ValidationError(SPACE_MISMATCH, "coloring was built for a different tuple space")
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
    memory_limit: int = DEFAULT_MEMORY_LIMIT,
) -> list[Coloring]:
    """Run refinement to its fixed point.

    Returns the colorings that changed the partition, starting with the
    initial one; the first round that reproduces the previous partition is
    discarded. A partition can strictly refine at most ``|tuples| - 1``
    times, so the iteration cap only guards against implementation bugs.
    """
    _check_max_iterations(max_iterations)
    space = enumerate_tuples(graph, k, s, memory_limit=memory_limit)
    _check_variant_space(variant, k, s)
    return _refine_until_stable(graph, initial_coloring(graph, space), variant, max_iterations)


def _refine_until_stable(
    graph: Graph, start: Coloring, variant: str, max_iterations: int = DEFAULT_MAX_ITERATIONS
) -> list[Coloring]:
    """``refine_to_stable`` from a coloring already built on its space."""
    out = [start]
    for _ in range(max_iterations):
        nxt = refine_step(graph, start.space, out[-1], variant)
        if np.array_equal(nxt.colors, out[-1].colors):
            return out
        out.append(nxt)
    raise LimitError(
        ITERATION_LIMIT, f"no stable partition within {max_iterations} rounds"
    )


def distinguish(
    g: Graph,
    h: Graph,
    variant: str,
    k: int,
    s: int,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    memory_limit: int = DEFAULT_MEMORY_LIMIT,
) -> DistinguishResult:
    """Decide whether refinement tells two graphs apart.

    Both graphs are refined in lockstep through one shared relabel table
    (initial round included), which makes their color histograms directly
    comparable. The run stops at the first iteration whose histograms
    differ, or once the joint partition stops changing.
    """
    _check_variant(variant)
    _check_max_iterations(max_iterations)
    space_g = enumerate_tuples(g, k, s, memory_limit=memory_limit)
    space_h = enumerate_tuples(h, k, s, memory_limit=memory_limit)
    _check_variant_space(variant, k, s)
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
        if plans is None:
            plans = _gather_plans([g, h], [space_g, space_h], variant)
        next_g, next_h = _summary_ids(plans, [colors_g, colors_h])
        if np.array_equal(next_g, colors_g) and np.array_equal(next_h, colors_h):
            return DistinguishResult(False, None)
        colors_g, colors_h = next_g, next_h
        iteration += 1


def run_to_dict(colorings: Sequence[Coloring], variant: str) -> dict:
    """JSON-ready view of a refinement run."""
    space = colorings[0].space
    return {
        "k": space.k,
        "s": space.s,
        "variant": variant,
        "iterations": len(colorings),
        "colors_per_iteration": [c.colors.tolist() for c in colorings],
        "histograms": [np.bincount(c.colors).tolist() for c in colorings],
    }
