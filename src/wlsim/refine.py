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

A round gathers the colors through ``TupleSpace.substitute``, sorts each
position block and numbers the rows by first occurrence in enumeration
order, so two runs over the same input produce identical arrays and a
repeated partition shows up as a repeated array.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Sequence

import numpy as np

from .errors import (
    INVALID_SCHEMA,
    ITERATION_LIMIT,
    MEMORY_LIMIT,
    SPACE_MISMATCH,
    VARIANT_MISMATCH,
    LimitError,
    ValidationError,
)
from .graphs import Graph, atomic_types

VARIANTS = ("kwl", "delta_kwl", "delta_klwl", "ks_lwl")

DEFAULT_MEMORY_LIMIT = 2_000_000
DEFAULT_MAX_ITERATIONS = 64


@dataclass(frozen=True)
class TupleSpace:
    """Enumerated tuple domain of one graph.

    For s = k this is all ``num_nodes ** k`` tuples in row-major order; for
    s < k only the tuples whose induced subgraph has at most ``s`` connected
    components survive, in the same relative order.
    """

    k: int
    s: int
    num_nodes: int
    tuples: tuple[tuple[int, ...], ...]

    @cached_property
    def index_of(self) -> dict[tuple[int, ...], int]:
        return {v: i for i, v in enumerate(self.tuples)}

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Row-major position weights of the full space's flat index."""
        return tuple(self.num_nodes ** (self.k - 1 - j) for j in range(self.k))

    @cached_property
    def nodes(self) -> np.ndarray:
        """The tuples as a ``(t, k)`` integer array."""
        return np.array(self.tuples, dtype=np.int64).reshape(len(self.tuples), self.k)

    @cached_property
    def _flat(self) -> np.ndarray:
        """Row-major flat index of every tuple in the full space."""
        return self.nodes @ np.array(self.strides, dtype=np.int64)

    @cached_property
    def _position(self) -> np.ndarray:
        """Map of size ``n ** k`` from the flat index to the index in
        ``tuples``, -1 off the space."""
        position = np.full(self.num_nodes**self.k, -1, dtype=np.int32)
        position[self._flat] = np.arange(len(self.tuples), dtype=np.int32)
        return position

    def substitute(self, j: int, nodes: np.ndarray) -> np.ndarray:
        """Entry ``[i, c]`` is the index of tuple ``i`` with node
        ``nodes[i, c]`` at position ``j``, or -1 where that node is -1 or
        that tuple is off the space (int32, shaped like ``nodes``)."""
        stride = self.strides[j]
        rest = self._flat - self.nodes[:, j] * stride
        # A -1 node lands on a valid (negative) index; the mask drops it.
        found = self._position[rest[:, None] + nodes * stride]
        return np.where(nodes < 0, np.int32(-1), found)

    @cached_property
    def substitution(self) -> np.ndarray:
        """``substitute`` at every position with every node: entry
        ``[j, i, w]`` is the index of tuple ``i`` with node ``w`` at
        position ``j``, or -1 off the space (int32, shape ``(k, t, n)``)."""
        every = np.broadcast_to(np.arange(self.num_nodes), (len(self.tuples), self.num_nodes))
        return np.stack([self.substitute(j, every) for j in range(self.k)])


@dataclass(frozen=True)
class Coloring:
    """Dense tuple coloring produced by one refinement round."""

    space: TupleSpace
    colors: tuple[int, ...]
    iteration: int

    @property
    def num_colors(self) -> int:
        return max(self.colors) + 1

    def histogram(self) -> tuple[int, ...]:
        """Tuple count per color id."""
        counts = [0] * self.num_colors
        for c in self.colors:
            counts[c] += 1
        return tuple(counts)


@dataclass(frozen=True)
class DistinguishResult:
    distinguished: bool
    at_iteration: int | None


def _component_count(graph: Graph, tup: tuple[int, ...]) -> int:
    """Connected components of the subgraph induced by the tuple's nodes."""
    left, count = set(tup), 0
    while left:
        count += 1
        stack = [left.pop()]
        while stack:
            reach = graph.neighbor_sets[stack.pop()] & left
            left -= reach
            stack.extend(reach)
    return count


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
        tuples = tuple(itertools.product(range(n), repeat=k))
    else:
        tuples = tuple(
            v
            for v in itertools.product(range(n), repeat=k)
            if _component_count(graph, v) <= s
        )
    return TupleSpace(k=k, s=s, num_nodes=n, tuples=tuples)


def _dense_relabel(key_lists: Sequence[Sequence[Hashable]]) -> list[list[int]]:
    """Map keys to dense ids by first occurrence, shared across all lists."""
    table: dict[Hashable, int] = {}
    out: list[list[int]] = []
    for keys in key_lists:
        ids = []
        for key in keys:
            nid = table.get(key)
            if nid is None:
                nid = len(table)
                table[key] = nid
            ids.append(nid)
        out.append(ids)
    return out


def _relabel_rows(row_arrays: Sequence[np.ndarray]) -> list[list[int]]:
    """``_dense_relabel`` over integer rows, each keyed by its bytes."""
    keys = []
    for rows in map(np.ascontiguousarray, row_arrays):
        whole_row = np.dtype((np.void, rows.itemsize * rows.shape[1]))
        keys.append(rows.view(whole_row).ravel().tolist())
    return _dense_relabel(keys)


def _initial_ids(graphs: Sequence[Graph], spaces: Sequence[TupleSpace]) -> list[list[int]]:
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


def _summary_ids(
    graphs: Sequence[Graph],
    spaces: Sequence[TupleSpace],
    color_lists: Sequence[Sequence[int]],
    variant: str,
) -> list[list[int]]:
    """One round on every graph through one table. A tuple's row is
    ``[old color | sorted block of position 1 | ... | position k]``. Block j
    holds the colors of the tuples reached by substituting at j: for every
    node under the full rules (``2 * color + adjacent`` under ``delta_kwl``),
    for the neighbors of the replaced node under the local rules, with -1
    off the space and -1 padding up to the largest degree of the graphs."""
    local = _is_local(variant, spaces[0].k)
    width = max(graph.neighbor_array.shape[1] for graph in graphs)
    row_arrays = []
    for graph, space, colors in zip(graphs, spaces, color_lists):
        colors = np.asarray(colors, dtype=np.int32)
        padded = np.append(colors, np.int32(-1))  # index -1 reads this sentinel
        nbrs = graph.neighbor_array
        nbrs = np.pad(nbrs, ((0, 0), (0, width - nbrs.shape[1])), constant_values=-1)
        blocks = [colors[:, None]]
        for j in range(space.k):
            here = space.nodes[:, j]
            if local:
                block = padded[space.substitute(j, nbrs[here])]
            else:
                block = padded[space.substitution[j]]
                if variant == "delta_kwl":
                    block = 2 * block + graph.adjacency_matrix[here]
            block.sort(axis=1)
            blocks.append(block)
        row_arrays.append(np.hstack(blocks))
    return _relabel_rows(row_arrays)


def initial_coloring(graph: Graph, space: TupleSpace) -> Coloring:
    """Color tuples by atomic type and label sequence, with canonical ids."""
    ids = _initial_ids([graph], [space])[0]
    return Coloring(space, tuple(ids), 0)


def refine_step(graph: Graph, space: TupleSpace, coloring: Coloring, variant: str) -> Coloring:
    """One refinement round under the chosen rule."""
    _check_variant_space(variant, space.k, space.s)
    if coloring.space != space:
        raise ValidationError(SPACE_MISMATCH, "coloring was built for a different tuple space")
    ids = _summary_ids([graph], [space], [coloring.colors], variant)[0]
    return Coloring(space, tuple(ids), coloring.iteration + 1)


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
    current = initial_coloring(graph, space)
    out = [current]
    for _ in range(max_iterations):
        nxt = refine_step(graph, space, current, variant)
        if nxt.colors == current.colors:
            return out
        out.append(nxt)
        current = nxt
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
    iteration = 0
    while True:
        if Counter(colors_g) != Counter(colors_h):
            return DistinguishResult(True, iteration)
        if iteration >= max_iterations:
            raise LimitError(
                ITERATION_LIMIT, f"no joint stable partition within {max_iterations} rounds"
            )
        next_g, next_h = _summary_ids(
            [g, h], [space_g, space_h], [colors_g, colors_h], variant
        )
        if next_g == colors_g and next_h == colors_h:
            return DistinguishResult(False, None)
        colors_g, colors_h = next_g, next_h
        iteration += 1


def refines(a: Coloring, b: Coloring) -> bool:
    """True when every color class of ``a`` sits inside one class of ``b``."""
    if a.space != b.space:
        raise ValidationError(SPACE_MISMATCH, "colorings live on different tuple spaces")
    image: dict[int, int] = {}
    for ca, cb in zip(a.colors, b.colors):
        if image.setdefault(ca, cb) != cb:
            return False
    return True


def run_to_dict(colorings: Sequence[Coloring], variant: str) -> dict:
    """JSON-ready view of a refinement run."""
    space = colorings[0].space
    return {
        "k": space.k,
        "s": space.s,
        "variant": variant,
        "iterations": len(colorings),
        "colors_per_iteration": [list(c.colors) for c in colorings],
        "histograms": [list(c.histogram()) for c in colorings],
    }
