"""Color refinement over node tuples.

One engine drives four refinement rules, selected by name:

``kwl``
    Plain k-dimensional refinement. The round summary of a tuple collects,
    for each position j, the multiset of colors of all tuples reachable by
    substituting position j with any node. For k = 1 this degenerates to
    classic 1-dimensional refinement, which aggregates neighbor colors only.
``delta_kwl``
    Same sweep over all nodes, but every collected color is tagged with a
    flag telling whether the substituted node is adjacent to the replaced
    one. Refines ``kwl`` round for round.
``delta_klwl``
    Local variant: position j only sweeps the neighbors of the node it
    currently holds.
``ks_lwl``
    The local rule run on the component-restricted tuple space (tuples
    whose induced subgraph has at most s connected components). Substituted
    tuples that fall outside the space are skipped.

Colors are dense naturals, assigned by first occurrence in enumeration
order, so two runs over the same input produce identical arrays and a
repeated partition shows up as a repeated array.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Sequence

from .errors import (
    INVALID_SCHEMA,
    ITERATION_LIMIT,
    MEMORY_LIMIT,
    SPACE_MISMATCH,
    VARIANT_MISMATCH,
    LimitError,
    ValidationError,
)
from .graphs import Graph, atomic_type

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
        """Row-major position weights; only meaningful for a full space."""
        return tuple(self.num_nodes ** (self.k - 1 - j) for j in range(self.k))


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
    nodes = sorted(set(tup))
    parent = {x: x for x in nodes}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in itertools.combinations(nodes, 2):
        if b in graph.neighbor_sets[a]:
            parent[find(a)] = find(b)
    return len({find(x) for x in nodes})


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


def _initial_keys(graph: Graph, space: TupleSpace) -> list[Hashable]:
    """Graph-independent initial color keys: atomic type plus label sequence."""
    labels = graph.labels
    keys: list[Hashable] = []
    for v in space.tuples:
        atp = atomic_type(graph, v)
        keys.append((atp.entries, tuple(labels[x] for x in v)))
    return keys


def _summary_keys(
    graph: Graph, space: TupleSpace, colors: Sequence[int], variant: str
) -> list[Hashable]:
    """Per-tuple (old color, neighborhood summary) keys for one round."""
    n = graph.num_nodes
    k = space.k
    nbs = graph.neighbor_sets
    keys: list[Hashable] = []

    if k == 1 and variant == "kwl":
        # Classic single-node refinement aggregates neighbor colors only.
        for i in range(n):
            summary = tuple(sorted(colors[w] for w in nbs[i]))
            keys.append((colors[i], summary))
        return keys

    if variant == "ks_lwl":
        index_of = space.index_of
        for i, v in enumerate(space.tuples):
            parts = []
            for j in range(k):
                items = []
                for w in nbs[v[j]]:
                    idx = index_of.get(v[:j] + (w,) + v[j + 1 :])
                    if idx is not None:
                        items.append(colors[idx])
                items.sort()
                parts.append(tuple(items))
            keys.append((colors[i], tuple(parts)))
        return keys

    strides = space.strides
    for i, v in enumerate(space.tuples):
        parts = []
        for j in range(k):
            stride = strides[j]
            base = i - v[j] * stride
            if variant == "kwl":
                row = [colors[base + w * stride] for w in range(n)]
            elif variant == "delta_kwl":
                nbj = nbs[v[j]]
                row = [
                    (colors[base + w * stride], 1 if w in nbj else 0) for w in range(n)
                ]
            else:  # delta_klwl
                row = [colors[base + w * stride] for w in nbs[v[j]]]
            row.sort()
            parts.append(tuple(row))
        keys.append((colors[i], tuple(parts)))
    return keys


def initial_coloring(graph: Graph, space: TupleSpace) -> Coloring:
    """Color tuples by atomic type and label sequence, with canonical ids."""
    ids = _dense_relabel([_initial_keys(graph, space)])[0]
    return Coloring(space, tuple(ids), 0)


def refine_step(graph: Graph, space: TupleSpace, coloring: Coloring, variant: str) -> Coloring:
    """One refinement round under the chosen rule."""
    _check_variant_space(variant, space.k, space.s)
    if coloring.space != space:
        raise ValidationError(SPACE_MISMATCH, "coloring was built for a different tuple space")
    keys = _summary_keys(graph, space, coloring.colors, variant)
    ids = _dense_relabel([keys])[0]
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
    space_g = enumerate_tuples(g, k, s, memory_limit=memory_limit)
    space_h = enumerate_tuples(h, k, s, memory_limit=memory_limit)
    _check_variant_space(variant, k, s)
    colors_g, colors_h = _dense_relabel(
        [_initial_keys(g, space_g), _initial_keys(h, space_h)]
    )
    iteration = 0
    while True:
        if Counter(colors_g) != Counter(colors_h):
            return DistinguishResult(True, iteration)
        if iteration >= max_iterations:
            raise LimitError(
                ITERATION_LIMIT, f"no joint stable partition within {max_iterations} rounds"
            )
        next_g, next_h = _dense_relabel(
            [
                _summary_keys(g, space_g, colors_g, variant),
                _summary_keys(h, space_h, colors_h, variant),
            ]
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
