"""Seeded inputs and job lists for the benchmark workloads.

Graphs come from the generators in this file, never from
``wlsim.graphs.random_graph``, so that an edit to the package cannot change
what is measured. Every input is a function of ``(seed, workload, round)``:
``random.Random`` seeded with a string hashes it with SHA-512, which is stable
across processes and Python versions.

A workload is a list of rounds. Every round has the same shape (the same
subcommands, variants, sizes and edge counts) and fresh graphs, so every
seed measures the same mix, and more rounds average over more graphs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Order-3 verdicts of ``wlsim distinguish`` on the builtin pairs, recorded when
# the benchmark was written: (distinguished, at_iteration). The oblivious
# order-3 rule (kwl) cannot split the Shrikhande graph from the rook graph;
# that is the expected answer, not a failure.
BUILTIN_VERDICTS: dict[tuple[str, str], tuple[bool, int | None]] = {
    **{(pair, v): (True, 0) for pair in ("c6_vs_2c3", "k33_vs_prism")
       for v in ("delta", "kwl", "delta-local", "ks-local")},
    ("shrikhande_vs_rook", "delta"): (True, 1),
    ("shrikhande_vs_rook", "kwl"): (False, None),
    ("shrikhande_vs_rook", "delta-local"): (True, 1),
    ("shrikhande_vs_rook", "ks-local"): (True, 1),
}

# CLI flags for the variants. ks-local runs on the tuple space restricted to
# one connected component (s = 1), which takes the engine's dict path.
VARIANT_FLAGS = {
    "delta": ("--variant", "delta"),
    "kwl": ("--variant", "kwl"),
    "delta-local": ("--variant", "delta-local"),
    "ks-local": ("--s", "1", "--variant", "ks-local"),
}


# ---------------------------------------------------------------------------
# Graph generators. A graph is the JSON document the CLI reads.


def connected_graph(rng: random.Random, n: int, m: int) -> dict:
    """A random connected graph with exactly ``n`` nodes and ``m`` edges.

    A random recursive tree guarantees connectivity (and so no isolated
    node); the remaining ``m - n + 1`` edges are drawn uniformly.
    """
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no connected graph with {n} nodes and {m} edges")
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return {"num_nodes": n, "edges": [list(e) for e in sorted(edges)]}


def circulant(n: int, jumps: list[int]) -> dict:
    """The circulant graph C_n(jumps): node i is adjacent to i ± j mod n."""
    edges = {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps}
    return {"num_nodes": n, "edges": [list(e) for e in sorted(edges)]}


def relabel(doc: dict, perm: list[int]) -> dict:
    """The isomorphic copy in which node ``v`` becomes ``perm[v]``."""
    edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in doc["edges"])
    return {"num_nodes": doc["num_nodes"], "edges": [list(e) for e in edges]}


def random_perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# ---------------------------------------------------------------------------
# Jobs.


@dataclass(frozen=True)
class Unit:
    """One or two CLI invocations whose outputs are checked together.

    ``check`` names a checker in ``checks.py``; ``expect`` holds what that
    checker needs to know about the inputs.
    """

    argvs: tuple[tuple[str, ...], ...]
    check: str
    expect: dict = field(default_factory=dict)


class GraphWriter:
    """Writes graph documents as numbered JSON files under one directory."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0

    def __call__(self, doc: dict) -> str:
        self.count += 1
        path = self.directory / f"g{self.count:05d}.json"
        path.write_text(json.dumps(doc))
        return str(path)


# Vertex-transitive circulants C_n(jumps), in every round. Their cost depends
# on the jumps, so the list is fixed and the seed only relabels them.
CIRCULANTS = ((8, (1, 2)), (11, (1, 3)))


def _replay_round(rng: random.Random, write: GraphWriter) -> list[Unit]:
    docs = [connected_graph(rng, n, m) for n, m in ((8, 14), (9, 17), (10, 20))]
    docs += [relabel(circulant(n, list(jumps)), random_perm(rng, n)) for n, jumps in CIRCULANTS]
    units = []
    for doc in docs:
        path = write(doc)
        for flags in VARIANT_FLAGS.values():
            argv = ("simulate", "--graph", path, "--k", "2", *flags)
            units.append(Unit((argv,), "replay"))
    return units


def _separate_round(rng: random.Random, write: GraphWriter) -> list[Unit]:
    units = []
    for variant, flags in VARIANT_FLAGS.items():
        for pair in ("c6_vs_2c3", "k33_vs_prism", "shrikhande_vs_rook"):
            argv = ("distinguish", "--pair", pair, "--k", "3", *flags)
            units.append(Unit((argv,), "verdict", {"verdict": BUILTIN_VERDICTS[pair, variant]}))
    for n, m in ((12, 30), (14, 28), (16, 40)):
        doc = connected_graph(rng, n, m)
        g1, g2 = write(doc), write(relabel(doc, random_perm(rng, n)))
        for flags in VARIANT_FLAGS.values():
            argv = ("distinguish", "--g1", g1, "--g2", g2, "--k", "3", *flags)
            units.append(Unit((argv,), "verdict", {"verdict": (False, None)}))
    doc = connected_graph(rng, 20, 50)
    g1, g2 = write(doc), write(relabel(doc, random_perm(rng, 20)))
    for variant in ("delta", "ks-local"):
        flags = VARIANT_FLAGS[variant]
        argvs = tuple(("refine", "--graph", g, "--k", "3", *flags) for g in (g1, g2))
        units.append(Unit(argvs, "refine_pair"))
    return units


def _encode_round(rng: random.Random, write: GraphWriter) -> list[Unit]:
    units = []
    for n, m in ((40, 234), (52, 140), (64, 320)):
        doc = connected_graph(rng, n, m)
        path = write(doc)
        perm = random_perm(rng, n)
        shape = {"n": n, "m": m}
        units += [
            Unit((("pe", "--graph", path, "--kind", "lpe"),), "pe", shape),
            Unit(
                (("pe", "--graph", path, "--kind", "spe"),
                 ("pe", "--graph", write(relabel(doc, perm)), "--kind", "spe")),
                "spe_pair",
                {**shape, "perm": perm},
            ),
            Unit((("verify-identifying", "--graph", path),), "identifying"),
            Unit((("tokens", "--graph", path, "--k", "2", "--s", "1"),), "tokens", shape),
            Unit((("simulate", "--graph", path, "--k", "1"),), "replay"),
        ]
    return units


@dataclass(frozen=True)
class Workload:
    """A named job mix.

    ``rounds`` rounds are generated during set-up and form the job list that
    a timed run repeats in passes. The count is fixed, so that every commit
    times the same jobs: enough rounds that the list's cost varies little
    from seed to seed, few enough that a 40-second run holds two passes at
    the commit that introduced the benchmark. ``trace_rounds`` is the fixed
    prefix the traced run replays, so its computed counts depend on the seed
    alone.
    """

    name: str
    make_round: Callable[[random.Random, GraphWriter], list[Unit]]
    warmup: tuple[str, ...]
    rounds: int
    trace_rounds: int

    def build(self, seed: int, directory: Path) -> list[list[Unit]]:
        """Generate every round and write its graph files under ``directory``."""
        write = GraphWriter(directory)
        return [
            self.make_round(random.Random(f"{seed}:{self.name}:{r}"), write)
            for r in range(self.rounds)
        ]


# The warm-up job runs on this fixed graph (``{graph}`` in a warm-up argv), so
# set-up time does not depend on the seed.
WARMUP_GRAPH = circulant(8, [1, 2])

WORKLOADS = {
    w.name: w
    for w in (
        # replay: order-2 simulate with every variant, the paper's three-way
        # check. The digit oracle takes about 90% of the time and the
        # eigensolver about 4%, so an oracle change shows here and an
        # eigensolver change should not. Random connected graphs reach many
        # classes quickly, which widens the token rows; the circulants are
        # vertex-transitive, keep the class count low and run more rounds.
        # The oracle's cost grows about as n^5 (a 14-node job alone takes
        # 3 s), so n stays at 8-11.
        Workload(
            name="replay",
            make_round=_replay_round,
            warmup=("simulate", "--graph", "{graph}", "--k", "2", "--variant", "delta"),
            rounds=4,
            trace_rounds=3,
        ),
        # separate: order-3 distinguish and refine. Only the tuple engine
        # runs: no spectral solve, no oracle, no attention. It is used three
        # ways, so a gain for one that costs another shows: early exit on the
        # separated builtin pairs against joint stability on isomorphic
        # controls; the full-space sweep against the dict path of the
        # restricted space (ks-local, s=1); two graphs in lockstep against one
        # graph with a large JSON output (refine at n=20 writes about 400 KB).
        Workload(
            name="separate",
            make_round=_separate_round,
            warmup=("distinguish", "--pair", "shrikhande_vs_rook", "--k", "3", "--variant", "delta"),
            rounds=3,
            trace_rounds=2,
        ),
        # encode: pe (lpe, spe), verify-identifying, tokens and order-1
        # simulate at n=40-64. The Jacobi eigensolver takes about 90% of the
        # time; the oracle and the tuple engine do almost nothing. The large
        # JSON outputs (tokens at n=64 writes about 160 KB) exercise the CLI's
        # own emit path. Each size has its own density, which sets the size
        # n+2m of the s=1 token space.
        Workload(
            name="encode",
            make_round=_encode_round,
            warmup=("verify-identifying", "--graph", "{graph}"),
            rounds=3,
            trace_rounds=2,
        ),
    )
}
