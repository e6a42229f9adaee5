"""Shared fixtures: small named graphs and a seeded sampler."""

import random

import pytest

from graph_helpers import random_graph
from wlsim.graphs import Graph


@pytest.fixture
def p3():
    return Graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def k3():
    return Graph(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def c6():
    return Graph(6, [(i, (i + 1) % 6) for i in range(6)])


@pytest.fixture
def single_edge():
    return Graph(2, [(0, 1)])


@pytest.fixture
def graph_samples():
    """Callable returning a deterministic list of random valid graphs."""

    def make(seed, count, n_lo, n_hi, connected=False, label_count=1):
        rng = random.Random(seed)
        return [
            random_graph(
                rng,
                rng.randint(n_lo, n_hi),
                edge_prob=rng.uniform(0.25, 0.75),
                label_count=label_count,
                connected=connected,
            )
            for _ in range(count)
        ]

    return make


@pytest.fixture
def shuffled():
    """Callable drawing a seeded permutation of range(n)."""

    def make(seed, n):
        rng = random.Random(seed)
        perm = list(range(n))
        rng.shuffle(perm)
        return perm

    return make
