"""Acceptance gate: one test per row of the release checklist.

Each test recomputes its claim from scratch, prints a single verdict line
(visible under ``pytest -s``; under ``pytest -v`` the test name itself is
the pass/fail line), and then asserts the claim exactly as stated.  Rows
that a hand argument shows to be unattainable are still asserted
faithfully; the analysis behind the expected failure lives in the
project's decisions ledger rather than in a weakened test.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from digit_codes import encode_multiset
from graph_helpers import (
    SIZE_LIMIT,
    are_isomorphic_bruteforce,
    attention_error_curve,
    random_graph,
    sign_flip,
)
from wlsim.errors import LimitError
from wlsim.graphs import apply_permutation, builtin_pair
from wlsim.refine import distinguish, enumerate_tuples, initial_coloring, refine_step, refine_to_stable
from wlsim.simulate import (
    ROUNDING_SLACK_LIMIT,
    gnn_reference_step,
    simulate_and_compare,
)
from wlsim.spectral import (
    check_identifying,
    eigh,
    encoder_maps,
    identifying_targets,
    laplacian,
    lpe,
    spe,
)

RESIDUAL_BOUND = 1e-8
ENGINE_VARIANTS = (
    ("kwl", 1, 1),
    ("kwl", 2, 2),
    ("delta_kwl", 2, 2),
    ("delta_klwl", 2, 2),
    ("ks_lwl", 2, 1),
)


def report(number, ok, detail):
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def canon(colors):
    table = {}
    return tuple(table.setdefault(c, len(table)) for c in colors)


def finer_or_equal(fine, coarse):
    """True when every class of ``fine`` sits inside one class of ``coarse``."""
    seen = {}
    for f, c in zip(fine, coarse):
        if seen.setdefault(f, c) != c:
            return False
    return True


def sample_graphs(seed, count, n_hi, connected=False, n_lo=2):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(n_lo, n_hi)
        out.append(random_graph(rng, n, edge_prob=rng.uniform(0.25, 0.75), connected=connected))
    return out


def identifying_samples():
    """The shared 50-graph panel used by the identification criteria."""
    return sample_graphs(515, 50, 10, connected=True)


def test_criterion_01_no_variant_separates_a_graph_from_its_permutation():
    rng = random.Random(11)
    failures = 0
    for _ in range(200):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, edge_prob=rng.uniform(0.2, 0.8))
        perm = list(range(n))
        rng.shuffle(perm)
        h = apply_permutation(g, tuple(perm))
        for variant, k, s in ENGINE_VARIANTS:
            res = distinguish(g, h, variant, k, s)
            if res.distinguished:
                failures += 1
    report(1, failures == 0, f"{failures} false separations over 200 graphs x 5 variants")
    assert failures == 0


def test_criterion_02_hierarchy_witness_pairs():
    """Stated verdicts for the two witness pairs, asserted as listed.

    The two order-2 rows below claim that the plain order-2 rule separates
    each pair.  The engine, the exact digit oracle, and a hand argument
    agree that it does not: both pairs consist of same-size regular graphs
    of equal degree, and without the adjacency-versus-substitution split
    the plain rule's joint histograms coincide at every round.  The full
    blocking analysis is recorded in the decisions ledger.  The assertions
    are kept faithful to the checklist rather than weakened, so this test
    is expected to fail on those two rows.
    """
    verdicts = {}
    for name in ("c6_vs_2c3", "k33_vs_prism"):
        g1, g2 = builtin_pair(name)
        assert are_isomorphic_bruteforce(g1, g2) is False
        verdicts[(name, "1wl")] = distinguish(g1, g2, "kwl", 1, 1).distinguished
        verdicts[(name, "2wl")] = distinguish(g1, g2, "kwl", 2, 2).distinguished
    g1, g2 = builtin_pair("c6_vs_2c3")
    verdicts[("c6_vs_2c3", "ks21")] = distinguish(g1, g2, "ks_lwl", 2, 1).distinguished

    expected = {
        ("c6_vs_2c3", "1wl"): False,
        ("c6_vs_2c3", "2wl"): True,
        ("c6_vs_2c3", "ks21"): True,
        ("k33_vs_prism", "1wl"): False,
        ("k33_vs_prism", "2wl"): True,
    }
    mismatches = sorted(key for key in expected if verdicts[key] != expected[key])
    report(2, not mismatches, f"verdict mismatches: {mismatches or 'none'}")
    assert verdicts[("c6_vs_2c3", "1wl")] is False
    assert verdicts[("k33_vs_prism", "1wl")] is False
    assert verdicts[("c6_vs_2c3", "ks21")] is True
    assert verdicts[("c6_vs_2c3", "2wl")] is True, "plain order-2 cannot split this pair; see ledger"
    assert verdicts[("k33_vs_prism", "2wl")] is True, "plain order-2 cannot split this pair; see ledger"


def test_criterion_03_order_one_local_rule_equals_classic_refinement():
    rng = random.Random(31)
    checked = 0
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 8), edge_prob=rng.uniform(0.25, 0.75), connected=True)
        plain = refine_to_stable(g, 1, 1, "kwl")[-1]
        local = refine_to_stable(g, 1, 1, "ks_lwl")[-1]
        assert canon(plain.colors) == canon(local.colors)
        checked += 1
    report(3, True, f"identical stable partitions on {checked} connected graphs")


def test_criterion_04_adjacency_split_refines_the_plain_rule():
    rng = random.Random(47)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 6), edge_prob=rng.uniform(0.25, 0.75))
        plain = refine_to_stable(g, 2, 2, "kwl")
        split = refine_to_stable(g, 2, 2, "delta_kwl")
        rounds = max(len(plain), len(split))
        for t in range(rounds):
            p = plain[min(t, len(plain) - 1)].colors
            d = split[min(t, len(split) - 1)].colors
            assert finer_or_equal(d, p)
    report(4, True, "delta order-2 is finer or equal at every round on 50 graphs")


def test_criterion_05_spectral_targets_identify_nodes_and_neighborhoods():
    worst_margin = math.inf
    worst_residual = 0.0
    for g in identifying_samples():
        for normalized in (False, True):
            source = "normalized_laplacian" if normalized else "laplacian"
            dec = eigh(laplacian(g, normalized=normalized), source=source)
            worst_residual = max(worst_residual, dec.residual)
            t = identifying_targets(g, normalized=normalized)
            node = check_identifying(t.p_node, t.w_q_node, t.w_k_node, g, "node")
            adj = check_identifying(t.p_adj, t.w_q_adj, t.w_k_adj, g, "adjacency")
            assert node.passed and node.margin >= 0.99
            assert adj.passed
            worst_margin = min(worst_margin, node.margin)
    ok = worst_residual <= RESIDUAL_BOUND
    report(
        5,
        ok,
        f"min node margin {worst_margin:.3f}, max residual {worst_residual:.2e} over 100 runs",
    )
    assert ok


def test_criterion_06_sharpened_attention_reaches_the_walk_matrix():
    """Frobenius error at b = 60 under 1e-8, and no growth along 20/40/60.

    Below about 1e-10 the curve measures eigenfactorization round-off
    rather than softmax sharpness, and round-off may wiggle by a few
    multiples of machine epsilon.  Errors are therefore clamped to that
    floor before the monotonicity comparison; the raw curves are recorded
    in the decisions ledger (DECISIONS.md §7).
    """
    worst = 0.0
    for g in identifying_samples():
        curve = attention_error_curve(g, temperatures=(20.0, 40.0, 60.0))
        worst = max(worst, curve[-1])
        assert curve[-1] < 1e-8
        floored = [max(e, 1e-10) for e in curve]
        assert floored[0] >= floored[1] >= floored[2]
    report(6, True, f"max b=60 error {worst:.2e} over 50 graphs, curve never rises")


def test_criterion_07_single_head_layers_replay_classic_refinement():
    rng = random.Random(71)
    worst_slack = 0.0
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 8), edge_prob=rng.uniform(0.25, 0.75))
        rep = simulate_and_compare(g, 1, 1, "kwl")
        assert rep.all_equal
        assert rep.rounding_slack_max < ROUNDING_SLACK_LIMIT
        worst_slack = max(worst_slack, rep.rounding_slack_max)
    report(7, True, f"100 graphs in lockstep, max rounding slack {worst_slack:.2e}")


def test_criterion_08_four_head_layers_replay_order_two_refinement():
    rng = random.Random(83)
    worst_att = 0.0
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 6), edge_prob=rng.uniform(0.3, 0.8))
        for variant in ("kwl", "delta_kwl"):
            rep = simulate_and_compare(g, 2, 2, variant)
            assert rep.all_equal
            assert rep.max_attention_error < 1e-6
            worst_att = max(worst_att, rep.max_attention_error)
    report(8, True, f"30 graphs x 2 variants in lockstep, max attention error {worst_att:.2e}")


def test_criterion_09_substitution_row_sums_are_degrees_and_codegrees():
    from wlsim.simulate import generalized_adjacency

    rng = random.Random(97)
    cases = [(2, 6, 12), (3, 5, 8)]
    for k, n_hi, count in cases:
        for _ in range(count):
            n = rng.randint(2, n_hi)
            g = random_graph(rng, n, edge_prob=rng.uniform(0.25, 0.75))
            space = enumerate_tuples(g, k, k)
            for j in range(1, k + 1):
                plus = generalized_adjacency(g, k, j, 1, space=space).sum(axis=1)
                minus = generalized_adjacency(g, k, j, -1, space=space).sum(axis=1)
                for i, tup in enumerate(space.tuples):
                    assert plus[i] == len(g.neighbor_sets[tup[j - 1]])
                    assert minus[i] == n - len(g.neighbor_sets[tup[j - 1]])
    report(9, True, "row-sum laws exact for k=2 and k=3 over every sampled position")


def test_criterion_10_local_order_two_token_count_is_nodes_plus_arcs():
    rng = random.Random(101)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 8), edge_prob=rng.uniform(0.2, 0.8))
        m = len(g.edges)
        assert len(enumerate_tuples(g, 2, 1).nodes) == g.num_nodes + 2 * m
    report(10, True, "the (2, 1) space has n + 2m tuples on 100 graphs")


def test_criterion_11_multiset_codes_are_injective():
    grids = ((3, 3), (4, 4), (5, 3))
    for base, positions in grids:
        sets = []
        for order in range(base):
            sets.extend(
                itertools.combinations_with_replacement(range(1, positions + 1), order)
            )
        codes = {encode_multiset(ms, base).digits for ms in sets}
        assert len(codes) == len(sets)
    report(11, True, f"exhaustive distinctness on the {len(grids)} stated (m, P) grids")


def test_criterion_12_digit_oracle_tracks_the_engine_exactly():
    rng = random.Random(113)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 6), edge_prob=rng.uniform(0.25, 0.75))
        for k in (1, 2):
            space = enumerate_tuples(g, k, k)
            engine = oracle = initial_coloring(g, space)
            for _ in range(len(refine_to_stable(g, k, k, "kwl"))):
                engine = refine_step(g, space, engine, "kwl")
                oracle = gnn_reference_step(oracle, g, "kwl")
                assert canon(oracle.colors) == canon(engine.colors)
    report(12, True, "engine and digit oracle agree at every round, k in {1, 2}, 50 graphs")


class _BarePairs:
    """Unordered (eigenvalues, eigenvectors) carrier for the encoders."""

    def __init__(self, values, vectors):
        self.eigenvalues = np.asarray(values, dtype=float)
        self.eigenvectors = np.asarray(vectors, dtype=float)

    @property
    def n(self):
        return self.eigenvalues.shape[0]


def test_criterion_13_encoders_ignore_signs_and_eigenpair_order():
    worst = 0.0
    for seed in range(20):
        rng = random.Random(1000 + seed)
        g = random_graph(rng, rng.randint(3, 8), edge_prob=rng.uniform(0.3, 0.8), connected=True)
        n = g.num_nodes
        dec = eigh(laplacian(g), source="laplacian")
        # No separation epsilon here: that step perturbs eigenvalues by
        # their position in the ascending order, which is exactly what a
        # reordered input scrambles.  The invariance claim is about the
        # unperturbed DeepSet sum.
        spe_maps = encoder_maps("spe", seed, n, 6)
        lpe_maps = encoder_maps("lpe", seed, n, 6)

        flipped = sign_flip(dec, seed=seed + 7)
        delta_spe = float(np.abs(spe(dec, *spe_maps, n) - spe(flipped, *spe_maps, n)).max())

        order = list(range(n))
        rng.shuffle(order)
        shuffled = _BarePairs(dec.eigenvalues[order], dec.eigenvectors[:, order])
        delta_lpe = float(np.abs(lpe(dec, *lpe_maps) - lpe(shuffled, *lpe_maps)).max())

        worst = max(worst, delta_spe, delta_lpe)
        assert delta_spe <= 1e-10
        assert delta_lpe <= 1e-10
    report(13, True, f"max output delta {worst:.2e} over 20 seeded configurations")


def test_criterion_14_strongly_regular_pair_resists_plain_order_three():
    g1, g2 = builtin_pair("shrikhande_vs_rook")
    assert g1.num_nodes == g2.num_nodes == 16
    assert len(enumerate_tuples(g1, 3, 3).tuples) == 4096

    # The exhaustive isomorphism oracle refuses 16-node inputs by design.
    with pytest.raises(LimitError) as err:
        are_isomorphic_bruteforce(g1, g2)
    assert err.value.code == SIZE_LIMIT

    # Vetting the stored pair without the oracle: in one graph every
    # vertex neighborhood contains triangles, in the other none does, so
    # no isomorphism can exist.
    def neighborhood_triangles(g, v):
        nbs = sorted(g.neighbor_sets[v])
        count = 0
        for a, b, c in itertools.combinations(nbs, 3):
            if b in g.neighbor_sets[a] and c in g.neighbor_sets[b] and c in g.neighbor_sets[a]:
                count += 1
        return count

    rook_counts = {neighborhood_triangles(g2, v) for v in range(16)}
    shrik_counts = {neighborhood_triangles(g1, v) for v in range(16)}
    assert rook_counts == {2} and shrik_counts == {0}

    start = time.perf_counter()
    res = distinguish(g1, g2, "kwl", 3, 3)
    elapsed = time.perf_counter() - start
    ok = res.distinguished is False and elapsed < 60.0
    report(14, ok, f"plain order-3 blind to the pair, {elapsed:.1f}s over 4096 tuples per graph")
    assert res.distinguished is False
    assert elapsed < 60.0
