"""Laplacians, the canonical LAPACK eigendecomposition, both spectral
encoders, and the score targets whose row maxima identify nodes and
neighborhoods."""

import math
import random
import warnings

import numpy as np
import pytest

from graph_helpers import random_graph, sign_flip
from wlsim import spectral
from wlsim.errors import (
    INVALID_SCHEMA,
    MEMORY_LIMIT,
    NO_CONVERGENCE,
    NON_SYMMETRIC,
    SHAPE_MISMATCH,
    LimitError,
    ValidationError,
)
from wlsim.graphs import Graph, builtin_pair
from wlsim.spectral import (
    arithmetic_epsilon,
    check_identifying,
    eig_count_for,
    eigh,
    encoder_maps,
    identifying_targets,
    laplacian,
    lpe,
    positional_encoding,
    run_mlp,
    seeded_mlp,
    spe,
)


class RawPairs:
    """Bare (eigenvalues, eigenvectors) carrier for feeding the encoders
    inputs the canonical container would reorder."""

    def __init__(self, values, vectors):
        self.eigenvalues = np.asarray(values, dtype=float)
        self.eigenvectors = np.asarray(vectors, dtype=float)

    @property
    def n(self):
        return self.eigenvalues.shape[0]


def random_symmetric(rng, n):
    m = np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)])
    return (m + m.T) / 2


def sorted_canonical(vals, vecs):
    """Column-by-column reference for the canonical form of ``eigh``: flip
    each column so its first entry above 1e-9 in magnitude is positive, then
    sort by (eigenvalue, entries rounded at 1e-9)."""
    vecs = vecs.copy()
    for j in range(vecs.shape[1]):
        lead = np.nonzero(np.abs(vecs[:, j]) > 1e-9)[0]
        if lead.size and vecs[lead[0], j] < 0:
            vecs[:, j] = -vecs[:, j]
    order = sorted(range(len(vals)), key=lambda j: (vals[j], tuple(np.round(vecs[:, j], 9))))
    return vals[order], vecs[:, order]


def degenerate_matrices():
    """Matrices whose spectra repeat: the C6 and K5 Laplacians, the K6
    adjacency and the Shrikhande graph's Laplacian and adjacency."""
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    k5 = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    k6 = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    shrikhande = builtin_pair("shrikhande_vs_rook")[0]
    return [
        laplacian(c6),
        laplacian(k5),
        k6.adjacency_matrix.astype(float),
        laplacian(shrikhande),
        shrikhande.adjacency_matrix.astype(float),
    ]


# ---------------------------------------------------------------- laplacian


def test_single_edge_laplacian(single_edge):
    assert np.array_equal(laplacian(single_edge), [[1, -1], [-1, 1]])


def test_k3_laplacian(k3):
    want = np.full((3, 3), -1.0)
    np.fill_diagonal(want, 2.0)
    assert np.array_equal(laplacian(k3), want)


def test_p3_normalized_laplacian(p3):
    got = laplacian(p3, normalized=True)
    r = -1 / math.sqrt(2)
    want = np.array([[1, r, 0], [r, 1, r], [0, r, 1]])
    assert np.allclose(got, want, atol=1e-15)


def test_laplacian_row_sums_vanish(graph_samples):
    for g in graph_samples(3, 10, 2, 8):
        assert np.allclose(laplacian(g).sum(axis=1), 0.0)


# --------------------------------------------------------------------- eigh


def test_identity_spectrum():
    dec = eigh(np.eye(3))
    assert np.allclose(dec.eigenvalues, [1, 1, 1])
    # the tie on equal eigenvalues is broken by ascending lexicographic
    # order of the eigenvector entries, so (0,0,1) comes first
    assert np.allclose(dec.eigenvectors, np.fliplr(np.eye(3)), atol=1e-12)


def test_single_edge_eigenpairs(single_edge):
    dec = eigh(laplacian(single_edge), source="laplacian")
    assert np.allclose(dec.eigenvalues, [0, 2], atol=1e-12)
    r = 1 / math.sqrt(2)
    # canonical signs: first entry of magnitude above the tolerance positive
    assert np.allclose(dec.eigenvectors[:, 0], [r, r], atol=1e-12)
    assert np.allclose(dec.eigenvectors[:, 1], [r, -r], atol=1e-12)


def test_c6_laplacian_spectrum_by_hand(c6):
    # eigenvalues of the cycle Laplacian are 2 - 2 cos(2 pi k / 6)
    dec = eigh(laplacian(c6), source="laplacian")
    assert np.allclose(dec.eigenvalues, [0, 1, 1, 3, 3, 4], atol=1e-9)


def test_reconstruction_on_random_symmetric_matrices():
    rng = random.Random(5)
    for n in range(2, 9):
        m = random_symmetric(rng, n)
        dec = eigh(m, source="adjacency")
        rebuilt = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        assert np.abs(m - rebuilt).max() <= 1e-8
        assert np.abs(dec.eigenvectors.T @ dec.eigenvectors - np.eye(n)).max() <= 1e-8
        assert np.all(np.diff(dec.eigenvalues) >= 0)
        assert dec.residual <= 1e-8


def test_eigh_rejects_asymmetry():
    with pytest.raises(ValidationError) as exc:
        eigh(np.array([[0.0, 1.0], [0.5, 0.0]]))
    assert exc.value.code == NON_SYMMETRIC


@pytest.mark.parametrize("shape", [(0, 0), (0,), (2, 3)])
def test_eigh_rejects_empty_and_non_square_input(shape):
    with pytest.raises(ValidationError) as exc:
        eigh(np.zeros(shape))
    assert exc.value.code == SHAPE_MISMATCH


def test_lapack_failure_is_a_no_convergence_limit(monkeypatch):
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(LimitError) as exc:
        eigh(np.eye(3))
    assert exc.value.code == NO_CONVERGENCE


def test_canonical_form_matches_the_sorted_key():
    rng = random.Random(23)
    matrices = [random_symmetric(rng, n) for n in (2, 3, 5, 8, 13)] + degenerate_matrices()
    for m in matrices:
        want_vals, want_vecs = sorted_canonical(*np.linalg.eigh(m))
        dec = eigh(m)
        assert np.array_equal(dec.eigenvalues, want_vals)
        assert np.array_equal(dec.eigenvectors, want_vecs)


def test_canonical_form_breaks_exact_ties_like_the_sorted_key(monkeypatch):
    # LAPACK returns repeated eigenvalues that differ in the last bits, so
    # the tie rule is fed exact ties here: eigenvalues rounded at 1e-10,
    # columns shuffled and signs flipped at random.
    real_eigh = np.linalg.eigh
    rng = np.random.default_rng(29)
    for m in degenerate_matrices():
        vals, vecs = real_eigh(m)
        n = len(vals)
        perm = rng.permutation(n)
        raw = (np.round(vals, 10)[perm], vecs[:, perm] * rng.choice([-1.0, 1.0], n))
        assert len(set(raw[0])) < n
        want_vals, want_vecs = sorted_canonical(*raw)
        monkeypatch.setattr(np.linalg, "eigh", lambda matrix: raw)
        dec = eigh(m)
        monkeypatch.undo()
        assert np.array_equal(dec.eigenvalues, want_vals)
        assert np.array_equal(dec.eigenvectors, want_vecs)


def lexsort_reference(m):
    """The canonical form as ``eigh`` computes it when every spectrum is
    sorted: signs flipped, then a lexsort by (eigenvalue, rounded rows) and
    a column gather."""
    vals, vecs = np.linalg.eigh(m)
    lead = np.argmax(np.abs(vecs) > 1e-9, axis=0)
    vecs = vecs * np.where(vecs[lead, np.arange(len(vals))] < 0, -1.0, 1.0)
    order = np.lexsort(np.vstack([np.round(vecs, 9)[::-1], vals]))
    return vals[order], vecs[:, order]


def ascending_matrices():
    """Laplacians, normalized Laplacians and adjacencies of random graphs,
    and random symmetric matrices, whose LAPACK spectra strictly ascend."""
    rng = random.Random(37)
    graphs = [random_graph(rng, n, 0.3, connected=True) for n in (5, 12, 40)]
    matrices = [random_symmetric(rng, n) for n in (2, 7, 30)]
    for g in graphs:
        matrices += [laplacian(g), laplacian(g, normalized=True), g.adjacency_matrix.astype(float)]
    return matrices


def test_a_strictly_ascending_spectrum_skips_the_sort_and_keeps_the_layout():
    for m in ascending_matrices():
        vals = np.linalg.eigh(m)[0]
        assert np.all(vals[1:] > vals[:-1])
        want_vals, want_vecs = lexsort_reference(m)
        dec = eigh(m)
        assert np.array_equal(dec.eigenvalues, want_vals)
        assert np.array_equal(dec.eigenvectors, want_vecs)
        assert dec.eigenvectors.flags.f_contiguous == want_vecs.flags.f_contiguous


def test_shuffled_distinct_eigenvalues_are_still_sorted(monkeypatch):
    # Distinct values out of order have no two equal neighbours, yet only
    # a strictly ascending spectrum may skip the sort.
    real_eigh = np.linalg.eigh
    m = random_symmetric(random.Random(41), 6)
    vals, vecs = real_eigh(m)
    perm = np.array([1, 0, 2, 3, 5, 4])
    raw = (vals[perm], vecs[:, perm])
    monkeypatch.setattr(np.linalg, "eigh", lambda matrix: raw)
    dec = eigh(m)
    monkeypatch.undo()
    want_vals, want_vecs = sorted_canonical(*raw)
    assert np.array_equal(dec.eigenvalues, want_vals)
    assert np.array_equal(dec.eigenvectors, want_vecs)


@pytest.mark.parametrize("normalized", [False, True])
def test_encoder_rows_are_bit_equal_with_the_sort_forced(monkeypatch, normalized):
    # The rows depend on the eigenvectors' layout through v_m @ ..., so a
    # shortcut that handed on another layout would move their last digits.
    rng = random.Random(43)
    for n in (9, 40, 64):
        graph = random_graph(rng, n, 0.2, connected=True)
        kinds = [("lpe", None), ("spe", None), ("spe", n // 2)]
        fast = [positional_encoding(graph, kind, 8, 3, None, rank, normalized)[0] for kind, rank in kinds]
        monkeypatch.setattr(spectral, "_strictly_ascending", lambda vals: False)
        forced = [positional_encoding(graph, kind, 8, 3, None, rank, normalized)[0] for kind, rank in kinds]
        monkeypatch.undo()
        for a, b in zip(fast, forced):
            assert a.tobytes() == b.tobytes()


def test_large_random_matrix_meets_the_residual_and_orthonormality_bounds():
    m = random_symmetric(random.Random(31), 200)
    dec = eigh(m)
    assert dec.residual <= 1e-8
    assert np.abs(dec.eigenvectors.T @ dec.eigenvectors - np.eye(200)).max() <= 1e-8


def test_eigh_is_deterministic():
    m = random_symmetric(random.Random(7), 6)
    a = eigh(m, source="adjacency")
    b = eigh(m, source="adjacency")
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


# ------------------------------------------------------------------- lpe


def test_lpe_stub_reduces_to_component_sums(p3):
    dec = eigh(laplacian(p3), source="laplacian")
    out = lpe(
        dec,
        phi=lambda pairs: pairs[:, :1],
        rho=lambda rows: rows,
    )
    assert np.allclose(out[:, 0], dec.eigenvectors.sum(axis=1))


def test_lpe_ignores_eigenpair_input_order(c6):
    dec = eigh(laplacian(c6), source="laplacian")
    maps = encoder_maps("lpe", 3, 6, 5)
    base = lpe(dec, *maps)
    rng = random.Random(11)
    for _ in range(5):
        perm = list(range(6))
        rng.shuffle(perm)
        shuffled_dec = RawPairs(dec.eigenvalues[perm], dec.eigenvectors[:, perm])
        assert np.allclose(lpe(shuffled_dec, *maps), base, atol=1e-12)


def test_lpe_checks_available_pairs(p3):
    dec = eigh(laplacian(p3), source="laplacian")
    with pytest.raises(ValidationError) as exc:
        lpe(dec, *encoder_maps("lpe", 0, 5, 4), eig_count=5)
    assert exc.value.code == SHAPE_MISMATCH


def test_lpe_is_seed_deterministic(p3):
    dec = eigh(laplacian(p3), source="laplacian")
    a = lpe(dec, *encoder_maps("lpe", 9, 3, 6))
    b = lpe(dec, *encoder_maps("lpe", 9, 3, 6))
    assert np.array_equal(a, b)


# ------------------------------------------------------------------- spe


def test_spe_stub_reduces_to_projector_row_sums(p3):
    dec = eigh(laplacian(p3), source="laplacian")
    out = spe(
        dec,
        phi=lambda lams: np.ones((lams.shape[0], 1)),
        rho=lambda rows: rows,
        rank_m=3,
    )
    # with all channel weights one and full rank, V V^T = I, so each row sum is 1
    assert np.allclose(out, np.ones((3, 1)), atol=1e-10)


def test_spe_is_sign_flip_invariant(graph_samples):
    for i, g in enumerate(graph_samples(13, 6, 2, 7)):
        dec = eigh(laplacian(g), source="laplacian")
        maps = encoder_maps("spe", i, g.num_nodes, 5)
        base = spe(dec, *maps, rank_m=g.num_nodes)
        flipped = spe(sign_flip(dec, seed=i), *maps, rank_m=g.num_nodes)
        assert np.array_equal(base, flipped)


def test_spe_matches_the_projector_tensor():
    # the factored sum against the n x n x m tensor it replaces
    rng = np.random.default_rng(37)
    for n in (1, 2, 5, 12, 30):
        dec = eigh(random_symmetric(random.Random(n), n))
        for rank_m in sorted({1, max(1, n // 2), n}):
            weights = rng.normal(size=(rank_m, 4))
            got = spe(
                dec,
                phi=lambda lams: weights,
                rho=lambda rows: rows,
                rank_m=rank_m,
            )
            v_m = dec.eigenvectors[:, :rank_m]
            want = np.einsum("ve,el,ue->vul", v_m, weights, v_m).sum(axis=1)
            assert np.abs(got - want).max() <= 1e-12


def test_spe_truncation_drops_high_channels():
    # a Laplacian source would hide truncation here: summing over the
    # partner axis zeroes every mean-free eigenvector channel, and only the
    # constant kernel vector survives regardless of rank. A generic
    # symmetric matrix has no such degeneracy.
    m = random_symmetric(random.Random(19), 6)
    dec = eigh(m, source="adjacency")
    maps = encoder_maps("spe", 1, 6, 4)
    full = spe(dec, *maps, rank_m=6)
    truncated = spe(dec, *maps, rank_m=2)
    assert full.shape == truncated.shape == (6, 4)
    assert not np.allclose(full, truncated)


def test_spe_rank_bounds(p3):
    dec = eigh(laplacian(p3), source="laplacian")
    maps = encoder_maps("spe", 0, 3, 4)
    with pytest.raises(ValidationError) as exc:
        spe(dec, *maps, rank_m=0)
    assert exc.value.code == INVALID_SCHEMA
    with pytest.raises(ValidationError):
        spe(dec, *maps, rank_m=4)


# ------------------------------------------------------------- sign_flip


def test_sign_flip_can_be_the_identity(p3):
    dec = eigh(laplacian(p3), source="laplacian")
    same = sign_flip(dec, seed=99)  # this seed draws +1 three times
    assert np.array_equal(same.eigenvectors, dec.eigenvectors)


def test_sign_flip_preserves_the_gram_matrix(c6):
    dec = eigh(laplacian(c6), source="laplacian")
    for seed in (0, 1, 2, 5):
        flipped = sign_flip(dec, seed=seed)
        gram = flipped.eigenvectors.T @ flipped.eigenvectors
        assert np.abs(gram - np.eye(6)).max() <= 1e-8
        assert np.array_equal(flipped.eigenvalues, dec.eigenvalues)


def test_sign_flip_actually_flips(p3):
    dec = eigh(laplacian(p3), source="laplacian")
    flipped = sign_flip(dec, seed=1)
    assert not np.array_equal(flipped.eigenvectors, dec.eigenvectors)
    assert np.allclose(np.abs(flipped.eigenvectors), np.abs(dec.eigenvectors))


# ----------------------------------------------------------- encoder maps


def test_seeded_params_are_reproducible():
    for kind in ("lpe", "spe"):
        a = encoder_maps(kind, 42, 4, 8)
        b = encoder_maps(kind, 42, 4, 8)
        for map_a, map_b in zip(a, b):
            weights_a, weights_b = map_a.args[0], map_b.args[0]
            assert weights_a.keys() == weights_b.keys()
            for key in weights_a:
                assert np.array_equal(weights_a[key], weights_b[key])


def test_params_validation(p3):
    with pytest.raises(ValidationError) as exc:
        encoder_maps("lpe", 0, 0, 4)
    assert exc.value.code == INVALID_SCHEMA
    assert exc.value.message == "eig_count must be positive, got 0"
    with pytest.raises(ValidationError) as exc:
        encoder_maps("lpe", 0, 3, -2)
    assert exc.value.message == "out_dim must be positive, got -2"
    dec = eigh(laplacian(p3), source="laplacian")
    with pytest.raises(ValidationError) as exc:
        lpe(dec, *encoder_maps("lpe", 0, 3, 4), epsilon=[0.1, 0.2])
    assert exc.value.code == SHAPE_MISMATCH
    # A width whose weight blocks exceed the entry cap is refused before a draw.
    with pytest.raises(LimitError) as exc:
        encoder_maps("lpe", 0, 3, 10**12)
    assert exc.value.code == MEMORY_LIMIT
    # So is a channel count whose spe channel blocks exceed it, for either kind.
    for kind in ("lpe", "spe"):
        with pytest.raises(LimitError) as exc:
            encoder_maps(kind, 0, 10**12, 4)
        assert exc.value.code == MEMORY_LIMIT


def reference_rows(graph, kind, dim, seed, eig_count, rank_m, normalized, epsilon):
    """The encoder rows written out from ``seeded_mlp``, ``run_mlp`` and the
    encoders' formulas: lanes 0 and 1 for lpe, 2 and 3 for spe, and a zero
    perturbation when no epsilon is given."""
    n = graph.num_nodes
    count = n if eig_count is None else eig_count
    hidden = max(8, 2 * dim)
    dec = eigh(laplacian(graph, normalized), source="laplacian")
    if kind == "lpe":
        phi = seeded_mlp(seed, 0, 2, hidden, dim)
        rho = seeded_mlp(seed, 1, dim, hidden, dim)
        eps = np.zeros(count) if epsilon is None else epsilon * np.arange(1, count + 1, dtype=float)
        lams = dec.eigenvalues[:count] + eps
        pairs = np.stack(
            [dec.eigenvectors[:, :count].reshape(-1), np.broadcast_to(lams, (n, count)).reshape(-1)],
            axis=1,
        )
        return run_mlp(rho, run_mlp(phi, pairs).reshape(n, count, -1).sum(axis=1))
    phi = seeded_mlp(seed, 2, 1, hidden, count)
    rho = seeded_mlp(seed, 3, count, hidden, dim)
    v_m = dec.eigenvectors[:, : n if rank_m is None else rank_m]
    channel_weights = run_mlp(phi, dec.eigenvalues[: v_m.shape[1], None])
    return run_mlp(rho, v_m @ (channel_weights * v_m.sum(axis=0)[:, None]))


@pytest.mark.parametrize("normalized", [False, True])
def test_a_request_draws_only_the_two_maps_its_kind_reads(monkeypatch, normalized):
    lanes = []

    def recording(seed, index, *shape):
        lanes.append(index)
        return seeded_mlp(seed, index, *shape)

    monkeypatch.setattr(spectral, "seeded_mlp", recording)
    rng = random.Random(29)
    for n in (3, 7, 12):
        graph = random_graph(rng, n, 0.4, connected=True)
        requests = [
            ("lpe", None, None, None),
            ("lpe", None, None, 0.01),
            ("lpe", n - 1, None, None),
            ("lpe", n - 2, None, 0.003),
            ("spe", None, None, None),
            ("spe", None, n - 1, None),
            ("spe", n + 2, 1, None),
        ]
        for kind, eig_count, rank_m, epsilon in requests:
            lanes.clear()
            rows, _ = positional_encoding(graph, kind, 5, 7, eig_count, rank_m, normalized, epsilon)
            assert lanes == ([0, 1] if kind == "lpe" else [2, 3])
            want = reference_rows(graph, kind, 5, 7, eig_count, rank_m, normalized, epsilon)
            assert rows.tobytes() == want.tobytes()


def test_an_eigenpair_count_is_checked_against_the_graph_order():
    assert eig_count_for("lpe", None, 5) == 5
    assert eig_count_for("lpe", 3, 5) == 3
    # spe reads rank_m eigenpairs; its count is a channel count.
    assert eig_count_for("spe", 100, 5) == 100
    for count in (6, 10**12):
        with pytest.raises(ValidationError) as exc:
            eig_count_for("lpe", count, 5)
        assert exc.value.code == SHAPE_MISMATCH
        assert exc.value.message == f"{count} eigenpairs requested but only 5 available"


@pytest.mark.parametrize("kind", ["fourier", "raw_targets", "LPE", ""])
def test_an_unknown_encoder_kind_is_refused_before_the_request_is_checked(monkeypatch, c6, kind):
    # "fourier" used to return exactly the spe rows. The kind is refused
    # before the count (10^12 would be a MEMORY_LIMIT), the draw or the solve.
    def refuse(*args, **kwargs):
        raise AssertionError("an unknown kind reached the request check, the draw or the solve")

    for name in ("check_encoder_request", "encoder_maps", "laplacian_eigh"):
        monkeypatch.setattr(spectral, name, refuse)
    with pytest.raises(ValidationError) as exc:
        positional_encoding(c6, kind, 4, 0, eig_count=10**12)
    assert exc.value.code == INVALID_SCHEMA
    assert exc.value.message == f"unknown encoder {kind!r}, expected one of lpe, spe"


def test_params_reject_a_negative_seed_and_a_non_finite_epsilon(p3):
    for seed in (-1, 1.0, True):
        with pytest.raises(ValidationError) as exc:
            encoder_maps("lpe", seed, 3, 4)
        assert exc.value.code == INVALID_SCHEMA
    dec = eigh(laplacian(p3), source="laplacian")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError) as exc:
            lpe(dec, *encoder_maps("lpe", 0, 3, 4), epsilon=[0.1, bad, 0.3])
        assert exc.value.code == INVALID_SCHEMA


def test_arithmetic_epsilon_separates_repeated_eigenvalues(c6):
    dec = eigh(laplacian(c6), source="laplacian")
    gaps = np.diff(dec.eigenvalues)
    delta = 0.5 * min(g for g in gaps if g > 1e-9)
    eps = arithmetic_epsilon(6, delta)
    assert np.allclose(eps, delta * np.arange(1, 7))
    perturbed = dec.eigenvalues + eps
    assert len(set(np.round(perturbed, 12))) == 6


def test_arithmetic_epsilon_checks_its_largest_entry_before_overflowing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eig_count, delta in ((6, 1e308), (2, 1e308), (1, math.inf), (3, math.nan)):
            with pytest.raises(ValidationError) as exc:
                arithmetic_epsilon(eig_count, delta)
            assert exc.value.code == INVALID_SCHEMA
        assert arithmetic_epsilon(6, 1e300)[-1] == 6e300
    # The length is checked against the entry cap before the array exists.
    with pytest.raises(LimitError) as exc:
        arithmetic_epsilon(10**12, 1e-6)
    assert exc.value.code == MEMORY_LIMIT


# ------------------------------------------------- identifying targets


def test_single_edge_adjacency_scores(single_edge):
    t = identifying_targets(single_edge)
    d_k = t.w_k_adj.shape[1]
    scores = (t.p_adj @ t.w_q_adj) @ (t.p_adj @ t.w_k_adj).T / math.sqrt(d_k)
    assert np.allclose(scores, [[-1, 1], [1, -1]], atol=1e-8)
    assert scores[0].argmax() == 1 and scores[1].argmax() == 0


def test_p3_node_scores_are_the_identity(p3):
    t = identifying_targets(p3)
    d_k = t.w_k_node.shape[1]
    scores = (t.p_node @ t.w_q_node) @ (t.p_node @ t.w_k_node).T / math.sqrt(d_k)
    assert np.abs(scores - np.eye(3)).max() <= 1e-8


def test_normalized_path_rebuilds_the_plain_laplacian(p3):
    t = identifying_targets(p3, normalized=True)
    assert np.abs(t.p_adj @ t.p_adj.T - laplacian(p3)).max() <= 1e-8


def test_targets_identify_on_samples(graph_samples):
    for g in graph_samples(17, 10, 2, 8, connected=True):
        for normalized in (False, True):
            t = identifying_targets(g, normalized=normalized)
            node = check_identifying(t.p_node, t.w_q_node, t.w_k_node, g, "node")
            adj = check_identifying(t.p_adj, t.w_q_adj, t.w_k_adj, g, "adjacency")
            assert node.passed and node.margin >= 0.99
            assert adj.passed


def test_c6_row_maxima_are_the_two_neighbors(c6):
    t = identifying_targets(c6)
    d_k = t.w_k_adj.shape[1]
    scores = (t.p_adj @ t.w_q_adj) @ (t.p_adj @ t.w_k_adj).T / math.sqrt(d_k)
    for v in range(6):
        top = set(np.argsort(scores[v])[-2:])
        assert top == set(c6.neighbor_sets[v])


# ------------------------------------------------------ check_identifying


def test_identity_embedding_identifies_nodes(single_edge):
    report = check_identifying(np.eye(2), np.eye(2), np.eye(2), single_edge, "node")
    assert report.passed
    assert report.rows_failed == ()
    # the scaled score matrix is I / sqrt(2), so the margin is exactly that
    assert report.margin == pytest.approx(1 / math.sqrt(2))


def test_flat_embedding_fails_both_targets(p3):
    ones = np.ones((3, 3))
    for target in ("node", "adjacency"):
        report = check_identifying(ones, np.eye(3), np.eye(3), p3, target)
        assert not report.passed


def loop_identifying(p, w_q, w_k, graph, target):
    """The row-by-row reference for ``check_identifying``."""
    n = graph.num_nodes
    scores = (p @ w_q) @ (p @ w_k).T / math.sqrt(w_k.shape[1])
    margin, failed = math.inf, []
    for i in range(n):
        row = scores[i]
        want = graph.neighbor_sets[i] if target == "adjacency" else frozenset((i,))
        maxima = {int(j) for j in np.nonzero(row >= row.max() - 1e-9)[0]}
        margin = min(margin, row.max() - max(row[j] for j in range(n) if j not in want))
        if maxima != set(want):
            failed.append(i)
    return not failed, float(margin), tuple(failed)


def test_check_identifying_matches_the_row_loop(graph_samples):
    # Spectral targets pass, integer embeddings tie, Gaussian ones fail rows.
    rng = np.random.default_rng(5)
    for g in graph_samples(29, 24, 2, 20, connected=True):
        n = g.num_nodes
        adj = g.adjacency_matrix.astype(float)
        embeddings = [(adj, np.eye(n), np.eye(n)), (rng.normal(size=(n, 3)), np.eye(3), np.eye(3))]
        for normalized in (False, True):
            t = identifying_targets(g, normalized=normalized)
            embeddings += [(t.p_node, t.w_q_node, t.w_k_node), (t.p_adj, t.w_q_adj, t.w_k_adj)]
        for p, w_q, w_k in embeddings:
            for target in ("node", "adjacency"):
                report = check_identifying(p, w_q, w_k, g, target)
                got = (report.passed, report.margin, report.rows_failed)
                assert got == loop_identifying(p, w_q, w_k, g, target)


def test_check_identifying_validation(p3):
    with pytest.raises(ValidationError) as exc:
        check_identifying(np.eye(3), np.eye(3), np.eye(3), p3, "edges")
    assert exc.value.code == INVALID_SCHEMA
    with pytest.raises(ValidationError) as exc:
        check_identifying(np.eye(2), np.eye(2), np.eye(2), p3, "node")
    assert exc.value.code == SHAPE_MISMATCH
