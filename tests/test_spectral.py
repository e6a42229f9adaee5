"""Laplacians, the canonical LAPACK eigendecomposition, both spectral
encoders, and the score targets whose row maxima identify nodes and
neighborhoods."""

import math
import random
import warnings

import numpy as np
import pytest

from wlsim.errors import (
    INVALID_SCHEMA,
    MEMORY_LIMIT,
    NO_CONVERGENCE,
    NON_SYMMETRIC,
    SHAPE_MISMATCH,
    LimitError,
    ValidationError,
)
from wlsim.graphs import Graph, builtin_pair, random_graph
from wlsim.spectral import (
    EncoderParams,
    arithmetic_epsilon,
    check_identifying,
    eigh,
    identifying_targets,
    laplacian,
    lpe,
    sign_flip,
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
    params = EncoderParams.seeded(0, 3, 4)
    out = lpe(
        dec,
        params,
        phi=lambda pairs: pairs[:, :1],
        rho=lambda rows: rows,
    )
    assert np.allclose(out[:, 0], dec.eigenvectors.sum(axis=1))


def test_lpe_ignores_eigenpair_input_order(c6):
    dec = eigh(laplacian(c6), source="laplacian")
    params = EncoderParams.seeded(3, 6, 5)
    base = lpe(dec, params)
    rng = random.Random(11)
    for _ in range(5):
        perm = list(range(6))
        rng.shuffle(perm)
        shuffled_dec = RawPairs(dec.eigenvalues[perm], dec.eigenvectors[:, perm])
        assert np.allclose(lpe(shuffled_dec, params), base, atol=1e-12)


def test_lpe_checks_available_pairs(p3):
    dec = eigh(laplacian(p3), source="laplacian")
    with pytest.raises(ValidationError) as exc:
        lpe(dec, EncoderParams.seeded(0, 5, 4))
    assert exc.value.code == SHAPE_MISMATCH


def test_lpe_is_seed_deterministic(p3):
    dec = eigh(laplacian(p3), source="laplacian")
    a = lpe(dec, EncoderParams.seeded(9, 3, 6))
    b = lpe(dec, EncoderParams.seeded(9, 3, 6))
    assert np.array_equal(a, b)


# ------------------------------------------------------------------- spe


def test_spe_stub_reduces_to_projector_row_sums(p3):
    dec = eigh(laplacian(p3), source="laplacian")
    params = EncoderParams.seeded(0, 3, 4)
    out = spe(
        dec,
        params,
        rank_m=3,
        phi=lambda lams: np.ones((lams.shape[0], 1)),
        rho=lambda rows: rows,
    )
    # with all channel weights one and full rank, V V^T = I, so each row sum is 1
    assert np.allclose(out, np.ones((3, 1)), atol=1e-10)


def test_spe_is_sign_flip_invariant(graph_samples):
    for i, g in enumerate(graph_samples(13, 6, 2, 7)):
        dec = eigh(laplacian(g), source="laplacian")
        params = EncoderParams.seeded(i, g.num_nodes, 5)
        base = spe(dec, params, rank_m=g.num_nodes)
        flipped = spe(sign_flip(dec, seed=i), params, rank_m=g.num_nodes)
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
                EncoderParams.seeded(0, 4, 4),
                rank_m,
                phi=lambda lams: weights,
                rho=lambda rows: rows,
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
    params = EncoderParams.seeded(1, 6, 4)
    full = spe(dec, params, rank_m=6)
    truncated = spe(dec, params, rank_m=2)
    assert full.shape == truncated.shape == (6, 4)
    assert not np.allclose(full, truncated)


def test_spe_rank_bounds(p3):
    dec = eigh(laplacian(p3), source="laplacian")
    params = EncoderParams.seeded(0, 3, 4)
    with pytest.raises(ValidationError) as exc:
        spe(dec, params, rank_m=0)
    assert exc.value.code == INVALID_SCHEMA
    with pytest.raises(ValidationError):
        spe(dec, params, rank_m=4)


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


# --------------------------------------------------------- encoder params


def test_seeded_params_are_reproducible():
    a = EncoderParams.seeded(42, 4, 8)
    b = EncoderParams.seeded(42, 4, 8)
    assert a.weights.keys() == b.weights.keys()
    for key in a.weights:
        assert np.array_equal(a.weights[key], b.weights[key])
    assert np.array_equal(a.epsilon, np.zeros(4))


def test_params_validation():
    with pytest.raises(ValidationError) as exc:
        EncoderParams.seeded(0, 0, 4)
    assert exc.value.code == INVALID_SCHEMA
    with pytest.raises(ValidationError) as exc:
        EncoderParams.seeded(0, 3, 4, epsilon=[0.1, 0.2])
    assert exc.value.code == SHAPE_MISMATCH
    # A width whose weight blocks exceed the entry cap is refused before a draw.
    with pytest.raises(LimitError) as exc:
        EncoderParams.seeded(0, 3, 10**12)
    assert exc.value.code == MEMORY_LIMIT


def test_params_reject_a_negative_seed_and_a_non_finite_epsilon():
    for seed in (-1, 1.0, True):
        with pytest.raises(ValidationError) as exc:
            EncoderParams.seeded(seed, 3, 4)
        assert exc.value.code == INVALID_SCHEMA
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError) as exc:
            EncoderParams.seeded(0, 3, 4, epsilon=[0.1, bad, 0.3])
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


def test_check_identifying_validation(p3):
    with pytest.raises(ValidationError) as exc:
        check_identifying(np.eye(3), np.eye(3), np.eye(3), p3, "edges")
    assert exc.value.code == INVALID_SCHEMA
    with pytest.raises(ValidationError) as exc:
        check_identifying(np.eye(2), np.eye(2), np.eye(2), p3, "node")
    assert exc.value.code == SHAPE_MISMATCH
