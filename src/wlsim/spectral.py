"""Laplacians, a canonical symmetric eigendecomposition, spectral positional
encoders, and the score targets whose row maxima recover node identity and
adjacency.

Eigenpairs come from LAPACK (``np.linalg.eigh``) and are then put in a
canonical form: fixed signs, and ties ordered by the eigenvector entries.
Inside a degenerate eigenspace the basis is whatever LAPACK returns, so it
is reproducible on one machine and BLAS build, not across them; the SPE
encoder does not depend on it. All arithmetic is float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    INVALID_SCHEMA,
    MEMORY_LIMIT,
    NO_CONVERGENCE,
    NON_SYMMETRIC,
    SHAPE_MISMATCH,
    LimitError,
    ValidationError,
)
from .graphs import Graph
from .refine import DEFAULT_MEMORY_LIMIT

SOURCES = ("laplacian", "normalized_laplacian", "adjacency")

_ORTHO_TOL = 1e-8
_RESIDUAL_TOL = 1e-8
_TIE_TOL = 1e-9


def laplacian(graph: Graph, normalized: bool = False) -> np.ndarray:
    """Graph Laplacian D - A, or its degree-normalized form.

    The normalized form divides row and column of every entry by the square
    root of the endpoint degrees; isolated nodes are impossible here, so the
    division is always defined.
    """
    a = graph.adjacency_matrix.astype(float)
    deg = a.sum(axis=1)
    lap = np.diag(deg) - a
    if not normalized:
        return lap
    inv_sqrt = 1.0 / np.sqrt(deg)
    return lap * np.outer(inv_sqrt, inv_sqrt)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenpairs of a symmetric matrix in a canonical order.

    Eigenvalues ascend; exact ties are ordered by the lexicographic order of
    the eigenvector entries rounded at 1e-9, after flipping each column so
    its first entry of magnitude above 1e-9 is positive. ``residual`` is the
    max-norm of M V - V diag(lambda) against the matrix that produced it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source: str
    residual: float

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.asarray(self.eigenvectors, dtype=float)
        if self.source not in SOURCES:
            raise ValidationError(
                INVALID_SCHEMA, f"source must be one of {SOURCES}, got {self.source!r}"
            )
        n = vals.shape[0]
        if vals.ndim != 1 or vecs.shape != (n, n):
            raise ValidationError(SHAPE_MISMATCH, "eigenvalues and eigenvectors disagree in shape")
        if np.any(np.diff(vals) < 0):
            raise ValidationError(INVALID_SCHEMA, "eigenvalues must ascend")
        gram_defect = np.abs(vecs.T @ vecs - np.eye(n)).max()
        if gram_defect > _ORTHO_TOL:
            raise ValidationError(
                INVALID_SCHEMA, f"eigenvectors not orthonormal (defect {gram_defect:.3e})"
            )
        if self.residual > _RESIDUAL_TOL:
            raise ValidationError(
                INVALID_SCHEMA, f"residual {self.residual:.3e} exceeds {_RESIDUAL_TOL}"
            )
        if self.source != "adjacency" and vals[0] < -1e-10:
            raise ValidationError(
                INVALID_SCHEMA, f"Laplacian spectrum must be non-negative, got {vals[0]:.3e}"
            )
        vals.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def _as_symmetric(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValidationError(
            SHAPE_MISMATCH, f"expected a non-empty square matrix, got shape {m.shape}"
        )
    if not np.all(np.isfinite(m)):
        raise ValidationError(INVALID_SCHEMA, "matrix has non-finite entries")
    if np.abs(m - m.T).max() > 1e-12:
        raise ValidationError(NON_SYMMETRIC, "matrix is not symmetric within 1e-12")
    return m


def eigh(matrix, source: str = "adjacency") -> SpectralDecomposition:
    """Eigendecomposition by LAPACK, then put in canonical signs and order.

    Each eigenvector is flipped so that its first entry of magnitude above
    1e-9 is positive (a unit vector always has one). Columns are then
    ordered by eigenvalue, exact ties by their entries rounded at 1e-9,
    compared row by row. A LAPACK failure raises ``NO_CONVERGENCE``.
    """
    m = _as_symmetric(matrix)
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise LimitError(NO_CONVERGENCE, f"eigensolver did not converge: {exc}") from None
    cols = np.arange(m.shape[0])
    lead = np.argmax(np.abs(vecs) > _TIE_TOL, axis=0)
    vecs = vecs * np.where(vecs[lead, cols] < 0, -1.0, 1.0)
    # lexsort takes its primary key last: the eigenvalues, then row 0,
    # row 1, ... of the rounded eigenvectors.
    order = np.lexsort(np.vstack([np.round(vecs, 9)[::-1], vals]))
    vals = vals[order]
    vecs = vecs[:, order]

    residual = float(np.abs(m @ vecs - vecs * vals).max())
    return SpectralDecomposition(vals, vecs, source, residual)


def seeded_mlp(seed: int, index: int, d_in: int, d_hidden: int, d_out: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng([seed, index])
    return {
        "w1": rng.normal(0.0, 1.0 / math.sqrt(d_in), (d_in, d_hidden)),
        "b1": rng.normal(0.0, 0.1, d_hidden),
        "w2": rng.normal(0.0, 1.0 / math.sqrt(d_hidden), (d_hidden, d_out)),
        "b2": rng.normal(0.0, 0.1, d_out),
    }


def run_mlp(weights: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    return np.tanh(x @ weights["w1"] + weights["b1"]) @ weights["w2"] + weights["b2"]


def _check_seed(seed: object) -> None:
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValidationError(INVALID_SCHEMA, f"seed must be a non-negative int, got {seed!r}")


def _check_dim(out_dim: int) -> None:
    """Refuse, before any draw, a width whose out_dim x 2 out_dim MLP weights,
    the largest block of the encoders and the tokenizers, exceed the cap."""
    if out_dim * max(8, 2 * out_dim) > DEFAULT_MEMORY_LIMIT:
        message = f"width {out_dim} exceeds the cap of {DEFAULT_MEMORY_LIMIT} weight entries"
        raise LimitError(MEMORY_LIMIT, message)


@dataclass(frozen=True, eq=False)
class EncoderParams:
    """Deterministic stand-in for trained encoder weights.

    Two MLP pairs are drawn from the seed: a pairwise map and an output head
    for the eigenpair encoder, and an eigenvalue channel map plus output
    head for the basis-invariant encoder. The same seed always reproduces
    byte-identical blocks. ``epsilon`` perturbs the eigenvalues fed to the
    pairwise map and defaults to zero, which keeps the encoder a plain
    DeepSet over (component, eigenvalue) pairs.
    """

    seed: int
    eig_count: int
    out_dim: int
    epsilon: np.ndarray
    weights: dict[str, np.ndarray] = field(repr=False)

    @classmethod
    def seeded(
        cls, seed: int, eig_count: int, out_dim: int, epsilon: Sequence[float] | None = None
    ) -> "EncoderParams":
        _check_seed(seed)
        if eig_count < 1 or out_dim < 1:
            raise ValidationError(INVALID_SCHEMA, "eig_count and out_dim must be positive")
        _check_dim(out_dim)
        eps = np.zeros(eig_count) if epsilon is None else np.asarray(epsilon, dtype=float)
        if eps.shape != (eig_count,):
            raise ValidationError(SHAPE_MISMATCH, f"epsilon must have length {eig_count}")
        if not np.isfinite(eps).all():
            raise ValidationError(INVALID_SCHEMA, "epsilon must be finite")
        hidden = max(8, 2 * out_dim)
        weights: dict[str, np.ndarray] = {}
        blocks = {
            "phi": (2, hidden, out_dim),
            "rho": (out_dim, hidden, out_dim),
            "phi_channels": (1, hidden, eig_count),
            "rho_sum": (eig_count, hidden, out_dim),
        }
        for index, (name, (d_in, d_hidden, d_out)) in enumerate(blocks.items()):
            for key, arr in seeded_mlp(seed, index, d_in, d_hidden, d_out).items():
                arr.setflags(write=False)
                weights[f"{name}.{key}"] = arr
        eps.setflags(write=False)
        return cls(seed=seed, eig_count=eig_count, out_dim=out_dim, epsilon=eps, weights=weights)

    def block(self, name: str) -> dict[str, np.ndarray]:
        return {k.split(".", 1)[1]: v for k, v in self.weights.items() if k.startswith(name + ".")}


def arithmetic_epsilon(eig_count: int, delta: float) -> np.ndarray:
    """Perturbation vector (delta, 2 delta, ..., l delta) that separates
    repeated eigenvalues whenever delta is below the smallest nonzero gap.

    Raises ``ValidationError`` (``INVALID_SCHEMA``) when an entry would not
    be finite; the largest one, l delta, is checked before the array exists.
    """
    if not math.isfinite(delta * eig_count):
        raise ValidationError(INVALID_SCHEMA, "epsilon must be finite")
    return delta * np.arange(1, eig_count + 1, dtype=float)


def lpe(
    dec: SpectralDecomposition,
    params: EncoderParams,
    phi: Callable[[np.ndarray], np.ndarray] | None = None,
    rho: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Eigenpair DeepSet encoder: per node, sum phi over the used
    (component, perturbed eigenvalue) pairs, then apply the output head.

    ``phi`` maps a batch of pairs (rows of shape 2) to feature rows;
    ``rho`` maps the per-node sums to output rows. Both default to the
    seeded MLPs in ``params``; tests pass stubs through these hooks.
    """
    n = dec.n
    l = params.eig_count
    if l > n:
        raise ValidationError(SHAPE_MISMATCH, f"{l} eigenpairs requested but only {n} available")
    if phi is None:
        phi_w = params.block("phi")
        phi = lambda x: run_mlp(phi_w, x)
    if rho is None:
        rho_w = params.block("rho")
        rho = lambda x: run_mlp(rho_w, x)
    comps = dec.eigenvectors[:, :l]
    lams = dec.eigenvalues[:l] + params.epsilon
    pairs = np.stack(
        [comps.reshape(-1), np.broadcast_to(lams, (n, l)).reshape(-1)], axis=1
    )
    feats = np.asarray(phi(pairs))
    summed = feats.reshape(n, l, -1).sum(axis=1)
    return np.asarray(rho(summed))


def spe(
    dec: SpectralDecomposition,
    params: EncoderParams,
    rank_m: int,
    phi: Callable[[np.ndarray], np.ndarray] | None = None,
    rho: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Basis-invariant spectral encoder.

    Each channel ell has one n x n matrix, V_m diag(c_ell) V_m^T, where the
    channel weights c_ell come from an elementwise map over the ``rank_m``
    smallest eigenvalues. Each node's row is summed over the partner axis
    and passed through the output head. The sum is taken in factored form,
    V_m (c_ell * V_m^T 1), so no n x n x m tensor is built. Every
    eigenvector enters quadratically, so flipping any eigenvector sign
    leaves the output bit-identical.
    """
    n = dec.n
    if not 1 <= rank_m <= n:
        raise ValidationError(INVALID_SCHEMA, f"rank_m must lie in [1, {n}], got {rank_m}")
    if phi is None:
        phi_w = params.block("phi_channels")
        phi = lambda x: run_mlp(phi_w, x)
    if rho is None:
        rho_w = params.block("rho_sum")
        rho = lambda x: run_mlp(rho_w, x)
    v_m = dec.eigenvectors[:, :rank_m]
    channel_weights = np.asarray(phi(dec.eigenvalues[:rank_m, None]))
    summed = v_m @ (channel_weights * v_m.sum(axis=0)[:, None])
    return np.asarray(rho(summed))


@dataclass(frozen=True, eq=False)
class IdentifyingTargets:
    p_node: np.ndarray
    p_adj: np.ndarray
    w_q_node: np.ndarray
    w_k_node: np.ndarray
    w_q_adj: np.ndarray
    w_k_adj: np.ndarray


def identifying_targets(graph: Graph, normalized: bool = False) -> IdentifyingTargets:
    """Spectral embeddings plus projections whose scaled score products hit
    the identity (node target) and the negated Laplacian (adjacency target).

    The node embedding is the eigenvector matrix itself, so scores become
    V V^T = I. The adjacency embedding scales eigenvectors by sqrt of the
    eigenvalues; on the normalized path a final D^(1/2) factor turns the
    normalized spectrum back into the plain Laplacian, whose negation has
    its row maxima exactly on the neighbors. The query projections carry
    the sqrt(n) softmax-scaling compensation and, for adjacency, the sign.
    """
    lap = laplacian(graph, normalized=normalized)
    source = "normalized_laplacian" if normalized else "laplacian"
    dec = eigh(lap, source=source)
    n = dec.n
    root = math.sqrt(n)
    scale = np.sqrt(np.clip(dec.eigenvalues, 0.0, None))
    p_adj = dec.eigenvectors * scale
    if normalized:
        deg = np.array([graph.degree(v) for v in range(n)], dtype=float)
        p_adj = np.sqrt(deg)[:, None] * p_adj
    eye = np.eye(n)
    return IdentifyingTargets(
        p_node=dec.eigenvectors,
        p_adj=p_adj,
        w_q_node=root * eye,
        w_k_node=eye,
        w_q_adj=-root * eye,
        w_k_adj=eye,
    )


@dataclass(frozen=True)
class IdentifyingReport:
    passed: bool
    margin: float
    rows_failed: tuple[int, ...]


def check_identifying(
    p: np.ndarray, w_q: np.ndarray, w_k: np.ndarray, graph: Graph, target: str
) -> IdentifyingReport:
    """Check whether scaled attention scores point at the intended columns.

    Scores are (P W_q)(P W_k)^T / sqrt(d_k). A row passes when its set of
    maxima (ties within 1e-9) is exactly the node's neighbor set (target
    "adjacency") or the node itself (target "node"). The margin is the
    smallest gap, over rows, between the row maximum and the best entry
    outside the target set.
    """
    if target not in ("node", "adjacency"):
        raise ValidationError(INVALID_SCHEMA, f"target must be 'node' or 'adjacency', got {target!r}")
    p = np.asarray(p, dtype=float)
    w_q = np.asarray(w_q, dtype=float)
    w_k = np.asarray(w_k, dtype=float)
    n = graph.num_nodes
    if p.ndim != 2 or p.shape[0] != n:
        raise ValidationError(SHAPE_MISMATCH, f"embedding rows {p.shape} do not match {n} nodes")
    if w_q.shape[0] != p.shape[1] or w_k.shape[0] != p.shape[1] or w_q.shape[1] != w_k.shape[1]:
        raise ValidationError(SHAPE_MISMATCH, "projection shapes are inconsistent with the embedding")
    d_k = w_k.shape[1]
    scores = (p @ w_q) @ (p @ w_k).T / math.sqrt(d_k)

    margin = math.inf
    failed: list[int] = []
    for i in range(n):
        row = scores[i]
        want = graph.neighbor_sets[i] if target == "adjacency" else frozenset((i,))
        row_max = row.max()
        maxima = {int(j) for j in np.nonzero(row >= row_max - _TIE_TOL)[0]}
        others = [row[j] for j in range(n) if j not in want]
        margin = min(margin, row_max - max(others))
        if maxima != set(want):
            failed.append(i)
    return IdentifyingReport(passed=not failed, margin=float(margin), rows_failed=tuple(failed))


def sign_flip(dec: SpectralDecomposition, seed: int) -> SpectralDecomposition:
    """Multiply each eigenvector by an independent uniform sign.

    Models the data augmentation that forces encoders to be sign-invariant.
    Residual and orthonormality are untouched, but the canonical sign
    convention of ``eigh`` is deliberately not preserved.
    """
    rng = np.random.default_rng(seed)
    flips = rng.integers(0, 2, size=dec.n) * 2 - 1
    return SpectralDecomposition(
        dec.eigenvalues.copy(),
        dec.eigenvectors * flips.astype(float),
        dec.source,
        dec.residual,
    )
