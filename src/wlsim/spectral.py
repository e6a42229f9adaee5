"""Laplacians, a canonical symmetric eigendecomposition, spectral positional
encoders, and the score targets whose row maxima recover node identity and
adjacency.

Eigenpairs come from LAPACK (``np.linalg.eigh``) and are then put in a
canonical form: fixed signs, and ties ordered by the eigenvector entries.
Inside a degenerate eigenspace the basis is whatever LAPACK returns, so it
is reproducible on one machine and BLAS build, not across them; the SPE
encoder does not depend on it. All arithmetic is float64.

Each encoder is two maps, phi then rho, that the caller passes in: ``lpe``
sums phi over (eigenvector component, eigenvalue) pairs, ``spe`` weights
eigenvector channels by phi of the eigenvalues, and rho maps the per-node
sums to rows. ``encoder_maps`` draws the seeded pair an encoder kind reads,
and ``positional_encoding`` runs the whole request on a graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
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
from .graphs import Graph, _check_seed
from .refine import DEFAULT_MEMORY_LIMIT

SOURCES = ("laplacian", "normalized_laplacian", "adjacency")
ENCODER_KINDS = ("lpe", "spe")

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


def _strictly_ascending(vals: np.ndarray) -> bool:
    """Whether each eigenvalue exceeds the one before it: then ``eigh``'s
    sort is the identity. Exact ties and values out of order are sorted."""
    return bool(np.all(vals[1:] > vals[:-1]))


def eigh(matrix, source: str = "adjacency") -> SpectralDecomposition:
    """Eigendecomposition by LAPACK, then put in canonical signs and order.

    Each eigenvector is flipped so that its first entry of magnitude above
    1e-9 is positive (a unit vector always has one). Columns are then
    ordered by eigenvalue, exact ties by their entries rounded at 1e-9,
    compared row by row; a strictly ascending spectrum is already in that
    order and is not sorted. A LAPACK failure raises ``NO_CONVERGENCE``.
    """
    m = _as_symmetric(matrix)
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise LimitError(NO_CONVERGENCE, f"eigensolver did not converge: {exc}") from None
    cols = np.arange(m.shape[0])
    lead = np.argmax(np.abs(vecs) > _TIE_TOL, axis=0)
    # Fortran order, the layout the sort's column gather gives: later
    # products round by layout, so an unsorted spectrum must carry it too.
    vecs = np.multiply(vecs, np.where(vecs[lead, cols] < 0, -1.0, 1.0), order="F")
    if not _strictly_ascending(vals):
        # lexsort takes its primary key last: the eigenvalues, then row 0,
        # row 1, ... of the rounded eigenvectors.
        order = np.lexsort(np.vstack([np.round(vecs, 9)[::-1], vals]))
        vals = vals[order]
        vecs = vecs[:, order]

    residual = float(np.abs(m @ vecs - vecs * vals).max())
    return SpectralDecomposition(vals, vecs, source, residual)


def laplacian_eigh(graph: Graph, normalized: bool = False) -> SpectralDecomposition:
    """``eigh`` of the graph's Laplacian, or of its normalized form, with the
    matching source name."""
    source = "normalized_laplacian" if normalized else "laplacian"
    return eigh(laplacian(graph, normalized=normalized), source=source)


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


def _check_int(name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(INVALID_SCHEMA, f"{name} must be an int, got {value!r}")


def _check_rank(rank_m: object, n: int) -> None:
    _check_int("rank_m", rank_m)
    if not 1 <= rank_m <= n:
        raise ValidationError(INVALID_SCHEMA, f"rank_m must lie in [1, {n}], got {rank_m}")


def _check_epsilon(eig_count: int, delta: float) -> None:
    """Refuse a step whose largest entry, l delta, is not finite, then a
    length over the cap."""
    if not math.isfinite(delta * eig_count):
        raise ValidationError(INVALID_SCHEMA, "epsilon must be finite")
    if eig_count > DEFAULT_MEMORY_LIMIT:
        message = f"{eig_count} eigenvalue steps exceed the cap of {DEFAULT_MEMORY_LIMIT} entries"
        raise LimitError(MEMORY_LIMIT, message)


def _check_params(seed: object, eig_count: object, out_dim: object) -> None:
    """Refuse, before any draw, a bad seed, count or width, and weights over
    the cap: the out_dim x 2 out_dim MLP blocks, the largest of the encoders
    and the tokenizers, and the count's channel blocks."""
    _check_seed(seed)
    for name, value in (("eig_count", eig_count), ("out_dim", out_dim)):
        _check_int(name, value)
        if value < 1:
            raise ValidationError(INVALID_SCHEMA, f"{name} must be positive, got {value!r}")
    hidden = max(8, 2 * out_dim)
    cap = f"the cap of {DEFAULT_MEMORY_LIMIT} weight entries"
    if out_dim * hidden > DEFAULT_MEMORY_LIMIT:
        raise LimitError(MEMORY_LIMIT, f"width {out_dim} exceeds {cap}")
    if eig_count * hidden > DEFAULT_MEMORY_LIMIT:
        raise LimitError(MEMORY_LIMIT, f"{eig_count} channels of width {hidden} exceed {cap}")


def _check_kind(kind: str) -> None:
    if kind not in ENCODER_KINDS:
        raise ValidationError(
            INVALID_SCHEMA, f"unknown encoder {kind!r}, expected one of {', '.join(ENCODER_KINDS)}"
        )


def eig_count_for(kind: str, requested: int | None, n: int) -> int:
    """The eigenpair count of an encoder on an n-node graph, n by default.
    ``lpe`` reads ``count`` of the n eigenpairs, so a larger count raises
    ``ValidationError`` (``SHAPE_MISMATCH``). Every other kind reads it as a
    count of weight channels, which ``encoder_maps`` bounds."""
    count = n if requested is None else requested
    _check_int("eig_count", count)
    if kind == "lpe" and count > n:
        raise ValidationError(SHAPE_MISMATCH, f"{count} eigenpairs requested but only {n} available")
    return count


def check_encoder_request(
    kind: str, n: int, dim: int, seed: int,
    eig_count: int | None = None, rank_m: int | None = None, epsilon: float | None = None,
) -> int:
    """Refuse a bad encoder request on an n-node graph before anything is
    enumerated, drawn or solved, and return its eigenpair count. Every value
    given is checked, whatever ``kind`` reads it; the first fault in this
    order is raised: the count (``eig_count_for``), the epsilon step, the
    seed, the count's and the width's sign, the weight caps, the rank (1…n).
    """
    count = eig_count_for(kind, eig_count, n)
    if epsilon is not None:
        _check_epsilon(count, epsilon)
    _check_params(seed, count, dim)
    if rank_m is not None:
        _check_rank(rank_m, n)
    return count


def arithmetic_epsilon(eig_count: int, delta: float) -> np.ndarray:
    """Perturbation vector (delta, 2 delta, ..., l delta) that separates
    repeated eigenvalues whenever delta is below the smallest nonzero gap.

    Raises ``ValidationError`` (``INVALID_SCHEMA``) when an entry would not
    be finite; the largest one, l delta, is checked before the array exists,
    and so is the length, against the cap (``LimitError``).
    """
    _check_epsilon(eig_count, delta)
    return delta * np.arange(1, eig_count + 1, dtype=float)


def encoder_maps(
    kind: str, seed: int, eig_count: int, out_dim: int
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """The seeded phi and rho of an encoder kind, the reproducible stand-in
    for trained weights: one MLP each, of hidden width max(8, 2 out_dim),
    from the kind's two lanes of the seed (``lpe`` 0 and 1, ``spe`` 2 and
    3). The seed, count, width and weight caps are checked before a draw."""
    _check_kind(kind)
    _check_params(seed, eig_count, out_dim)
    hidden = max(8, 2 * out_dim)
    if kind == "lpe":
        lanes = ((0, 2, out_dim), (1, out_dim, out_dim))
    else:
        lanes = ((2, 1, eig_count), (3, eig_count, out_dim))
    phi, rho = (
        partial(run_mlp, seeded_mlp(seed, lane, d_in, hidden, d_out)) for lane, d_in, d_out in lanes
    )
    return phi, rho


def lpe(
    dec: SpectralDecomposition,
    phi: Callable[[np.ndarray], np.ndarray],
    rho: Callable[[np.ndarray], np.ndarray],
    eig_count: int | None = None,
    epsilon: Sequence[float] | None = None,
) -> np.ndarray:
    """Eigenpair DeepSet encoder: per node, sum phi over the first
    ``eig_count`` (component, perturbed eigenvalue) pairs, n by default,
    then apply rho.

    ``phi`` maps a batch of pairs (rows of shape 2) to feature rows; ``rho``
    maps the per-node sums to output rows. ``epsilon``, one finite entry per
    pair, is added to the eigenvalues; without it a zero vector is added,
    which turns a -0.0 eigenvalue into 0.0 as a perturbation would.
    """
    n = dec.n
    l = eig_count_for("lpe", eig_count, n)
    eps = np.zeros(l) if epsilon is None else np.asarray(epsilon, dtype=float)
    if eps.shape != (l,):
        raise ValidationError(SHAPE_MISMATCH, f"epsilon must have length {l}")
    if not np.isfinite(eps).all():
        raise ValidationError(INVALID_SCHEMA, "epsilon must be finite")
    comps = dec.eigenvectors[:, :l]
    lams = dec.eigenvalues[:l] + eps
    pairs = np.stack(
        [comps.reshape(-1), np.broadcast_to(lams, (n, l)).reshape(-1)], axis=1
    )
    feats = np.asarray(phi(pairs))
    summed = feats.reshape(n, l, -1).sum(axis=1)
    return np.asarray(rho(summed))


def spe(
    dec: SpectralDecomposition,
    phi: Callable[[np.ndarray], np.ndarray],
    rho: Callable[[np.ndarray], np.ndarray],
    rank_m: int,
) -> np.ndarray:
    """Basis-invariant spectral encoder.

    Each channel ell has one n x n matrix, V_m diag(c_ell) V_m^T, where the
    channel weights c_ell are phi of the ``rank_m`` smallest eigenvalues
    (each a row of shape 1). Each node's row is summed over the partner axis
    and passed through rho. The sum is taken in factored form,
    V_m (c_ell * V_m^T 1), so no n x n x m tensor is built. Every
    eigenvector enters quadratically, so flipping any eigenvector sign
    leaves the output bit-identical.
    """
    _check_rank(rank_m, dec.n)
    v_m = dec.eigenvectors[:, :rank_m]
    channel_weights = np.asarray(phi(dec.eigenvalues[:rank_m, None]))
    summed = v_m @ (channel_weights * v_m.sum(axis=0)[:, None])
    return np.asarray(rho(summed))


def positional_encoding(
    graph: Graph,
    kind: str,
    dim: int,
    seed: int,
    eig_count: int | None = None,
    rank_m: int | None = None,
    normalized: bool = False,
    epsilon: float | None = None,
) -> tuple[np.ndarray, int]:
    """The seeded ``lpe`` or ``spe`` rows of a graph, with the eigenpair count.

    The count and ``spe``'s rank default to n. Any other kind is refused
    first (INVALID_SCHEMA); then the whole request is checked
    (``check_encoder_request``), and the kind's two maps drawn
    (``encoder_maps``), before the Laplacian is solved, so a refused request
    costs no eigensolve. ``epsilon``, when given, is the step of the
    eigenvalue perturbation (``arithmetic_epsilon``).
    """
    _check_kind(kind)
    n = graph.num_nodes
    count = check_encoder_request(kind, n, dim, seed, eig_count, rank_m, epsilon)
    phi, rho = encoder_maps(kind, seed, count, dim)
    dec = laplacian_eigh(graph, normalized)
    if kind == "lpe":
        eps = None if epsilon is None else arithmetic_epsilon(count, epsilon)
        return lpe(dec, phi, rho, count, eps), count
    return spe(dec, phi, rho, n if rank_m is None else rank_m), count


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
    dec = laplacian_eigh(graph, normalized)
    n = dec.n
    root = math.sqrt(n)
    scale = np.sqrt(np.clip(dec.eigenvalues, 0.0, None))
    p_adj = dec.eigenvectors * scale
    if normalized:
        deg = graph.adjacency_matrix.sum(axis=1).astype(float)
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
    want = graph.adjacency_matrix if target == "adjacency" else np.eye(n, dtype=bool)
    row_max = scores.max(axis=1)
    maxima = scores >= row_max[:, None] - _TIE_TOL
    margin = float((row_max - np.where(want, -np.inf, scores).max(axis=1)).min())
    failed = tuple(np.flatnonzero((maxima != want).any(axis=1)).tolist())
    return IdentifyingReport(passed=not failed, margin=margin, rows_failed=failed)
