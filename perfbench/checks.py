"""Output checks for benchmark jobs.

A checker gets a unit and the outcome of each of its CLI invocations and
returns ``None`` when the outputs are right, or a reason when they are not.
Spectral outputs are checked by properties (finite, shape, permutation
equivariance), never by digest: a change of eigensolver may rotate the bases
of degenerate eigenspaces without being wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from workloads import Unit

PE_DIM = 8  # the CLI's default --dim for pe and tokens
SPE_TOL = 1e-6


@dataclass(frozen=True)
class Outcome:
    """What one CLI invocation left behind. ``error`` is set when it raised."""

    rc: int | None
    out: str
    err: str
    error: str | None = None


def _doc(outcome: Outcome) -> dict:
    """The JSON document of a run that exited 0, or ValueError."""
    if outcome.error is not None:
        raise ValueError(f"raised {outcome.error}")
    if outcome.rc != 0:
        raise ValueError(f"exit code {outcome.rc}: {outcome.err.strip()[:200]}")
    doc = json.loads(outcome.out)
    if not isinstance(doc, dict) or "error" in doc:
        raise ValueError(f"error document: {outcome.out[:200]}")
    return doc


def _rows(doc: dict, shape: tuple[int, int]) -> np.ndarray:
    rows = np.asarray(doc["rows"], dtype=float)
    if rows.shape != shape:
        raise ValueError(f"rows have shape {rows.shape}, expected {shape}")
    if not np.isfinite(rows).all():
        raise ValueError("rows hold non-finite values")
    return rows


def _replay(unit: Unit, docs: list[dict]) -> str | None:
    doc = docs[0]
    equal = doc["partition_equal_per_layer"]
    if doc["pass"] is not True:
        return "simulate reported pass: false"
    if len(equal) != doc["layers"] + 1 or not all(v is True for v in equal):
        return f"partitions differ between implementations: {equal}"
    return None


def _verdict(unit: Unit, docs: list[dict]) -> str | None:
    got = (docs[0]["distinguished"], docs[0]["at_iteration"])
    want = tuple(unit.expect["verdict"])
    return None if got == want else f"verdict {got}, expected {want}"


def _refine_pair(unit: Unit, docs: list[dict]) -> str | None:
    """A graph and a relabelling of it: same sorted class sizes every round."""
    sizes = []
    for doc in docs:
        if len(doc["histograms"]) != doc["iterations"]:
            return "histogram count differs from the iteration count"
        sizes.append([sorted(h) for h in doc["histograms"]])
    return None if sizes[0] == sizes[1] else "class sizes differ between relabelled copies"


def _pe(unit: Unit, docs: list[dict]) -> str | None:
    _rows(docs[0], (unit.expect["n"], PE_DIM))
    return None


def _spe_pair(unit: Unit, docs: list[dict]) -> str | None:
    """SPE is permutation-equivariant: row perm[v] of the copy is row v."""
    shape = (unit.expect["n"], PE_DIM)
    rows, copy = _rows(docs[0], shape), _rows(docs[1], shape)
    err = float(np.abs(copy[unit.expect["perm"]] - rows).max())
    return None if err <= SPE_TOL else f"spe not equivariant, max deviation {err:.3e}"


def _identifying(unit: Unit, docs: list[dict]) -> str | None:
    doc = docs[0]
    if doc["pass"] is not True or not (doc["node"]["passed"] and doc["adjacency"]["passed"]):
        return "spectral targets do not identify nodes and neighborhoods"
    return None


def _tokens(unit: Unit, docs: list[dict]) -> str | None:
    """Order 2 with one component: one token per node and per ordered edge."""
    want = unit.expect["n"] + 2 * unit.expect["m"]
    if docs[0]["token_count"] != want:
        return f"token_count {docs[0]['token_count']}, expected n + 2m = {want}"
    _rows(docs[0], (want, PE_DIM))
    return None


CHECKERS = {
    "replay": _replay,
    "verdict": _verdict,
    "refine_pair": _refine_pair,
    "pe": _pe,
    "spe_pair": _spe_pair,
    "identifying": _identifying,
    "tokens": _tokens,
}


def check(unit: Unit, outcomes: list[Outcome]) -> str | None:
    """Run the unit's checker; a missing key or a malformed output is a failure."""
    try:
        docs = [_doc(o) for o in outcomes]
        return CHECKERS[unit.check](unit, docs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
