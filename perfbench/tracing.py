"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces each traced public function of ``wlsim`` with a
wrapper, in every module namespace that binds it (``eigh`` is bound in
``spectral``, ``simulate``, ``tokens`` and ``cli``), so calls between modules
and within one module are both seen. Spans stay in memory until the run ends.
Per-element helpers such as ``digits.add`` and ``graphs.atomic_type`` are not
wrapped; the counts they would give are computed from the arguments of the
layer call that drives them.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        # Spans nest strictly in one thread, so children never overlap.
        return self.end - self.start - self.child_s


def _tuples(space) -> int:
    return len(space.tuples)


def _oracle_subst(a: dict) -> int:
    """Nodes swept by one ``gnn_reference_step``, over tuples and positions."""
    colors, graph, variant = a["colors"], a["graph"], a["variant"]
    space, nbs = colors.space, graph.neighbor_sets
    if variant in ("delta_klwl", "ks_lwl") or (space.k == 1 and variant == "kwl"):
        return sum(len(nbs[v]) for tup in space.tuples for v in tup)
    return len(space.tuples) * space.k * graph.num_nodes


def _adjacency_bytes(a: dict) -> int:
    space = a.get("space")
    t = _tuples(space) if space is not None else a["graph"].num_nodes ** a["k"]
    return 8 * t * t


def _attn_bytes(a: dict) -> int:
    t = len(a["x"])
    return 8 * len(a["weights"].heads) * t * t


# Traced functions: (module, name, counts). ``counts`` maps the bound
# arguments and the result to count increments, which are the computed
# metrics and depend on the inputs alone, or to values of the PEAKS, of
# which the largest is kept.
TARGETS: list[tuple[str, str, Callable[[dict, object], dict[str, int]] | None]] = [
    ("graphs", "load_graph", None),
    ("graphs", "builtin_pair", None),
    ("refine", "enumerate_tuples", lambda a, r: {"refine.tuples": _tuples(r)}),
    ("refine", "initial_coloring", None),
    ("refine", "refine_step", lambda a, r: {
        "refine.step_calls": 1, "refine.tuple_rounds": _tuples(a["space"])}),
    ("refine", "distinguish", None),
    ("refine", "refine_to_stable", None),
    ("simulate", "gnn_reference_step", lambda a, r: {
        "digits.oracle_calls": 1, "digits.oracle_subst": _oracle_subst(a)}),
    ("spectral", "eigh", lambda a, r: {
        "spectral.eigh_calls": 1, "spectral.eigh_n3": len(a["matrix"]) ** 3}),
    ("spectral", "lpe", None),
    ("spectral", "spe", None),
    ("spectral", "identifying_targets", None),
    ("spectral", "check_identifying", None),
    ("simulate", "simulate_and_compare", lambda a, r: {
        "simulate.attn_err_max": r.max_attention_error, "simulate.slack_max": r.rounding_slack_max}),
    ("simulate", "generalized_adjacency", lambda a, r: {
        "simulate.adjacency_bytes": _adjacency_bytes(a)}),
    ("simulate", "transformer_layer", lambda a, r: {
        "simulate.forward_calls": 1, "simulate.attn_bytes": _attn_bytes(a)}),
    ("tokens", "node_tokens", lambda a, r: {"tokens.rows": r.num_rows}),
    ("tokens", "tuple_tokens", lambda a, r: {"tokens.rows": r.num_rows}),
]

# Self time of these spans makes up each per-layer time metric.
TIME_METRICS = {
    "cli.self_s": ("job",),
    "graphs.load_s": ("graphs.load_graph", "graphs.builtin_pair"),
    "refine.enumerate_s": ("refine.enumerate_tuples",),
    "refine.initial_s": ("refine.initial_coloring",),
    "refine.step_s": ("refine.refine_step",),
    "refine.local_step_s": ("refine.refine_step.ks_lwl",),
    "refine.distinguish_self_s": ("refine.distinguish",),
    "refine.stable_self_s": ("refine.refine_to_stable",),
    "digits.oracle_s": ("simulate.gnn_reference_step",),
    "spectral.eigh_s": ("spectral.eigh",),
    "spectral.encode_s": ("spectral.lpe", "spectral.spe"),
    "spectral.identify_s": ("spectral.identifying_targets", "spectral.check_identifying"),
    "simulate.self_s": ("simulate.simulate_and_compare",),
    "simulate.adjacency_s": ("simulate.generalized_adjacency",),
    "simulate.forward_s": ("simulate.transformer_layer",),
    "tokens.build_s": ("tokens.node_tokens", "tokens.tuple_tokens"),
}

COMPUTED = (
    "cli.out_bytes",
    "refine.tuples",
    "refine.step_calls",
    "refine.tuple_rounds",
    "digits.oracle_calls",
    "digits.oracle_subst",
    "spectral.eigh_calls",
    "spectral.eigh_n3",
    "simulate.adjacency_bytes",
    "simulate.forward_calls",
    "simulate.attn_bytes",
    "tokens.rows",
)

PEAKS = ("simulate.attn_err_max", "simulate.slack_max")


class Tracer:
    """Records nested spans of the traced functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._job = -1
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._job))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start

    def job(self, call: Callable[[], object]):
        """Run one CLI invocation as the root span of a new job."""
        self._job += 1
        index = self._open("job")
        try:
            return call()
        finally:
            self._close(index)

    def _wrap(self, name: str, fn: Callable, counts) -> Callable:
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            span = name
            if name == "refine.refine_step" and bound["variant"] == "ks_lwl":
                span = f"{name}.ks_lwl"
            index = self._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counts is not None:
                for key, value in counts(bound, result).items():
                    if key in PEAKS:
                        self.counts[key] = max(self.counts[key], value)
                    else:
                        self.counts[key] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [
            m for key, m in sys.modules.items() if key == "wlsim" or key.startswith("wlsim.")
        ]
        for module_name, attr, counts in TARGETS:
            original = getattr(sys.modules[f"wlsim.{module_name}"], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original, counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._patched):
            setattr(module, key, value)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_s
        return {
            metric: sum(totals[name] for name in names)
            for metric, names in TIME_METRICS.items()
        }

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "job": s.job}
            for s in self.spans
        ]
