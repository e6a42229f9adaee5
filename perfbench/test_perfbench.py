"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They check that inputs depend on the seed alone, that the computed per-layer
counts repeat exactly, and that every checker counts a wrong answer as a
failure.
"""

from __future__ import annotations

import json
import random
import statistics
import threading

import pytest

import run
from checks import Outcome, check
from tracing import COMPUTED, Tracer
from workloads import WORKLOADS, connected_graph


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = run.per_layer(Tracer(), run.Stats(job_s=[1.0], untraced_s=1.0))
    for key, emitted in (
        ("end_to_end", run.END_TO_END_UNITS),
        ("per_layer", {name: run.layer_unit(name) for name in layers}),
    ):
        assert {m["name"]: m["unit"] for m in spec[key]} == emitted
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("jobs", [36, 56, 60, 200])
def test_tail_pct_is_the_highest_percentile_with_ten_jobs_beyond(jobs):
    times = [float(t) for t in range(jobs)]
    cuts = statistics.quantiles(times, n=100, method="inclusive")
    beyond = lambda pct: sum(t > cuts[pct - 1] for t in times)  # noqa: E731
    pct = run.tail_pct(jobs)
    assert beyond(pct) >= run.TAIL_JOBS > beyond(pct + 1)


def test_a_call_that_leaves_a_thread_running_fails():
    stop = threading.Event()

    class Cli:
        @staticmethod
        def main(argv):
            threading.Thread(target=stop.wait).start()
            return 0

    try:
        outcome, _ = run.invoke(Cli, ["pe"])
    finally:
        stop.set()
    assert outcome.rc == 0 and "thread" in outcome.error


def test_connected_graph_has_the_requested_size_and_is_connected():
    for seed in range(20):
        doc = connected_graph(random.Random(seed), 12, 20)
        assert doc["num_nodes"] == 12 and len(doc["edges"]) == 20
        reached, frontier = {0}, [0]
        while frontier:
            u = frontier.pop()
            for a, b in doc["edges"]:
                for x, y in ((a, b), (b, a)):
                    if x == u and y not in reached:
                        reached.add(y)
                        frontier.append(y)
        assert reached == set(range(12))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_on_the_seed_alone(name, tmp_path):
    first = WORKLOADS[name].build(7, _mkdir(tmp_path / "a"))
    second = WORKLOADS[name].build(7, _mkdir(tmp_path / "b"))
    other = WORKLOADS[name].build(8, _mkdir(tmp_path / "c"))
    files = lambda d: [p.read_text() for p in sorted(d.iterdir())]  # noqa: E731
    assert files(tmp_path / "a") == files(tmp_path / "b") != files(tmp_path / "c")
    assert [[u.check for u in r] for r in first] == [[u.check for u in r] for r in second]
    assert [[u.check for u in r] for r in first] == [[u.check for u in r] for r in other]


def _mkdir(path):
    path.mkdir()
    return path


# A few units per workload, enough to reach every layer the workload drives.
SAMPLES = {
    "replay": lambda r: r[:4] + r[-2:],
    "separate": lambda r: r[:3] + r[-1:],
    "encode": lambda r: r[:5],
}

# A count of the layer each workload is built to drive.
DRIVEN = {
    "replay": "digits.oracle_subst",
    "separate": "refine.tuples",
    "encode": "spectral.eigh_n3",
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_computed_counts_repeat_exactly(name, tmp_path):
    workload = WORKLOADS[name]
    cli, rounds, _ = run.setup(workload, 3, tmp_path / "work")
    sample = [SAMPLES[name](rounds[0])]
    seen = []
    for _ in range(2):
        tracer = Tracer()
        stats = run.run_rounds(cli, sample, count=1, tracer=tracer)
        assert stats.failed == 0, stats.failures
        seen.append({**{k: tracer.counts.get(k, 0) for k in COMPUTED}, "cli.out_bytes": stats.out_bytes})
    assert seen[0] == seen[1]
    assert seen[0]["cli.out_bytes"] > 0
    assert seen[0][DRIVEN[name]] > 0


def _real_outcomes(tmp_path):
    """One passing unit per checker, with the outcomes the CLI gave it."""
    found = {}
    for name, workload in WORKLOADS.items():
        cli, rounds, _ = run.setup(workload, 5, tmp_path / name)
        for unit in SAMPLES[name](rounds[0]):
            if unit.check not in found:
                found[unit.check] = (unit, [run.invoke(cli, argv)[0] for argv in unit.argvs])
    return found


def _edit(outcome: Outcome, change) -> Outcome:
    doc = json.loads(outcome.out)
    change(doc)
    return Outcome(outcome.rc, json.dumps(doc), outcome.err)


def _flip_verdict(doc):
    doc["distinguished"] = not doc["distinguished"]


def _nan_row(doc):
    doc["rows"][0][0] = float("nan")


def _drop_row(doc):
    doc["rows"].pop()


def _shift_row(doc):
    doc["rows"][0][0] += 1e-3


def _merge_classes(doc):
    doc["histograms"][-1] = [sum(doc["histograms"][-1])]


# For each checker, edits that make its output wrong. The first outcome of
# the unit is edited unless the entry names another.
WRONG = {
    "replay": [
        lambda d: d.update({"pass": False}),
        lambda d: d["partition_equal_per_layer"].__setitem__(-1, False),
        lambda d: d["partition_equal_per_layer"].pop(),
    ],
    "verdict": [_flip_verdict, lambda d: d.update({"at_iteration": 5})],
    "refine_pair": [(1, _merge_classes), lambda d: d["histograms"].pop()],
    "pe": [_nan_row, _drop_row],
    "spe_pair": [(1, _shift_row), _nan_row],
    "identifying": [
        lambda d: d.update({"pass": False}),
        lambda d: d["adjacency"].update({"passed": False}),
    ],
    "tokens": [lambda d: d.update({"token_count": d["token_count"] + 1}), _drop_row],
}


def test_checkers_pass_right_answers_and_fail_wrong_ones(tmp_path):
    found = _real_outcomes(tmp_path)
    assert sorted(found) == sorted(WRONG)
    for kind, (unit, outcomes) in found.items():
        assert check(unit, outcomes) is None, kind
        for edit in WRONG[kind]:
            which, change = edit if isinstance(edit, tuple) else (0, edit)
            wrong = list(outcomes)
            wrong[which] = _edit(outcomes[which], change)
            assert check(unit, wrong) is not None, kind
        first = outcomes[0]
        for broken in (
            Outcome(1, first.out, first.err),
            Outcome(2, "", '{"error": {"code": "X", "message": "y"}}'),
            Outcome(0, '{"error": {"code": "X", "message": "y"}}', ""),
            Outcome(None, "", "", error="RuntimeError: boom"),
            Outcome(0, first.out[: len(first.out) // 2], first.err),
        ):
            assert check(unit, [broken, *outcomes[1:]]) is not None, kind
