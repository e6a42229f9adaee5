"""Benchmark of the wlsim command line.

    python3 perfbench/run.py --workload replay --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. Each job is one ``wlsim.cli.main(argv)``
call in this process with stdout and stderr captured: a closed loop with one
client, no threads and no subprocess per job, so the timings measure the
program and not interpreter start-up. Every job's output is checked
(``checks.py``); a wrong exit code, an error document, an exception or a failed
check counts as a failed job, and the loop carries on.

The workloads and the reason each was chosen are in ``workloads.py``. A run
generates the workload's job list from the seed, executes the whole list in
passes until ``--seconds`` is used up (at least two passes), and takes a
job's time as the fastest of its passes. Each call's wall time is scaled to
a reference host speed, measured by a fixed probe just before and after the
call (see ``PROBE_REF_S``), so that two runs of the same code agree although
the shared host's speed drifts between them. It then prints one line per
metric and, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` counts every run of
every job.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median of five (scaled) set-ups, each importing wlsim afresh,
  generating and writing the inputs and running one untimed warm-up job;
- ``jobs_per_s``: jobs over the sum of their (scaled) times;
- ``job_ms_p50``: median (scaled) time of a job;
- ``job_ms_tail``: mean time of the ten slowest jobs, those beyond the
  highest percentile that has ten jobs beyond it (the mean of the ten moves
  less from seed to seed than the percentile, which falls between whichever
  two random graphs happen to sit at that rank);
- ``pass_ratio``: jobs that passed their check over jobs attempted, i.e.
  1 - fail_ratio (kept above zero, so a relative bound applies);
- ``peak_rss_mb``: the peak resident set of this process.

``--trace 1`` runs a fixed prefix of rounds, each job untraced and then traced,
and reports per-layer metrics (``tracing.py``), writing the spans to
``.bench_out/``. Graph files are written to ``.bench_work/`` and removed at exit.

Exits 2 without a result when the checkout has no ``src/wlsim``.
``report.py`` runs every workload and prints all of their metrics.
"""

from __future__ import annotations

import os

# One BLAS thread: the loop has a single client, and OpenBLAS threads that
# spin on a small shared machine add noise without speeding up matrices of
# this size. Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from checks import Outcome, check
from tracing import COMPUTED, PEAKS, TIME_METRICS, Tracer
from workloads import WARMUP_GRAPH, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# On a shared machine the host's speed drifts by half or more, both ways, for
# seconds to minutes at a time, so that whole runs of the same code differ by
# a third. A fixed probe of the two kinds of work wlsim does (pure-Python dict
# updates and small numpy row updates) runs before and after every timed call,
# and the call's wall time is scaled by PROBE_REF_S over the mean of its two
# probes: the time the call would take on a host where the probe takes
# PROBE_REF_S. That constant is a round number near the probe's median on the
# machine the benchmark was written on (2 vCPUs of a shared Xeon); only ratios
# between commits matter.
PROBE_REF_S = 1e-3
_PROBE_ROWS = numpy.arange(64.0).reshape(8, 8)
# A timed run repeats the workload's whole job list in passes, at least this
# many, and takes a job's time as the fastest of its passes.
MIN_PASSES = 2
TAIL_JOBS = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_tail": "ms",
    "pass_ratio": "1",
    "peak_rss_mb": "MB",
}


@dataclass
class Stats:
    """What a sequence of rounds did."""

    job_s: list[float] = field(default_factory=list)
    rounds: int = 0
    passes: int = 0
    pass_s: list[float] = field(default_factory=list)
    probe_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    out_bytes: int = 0
    untraced_s: float = 0.0
    failures: list[str] = field(default_factory=list)


def probe() -> float:
    """Wall time of a fixed piece of work: the host's speed at this moment."""
    start = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    rows = _PROBE_ROWS.copy()
    for i in range(60):
        row = rows[i % 8, :].copy()
        rows[i % 8, :] = 0.5 * row + rows[(i + 1) % 8, :]
    return time.perf_counter() - start


def scaled(elapsed: float, before: float, after: float) -> float:
    """A wall time scaled to the reference host speed, given the probes around it."""
    return elapsed * 2.0 * PROBE_REF_S / (before + after)


def invoke(cli, argv, tracer=None):
    """One CLI call with captured output; returns its Outcome and wall time.

    A call that leaves a thread running fails: work that goes on between
    calls would slow the probes and be scaled away.
    """
    out, err = io.StringIO(), io.StringIO()
    call = lambda: cli.main(list(argv))  # noqa: E731
    error = None
    threads = threading.active_count()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = tracer.job(call) if tracer is not None else call()
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the harness records the failure and carries on
            rc, error = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
    if error is None and threading.active_count() > threads:
        error = f"left {threading.active_count() - threads} thread(s) running"
    return Outcome(rc, out.getvalue(), err.getvalue(), error), elapsed


def run_round(cli, units, stats: Stats, tracer=None) -> list[float]:
    """Run and check every unit of a round once; returns each call's time.

    Without a ``tracer`` the time is scaled to the reference host speed (see
    PROBE_REF_S). With one, every call runs untraced and then traced, and
    only the traced run is checked and timed, in plain wall time.
    """
    times = []
    for unit in units:
        outcomes = []
        for argv in unit.argvs:
            if tracer is None:
                before = probe()
                outcome, elapsed = invoke(cli, argv)
                after = probe()
                stats.probe_s += (before, after)
                elapsed = scaled(elapsed, before, after)
            else:
                # The untraced twin runs just before, so that the overhead
                # ratio compares runs close in time.
                stats.untraced_s += invoke(cli, argv)[1]
                tracer.install()
                try:
                    outcome, elapsed = invoke(cli, argv, tracer)
                finally:
                    tracer.uninstall()
            outcomes.append(outcome)
            times.append(elapsed)
            stats.out_bytes += len(outcome.out)
        reason = check(unit, outcomes)
        stats.attempted += len(unit.argvs)
        if reason is not None:
            stats.failed += len(unit.argvs)
            stats.failures.append(f"{' '.join(unit.argvs[0])}: {reason}")
    return times


def run_rounds(cli, rounds, *, count: int, tracer=None) -> Stats:
    """Run the first ``count`` rounds once each."""
    stats = Stats()
    for units in rounds[:count]:
        stats.job_s += run_round(cli, units, stats, tracer)
        stats.rounds += 1
    return stats


def run_passes(cli, rounds, seconds: float) -> Stats:
    """Run every round once per pass, in passes until ``seconds`` is used up.

    Every call is checked, and a job's time is the fastest of its passes.
    The run stops before a pass that would, at the mean pass time so far, end
    past the limit, but not before ``MIN_PASSES``.
    """
    stats = Stats(rounds=len(rounds))
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        times = [t for units in rounds for t in run_round(cli, units, stats)]
        stats.pass_s.append(time.perf_counter() - begun)
        stats.job_s = [min(pair) for pair in zip(stats.job_s, times)] if stats.passes else times
        stats.passes += 1
        elapsed = time.perf_counter() - start
        if stats.passes >= MIN_PASSES and elapsed + elapsed / stats.passes > seconds:
            return stats


def setup(workload, seed: int, directory: Path):
    """Import wlsim, generate and write the inputs, run one warm-up job.

    Returns the CLI module, the rounds and the wall time this took.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    for name in [m for m in sys.modules if m == "wlsim" or m.startswith("wlsim.")]:
        del sys.modules[name]
    cli = importlib.import_module("wlsim.cli")
    directory.mkdir(parents=True)
    rounds = workload.build(seed, directory)
    warmup = directory / "warmup.json"
    warmup.write_text(json.dumps(WARMUP_GRAPH))
    argv = [str(warmup) if a == "{graph}" else a for a in workload.warmup]
    outcome, _ = invoke(cli, argv)
    elapsed = time.perf_counter() - start
    if outcome.rc != 0:
        raise RuntimeError(f"warm-up job {argv} failed: {outcome.error or outcome.err}")
    return cli, rounds, elapsed


def src_lines() -> int:
    return sum(
        1
        for path in sorted((SRC / "wlsim").rglob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(),
    }


def tail_pct(jobs: int) -> int:
    """The highest whole percentile with ``TAIL_JOBS`` of ``jobs`` beyond it."""
    return max(p for p in range(1, 100) if jobs - 1 - (jobs - 1) * p // 100 >= TAIL_JOBS)


def end_to_end(stats: Stats, setup_times: list[float]) -> dict:
    job_ms = [1000.0 * s for s in stats.job_s]
    return {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": len(stats.job_s) / sum(stats.job_s),
        "job_ms_p50": statistics.median(job_ms),
        "job_ms_tail": statistics.mean(sorted(job_ms)[-TAIL_JOBS:]),
        "pass_ratio": (stats.attempted - stats.failed) / stats.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced: Stats) -> dict:
    m = dict(tracer.self_times())
    m.update({name: tracer.counts.get(name, 0) for name in (*COMPUTED, *PEAKS)})
    m["cli.out_bytes"] = traced.out_bytes
    step_s = m["refine.step_s"] + m["refine.local_step_s"]
    m["refine.tuple_rounds_per_s"] = m["refine.tuple_rounds"] / step_s if step_s else 0.0
    oracle_s = m["digits.oracle_s"]
    m["digits.subst_per_s"] = m["digits.oracle_subst"] / oracle_s if oracle_s else 0.0
    m["trace.overhead_ratio"] = sum(traced.job_s) / traced.untraced_s - 1.0
    return m


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("_max", "_ratio")):
        return "1"
    return "count"


class Terminated(BaseException):
    """SIGTERM, raised past the harness's handlers so that clean-up runs."""


def _terminate(signum, frame):
    raise Terminated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "wlsim" / "cli.py").is_file():
        print(f"no wlsim sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGTERM, _terminate)

    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            before = probe()
            cli, rounds, elapsed = setup(workload, args.seed, work / f"setup{i}")
            setup_times.append(scaled(elapsed, before, probe()))
        if args.trace:
            tracer = Tracer()
            stats = run_rounds(cli, rounds, count=workload.trace_rounds, tracer=tracer)
            metrics = per_layer(tracer, stats)
            units = {name: layer_unit(name) for name in metrics}
            out = ROOT / ".bench_out" / f"spans-{workload.name}-seed{args.seed}.json"
            out.parent.mkdir(exist_ok=True)
            out.write_text(json.dumps({"spans": tracer.dump(), "counts": dict(tracer.counts)}))
        else:
            stats = run_passes(cli, rounds, args.seconds)
            metrics = end_to_end(stats, setup_times)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    for key, value in environment().items():
        print(f"# {key}: {value}")
    jobs = len(stats.job_s)
    print(f"# workload {workload.name}, seed {args.seed}: {jobs} jobs in "
          f"{stats.rounds} rounds, {sum(stats.job_s):.2f} s in jobs")
    if args.trace:
        total = sum(metrics[name] for name in TIME_METRICS)
        for name in sorted(TIME_METRICS, key=metrics.get, reverse=True):
            print(f"# self-time share {name}: {metrics[name] / total:.1%}")
    else:
        passes = ", ".join(f"{s:.2f}" for s in stats.pass_s)
        print(f"# the job list ran {stats.passes} times, taking {passes} s of wall time; "
              f"a job's time is its fastest")
        print(f"# host probe median {1000.0 * statistics.median(stats.probe_s):.4f} ms; "
              f"times are scaled to a probe of {1000.0 * PROBE_REF_S:g} ms")
        pct = tail_pct(jobs)
        value = statistics.quantiles(stats.job_s, n=100, method="inclusive")[pct - 1]
        print(f"# job_ms_tail is the mean of the {TAIL_JOBS} slowest of {jobs} jobs, "
              f"those beyond p{pct} = {1000.0 * value:.4f} ms")
        print(f"# fail_ratio: {stats.failed / stats.attempted:.4f} "
              f"({stats.failed} of {stats.attempted} jobs)")
    for name, value in metrics.items():
        print(f"{name:<28} {value:>16.10g} {units[name]}")
    for reason in stats.failures[:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(128 + signal.SIGTERM)
