"""End-to-end checks of the command line front end.

Every test drives the installed module through a real subprocess, so exit
codes, stdout documents, and the machine-readable stderr errors are all
observed exactly as a caller would see them.
"""

import csv
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_helpers import random_graph
from wlsim import cli
from wlsim.cli import SUBCOMMANDS, VARIANT_NAMES, _build_parser, main
from wlsim.graphs import Graph, builtin_pair, graph_to_dict
from wlsim.refine import DEFAULT_MAX_ITERATIONS, refine_to_stable, run_to_dict


# The subprocesses import the package from where these tests import it, so
# an uninstalled checkout runs them as it runs the rest of the suite.
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "wlsim.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=CLI_ENV,
    )


def dumps(value):
    """The text the CLI's JSON writer writes for ``value``: its pieces, joined."""
    pieces = []
    cli._dumps(value, pieces)
    return "".join(pieces)


def stderr_error(proc):
    doc = json.loads(proc.stderr)
    assert set(doc) == {"error"}
    assert set(doc["error"]) == {"code", "message"}
    return doc["error"]


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(graph_to_dict(Graph(3, [(0, 1), (1, 2)]))))
    return str(path)


@pytest.fixture
def c6_file(tmp_path):
    edges = [(i, (i + 1) % 6) for i in range(6)]
    path = tmp_path / "c6.json"
    path.write_text(json.dumps(graph_to_dict(Graph(6, edges))))
    return str(path)


# ------------------------------------------------------------------- refine


def test_refine_reports_the_stable_path_partition(p3_file):
    proc = run_cli("refine", "--graph", p3_file, "--k", "1", "--variant", "kwl")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert set(doc) == {"k", "s", "variant", "iterations", "colors_per_iteration", "histograms"}
    assert doc["k"] == 1 and doc["s"] == 1 and doc["variant"] == "kwl"
    assert doc["iterations"] == 2
    final = doc["colors_per_iteration"][-1]
    assert final[0] == final[2] != final[1]
    assert sorted(doc["histograms"][-1]) == [1, 2]


def test_refine_writes_to_a_file_when_asked(p3_file, tmp_path):
    out = tmp_path / "run.json"
    proc = run_cli("refine", "--graph", p3_file, "--k", "1", "--variant", "kwl", "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    doc = json.loads(out.read_text())
    assert doc["iterations"] == 2


@pytest.mark.parametrize("target", ["missing/run.json", "."])
def test_refine_out_to_a_missing_directory_or_a_directory_is_one_error(p3_file, tmp_path, target):
    out = tmp_path / target
    proc = run_cli("refine", "--graph", p3_file, "--k", "1", "--variant", "kwl", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert stderr_error(proc)["code"] == "FILE_NOT_FOUND"


def test_output_to_a_full_device_is_one_error(p3_file):
    # /dev/full accepts the open and fails the write with ENOSPC.
    argv = ("refine", "--graph", p3_file, "--k", "1", "--variant", "kwl")
    proc = run_cli(*argv, "--out", "/dev/full")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert stderr_error(proc)["code"] == "IO_ERROR"
    # The same on stdout, for a JSON document and for the bench table's CSV.
    for argv in (argv, ("bench", "--format", "csv", "--variants", "1wl")):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "wlsim.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=300, env=CLI_ENV,
            )
        assert proc.returncode == 2
        assert stderr_error(proc)["code"] == "IO_ERROR"


@pytest.mark.parametrize("flag", ["--graph", "--out"])
def test_a_path_the_system_rejects_is_one_error(p3_file, tmp_path, flag):
    # A file name longer than the file system allows fails with ENAMETOOLONG,
    # whoever runs the test.
    long_name = str(tmp_path / ("x" * 300 + ".json"))
    graph, out = (long_name, str(tmp_path / "run.json")) if flag == "--graph" else (p3_file, long_name)
    proc = run_cli("refine", "--graph", graph, "--k", "1", "--variant", "kwl", "--out", out)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert stderr_error(proc)["code"] == "IO_ERROR"


@pytest.mark.parametrize("flag", ["--graph", "--out"])
def test_a_directory_the_user_is_denied_is_one_error(p3_file, tmp_path, flag):
    locked = tmp_path / "locked"
    locked.mkdir()
    (locked / "p3.json").write_text(Path(p3_file).read_text())
    locked.chmod(0)
    try:
        if os.access(locked, os.W_OK):
            pytest.skip("the permission bits do not bind this user")
        graph = str(locked / "p3.json") if flag == "--graph" else p3_file
        out = str(locked / "run.json") if flag == "--out" else str(tmp_path / "run.json")
        proc = run_cli("refine", "--graph", graph, "--k", "1", "--variant", "kwl", "--out", out)
    finally:
        locked.chmod(0o700)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert stderr_error(proc)["code"] == "IO_ERROR"


@pytest.mark.parametrize(
    "argv",
    [
        ("refine", "--graph", "{bad}", "--k", "1", "--variant", "kwl"),
        ("distinguish", "--g1", "{p3}", "--g2", "{bad}", "--k", "1", "--variant", "kwl"),
        ("simulate", "--graph", "{bad}"),
        ("pe", "--graph", "{bad}"),
        ("verify-identifying", "--graph", "{bad}"),
        ("tokens", "--graph", "{bad}"),
    ],
)
def test_a_graph_file_that_is_not_utf8_is_invalid_input(p3_file, tmp_path, argv):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"num_nodes": 2, "edges": [[0, 1]], "name": "caf\xe9"}'.encode("latin-1"))
    proc = run_cli(*(a.format(p3=p3_file, bad=bad) for a in argv))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert stderr_error(proc)["code"] == "INVALID_SCHEMA"


def test_refine_rejects_a_missing_graph_file(tmp_path):
    proc = run_cli("refine", "--graph", str(tmp_path / "nope.json"), "--k", "1", "--variant", "kwl")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert stderr_error(proc)["code"] == "FILE_NOT_FOUND"


def test_refine_rejects_a_malformed_graph_document(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"num_nodes": 2}))
    proc = run_cli("refine", "--graph", str(path), "--k", "1", "--variant", "kwl")
    assert proc.returncode == 2
    assert stderr_error(proc)["code"] == "INVALID_SCHEMA"


@pytest.mark.parametrize(
    "text",
    ["[" * 200_000, '{"num_nodes": 2, "edges": [[0, 1]], "labels": [0, %s]}' % ("9" * 5000)],
    ids=["deep-nesting", "long-integer"],
)
def test_a_graph_file_beyond_the_json_parsers_limits_is_invalid_input(tmp_path, text):
    path = tmp_path / "g.json"
    path.write_text(text)
    proc = run_cli("refine", "--graph", str(path), "--k", "1", "--variant", "kwl")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert stderr_error(proc)["code"] == "INVALID_SCHEMA"


def test_refine_rejects_a_bound_below_the_order(p3_file, c6_file):
    # On the 6-cycle 6^9 tuples exceed the size cap, yet the invalid request
    # exits 2 before any size is checked.
    for path, k, s in ((p3_file, "2", "1"), (c6_file, "9", "3")):
        proc = run_cli("refine", "--graph", path, "--k", k, "--s", s, "--variant", "kwl")
        assert proc.returncode == 2
        assert stderr_error(proc)["code"] == "VARIANT_MISMATCH"


def test_every_command_refuses_an_over_cap_invalid_request_with_exit_two(c6_file):
    request = ("--k", "9", "--s", "3", "--variant", "kwl")
    for argv in (
        ("distinguish", "--pair", "c6_vs_2c3", *request),
        ("simulate", "--graph", c6_file, *request),
        ("bench", "--variants", "kwl:9:3"),
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 2, argv
        assert proc.stdout == ""
        assert stderr_error(proc)["code"] == "VARIANT_MISMATCH"


def test_usage_errors_arrive_as_json_on_stderr(p3_file):
    proc = run_cli("refine", "--graph", p3_file, "--k", "1", "--variant", "classic")
    assert proc.returncode == 2
    err = stderr_error(proc)
    assert err["code"] == "INVALID_SCHEMA"
    assert "classic" in err["message"]


def test_flags_are_accepted_only_where_they_are_read(p3_file):
    for argv in (
        ("refine", "--graph", p3_file, "--k", "1", "--variant", "kwl", "--b", "1"),
        ("pair", "--name", "c6_vs_2c3", "--seed", "1"),
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert stderr_error(proc)["code"] == "INVALID_SCHEMA"


def test_limit_breaches_exit_with_code_three(c6_file, p3_file):
    proc = run_cli("refine", "--graph", c6_file, "--k", "9", "--variant", "kwl")
    assert proc.returncode == 3
    assert stderr_error(proc)["code"] == "MEMORY_LIMIT"
    proc = run_cli("refine", "--graph", p3_file, "--k", "1", "--variant", "kwl", "--max-iter", "0")
    assert proc.returncode == 3
    assert stderr_error(proc)["code"] == "ITERATION_LIMIT"


@pytest.mark.parametrize("k", [9013, 10**6])
def test_a_huge_order_is_refused_at_once(capsys, p3_file, k):
    # In process, as a caller of main sees it: n^k is neither built nor
    # written out, so every subcommand that enumerates tuples exits 3.
    lines = (
        ("refine", "--graph", p3_file, "--k", str(k), "--variant", "kwl"),
        ("distinguish", "--pair", "c6_vs_2c3", "--k", str(k), "--variant", "kwl"),
        ("simulate", "--graph", p3_file, "--k", str(k)),
        ("tokens", "--graph", p3_file, "--k", str(k), "--s", "1"),
        ("bench", "--variants", f"kwl:{k}"),
    )
    for argv in lines:
        assert main(list(argv)) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        n = 6 if argv[0] in ("distinguish", "bench") else 3
        message = f"tuple space of size {n}^{k} exceeds the cap of 2000000"
        assert json.loads(captured.err) == {"error": {"code": "MEMORY_LIMIT", "message": message}}


@pytest.mark.parametrize(
    "argv", [("pe", "--kind", "lpe"), ("pe", "--kind", "spe"), ("tokens",), ("tokens", "--k", "2")]
)
def test_an_oversized_width_is_refused_as_a_limit(p3_file, argv):
    proc = run_cli(*argv, "--graph", p3_file, "--dim", str(10**12))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert stderr_error(proc)["code"] == "MEMORY_LIMIT"


@pytest.mark.parametrize(
    "argv", [("pe",), ("pe", "--epsilon", "0.1"), ("tokens",), ("tokens", "--k", "2")]
)
def test_an_eigenpair_count_above_the_graph_order_is_refused(p3_file, argv):
    proc = run_cli(*argv, "--graph", p3_file, "--eig-count", str(10**12))
    assert proc.returncode == 2
    assert proc.stdout == ""
    err = stderr_error(proc)
    assert err["code"] == "SHAPE_MISMATCH"
    assert err["message"] == f"{10**12} eigenpairs requested but only 3 available"


@pytest.mark.parametrize(
    "argv",
    [("pe", "--kind", "spe"), ("pe", "--kind", "spe", "--epsilon", "0.1"), ("tokens", "--pe", "spe")],
)
def test_an_oversized_channel_count_is_refused_as_a_limit(p3_file, argv):
    proc = run_cli(*argv, "--graph", p3_file, "--eig-count", str(10**12))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert stderr_error(proc)["code"] == "MEMORY_LIMIT"


@pytest.mark.parametrize(
    "argv",
    [
        ("refine", "--graph", "{p3}", "--k", "1", "--variant", "kwl"),
        ("distinguish", "--pair", "c6_vs_2c3", "--k", "1", "--variant", "kwl"),
        ("bench", "--variants", "1wl"),
    ],
)
def test_a_negative_iteration_cap_is_invalid_input(p3_file, argv):
    proc = run_cli(*(a.format(p3=p3_file) for a in argv), "--max-iter", "-1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert stderr_error(proc)["code"] == "INVALID_SCHEMA"


# -------------------------------------------------------------- distinguish


def test_distinguish_separates_the_cycle_pair_only_with_adjacency_awareness():
    proc = run_cli("distinguish", "--pair", "c6_vs_2c3", "--variant", "kwl", "--k", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"distinguished": False, "at_iteration": None}

    proc = run_cli("distinguish", "--pair", "c6_vs_2c3", "--variant", "delta", "--k", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"distinguished": True, "at_iteration": 1}


def test_distinguish_reads_graphs_from_files(p3_file, c6_file):
    proc = run_cli("distinguish", "--g1", p3_file, "--g2", c6_file, "--variant", "kwl", "--k", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["distinguished"] is True


def test_distinguish_requires_exactly_one_input_source(p3_file):
    proc = run_cli(
        "distinguish", "--pair", "c6_vs_2c3", "--g1", p3_file, "--variant", "kwl", "--k", "1"
    )
    assert proc.returncode == 2
    proc = run_cli("distinguish", "--variant", "kwl", "--k", "1")
    assert proc.returncode == 2


def test_the_strongly_regular_pair_resists_plain_order_three():
    proc = run_cli("distinguish", "--pair", "shrikhande_vs_rook", "--variant", "kwl", "--k", "3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"distinguished": False, "at_iteration": None}


# --------------------------------------------------------------------- pair


def test_pair_prints_both_member_graphs():
    proc = run_cli("pair", "--name", "c6_vs_2c3")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert set(doc) == {"name", "first", "second"}
    assert doc["first"]["num_nodes"] == doc["second"]["num_nodes"] == 6
    assert len(doc["first"]["edges"]) == len(doc["second"]["edges"]) == 6


def test_pair_rejects_unknown_names():
    proc = run_cli("pair", "--name", "c7_vs_nothing")
    assert proc.returncode == 2
    assert stderr_error(proc)["code"] == "UNKNOWN_PAIR"


# -------------------------------------------------------------------- bench


def test_bench_csv_has_the_documented_columns_and_verdicts():
    proc = run_cli("bench", "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    header = proc.stdout.splitlines()[0]
    assert header == "pair,variant,k,s,distinguished,at_iteration,wall_time_ms"
    # 3 builtin pairs, each with an isomorphic control, across the 4
    # default panel entries.
    assert len(rows) == 24

    def verdict(pair, variant, k):
        hits = [r for r in rows if r["pair"] == pair and r["variant"] == variant and r["k"] == k]
        assert len(hits) == 1
        return hits[0]

    # The 1wl panel alias normalizes to kwl with k = 1 in the table.
    assert verdict("c6_vs_2c3", "kwl", "1")["distinguished"] == "false"
    assert verdict("c6_vs_2c3", "delta", "2")["distinguished"] == "true"
    assert verdict("c6_vs_2c3", "delta", "2")["at_iteration"] == "1"
    assert verdict("k33_vs_prism", "ks-local", "2")["distinguished"] == "true"
    assert verdict("shrikhande_vs_rook", "kwl", "2")["distinguished"] == "false"
    assert verdict("shrikhande_vs_rook", "kwl", "2")["at_iteration"] == ""

    controls = [r for r in rows if r["pair"].endswith("_iso_control")]
    assert len(controls) == 12
    assert all(r["distinguished"] == "false" for r in controls)


def test_bench_json_totals_count_separations_per_panel_entry():
    proc = run_cli("bench", "--variants", "1wl,delta:2")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert set(doc) == {"suite", "seed", "rows", "totals"}
    assert doc["suite"] == "builtin"
    assert doc["totals"]["1wl"] == {"pairs_distinguished": 0, "controls_distinguished": 0}
    assert doc["totals"]["delta:2"]["controls_distinguished"] == 0
    # delta with k=2 splits the cycle pair and the bipartite pair but not
    # the strongly regular pair.
    assert doc["totals"]["delta:2"]["pairs_distinguished"] == 2
    for row in doc["rows"]:
        assert row["control"] == row["pair"].endswith("_iso_control")


def test_bench_rejects_malformed_panel_entries():
    proc = run_cli("bench", "--variants", "kwl:x")
    assert proc.returncode == 2
    assert stderr_error(proc)["code"] == "INVALID_SCHEMA"
    proc = run_cli("bench", "--variants", "1wl:2")
    assert proc.returncode == 2


def test_bench_refuses_a_repeated_panel_entry():
    # The totals are keyed by spec: a repeat would count its pairs twice.
    proc = run_cli("bench", "--variants", "delta:2,delta:2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert stderr_error(proc)["code"] == "INVALID_SCHEMA"


def test_bench_refuses_a_negative_seed_as_pe_and_tokens_do():
    # random.Random(-5) draws seed 5's stream, so -5 would rerun seed 5's
    # permutations while printing "seed": -5.
    proc = run_cli("bench", "--variants", "1wl", "--seed", "-5")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert stderr_error(proc) == {
        "code": "INVALID_SCHEMA",
        "message": "seed must be a non-negative int, got -5",
    }


# ----------------------------------------------------------------- simulate


def test_simulate_passes_on_the_path(p3_file):
    proc = run_cli("simulate", "--graph", p3_file, "--k", "1", "--layers", "3")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["pass"] is True
    assert doc["partition_equal_per_layer"] == [True] * 4
    assert doc["max_attention_error"] < 1e-8


def test_simulate_fails_under_an_impossible_tolerance(p3_file):
    proc = run_cli("simulate", "--graph", p3_file, "--k", "1", "--tol", "0")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["pass"] is False


EIGHT_NODES = {
    "num_nodes": 8,
    "edges": [[0, 1], [0, 4], [1, 3], [1, 4], [2, 3], [2, 6], [3, 5], [3, 6], [4, 6], [4, 7], [5, 7], [6, 7]],
}


def test_simulate_at_low_temperature_fails_with_a_verdict(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(EIGHT_NODES))
    proc = run_cli("simulate", "--graph", str(path), "--b", "0.5")
    assert proc.returncode == 1
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["pass"] is False
    assert doc["partition_equal_per_layer"] == [True, True, True, False, False]
    # At b=2 the partitions happen to agree, but counts this far from an
    # integer were read back by luck, so the run still fails.
    proc = run_cli("simulate", "--graph", str(path), "--b", "2")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert all(doc["partition_equal_per_layer"])
    assert doc["rounding_slack_max"] >= 0.4
    assert doc["pass"] is False


def test_full_rules_at_order_two_pass_at_low_temperature(tmp_path):
    # Slot j of a full rule has fixed weights, so only the node slots depend
    # on b, and at b = 2 they are sharp enough. The local rule's slot j
    # still sharpens with b, and its counts are too far from an integer.
    path = tmp_path / "g.json"
    path.write_text(json.dumps(EIGHT_NODES))
    argv = ("simulate", "--graph", str(path), "--k", "2", "--b", "2")
    for variant in ("kwl", "delta"):
        proc = run_cli(*argv, "--variant", variant)
        assert proc.returncode == 0, proc.stdout
        doc = json.loads(proc.stdout)
        assert doc["pass"] is True
        assert doc["rounding_slack_max"] < 1e-9
    proc = run_cli(*argv, "--variant", "delta-local")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert all(doc["partition_equal_per_layer"])
    assert doc["rounding_slack_max"] >= 0.4


def test_simulate_replays_order_three_on_the_shrikhande_graph(tmp_path):
    # 4096 tuples: the forward runs on Kronecker factors, never on a
    # 4096 x 4096 attention matrix, so the run fits under the memory cap.
    path = tmp_path / "shrikhande.json"
    path.write_text(json.dumps(graph_to_dict(builtin_pair("shrikhande_vs_rook")[0])))
    proc = run_cli("simulate", "--graph", str(path), "--k", "3", "--variant", "delta")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["pass"] is True
    assert doc["partition_equal_per_layer"] == [True] * 4


def test_simulate_replays_order_three_on_a_restricted_space(tmp_path):
    # k = 3, s = 1 on a random 8-node graph: 356 tuples, all in their own
    # class by the end. The dense form refused it for its 1068 x 2546
    # output projection.
    path = tmp_path / "g8.json"
    graph = random_graph(random.Random(8), 8, 3 / 8, connected=True)
    path.write_text(json.dumps(graph_to_dict(graph)))
    argv = ("--graph", str(path), "--k", "3", "--s", "1", "--variant", "ks-local")
    proc = run_cli("simulate", *argv)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["pass"] is True
    assert all(doc["partition_equal_per_layer"])


def test_simulate_runs_a_restricted_space_in_class_chunks(tmp_path):
    # k = 3, s = 1 on 16 nodes: the t x (1 + k) c row of one-hot and counts
    # would reach 1204 x 4436 entries, over the cap, so the FFN takes the
    # class columns in chunks.
    path = tmp_path / "g16.json"
    graph = random_graph(random.Random(16), 16, 3 / 16, connected=True)
    path.write_text(json.dumps(graph_to_dict(graph)))
    argv = ("--graph", str(path), "--k", "3", "--s", "1", "--variant", "ks-local")
    proc = run_cli("simulate", *argv)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["pass"] is True
    assert all(doc["partition_equal_per_layer"])


@pytest.mark.parametrize("layers", ["65", str(10**9)])
def test_simulate_refuses_a_layer_count_above_the_round_cap(tmp_path, layers):
    path = tmp_path / "p4.json"
    path.write_text(json.dumps(graph_to_dict(Graph(4, [(0, 1), (1, 2), (2, 3)]))))
    proc = run_cli("simulate", "--graph", str(path), "--k", "2", "--layers", layers)
    assert proc.returncode == 3
    assert proc.stdout == ""
    err = stderr_error(proc)
    assert err["code"] == "ITERATION_LIMIT"
    assert err["message"] == f"layer count {layers} exceeds the cap of 64 rounds"


@pytest.mark.parametrize("k", ["1", "2"])
def test_simulate_rejects_a_temperature_that_overflows(c6_file, k):
    proc = run_cli("simulate", "--graph", c6_file, "--k", k, "--b", "1e308")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert stderr_error(proc)["code"] == "INVALID_SCHEMA"
    proc = run_cli("simulate", "--graph", c6_file, "--k", k, "--b", "1e306")
    assert proc.returncode in (0, 1), proc.stderr
    assert proc.stderr == ""
    json.loads(proc.stdout)


@pytest.mark.parametrize("b", ["inf", "nan", "0"])
def test_simulate_requires_a_positive_finite_temperature(p3_file, b):
    proc = run_cli("simulate", "--graph", p3_file, "--k", "2", "--b", b)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert stderr_error(proc)["code"] == "INVALID_SCHEMA"


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_simulate_requires_a_finite_non_negative_tolerance(p3_file, tol):
    proc = run_cli("simulate", "--graph", p3_file, "--tol", tol)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert stderr_error(proc)["code"] == "INVALID_SCHEMA"


def test_simulate_rejects_inconsistent_variant_requests(p3_file):
    proc = run_cli("simulate", "--graph", p3_file, "--k", "2", "--s", "1", "--variant", "kwl")
    assert proc.returncode == 2
    assert stderr_error(proc)["code"] == "VARIANT_MISMATCH"


# ----------------------------------------------------------------------- pe


def test_pe_emits_one_row_per_node(p3_file):
    proc = run_cli("pe", "--graph", p3_file, "--dim", "4")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert set(doc) == {"kind", "seed", "eig_count", "out_dim", "rows"}
    assert doc["kind"] == "lpe"
    assert doc["eig_count"] == 3
    assert doc["out_dim"] == 4
    assert len(doc["rows"]) == 3
    assert all(len(row) == 4 for row in doc["rows"])


def test_pe_spe_variant_accepts_rank_and_separation_flags(c6_file):
    proc = run_cli(
        "pe", "--graph", c6_file, "--kind", "spe", "--rank-m", "2", "--epsilon", "1e-6"
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["kind"] == "spe"
    assert len(doc["rows"]) == 6


@pytest.mark.parametrize("flags", [("--seed", "-1"), ("--epsilon", "nan"), ("--epsilon", "inf")])
def test_pe_rejects_a_negative_seed_and_a_non_finite_epsilon(p3_file, flags):
    proc = run_cli("pe", "--graph", p3_file, *flags)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert stderr_error(proc)["code"] == "INVALID_SCHEMA"


@pytest.mark.parametrize("kind", ["lpe", "spe"])
def test_pe_rejects_an_epsilon_that_overflows_with_one_error_document(p3_file, kind):
    proc = run_cli("pe", "--graph", p3_file, "--kind", kind, "--epsilon", "1e308")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert stderr_error(proc)["code"] == "INVALID_SCHEMA"


RANK_99 = ("INVALID_SCHEMA", "rank_m must lie in [1, 6], got 99")
COUNT_99 = ("SHAPE_MISMATCH", "99 eigenpairs requested but only 6 available")
RANK_0 = ("INVALID_SCHEMA", "rank_m must lie in [1, 6], got 0")


@pytest.mark.parametrize(
    "argv,error",
    [
        (("pe", "--kind", "spe", "--rank-m", "99"), RANK_99),
        (("pe", "--dim", "0"), ("INVALID_SCHEMA", "out_dim must be positive, got 0")),
        (("pe", "--seed", "-1"), ("INVALID_SCHEMA", "seed must be a non-negative int, got -1")),
        (("tokens", "--k", "2", "--pe", "spe", "--rank-m", "99"), RANK_99),
        (("pe", "--eig-count", "99"), COUNT_99),
        (("pe", "--eig-count", "99", "--seed", "-1"), COUNT_99),
        (("pe", "--eig-count", "0"), ("INVALID_SCHEMA", "eig_count must be positive, got 0")),
        (
            ("pe", "--kind", "spe", "--eig-count", "0", "--dim", "0"),
            ("INVALID_SCHEMA", "eig_count must be positive, got 0"),
        ),
        # The tokens twin of each pe line: one check, one verdict.
        (("tokens", "--pe", "spe", "--rank-m", "99"), RANK_99),
        (("tokens", "--dim", "0"), ("INVALID_SCHEMA", "out_dim must be positive, got 0")),
        (("tokens", "--seed", "-1"), ("INVALID_SCHEMA", "seed must be a non-negative int, got -1")),
        (("tokens", "--eig-count", "99"), COUNT_99),
        (("tokens", "--eig-count", "99", "--seed", "-1"), COUNT_99),
        (("tokens", "--eig-count", "0"), ("INVALID_SCHEMA", "eig_count must be positive, got 0")),
        (
            ("tokens", "--pe", "spe", "--eig-count", "0", "--dim", "0"),
            ("INVALID_SCHEMA", "eig_count must be positive, got 0"),
        ),
        # A rank outside 1..n is refused whatever kind reads it.
        (("pe", "--kind", "lpe", "--rank-m", "0"), RANK_0),
        (("tokens", "--pe", "lpe", "--rank-m", "0"), RANK_0),
        (("tokens", "--pe", "spe", "--rank-m", "0"), RANK_0),
        (("pe", "--kind", "lpe", "--rank-m", "99"), RANK_99),
        (("tokens", "--pe", "lpe", "--rank-m", "99"), RANK_99),
        (("tokens", "--pe", "raw_targets", "--rank-m", "99"), RANK_99),
        (("tokens", "--k", "2", "--pe", "raw_targets", "--rank-m", "0"), RANK_0),
    ],
)
def test_bad_encoder_arguments_are_refused_before_the_eigensolve(
    monkeypatch, capsys, c6_file, argv, error
):
    # In process, so the stand-in reaches the solver: each line exits 2
    # with its own error and the Laplacian is never solved.
    def no_eigensolve(matrix):
        raise AssertionError("the Laplacian was solved")

    monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
    assert main([*argv, "--graph", c6_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    code, message = error
    assert json.loads(captured.err) == {"error": {"code": code, "message": message}}


def test_pe_rows_depend_on_the_seed(p3_file):
    first = run_cli("pe", "--graph", p3_file, "--seed", "0")
    second = run_cli("pe", "--graph", p3_file, "--seed", "1")
    assert first.returncode == second.returncode == 0
    assert json.loads(first.stdout)["rows"] != json.loads(second.stdout)["rows"]


# ------------------------------------------------------- verify-identifying


def test_verify_identifying_passes_on_small_graphs(p3_file, c6_file):
    for path in (p3_file, c6_file):
        proc = run_cli("verify-identifying", "--graph", path)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["pass"] is True
        assert doc["node"]["passed"] is True
        assert doc["node"]["margin"] >= 0.99
        assert doc["node"]["rows_failed"] == []
        assert doc["adjacency"]["passed"] is True


def test_verify_identifying_supports_the_normalized_walk(p3_file):
    proc = run_cli("verify-identifying", "--graph", p3_file, "--normalized")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


# ------------------------------------------------------------------- tokens


def test_token_counts_follow_the_space_size(p3_file, c6_file):
    proc = run_cli("tokens", "--graph", p3_file, "--k", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["token_count"] == 3
    # n + 2m tokens at order two with the single-component bound.
    proc = run_cli("tokens", "--graph", p3_file, "--k", "2", "--s", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["token_count"] == 3 + 2 * 2
    proc = run_cli("tokens", "--graph", c6_file, "--k", "2", "--s", "1")
    assert json.loads(proc.stdout)["token_count"] == 6 + 2 * 6


def test_tokens_rejects_an_unknown_encoder_kind(p3_file):
    proc = run_cli("tokens", "--graph", p3_file, "--pe", "fourier")
    assert proc.returncode == 2
    assert stderr_error(proc)["code"] == "INVALID_SCHEMA"


# ------------------------------------------------------------- determinism


@pytest.mark.parametrize(
    "argv",
    [
        ("refine", "--graph", "{p3}", "--k", "1", "--variant", "kwl"),
        ("pe", "--graph", "{p3}", "--kind", "spe", "--seed", "3"),
        ("tokens", "--graph", "{p3}", "--k", "2", "--pe", "lpe"),
        ("pair", "--name", "k33_vs_prism"),
        ("simulate", "--graph", "{p3}", "--k", "1"),
    ],
)
def test_repeated_runs_are_byte_identical(argv, p3_file):
    argv = tuple(a.format(p3=p3_file) for a in argv)
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr == ""


def test_bench_is_deterministic_apart_from_wall_clock_times():
    # wall_time_ms is a measurement, not a function of the seed, so the
    # comparison masks that column and requires everything else to match.
    runs = [run_cli("bench", "--variants", "1wl", "--format", "csv", "--seed", "7") for _ in range(2)]
    tables = []
    for proc in runs:
        assert proc.returncode == 0
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        assert all(len(r) == 7 for r in rows)
        tables.append([r[:6] for r in rows])
    assert tables[0] == tables[1]


# -------------------------------------------------------------- JSON writer

JSON_SCALARS = (
    st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")])
    | st.booleans()
    | st.none()
    | st.text()
    | st.sampled_from(['quote " and \\ backslash', "tab\tnew\nline", "caf\xe9 \u2603 \U0001f600"])
)

JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
def test_the_json_writer_matches_the_standard_library(tree):
    assert dumps(tree) == json.dumps(tree, sort_keys=True, indent=2)


MATRIX_NUMBERS = (
    st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 5e-324, 1e-7, 1e16, float("nan"), float("inf"), float("-inf")])
)


@st.composite
def number_matrices(draw):
    """A t x d list of lists of ints and floats, 1 x 1, 1 x d and t x 1
    among them."""
    t, d = draw(st.sampled_from([(1, 1), (1, 5), (6, 1)]) | st.tuples(st.integers(1, 6), st.integers(1, 6)))
    row = st.lists(MATRIX_NUMBERS, min_size=d, max_size=d)
    return draw(st.lists(row | row.map(tuple), min_size=t, max_size=t))


def written(doc, block=cli._MATRIX_BLOCK):
    """``dumps(doc)``, with blocks of ``block`` entries, and the number of
    matrices it wrote in blocks of rows."""
    with (
        mock.patch.object(cli, "_MATRIX_BLOCK", block),
        mock.patch.object(cli, "_dumps_matrix", wraps=cli._dumps_matrix) as spy,
    ):
        text = dumps(doc)
    return text, spy.call_count


@settings(max_examples=300, deadline=None)
@given(number_matrices(), st.booleans(), st.sampled_from([1, 5, cli._MATRIX_BLOCK]))
def test_the_matrix_writer_matches_the_standard_library(matrix, nested, block):
    # A block of 1 entry writes one row per C call, 5 entries some rows.
    doc = {"k": 2, "rows": matrix} if nested else matrix
    assert written(doc, block) == (json.dumps(doc, sort_keys=True, indent=2), 1)


@pytest.mark.parametrize(
    "doc",
    [[], [[]], [[1.5], []], [[1.5, [2]], [3]], [[1.5, {"a": 1}]], [[True, 1]], [[1, "2"]], {"a": [1, 2]}],
)
def test_an_empty_row_or_a_row_with_a_non_number_takes_the_general_path(doc):
    for value in (doc, {"rows": doc}):
        assert written(value) == (json.dumps(value, sort_keys=True, indent=2), 0)


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]

# Around the edges of the integer writer's chunks, and short arrays.
CHUNK_LENGTHS = [cli._INT_CHUNK - 1, cli._INT_CHUNK, cli._INT_CHUNK + 1]


def as_lists(tree):
    """``tree`` with every array replaced by its ``tolist()``: the document
    ``json.dumps`` should write for it."""
    if isinstance(tree, np.ndarray):
        return tree.tolist()
    if isinstance(tree, dict):
        return {key: as_lists(value) for key, value in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [as_lists(item) for item in tree]
    return tree


def spread(dtype, length, rng):
    """``length`` random entries of ``dtype`` whose magnitudes spread over
    every digit count, with the type's minimum and maximum among them."""
    info = np.iinfo(dtype)
    values = rng.integers(info.min, info.max, length, dtype=dtype, endpoint=True)
    values >>= rng.integers(0, info.bits, length).astype(dtype)
    values[rng.permutation(length)[:2]] = [info.min, info.max][: min(2, length)]
    return values


@st.composite
def int_arrays(draw):
    """A 1-D integer array of any width: a few drawn entries, then a seeded
    tail that may take it across a chunk boundary; read-only or not, and
    now and then a strided view."""
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
    info = np.iinfo(dtype)
    head = draw(st.lists(st.integers(info.min, info.max), max_size=6))
    length = draw(st.sampled_from([0, 0, 1, 30, *CHUNK_LENGTHS]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.concatenate([np.array(head, dtype), spread(dtype, length, rng)])
    values = values[:: draw(st.sampled_from([1, 1, 2, -1]))]
    if draw(st.booleans()):
        values.setflags(write=False)
    return values


INT_ARRAY_TREES = st.recursive(
    int_arrays() | JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(INT_ARRAY_TREES)
def test_the_json_writer_writes_an_integer_array_as_its_list(tree):
    assert dumps(tree) == json.dumps(as_lists(tree), sort_keys=True, indent=2)


@pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda t: np.dtype(t).name)
@pytest.mark.parametrize("length", [0, 1, 2, *CHUNK_LENGTHS])
def test_every_integer_width_is_written_at_its_extremes_and_chunk_edges(dtype, length):
    values = spread(dtype, length, np.random.default_rng(length))
    values.setflags(write=False)
    for doc in (values, [values], {"a": [1, {"b": [values, values[:1]]}]}):
        assert dumps(doc) == json.dumps(as_lists(doc), sort_keys=True, indent=2)
    info = np.iinfo(dtype)
    extremes = np.array([info.min, info.max, 0], dtype)
    assert dumps(extremes) == "[\n  %d,\n  %d,\n  0\n]" % (info.min, info.max)


@pytest.mark.parametrize(
    "array",
    [
        np.array([True, False]),
        np.array([0.5, 2.0]),
        np.zeros(2, np.float32),
        np.array([1 + 2j]),
        np.array(["a"]),
        np.array([1, "a"], dtype=object),
        np.arange(4).reshape(2, 2),
        np.array(7),
        np.zeros((0, 3), np.int64),
    ],
    ids=["bool", "float64", "float32", "complex", "str", "object", "2-D", "0-D", "empty-2-D"],
)
def test_every_other_array_is_refused_as_the_standard_library_refuses_it(array):
    # Only 1-D integer arrays have one text that every caller agrees on;
    # any other array raises the TypeError json.dumps raises for it.
    for doc in (array, {"a": [1, array]}, [np.arange(3), array]):
        with pytest.raises(TypeError) as ours:
            dumps(doc)
        with pytest.raises(TypeError) as theirs:
            json.dumps(doc, sort_keys=True, indent=2)
        assert str(ours.value) == str(theirs.value)


def refine_document(graph, k, s, variant):
    """The text ``refine`` should write: the standard library's, for the
    run with its arrays as lists."""
    run = refine_to_stable(graph, k, s, variant, max_iterations=DEFAULT_MAX_ITERATIONS)
    return json.dumps(as_lists(run_to_dict(run, variant)), sort_keys=True, indent=2) + "\n"


def relabelled_circulant():
    n, jumps = 10, (1, 3)
    perm = random.Random(3).sample(range(n), n)
    edges = {tuple(sorted((perm[i], perm[(i + j) % n]))) for i in range(n) for j in jumps}
    return Graph(n, tuple(sorted(edges)))


REFINE_GRAPHS = {
    "p3": lambda: Graph(3, [(0, 1), (1, 2)]),
    "circulant": relabelled_circulant,
    "random12": lambda: random_graph(random.Random(12), 12, 0.3, connected=True),
}

REFINE_RULES = [(v, k, k) for v in ("kwl", "delta", "delta-local") for k in (1, 2, 3)] + [
    ("ks-local", k, s) for k in (1, 2, 3) for s in range(1, k + 1)
]


def refine_texts(capsys, path, tmp_path, variant, k, s):
    """``refine``'s stdout, and the file it writes under ``--out``."""
    line = ["refine", "--graph", path, "--k", str(k), "--s", str(s), "--variant", variant]
    out = tmp_path / "run.json"
    assert main(line) == 0
    stdout = capsys.readouterr().out
    assert main([*line, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    return stdout, out.read_text()


@pytest.mark.parametrize("name", sorted(REFINE_GRAPHS))
def test_refine_writes_the_standard_library_text_for_every_rule(name, capsys, tmp_path):
    graph = REFINE_GRAPHS[name]()
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(graph_to_dict(graph)))
    for variant, k, s in REFINE_RULES:
        want = refine_document(graph, k, s, VARIANT_NAMES[variant])
        got = refine_texts(capsys, str(path), tmp_path, variant, k, s)
        assert got == (want, want), (variant, k, s)


def test_refine_text_crosses_a_chunk_boundary(capsys, tmp_path):
    graph = random_graph(random.Random(20), 20, 0.2, connected=True)
    path = tmp_path / "g20.json"
    path.write_text(json.dumps(graph_to_dict(graph)))
    run = refine_to_stable(graph, 3, 3, "kwl")
    assert len(run[0].colors) == 8000 > cli._INT_CHUNK
    want = refine_document(graph, 3, 3, "kwl")
    assert refine_texts(capsys, str(path), tmp_path, "kwl", 3, 3) == (want, want)


@pytest.fixture
def random_file(tmp_path):
    graph = random_graph(random.Random(5), 9, 0.35, connected=True)
    path = tmp_path / "g9.json"
    path.write_text(json.dumps(graph_to_dict(graph)))
    return str(path)


CANONICAL_LINES = [
    ("refine", "--graph", "{g}", "--k", "2", "--variant", "delta"),
    ("distinguish", "--pair", "c6_vs_2c3", "--k", "2", "--variant", "delta"),
    ("simulate", "--graph", "{g}", "--k", "2", "--s", "1", "--variant", "ks-local"),
    ("pe", "--graph", "{g}", "--kind", "lpe"),
    ("pe", "--graph", "{g}", "--kind", "spe", "--dim", "3"),
    ("tokens", "--graph", "{g}", "--k", "1"),
    ("tokens", "--graph", "{g}", "--k", "2", "--s", "1"),
    ("tokens", "--graph", "{g}", "--k", "2", "--s", "1", "--edges-atp"),
    ("tokens", "--graph", "{g}", "--k", "2", "--s", "1", "--pe", "raw_targets"),
    ("verify-identifying", "--graph", "{g}"),
    ("pair", "--name", "k33_vs_prism"),
    ("bench", "--variants", "1wl,delta:2", "--format", "json"),
]


def test_the_canonical_lines_cover_every_subcommand():
    assert {line[0] for line in CANONICAL_LINES} == set(SUBCOMMANDS)


@pytest.mark.parametrize("line", CANONICAL_LINES, ids=" ".join)
def test_stdout_is_the_canonical_json_of_its_document(capsys, random_file, line):
    # Whatever shortcut the writer takes, a real document's text must be
    # what the standard library writes for it.
    assert main([arg.format(g=random_file) for arg in line]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


# ------------------------------------------------------------------ parsing

# A few command lines per subcommand: accepted ones, usage errors and --help.
PARSE_LINES = {
    "refine": [
        ("--graph", "g.json", "--k", "2", "--variant", "delta", "--out", "o.json"),
        ("--graph", "g.json", "--k", "1", "--variant", "classic"),
        ("--graph", "g.json", "--k", "x", "--variant", "kwl"),
        ("--graph", "g.json", "--k", "1", "--variant", "kwl", "--b", "1"),
        ("--graph", "g.json", "--variant", "kwl"),
    ],
    "distinguish": [
        ("--pair", "c6_vs_2c3", "--k", "2", "--variant", "kwl", "--max-iter", "3"),
        ("--g1", "a.json", "--g2", "b.json", "--k", "2", "--s", "1", "--variant", "ks-local"),
        ("--pair", "nope", "--k", "1", "--variant", "kwl"),
    ],
    "bench": [(), ("--format", "csv", "--seed", "4", "--variants", "1wl"), ("--format", "xml")],
    "simulate": [
        ("--graph", "g.json"),
        ("--graph", "g.json", "--lay", "3", "--b", "2", "--tol", "0", "--k", "2"),
        ("--graph", "g.json", "--layers", "two"),
        ("--variant", "kwl"),
    ],
    "pe": [
        ("--graph", "g.json", "--kind", "spe", "--eig-count", "3", "--epsilon", "1e-3", "--seed", "2"),
        ("--graph", "g.json", "--normalized", "--rank-m", "2", "--dim", "4"),
        ("--graph", "g.json", "--kind", "x"),
        ("--graph", "g.json", "--dim"),
    ],
    "verify-identifying": [("--graph", "g.json", "--normalized"), ("--graph", "g.json", "x"), ()],
    "tokens": [
        ("--graph", "g.json", "--k", "2", "--s", "1", "--pe", "raw_targets", "--edges-atp"),
        ("--graph", "g.json", "--pe", "x"),
        ("--graph", "g.json", "--seed", "x"),
    ],
    "pair": [("--name", "c6_vs_2c3"), ("--name", "c6_vs_2c3", "--seed", "1"), ()],
}


def parse(parser, argv, capsys):
    """The namespace of a line, or the exit code and output of a line that
    stops the parser (a usage error or --help)."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err


def test_every_subcommand_has_parse_lines():
    assert set(PARSE_LINES) == set(SUBCOMMANDS)


@pytest.mark.parametrize("name", sorted(PARSE_LINES))
def test_one_subcommand_parser_parses_like_the_full_parser(name, capsys):
    one = _build_parser(name)
    assert "{%s}" % name in one.format_usage()
    for tail in (*PARSE_LINES[name], ("--help",), ("-h",)):
        argv = [name, *tail]
        want = parse(_build_parser(), argv, capsys)
        got = parse(one, argv, capsys)
        assert got == want, argv
        if argv[-1] in ("--help", "-h"):
            assert want[0] == 0 and want[1].startswith(f"usage: wlsim {name} ")


def test_lines_without_a_subcommand_name_get_the_full_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message == "the following arguments are required: command"
    for argv in (["--help"], ["-h", "simulate"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "{" + ",".join(SUBCOMMANDS) + "}" in capsys.readouterr().out
    for argv in (["simulat", "--graph", "g.json"], ["bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.endswith("(choose from " + ", ".join(map(repr, SUBCOMMANDS)) + ")")


def test_main_reads_the_process_arguments_by_default(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["wlsim", "pair", "--name", "c6_vs_2c3"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["name"] == "c6_vs_2c3"


# ----------------------------------------------------------------- package


def test_the_cli_loads_exactly_the_package_modules():
    """``import wlsim.cli`` registers every module under ``src/wlsim`` and no
    other ``wlsim`` module, so a module that only tests use cannot stay in
    the package unnoticed, nor one be missing from it."""
    package = Path(cli.__file__).parent
    want = {"wlsim"} | {f"wlsim.{path.stem}" for path in package.glob("*.py") if path.stem != "__init__"}
    script = "import sys, wlsim.cli; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'wlsim'))"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=CLI_ENV
    )
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == want


# The modules ``wlsim.cli`` registers without executing them.
LAZY_MODULES = ("spectral", "simulate", "tokens")


def executed_after(argv):
    """The lazy modules a fresh process has executed after ``import
    wlsim.cli`` and, unless ``argv`` is None, one ``main(argv)``. A module
    not yet executed is not a plain module: its type says so without
    reading an attribute, which would execute it."""
    script = f"""
import contextlib, io, sys, types, wlsim.cli
if {argv!r} is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            wlsim.cli.main({argv!r})
        except SystemExit:
            pass
print(*(n for n in {LAZY_MODULES!r} if type(sys.modules["wlsim." + n]) is types.ModuleType))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=CLI_ENV
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "argv, want",
    [
        (None, set()),
        (["refine", "--graph", "{graph}", "--k", "2", "--variant", "kwl"], set()),
        (["distinguish", "--pair", "c6_vs_2c3", "--k", "1", "--variant", "kwl"], set()),
        (["pair", "--name", "c6_vs_2c3"], set()),
        (["bench", "--variants", "1wl"], set()),
        (["pe", "--graph", "{graph}", "--dim", "2"], {"spectral"}),
        (["verify-identifying", "--graph", "{graph}"], {"spectral"}),
        (["simulate", "--graph", "{graph}"], {"spectral", "simulate"}),
        (["tokens", "--graph", "{graph}", "--dim", "2"], {"spectral", "tokens"}),
        (["--help"], set(LAZY_MODULES)),
    ],
    ids=lambda value: (
        "import" if value is None else value[0] if isinstance(value, list) else "+".join(sorted(value)) or "none"
    ),
)
def test_a_subcommand_executes_only_the_modules_it_reads(p3_file, argv, want):
    if argv is not None:
        argv = [p3_file if arg == "{graph}" else arg for arg in argv]
    assert executed_after(argv) == want


def test_a_lazy_module_is_the_one_a_plain_import_gives():
    """The CLI's binding, ``sys.modules`` and the package attribute hold one
    module object, and an attribute read through ``sys.modules``, as a
    tracer that wraps the package's functions does, gives the function a
    plain import gives."""
    script = """
import sys, types, wlsim, wlsim.cli as cli
module = sys.modules["wlsim.simulate"]
assert type(module) is not types.ModuleType
assert cli.simulate is module and wlsim.simulate is module
looked_up = getattr(module, "simulate_and_compare")
from wlsim.simulate import simulate_and_compare
assert looked_up is simulate_and_compare
assert type(module) is types.ModuleType and sys.modules["wlsim.simulate"] is module
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=CLI_ENV
    )
    assert proc.returncode == 0, proc.stderr
