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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlsim.cli import _dumps
from wlsim.graphs import Graph, builtin_pair, graph_to_dict, random_graph


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "wlsim.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


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
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=300,
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


def test_refine_rejects_a_bound_below_the_order(p3_file):
    proc = run_cli("refine", "--graph", p3_file, "--k", "2", "--s", "1", "--variant", "kwl")
    assert proc.returncode == 2
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


@pytest.mark.parametrize(
    "argv", [("pe", "--kind", "lpe"), ("pe", "--kind", "spe"), ("tokens",), ("tokens", "--k", "2")]
)
def test_an_oversized_width_is_refused_as_a_limit(p3_file, argv):
    proc = run_cli(*argv, "--graph", p3_file, "--dim", str(10**12))
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


def test_simulate_refuses_a_restricted_space_for_its_ffn_row(tmp_path):
    # The limit that remains at k = 3, s = 1: on 16 nodes the t x (1 + k) c
    # rows of one-hot and counts reach 1204 x 4436 entries.
    path = tmp_path / "g16.json"
    graph = random_graph(random.Random(16), 16, 3 / 16, connected=True)
    path.write_text(json.dumps(graph_to_dict(graph)))
    argv = ("--graph", str(path), "--k", "3", "--s", "1", "--variant", "ks-local")
    proc = run_cli("simulate", *argv)
    assert proc.returncode == 3
    assert proc.stdout == ""
    error = stderr_error(proc)
    assert error["code"] == "MEMORY_LIMIT"
    assert error["message"] == "dense 1204x4436 FFN row exceeds the cap of 2000000"


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
    assert _dumps(tree) == json.dumps(tree, sort_keys=True, indent=2)
