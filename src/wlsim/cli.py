"""Command-line front end.

Every subcommand prints a JSON document to stdout (the bench table can also
be requested as CSV). Failures print one JSON object of the form
``{"error": {"code": ..., "message": ...}}`` to stderr and exit with status
2 for usage or validation problems, or 3 when a size or iteration limit
trips. Subcommands that verify something exit 1 when the check fails, so a
zero status always means "ran and passed".

Identical command lines with identical seeds produce identical output,
except for the wall-clock column of the bench table.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import io
import itertools
import json
import math
import random
import sys
import time
import types
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    FILE_NOT_FOUND,
    INVALID_SCHEMA,
    IO_ERROR,
    LimitError,
    ValidationError,
)
from .graphs import (
    BUILTIN_PAIR_NAMES,
    Graph,
    _check_seed,
    apply_permutation,
    builtin_pair,
    graph_to_dict,
    load_graph,
)
from .refine import DEFAULT_MAX_ITERATIONS, distinguish, refine_to_stable, run_to_dict


def _lazy_module(name: str) -> types.ModuleType:
    """The package module ``name``, registered in ``sys.modules`` and on the
    package at once but executed on its first attribute read, by the
    standard library's ``LazyLoader``. A module already imported is returned
    as it is.

    ``refine``, ``distinguish`` and ``pair`` read none of the three modules
    below, so a process that runs one of them never compiles or executes
    them. Nothing at module level here reads a name from one."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


spectral = _lazy_module("spectral")
simulate = _lazy_module("simulate")
tokens = _lazy_module("tokens")

# Flag spellings accepted on the command line, mapped to the names the
# refinement engine uses internally.
VARIANT_NAMES = {
    "kwl": "kwl",
    "delta": "delta_kwl",
    "delta-local": "delta_klwl",
    "ks-local": "ks_lwl",
}

VARIANT_CHOICES = tuple(sorted(VARIANT_NAMES))

DEFAULT_BENCH_VARIANTS = "1wl,kwl:2,delta:2,ks-local:2:1"

BENCH_COLUMNS = ("pair", "variant", "k", "s", "distinguished", "at_iteration", "wall_time_ms")


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage errors as machine-readable JSON."""

    def error(self, message: str) -> None:  # type: ignore[override]
        _print_error(INVALID_SCHEMA, message)
        raise SystemExit(2)


def _print_error(code: str, message: str) -> None:
    doc = {"error": {"code": code, "message": message}}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


# The types of a matrix's rows and entries that ``_dumps_matrix`` writes,
# and the entries it hands the C encoder at once.
_ROW_TYPES = {list, tuple}
_NUMBER_TYPES = {int, float}
_MATRIX_BLOCK = 4096

# The entries of an integer array that ``_int_text`` writes at once: its
# grid takes a few dozen bytes per entry, whatever the array's length.
_INT_CHUNK = 4096


@functools.cache
def _leaf_encoder(depth: int) -> json.JSONEncoder:
    """The C encoder for a container that holds no container, with its
    items one per line at ``depth`` levels of indentation."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": "))


def _dumps(value: object, out: list[str], depth: int = 0) -> None:
    """Append the text of ``json.dumps(value, sort_keys=True, indent=2)``,
    byte for byte, to ``out`` in pieces, for documents whose dict keys are
    strings, as every document here is, and in which each 1-D integer
    ``ndarray`` stands for its ``tolist()``. The pieces are never joined
    here, so a large document is not copied on its way up.

    With ``indent`` set, the json module falls back to its pure-Python
    encoder. Here only dicts and lists that hold containers are walked in
    Python; a 1-D integer array is written by ``_int_text``, a list of
    non-empty lists of numbers by one C call per block of rows
    (``_dumps_matrix``), and every other container by one call to a C
    encoder whose item separator carries the line break and the
    indentation. Any other array, of bools, floats or more than one
    dimension, reaches that encoder and raises its ``TypeError``, as
    ``json.dumps`` does.
    """
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind in "iu":
        if not len(value):
            out.append("[]")
            return
        outer, inner = "  " * depth, "  " * (depth + 1)
        out.append(f"[\n{inner}")
        _int_text(value, f",\n{inner}", out)
        out.append(f"\n{outer}]")
        return
    if not isinstance(value, (dict, list, tuple)):
        out.append(_leaf_encoder(depth).encode(value))
        return
    if not value:
        out.append("{}" if isinstance(value, dict) else "[]")
        return
    items = value.values() if isinstance(value, dict) else value
    outer, inner = "  " * depth, "  " * (depth + 1)
    # The distinct item types are few, so these checks stay out of a Python loop.
    kinds = set(map(type, items))
    if not any(issubclass(kind, (dict, list, tuple, np.ndarray)) for kind in kinds):
        text = _leaf_encoder(depth + 1).encode(value)
        out.append(f"{text[0]}\n{inner}{text[1:-1]}\n{outer}{text[-1]}")
        return
    if (
        not isinstance(value, dict)
        and kinds <= _ROW_TYPES
        and all(value)
        and set(map(type, itertools.chain.from_iterable(value))) <= _NUMBER_TYPES
    ):
        _dumps_matrix(value, depth, out)
        return
    if isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            out.append(f"{',' if i else ''}\n{inner}{json.dumps(key)}: ")
            _dumps(value[key], out, depth + 1)
        out.append(f"\n{outer}}}")
        return
    out.append("[")
    for i, item in enumerate(value):
        out.append(f",\n{inner}" if i else f"\n{inner}")
        _dumps(item, out, depth + 1)
    out.append(f"\n{outer}]")


def _dumps_matrix(rows: list | tuple, depth: int, out: list[str]) -> None:
    """``_dumps`` of a list of non-empty lists of numbers, such as the rows
    of ``pe`` and ``tokens``: one C call at the entries' depth per block of
    rows, whose separator already ends each entry's line, then one replace
    of the row boundaries. No number's text holds a bracket, so each "],"
    in the encoder's text ends a row.

    A block holds about ``_MATRIX_BLOCK`` entries, or one row when a row is
    longer: the C encoder keeps one string per entry until it returns, so
    long rows are written one at a time."""
    outer, inner, deep = "  " * depth, "  " * (depth + 1), "  " * (depth + 2)
    encode = _leaf_encoder(depth + 2).encode
    boundary = f"\n{inner}],\n{inner}[\n{deep}"
    step = max(1, _MATRIX_BLOCK // len(rows[0]))
    out.append(f"[\n{inner}[\n{deep}")
    for i in range(0, len(rows), step):
        if i:
            out.append(boundary)
        out.append(encode(rows[i : i + step])[2:-2].replace(f"],\n{deep}[", boundary))
    out.append(f"\n{inner}]\n{outer}]")


def _int_text(values: np.ndarray, sep: str, out: list[str]) -> None:
    """Append ``sep.join(map(str, values.tolist()))`` to ``out``, one piece
    per chunk, for a non-empty 1-D integer array of any width and an ASCII
    ``sep``, written without a Python int per entry.

    Each chunk of ``_INT_CHUNK`` entries becomes a uint8 grid with one
    column per entry: a sign row, the decimal digits right-aligned in as
    many rows as the chunk's largest magnitude has, and the separator's
    rows. The digits come from repeated floor division, in int32 when the
    magnitudes fit; leading zeros become NUL bytes by one comparison with a
    power of ten per row. The transposed grid's bytes, with every NUL
    deleted, are the chunk's text, each entry followed by ``sep``.
    """
    sep_rows = np.frombuffer(sep.encode("ascii"), np.uint8)[:, None]
    for start in range(0, len(values), _INT_CHUNK):
        chunk = values[start : start + _INT_CHUNK]
        if chunk.dtype.kind == "i":
            wide = chunk.astype(np.int64, copy=False)
            negative = wide < 0
            # In two's complement the absolute value of int64's minimum
            # wraps to itself, which reads as 2**63 in uint64.
            magnitude = np.abs(wide).view(np.uint64)
        else:
            negative = False
            magnitude = chunk.astype(np.uint64, copy=False)
        top = int(magnitude.max())
        digits = len(str(top))
        if top < 2**31:
            magnitude = magnitude.astype(np.int32)
        grid = np.empty((1 + digits + len(sep_rows), len(chunk)), np.uint8)
        grid[0] = np.multiply(negative, ord("-"), dtype=np.uint8)
        rest = magnitude
        for row in range(digits, 0, -1):
            quotient = rest // 10
            grid[row] = rest - quotient * 10
            rest = quotient
        grid[1 : 1 + digits] += ord("0")
        powers = np.array([10**e for e in range(digits - 1, 0, -1)], magnitude.dtype)
        grid[1:digits] *= magnitude >= powers[:, None]
        grid[1 + digits :] = sep_rows
        out.append(grid.T.tobytes().translate(None, b"\0").decode("ascii"))
    out[-1] = out[-1][: -len(sep)]


def _emit(doc: dict | str, out: str | None = None) -> None:
    """Write a document, or text as it is, to stdout or to ``out``: the
    document's pieces and then a newline, with no joined copy."""
    if isinstance(doc, str):
        pieces = [doc]
    else:
        pieces = []
        _dumps(doc, pieces)
        pieces.append("\n")
    try:
        if out is None:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        else:
            with Path(out).open("w") as file:
                file.writelines(pieces)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        raise ValidationError(FILE_NOT_FOUND, f"cannot write a file at {out}") from None
    except OSError as exc:
        message = f"cannot write {out or 'stdout'}: {exc.strerror or exc}"
        raise ValidationError(IO_ERROR, message) from None


def _read_graph(path: str) -> Graph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValidationError(FILE_NOT_FOUND, f"no such graph file: {path}") from None
    except IsADirectoryError:
        raise ValidationError(FILE_NOT_FOUND, f"not a readable file: {path}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(INVALID_SCHEMA, f"graph file {path} is not UTF-8: {exc}") from None
    except OSError as exc:
        raise ValidationError(IO_ERROR, f"cannot read {path}: {exc.strerror or exc}") from None
    return load_graph(text)


def _resolve_s(k: int, s: int | None) -> int:
    return k if s is None else s


def _parse_bench_spec(spec: str) -> tuple[str, int, int]:
    """Turn a panel entry like ``delta:2`` into (cli_variant, k, s).

    ``1wl`` is shorthand for classic color refinement, i.e. ``kwl:1:1``.
    Omitted orders default to k = 1 and s = k.
    """
    parts = spec.split(":")
    if parts[0] == "1wl":
        if len(parts) != 1:
            raise ValidationError(INVALID_SCHEMA, f"'1wl' takes no order arguments, got {spec!r}")
        return "kwl", 1, 1
    if parts[0] not in VARIANT_NAMES:
        raise ValidationError(INVALID_SCHEMA, f"unknown bench variant spec {spec!r}")
    if len(parts) > 3:
        raise ValidationError(INVALID_SCHEMA, f"expected variant[:k[:s]], got {spec!r}")
    try:
        k = int(parts[1]) if len(parts) > 1 else 1
        s = int(parts[2]) if len(parts) > 2 else k
    except ValueError:
        raise ValidationError(INVALID_SCHEMA, f"non-integer order in bench spec {spec!r}") from None
    return parts[0], k, s


def cmd_refine(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    variant = VARIANT_NAMES[args.variant]
    s = _resolve_s(args.k, args.s)
    run = refine_to_stable(graph, args.k, s, variant, max_iterations=args.max_iter)
    _emit(run_to_dict(run, variant), args.out)
    return 0


def _distinguish_inputs(args: argparse.Namespace) -> tuple[Graph, Graph]:
    if args.pair is not None:
        if args.g1 is not None or args.g2 is not None:
            raise ValidationError(INVALID_SCHEMA, "--pair excludes --g1 and --g2")
        return builtin_pair(args.pair)
    if args.g1 is None or args.g2 is None:
        raise ValidationError(INVALID_SCHEMA, "need either --pair or both --g1 and --g2")
    return _read_graph(args.g1), _read_graph(args.g2)


def cmd_distinguish(args: argparse.Namespace) -> int:
    g1, g2 = _distinguish_inputs(args)
    variant = VARIANT_NAMES[args.variant]
    s = _resolve_s(args.k, args.s)
    res = distinguish(g1, g2, variant, args.k, s, max_iterations=args.max_iter)
    _emit({"distinguished": res.distinguished, "at_iteration": res.at_iteration})
    return 0


def _bench_rows(args: argparse.Namespace) -> tuple[list[dict], list[str]]:
    specs = [s.strip() for s in args.variants.split(",") if s.strip()]
    if not specs:
        raise ValidationError(INVALID_SCHEMA, "empty --variants list")
    panel = []
    for i, spec in enumerate(specs):
        panel.append((spec, *_parse_bench_spec(spec)))
        if spec in specs[:i]:
            # The totals are keyed by spec, so a repeat would count its rows twice.
            raise ValidationError(INVALID_SCHEMA, f"bench spec {spec!r} is repeated")

    _check_seed(args.seed)
    rng = random.Random(args.seed)
    cases: list[tuple[str, Graph, Graph, bool]] = []
    for name in BUILTIN_PAIR_NAMES:
        g1, g2 = builtin_pair(name)
        cases.append((name, g1, g2, False))
        perm = list(range(g1.num_nodes))
        rng.shuffle(perm)
        cases.append((name + "_iso_control", g1, apply_permutation(g1, perm), True))

    rows = []
    for pair_name, ga, gb, is_control in cases:
        for spec, cli_name, k, s in panel:
            t0 = time.perf_counter()
            res = distinguish(ga, gb, VARIANT_NAMES[cli_name], k, s, max_iterations=args.max_iter)
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            rows.append(
                {
                    "pair": pair_name,
                    "variant": cli_name,
                    "k": k,
                    "s": s,
                    "distinguished": res.distinguished,
                    "at_iteration": res.at_iteration,
                    "wall_time_ms": round(elapsed_ms, 3),
                    "control": is_control,
                    "spec": spec,
                }
            )
    return rows, specs


def cmd_bench(args: argparse.Namespace) -> int:
    rows, specs = _bench_rows(args)
    if args.format == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(BENCH_COLUMNS)
        for row in rows:
            at_it = "" if row["at_iteration"] is None else str(row["at_iteration"])
            writer.writerow(
                [
                    row["pair"],
                    row["variant"],
                    row["k"],
                    row["s"],
                    "true" if row["distinguished"] else "false",
                    at_it,
                    row["wall_time_ms"],
                ]
            )
        _emit(buf.getvalue())
        return 0
    totals = {}
    for spec in specs:
        mine = [r for r in rows if r["spec"] == spec]
        totals[spec] = {
            "pairs_distinguished": sum(
                1 for r in mine if not r["control"] and r["distinguished"]
            ),
            "controls_distinguished": sum(
                1 for r in mine if r["control"] and r["distinguished"]
            ),
        }
    _emit({"suite": args.suite, "seed": args.seed, "rows": rows, "totals": totals})
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValidationError(INVALID_SCHEMA, f"tolerance must be finite and >= 0, got {args.tol!r}")
    graph = _read_graph(args.graph)
    variant = VARIANT_NAMES[args.variant]
    s = _resolve_s(args.k, args.s)
    report = simulate.simulate_and_compare(
        graph, args.k, s, variant, t_layers=args.layers, b=args.b
    )
    doc = report.to_dict()
    doc["pass"] = bool(
        report.all_equal
        and report.max_attention_error <= args.tol
        and report.rounding_slack_max < simulate.ROUNDING_SLACK_LIMIT
    )
    _emit(doc)
    return 0 if doc["pass"] else 1


def cmd_pe(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    rows, count = spectral.positional_encoding(
        graph, args.kind, args.dim, args.seed, args.eig_count, args.rank_m, args.normalized, args.epsilon
    )
    _emit(
        {
            "kind": args.kind,
            "seed": args.seed,
            "eig_count": count,
            "out_dim": args.dim,
            "rows": rows.tolist(),
        }
    )
    return 0


def cmd_verify_identifying(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    targets = spectral.identifying_targets(graph, normalized=args.normalized)
    node = spectral.check_identifying(targets.p_node, targets.w_q_node, targets.w_k_node, graph, "node")
    adj = spectral.check_identifying(targets.p_adj, targets.w_q_adj, targets.w_k_adj, graph, "adjacency")
    doc = {"node": asdict(node), "adjacency": asdict(adj), "pass": node.passed and adj.passed}
    _emit(doc)
    return 0 if doc["pass"] else 1


def cmd_tokens(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    s = _resolve_s(args.k, args.s)
    cfg = tokens.TokenizerConfig(
        k=args.k,
        s=s,
        dim=args.dim,
        pe_kind=args.pe,
        seed=args.seed,
        eig_count=args.eig_count,
        rank_m=args.rank_m,
        normalized=args.normalized,
        atp_from_edges=args.edges_atp,
    )
    tm = tokens.node_tokens(graph, cfg) if args.k == 1 else tokens.tuple_tokens(graph, cfg)
    doc = tm.to_dict()
    doc["token_count"] = tm.num_rows
    _emit(doc)
    return 0


def cmd_pair(args: argparse.Namespace) -> int:
    g1, g2 = builtin_pair(args.name)
    _emit({"name": args.name, "first": graph_to_dict(g1), "second": graph_to_dict(g2)})
    return 0


def _seed_option(p: _Parser) -> None:
    p.add_argument("--seed", type=int, default=0, help="seed for every derived randomness")


def _refine_options(p: _Parser) -> None:
    p.add_argument("--graph", required=True, help="path to a graph JSON file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, default=None, help="component bound, defaults to k")
    p.add_argument("--variant", required=True, choices=VARIANT_CHOICES)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITERATIONS)
    p.add_argument("--out", default=None, help="write the run to this file instead of stdout")
    p.set_defaults(func=cmd_refine)


def _distinguish_options(p: _Parser) -> None:
    p.add_argument("--g1", default=None, help="path to the first graph")
    p.add_argument("--g2", default=None, help="path to the second graph")
    p.add_argument("--pair", default=None, choices=BUILTIN_PAIR_NAMES, help="use a builtin pair")
    p.add_argument("--variant", required=True, choices=VARIANT_CHOICES)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITERATIONS)
    p.set_defaults(func=cmd_distinguish)


def _bench_options(p: _Parser) -> None:
    _seed_option(p)
    p.add_argument("--suite", default="builtin", choices=("builtin",))
    p.add_argument(
        "--variants",
        default=DEFAULT_BENCH_VARIANTS,
        help="comma list of variant[:k[:s]] entries; '1wl' means kwl:1:1",
    )
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITERATIONS)
    p.set_defaults(func=cmd_bench)


def _simulate_options(p: _Parser) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--variant", default="kwl", choices=VARIANT_CHOICES)
    p.add_argument(
        "--layers", type=int, default=None, help="rounds to replay, defaults to the stable count"
    )
    p.add_argument(
        "--b", type=float, default=simulate.DEFAULT_TEMPERATURE, help="attention inverse temperature"
    )
    p.add_argument("--tol", type=float, default=1e-6, help="verification tolerance")
    p.set_defaults(func=cmd_simulate)


def _pe_options(p: _Parser) -> None:
    _seed_option(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--kind", default="lpe", choices=spectral.ENCODER_KINDS)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--eig-count", type=int, default=None)
    p.add_argument("--rank-m", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None, help="eigenvalue separation step")
    p.add_argument("--normalized", action="store_true")
    p.set_defaults(func=cmd_pe)


def _verify_identifying_options(p: _Parser) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--normalized", action="store_true")
    p.set_defaults(func=cmd_verify_identifying)


def _tokens_options(p: _Parser) -> None:
    _seed_option(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--pe", default="lpe", choices=tokens.PE_KINDS)
    p.add_argument("--eig-count", type=int, default=None)
    p.add_argument("--rank-m", type=int, default=None)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--edges-atp", action="store_true", help="build atomic types from edge vectors")
    p.set_defaults(func=cmd_tokens)


def _pair_options(p: _Parser) -> None:
    p.add_argument("--name", required=True)
    p.set_defaults(func=cmd_pair)


# Every subcommand, in the order ``--help`` lists them: its help line and the
# function that adds its options.
SUBCOMMANDS = {
    "refine": ("run refinement to its stable partition", _refine_options),
    "distinguish": ("compare two graphs by refinement", _distinguish_options),
    "bench": ("verdict table over the builtin pairs", _bench_options),
    "simulate": ("replay refinement with attention layers and compare", _simulate_options),
    "pe": ("positional encodings for a graph", _pe_options),
    "verify-identifying": (
        "check that spectral scores point at nodes and neighborhoods",
        _verify_identifying_options,
    ),
    "tokens": ("tokenize a graph", _tokens_options),
    "pair": ("print a builtin graph pair", _pair_options),
}


def _build_parser(command: str | None = None) -> _Parser:
    """The parser of the command line, with only the subparser of
    ``command`` when it names a subcommand exactly, and with all of them
    otherwise. A line that starts with a subcommand's name is parsed the
    same way by both, and every other line needs the full parser to list
    the subcommands or to report an invalid choice."""
    parser = _Parser(prog="wlsim", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (command,) if command in SUBCOMMANDS else SUBCOMMANDS:
        help_text, add_options = SUBCOMMANDS[name]
        add_options(sub.add_parser(name, help=help_text))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        _print_error(exc.code, exc.message)
        return 2
    except LimitError as exc:
        _print_error(exc.code, exc.message)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
