"""Command-line front end for signed-graph quantum walks.

Subcommands cover graph construction, walk evaluation, transfer search,
quotients and particle powers, plus the bundled verification scenarios.
All numeric output uses fixed 12-decimal formatting so identical inputs
produce byte-identical output (scenario runtimes excepted, which golden
comparisons must ignore).

Exit codes: 0 success (including scenario discrepancies), 1 a scenario
claim failed, 2 usage or parse error, 3 domain error: any ValueError a
command raises (vertex out of range, invalid operation for the given graph).
"""

from __future__ import annotations

import argparse
import ast
import functools
import itertools
import json
import math
import operator
import re
import sys
from pathlib import Path
from typing import Iterable, Iterator, Union

import numpy as np

from .core import (
    SignedGraph,
    _format_rows,
    _read_graph,
    _row_blocks,
    balance_verdict,
    format_edge_list,
    graph_edges,
)
from . import construct
from .construct import CubelikeSpec, cover_vertex, double_cover, signed_join
from .multiparticle import (
    boson_quotient,
    exterior_power,
    k_subsets,
    multiset_states,
    symmetric_power,
)
from .quotient import (
    coarsest_equitable,
    partition_from_cells,
    quotient,
    read_partition,
)
from .scenarios import (
    SCENARIO_IDS,
    report_to_dict,
    run_all_scenarios,
    run_scenario,
)
from .spectral import DEFAULT_TOL, _check_vertex, _fidelity, amplitude, amplitude_series, pst_search


class UsageError(Exception):
    """Bad arguments or unreadable input: exit code 2."""


# ---------------------------------------------------------------------------
# time expressions


_BINARY_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}


def parse_time_expression(text: str) -> float:
    """Evaluate a constant expression over numbers, pi, sqrt and + - * /.

    Exact transfer times are irrational (pi/2, pi/sqrt(12), ...), so the
    CLI accepts them symbolically instead of as rounded decimals.
    """

    def fail() -> UsageError:
        return UsageError(
            f"bad time expression {text!r}: use numbers, pi, sqrt and + - * /"
        )

    def ev(node: ast.AST) -> float:
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
            return _BINARY_OPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            value = ev(node.operand)
            return -value if isinstance(node.op, ast.USub) else value
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sqrt"
            and len(node.args) == 1
            and not node.keywords
        ):
            arg = ev(node.args[0])
            if arg < 0:
                raise fail()
            return math.sqrt(arg)
        raise fail()

    try:
        value = ev(ast.parse(text, mode="eval").body)
    except (SyntaxError, ZeroDivisionError, OverflowError, RecursionError):
        # OverflowError: a literal beyond float range; RecursionError: deep nesting
        raise fail() from None
    if not math.isfinite(value):
        raise fail()
    return float(value)


# ---------------------------------------------------------------------------
# input helpers


_ATOM_HELP = "k<n>, k<m>,<n>, c<n>, p<n>, q<d>, cp<parts> or petersen"


def parse_graph_atom(name: str) -> SignedGraph:
    """Build a named unsigned graph: k4, k3,3, c5, p4, q3, cp4, petersen."""
    token = name.strip().lower()
    try:
        if token == "petersen":
            return construct.petersen()
        if token.startswith("cp"):
            return construct.cocktail_party(int(token[2:]))
        if token.startswith("k") and "," in token:
            m_text, n_text = token[1:].split(",", 1)
            return construct.complete_bipartite(int(m_text), int(n_text))
        if token.startswith("k"):
            return construct.complete(int(token[1:]))
        if token.startswith("c"):
            return construct.cycle(int(token[1:]))
        if token.startswith("p"):
            return construct.path(int(token[1:]))
        if token.startswith("q"):
            return construct.hypercube(int(token[1:]))
    except ValueError as exc:
        raise UsageError(f"bad graph name {name!r}: {exc}") from None
    raise UsageError(f"unknown graph name {name!r}; expected {_ATOM_HELP}")


def _read_file(reader, path: str):
    """``reader(path)``; an open or decode error names the file, and any other
    ValueError of the reader (a parse error) is a usage error too."""
    if "\0" in path:  # open() refuses it with a bare ValueError, as a parser would
        raise UsageError(f"cannot read {path}: embedded null byte")
    try:
        return reader(path)
    except (OSError, UnicodeError) as exc:  # UnicodeError: not in the locale's encoding
        raise UsageError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def load_graph(path: str):
    """Read a graph file: signed when every edge is +1/-1 with no loop, else weighted."""
    return _read_file(_read_graph, path)


def load_signed_graph(path: str) -> SignedGraph:
    graph = load_graph(path)
    if not isinstance(graph, SignedGraph):
        raise ValueError(f"{path}: this command needs a +1/-1 signed graph")
    return graph


def parse_cells(text: str):
    """Parse inline partition cells: vertices comma-separated, cells by ';'."""
    cells = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            cells.append([int(tok) for tok in chunk.replace(",", " ").split()])
        except ValueError:
            raise UsageError(f"bad cell {chunk!r}: vertices must be integers") from None
    if not cells:
        raise UsageError("no cells given; use e.g. --cells '0;1;2,3,4,5'")
    return cells


# ---------------------------------------------------------------------------
# output helpers


def _write_blocks(write, blocks: Iterable[str]) -> None:
    """``write`` each block as it is made, then a newline unless the text
    ends with one."""
    last = ""
    for block in blocks:
        if block:
            write(block)
            last = block
    if not last.endswith("\n"):
        write("\n")


def emit(args: argparse.Namespace, text: Union[str, Iterable[str]]) -> None:
    """Print ``text`` to ``--out`` or stdout: a string, or blocks of one
    text, each written as it is made so that the whole is never held."""
    blocks = [text] if isinstance(text, str) else text
    if not args.out:
        _write_blocks(sys.stdout.write, blocks)
        return
    try:
        with Path(args.out).open("w") as out:
            _write_blocks(out.write, blocks)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        reason = getattr(exc, "strerror", None) or exc
        raise UsageError(f"cannot write {args.out}: {reason}") from None


def emit_json(args: argparse.Namespace, payload) -> None:
    emit(args, json.dumps(payload, indent=2, sort_keys=True))


def _json_number(x) -> float:
    """``x`` rounded to the 12 printed decimals, with -0.0 mapped to 0.0."""
    return round(float(x), 12) + 0.0


# "0000" to "9999": the four ASCII bytes of each, read as one uint32 (uint16
# arithmetic keeps the temporaries small)
_DIGITS = np.stack([np.arange(10_000, dtype=np.uint16) // 10 ** k % 10 + 48 for k in (3, 2, 1, 0)],
                   axis=1).astype(np.uint8).view(np.uint32).ravel()
_POINT = np.frombuffer(b".", np.uint8)
_DIGIT_LIMIT = 1e16  # the digit route prints integer parts of at most 16 digits
_DIGIT_MIN_ROWS = 96  # below this, one %-format per table is faster than the digit route


def _digit_bytes(values: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` decimal digits of int64 ``values`` in [0, 10**width) as
    ASCII bytes, along a new last axis."""
    groups = -(-width // 4)
    quads = np.empty(values.shape + (groups,), np.int64)
    for k in range(groups - 1, 0, -1):  # // and - by a scalar are fast where % is not
        quad = np.floor_divide(values, 10 ** (4 * k), out=quads[..., -1 - k])
        values = values - quad * 10 ** (4 * k)
    quads[..., -1] = values
    return _DIGITS.take(quads).view(np.uint8)[..., 4 * groups - width:]


def _fixed_parts(x: np.ndarray) -> tuple:
    """The integer part and the 12 decimals, as int64, that ``%.12f`` prints for
    each finite ``|x| < _DIGIT_LIMIT``.

    The decimals are rint((a - floor(a)) * 10**12) of a = |x|.  The subtraction
    is exact, and the product is rounded once, monotonically, onto a grid that
    holds every half below 10**12: it lands on the far side of no half, so rint
    rounds as the exact value does unless the product is a half itself, and
    ``%`` decides those."""
    magnitude = np.abs(x)
    whole = np.floor(magnitude)
    scaled = (magnitude - whole) * 1e12
    decimals = np.rint(scaled)
    ties = np.flatnonzero(np.abs(scaled - decimals) == 0.5).tolist()
    whole, decimals = whole.astype(np.int64), decimals.astype(np.int64)
    carry = decimals == 10 ** 12
    whole += carry
    decimals -= carry * 10 ** 12
    for k, tie in zip(ties, magnitude.ravel()[ties].tolist()):
        whole.flat[k], decimals.flat[k] = map(int, ("%.12f" % tie).split("."))
    return whole, decimals


def _fixed_cells(x: np.ndarray) -> list:
    """``%.12f`` of each finite ``|x| < _DIGIT_LIMIT`` of the rows of ``x``: for
    each row, the byte columns of its cells, with NULs where nothing prints:
    the signs (if a row prints any), the integer parts, the point, the decimals."""
    whole, decimals = _fixed_parts(x)
    signs = ((x < 0) & ((whole | decimals) != 0)) * np.uint8(45)  # "-" on a non-zero
    widths = [len(str(top)) for top in whole.max(axis=1).tolist()]
    ints = _digit_bytes(whole, max(widths))
    # leading zeros become NULs; the units digit always prints
    ints *= np.maximum(whole, 1)[..., None] >= 10 ** np.arange(max(widths) - 1, -1, -1)
    decimals = _digit_bytes(decimals, 12)
    cells = []
    for i, width in enumerate(widths):
        sign = [signs[i, :, None]] if signs[i].any() else []
        cells.append(sign + [ints[i, :, -width:], _POINT, decimals[i]])
    return cells


def _digit_rows(pieces, fields, columns) -> Iterator[str]:
    """Yield the blocks of :func:`_table_blocks`, each rendered as one byte buffer
    with NULs squeezed out: ``pieces`` are the literal text of a line around its
    ``fields``."""
    pieces = [np.frombuffer(piece.encode(), np.uint8) for piece in pieces]
    for block in _row_blocks(columns):
        numbers = [column for column, field in zip(block, fields) if field == "%.12f"]
        cells = iter(_fixed_cells(np.array(numbers, dtype=float)))
        parts = [pieces[0]]
        for field, column, piece in zip(fields, block, pieces[1:]):
            if field == "%s":  # UCS-4 codes, NUL-padded: an ASCII code fits its byte
                codes = np.asarray(column, dtype=str).view(np.uint32)
                parts.append(codes.reshape(len(column), -1))
            else:
                parts += next(cells)
            parts.append(piece)
        ends = np.cumsum([part.shape[-1] for part in parts]).tolist()
        lines = np.empty((len(block[0]), ends[-1]), np.uint8)
        for part, start, end in zip(parts, [0] + ends, ends):
            lines[:, start:end] = part
        yield lines.tobytes().replace(b"\0", b"").decode()


def _table_blocks(row: str, columns) -> Iterator[str]:
    """Lines of ``row`` filled from the columns, in blocks made one at a time,
    each ``%.12f`` field as :func:`scenarios.fixed` prints it: both round the
    exact value to 12 places, and only ``fixed`` drops the sign of a zero.  The
    fields are ``%.12f`` and ``%s`` of ASCII strings.  A table of at least
    ``_DIGIT_MIN_ROWS`` rows whose numbers are all finite and below
    ``_DIGIT_LIMIT`` in magnitude is rendered as digit bytes, any other by the
    %-template."""
    if len(columns[0]) >= _DIGIT_MIN_ROWS:
        pieces = re.split(r"(%\.12f|%s)", row + "\n")  # text, field, text, ..., text
        fields = pieces[1::2]
        if all((np.abs(np.asarray(column, dtype=float)) < _DIGIT_LIMIT).all()
               for field, column in zip(fields, columns) if field == "%.12f"):
            return _digit_rows(pieces[::2], fields, columns)
    return (block.replace("-0.000000000000", "0.000000000000")
            for block in _format_rows(row, columns))


def _fixed_table(row: str, columns) -> str:
    """The text of :func:`_table_blocks`, joined."""
    return "".join(_table_blocks(row, columns))


def _emit_table(args: argparse.Namespace, names, columns, text_sep=",") -> None:
    """Print named columns as JSON records or as rows of ``%.12f`` numbers and
    ``%s`` strings, comma-separated under a header of the names.  Text rows
    take ``text_sep``; separated otherwise, they are not CSV and get no header."""
    columns = [np.asarray(column) for column in columns]
    fields = ["%s" if column.dtype.kind == "U" else "%.12f" for column in columns]
    if args.format == "json":
        cells = [column.tolist() if field == "%s" else map(_json_number, column.tolist())
                 for column, field in zip(columns, fields)]
        emit_json(args, [dict(zip(names, row)) for row in zip(*cells)])
        return
    sep = text_sep if args.format == "text" else ","
    header = ",".join(names) + "\n" if sep == "," else ""
    emit(args, itertools.chain([header], _table_blocks(sep.join(fields), columns)))


def graph_document(graph, labels=None) -> str:
    """Edge list, with optional '# state <i> = ...' label comments."""
    lines = [format_edge_list(graph).rstrip("\n")]
    if labels is not None:
        for i, label in enumerate(labels):
            lines.append(f"# state {i} = {label}")
    return "\n".join(lines) + "\n"


def graph_payload(graph, labels=None) -> dict:
    value = int if isinstance(graph, SignedGraph) else _json_number
    payload: dict = {"n": graph.n,
                     "edges": [[u, v, value(w)] for u, v, w in graph_edges(graph)]}
    if labels is not None:
        payload["states"] = [list(label) for label in labels]
    return payload


def emit_graph(args: argparse.Namespace, graph, labels=None) -> None:
    if args.format == "json":
        emit_json(args, graph_payload(graph, labels))
    else:
        emit(args, graph_document(graph, labels))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cubelike(d: int, conn: str) -> SignedGraph:
    if d < 1:  # before the bit strings: at d = 0 an empty --conn would pass as one
        raise ValueError("cubelike dimension must be >= 1")
    elements = []
    for tok in conn.split(","):
        tok = tok.strip()
        if len(tok) != d or any(ch not in "01" for ch in tok):
            raise UsageError(f"connection {tok!r} must be a {d}-bit string of 0s and 1s")
        elements.append(int(tok, 2))
    return construct.cubelike(CubelikeSpec(d, tuple(elements)))


# construct's value flags in parser order: the first one a family does not take is reported
_CONSTRUCT_FLAGS = ("n", "m", "d", "parts", "conn", "neg", "pos", "cross")

# family -> (the flags it takes, in check order, and the builder of their values);
# a flag given as (flag, convert) is converted as soon as it is checked, so a bad
# --conn is reported before a missing --n.  Builders look the library up per call.
_FAMILIES = {
    "complete": (["n"], lambda n: construct.complete(n)),
    "cycle": (["n"], lambda n: construct.cycle(n)),
    "path": (["n"], lambda n: construct.path(n)),
    "hypercube": (["d"], lambda d: construct.hypercube(d)),
    "cocktail-party": (["parts"], lambda parts: construct.cocktail_party(parts)),
    "complete-bipartite": (["m", "n"], lambda m, n: construct.complete_bipartite(m, n)),
    "petersen": ([], lambda: construct.petersen()),
    "circulant": ([("conn", lambda text: [int(tok) for tok in text.split(",")]), "n"],
                  lambda conn, n: construct.circulant(n, conn)),
    "cubelike": (["d", "conn"], _cubelike),
    "join": ([("neg", lambda text: parse_graph_atom(text)),
              ("pos", lambda text: parse_graph_atom(text)), "cross"],
             lambda neg, pos, cross: signed_join(neg, pos, -1, cross or 1)),
}


def cmd_construct(args: argparse.Namespace) -> int:
    family = args.family.lower()
    if family not in _FAMILIES:
        raise UsageError(
            f"unknown family {args.family!r}; choose one of: {', '.join(_FAMILIES)}")
    flags, build = _FAMILIES[family]
    flags = dict((flag, None) if isinstance(flag, str) else flag for flag in flags)
    for flag in _CONSTRUCT_FLAGS:
        if flag not in flags and getattr(args, flag) is not None:
            raise UsageError(f"--family {family} does not take --{flag}")
    values = []
    for flag, convert in flags.items():
        value = getattr(args, flag)
        if value is None and flag != "cross":  # join's --cross defaults to +1
            raise UsageError(f"--family {family} requires --{flag}")
        try:
            values.append(value if convert is None else convert(value))
        except ValueError as exc:
            raise UsageError(f"bad --{flag} {value!r}: {exc}") from None
    try:
        graph = build(*values)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    emit_graph(args, graph)
    return 0


def _walk_graph(args: argparse.Namespace):
    graph = load_graph(args.graph)
    _check_vertex("from", args.src, graph.n)
    _check_vertex("to", args.dst, graph.n)
    return graph


def cmd_walk(args: argparse.Namespace) -> int:
    graph, t = _walk_graph(args), parse_time_expression(args.time)
    amp = amplitude(graph, args.src, args.dst, t)
    columns = [[t], [amp.re], [amp.im], [amp.fidelity]]
    if args.format == "json":
        values = map(_json_number, (t, amp.re, amp.im, amp.fidelity, amp.phase))
        emit_json(args, dict(zip(("time", "re", "im", "fidelity", "phase"), values)))
    elif args.format == "csv":
        _emit_table(args, ("t", "re", "im", "fidelity"), columns)
    else:
        emit(args, _fixed_table("re=%.12f im=%.12f fidelity=%.12f", columns[1:]))
    return 0


def cmd_pst_search(args: argparse.Namespace) -> int:
    graph = _walk_graph(args)
    t_max = parse_time_expression(args.t_max)
    if t_max <= 0:
        raise UsageError("--t-max must be positive")
    if not math.isfinite(args.tol):
        raise UsageError(f"--tol must be finite, not {args.tol}")
    verdicts = pst_search(graph, args.src, args.dst, t_max, tol=args.tol)
    columns = [[getattr(v, name) for v in verdicts]
               for name in ("time", "fidelity", "phase", "kind")]
    _emit_table(args, ("t", "fidelity", "phase", "kind"), columns, text_sep=" ")
    return 0


def cmd_fidelity_curve(args: argparse.Namespace) -> int:
    graph = _walk_graph(args)
    t_max = parse_time_expression(args.t_max)
    if t_max <= 0:
        raise UsageError("--t-max must be positive")
    if args.points < 2:
        raise UsageError("--points must be at least 2")
    ts = np.linspace(0.0, t_max, args.points)
    amps = amplitude_series(graph, args.src, args.dst, ts)
    _emit_table(args, ("t", "re", "im", "fidelity"), [ts, amps.real, amps.imag, _fidelity(amps)])
    return 0


def cmd_quotient(args: argparse.Namespace) -> int:
    graph = load_signed_graph(args.graph)
    if args.cells:
        partition = partition_from_cells(parse_cells(args.cells), n=graph.n)
    elif args.partition:
        partition = _read_file(lambda path: read_partition(path, n=graph.n), args.partition)
    else:
        partition = coarsest_equitable(graph)
    quot = quotient(graph, partition)
    if args.format == "json":
        emit_json(
            args,
            {
                "cells": [list(cell) for cell in partition.cells],
                "matrix": [[_json_number(x) for x in row] for row in quot.matrix],
                "d_plus": [[int(x) for x in row] for row in quot.profile.d_plus],
                "d_minus": [[int(x) for x in row] for row in quot.profile.d_minus],
            },
        )
    else:
        labels = ["{" + ",".join(str(v) for v in cell) + "}" for cell in partition.cells]
        emit(args, graph_document(quot, labels))
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    # looked up per call, like the handlers themselves
    builder, labeler = {"exterior": (exterior_power, k_subsets),
                        "symmetric": (symmetric_power, k_subsets),
                        "boson": (boson_quotient, multiset_states)}[args.command]
    graph = load_signed_graph(args.graph)
    power = builder(graph, args.k)
    labels = labeler(graph.n, args.k)
    emit_graph(args, power, labels)
    return 0


def cmd_double_cover(args: argparse.Namespace) -> int:
    graph = load_signed_graph(args.graph)
    cover = double_cover(graph)
    labels = [f"(base {v.base}, layer {v.layer})" for v in map(cover_vertex, range(cover.n))]
    emit_graph(args, cover, labels)
    return 0


def cmd_balance(args: argparse.Namespace) -> int:
    graph = load_signed_graph(args.graph)
    verdict = balance_verdict(graph)
    witness = None if verdict.witness is None else verdict.witness.tolist()
    if args.format == "json":
        emit_json(
            args,
            {
                "status": verdict.status,
                "also_antibalanced": verdict.also_antibalanced,
                "witness": witness,
            },
        )
        return 0
    lines = [
        f"status {verdict.status}",
        f"also_antibalanced {'true' if verdict.also_antibalanced else 'false'}",
    ]
    if witness is None:
        lines.append("witness none")
    else:
        lines.append("witness " + " ".join(f"{x:+d}" for x in witness))
    emit(args, "\n".join(lines))
    return 0


def _report_lines(report) -> list:
    lines = [f"scenario {report.scenario}: {report.status}"]
    for claim in report.claims:
        lines.append(
            f"  [{claim.status}] ({claim.provenance}) {claim.description}: "
            f"expected {claim.expected}, measured {claim.measured} "
            f"(tolerance {claim.tolerance})"
        )
    return lines


def _report_exit_code(reports) -> int:
    return int(any(claim.status == "fail" for report in reports for claim in report.claims))


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        report = run_scenario(args.scenario)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None
    if args.format == "json":
        emit_json(args, report_to_dict(report))
    else:
        emit(args, "\n".join(_report_lines(report)))
    return _report_exit_code([report])


def cmd_verify_all(args: argparse.Namespace) -> int:
    reports = run_all_scenarios()
    if args.format == "json":
        emit_json(args, [report_to_dict(report) for report in reports])
    else:
        lines = []
        for report in reports:
            lines.extend(_report_lines(report))
        counts = {"pass": 0, "discrepancy": 0, "fail": 0}
        for report in reports:
            counts[report.status] += 1
        lines.append(
            f"total {len(reports)} scenarios: {counts['pass']} pass, "
            f"{counts['discrepancy']} discrepancy, {counts['fail']} fail"
        )
        emit(args, "\n".join(lines))
    return _report_exit_code(reports)


# ---------------------------------------------------------------------------
# parser assembly


@functools.cache  # parse_args makes a fresh namespace, so one tree serves every call
def build_parser() -> argparse.ArgumentParser:
    # walk commands print tables of numbers, so only they offer csv
    common, walk = (argparse.ArgumentParser(add_help=False) for _ in range(2))
    for parent, formats in ((common, ("text", "json")),
                            (walk, ("text", "json", "csv"))):
        parent.add_argument("--format", choices=formats, default="text",
                            help="output format")
        parent.add_argument("--out", help="write output to this file instead of stdout")
    walk.add_argument("graph", help="edge-list file")
    walk.add_argument("--from", dest="src", type=int, required=True, help="start vertex")
    walk.add_argument("--to", dest="dst", type=int, required=True, help="target vertex")

    parser = argparse.ArgumentParser(
        prog="sgwalk",
        description="Continuous-time quantum walks on signed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[common],
                       help="build a named graph family as an edge list")
    p.add_argument("--family", required=True, help=", ".join(_FAMILIES))
    p.add_argument("--n", type=int, help="vertex count (cycle, complete, ...)")
    p.add_argument("--m", type=int, help="first side of complete-bipartite")
    p.add_argument("--d", type=int, help="dimension (hypercube, cubelike)")
    p.add_argument("--parts", type=int, help="part count of cocktail-party")
    p.add_argument("--conn", help="comma-separated connection set "
                                  "(circulant: integers; cubelike: bit strings)")
    p.add_argument("--neg", help=f"join: negative block, one of {_ATOM_HELP}")
    p.add_argument("--pos", help=f"join: positive block, one of {_ATOM_HELP}")
    p.add_argument("--cross", type=int, choices=(1, -1),
                   help="join: sign of the cross edges")
    p.set_defaults(handler="cmd_construct")

    p = sub.add_parser("walk", parents=[walk],
                       help="one transfer amplitude at one time")
    p.add_argument("--time", required=True, help="time expression, e.g. pi/2")
    p.set_defaults(handler="cmd_walk")

    p = sub.add_parser("pst-search", parents=[walk],
                       help="scan (0, t-max] for transfer or return peaks")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="fidelity tolerance for transfer verdicts")
    p.add_argument("--t-max", required=True, help="scan horizon, e.g. 4*pi")
    p.set_defaults(handler="cmd_pst_search")

    p = sub.add_parser("fidelity-curve", parents=[walk],
                       help="sample the fidelity curve as CSV")
    p.add_argument("--t-max", required=True, help="end of the time window")
    p.add_argument("--points", type=int, default=201,
                   help="number of samples over [0, t-max]")
    p.set_defaults(handler="cmd_fidelity_curve")

    p = sub.add_parser("quotient", parents=[common],
                       help="equitable-partition quotient of a signed graph")
    p.add_argument("graph", help="edge-list file")
    cells = p.add_mutually_exclusive_group()
    cells.add_argument("--cells", help="inline cells, e.g. '0;1;2,3,4,5'")
    cells.add_argument("--partition", help="partition file: one cell per line")
    p.set_defaults(handler="cmd_quotient")

    for name, blurb in (
        ("exterior", "signed k-fermion exterior power"),
        ("symmetric", "unsigned k-th symmetric power"),
        ("boson", "weighted k-boson quotient"),
    ):
        p = sub.add_parser(name, parents=[common], help=blurb)
        p.add_argument("graph", help="edge-list file, all-positive")
        p.add_argument("--k", type=int, required=True, help="particle count")
        p.set_defaults(handler="cmd_power")

    p = sub.add_parser("double-cover", parents=[common],
                       help="two-layer cover: vertex (u, b) sits at index 2u+b")
    p.add_argument("graph", help="edge-list file")
    p.set_defaults(handler="cmd_double_cover")

    p = sub.add_parser("balance", parents=[common],
                       help="balance status and switching witness")
    p.add_argument("graph", help="edge-list file")
    p.set_defaults(handler="cmd_balance")

    p = sub.add_parser("verify", parents=[common],
                       help="run one bundled verification scenario")
    p.add_argument("scenario", help=f"one of: {', '.join(SCENARIO_IDS)}")
    p.set_defaults(handler="cmd_verify")

    p = sub.add_parser("verify-all", parents=[common],
                       help="run every bundled verification scenario")
    p.set_defaults(handler="cmd_verify_all")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # looked up by name, not bound into the cached parser: rebinding cmd_* works
        return globals()[args.handler](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a library refusal: the input is outside its domain
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
