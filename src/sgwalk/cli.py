"""Command-line front end for signed-graph quantum walks.

Subcommands cover graph construction, walk evaluation, transfer search,
quotients and particle powers, plus the bundled verification scenarios.
All numeric output uses fixed 12-decimal formatting so identical inputs
produce byte-identical output (scenario runtimes excepted, which golden
comparisons must ignore).

Exit codes: 0 success (including scenario discrepancies), 1 a scenario
claim failed, 2 usage or parse error, 3 domain error (vertex out of
range, invalid operation for the given graph).
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import sys
from pathlib import Path

import numpy as np

from .core import (
    BalanceVerdict,
    SignedGraph,
    balance_verdict,
    format_edge_list,
    read_signed_graph,
    read_weighted_graph,
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
    single_cell_partition,
)
from .scenarios import (
    SCENARIO_IDS,
    fixed,
    report_to_dict,
    run_all_scenarios,
    run_scenario,
)
from .spectral import DEFAULT_TOL, amplitude, amplitude_series, eig_sym, pst_search


class UsageError(Exception):
    """Bad arguments or unreadable input: exit code 2."""


class DomainError(Exception):
    """Structurally valid input outside an operation's domain: exit code 3."""


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
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        raise fail() from None
    try:
        value = ev(tree.body)
    except ZeroDivisionError:
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


def load_graph(path: str):
    """Read a graph file, accepting signed (+1/-1) and weighted layouts."""
    try:
        return read_signed_graph(path)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as signed_error:
        try:
            return read_weighted_graph(path)
        except (OSError, ValueError):
            raise UsageError(str(signed_error)) from None


def load_signed_graph(path: str) -> SignedGraph:
    graph = load_graph(path)
    if not isinstance(graph, SignedGraph):
        raise DomainError(f"{path}: this command needs a +1/-1 signed graph")
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


def require_vertex(graph, label: str, v: int) -> int:
    if not 0 <= v < graph.n:
        raise DomainError(f"vertex {label}={v} out of range for {graph.n} vertices")
    return v


# ---------------------------------------------------------------------------
# output helpers


def emit(args: argparse.Namespace, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def emit_json(args: argparse.Namespace, payload) -> None:
    emit(args, json.dumps(payload, indent=2, sort_keys=True))


def graph_document(graph, labels=None) -> str:
    """Edge list, with optional '# state <i> = ...' label comments."""
    lines = [format_edge_list(graph).rstrip("\n")]
    if labels is not None:
        for i, label in enumerate(labels):
            lines.append(f"# state {i} = {label}")
    return "\n".join(lines) + "\n"


def graph_payload(graph, labels=None) -> dict:
    payload: dict = {"n": graph.n}
    if isinstance(graph, SignedGraph):
        payload["edges"] = [
            [u, v, s]
            for u in range(graph.n)
            for v in range(u + 1, graph.n)
            for s in [1] * int(graph.pos[u, v]) + [-1] * int(graph.neg[u, v])
        ]
    else:
        w = graph.adjacency
        payload["edges"] = [
            [u, v, round(float(w[u, v]), 12)]
            for u in range(graph.n)
            for v in range(u, graph.n)
            if w[u, v] != 0.0
        ]
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


def cmd_construct(args: argparse.Namespace) -> int:
    family = args.family.lower()

    def need(flag: str, value):
        if value is None:
            raise UsageError(f"--family {family} requires --{flag}")
        return value

    try:
        if family == "complete":
            graph = construct.complete(need("n", args.n))
        elif family == "cycle":
            graph = construct.cycle(need("n", args.n))
        elif family == "path":
            graph = construct.path(need("n", args.n))
        elif family == "hypercube":
            graph = construct.hypercube(need("d", args.d))
        elif family == "cocktail-party":
            graph = construct.cocktail_party(need("parts", args.parts))
        elif family == "complete-bipartite":
            graph = construct.complete_bipartite(need("m", args.m), need("n", args.n))
        elif family == "petersen":
            graph = construct.petersen()
        elif family == "circulant":
            conn = [int(tok) for tok in need("conn", args.conn).split(",")]
            graph = construct.circulant(need("n", args.n), conn)
        elif family == "cubelike":
            d = need("d", args.d)
            elements = []
            for tok in need("conn", args.conn).split(","):
                tok = tok.strip()
                if len(tok) != d or any(ch not in "01" for ch in tok):
                    raise UsageError(
                        f"connection {tok!r} must be a {d}-bit string of 0s and 1s"
                    )
                elements.append(int(tok, 2))
            graph = construct.cubelike(CubelikeSpec(d, tuple(elements)))
        elif family == "join":
            g1 = parse_graph_atom(need("neg", args.neg))
            g2 = parse_graph_atom(need("pos", args.pos))
            graph = signed_join(g1, g2, -1, args.cross)
        else:
            raise UsageError(
                f"unknown family {args.family!r}; choose one of: complete, cycle, "
                "path, hypercube, cocktail-party, complete-bipartite, petersen, "
                "circulant, cubelike, join"
            )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    emit_graph(args, graph)
    return 0


def _walk_amplitude(args: argparse.Namespace):
    graph = load_graph(args.graph)
    require_vertex(graph, "from", args.src)
    require_vertex(graph, "to", args.dst)
    return graph, parse_time_expression(args.time)


def cmd_walk(args: argparse.Namespace) -> int:
    graph, t = _walk_amplitude(args)
    try:
        amp = amplitude(graph, args.src, args.dst, t)
    except ValueError as exc:
        raise DomainError(str(exc)) from None
    if args.format == "json":
        emit_json(
            args,
            {
                "time": round(t, 12),
                "re": round(amp.re, 12),
                "im": round(amp.im, 12),
                "fidelity": round(amp.fidelity, 12),
                "phase": round(amp.phase, 12),
            },
        )
    elif args.format == "csv":
        emit(
            args,
            "t,re,im,fidelity\n"
            f"{fixed(t)},{fixed(amp.re)},{fixed(amp.im)},{fixed(amp.fidelity)}",
        )
    else:
        emit(
            args,
            f"re={fixed(amp.re)} im={fixed(amp.im)} fidelity={fixed(amp.fidelity)}",
        )
    return 0


def cmd_pst_search(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    require_vertex(graph, "from", args.src)
    require_vertex(graph, "to", args.dst)
    t_max = parse_time_expression(args.t_max)
    if t_max <= 0:
        raise UsageError("--t-max must be positive")
    try:
        verdicts = pst_search(graph, args.src, args.dst, t_max, tol=args.tol)
    except ValueError as exc:
        raise DomainError(str(exc)) from None
    if args.format == "json":
        emit_json(
            args,
            [
                {
                    "t": round(v.time, 12),
                    "fidelity": round(v.fidelity, 12),
                    "phase": round(v.phase, 12),
                    "kind": v.kind,
                }
                for v in verdicts
            ],
        )
        return 0
    rows = [
        (fixed(v.time), fixed(v.fidelity), fixed(v.phase), v.kind) for v in verdicts
    ]
    if args.format == "csv":
        lines = ["t,fidelity,phase,kind"] + [",".join(row) for row in rows]
    else:
        lines = [" ".join(row) for row in rows]
    emit(args, "\n".join(lines))
    return 0


def cmd_fidelity_curve(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    require_vertex(graph, "from", args.src)
    require_vertex(graph, "to", args.dst)
    t_max = parse_time_expression(args.t_max)
    if t_max <= 0:
        raise UsageError("--t-max must be positive")
    if args.points < 2:
        raise UsageError("--points must be at least 2")
    ts = np.linspace(0.0, t_max, args.points)
    try:
        amps = amplitude_series(graph, args.src, args.dst, ts)
    except ValueError as exc:
        raise DomainError(str(exc)) from None
    if args.format == "json":
        emit_json(
            args,
            [
                {
                    "t": round(float(t), 12),
                    "re": round(float(z.real), 12),
                    "im": round(float(z.imag), 12),
                    "fidelity": round(float(abs(z) ** 2), 12),
                }
                for t, z in zip(ts, amps)
            ],
        )
        return 0
    lines = ["t,re,im,fidelity"]
    for t, z in zip(ts, amps):
        lines.append(
            f"{fixed(t)},{fixed(z.real)},{fixed(z.imag)},{fixed(abs(z) ** 2)}"
        )
    emit(args, "\n".join(lines))
    return 0


def cmd_quotient(args: argparse.Namespace) -> int:
    graph = load_signed_graph(args.graph)
    if args.cells:
        cells = parse_cells(args.cells)
    elif args.partition:
        try:
            partition = read_partition(args.partition, n=graph.n)
        except OSError as exc:
            raise UsageError(
                f"cannot read {args.partition}: {exc.strerror or exc}"
            ) from None
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        cells = [list(cell) for cell in partition.cells]
    else:
        cells = None
    try:
        if cells is None:
            partition = coarsest_equitable(graph, single_cell_partition(graph.n))
        else:
            partition = partition_from_cells(cells, n=graph.n)
        quot = quotient(graph, partition)
    except ValueError as exc:
        raise DomainError(str(exc)) from None
    if args.format == "json":
        emit_json(
            args,
            {
                "cells": [list(cell) for cell in partition.cells],
                "matrix": [
                    [round(float(x), 12) for x in row] for row in quot.matrix
                ],
                "d_plus": [[int(x) for x in row] for row in quot.profile.d_plus],
                "d_minus": [[int(x) for x in row] for row in quot.profile.d_minus],
            },
        )
    else:
        labels = ["{" + ",".join(str(v) for v in cell) + "}" for cell in partition.cells]
        emit(args, graph_document(quot, labels))
    return 0


def _power_command(args: argparse.Namespace, builder, labeler) -> int:
    graph = load_signed_graph(args.graph)
    try:
        power = builder(graph, args.k)
    except ValueError as exc:
        raise DomainError(str(exc)) from None
    labels = labeler(graph.n, args.k)
    emit_graph(args, power, labels)
    return 0


def cmd_exterior(args: argparse.Namespace) -> int:
    return _power_command(args, exterior_power, k_subsets)


def cmd_symmetric(args: argparse.Namespace) -> int:
    return _power_command(args, symmetric_power, k_subsets)


def cmd_boson(args: argparse.Namespace) -> int:
    return _power_command(args, boson_quotient, multiset_states)


def cmd_double_cover(args: argparse.Namespace) -> int:
    graph = load_signed_graph(args.graph)
    cover = double_cover(graph)
    labels = []
    for index in range(cover.n):
        vertex = cover_vertex(index)
        labels.append(f"(base {vertex.base}, layer {vertex.layer})")
    emit_graph(args, cover, labels)
    return 0


def _witness_tokens(verdict: BalanceVerdict):
    if verdict.witness is None:
        return None
    return [int(x) for x in verdict.witness]


def cmd_balance(args: argparse.Namespace) -> int:
    graph = load_signed_graph(args.graph)
    verdict = balance_verdict(graph)
    witness = _witness_tokens(verdict)
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
    for report in reports:
        if any(claim.status == "fail" for claim in report.claims):
            return 1
    return 0


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


def _vertex_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("graph", help="edge-list file")
    parser.add_argument("--from", dest="src", type=int, required=True,
                        help="start vertex")
    parser.add_argument("--to", dest="dst", type=int, required=True,
                        help="target vertex")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="fidelity tolerance for transfer verdicts")
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format")
    common.add_argument("--out", help="write output to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="sgwalk",
        description="Continuous-time quantum walks on signed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[common],
                       help="build a named graph family as an edge list")
    p.add_argument("--family", required=True,
                   help="complete, cycle, path, hypercube, cocktail-party, "
                        "complete-bipartite, petersen, circulant, cubelike, join")
    p.add_argument("--n", type=int, help="vertex count (cycle, complete, ...)")
    p.add_argument("--m", type=int, help="first side of complete-bipartite")
    p.add_argument("--d", type=int, help="dimension (hypercube, cubelike)")
    p.add_argument("--parts", type=int, help="part count of cocktail-party")
    p.add_argument("--conn", help="comma-separated connection set "
                                  "(circulant: integers; cubelike: bit strings)")
    p.add_argument("--neg", help=f"join: negative block, one of {_ATOM_HELP}")
    p.add_argument("--pos", help=f"join: positive block, one of {_ATOM_HELP}")
    p.add_argument("--cross", type=int, choices=(1, -1), default=1,
                   help="join: sign of the cross edges")
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("walk", parents=[common],
                       help="one transfer amplitude at one time")
    _vertex_flags(p)
    p.add_argument("--time", required=True, help="time expression, e.g. pi/2")
    p.set_defaults(handler=cmd_walk)

    p = sub.add_parser("pst-search", parents=[common],
                       help="scan (0, t-max] for transfer or return peaks")
    _vertex_flags(p)
    p.add_argument("--t-max", required=True, help="scan horizon, e.g. 4*pi")
    p.set_defaults(handler=cmd_pst_search)

    p = sub.add_parser("fidelity-curve", parents=[common],
                       help="sample the fidelity curve as CSV")
    _vertex_flags(p)
    p.add_argument("--t-max", required=True, help="end of the time window")
    p.add_argument("--points", type=int, default=201,
                   help="number of samples over [0, t-max]")
    p.set_defaults(handler=cmd_fidelity_curve)

    p = sub.add_parser("quotient", parents=[common],
                       help="equitable-partition quotient of a signed graph")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--cells", help="inline cells, e.g. '0;1;2,3,4,5'")
    p.add_argument("--partition", help="partition file: one cell per line")
    p.set_defaults(handler=cmd_quotient)

    for name, handler, blurb in (
        ("exterior", cmd_exterior, "signed k-fermion exterior power"),
        ("symmetric", cmd_symmetric, "unsigned k-th symmetric power"),
        ("boson", cmd_boson, "weighted k-boson quotient"),
    ):
        p = sub.add_parser(name, parents=[common], help=blurb)
        p.add_argument("graph", help="edge-list file, all-positive")
        p.add_argument("--k", type=int, required=True, help="particle count")
        p.set_defaults(handler=handler)

    p = sub.add_parser("double-cover", parents=[common],
                       help="two-layer cover: vertex (u, b) sits at index 2u+b")
    p.add_argument("graph", help="edge-list file")
    p.set_defaults(handler=cmd_double_cover)

    p = sub.add_parser("balance", parents=[common],
                       help="balance status and switching witness")
    p.add_argument("graph", help="edge-list file")
    p.set_defaults(handler=cmd_balance)

    p = sub.add_parser("verify", parents=[common],
                       help="run one bundled verification scenario")
    p.add_argument("scenario", help=f"one of: {', '.join(SCENARIO_IDS)}")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("verify-all", parents=[common],
                       help="run every bundled verification scenario")
    p.set_defaults(handler=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
