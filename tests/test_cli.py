"""Command-line interface: formats, golden lines, exit codes, determinism."""

import contextlib
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import unittest.mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgwalk
from sgwalk import REPORT_SCHEMA, read_signed_graph, read_weighted_graph
from sgwalk import cli, core
from sgwalk.cli import UsageError, main, parse_graph_atom, parse_time_expression
from sgwalk.scenarios import fixed


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_k2(tmp_path):
    target = tmp_path / "k2.txt"
    target.write_text("n 2\n0 1 +1\n")
    return str(target)


def write_square(tmp_path, signs=(1, 1, 1, 1)):
    pairs = [(0, 1), (1, 2), (2, 3), (0, 3)]
    lines = ["n 4"] + [f"{u} {v} {'+1' if s == 1 else '-1'}"
                       for (u, v), s in zip(pairs, signs)]
    target = tmp_path / "square.txt"
    target.write_text("\n".join(lines) + "\n")
    return str(target)


def test_time_expressions():
    assert parse_time_expression("pi/2") == pytest.approx(math.pi / 2)
    assert parse_time_expression("pi/sqrt(12)") == pytest.approx(
        math.pi / math.sqrt(12))
    assert parse_time_expression("2*pi") == pytest.approx(2 * math.pi)
    assert parse_time_expression("-pi + 3") == pytest.approx(3 - math.pi)
    assert parse_time_expression("0.5") == 0.5
    for bad in ("pi)", "1/0", "sqrt(-1)", "pi**2", "__import__('os')",
                "sqrt(1, 2)", "x", "2 if 1 else 3",
                "1" + "0" * 400,  # an integer literal beyond float range
                "-" * 3000 + "1", "1+" * 3000 + "1"):  # nesting beyond the recursion limit
        with pytest.raises(UsageError):
            parse_time_expression(bad)


_TIME_ATOMS = st.sampled_from(["pi", "0", "1", "2.5", "1e308", "1e-320", "9" * 400, "sqrt(2)", "x"])
_TIMES = st.one_of(
    st.recursive(_TIME_ATOMS, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: "(%s%s%s)" % t),
        inner.map(lambda e: f"sqrt({e})"), inner.map(lambda e: f"-{e}"))),
    st.text(alphabet="0123456789+-*/.()e pisqrt,_", max_size=30))
_NUMBERS = st.one_of(st.integers(-3, 70).map(str), st.sampled_from(["x", "1.5", "", "+1"]))
_EDGE_LINES = st.one_of(
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.sampled_from(
        ["+1", "-1", "1", "0.5", "-2.5"])).map(lambda e: "%d %d %s" % e),
    st.tuples(_NUMBERS, _NUMBERS, st.sampled_from(
        ["+1", "-1", "0", "2", "inf", "nan", "1e308", "x"])).map(" ".join),
    st.text(alphabet="0123456789 n+-.#x\t", max_size=12))
# headers stay at n <= 64: a larger n allocates n x n arrays before any check
# (the out-of-memory test covers that under an address-space limit)
_HEADERS = st.one_of(st.integers(1, 12).map(lambda n: f"n {n}"),
                     st.integers(-1, 64).map(lambda n: f"n {n}"),
                     st.sampled_from(["", "n", "n x", "n 2 3", "m 4", "n 1e3"]))
_CELLS = st.one_of(
    st.lists(st.lists(st.integers(-1, 5), max_size=4), max_size=5).map(
        lambda cells: ";".join(",".join(map(str, c)) for c in cells)),
    st.text(alphabet="0123456789;, -x", max_size=20))


def _exit_code(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_TIMES, _HEADERS, st.lists(_EDGE_LINES, max_size=8), _CELLS)
def test_text_parsers_never_exit_1(tmp_path_factory, time, header, lines, cells):
    base = tmp_path_factory.getbasetemp()
    k2, square = write_k2(base), write_square(base)
    fuzzed = base / "fuzzed.txt"
    fuzzed.write_text("\n".join([header, *lines]) + "\n")
    for argv in (["walk", k2, "--from", "0", "--to", "1", f"--time={time}"],
                 ["walk", str(fuzzed), "--from", "0", "--to", "0", "--time", "1"],
                 ["balance", str(fuzzed)],
                 ["quotient", square, f"--cells={cells}"]):
        code, err = _exit_code(*argv)
        assert code in (0, 2, 3), argv
        assert "Traceback" not in err


def test_graph_atoms():
    assert parse_graph_atom("k4").n == 4
    assert parse_graph_atom("k3,3").n == 6
    assert parse_graph_atom("c5").n == 5
    assert parse_graph_atom("p4").n == 4
    assert parse_graph_atom("q3").n == 8
    assert parse_graph_atom("cp4").n == 8
    assert parse_graph_atom("petersen").n == 10
    for bad in ("z9", "k", "c2", "k4,4,4"):
        with pytest.raises(UsageError):
            parse_graph_atom(bad)


def test_walk_golden_line(capsys, tmp_path):
    code, out, err = run(capsys, "walk", write_k2(tmp_path),
                         "--from", "0", "--to", "1", "--time", "pi/2")
    assert code == 0 and err == ""
    assert out == "re=0.000000000000 im=-1.000000000000 fidelity=1.000000000000\n"


def test_handlers_are_looked_up_when_called(capsys, monkeypatch, tmp_path):
    # the parser is built once per process; a handler rebound after that
    # (by a tracer or a test double) is still the one that runs
    cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_walk", lambda args: seen.append(args.time) or 0)
    code, out, _ = run(capsys, "walk", write_k2(tmp_path), "--from", "0", "--to", "1",
                       "--time", "pi/2")
    assert code == 0 and out == "" and seen == ["pi/2"]


def test_a_library_value_error_exits_3_under_every_command(capsys, monkeypatch, tmp_path):
    # main alone maps a ValueError to exit 3; no handler needs its own wrapper
    def boom(*args, **kwargs):
        raise ValueError("boom")

    k2 = write_k2(tmp_path)
    for name, argv in (("double_cover", ["double-cover", k2]),
                       ("run_all_scenarios", ["verify-all"]),
                       ("amplitude", ["walk", k2, "--from", "0", "--to", "1", "--time", "pi"])):
        monkeypatch.setattr(cli, name, boom)
        assert run(capsys, *argv) == (3, "", "error: boom\n")


def test_walk_formats(capsys, tmp_path):
    k2 = write_k2(tmp_path)
    code, out, _ = run(capsys, "walk", k2, "--from", "0", "--to", "1",
                       "--time", "pi/2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["im"] == -1.0 and payload["fidelity"] == 1.0
    code, out, _ = run(capsys, "walk", k2, "--from", "0", "--to", "1",
                       "--time", "pi/2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "t,re,im,fidelity"


def test_walk_json_prints_only_earned_digits(capsys, tmp_path):
    cube, ring = tmp_path / "q3.txt", tmp_path / "c4.txt"
    main(["construct", "--family", "hypercube", "--d", "3", "--out", str(cube)])
    main(["construct", "--family", "cycle", "--n", "4", "--out", str(ring)])
    capsys.readouterr()
    # re is a rounding residue: no sign survives rounding to 12 places
    code, out, _ = run(capsys, "walk", str(cube), "--from", "0", "--to", "7",
                       "--time", "pi/2", "--format", "json")
    assert code == 0 and "-0.0" not in out
    assert json.loads(out)["re"] == 0.0 and json.loads(out)["im"] == 1.0
    # a zero amplitude has no phase
    code, out, _ = run(capsys, "walk", str(ring), "--from", "0", "--to", "1",
                       "--time", "pi/2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"time": 1.570796326795, "re": 0.0, "im": 0.0,
                               "fidelity": 0.0, "phase": 0.0}
    assert "-0.0" not in out
    code, out, _ = run(capsys, "fidelity-curve", str(ring), "--from", "0",
                       "--to", "2", "--t-max", "pi", "--points", "9",
                       "--format", "json")
    assert code == 0 and "-0.0" not in out


def test_pst_search_output(capsys, tmp_path):
    square = write_square(tmp_path)
    code, out, _ = run(capsys, "pst-search", square,
                       "--from", "0", "--to", "2", "--t-max", "pi")
    assert code == 0
    fields = out.splitlines()[0].split()
    assert len(fields) == 4 and fields[3] == "pst"
    assert abs(float(fields[0]) - math.pi / 2) < 1e-12
    assert float(fields[1]) == pytest.approx(1.0, abs=1e-9)


def test_pst_search_golden_lines(capsys, tmp_path):
    # the README's square example: transfer at the odd multiples of pi/2
    code, out, err = run(capsys, "pst-search", write_square(tmp_path),
                         "--from", "0", "--to", "2", "--t-max", "4*pi")
    assert code == 0 and err == ""
    assert out == (
        "1.570796326795 1.000000000000 3.141592653590 pst\n"
        "4.712388980385 1.000000000000 3.141592653590 pst\n"
        "7.853981633974 1.000000000000 3.141592653590 pst\n"
        "10.995574287564 1.000000000000 3.141592653590 pst\n"
    )


def test_pst_search_is_deterministic(capsys, tmp_path):
    square = write_square(tmp_path, signs=(-1, 1, 1, 1))
    first = run(capsys, "pst-search", square,
                "--from", "0", "--to", "1", "--t-max", "4*pi")
    second = run(capsys, "pst-search", square,
                 "--from", "0", "--to", "1", "--t-max", "4*pi")
    assert first == second


def test_pst_search_reports_the_earliest_of_equal_peaks(capsys, tmp_path):
    # K_n peaks at every odd multiple of pi/n with fidelity 4/n^2
    for n in range(5, 9):
        target = tmp_path / f"k{n}.txt"
        main(["construct", "--family", "complete", "--n", str(n), "--out", str(target)])
        capsys.readouterr()
        for a, b in ((0, 1), (0, 2), (n - 1, 1)):
            for t_max in ("2*pi", "3*pi", "pi/2"):
                code, out, _ = run(capsys, "pst-search", str(target), "--from", str(a),
                                   "--to", str(b), "--t-max", t_max)
                assert code == 0
                time, fidelity, _, kind = out.split()
                assert kind == "none"
                assert abs(float(time) - math.pi / n) < 1e-12
                assert abs(float(fidelity) - 4 / n ** 2) < 1e-12
    code, out, _ = run(capsys, "pst-search", str(tmp_path / "k5.txt"), "--from", "0",
                       "--to", "2", "--t-max", "2*pi")
    assert out == "0.628318530718 0.160000000000 -2.513274122872 none\n"


def test_pst_search_on_a_zero_curve(capsys, tmp_path):
    # an unbalanced square never moves 0 to 2: the earliest grid time
    # (t_max / 319) and phase 0 stand for a curve of rounding noise
    square = write_square(tmp_path, signs=(1, 1, 1, -1))
    code, out, _ = run(capsys, "pst-search", square,
                       "--from", "0", "--to", "2", "--t-max", "1")
    assert code == 0
    assert out == "0.003134796238 0.000000000000 0.000000000000 none\n"
    code, out, _ = run(capsys, "pst-search", square, "--from", "0", "--to", "2",
                       "--t-max", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"t": 0.003134796238, "fidelity": 0.0,
                                "phase": 0.0, "kind": "none"}]


def test_fidelity_curve(capsys, tmp_path):
    square = write_square(tmp_path)
    code, out, _ = run(capsys, "fidelity-curve", square, "--from", "0",
                       "--to", "2", "--t-max", "pi", "--points", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,re,im,fidelity"
    assert len(lines) == 6
    mid = lines[3].split(",")  # t = pi/2
    assert float(mid[3]) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_curve_memory_does_not_grow_with_points_times_n(tmp_path):
    # 100,001 points on Q6: a complex table of every time against the 64
    # eigenvalues takes 102 MB; the grid kernel holds one chunk of it, and
    # the CSV text (6.2 MB) is written block by block as it is made, so the
    # peak stays under twice the text
    cube, out = tmp_path / "q6.txt", tmp_path / "curve.csv"
    sgwalk.write_edge_list(sgwalk.hypercube(6), cube)
    argv = ["fidelity-curve", str(cube), "--from", "0", "--to", "63", "--t-max", "10*pi",
            "--points", "100001", "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = out.read_text()
    assert len(text.splitlines()) == 100_002
    assert peak < 2 * len(text)


def reference_table(rows, sep):
    """The per-value loop that the table writer replaces."""
    return "".join(sep.join(x if isinstance(x, str) else fixed(x) for x in row) + "\n"
                   for row in rows)


@st.composite
def table_values(draw):
    """Floats where 12-place rounding is delicate: next to k / 10^12, exact
    halves at the 13th place, tiny negatives that round to zero, magnitudes
    from 1e-16 to 1e8, halves and near-halves behind an integer part, values
    that round up into the next integer, -0.0 and the largest float inside
    the digit route's limit."""
    kind = draw(st.integers(0, 7))
    sign = draw(st.sampled_from([1.0, -1.0]))
    if kind == 0:
        x = draw(st.integers(-10 ** 14, 10 ** 14)) / 1e12
        return x + draw(st.integers(-3, 3)) * math.ulp(x)
    if kind == 1:  # odd multiples of 2^-13 end in a 5 at the 13th place
        return (2 * draw(st.integers(-2 ** 39, 2 ** 39)) + 1) * 2.0 ** -13
    if kind == 2:
        return -draw(st.floats(0.0, 5e-13))
    if kind == 3:
        return sign * draw(st.floats(1.0, 9.99)) * 10.0 ** draw(st.integers(-16, 8))
    whole = draw(st.integers(1, 10 ** 6))
    if kind == 4:  # exact halves at the 13th place after a non-zero integer part
        return sign * (whole + (2 * draw(st.integers(0, 2 ** 12 - 1)) + 1) * 2.0 ** -13)
    if kind == 5:  # the float nearest a half at the 13th place: 10^12 x often rounds onto it
        return sign * (whole % 4 + (2 * draw(st.integers(0, 10 ** 12 - 1)) + 1) * 0.5e-12)
    if kind == 6:  # 12 places round up into the next integer, or just fail to
        x = whole - 0.5e-12
        return sign * (x + draw(st.integers(-4, 4)) * math.ulp(x))
    # a value at or beyond the limit sends its whole table to the %-template,
    # so the limit's outside is drawn by test_the_table_route_is_chosen_once_per_table
    return sign * draw(st.sampled_from([0.0, math.nextafter(cli._DIGIT_LIMIT, 0.0)]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(st.tuples(*[table_values()] * k),
                                                     max_size=20).map(lambda rows: (k, rows))),
       st.lists(st.sampled_from(["pst", "none"]), min_size=20, max_size=20),
       st.sampled_from([",", " "]), st.booleans(), st.sampled_from([1, 3, 16384]),
       st.sampled_from([0, 10 ** 9]))
def test_table_writer_prints_as_fixed(case, kinds, sep, with_kinds, block, cut):
    # fidelity-curve rows are float arrays; pst-search rows are lists with a kind;
    # a cut of 0 sends every table of finite numbers below the limit to the
    # digit route, and 10**9 every table to the %-template
    width, rows = case
    columns = [np.array([row[j] for row in rows], dtype=float) for j in range(width)]
    template = sep.join(["%.12f"] * width)
    if with_kinds:
        columns = [column.tolist() for column in columns] + [kinds[:len(rows)]]
        rows = [row + (kind,) for row, kind in zip(rows, kinds)]
        template += sep + "%s"
    with unittest.mock.patch.object(core, "_BLOCK_ROWS", block), \
            unittest.mock.patch.object(cli, "_DIGIT_MIN_ROWS", cut):
        assert cli._fixed_table(template, columns) == reference_table(rows, sep)


def test_the_digit_route_prints_delicate_values_as_fixed(monkeypatch):
    # 100,000 values of the kinds above, drawn in bulk, in one table of the
    # digit route: the tables of the property test are short
    monkeypatch.setattr(cli, "_DIGIT_MIN_ROWS", 0)
    rng = np.random.default_rng(18)
    size = 20_000
    whole = rng.integers(0, 10 ** 6, size).astype(float)
    near = np.concatenate([
        rng.integers(-10 ** 14, 10 ** 14, size) / 1e12,
        whole % 8 + (2 * rng.integers(0, 10 ** 12, size) + 1) * 0.5e-12,
        whole + 1 - 0.5e-12,
    ])
    values = np.concatenate([
        near + rng.integers(-3, 4, near.size) * np.spacing(near),
        (2 * rng.integers(-2 ** 39, 2 ** 39, size) + 1) * 2.0 ** -13,
        rng.uniform(1.0, 9.99, size) * 10.0 ** rng.integers(-16, 16, size),
    ]) * rng.choice([1.0, -1.0], 5 * size)
    values[:100] = -rng.uniform(0.0, 5e-13, 100)
    columns = list(values.reshape(4, -1))
    text = cli._fixed_table(",".join(["%.12f"] * 4), columns)
    assert text == reference_table(zip(*columns), ",")


def test_the_table_route_is_chosen_once_per_table(monkeypatch):
    templated = []
    format_rows = cli._format_rows
    monkeypatch.setattr(cli, "_format_rows",
                        lambda row, columns: templated.append(len(columns[0]))
                        or format_rows(row, columns))
    rows = cli._DIGIT_MIN_ROWS
    times = np.linspace(0.0, 10.0, rows)
    for column, routed in [(times, []),  # numbers and a kind: digits
                           (times[:-1], [rows - 1]),  # too short: the template
                           (np.append(times[:-1], cli._DIGIT_LIMIT), [rows]),
                           (np.append(times[:-1], -cli._DIGIT_LIMIT), [rows]),
                           (np.append(times[:-1], 1e300), [rows]),
                           (np.append(times[:-1], math.nan), [rows])]:
        templated.clear()
        text = cli._fixed_table("%.12f %s", [column, ["pst"] * len(column)])
        assert templated == routed
        assert text == reference_table(zip(column, ["pst"] * len(column)), " ")


def test_table_writer_memory_is_bounded_by_its_output():
    rows = 200_000
    columns = [np.linspace(-1.0, 1.0, rows) * 10.0 ** j for j in range(4)]
    tracemalloc.start()
    try:
        text = cli._fixed_table(",".join(["%.12f"] * 4), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = text.splitlines()
    assert len(lines) == rows
    seam = [column[16383:16385] for column in columns]  # the first block's end
    assert "\n".join(lines[16383:16385]) + "\n" == reference_table(zip(*seam), ",")
    # the text and its blocks, plus one block's Python floats
    assert peak < 3 * len(text)


# one case per construct family, with its vertex count
_FAMILY_CASES = [
    (["--family", "cycle", "--n", "5"], 5),
    (["--family", "complete", "--n", "4"], 4),
    (["--family", "path", "--n", "3"], 3),
    (["--family", "hypercube", "--d", "3"], 8),
    (["--family", "cocktail-party", "--parts", "4"], 8),
    (["--family", "complete-bipartite", "--m", "3", "--n", "3"], 6),
    (["--family", "petersen"], 10),
    (["--family", "circulant", "--n", "24", "--conn", "1,2,3,12"], 24),
    (["--family", "cubelike", "--d", "3", "--conn", "001,010,100"], 8),
    (["--family", "join", "--neg", "k2", "--pos", "k4"], 6),
]


def test_construct_families_parse_back(capsys, tmp_path):
    for extra, n in _FAMILY_CASES:
        target = tmp_path / "graph.txt"
        code = main(["construct", *extra, "--out", str(target)])
        assert code == 0
        assert read_signed_graph(target).n == n
    capsys.readouterr()


def test_no_command_runs_a_matrix_check(capsys, tmp_path):
    # files get the edge and line checks, and every other value a command
    # makes is built by the library itself: neither class's O(n^2) check runs
    square = write_square(tmp_path)
    signed = tmp_path / "signed.txt"
    signed.write_text("n 4\n0 1 +1\n1 2 -1\n2 3 +1\n0 3 +1\n")
    weighted = tmp_path / "weighted.txt"
    weighted.write_text("n 3\n0 1 0.5\n1 2 -1.5\n2 2 2\n")
    cells = tmp_path / "cells.txt"
    cells.write_text("0 2\n1 3\n")
    runs = [[command, str(graph), "--from", "0", "--to", "2", *extra]
            for graph in (signed, weighted)
            for command, *extra in (("walk", "--time", "pi/2"), ("pst-search", "--t-max", "pi"),
                                    ("fidelity-curve", "--t-max", "pi", "--points", "5"))]
    runs += [["quotient", square], ["quotient", square, "--cells", "0,2;1,3"],
             ["quotient", square, "--partition", str(cells)],
             *([power, square, "--k", "2"] for power in ("exterior", "symmetric", "boson")),
             ["double-cover", str(signed)], ["balance", str(signed)],
             *(["construct", *extra] for extra, _ in _FAMILY_CASES)]
    calls = []

    def counting(cls):
        check = cls.__post_init__

        def counted(self):
            calls.append(cls.__name__)
            check(self)
        return unittest.mock.patch.object(cls, "__post_init__", counted)

    checks = {}
    with counting(core.SignedGraph), counting(core.WeightedGraph):
        for argv in runs:
            before = len(calls)
            assert main(argv) == 0, argv
            checks[" ".join(argv)] = calls[before:]
    capsys.readouterr()
    assert checks == dict.fromkeys(checks, [])


def test_construct_join_matches_library(capsys, tmp_path):
    target = tmp_path / "join.txt"
    assert main(["construct", "--family", "join", "--neg", "k2",
                 "--pos", "k4", "--out", str(target)]) == 0
    g = read_signed_graph(target)
    assert g.adjacency[0, 1] == -1
    assert (g.adjacency[2:, 2:] + np.eye(4, dtype=int) == 1).all()
    capsys.readouterr()


def test_construct_join_cross_defaults_to_plus_one(capsys):
    edges = {}
    for cross in ([], ["--cross", "1"], ["--cross", "-1"]):
        code, out, err = run(capsys, "construct", "--family", "join", "--neg", "k2",
                             "--pos", "c4", "--format", "json", *cross)
        assert (code, err) == (0, "")
        edges[tuple(cross)] = json.loads(out)["edges"]
    assert edges[()] == edges[("--cross", "1")] != edges[("--cross", "-1")]
    want = sgwalk.signed_join(parse_graph_atom("k2"), parse_graph_atom("c4"), -1, -1)
    assert edges[("--cross", "-1")] == [list(edge) for edge in core.graph_edges(want)]


FAMILIES = ("complete, cycle, path, hypercube, cocktail-party, complete-bipartite, "
            "petersen, circulant, cubelike, join")


def test_construct_usage_errors(capsys):
    atoms = "expected k<n>, k<m>,<n>, c<n>, p<n>, q<d>, cp<parts> or petersen"
    cases = [
        (["nonsense"], f"unknown family 'nonsense'; choose one of: {FAMILIES}"),
        (["Nonsense"], f"unknown family 'Nonsense'; choose one of: {FAMILIES}"),
        ([""], f"unknown family ''; choose one of: {FAMILIES}"),
        (["complete"], "--family complete requires --n"),
        (["Cycle"], "--family cycle requires --n"),
        (["path"], "--family path requires --n"),
        (["hypercube"], "--family hypercube requires --d"),
        (["cocktail-party"], "--family cocktail-party requires --parts"),
        # each flag is checked in the family's order, before any value is used
        (["complete-bipartite"], "--family complete-bipartite requires --m"),
        (["complete-bipartite", "--n", "3"], "--family complete-bipartite requires --m"),
        (["complete-bipartite", "--m", "3"], "--family complete-bipartite requires --n"),
        (["circulant", "--n", "5"], "--family circulant requires --conn"),
        (["circulant", "--conn", "1,2"], "--family circulant requires --n"),
        # --conn is converted as soon as it is checked: its fault comes first,
        # under the flag's name
        (["circulant", "--conn", "1,x"],
         "bad --conn '1,x': invalid literal for int() with base 10: 'x'"),
        (["circulant", "--conn", "1,x", "--n", "5"],
         "bad --conn '1,x': invalid literal for int() with base 10: 'x'"),
        (["circulant", "--n", "5", "--conn", ""],
         "bad --conn '': invalid literal for int() with base 10: ''"),
        (["circulant", "--conn", "3", "--n", "5"], "circulant connections must lie in 1..n//2"),
        (["cubelike", "--conn", "01"], "--family cubelike requires --d"),
        (["cubelike", "--d", "3"], "--family cubelike requires --conn"),
        (["cubelike", "--d", "3", "--conn", "01,10"],
         "connection '01' must be a 3-bit string of 0s and 1s"),
        (["cubelike", "--d", "2", "--conn", "01, 0x"],
         "connection '0x' must be a 2-bit string of 0s and 1s"),
        (["cubelike", "--d", "2", "--conn", "01,,10"],
         "connection '' must be a 2-bit string of 0s and 1s"),
        (["cubelike", "--d", "2", "--conn", "00"], "connection elements must lie in 1..3"),
        # at d = 0 the empty string has d bits; the dimension is the fault
        (["cubelike", "--d", "0", "--conn", ""], "cubelike dimension must be >= 1"),
        (["join", "--pos", "k4"], "--family join requires --neg"),
        (["join", "--neg", "z1"], f"unknown graph name 'z1'; {atoms}"),
        (["join", "--neg", "z1", "--pos", "k4"], f"unknown graph name 'z1'; {atoms}"),
        (["join", "--neg", "k2"], "--family join requires --pos"),
        (["join", "--neg", "k2", "--pos", "kx"],
         "bad graph name 'kx': invalid literal for int() with base 10: 'x'"),
        (["cycle", "--n", "2"], "cycle needs n >= 3"),
        # a flag the family does not take is refused, the first in parser order,
        # before any missing flag
        (["complete", "--n", "3", "--d", "9"], "--family complete does not take --d"),
        (["petersen", "--n", "3"], "--family petersen does not take --n"),
        (["cycle", "--n", "4", "--cross", "1"], "--family cycle does not take --cross"),
        (["circulant", "--cross", "-1", "--m", "2"], "--family circulant does not take --m"),
        (["hypercube", "--pos", "k4"], "--family hypercube does not take --pos"),
    ]
    for extra, message in cases:
        assert run(capsys, "construct", "--family", *extra) == (2, "", f"error: {message}\n")
    with pytest.raises(SystemExit):
        main(["construct", "--help"])
    help_text = capsys.readouterr().out
    assert FAMILIES in " ".join(help_text.split())
    # extra flags are reported in the order the usage line lists them
    usage_flags = re.findall(r"--([a-z]+)", help_text.split("\n\n")[0])
    assert usage_flags == ["format", "out", "family", *cli._CONSTRUCT_FLAGS]


def test_exit_codes_for_walk(capsys, tmp_path):
    k2 = write_k2(tmp_path)
    code, _, err = run(capsys, "walk", k2, "--from", "0", "--to", "5",
                       "--time", "pi")
    assert code == 3 and "out of range" in err
    code, _, err = run(capsys, "walk", k2, "--from", "0", "--to", "1",
                       "--time", "pi(")
    assert code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    code, _, err = run(capsys, "walk", str(bad), "--from", "0", "--to", "1",
                       "--time", "pi")
    assert code == 2
    code, _, err = run(capsys, "walk", str(tmp_path / "missing.txt"),
                       "--from", "0", "--to", "1", "--time", "pi")
    assert code == 2


def test_a_reason_both_readers_give_is_stated_once(capsys, tmp_path):
    graph = tmp_path / "graph.txt"
    walk = ["--from", "0", "--to", "1", "--time", "pi"]
    for text, reason in (("not a graph\n", ":1: expected header 'n <count>'"),
                         ("n 3\n0 1\n", ":2: expected 'u v s'")):
        graph.write_text(text)
        assert run(capsys, "walk", str(graph), *walk) == (2, "", f"error: {graph}{reason}\n")
    graph.write_bytes(b"n 2\n0 1 \xff\n")  # not UTF-8
    with pytest.raises(ValueError) as info:
        read_signed_graph(str(graph))
    assert "codec can't decode" in str(info.value)
    # open and decode errors name the file, as a missing file does
    assert run(capsys, "walk", str(graph), *walk) == (
        2, "", f"error: cannot read {graph}: {info.value}\n")
    assert run(capsys, "walk", "a\0b", *walk) == (
        2, "", "error: cannot read a\0b: embedded null byte\n")
    # a loop makes the file weighted, and only the weighted reason is given
    graph.write_text("n 3\n0 1 1\n0 1 1\n2 2 1\n")
    assert run(capsys, "walk", str(graph), *walk) == (
        2, "", f"error: {graph}:3: duplicate entry for (0, 1)\n")


def test_meaningless_numbers_fail_cleanly(capsys, tmp_path):
    graph = tmp_path / "graph.txt"
    # non-finite or repeated weights are parse errors, named as such
    for text, cause in [("n 2\n0 1 inf\n", "'inf' is not finite"),
                        ("n 2\n0 1 nan\n", "'nan' is not finite"),
                        ("n 2\n0 1 0\n0 1 5\n", "duplicate entry for (0, 1)"),
                        ("n 2\n0 1 0.5\n0 1 0.5\n", "duplicate entry for (0, 1)"),
                        # a loop or a weight other than +-1 makes the file
                        # weighted, where the parallel edges are the fault
                        ("n 3\n0 1 1\n0 1 1\n2 2 1\n", ":3: duplicate entry for (0, 1)"),
                        ("n 2\n0 1 1\n0 1 1\n0 1 2\n", ":3: duplicate entry for (0, 1)"),
                        # headers whose n x n layers numpy cannot address
                        ("n 10000000000\n", ":1: vertex count 10000000000 is too large"),
                        ("n 100000000000000000000\n",
                         ":1: vertex count 100000000000000000000 is too large")]:
        graph.write_text(text)
        code, out, err = run(capsys, "walk", str(graph), "--from", "0",
                             "--to", "1", "--time", "pi/2")
        assert (code, out) == (2, "") and err.startswith("error:")
        assert cause in err
    # a phase t * lambda beyond 1/eps has no correct digit: domain error
    graph.write_text("n 2\n0 1 1e200\n")
    code, out, err = run(capsys, "walk", str(graph), "--from", "0",
                         "--to", "1", "--time", "pi/2")
    assert (code, out) == (3, "") and "no correct digit" in err
    # finite weights whose top eigenvalue (2e308) overflows: domain error,
    # with no overflow warning on the way
    graph.write_text("n 3\n0 1 1e308\n1 2 1e308\n0 2 1e308\n")
    code, out, err = run(capsys, "walk", str(graph), "--from", "0",
                         "--to", "1", "--time", "pi/2")
    assert (code, out) == (3, "") and "overflows" in err
    k2 = write_k2(tmp_path)
    for argv in (["walk", k2, "--time", "1e300"],
                 ["pst-search", k2, "--t-max", "1e300"],
                 ["fidelity-curve", k2, "--t-max", "1e300"]):
        code, out, err = run(capsys, *argv, "--from", "0", "--to", "1")
        assert (code, out) == (3, "") and "no correct digit" in err


def reader_pair(path):
    """The graph the signed reader, then on its error the weighted reader, gives
    for a file (the CLI's reader before one read classified the file), or the
    pair of their reasons when both refuse it."""
    try:
        return read_signed_graph(path)
    except ValueError as signed_error:
        try:
            return read_weighted_graph(path)
        except ValueError as weighted_error:
            return str(signed_error), str(weighted_error)


_SIGNS = ("+1", "1", "-1")


@st.composite
def edge_files(draw):
    """An edge-list file and whether it is signed (every third token +1, 1 or -1
    and no loop): signed files with parallel edges, weighted files with diagonal
    lines or +-1 weights beside a loop, and faulty files, written in the
    writer's own form or with double spaces, tabs, comments and CRLF endings."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["signed", "weighted", "faulty"]))
    vertices = st.integers(0, n - 1).map(str)
    tokens = st.sampled_from(_SIGNS)
    if kind == "weighted":
        tokens = st.one_of(tokens, st.sampled_from(["0", "0.5", "-2.25", "2", "1e-3", "+01"]))
    elif kind == "faulty":
        vertices = st.one_of(vertices, st.sampled_from(["-1", str(n), str(2 ** 64), "01"]))
        if draw(st.booleans()):
            tokens = st.one_of(tokens, st.sampled_from(["0.5", "2", "x", "nan", "inf", "+2"]))
    rows, pairs = [], set()
    for _ in range(draw(st.integers(0, 7))):
        u, v, token = draw(vertices), draw(vertices), draw(tokens)
        if kind == "signed" and u == v:
            if n == 1:
                continue
            v = str((int(u) + 1) % n)
        if kind == "weighted" and frozenset((u, v)) in pairs:  # repeats are faults
            continue
        pairs.add(frozenset((u, v)))
        rows.append([u, v, token])
    if kind == "weighted" and frozenset(("0", "0")) not in pairs and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), ["0", "0", draw(st.sampled_from(_SIGNS))])
    header = f"n {n}"
    if kind == "faulty":
        if draw(st.integers(0, 3)) == 0:
            rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from([["0", "1"], ["0"]])))
        header = draw(st.sampled_from([header] * 5 + ["n 0", "m 3", ""]))
    if draw(st.booleans()):  # the writer's own form
        text = "".join(f"{line}\n" for line in [header, *map(" ".join, rows)])
    else:
        gap, end = draw(st.sampled_from([" ", "  ", "\t"])), draw(st.sampled_from(["\n", "\r\n"]))
        lines = [gap.join(row) + draw(st.sampled_from(["", "  # note"])) for row in rows]
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["# comment", ""])))
        text = end.join([header, *lines]) + end
    signed = all(len(row) == 3 and row[2] in _SIGNS and int(row[0]) != int(row[1]) for row in rows)
    return text, signed


@settings(max_examples=300, deadline=None, derandomize=True)
@given(edge_files())
def test_one_read_gives_what_the_reader_pair_gave(tmp_path_factory, case):
    text, signed = case
    target = tmp_path_factory.getbasetemp() / "graph.txt"
    target.write_bytes(text.encode())
    want = reader_pair(target)
    if isinstance(want, tuple):  # both refused: one reason, that of the file's kind
        reason = want[0] if signed else want[1]
        assert _exit_code("walk", str(target), "--from", "0", "--to", "0", "--time", "1") == (
            2, f"error: {reason}\n")
        return
    got = cli.load_graph(str(target))
    assert type(got) is type(want)
    if isinstance(want, core.SignedGraph):
        assert signed
        assert (got.pos.tolist(), got.neg.tolist(), got.mode) == (
            want.pos.tolist(), want.neg.tolist(), want.mode)
    else:
        assert not signed and np.array_equal(got.weights, want.weights)


def test_a_graph_file_is_parsed_once(monkeypatch, tmp_path):
    calls = []
    parse = core._parse_edge_lines
    monkeypatch.setattr(core, "_parse_edge_lines", lambda *args: calls.append(args) or parse(*args))
    target = tmp_path / "weighted.txt"
    target.write_text("n 2\n0 0 0.5\n0 1 -1.5\n")
    assert np.array_equal(cli.load_graph(str(target)).weights, [[0.5, -1.5], [-1.5, 0.0]])
    assert len(calls) == 1


def test_signed_commands_refuse_a_weighted_file(capsys, tmp_path):
    # +1/-1 weights with a loop, in the writer's own form and not: a weighted graph
    for text in ("n 3\n0 0 1\n0 1 -1\n1 2 1\n", "n 3\n0 1  -1\n1 2 +1\n2 2 -1\n"):
        target = tmp_path / "loop.txt"
        target.write_text(text)
        graph = cli.load_graph(str(target))
        assert isinstance(graph, core.WeightedGraph)
        assert np.array_equal(graph.weights, reader_pair(target).weights)
        for argv in (["balance"], ["exterior", "--k", "2"], ["symmetric", "--k", "2"],
                     ["boson", "--k", "2"], ["double-cover"], ["quotient"]):
            assert run(capsys, argv[0], str(target), *argv[1:]) == (
                3, "", f"error: {target}: this command needs a +1/-1 signed graph\n")


@pytest.mark.parametrize("cut", [None, 0])
def test_times_beyond_the_digit_limit_print_every_digit(capsys, monkeypatch, tmp_path, cut):
    # with no edges every eigenvalue is 0, so no phase is out of range and a
    # time of 1e300 prints all its 301 integer digits, through the %-template
    # whatever the table's size
    if cut is not None:
        monkeypatch.setattr(cli, "_DIGIT_MIN_ROWS", cut)
    graph = tmp_path / "empty.txt"
    graph.write_text("n 2\n")
    code, out, err = run(capsys, "fidelity-curve", str(graph), "--from", "0", "--to", "0",
                         "--t-max", "1e300", "--points", "3")
    assert (code, err) == (0, "")
    half = ("500000000000000026252380127602210124352234290554079577457927057755901228994"
            "454097893185687540223932021852221916441939088471261617680215287822396092393"
            "353491424193600463287901868915116897394045029684476617485399972540559519483"
            "820440037326371390071247289629394410028421419057834736098193432729700270080")  # 5e299
    assert len(half) == 300 and len(f"{1e300:.0f}") == 301
    assert out == ("t,re,im,fidelity\n"
                   "0.000000000000,1.000000000000,0.000000000000,1.000000000000\n"
                   f"{half}.000000000000,1.000000000000,0.000000000000,1.000000000000\n"
                   f"{1e300:.12f},1.000000000000,0.000000000000,1.000000000000\n")
    code, out, err = run(capsys, "walk", str(graph), "--from", "0", "--to", "1",
                         "--format", "csv", "--time", "1e300")
    assert (code, err) == (0, "")
    assert out == f"t,re,im,fidelity\n{1e300:.12f},0.000000000000,0.000000000000,0.000000000000\n"


def test_tol_is_a_pst_search_flag_only(capsys, tmp_path):
    k2 = write_k2(tmp_path)
    for argv in (["balance", k2], ["walk", k2, "--from", "0", "--to", "1",
                                   "--time", "pi"], ["verify-all"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--tol", "5"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err
    # pst-search honours it: no fidelity reaches 1 - (-1), so K2's peak is "none"
    code, out, _ = run(capsys, "pst-search", k2, "--from", "0", "--to", "1",
                       "--t-max", "pi", "--tol", "-1")
    assert code == 0 and out.split()[-1] == "none"
    # but not a non-finite one: nan would call K2's transfer "none", inf every peak "pst"
    for tol in ("nan", "inf", "-inf"):
        code, out, err = run(capsys, "pst-search", k2, "--from", "0", "--to", "1",
                             "--t-max", "pi", f"--tol={tol}")
        assert (code, out, err) == (2, "", f"error: --tol must be finite, not {tol}\n")


def test_walk_tables_golden_formats(capsys, tmp_path):
    # the README's square, 0 -> 2, in every table format
    square = write_square(tmp_path)
    code, out, err = run(capsys, "walk", square, "--from", "0", "--to", "2",
                         "--time", "pi/2", "--format", "csv")
    assert (code, err) == (0, "")
    assert out == "t,re,im,fidelity\n1.570796326795,-1.000000000000,0.000000000000,1.000000000000\n"
    pst = ["pst-search", square, "--from", "0", "--to", "2", "--t-max", "4*pi"]
    times = ("1.570796326795", "4.712388980385", "7.853981633974", "10.995574287564")
    code, out, err = run(capsys, *pst, "--format", "csv")
    assert (code, err) == (0, "")
    assert out == "t,fidelity,phase,kind\n" + "".join(
        f"{t},1.000000000000,3.141592653590,pst\n" for t in times)
    records = [{"fidelity": 1.0, "kind": "pst", "phase": 3.14159265359, "t": float(t)}
               for t in times]
    code, out, err = run(capsys, *pst, "--format", "json")
    assert (code, out, err) == (0, json.dumps(records, indent=2, sort_keys=True) + "\n", "")
    curve = ["fidelity-curve", square, "--from", "0", "--to", "2", "--t-max", "pi",
             "--points", "5"]
    table = ("t,re,im,fidelity\n"
             "0.000000000000,0.000000000000,0.000000000000,0.000000000000\n"
             "0.785398163397,-0.500000000000,0.000000000000,0.250000000000\n"
             "1.570796326795,-1.000000000000,0.000000000000,1.000000000000\n"
             "2.356194490192,-0.500000000000,0.000000000000,0.250000000000\n"
             "3.141592653590,0.000000000000,0.000000000000,0.000000000000\n")
    for fmt in ("text", "csv"):
        assert run(capsys, *curve, "--format", fmt) == (0, table, "")
    records = [{"t": t, "re": re, "im": 0.0, "fidelity": re * re}
               for t, re in ((0.0, 0.0), (0.785398163397, -0.5), (1.570796326795, -1.0),
                             (2.356194490192, -0.5), (3.14159265359, 0.0))]
    code, out, err = run(capsys, *curve, "--format", "json")
    assert (code, out, err) == (0, json.dumps(records, indent=2, sort_keys=True) + "\n", "")


def test_csv_is_offered_only_for_tables(capsys, tmp_path):
    k2 = write_k2(tmp_path)
    for argv in (["balance", k2], ["exterior", k2, "--k", "1"], ["verify-all"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--format", "csv"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_quotient_outputs(capsys, tmp_path):
    target = tmp_path / "join.txt"
    main(["construct", "--family", "join", "--neg", "k2", "--pos", "k4",
          "--out", str(target)])
    capsys.readouterr()
    code, out, _ = run(capsys, "quotient", str(target),
                       "--cells", "0;1;2,3,4,5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [[0.0, -1.0, 2.0], [-1.0, 0.0, 2.0],
                                 [2.0, 2.0, 3.0]]
    assert payload["cells"] == [[0], [1], [2, 3, 4, 5]]
    # text format round-trips through the weighted reader
    quot_file = tmp_path / "quot.txt"
    code, _, _ = run(capsys, "quotient", str(target),
                     "--cells", "0;1;2,3,4,5", "--out", str(quot_file))
    assert code == 0
    back = read_weighted_graph(quot_file)
    assert np.abs(back.weights - np.array(payload["matrix"])).max() < 1e-12
    # walking on the quotient file reproduces the join transfer peak
    code, out, _ = run(capsys, "walk", str(quot_file), "--from", "0",
                       "--to", "1", "--time", "pi/sqrt(12)")
    assert code == 0
    assert "fidelity=1.000000000000" in out
    # inequitable cells are a seed: the quotient is over their coarsest equitable refinement
    code, out, err = run(capsys, "quotient", str(target),
                         "--cells", "0;1,2;3,4,5", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["cells"] == [[0], [1], [2], [3, 4, 5]]
    # cells that do not partition 0..5 are bad arguments, inline or in a file
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("0\n1\n2 3 4\n")
    for source in (["--cells", "0;1;2,3,4"], ["--partition", str(malformed)]):
        assert run(capsys, "quotient", str(target), *source) == (
            2, "", "error: cells must partition 0..5 exactly\n")
    # inline cells and a partition file exclude each other
    partition = tmp_path / "cells.txt"
    partition.write_text("0\n1\n2 3 4 5\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["quotient", str(target), "--cells", "0;1;2,3,4,5", "--partition", str(partition)])
    assert exit_info.value.code == 2
    assert "not allowed with argument --cells" in capsys.readouterr().err
    # a partition file that cannot be opened or decoded is named, as a graph file is
    partition.write_bytes(b"0\n1\n2 3 4 \xff\n")  # not UTF-8
    with pytest.raises(UnicodeError) as info:
        sgwalk.read_partition(str(partition), n=6)
    for path, reason in ((str(partition), info.value), ("a\0b", "embedded null byte"),
                         (str(tmp_path / "missing.txt"), "No such file or directory")):
        assert run(capsys, "quotient", str(target), "--partition", path) == (
            2, "", f"error: cannot read {path}: {reason}\n")


def test_quotient_of_a_constructed_hypercube_at_scale(capsys, tmp_path):
    # Q10 through the CLI: 5,120 edges written, read back in the writer's form,
    # and quotiented by the distance cells from vertex 0 (Hamming weights)
    target = tmp_path / "q10.txt"
    assert main(["construct", "--family", "hypercube", "--d", "10", "--out", str(target)]) == 0
    capsys.readouterr()
    weight = np.array([bin(v).count("1") for v in range(1024)])
    cells = [np.flatnonzero(weight == j).tolist() for j in range(11)]
    seeded = sgwalk.coarsest_equitable(read_signed_graph(target),
                                       sgwalk.partition_from_cells([[0], list(range(1, 1024))]))
    assert [list(cell) for cell in seeded.cells] == cells
    code, out, _ = run(capsys, "quotient", str(target), "--format", "json",
                       "--cells", ";".join(",".join(map(str, cell)) for cell in cells))
    assert code == 0
    payload = json.loads(out)
    assert payload["cells"] == cells
    want = np.zeros((11, 11))
    j = np.arange(10)
    want[j, j + 1] = want[j + 1, j] = np.sqrt((j + 1) * (10 - j))
    assert np.abs(np.array(payload["matrix"]) - want).max() < 1e-12
    # seeded by vertex 0 alone, the same quotient: the seed refines to the weights
    code, seeded_out, err = run(capsys, "quotient", str(target), "--format", "json",
                                "--cells", "0;" + ",".join(map(str, range(1, 1024))))
    assert (code, err) == (0, "") and json.loads(seeded_out) == payload


def test_power_subcommands(capsys, tmp_path):
    square = write_square(tmp_path)
    code, out, _ = run(capsys, "exterior", square, "--k", "2")
    assert code == 0
    assert out.splitlines()[0] == "n 6"
    assert "# state 0 = (0, 1)" in out
    code, out, _ = run(capsys, "boson", write_k2(tmp_path), "--k", "2")
    assert code == 0
    # sqrt(2), in the shortest text that reads back to it exactly
    assert "\n0 1 1.4142135623730951\n" in out and float("1.4142135623730951") == math.sqrt(2)
    code, _, err = run(capsys, "exterior",
                       write_square(tmp_path, signs=(-1, 1, 1, 1)), "--k", "2")
    assert code == 3  # signed base graph is outside the fermionic domain


def test_power_state_cap_is_a_domain_error(capsys, tmp_path):
    # C(40, 5) = 658,008 and C(512, 2) = 130,816 states: refused before building
    for n, k in ((40, 5), (512, 2)):
        target = tmp_path / f"c{n}.txt"
        main(["construct", "--family", "cycle", "--n", str(n), "--out", str(target)])
        capsys.readouterr()
        for sub in ("exterior", "symmetric"):
            code, out, err = run(capsys, sub, str(target), "--k", str(k))
            assert code == 3 and out == ""
            assert "exceeds the desk-scale cap" in err
    # bosons are capped by C(n+k-1, k), checked at once even for a huge k
    triangle = tmp_path / "c3.txt"
    triangle.write_text("n 3\n0 1 +1\n1 2 +1\n0 2 +1\n")
    for k in ("100000000", "1000000"):
        code, out, err = run(capsys, "boson", str(triangle), "--k", k)
        assert code == 3 and out == ""
        assert err.startswith("error: C(n+k-1, k) = ") and "desk-scale cap" in err
    target = tmp_path / "cubic.txt"
    main(["construct", "--family", "circulant", "--n", "12", "--conn", "1,6",
          "--out", str(target)])
    capsys.readouterr()
    code, out, _ = run(capsys, "boson", str(target), "--k", "3")  # 12^3 = 1728 tuples
    assert code == 0 and out.splitlines()[0] == "n 364"


def run_capped(*argv):
    """Run ``sgwalk argv`` in a fresh process under a 1.5 GiB address-space cap."""
    resource = pytest.importorskip("resource")
    limit = 3 << 29  # numpy loads, a huge array does not

    def cap_address_space():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    src = os.path.dirname(os.path.dirname(sgwalk.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "sgwalk", *argv], env=env,
                          preexec_fn=cap_address_space, capture_output=True,
                          text=True, timeout=120)


def test_out_of_memory_is_a_domain_error():
    # a 100000-vertex complete graph needs 74.5 GiB
    proc = run_capped("construct", "--family", "complete", "--n", "100000")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory")
    assert proc.stderr.count("\n") == 1


def test_pst_search_memory_does_not_grow_with_the_horizon(tmp_path):
    # 95,492,967 grid times: one float64 array of them takes 729 MiB, and a
    # scan holding the grid and its fidelities runs out under the cap
    proc = run_capped("pst-search", write_k2(tmp_path), "--from", "0", "--to", "1",
                      "--t-max", "3e5")
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[0] == "1.570796326795 1.000000000000 -1.570796326795 pst"
    assert len(lines) == 95493  # every odd multiple of pi/2 up to 3e5


def test_file_commands_on_q14_run_on_its_edges(tmp_path):
    # Q14: 16,384 vertices and 114,688 edges, whose two n x n int64 layers
    # alone would take 4 GiB; read, quotient, balance and cover need none
    d, n = 14, 1 << 14
    u = np.repeat(np.arange(n), d)
    v = u ^ np.tile(1 << np.arange(d), n)
    target = tmp_path / "q14.txt"
    target.write_text(f"n {n}\n" + "".join(
        f"{a} {b} +1\n" for a, b in zip(u[u < v].tolist(), v[u < v].tolist())))
    weight = np.array([bin(x).count("1") for x in range(n)])
    cells = [np.flatnonzero(weight == j).tolist() for j in range(d + 1)]
    proc = run_capped("quotient", str(target), "--format", "json",
                      "--cells", ";".join(",".join(map(str, cell)) for cell in cells))
    assert (proc.returncode, proc.stderr) == (0, "")
    payload = json.loads(proc.stdout)
    j = np.arange(d)
    up, down, matrix = np.zeros((3, d + 1, d + 1))
    up[j, j + 1], down[j + 1, j] = d - j, j + 1
    matrix[j, j + 1] = matrix[j + 1, j] = [round(math.sqrt((i + 1) * (d - i)), 12) for i in j]
    assert payload == {"cells": cells, "matrix": matrix.tolist(),
                       "d_plus": (up + down).astype(int).tolist(),
                       "d_minus": np.zeros((d + 1, d + 1), dtype=int).tolist()}
    proc = run_capped("balance", str(target))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "status balanced\nalso_antibalanced true\nwitness" + " +1" * n + "\n"
    cover = tmp_path / "cover.txt"
    proc = run_capped("double-cover", str(target), "--out", str(cover))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    x = np.repeat(np.arange(2 * n), d)  # (u, b) at 2u + b: Q14 twice, one copy per layer
    y = 2 * (x // 2 ^ np.tile(1 << np.arange(d), 2 * n)) + x % 2
    order = np.lexsort((y, x))
    keep = order[x[order] < y[order]]
    assert cover.read_text() == (
        f"n {2 * n}\n" + "".join(f"{a} {b} +1\n" for a, b in zip(x[keep].tolist(), y[keep].tolist()))
        + "".join(f"# state {i} = (base {i // 2}, layer {i % 2})\n" for i in range(2 * n)))


def test_pst_search_refuses_a_scan_beyond_its_cap(capsys, tmp_path):
    # 3.2e14 grid times would scan for months; the cap answers at once
    start = time.perf_counter()
    code, out, err = run(capsys, "pst-search", write_k2(tmp_path), "--from", "0", "--to", "1",
                         "--t-max", "1e12")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err == ("error: t_max = 1e+12 needs a scan of 318309886183792 grid times, more than "
                   "the 1000000001 allowed: the largest horizon is 3.14159e+06\n")


def test_double_cover_subcommand(capsys, tmp_path):
    square = write_square(tmp_path, signs=(-1, 1, 1, 1))
    code, out, _ = run(capsys, "double-cover", square)
    assert code == 0
    assert out.splitlines()[0] == "n 8"
    assert "# state 1 = (base 0, layer 1)" in out


def test_balance_subcommand(capsys, tmp_path):
    code, out, _ = run(capsys, "balance",
                       write_square(tmp_path, signs=(-1, 1, 1, 1)))
    assert code == 0
    assert "status neither" in out and "witness none" in out
    code, out, _ = run(capsys, "balance",
                       write_square(tmp_path, signs=(-1, -1, -1, -1)),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "balanced"
    assert payload["also_antibalanced"] is True
    switched = np.array(payload["witness"])
    assert set(switched.tolist()) <= {1, -1}
    # a disconnected graph and a multigraph are outside its domain
    for name, text, message in (
            ("split.txt", "n 4\n0 1 +1\n2 3 -1\n", "connected"),
            ("multi.txt", "n 3\n0 1 +1\n0 1 -1\n1 2 +1\n", "simple mode")):
        target = tmp_path / name
        target.write_text(text)
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "balance", str(target), "--format", fmt)
            assert code == 3 and out == "" and message in err


def test_verify_scenario_reports(capsys):
    code, out, _ = run(capsys, "verify", "k6-no-pst", "--format", "json")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["scenario"] == "k6-no-pst"
    assert all(claim["status"] == "pass" for claim in report["claims"])

    code, out, _ = run(capsys, "verify", "k8-signed", "--format", "json")
    assert code == 0  # discrepancies do not fail the run
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    statuses = {claim["status"] for claim in report["claims"]}
    assert "discrepancy" in statuses and "fail" not in statuses

    code, out, _ = run(capsys, "verify", "k8-signed")
    assert code == 0
    assert out.startswith("scenario k8-signed: discrepancy")


def test_verify_unknown_scenario(capsys):
    code, _, err = run(capsys, "verify", "no-such-scenario")
    assert code == 2
    assert "fig1-cycles" in err  # the message lists the valid ids


def test_verify_json_is_deterministic_modulo_runtime(capsys):
    def snapshot():
        code, out, _ = run(capsys, "verify", "cubelike-pst", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        payload.pop("runtime_seconds")
        return payload

    assert snapshot() == snapshot()


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "result.txt"
    code, out, _ = run(capsys, "walk", write_k2(tmp_path), "--from", "0",
                       "--to", "1", "--time", "pi/2", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == (
        "re=0.000000000000 im=-1.000000000000 fidelity=1.000000000000\n")


def test_an_unwritable_out_path_is_a_usage_error(capsys, tmp_path):
    k2 = write_k2(tmp_path)
    walk = ["walk", k2, "--from", "0", "--to", "1", "--time", "pi/2"]
    for target, errno_code in ((tmp_path / "missing" / "result.txt", errno.ENOENT),
                               (tmp_path, errno.EISDIR)):
        for argv in (walk, ["verify-all"]):
            code, out, err = run(capsys, *argv, "--out", str(target))
            assert (code, out) == (2, "")
            assert err == f"error: cannot write {target}: {os.strerror(errno_code)}\n"
    proc = run_capped(*walk, "--out", str(tmp_path / "missing" / "result.txt"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: cannot write") and "Traceback" not in proc.stderr


def test_an_out_path_python_refuses_is_a_usage_error(capsys, tmp_path):
    walk = ["walk", write_k2(tmp_path), "--from", "0", "--to", "1", "--time", "pi"]
    for argv in (walk, ["verify-all"]):
        assert run(capsys, *argv, "--out", "a\0b") == (
            2, "", "error: cannot write a\0b: embedded null byte\n")
