"""Command-line interface: formats, golden lines, exit codes, determinism."""

import json
import math

import jsonschema
import numpy as np
import pytest

from sgwalk import REPORT_SCHEMA, read_signed_graph, read_weighted_graph
from sgwalk.cli import UsageError, main, parse_graph_atom, parse_time_expression


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
                "sqrt(1, 2)", "x", "2 if 1 else 3"):
        with pytest.raises(UsageError):
            parse_time_expression(bad)


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


def test_construct_families_parse_back(capsys, tmp_path):
    cases = [
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
    for extra, n in cases:
        target = tmp_path / "graph.txt"
        code = main(["construct", *extra, "--out", str(target)])
        assert code == 0
        assert read_signed_graph(target).n == n
    capsys.readouterr()


def test_construct_join_matches_library(capsys, tmp_path):
    target = tmp_path / "join.txt"
    assert main(["construct", "--family", "join", "--neg", "k2",
                 "--pos", "k4", "--out", str(target)]) == 0
    g = read_signed_graph(target)
    assert g.adjacency[0, 1] == -1
    assert (g.adjacency[2:, 2:] + np.eye(4, dtype=int) == 1).all()
    capsys.readouterr()


def test_construct_usage_errors(capsys, tmp_path):
    for argv in (
        ["construct", "--family", "nonsense"],
        ["construct", "--family", "cycle"],  # missing --n
        ["construct", "--family", "cycle", "--n", "2"],
        ["construct", "--family", "cubelike", "--d", "3", "--conn", "01,10"],
        ["construct", "--family", "join", "--neg", "z1", "--pos", "k4"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")


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


def test_meaningless_numbers_fail_cleanly(capsys, tmp_path):
    graph = tmp_path / "graph.txt"
    # non-finite or repeated weights are parse errors
    for text in ["n 2\n0 1 inf\n", "n 2\n0 1 nan\n", "n 2\n0 1 0\n0 1 5\n"]:
        graph.write_text(text)
        code, out, err = run(capsys, "walk", str(graph), "--from", "0",
                             "--to", "1", "--time", "pi/2")
        assert (code, out) == (2, "") and err.startswith("error:")
    # a phase t * lambda beyond 1/eps has no correct digit: domain error
    graph.write_text("n 2\n0 1 1e200\n")
    code, out, err = run(capsys, "walk", str(graph), "--from", "0",
                         "--to", "1", "--time", "pi/2")
    assert (code, out) == (3, "") and "no correct digit" in err
    k2 = write_k2(tmp_path)
    for argv in (["walk", k2, "--time", "1e300"],
                 ["pst-search", k2, "--t-max", "1e300"],
                 ["fidelity-curve", k2, "--t-max", "1e300"]):
        code, out, err = run(capsys, *argv, "--from", "0", "--to", "1")
        assert (code, out) == (3, "") and "no correct digit" in err


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
    # inequitable cells are a domain error
    code, _, err = run(capsys, "quotient", str(target),
                       "--cells", "0;1,2;3,4,5")
    assert code == 3 and "equitable" in err


def test_power_subcommands(capsys, tmp_path):
    square = write_square(tmp_path)
    code, out, _ = run(capsys, "exterior", square, "--k", "2")
    assert code == 0
    assert out.splitlines()[0] == "n 6"
    assert "# state 0 = (0, 1)" in out
    code, out, _ = run(capsys, "boson", write_k2(tmp_path), "--k", "2")
    assert code == 0
    assert "1.41421356237309" in out
    code, _, err = run(capsys, "exterior",
                       write_square(tmp_path, signs=(-1, 1, 1, 1)), "--k", "2")
    assert code == 3  # signed base graph is outside the fermionic domain


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
