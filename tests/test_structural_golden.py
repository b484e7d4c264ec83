"""Byte golden of the structural subcommands: ``construct``, ``balance``,
``double-cover``, the three powers and ``quotient``, in text and JSON, on
small inputs built with ``construct`` (stdout and exit code of each run are
held in ``structural_outputs.json``)."""

import contextlib
import io
import json
from pathlib import Path

from sgwalk.cli import main

FAMILIES = [
    ["--family", "cycle", "--n", "5"],
    ["--family", "complete", "--n", "4"],
    ["--family", "path", "--n", "3"],
    ["--family", "hypercube", "--d", "3"],
    ["--family", "cocktail-party", "--parts", "3"],
    ["--family", "complete-bipartite", "--m", "2", "--n", "3"],
    ["--family", "petersen"],
    ["--family", "circulant", "--n", "8", "--conn", "1,4"],
    ["--family", "cubelike", "--d", "3", "--conn", "011,101,110"],
    ["--family", "join", "--neg", "k2", "--pos", "k4"],
]

# input -> (how it is made from construct's text, --cells, --partition file)
INPUTS = {
    "path3": (lambda c: c("path", "--n", "3"), "1;0,2", "0\n1\n2\n"),
    "k2": (lambda c: c("complete", "--n", "2"), "0;1", "0 1\n"),
    "square": (lambda c: c("cycle", "--n", "4"), "0,2;1,3", "0 1 2 3\n"),
    "petersen": (lambda c: c("petersen"), "0;1,4,5;2,3,6,7,8,9", "0 1 2 3 4 5 6 7 8 9\n"),
    "join": (lambda c: c("join", "--neg", "k2", "--pos", "k4"), "0;1;2,3,4,5", "0 1\n2 3 4 5\n"),
    # every sign of the cube negated
    "negcube": (lambda c: c("hypercube", "--d", "3").replace("+1", "-1"),
                "0;1,2,4;3,5,6;7", "0\n1 2 4\n3 5 6\n7\n"),
    # K4 with a negative 4-cycle laid over it: parallel edges of both signs
    "multigraph": (lambda c: c("complete", "--n", "4")
                   + c("cycle", "--n", "4").split("\n", 1)[1].replace("+1", "-1"),
                   "0;1;2;3", "0 1 2 3\n"),
    # a 4-cycle and two isolated vertices
    "disconnected": (lambda c: c("cycle", "--n", "4").replace("n 4", "n 6"),
                     "0,1,2,3;4,5", "0 1 2 3\n4 5\n"),
    # the join with two of its cross edges switched to -1: neither balanced
    # nor antibalanced
    "unbalanced": (lambda c: c("join", "--neg", "k2", "--pos", "k4")
                   .replace("0 2 +1", "0 2 -1").replace("1 5 +1", "1 5 -1"),
                   "0,1;2,3,4,5", "0 1 2 3 4 5\n"),
}

COMMANDS = [["balance"], ["double-cover"], ["exterior", "--k", "2"],
            ["symmetric", "--k", "2"], ["boson", "--k", "2"], ["quotient"],
            ["quotient", "--cells"], ["quotient", "--partition"]]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue()}


def structural_runs(directory: Path) -> list:
    """Every run of the golden, in order; argv names inputs, not their paths."""
    runs = [run(["construct", *family, *fmt]) for family in FAMILIES
            for fmt in ([], ["--format", "json"])]

    def construct(*args):
        return run(["construct", "--family", *args])["stdout"]

    for name, (make, cells, partition) in INPUTS.items():
        graph, cells_file = directory / f"{name}.txt", directory / f"{name}.cells"
        graph.write_text(make(construct))
        cells_file.write_text(partition)
        for command in COMMANDS:
            extra = {"--cells": [cells], "--partition": [str(cells_file)]}.get(command[-1], [])
            for fmt in ([], ["--format", "json"]):
                record = run([command[0], str(graph), *command[1:], *extra, *fmt])
                record["argv"] = [name if a == str(graph) else
                                  f"{name}.cells" if a == str(cells_file) else a
                                  for a in record["argv"]]
                runs.append(record)
    return runs


def test_structural_subcommands_match_their_golden(tmp_path):
    golden = Path(__file__).with_name("structural_outputs.json").read_text(encoding="utf-8")
    assert structural_runs(tmp_path) == json.loads(golden)
