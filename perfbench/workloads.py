"""The four seeded workloads, generated round by round.

A round is a list of operations with a fixed histogram of (family, n,
subcommand), the same in every round; the seed and the round choose only
the random parts (random graphs, connection sets, switchings, endpoints,
times and horizons).  Vertex labels and the order of operations depend on
the slot in the round alone, because the Jacobi solver's cost swings with
the labelling.  No two operations of a run see the same matrix unless
the workload shares a graph on purpose (``pst-sweep`` and ``scenarios``).

Program calls go through module attributes looked up at call time, so the
tracer's patched bindings are the ones used.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

CLI = importlib.import_module("sgwalk.cli")
CORE = importlib.import_module("sgwalk.core")
CONSTRUCT = importlib.import_module("sgwalk.construct")
SPECTRAL = importlib.import_module("sgwalk.spectral")
QUOTIENT = importlib.import_module("sgwalk.quotient")
MULTI = importlib.import_module("sgwalk.multiparticle")
SCENARIOS = importlib.import_module("sgwalk.scenarios")

WORKLOADS = ("walk-dense", "pst-sweep", "powers", "scenarios")

# Scenario statuses at the specification: three documented discrepancies.
DISCREPANCIES = {"k8-signed", "cubelike-signed-remark", "boson-ladder"}


@dataclass
class Op:
    """One operation: ``call`` runs the program and returns a JSON-able
    output; ``check`` turns that output into a list of problems."""

    family: str
    n: int
    sub: str
    call: Callable[[], object]
    check: Callable[[object], list]


def make_round(workload: str, seed: int, rnd: int, workdir: Path, baseline: bool = False) -> list:
    """Round ``rnd`` of a run.  ``baseline`` adds the operations that only a
    traced run makes: on walk-dense, the Q7 ``pst-search`` of the ROADMAP
    baseline, which alone takes more than half a round."""
    rng = np.random.default_rng([seed, rnd, WORKLOADS.index(workload)])
    if workload == "walk-dense":
        return _walk_dense(rng, rnd, workdir, baseline)
    build = {
        "pst-sweep": _pst_sweep,
        "powers": _powers,
        "scenarios": _scenarios,
    }[workload]
    return build(rng, rnd, workdir)


# --- helpers ----------------------------------------------------------------


def run_cli(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = CLI.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cli_problems(result: dict) -> list:
    if result["rc"] != 0:
        return [f"exit code {result['rc']}: {result['stderr'].strip()[-200:]}"]
    return []


def edges_of(g) -> np.ndarray:
    return ref.edge_array(g.pos, g.neg)


def seed_of(rng) -> int:
    return int(rng.integers(2 ** 31))


def random_pair(rng, n: int):
    a, b = rng.choice(n, size=2, replace=False)
    return int(a), int(b)


def stratified(rng, count: int) -> np.ndarray:
    """``count`` fractions in [0, 1), one per equal stratum, shuffled."""
    return (rng.permutation(count) + rng.random(count)) / count


def shuffled(ops: list) -> list:
    """Spread each kind of operation over the round, so that a burst of load
    on the machine does not fall on all operations of one kind.  The order
    is the same in every round and for every seed: it moves the timings."""
    return [ops[i] for i in np.random.default_rng(len(ops)).permutation(len(ops))]


def cubelike_set(rng, d: int, m: int) -> list:
    """m distinct connection elements whose XOR is non-zero."""
    while True:
        elems = [int(x) for x in rng.choice(np.arange(1, 1 << d), size=m, replace=False)]
        delta = 0
        for c in elems:
            delta ^= c
        if delta:
            return elems


class Instance:
    """A graph as the benchmark holds it: vertex count plus (u, v, sign) rows."""

    def __init__(self, n: int, edges: np.ndarray):
        self.n = n
        self.edges = edges

    @classmethod
    def of(cls, g) -> "Instance":
        return cls(g.n, edges_of(g))

    def relabelled(self, rng):
        perm = rng.permutation(self.n)
        return Instance(self.n, ref.relabel(self.edges, perm)), perm

    def switched(self, rng) -> "Instance":
        return Instance(self.n, ref.switch(self.edges, rng.choice([-1, 1], size=self.n)))

    def net(self) -> np.ndarray:
        return ref.dense(self.n, self.edges)

    def layers(self):
        net = self.net()
        return np.maximum(net, 0).astype(np.int64), np.maximum(-net, 0).astype(np.int64)

    def write(self, path: Path) -> str:
        path.write_text(ref.edge_text(self.n, self.edges))
        return str(path)

    def value(self):
        """The graph as a program value (for library-level workloads)."""
        return CORE.from_net_matrix(self.net().astype(np.int64))


# --- walk-dense ---------------------------------------------------------------
#
# Every operation reads a fresh edge-list file through the CLI, so each
# spectrum is computed exactly once: nothing here can be reused.


def _hypercube(d):
    return lambda rng, n: (CONSTRUCT.hypercube(d), 0, (1 << d) - 1, math.pi / 2, "pi/2")


def _random_regular(k):
    def build(rng, n):
        g = CONSTRUCT.random_regular(n, k, seed=seed_of(rng))
        return (g, *random_pair(rng, n), None, None)
    return build


def _cubelike(m_choices):
    def build(rng, n):
        d = n.bit_length() - 1
        elems = cubelike_set(rng, d, int(rng.choice(m_choices)))
        g = CONSTRUCT.cubelike(CONSTRUCT.CubelikeSpec(d, tuple(elems)))
        delta = 0
        for c in elems:
            delta ^= c
        return g, 0, delta, math.pi / 2, "pi/2"
    return build


def _circulant(count):
    def build(rng, n):
        conns = [int(c) for c in rng.choice(np.arange(1, n // 2 + 1), size=count, replace=False)]
        return (CONSTRUCT.circulant(n, conns), *random_pair(rng, n), None, None)
    return build


def _product(rng, n):
    factors = {32: [CONSTRUCT.cycle(4), CONSTRUCT.hypercube(3)],
               64: [CONSTRUCT.cycle(8), CONSTRUCT.cycle(8)]}[n]
    return (CONSTRUCT.cartesian_product(factors), *random_pair(rng, n), None, None)


def _join(rng, n):
    h = CONSTRUCT.random_regular(n - 2, 3, seed=seed_of(rng))
    g = CONSTRUCT.signed_join(CONSTRUCT.complete(2), h, -1, 1)
    return g, 0, 1, math.pi / math.sqrt(4 + 2 * (n - 2)), f"pi/sqrt({4 + 2 * (n - 2)})"


def _switched(rng, n):
    return (_hypercube(5) if n == 32 else _random_regular(3))(rng, n)


W, P, C = "walk", "pst-search", "fidelity-curve"

# family, n, builder(rng, n) -> (graph, a, b, exact time, its expression),
# subcommands: one operation per subcommand, each on a fresh instance.
# The quantiles need many similar operations around them: the median falls
# among the 51 operations on 32 vertices (26 of them walks on switched Q5s,
# which keep their natural labels, so the Jacobi cost is the same for every
# switching), and p90 among the 19 random 64-vertex graphs, below a heavy
# head of one Q7, one Q6 and one random 128-vertex graph per round.  The Q7
# keeps the natural labels of `construct --family hypercube --d 7`, as in
# the ROADMAP baseline command; a traced run adds its `pst-search`.
WALK_DENSE_SLOTS = (
    ("hypercube", 128, _hypercube(7), (W,)),
    ("random-3-regular", 128, _random_regular(3), (W,)),
    ("hypercube", 64, _hypercube(6), (C,)),
    ("random-3-regular", 64, _random_regular(3), (W, P, C, W)),
    ("random-4-regular", 64, _random_regular(4), (W, P, C, W)),
    ("join", 64, _join, (W, P, C, W)),
    ("switched", 64, _switched, (W, P, C, W)),
    ("cubelike", 64, _cubelike((5, 6, 7)), (W,)),
    ("circulant", 64, _circulant(3), (C,)),
    ("product", 64, _product, (P,)),
    ("switched", 32, _switched, (W,) * 26),
    ("hypercube", 32, _hypercube(5), (P, C)),
    ("product", 32, _product, (W, P, C)),
) + tuple((family, 32, build, (W, P, C, W)) for family, build in (
    ("random-3-regular", _random_regular(3)),
    ("random-4-regular", _random_regular(4)),
    ("cubelike", _cubelike((4, 5, 6))),
    ("circulant", _circulant(3)),
    ("join", _join),
))


def _walk_dense(rng, rnd, workdir, baseline):
    plan = []
    for i, (family, n, build, subs) in enumerate(WALK_DENSE_SLOTS):
        if i == 0 and baseline:
            subs = (W, P)
        plan += [(i, j, family, n, build, sub) for j, sub in enumerate(subs)]
    subs = [step[-1] for step in plan]
    horizons = iter(1.0 + stratified(rng, subs.count(P) + subs.count(C)))
    points = iter(201 + np.floor(1800 * stratified(rng, subs.count(C))).astype(int))
    ops = []
    for i, j, family, n, build, sub in plan:
        g, a, b, exact, expr = build(rng, n)
        inst = Instance.of(g)
        if family == "switched":
            inst = inst.switched(rng)
        # Vertex labels depend on the slot only, not on the seed or round:
        # the Jacobi solver's cost swings with the labelling, and that
        # nuisance should not move the figures between seeds or rounds.
        if i != 0 and (family, n) != ("switched", 32):
            inst, perm = inst.relabelled(np.random.default_rng([i, j]))
            a, b = int(perm[a]), int(perm[b])
        path = inst.write(workdir / f"walk-r{rnd}-{len(ops)}.txt")
        argv = [sub, path, "--from", str(a), "--to", str(b)]
        if sub == W:
            if expr is None:
                expr = f"{rng.uniform(0.5, 6.0):.6f}"
            argv += ["--time", expr]
            t = exact if exact is not None else float(expr)
            check = _walk_check(inst, a, b, t, exact is not None)
        else:
            factor = float(f"{next(horizons):.6f}")
            argv += ["--t-max", f"{factor:.6f}*pi"]
            t_max = factor * math.pi
            if sub == P:
                exact_times = []
                if exact is not None:
                    step = math.pi if expr == "pi/2" else t_max
                    exact_times = list(np.arange(exact, t_max, step))
                check = _pst_cli_check(inst, a, b, t_max, exact_times)
            else:
                count = int(next(points))
                argv += ["--points", str(count)]
                check = _curve_check(inst, a, b, t_max, count)
        ops.append(Op(family, n, sub, lambda argv=argv: run_cli(argv), check))
    return shuffled(ops)


def _walk_check(inst, a, b, t, exact):
    def check(result):
        problems = cli_problems(result)
        if problems:
            return problems
        fields = dict(tok.split("=") for tok in result["stdout"].split())
        got = complex(float(fields["re"]), float(fields["im"]))
        want = complex(ref.Walk(inst.net()).amp(a, b, t))
        if abs(got - want) > ref.VALUE_TOL or abs(float(fields["fidelity"]) - abs(want) ** 2) > ref.VALUE_TOL:
            problems.append(f"amplitude {got} != reference {want}")
        if exact and abs(float(fields["fidelity"]) - 1.0) > ref.VALUE_TOL:
            problems.append(f"fidelity {fields['fidelity']} at an exact transfer time")
        return problems
    return check


def _pst_cli_check(inst, a, b, t_max, exact_times):
    def check(result):
        problems = cli_problems(result)
        if problems:
            return problems
        verdicts = []
        for line in result["stdout"].split("\n"):
            if line.strip():
                t, f, phase, kind = line.split()
                verdicts.append((float(t), float(f), float(phase), kind))
        return ref.check_pst(ref.Walk(inst.net()), a, b, t_max, verdicts,
                             exact_times=exact_times)
    return check


def _curve_check(inst, a, b, t_max, count):
    def check(result):
        problems = cli_problems(result)
        if problems:
            return problems
        lines = result["stdout"].strip().split("\n")
        if lines[0] != "t,re,im,fidelity" or len(lines) != count + 1:
            return [f"expected a header and {count} rows"]
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        ts = np.linspace(0.0, t_max, count)
        want = ref.Walk(inst.net()).amp(a, b, ts)
        err = max(np.abs(rows[:, 0] - ts).max(), np.abs(rows[:, 1] - want.real).max(),
                  np.abs(rows[:, 2] - want.imag).max(),
                  np.abs(rows[:, 3] - np.abs(want) ** 2).max())
        return [] if err <= ref.VALUE_TOL else [f"curve off by {err}"]
    return check


# --- pst-sweep ------------------------------------------------------------------
#
# Library pst_search over every pair a <= b of small graphs: many queries
# share one graph, and the scan and refinement outweigh the eigensolver.


def _join_with(block: str, *args):
    def build(rng):
        h = getattr(CONSTRUCT, block)(*args)
        return (CONSTRUCT.signed_join(CONSTRUCT.complete(2), h, -1, 1),
                [(0, 1, math.pi / math.sqrt(4 + 2 * h.n))])
    return build


def _signed_k8(rng):
    g = CORE.signed_union(CONSTRUCT.cocktail_party(4),
                          CONSTRUCT.permutation_graph(8, CONSTRUCT.antipodal_pairs(8)), -1)
    return g, []


def _double_cover16(rng):
    base = Instance.of(CONSTRUCT.random_regular(8, 3, seed=seed_of(rng)))
    base.edges[:, 2] = rng.choice([-1, 1], size=len(base.edges))
    return CONSTRUCT.double_cover(base.value()), []


def _pst_hypercube(d):
    return lambda rng: (CONSTRUCT.hypercube(d), [(0, (1 << d) - 1, math.pi / 2)])


PST_SWEEP_GRAPHS = (
    # family, n, builder(rng) -> (graph, [(a, b, exact transfer time)])
    ("complete", 6, lambda rng: (CONSTRUCT.complete(6), [])),
    ("cycle", 6, lambda rng: (CONSTRUCT.cycle(6), [])),
    ("path", 5, lambda rng: (CONSTRUCT.path(5), [])),
    ("join-k4", 6, _join_with("complete", 4)),
    ("join-k3,3", 8, _join_with("complete_bipartite", 3, 3)),
    ("join-q3", 10, _join_with("hypercube", 3)),
    ("join-petersen", 12, _join_with("petersen")),
    ("hypercube", 16, _pst_hypercube(4)),
    ("signed-k8", 8, _signed_k8),
    ("double-cover", 16, _double_cover16),
)


def _pst_sweep(rng, rnd, workdir):
    ops = []
    for i, (family, n, build) in enumerate(PST_SWEEP_GRAPHS):
        # As in walk-dense, labels (and the random double cover) depend on
        # the slot only: one relabelling of Q4 can make the Jacobi solver
        # ten times slower than another.  The seed picks the switching and
        # which pair gets which horizon.
        fixed = np.random.default_rng(i)
        g, exact = build(fixed)
        inst, perm = Instance.of(g).switched(rng).relabelled(fixed)
        value = inst.value()
        walk = {}
        exact_at = {}
        for a, b, t in exact:
            exact_at[tuple(sorted((int(perm[a]), int(perm[b]))))] = t
        pairs = [(a, b) for a in range(n) for b in range(a, n)]
        horizons = (2.0 + 6.0 * stratified(rng, len(pairs))) * math.pi
        for (a, b), t_max in zip(pairs, horizons.tolist()):
            call = (lambda g=value, a=a, b=b, t_max=t_max: [
                [v.time, v.fidelity, v.phase, v.kind]
                for v in SPECTRAL.pst_search(g, a, b, t_max)])
            t0 = exact_at.get((a, b))
            check = _pst_lib_check(inst, walk, family, a, b, t_max,
                                   [] if t0 is None else [t0])
            ops.append(Op(family, n, "return" if a == b else "transfer", call, check))
    return ops


def _pst_lib_check(inst, walk, family, a, b, t_max, exact_times):
    def check(verdicts):
        if "w" not in walk:
            walk["w"] = ref.Walk(inst.net())
        problems = ref.check_pst(walk["w"], a, b, t_max, [tuple(v) for v in verdicts],
                                 exact_times=exact_times)
        if family == "complete":
            n = inst.n
            for t, fid, _, _ in verdicts:
                z = (np.exp(-1j * n * t) + (n - 1 if a == b else -1)) / n
                if abs(abs(z) ** 2 - fid) > ref.VALUE_TOL:
                    problems.append(f"K{n} closed form {abs(z) ** 2} != {fid} at t={t}")
        return problems
    return check


# --- powers -------------------------------------------------------------------
#
# The build side: power graphs, quotients, covers, balance and construct.
# No operation here computes a spectrum.


def _powers(rng, rnd, workdir):
    ops = []

    def add_file(inst, tag):
        return inst.write(workdir / f"powers-r{rnd}-{len(ops)}-{tag}.txt")

    def rr(n, k=3):
        return Instance.of(CONSTRUCT.random_regular(n, k, seed=seed_of(rng))).relabelled(rng)[0]

    power_inputs = (
        ("random-3-regular", "exterior", rr(36), 2),
        ("circulant", "exterior", Instance.of(CONSTRUCT.circulant(
            32, [int(c) for c in rng.choice(np.arange(1, 16), size=2, replace=False)])
        ).relabelled(rng)[0], 2),
        ("random-3-regular", "exterior", rr(10), 3),
        ("random-3-regular", "symmetric", rr(36), 2),
        ("cycle", "symmetric", Instance.of(CONSTRUCT.cycle(10)).relabelled(rng)[0], 3),
        ("random-3-regular", "boson", rr(36), 2),
        # The round's median falls among these three: one operation alone
        # there would make op_p50_ms the latency of that one operation.
        ("random-3-regular", "boson", rr(10), 3),
        ("random-4-regular", "boson", rr(10, 4), 3),
        ("circulant", "boson", Instance.of(CONSTRUCT.circulant(10, [1, 3])).relabelled(rng)[0], 3),
    )
    for family, sub, inst, k in power_inputs:
        path = add_file(inst, sub)
        argv = [sub, path, "--k", str(k)]
        # the dense oracle check is a sample: the first round only
        ops.append(Op(family, inst.n, sub, lambda argv=argv: run_cli(argv),
                      _power_check(inst, sub, k, oracle=rnd == 0)))

    quotient_inputs = [("hypercube", Instance.of(CONSTRUCT.hypercube(d)), d + 1) for d in (8, 9, 10)]
    # The refinement's cost depends on the connection set, so these are
    # fixed, like the labels elsewhere.
    fixed = np.random.default_rng(0)
    for d in (9, 10):
        elems = cubelike_set(fixed, d, int(fixed.integers(d, d + 4)))
        quotient_inputs.append(
            ("cubelike", Instance.of(CONSTRUCT.cubelike(CONSTRUCT.CubelikeSpec(d, tuple(elems)))), None))
    for family, inst, cells in quotient_inputs:
        inst = inst.relabelled(rng)[0]
        path = add_file(inst, "quotient")
        v = int(rng.integers(inst.n))
        ops.append(Op(family, inst.n, "quotient-singleton",
                      lambda path=path, v=v, n=inst.n: _singleton_quotient(path, v, n),
                      _quotient_check(inst, v, cells)))

    signed = Instance.of(CONSTRUCT.random_regular(128, 3, seed=seed_of(rng))).relabelled(rng)[0]
    signed.edges[:, 2] = rng.choice([-1, 1], size=len(signed.edges))
    cube8 = Instance.of(CONSTRUCT.cubelike(CONSTRUCT.CubelikeSpec(8, tuple(cubelike_set(rng, 8, 5)))))
    for family, inst in (("signed-random-3-regular", signed),
                         ("switched-cubelike", cube8.relabelled(rng)[0].switched(rng))):
        path = add_file(inst, "cover")
        ops.append(Op(family, 2 * inst.n, "double-cover",
                      lambda path=path: run_cli(["double-cover", path]), _cover_check(inst)))

    mixed = Instance.of(CONSTRUCT.random_regular(512, 3, seed=seed_of(rng))).relabelled(rng)[0]
    mixed.edges[:, 2] = rng.choice([-1, 1], size=len(mixed.edges))
    anti = Instance.of(CONSTRUCT.hypercube(8)).relabelled(rng)[0]
    anti.edges[:, 2] = -1
    for family, inst in (("switched-random-3-regular", rr(256).switched(rng)),
                         ("signed-random-3-regular", mixed),
                         ("antiswitched-hypercube", anti.switched(rng))):
        path = add_file(inst, "balance")
        ops.append(Op(family, inst.n, "balance", lambda path=path: run_cli(["balance", path]),
                      lambda result, inst=inst: cli_problems(result) or
                      ref.check_balance(inst.net(), result["stdout"])))

    circ_conns = sorted(int(c) for c in rng.choice(np.arange(1, 129), size=4, replace=False))
    cube_elems = cubelike_set(rng, 8, 6)
    cross = int(rng.choice([-1, 1]))
    constructs = (
        ("hypercube", 512, ["--family", "hypercube", "--d", "9"]),
        ("cubelike", 256, ["--family", "cubelike", "--d", "8",
                           "--conn", ",".join(format(c, "08b") for c in cube_elems)]),
        ("circulant", 256, ["--family", "circulant", "--n", "256",
                            "--conn", ",".join(map(str, circ_conns))]),
        ("join", 48, ["--family", "join", "--neg", "c16", "--pos", "q5",
                      "--cross", str(cross)]),
    )
    for family, n, args in constructs:
        ops.append(Op(family, n, "construct", lambda args=args: run_cli(["construct", *args]),
                      _construct_check(family, n, circ_conns, cube_elems, cross)))
    return ops


def _singleton_quotient(path, v, n):
    g = CORE.read_signed_graph(path)
    seed = QUOTIENT.partition_from_cells([[v], [u for u in range(n) if u != v]], n)
    part = QUOTIENT.coarsest_equitable(g, seed)
    quot = QUOTIENT.quotient(g, part)
    return {"cells": [[int(u) for u in cell] for cell in part.cells],
            "matrix": np.asarray(quot.matrix).tolist()}


def _power_check(inst, sub, k, oracle):
    def check(result):
        problems = cli_problems(result)
        if problems:
            return problems
        n_states, mat, states = ref.parse_graph(result["stdout"])
        repeat = sub == "boson"
        want_states = ref.state_labels(inst.n, k, repeat)
        if states != want_states:
            return [f"{len(states)} state labels, expected {len(want_states)} in lex order"]
        base = inst.net()
        if sub == "symmetric":
            if not np.array_equal(mat, ref.exterior_support(base, k).astype(float)):
                problems.append("symmetric power differs from its definition")
            return problems
        problems += ref.check_power_spectrum(base, k, mat, repeat)
        if sub == "exterior" and oracle:
            want = MULTI.exterior_power_oracle(inst.value(), k).weights
            if not np.array_equal(mat, want):
                problems.append("exterior power differs from exterior_power_oracle")
        return problems
    return check


def _quotient_check(inst, v, cells):
    def check(result):
        pos, neg = inst.layers()
        return ref.check_quotient(pos, neg, v, result["cells"], result["matrix"], cells)
    return check


def _cover_check(inst):
    def check(result):
        problems = cli_problems(result)
        if problems:
            return problems
        n, mat, states = ref.parse_graph(result["stdout"])
        pos, neg = inst.layers()
        want = np.kron(pos, np.eye(2)) + np.kron(neg, np.array([[0, 1], [1, 0]]))
        if n != 2 * inst.n or len(states) != n or not np.array_equal(mat, want):
            problems.append("double cover differs from pos (x) I + neg (x) X")
        return problems
    return check


def _construct_reference(family, n, circ_conns, cube_elems, cross):
    u, v = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    if family == "hypercube":
        x = u ^ v
        return ((x & (x - 1)) == 0) & (x != 0)
    if family == "cubelike":
        return np.isin(u ^ v, cube_elems)
    if family == "circulant":
        return np.isin((u - v) % n, circ_conns + [n - c for c in circ_conns])
    ring = np.isin((u[:16, :16] - v[:16, :16]) % 16, [1, 15])
    x = u[:32, :32] ^ v[:32, :32]
    cube = ((x & (x - 1)) == 0) & (x != 0)
    want = np.full((48, 48), float(cross))
    want[:16, :16] = -ring.astype(float)
    want[16:, 16:] = cube
    return want


def _construct_check(family, n, circ_conns, cube_elems, cross):
    def check(result):
        problems = cli_problems(result)
        if problems:
            return problems
        want = _construct_reference(family, n, circ_conns, cube_elems, cross)
        got_n, mat, _ = ref.parse_graph(result["stdout"])
        if got_n != n or not np.array_equal(mat, want.astype(float)):
            problems.append("constructed graph differs from its definition")
        return problems
    return check


# --- scenarios ------------------------------------------------------------------
#
# One pass runs every scenario once, in the order of run_all_scenarios(); one
# operation is one scenario.  The scenarios take no input, so the seed is
# unused: the pass order is fixed because it moves the timings.


def _scenarios(rng, rnd, workdir):
    ops = []
    for sid in SCENARIOS.SCENARIO_IDS:
        ops.append(Op(sid, 0, "verify",
                      lambda sid=sid: SCENARIOS.report_to_dict(SCENARIOS.run_scenario(sid)),
                      _scenario_check(sid)))
    return ops


def _scenario_check(sid):
    def check(doc):
        import jsonschema

        try:
            jsonschema.validate(doc, SCENARIOS.REPORT_SCHEMA)
        except jsonschema.ValidationError as exc:
            return [f"report violates REPORT_SCHEMA: {exc.message}"]
        statuses = {c["status"] for c in doc["claims"]}
        want = "discrepancy" if sid in DISCREPANCIES else "pass"
        got = "fail" if "fail" in statuses else "discrepancy" if "discrepancy" in statuses else "pass"
        return [] if got == want else [f"status {got}, expected {want}"]
    return check
