"""Signed-graph container, balance, switching and edge-list I/O."""

import dataclasses
import itertools
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from sgwalk import (
    MULTIGRAPH,
    SIMPLE,
    CubelikeSpec,
    SignedGraph,
    WeightedGraph,
    balance_verdict,
    boson_quotient,
    boson_quotient_oracle,
    build_signed_graph,
    cartesian_product,
    circulant,
    coarsest_equitable,
    cocktail_party,
    complement,
    complete_bipartite,
    cubelike,
    double_cover,
    exterior_power,
    exterior_power_oracle,
    format_edge_list,
    from_net_matrix,
    graph_edges,
    hypercube,
    is_connected,
    negative_part,
    partition_from_cell_of,
    positive_part,
    random_regular,
    quotient,
    read_signed_graph,
    read_weighted_graph,
    signed_join,
    signed_union,
    switch,
    symmetric_power,
    underlying,
    write_edge_list,
)
from sgwalk import construct, core
from sgwalk.cli import graph_payload
from sgwalk.construct import complete, cycle, path
from sgwalk.multiparticle import MAX_POWER_STATES, _hop_nets


def square(signs):
    """C4 with the given signs on edges 01, 12, 23, 30."""
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0)]
    return build_signed_graph(4, [(u, v, s) for (u, v), s in zip(pairs, signs)])


def brute_force_balance(g):
    """Try all 2^n switchings: balanced iff some switching clears every
    negative edge, antibalanced iff some switching clears every positive one."""
    absolute = np.abs(g.adjacency)
    balanced = antibalanced = False
    for bits in itertools.product((1, -1), repeat=g.n):
        d = np.array(bits)
        switched = d[:, None] * g.adjacency * d[None, :]
        if np.array_equal(switched, absolute):
            balanced = True
        if np.array_equal(switched, -absolute):
            antibalanced = True
    return balanced, antibalanced


def test_build_and_layers():
    g = square([1, -1, 1, -1])
    assert g.n == 4
    assert g.mode == SIMPLE
    assert g.pos[0, 1] == 1 and g.neg[0, 1] == 0
    assert g.neg[1, 2] == 1 and g.pos[1, 2] == 0
    assert np.array_equal(g.adjacency, g.pos - g.neg)
    assert g.edge_count() == 4
    assert positive_part(g).edge_count() == 2
    assert negative_part(g).edge_count() == 2
    assert underlying(g).edge_count() == 4
    assert not underlying(g).neg.any()


def test_simple_mode_rejects_sign_conflicts():
    with pytest.raises(ValueError):
        build_signed_graph(3, [(0, 1, 1), (0, 1, -1)])
    with pytest.raises(ValueError):
        build_signed_graph(3, [(0, 1, 1), (1, 0, 1)])
    g = build_signed_graph(3, [(0, 1, 1), (0, 1, -1), (1, 2, 1)], mode=MULTIGRAPH)
    assert g.pos[0, 1] == 1 and g.neg[0, 1] == 1
    assert g.adjacency[0, 1] == 0


def test_input_validation():
    with pytest.raises(ValueError):
        build_signed_graph(3, [(0, 0, 1)])
    with pytest.raises(ValueError):
        build_signed_graph(3, [(0, 3, 1)])
    with pytest.raises(ValueError):
        build_signed_graph(3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        from_net_matrix(np.array([[0, 1], [2, 0]]))
    for asymmetric in ([[0.0, 1.0], [2.0, 0.0]], [[0.0, 1e308], [-1e308, 0.0]]):
        with pytest.raises(ValueError, match="symmetric"):
            WeightedGraph(2, np.array(asymmetric))


def test_from_net_matrix_splits_layers():
    net = np.array([[0, 2, -1], [2, 0, 0], [-1, 0, 0]])
    g = from_net_matrix(net, mode=MULTIGRAPH)
    assert g.pos[0, 1] == 2 and g.neg[0, 2] == 1
    assert np.array_equal(g.adjacency, net)


def test_switch_involution_and_spectrum():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        net = np.triu(rng.integers(-1, 2, size=(n, n)), k=1)
        g = from_net_matrix(net + net.T)
        d = rng.choice([1, -1], size=n)
        h = switch(g, d)
        back = switch(h, d)
        assert np.array_equal(back.pos, g.pos)
        assert np.array_equal(back.neg, g.neg)
        before = np.sort(np.linalg.eigvalsh(g.adjacency.astype(float)))
        after = np.sort(np.linalg.eigvalsh(h.adjacency.astype(float)))
        assert np.abs(before - after).max() < 1e-10


def assert_verdict_matches_brute_force(g):
    verdict = balance_verdict(g)
    balanced, antibalanced = brute_force_balance(g)
    expected = "balanced" if balanced else (
        "antibalanced" if antibalanced else "neither")
    assert verdict.status == expected
    assert verdict.also_antibalanced == (balanced and antibalanced)
    if verdict.witness is not None:
        switched = switch(g, verdict.witness)
        assert not (switched.neg if balanced else switched.pos).any()


@st.composite
def connected_signed_graphs(draw):
    """Simple signed graphs on 2-9 vertices around a random spanning tree,
    signed at random or as a switching of one constant sign."""
    n = draw(st.integers(2, 9))
    support = np.zeros((n, n), dtype=np.int64)
    for v in range(1, n):
        support[draw(st.integers(0, v - 1)), v] = 1
    for u, v in itertools.combinations(range(n), 2):
        support[u, v] |= draw(st.booleans())
    signs = st.lists(st.sampled_from((1, -1)), min_size=n * n, max_size=n * n)
    constant = draw(st.sampled_from((0, 1, -1)))  # 0: random signs
    if constant:
        d = np.array(draw(signs)[:n])
        signed = constant * np.outer(d, d) * support
    else:
        signed = np.array(draw(signs)).reshape(n, n) * support
    return from_net_matrix(signed + signed.T)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(connected_signed_graphs())
def check_connected_graph_verdicts(g):
    assert_verdict_matches_brute_force(g)


def test_balance_verdict_against_brute_force():
    # every signing of C4 and K4, then random connected graphs, versus the
    # try-all-switchings oracle
    for signs in itertools.product((1, -1), repeat=4):
        assert_verdict_matches_brute_force(square(signs))
    pairs = list(itertools.combinations(range(4), 2))
    for signs in itertools.product((1, -1), repeat=6):
        assert_verdict_matches_brute_force(
            build_signed_graph(4, [(u, v, s) for (u, v), s in zip(pairs, signs)]))
    check_connected_graph_verdicts()


def test_balance_witness_switches_to_constant_sign():
    for signs, expected in [
        ((1, 1, -1, -1), "balanced"),
        ((-1, -1, -1, -1), "balanced"),  # even cycle: all-negative is balanced too
        ((1, 1, 1, -1), "neither"),
    ]:
        g = square(signs)
        verdict = balance_verdict(g)
        assert verdict.status == expected
        if expected == "neither":
            assert verdict.witness is None
            continue
        switched = switch(g, verdict.witness)
        assert not switched.neg.any()
    odd = build_signed_graph(3, [(0, 1, -1), (1, 2, -1), (0, 2, -1)])
    verdict = balance_verdict(odd)
    assert verdict.status == "antibalanced"
    assert not verdict.also_antibalanced
    assert not switch(odd, verdict.witness).pos.any()


def test_signed_union_layers_and_overlap():
    q = cycle(4)
    matching = build_signed_graph(4, [(0, 2, 1), (1, 3, 1)])
    u = signed_union(q, matching, -1)
    assert u.mode == SIMPLE
    assert np.array_equal(u.pos, q.pos)
    assert np.array_equal(u.neg, matching.pos)
    with pytest.raises(ValueError):
        signed_union(q, cycle(4), -1)  # overlapping supports need multigraph mode
    multi = signed_union(q, cycle(4), -1, mode=MULTIGRAPH)
    assert multi.mode == MULTIGRAPH
    assert multi.pos[0, 1] == 1 and multi.neg[0, 1] == 1
    # sign_of_b = +1 keeps the signs of b, layer by layer
    a, b = square([1, -1, 1, -1]), build_signed_graph(4, [(0, 2, -1), (1, 3, 1)])
    plus = signed_union(a, b)
    assert plus.mode == SIMPLE
    assert np.array_equal(plus.pos, a.pos + b.pos) and np.array_equal(plus.neg, a.neg + b.neg)


def test_connectivity():
    assert is_connected(path(5))
    two_edges = build_signed_graph(4, [(0, 1, 1), (2, 3, -1)])
    assert not is_connected(two_edges)


def test_edge_list_round_trip(tmp_path):
    g = square([1, -1, -1, 1])
    target = tmp_path / "square.txt"
    write_edge_list(g, target)
    back = read_signed_graph(target)
    assert back.mode == SIMPLE
    assert np.array_equal(back.pos, g.pos)
    assert np.array_equal(back.neg, g.neg)

    multi = build_signed_graph(3, [(0, 1, 1), (0, 1, -1), (1, 2, 1)],
                               mode=MULTIGRAPH)
    target.write_text(format_edge_list(multi))
    back = read_signed_graph(target)
    assert back.mode == MULTIGRAPH
    assert np.array_equal(back.pos, multi.pos)
    assert np.array_equal(back.neg, multi.neg)

    assert sorted(graph_edges(multi)) == [(0, 1, -1), (0, 1, 1), (1, 2, 1)]


@st.composite
def signed_multigraphs(draw):
    """Up to two parallel edges of each sign per pair."""
    n = draw(st.integers(1, 8))
    layers = []
    for _ in range(2):
        counts = draw(st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n))
        half = np.triu(np.array(counts).reshape(n, n), k=1)
        layers.append(half + half.T)
    return SignedGraph(n, *layers, MULTIGRAPH)


@st.composite
def weighted_graphs(draw):
    """Sparse symmetric weights, diagonal included."""
    n = draw(st.integers(1, 8))
    weight = st.one_of(st.just(0.0), st.floats(-1e6, 1e6, allow_subnormal=False))
    values = draw(st.lists(weight, min_size=n * n, max_size=n * n))
    upper = np.triu(np.array(values).reshape(n, n))
    return WeightedGraph(n, upper + np.triu(upper, k=1).T)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(signed_multigraphs())
def test_signed_edge_list_round_trip_property(tmp_path_factory, g):
    target = tmp_path_factory.getbasetemp() / "signed-round-trip.txt"
    target.write_text(format_edge_list(g))
    back = read_signed_graph(target)
    assert np.array_equal(back.pos, g.pos) and np.array_equal(back.neg, g.neg)
    parallel = list(graph_edges(g))
    assert back.mode == (MULTIGRAPH if len({e[:2] for e in parallel}) < len(parallel)
                         else SIMPLE)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(weighted_graphs())
def test_weighted_edge_list_round_trip_property(tmp_path_factory, g):
    target = tmp_path_factory.getbasetemp() / "weighted-round-trip.txt"
    target.write_text(format_edge_list(g))
    back = read_weighted_graph(target)
    # 15 significant digits are written
    assert np.allclose(back.weights, g.weights, rtol=1e-14, atol=0.0)
    assert np.array_equal(back.weights != 0.0, g.weights != 0.0)


def reference_edges(g):
    """The per-pair generator loop that the column enumeration replaces."""
    if isinstance(g, SignedGraph):
        uu, vv = np.nonzero(np.triu(g.support))
        for u, v, p, m in zip(uu.tolist(), vv.tolist(),
                              g.pos[uu, vv].tolist(), g.neg[uu, vv].tolist()):
            yield from [(u, v, 1)] * p + [(u, v, -1)] * m
    else:
        w = g.adjacency
        uu, vv = np.nonzero(np.triu(w))
        yield from zip(uu.tolist(), vv.tolist(), w[uu, vv].tolist())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(signed_multigraphs(), weighted_graphs()))
def test_graph_payload_lists_the_edge_lines(g):
    want = list(reference_edges(g))
    got = list(graph_edges(g))
    assert got == want and [tuple(map(type, e)) for e in got] == [tuple(map(type, e)) for e in want]
    def text(w):  # weights: the shortest text that reads back, integers without ".0"
        if isinstance(g, SignedGraph):
            return f"{w:+d}"
        return repr(int(w) if w.is_integer() and abs(w) < 1e16 else w)

    lines = format_edge_list(g).split("\n")
    assert lines == [f"n {g.n}"] + [f"{u} {v} {text(w)}" for u, v, w in want] + [""]
    assert [float(line.split()[2]) for line in lines[1:-1]] == [w for _, _, w in want]
    # weights print rounded to 12 places, never as -0.0
    rows = [[u, v, w if isinstance(g, SignedGraph) else round(w, 12) + 0.0]
            for u, v, w in want]
    assert graph_payload(g) == {"n": g.n, "edges": rows}
    # one line per edge, sorted by (u, v) with +1 before -1, upper triangle
    signed = isinstance(g, SignedGraph)
    assert rows == sorted(rows, key=lambda row: (row[0], row[1], -row[2] if signed else 0))
    if signed:
        assert len(rows) == g.edge_count()
        assert all(u < v and type(s) is int for u, v, s in rows)
    else:
        assert len(rows) == np.count_nonzero(np.triu(g.weights))
        assert all(u <= v for u, v, _ in rows)


def test_weighted_round_trip_keeps_diagonal(tmp_path):
    w = np.array([[3.0, -1.5, 0.0], [-1.5, 0.0, 2.25], [0.0, 2.25, 1.0]])
    graph = WeightedGraph(3, w)
    target = tmp_path / "weighted.txt"
    write_edge_list(graph, target)
    back = read_weighted_graph(target)
    assert np.abs(back.weights - w).max() < 1e-12


def test_read_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    for text in ["", "m 3\n", "n 3\n0 1\n", "n 3\n0 1 +2\n", "n 2\n0 5 +1\n"]:
        bad.write_text(text)
        with pytest.raises(ValueError):
            read_signed_graph(bad)
    for text in ["n 2\n0 1 x\n", "n 2\n0 1 nan\n", "n 2\n0 1 inf\n",
                 "n 2\n0 1 -inf\n",
                 # a repeated pair is caught even when its first weight is 0
                 "n 2\n0 1 0\n0 1 5\n", "n 2\n0 1 0\n1 0 5\n"]:
        bad.write_text(text)
        with pytest.raises(ValueError):
            read_weighted_graph(bad)
    bad.write_text("n x\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}:1: bad vertex count 'x'$"):
        read_signed_graph(bad)


def reference_build(n, edges, mode):
    """The per-edge loop that the array checks of build_signed_graph replace."""
    pos = np.zeros((n, n), dtype=np.int64)
    neg = np.zeros((n, n), dtype=np.int64)
    seen = set()
    for edge in edges:
        try:
            u, v, s = edge
        except (TypeError, ValueError):
            raise ValueError(f"edge {edge!r} is not a (u, v, sign) triple") from None
        u, v, s = int(u), int(v), int(s)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if s not in (1, -1):
            raise ValueError(f"edge sign must be +1 or -1, got {s}")
        key = (min(u, v), max(u, v))
        if mode == SIMPLE and key in seen:
            raise ValueError(f"duplicate edge {key} in simple mode")
        seen.add(key)
        layer = pos if s == 1 else neg
        layer[u, v] += 1
        layer[v, u] += 1
    return SignedGraph(n, pos, neg, mode)


def reference_read(path, n, lines, mode):
    """The per-line sign check and mode choice of read_signed_graph, then
    :func:`reference_build`; ``lines`` holds (line number, u, v, sign token)."""
    edges = []
    for lineno, u, v, token in lines:
        if token not in ("+1", "1", "-1"):
            raise ValueError(f"{path}:{lineno}: sign must be +1 or -1, got {token!r}")
        edges.append((u, v, 1 if token in ("+1", "1") else -1))
    if mode is None:
        pairs = [(min(u, v), max(u, v)) for u, v, _ in edges]
        mode = MULTIGRAPH if len(set(pairs)) < len(pairs) else SIMPLE
    return reference_build(n, edges, mode)


def outcome(build, *args):
    """The layers and mode of the graph built, or the message of its error."""
    try:
        g = build(*args)
    except ValueError as exc:
        return str(exc)
    return g.pos.tolist(), g.neg.tolist(), g.mode


@st.composite
def faulty_edge_lists(draw):
    """Edges on few vertices, so that pairs repeat, with faults that may meet
    on one edge: a vertex out of range (or beyond int64), a loop, a bad sign;
    and the odd edge that is no integer triple at all."""
    n = draw(st.integers(2, 8))
    odds = draw(st.sampled_from([2, 4, 16, 64]))  # one edge in odds has each fault
    faulty = st.integers(1, odds).map(lambda roll: roll == 1)
    edges = []
    for _ in range(draw(st.integers(0, 12))):
        u = draw(st.integers(0, n - 1))
        v = (u + draw(st.integers(1, n - 1))) % n
        s = draw(st.sampled_from([1, -1]))
        if draw(faulty):
            v = u
        if draw(faulty):
            u = draw(st.sampled_from([-1, n, n + 1, 2 ** 63, -(2 ** 70)]))
        if draw(faulty):
            v = draw(st.sampled_from([-2, n, 2 ** 64]))
        if draw(faulty):
            s = draw(st.sampled_from([0, 2, -3]))
        edges.append({0: (u, v), 1: (u, "x", s)}.get(draw(st.integers(0, 39)), (u, v, s)))
    return n, edges, draw(st.sampled_from([SIMPLE, MULTIGRAPH]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(faulty_edge_lists())
def test_build_matches_the_per_edge_loop(case):
    n, edges, mode = case
    want = outcome(reference_build, n, edges, mode)
    assert outcome(build_signed_graph, n, edges, mode) == want
    assert outcome(build_signed_graph, n, iter(edges), mode) == want
    if all(len(e) == 3 and all(type(x) is int and abs(x) < 2 ** 62 for x in e) for e in edges):
        assert outcome(build_signed_graph, n, np.array(edges, dtype=np.int64).reshape(-1, 3),
                       mode) == want


@st.composite
def clean_edge_lists(draw):
    """Edges that pass every edge check: in simple mode no pair repeats, in
    multigraph mode pairs repeat with either sign."""
    n = draw(st.integers(1, 9))
    mode = draw(st.sampled_from([SIMPLE, MULTIGRAPH]))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    if not pairs:
        return n, [], mode
    picks = draw(st.lists(st.sampled_from(pairs), max_size=30,
                          unique_by=(lambda pair: frozenset(pair)) if mode == SIMPLE else None))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(picks), max_size=len(picks)))
    return n, [(u, v, s) for (u, v), s in zip(picks, signs)], mode


def assert_handed_over_intact(g):
    """g's layers are read-only int64 halves of one owned (2, n, n) array, and
    bit for bit what the full matrix check makes of them: the oracle accepts
    them as they are."""
    layers = g.pos.base
    assert layers is not None and layers is g.neg.base and layers.flags.owndata
    assert layers.shape == (2, g.n, g.n) and layers.dtype == np.int64
    assert not (layers.flags.writeable or g.pos.flags.writeable or g.neg.flags.writeable)
    assert g.pos.dtype == g.neg.dtype == np.int64
    assert np.shares_memory(g.pos, layers[0]) and np.shares_memory(g.neg, layers[1])
    checked = SignedGraph(g.n, g.pos.copy(), g.neg.copy(), g.mode)
    assert (g.n, g.mode) == (checked.n, checked.mode)
    assert np.array_equal(g.pos, checked.pos) and np.array_equal(g.neg, checked.neg)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(clean_edge_lists())
def test_built_layers_are_halves_of_one_array_the_full_check_accepts(case):
    n, edges, mode = case
    for given_edges in (edges, np.array(edges, dtype=np.int64).reshape(-1, 3)):
        g = build_signed_graph(n, given_edges, mode)
        assert (g.n, g.mode) == (n, mode)
        assert_handed_over_intact(g)


def drawn_graph(draw, n, mode, signs):
    """A graph on n vertices with edges of the given signs; pairs repeat only
    in multigraph mode."""
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(st.lists(st.sampled_from(pairs), max_size=3 * n,
                          unique=mode == SIMPLE)) if pairs else []
    return build_signed_graph(n, [(u, v, draw(st.sampled_from(signs))) for u, v in picks], mode)


@st.composite
def derivations(draw):
    """(name, thunk) pairs for every graph the library derives from a checked
    graph or builds from checked parameters: switchings, parts and double
    covers of a signed simple graph and a signed multigraph, powers and
    complements of unsigned graphs, and each construction on drawn
    parameters."""
    n = draw(st.integers(1, 7))
    signed = drawn_graph(draw, n, SIMPLE, (1, -1))
    multi = drawn_graph(draw, n, MULTIGRAPH, (1, -1))
    unsigned = drawn_graph(draw, n, SIMPLE, (1,))
    other = drawn_graph(draw, draw(st.integers(1, 5)), SIMPLE, (1,))
    d = np.array(draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)))
    k = draw(st.integers(1, n))
    m = draw(st.integers(1, 9))
    conns = draw(st.sets(st.integers(1, m // 2)) if m > 1 else st.just(set()))
    dim = draw(st.integers(1, 4))
    spec = CubelikeSpec(dim, tuple(draw(st.sets(st.integers(1, 2 ** dim - 1), min_size=1))))
    sign_g1, sign_cross = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
    sides = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    parts = draw(st.integers(2, 4))
    return [
        ("switch", lambda: switch(signed, d)),
        ("switch of a multigraph", lambda: switch(multi, d)),
        ("positive_part", lambda: positive_part(signed)),
        ("negative_part", lambda: negative_part(signed)),
        ("underlying", lambda: underlying(signed)),
        ("double_cover", lambda: double_cover(signed)),
        ("double_cover of a multigraph", lambda: double_cover(multi)),
        ("exterior_power", lambda: exterior_power(unsigned, k)),
        ("symmetric_power", lambda: symmetric_power(unsigned, k)),
        ("complete", lambda: complete(n + 1)),
        ("cocktail_party", lambda: cocktail_party(parts)),
        ("complete_bipartite", lambda: complete_bipartite(*sides)),
        ("circulant", lambda: circulant(m, conns)),
        ("complement", lambda: complement(unsigned)),
        ("signed_join", lambda: signed_join(unsigned, other, sign_g1, sign_cross)),
        ("cubelike", lambda: cubelike(spec)),
        ("hypercube", lambda: hypercube(dim)),
    ], (signed, multi, unsigned)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(derivations())
def test_derived_and_constructed_graphs_skip_the_full_check_it_would_accept(case):
    derived, (signed, multi, unsigned) = case
    calls = []
    full_check = SignedGraph.__post_init__

    def counted(self):
        calls.append(self)
        full_check(self)

    with mock.patch.object(SignedGraph, "__post_init__", counted):
        values, checks = {}, {}
        for name, make in derived:
            before = len(calls)
            values[name] = make()
            checks[name] = len(calls) - before
        # matrices from outside the library still get it, once per value
        for make in (lambda: SignedGraph(multi.n, multi.pos, multi.neg, MULTIGRAPH),
                     lambda: from_net_matrix(signed.adjacency),
                     lambda: signed_union(signed, multi, -1, MULTIGRAPH),
                     lambda: cartesian_product([signed, unsigned])):
            before = len(calls)
            make()
            assert len(calls) == before + 1
    assert checks == dict.fromkeys(checks, 0)
    for g in values.values():
        assert_handed_over_intact(g)


_WEIGHTS = st.one_of(
    st.sampled_from([-2.5, 0.5, 3.0, 1e308, -1.7e308, 5e-324, -5e-324, 1.5e-323,
                     2.2250738585072014e-308, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def weighted_values(draw):
    """(name, thunk) pairs for every weighted value the library builds itself:
    boson ladders of an unsigned graph and quotients of coarsest equitable
    partitions, unseeded and seeded by a singleton, of a signed simple graph
    and a signed multigraph; and the text of a weighted file with negative,
    huge, subnormal and diagonal weights."""
    n = draw(st.integers(1, 6))
    unsigned = drawn_graph(draw, n, SIMPLE, (1,))
    signed = drawn_graph(draw, n, SIMPLE, (1, -1))
    multi = drawn_graph(draw, n, MULTIGRAPH, (1, -1))
    k = draw(st.integers(1, 3))
    a = draw(st.integers(0, n - 1))
    seed = partition_from_cell_of([int(v != a) for v in range(n)])
    entries = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _WEIGHTS),
                            max_size=12, unique_by=lambda e: (min(e[:2]), max(e[:2]))))
    text = "".join([f"n {n}\n"] + [f"{u} {v} {w!r}\n" for u, v, w in entries])
    return [
        ("boson_quotient", lambda: boson_quotient(unsigned, k)),
        ("quotient", lambda: quotient(signed, coarsest_equitable(signed))),
        ("seeded quotient", lambda: quotient(signed, coarsest_equitable(signed, seed))),
        ("quotient of a multigraph", lambda: quotient(multi, coarsest_equitable(multi))),
        ("seeded quotient of a multigraph",
         lambda: quotient(multi, coarsest_equitable(multi, seed))),
    ], text, unsigned


@settings(max_examples=100, deadline=None, derandomize=True)
@given(weighted_values())
def test_built_weighted_values_skip_the_check_it_would_accept(tmp_path_factory, case):
    made, text, unsigned = case
    target = tmp_path_factory.getbasetemp() / "weighted.txt"
    target.write_text(text)
    made.append(("read_weighted_graph", lambda: read_weighted_graph(target)))
    calls = []
    full_check = WeightedGraph.__post_init__  # QuotientGraph's too

    def counted(self):
        calls.append(self)
        full_check(self)

    with mock.patch.object(WeightedGraph, "__post_init__", counted):
        values, checks = {}, {}
        for name, make in made:
            before = len(calls)
            values[name] = make()
            checks[name] = len(calls) - before
        # matrices from outside the library, the oracles and a replaced
        # quotient still get it, once per value
        quot = values["seeded quotient"]
        for make in (lambda: WeightedGraph(quot.n, quot.weights),
                     lambda: boson_quotient_oracle(unsigned, 2),
                     lambda: exterior_power_oracle(unsigned, 1),
                     lambda: dataclasses.replace(quot)):
            before = len(calls)
            make()
            assert len(calls) == before + 1
    assert checks == dict.fromkeys(checks, 0)
    for g in values.values():
        w = g.weights
        assert w.dtype == np.float64 and w.flags.owndata and not w.flags.writeable
        assert w.tobytes() == WeightedGraph(g.n, w.copy()).weights.tobytes()


@pytest.mark.parametrize("x", [5e-324, -5e-324, 1.5e-323, 2.2250738585072014e-308,
                               1.7e308, -1.7e308])
def test_symmetric_weights_keep_their_bits(tmp_path, x):
    w = np.array([[0.5, x], [x, 0.0]])
    assert WeightedGraph(2, w).weights.tobytes() == w.tobytes()
    source = tmp_path / "source.txt"
    source.write_text(f"n 2\n0 1 {x!r}\n0 0 0.5\n")
    read = read_weighted_graph(source)
    assert read.weights.tobytes() == w.tobytes()
    assert format_edge_list(read) == f"n 2\n0 0 0.5\n0 1 {x!r}\n"
    write_edge_list(read, source)
    assert read_weighted_graph(source).weights.tobytes() == w.tobytes()


@pytest.mark.parametrize("name, make", [
    ("pos", lambda m: SignedGraph(2, m, np.zeros((2, 2)), MULTIGRAPH)),
    ("neg", lambda m: SignedGraph(2, np.zeros((2, 2)), m, MULTIGRAPH)),
    ("net", lambda m: from_net_matrix(m)),
])
@pytest.mark.parametrize("entry", [float("inf"), -float("inf"), float("nan"), 1e300, -1e300,
                                   2.0 ** 63, -(2.0 ** 63), 0.5,
                                   # an int64 cast wraps these; -2**63 has no negation
                                   np.uint64(2 ** 63), np.uint64(2 ** 64 - 1), np.int64(-2 ** 63),
                                   # an object array of Python ints; a cast drops 1j
                                   2 ** 64, 1j, 1 + 1j])
def test_entries_int64_cannot_hold_are_refused_before_any_cast(name, make, entry):
    matrix = np.zeros((2, 2), dtype=np.asarray(entry).dtype)
    matrix[0, 1] = matrix[1, 0] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "invalid value encountered in cast"
        with pytest.raises(ValueError, match=f"^{name} matrix must have integer entries$"):
            make(matrix)


def test_the_largest_float_below_two_to_the_63_is_a_count():
    top = 2.0 ** 63 - 1024
    g = SignedGraph(2, [[0.0, top], [top, 0.0]], np.zeros((2, 2)), MULTIGRAPH)
    assert g.pos[0, 1] == 2 ** 63 - 1024


@pytest.mark.parametrize("dtype", [np.uint64, np.int64])
def test_integers_of_magnitude_below_two_to_the_63_are_counts(dtype):
    top = dtype(2 ** 63 - 1)
    matrix = np.array([[0, top], [top, 0]], dtype=dtype)
    assert SignedGraph(2, matrix, 0 * matrix, MULTIGRAPH).pos[0, 1] == 2 ** 63 - 1
    assert from_net_matrix(matrix).pos[0, 1] == 2 ** 63 - 1
    if dtype is np.int64:
        assert from_net_matrix(-matrix).neg[0, 1] == 2 ** 63 - 1


def ones(n):
    return np.ones((n, n)) - np.eye(n)


@pytest.mark.parametrize("make, message", [
    (lambda: SignedGraph(3, ones(2), ones(3)), "pos matrix must have shape (3, 3), got (2, 2)"),
    (lambda: SignedGraph(2, ones(2), [0, 0]), "neg matrix must have shape (2, 2), got (2,)"),
    (lambda: SignedGraph(0, ones(0), ones(0)), "a graph needs at least one vertex"),
    (lambda: SignedGraph(2, np.eye(2), 0 * ones(2)), "self-loops are not allowed"),
    (lambda: SignedGraph(2, ones(2), -ones(2), MULTIGRAPH), "neg multiplicities must be non-negative"),
    (lambda: SignedGraph(2, 2 * ones(2), 0 * ones(2)), "simple mode forbids parallel edges"),
    (lambda: SignedGraph(2, ones(2), ones(2)),
     "simple mode forbids a positive and a negative edge on the same pair"),
    (lambda: SignedGraph(2, ones(2), 0 * ones(2), "dense"), "unknown mode 'dense'"),
    (lambda: WeightedGraph(3, ones(2)), "weights must have shape (3, 3)"),
    (lambda: switch(cycle(4), [1, -1, 1]), "switching vector must have length 4"),
    (lambda: switch(cycle(4), [1, -1, 0, 1]), "switching vector entries must be +1 or -1"),
    (lambda: switch(cycle(4), [1, -1, 2, 1]), "switching vector entries must be +1 or -1"),
    (lambda: signed_union(cycle(4), cycle(5)), "signed_union needs graphs on the same vertex count"),
    (lambda: signed_union(cycle(4), path(4), 0, MULTIGRAPH), "sign_of_b must be +1 or -1"),
])
def test_checks_refuse_with_their_own_messages(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_build_refuses_a_vertex_count_before_any_edge():
    # both edge paths, before they allocate or check an edge
    for n in (0, -1):
        for edges in ([], [(0, 1, 1)], np.zeros((0, 3), dtype=np.int64), np.array([[0, 1, 1]])):
            with pytest.raises(ValueError, match="^a graph needs at least one vertex$"):
                build_signed_graph(n, edges)
    with pytest.raises(ValueError, match=f"^vertex count {2 ** 40} is too large$"):
        build_signed_graph(2 ** 40, np.array([[0, 1, 1]]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(faulty_edge_lists(), st.sampled_from([None, SIMPLE, MULTIGRAPH]), st.booleans())
def test_read_matches_the_per_line_loop(tmp_path_factory, case, mode, canonical):
    n, edges, _ = case
    edges = [e for e in edges if len(e) == 3 and all(type(x) is int for x in e)]
    tokens = {1: ("+1", "1"), -1: ("-1", "-1")}
    lines = [(i + 2, u, v, tokens[s][i % 2] if s in tokens else f"{s:+d}")
             for i, (u, v, s) in enumerate(edges)]
    # the writer's own form takes one tokenisation; a double space, the loop
    gap = " " if canonical else "  "
    text = "".join([f"n {n}\n"] + [f"{u}{gap}{v} {t}\n" for _, u, v, t in lines])
    assert bool(core._SIGNED_FILE.fullmatch(text)) == ((canonical or not edges) and all(
        0 <= u < 10 ** 18 and 0 <= v < 10 ** 18 and s in tokens for u, v, s in edges))
    target = tmp_path_factory.getbasetemp() / "faulty.txt"
    target.write_text(text)
    want = outcome(reference_read, target, n, lines, mode)
    assert outcome(read_signed_graph, target, mode) == want


@pytest.mark.parametrize("text, same_as", [
    ("n 3\n0 1 01\n", "sign must be +1 or -1, got '01'"),
    ("n 3\n0 1 +01\n", "sign must be +1 or -1, got '+01'"),
    ("n 3\n0 1 1.0\n", "sign must be +1 or -1, got '1.0'"),
    ("n 007\n0 1 +1\n", "n 7\n0 1 +1\n"),
    ("n 3\n0 1 +1 \n", "n 3\n0 1 +1\n"),
    ("n 3\r\n0 1 +1\r\n1 2 -1\r\n", "n 3\n0 1 +1\n1 2 -1\n"),
    ("n 3\n0 1 +1\n1 2 -1", "n 3\n0 1 +1\n1 2 -1\n"),
    ("n 3\n0 1 +1\n# 1 2 -1\n", "n 3\n0 1 +1\n"),
    ("n 3\n0 01 +1\n", "n 3\n0 1 +1\n"),
    ("n 3\n1000000000000000000 1 +1\n",
     "edge (1000000000000000000, 1) out of range for 3 vertices"),
    ("n 3\n0 99999999999999999999 -1\n",
     "edge (0, 99999999999999999999) out of range for 3 vertices"),
    ("n 1000000000000000000\n", ":1: vertex count 1000000000000000000 is too large"),
    ("n 10000000000000000000\n", ":1: vertex count 10000000000000000000 is too large"),
])
def test_near_canonical_files_read_as_the_loop_reads_them(tmp_path, text, same_as):
    assert not core._SIGNED_FILE.fullmatch(text)
    target = tmp_path / "near.txt"
    target.write_bytes(text.encode())
    got = outcome(read_signed_graph, target)
    if same_as.startswith("n "):
        assert core._SIGNED_FILE.fullmatch(same_as)
        twin = tmp_path / "twin.txt"
        twin.write_text(same_as)
        assert got == outcome(read_signed_graph, twin)
    else:
        assert got == same_as or got.endswith(same_as)


def test_canonical_header_checks_are_the_loops(tmp_path):
    # 18 digits take one tokenisation, 19 the loop: the same check answers
    for digits in (18, 19):
        target = tmp_path / f"header{digits}.txt"
        target.write_text(f"n {'9' * digits}\n")
        with pytest.raises(ValueError, match=f"^{target}:1: vertex count 9{{{digits}}} is too large$"):
            read_signed_graph(target)


@pytest.mark.parametrize("n", [127, 128, 129, 257, 300])
def test_symmetry_checks_reach_every_tile(n):
    # one asymmetric entry in the far corner tile, either side, or in the
    # last diagonal tile
    for u, v in [(0, n - 1), (n - 1, 0), (n - 2, n - 1)]:
        bad = np.zeros((n, n), dtype=np.int64)
        bad[u, v] = 1
        with pytest.raises(ValueError, match="pos matrix must be symmetric"):
            SignedGraph(n, bad, 0 * bad, MULTIGRAPH)
        with pytest.raises(ValueError, match="neg matrix must be symmetric"):
            SignedGraph(n, 0 * bad, bad, MULTIGRAPH)
        # the tolerance is 1e-12 of max |w| on w - w.T
        w = np.ones((n, n))
        w[u, v] += 1.01e-12
        with pytest.raises(ValueError, match="weights must be symmetric"):
            WeightedGraph(n, w)
        w[u, v] = 1.0 + 0.99e-12
        half = w / 2.0
        assert np.array_equal(WeightedGraph(n, w).weights, half + half.T)


def reference_columns(g):
    """The 2-D ``nonzero(triu(...))`` enumeration that the flat mask scan replaces."""
    if isinstance(g, SignedGraph):
        uu, vv = np.nonzero(np.triu(g.support))
        counts = np.stack((g.pos[uu, vv], g.neg[uu, vv]), axis=1).ravel()
        return (np.repeat(np.repeat(uu, 2), counts), np.repeat(np.repeat(vv, 2), counts),
                np.repeat(np.tile([1, -1], len(uu)), counts))
    w = g.adjacency
    uu, vv = np.nonzero(np.triu(w))
    return uu, vv, w[uu, vv]


def dense_search_tree(net):
    """Breadth-first search tree from vertex 0 over the non-zero entries of
    ``net``, row by row: d[v] is the product of the entries of ``net`` along
    the tree path 0 -> v (0 where v is unreached), alt[v] is (-1)^depth."""
    n = net.shape[0]
    d = np.zeros(n, dtype=np.int64)
    alt = np.zeros(n, dtype=np.int64)
    d[0] = alt[0] = 1
    level = np.array([0])
    while level.size:
        rows, v = np.nonzero(net[level])
        rows, v = rows[d[v] == 0], v[d[v] == 0]
        v, first = np.unique(v, return_index=True)  # one parent per new vertex
        parent = level[rows[first]]
        d[v] = d[parent] * net[parent, v]
        alt[v] = -alt[level[0]]
        level = v
    return d, alt


def reference_balance(g):
    """:func:`balance_verdict` through the n x n search and the 2-D
    ``nonzero(triu(net))`` it used."""
    net = g.adjacency
    d, alt = dense_search_tree(net)
    uu, vv = np.nonzero(np.triu(net))
    product = d[uu] * net[uu, vv] * d[vv]
    antibalanced = bool(np.all(product * alt[uu] * alt[vv] == -1))
    if np.all(product == 1):
        return "balanced", d.tolist(), antibalanced
    if antibalanced:
        return "antibalanced", (d * alt).tolist(), False
    return "neither", None, False


@pytest.mark.parametrize("n", [127, 128, 129, 300])
def test_edge_enumerations_match_the_2d_triu_scan(n):
    rng = np.random.default_rng(n)
    u = rng.integers(0, n, size=4 * n)
    v = (u + rng.integers(1, n, size=4 * n)) % n  # no loops
    edges = np.stack([u, v, rng.choice([1, -1], size=4 * n)], axis=1)
    # parallel edges of one sign and of both signs
    edges = np.concatenate([edges, edges[:n], edges[n:2 * n] * [1, 1, -1]])
    multigraph = build_signed_graph(n, edges, MULTIGRAPH)
    assert multigraph.pos.max() > 1 and (multigraph.pos & multigraph.neg).any()
    w = np.triu(np.where(rng.random((n, n)) < 0.05, rng.normal(size=(n, n)), 0.0))
    weighted = WeightedGraph(n, w + np.triu(w, k=1).T)  # diagonal entries included
    for g in (multigraph, weighted):
        got, want = core._edge_columns(g), reference_columns(g)
        assert all(a.tolist() == b.tolist() for a, b in zip(got, want))
        assert list(graph_edges(g)) == list(reference_edges(g))
    # balance: a ring with chords, all-positive, all-negative and randomly
    # signed, and the ring alone (both balanced and antibalanced at even n),
    # each as built and switched
    chords = {(min(a, b), max(a, b)) for a, b in rng.integers(0, n, size=(n, 2)) if abs(a - b) > 1}
    pairs = [(i, (i + 1) % n) for i in range(n)] + sorted(chords - {(0, n - 1)})
    signs = rng.choice([1, -1], size=len(pairs)).tolist()
    d = rng.choice([1, -1], size=n)
    for g in (build_signed_graph(n, [(a, b, 1) for a, b in pairs]),
              build_signed_graph(n, [(a, b, -1) for a, b in pairs]),
              build_signed_graph(n, [(a, b, s) for (a, b), s in zip(pairs, signs)]),
              build_signed_graph(n, [(a, b, 1) for a, b in pairs[:n]])):
        for h in (g, switch(g, d)):
            verdict = balance_verdict(h)
            witness = None if verdict.witness is None else verdict.witness.tolist()
            assert (verdict.status, witness, verdict.also_antibalanced) == reference_balance(h)


@st.composite
def edge_view_graphs(draw):
    """Signed simple graphs and multigraphs on 1-40 vertices, connected (a
    drawn spanning tree under the other edges) or not, with random signs or a
    switching of one sign, and weighted graphs with negative and diagonal
    weights."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from((SIMPLE, MULTIGRAPH, "weighted")))
    vertex = st.integers(0, n - 1)
    tree = draw(st.sampled_from((True, True, False)))
    pairs = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)] if tree else []
    pairs += draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    if kind == "weighted":
        w = np.zeros((n, n))
        for (u, v), x in zip(pairs, draw(st.lists(_WEIGHTS, min_size=len(pairs),
                                                  max_size=len(pairs)))):
            w[u, v] = w[v, u] = x
        return WeightedGraph(n, w)
    pairs = [(u, v) for u, v in pairs if u != v]
    if kind == SIMPLE:
        pairs = list({(min(u, v), max(u, v)): None for u, v in pairs})
    signs = draw(st.sampled_from(("random", 1, -1)))
    g = build_signed_graph(n, [(u, v, draw(st.sampled_from((1, -1))) if signs == "random"
                                else signs) for u, v in pairs], kind)
    return switch(g, draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(edge_view_graphs())
def test_edge_view_readers_match_their_dense_references(g):
    rows, cols, values = core._edge_view(g)
    signed = isinstance(g, SignedGraph)
    support = g.support if signed else g.weights != 0
    want = np.nonzero(support)
    assert rows.tolist() == want[0].tolist() and cols.tolist() == want[1].tolist()
    layers = (g.pos, g.neg) if signed else (g.weights,)
    assert values.reshape(len(layers), -1).tolist() == [layer[want].tolist() for layer in layers]
    components = scipy.sparse.csgraph.connected_components(support, directed=False)[0]
    assert is_connected(g) == (components == 1)
    if not signed:
        return
    if g.mode == MULTIGRAPH:
        with pytest.raises(ValueError, match="requires simple mode"):
            balance_verdict(g)
    elif components > 1:
        with pytest.raises(ValueError, match="requires a connected graph"):
            balance_verdict(g)
    else:
        verdict = balance_verdict(g)
        witness = None if verdict.witness is None else verdict.witness.tolist()
        assert (verdict.status, witness, verdict.also_antibalanced) == reference_balance(g)


def test_reader_scans_a_file_for_repeated_pairs_once(tmp_path):
    # the scan that picks the mode also settles simple mode's duplicate check
    calls = []
    scan = core._first_repeat

    def counted(*args):
        calls.append(1)
        return scan(*args)

    files = {SIMPLE: "n 4\n0 1 +1\n1 2 -1\n2 3 +1\n",  # the writer's form
             MULTIGRAPH: "n 4\n0 1 +1\n1 0 -1\n2 3 1\n"}
    for mode, text in files.items():
        for given_text in (text, "# a comment\n" + text):  # and the per-line parser
            target = tmp_path / "graph.txt"
            target.write_text(given_text)
            with mock.patch.object(core, "_first_repeat", counted):
                g = read_signed_graph(target)
            assert g.mode == mode and len(calls) == 1
            calls.clear()
            assert_handed_over_intact(g)


@st.composite
def built_edge_arrays(draw):
    """Edge arrays that pass every check, on 1-30 vertices: simple graphs,
    multigraphs with parallel edges and a pair carrying both signs, vertices
    left isolated, and no edges."""
    n = draw(st.integers(1, 30))
    mode = draw(st.sampled_from([SIMPLE, MULTIGRAPH]))
    used = draw(st.integers(1, n))  # the vertices from ``used`` on are isolated
    pairs = [(u, v) for u in range(used) for v in range(used) if u != v]
    picks = draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique_by=(
        lambda pair: frozenset(pair)) if mode == SIMPLE else None)) if pairs else []
    edges = [(u, v, draw(st.sampled_from([1, -1]))) for u, v in picks]
    if mode == MULTIGRAPH and edges and draw(st.booleans()):
        u, v, s = edges[0]
        edges.append((v, u, -s))
    return n, np.array(edges, dtype=np.int64).reshape(-1, 3), mode


def assert_same_view(got, want):
    for a, b in zip(got, want, strict=True):
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and np.array_equal(a, b)
        assert not a.flags.writeable and a.flags.c_contiguous == b.flags.c_contiguous


@settings(max_examples=100, deadline=None, derandomize=True)
@given(built_edge_arrays())
def test_edge_view_from_built_edges_is_the_scan(tmp_path_factory, case):
    n, edges, mode = case
    g = build_signed_graph(n, edges, mode)
    assert "_edges" in vars(g)  # the value holds its checked edges
    view = core._edge_view(g)
    assert "_edges" not in vars(g)  # the edges go once the view is made
    scanned = SignedGraph(n, g.pos, g.neg, mode)  # a value from layers: the scan
    assert "_edges" not in vars(scanned)
    assert_same_view(view, core._edge_view(scanned))
    # a file in the writer's form, read as simple or multigraph by its repeats
    target = tmp_path_factory.getbasetemp() / "built.txt"
    target.write_text(f"n {n}\n" + "".join(f"{u} {v} {s:+d}\n" for u, v, s in edges.tolist()))
    read = read_signed_graph(target)
    assert "_edges" in vars(read)
    assert_same_view(core._edge_view(read), core._edge_view(scanned))


def assert_made_from_edges(g, pos, neg, mode):
    """g holds no layers until asked, and then the ones the dense route
    makes: ``pos`` and ``neg`` with ``mode``, bit for bit."""
    assert not vars(g).keys() & {"pos", "neg"}
    assert_handed_over_intact(g)
    assert np.array_equal(g.pos, pos) and np.array_equal(g.neg, neg) and g.mode == mode


def dense_cover(g):
    """The double cover by its definition, pos (x) I + neg (x) X."""
    layer = np.kron(g.pos, np.eye(2, dtype=np.int64)) + np.kron(g.neg, 1 - np.eye(2, dtype=np.int64))
    return layer, 0 * layer, SIMPLE if max(g.pos.max(), g.neg.max()) <= 1 else MULTIGRAPH


@settings(max_examples=100, deadline=None, derandomize=True)
@given(built_edge_arrays(), st.integers(1, 3), st.integers(0, 2 ** 31))
def test_values_made_from_edges_make_the_dense_routes_layers(tmp_path_factory, case, k, seed):
    n, edges, mode = case
    want = reference_build(n, edges.tolist(), mode)
    assert_made_from_edges(build_signed_graph(n, edges, mode), want.pos, want.neg, mode)
    # files in the writer's form and in the per-line form, the mode by their repeats
    pairs = {(min(u, v), max(u, v)) for u, v, _ in edges.tolist()}
    want = reference_build(n, edges.tolist(), SIMPLE if len(pairs) == len(edges) else MULTIGRAPH)
    target = tmp_path_factory.getbasetemp() / "made.txt"
    text = f"n {n}\n" + "".join(f"{u} {v} {s:+d}\n" for u, v, s in edges.tolist())
    for given_text in (text, "# per-line\n" + text):
        target.write_text(given_text)
        assert_made_from_edges(read_signed_graph(target), want.pos, want.neg, want.mode)
    # covers of a value made from edges and of its dense twin
    for g in (build_signed_graph(n, edges, mode), SignedGraph(n, want.pos, want.neg, want.mode)):
        assert_made_from_edges(double_cover(g), *dense_cover(g))
    # powers of the underlying unsigned simple graph, against the dense hop matrices
    unsigned = build_signed_graph(n, [(u, v, 1) for u, v in sorted(pairs)])
    if k <= n and math.comb(n, k) <= MAX_POWER_STATES:
        net = _hop_nets(unsigned.pos, k, False)
        assert_made_from_edges(exterior_power(unsigned, k), np.maximum(net, 0), np.maximum(-net, 0),
                               SIMPLE)
        assert_made_from_edges(symmetric_power(unsigned, k), np.abs(net), 0 * net, SIMPLE)
    # random regular graphs: the layers of the edges they draw
    if n >= 4:
        drawn = []

        def recorded(count, edge_array):
            drawn.append(edge_array)
            return build_signed_graph(count, edge_array)

        with mock.patch.object(construct, "build_signed_graph", recorded):
            g = random_regular(n + n % 2, 3, seed)
        want = reference_build(n + n % 2, drawn[0].tolist(), SIMPLE)
        assert_made_from_edges(g, want.pos, want.neg, SIMPLE)


def test_edge_view_readers_make_no_layers(tmp_path):
    # Q11 read from a file: the view, the refinement, the quotient,
    # connectivity, balance and the writer run on its edges, and together
    # trace less than one n x n matrix of bytes
    write_edge_list(hypercube(11), tmp_path / "q11.txt")
    q11 = read_signed_graph(tmp_path / "q11.txt")
    tracemalloc.start()
    try:
        core._edge_view(q11)
        seeded = coarsest_equitable(q11, partition_from_cell_of(np.arange(2048) != 0))
        assert seeded.m == 12 and quotient(q11, seeded).n == 12
        assert is_connected(q11) and balance_verdict(q11).status == "balanced"
        assert format_edge_list(q11).count("\n") == 1 + 11 * 1024
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2048 * 2048
    # and no value made from edges makes its layers for any of them
    rng = np.random.default_rng(11)
    lines = format_edge_list(random_regular(512, 3, seed=11)).splitlines()
    lines[1:] = [line[:-2] + rng.choice(["+1", "-1"]) for line in lines[1:]]
    (tmp_path / "signed.txt").write_text("\n".join(lines) + "\n")
    signed = read_signed_graph(tmp_path / "signed.txt")
    for g in (q11, signed, double_cover(signed), double_cover(q11),
              exterior_power(cycle(40), 2), symmetric_power(cycle(40), 2)):
        coarsest_equitable(g)
        quotient(g, coarsest_equitable(g, partition_from_cell_of(np.arange(g.n) != 0)))
        if is_connected(g):
            balance_verdict(g)
        format_edge_list(g)
        assert not vars(g).keys() & {"pos", "neg"}


def test_edge_count_reads_the_edge_view(tmp_path):
    # a file's graph is counted on its edges, without its n x n layers
    write_edge_list(hypercube(11), tmp_path / "q11.txt")
    q11 = read_signed_graph(tmp_path / "q11.txt")
    tracemalloc.start()
    try:
        assert q11.edge_count() == 11 * 1024
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2048 * 2048 and not vars(q11).keys() & {"pos", "neg"}
    # and exactly: an int64 sum of these multiplicities wraps to 1
    pos = np.zeros((4, 4), dtype=np.int64)
    pos[0, 1] = pos[1, 0] = pos[0, 2] = pos[2, 0] = 2 ** 62
    pos[1, 3] = pos[3, 1] = 1
    big = SignedGraph(4, pos, 0 * pos, MULTIGRAPH)
    assert big.edge_count() == 2 ** 63 + 1
    assert SignedGraph(4, 0 * pos, pos, MULTIGRAPH).edge_count() == 2 ** 63 + 1


_TOKENS = st.one_of(st.integers(0, 99), st.integers(10 ** 17, 10 ** 18 - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 5000),
       st.lists(st.tuples(_TOKENS, _TOKENS, st.sampled_from(("+1", "1", "-1"))), max_size=20))
def test_writer_form_parses_as_split_and_convert(tmp_path_factory, n, lines):
    text = f"n {n}\n" + "".join(f"{u} {v} {s}\n" for u, v, s in lines)
    assert core._SIGNED_FILE.fullmatch(text)
    target = tmp_path_factory.getbasetemp() / "writer-form.txt"
    target.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, count, triples = core._edge_lines(target)
    want = np.array(text.split()[2:], dtype=np.int64).reshape(-1, 3)
    assert count == n and (triples.dtype, triples.shape) == (want.dtype, want.shape)
    assert np.array_equal(triples, want)


def test_comments_and_blank_lines_are_ignored(tmp_path):
    target = tmp_path / "commented.txt"
    target.write_text("# header comment\nn 3\n\n0 1 +1  # inline\n1 2 -1\n")
    g = read_signed_graph(target)
    assert g.pos[0, 1] == 1 and g.neg[1, 2] == 1


def test_complete_graph_adjacency():
    k4 = complete(4)
    assert np.array_equal(k4.adjacency,
                          np.ones((4, 4), dtype=int) - np.eye(4, dtype=int))
