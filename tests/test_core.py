"""Signed-graph container, balance, switching and edge-list I/O."""

import itertools

import numpy as np
import pytest

from sgwalk import (
    MULTIGRAPH,
    SIMPLE,
    SignedGraph,
    WeightedGraph,
    balance_verdict,
    build_signed_graph,
    format_edge_list,
    from_net_matrix,
    graph_edges,
    is_connected,
    negative_part,
    positive_part,
    read_signed_graph,
    read_weighted_graph,
    signed_union,
    switch,
    underlying,
    write_edge_list,
)
from sgwalk.construct import complete, cycle, path


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
    with pytest.raises(ValueError):
        WeightedGraph(2, np.array([[0.0, 1.0], [2.0, 0.0]]))


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


def test_balance_verdict_against_brute_force():
    # every signing of C4 and K4 versus the try-all-switchings oracle
    for signs in itertools.product((1, -1), repeat=4):
        g = square(signs)
        verdict = balance_verdict(g)
        balanced, antibalanced = brute_force_balance(g)
        if balanced:
            assert verdict.status == "balanced"
            assert verdict.also_antibalanced == antibalanced
        elif antibalanced:
            assert verdict.status == "antibalanced"
        else:
            assert verdict.status == "neither"

    pairs = list(itertools.combinations(range(4), 2))
    for signs in itertools.product((1, -1), repeat=6):
        g = build_signed_graph(4, [(u, v, s) for (u, v), s in zip(pairs, signs)])
        verdict = balance_verdict(g)
        balanced, antibalanced = brute_force_balance(g)
        expected = "balanced" if balanced else (
            "antibalanced" if antibalanced else "neither")
        assert verdict.status == expected


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


def test_comments_and_blank_lines_are_ignored(tmp_path):
    target = tmp_path / "commented.txt"
    target.write_text("# header comment\nn 3\n\n0 1 +1  # inline\n1 2 -1\n")
    g = read_signed_graph(target)
    assert g.pos[0, 1] == 1 and g.neg[1, 2] == 1


def test_complete_graph_adjacency():
    k4 = complete(4)
    assert np.array_equal(k4.adjacency,
                          np.ones((4, 4), dtype=int) - np.eye(4, dtype=int))
