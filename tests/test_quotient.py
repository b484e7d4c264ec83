"""Equitable partitions, quotient matrices and walk compression."""

import dataclasses
import importlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgwalk import (
    MULTIGRAPH,
    EquitableProfile,
    SignedGraph,
    amplitude,
    build_signed_graph,
    circulant,
    coarsest_equitable,
    complete,
    cycle,
    discrete_partition,
    hypercube,
    is_equitable,
    normalized_partition_matrix,
    partition_from_cell_of,
    partition_from_cells,
    propagator,
    quotient,
    quotient_transfer_check,
    read_partition,
    signed_join,
    single_cell_partition,
    write_partition,
)

quotient_module = importlib.import_module("sgwalk.quotient")


def edge_join():
    """Negative edge joined to a positive 4-clique, all cross edges positive."""
    return signed_join(complete(2), complete(4), -1, 1)


def test_partition_constructors_and_validation():
    p = partition_from_cells([[0], [1], [2, 3, 4, 5]])
    assert p.n == 6 and p.m == 3
    assert list(p.sizes()) == [1, 1, 4]
    q = partition_from_cell_of([0, 1, 2, 2, 2, 2])
    assert q.cells == p.cells
    with pytest.raises(ValueError):
        partition_from_cells([[0], [0, 1]])  # overlap
    with pytest.raises(ValueError):
        partition_from_cells([[0], [2]], n=3)  # vertex 1 missing
    with pytest.raises(ValueError):
        partition_from_cells([[0], []], n=1)  # empty cell


def test_partition_file_round_trip(tmp_path):
    p = partition_from_cells([[0], [1], [2, 3, 4, 5]])
    target = tmp_path / "cells.txt"
    write_partition(p, target)
    back = read_partition(target, n=6)
    assert back.cells == p.cells


def test_is_equitable_profiles():
    g = edge_join()
    ok, profile = is_equitable(g, partition_from_cells([[0], [1], [2, 3, 4, 5]]))
    assert ok
    assert np.array_equal(profile.d_plus,
                          np.array([[0, 0, 4], [0, 0, 4], [1, 1, 3]]))
    assert np.array_equal(profile.d_minus,
                          np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
    bad, profile = is_equitable(g, partition_from_cells([[0], [1, 2], [3, 4, 5]]))
    assert not bad and profile is None


def test_quotient_matrix_of_the_edge_join():
    g = edge_join()
    quot = quotient(g, partition_from_cells([[0], [1], [2, 3, 4, 5]]))
    expected = np.array([[0.0, -1.0, 2.0],
                         [-1.0, 0.0, 2.0],
                         [2.0, 2.0, 3.0]])
    assert np.abs(quot.matrix - expected).max() < 1e-12
    # eigenvalues of the quotient interlace into the full spectrum
    full = np.linalg.eigvalsh(g.adjacency.astype(float))
    small = np.linalg.eigvalsh(quot.matrix)
    for w in small:
        assert np.min(np.abs(full - w)) < 1e-9
    # the value keeps its own matrix: writing through a view's base leaves
    # it (and so its once-computed spectrum) unchanged
    base = np.array(expected)
    view_quot = dataclasses.replace(quot, weights=base[:, :])
    base[0, 0] = 99.0
    assert np.array_equal(view_quot.matrix, expected)
    assert not view_quot.matrix.flags.writeable


def test_quotient_identities():
    g = edge_join()
    p = partition_from_cells([[0], [1], [2, 3, 4, 5]])
    q = normalized_partition_matrix(p)
    assert np.abs(q.T @ q - np.eye(3)).max() < 1e-12
    a = g.adjacency.astype(float)
    # equitability makes the projector QQ^T commute with the adjacency
    proj = q @ q.T
    assert np.abs(a @ proj - proj @ a).max() < 1e-11
    bad = normalized_partition_matrix(
        partition_from_cells([[0], [1, 2], [3, 4, 5]]))
    bad_proj = bad @ bad.T
    assert np.abs(a @ bad_proj - bad_proj @ a).max() > 1e-3


def test_quotient_rejects_inequitable_partitions():
    with pytest.raises(ValueError):
        quotient(edge_join(), partition_from_cells([[0], [1, 2], [3, 4, 5]]))


def test_discrete_quotient_is_the_adjacency():
    g = edge_join()
    quot = quotient(g, discrete_partition(g.n))
    assert np.abs(quot.matrix - g.adjacency).max() < 1e-12


def test_quotient_transfer_agreement():
    g = edge_join()
    p = partition_from_cells([[0], [1], [2, 3, 4, 5]])
    worst = 0.0
    for t in np.linspace(0.0, 2 * math.pi, 100):
        check = quotient_transfer_check(g, p, 0, 1, float(t))
        assert check.agree
        worst = max(worst, abs(check.full.value - check.reduced.value))
    assert worst < 1e-10
    with pytest.raises(ValueError):
        quotient_transfer_check(g, partition_from_cells([[0, 1], [2, 3, 4, 5]]),
                                0, 1, 1.0)
    quot = quotient(g, p)
    t = math.pi / math.sqrt(12)
    assert abs(amplitude(g, 0, 1, t).value
               - amplitude(quot, 0, 1, t).value) < 1e-10


def test_quotient_transfer_check_refuses_vertices_out_of_range():
    g = edge_join()
    p = partition_from_cells([[0], [1], [2, 3, 4, 5]])
    # unchecked, a = n would index past cell_of and a = -1 would reach the last cell
    for a, b, label, v in ((6, 1, "a", 6), (-1, 1, "a", -1), (0, 6, "b", 6)):
        with pytest.raises(ValueError) as info:
            quotient_transfer_check(g, p, a, b, 1.0)
        assert str(info.value) == f"vertex {label}={v} out of range for 6 vertices"


def test_coarsest_equitable_cases():
    # one negative edge on a square: degree profile splits the endpoints
    unbalanced = build_signed_graph(
        4, [(0, 1, -1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    p = coarsest_equitable(unbalanced)
    assert p.cells == ((0, 1), (2, 3))

    # alternating signs: every vertex sees one + and one - neighbour
    alternating = build_signed_graph(
        4, [(0, 1, 1), (1, 2, -1), (2, 3, 1), (0, 3, -1)])
    assert coarsest_equitable(alternating).m == 1

    # unsigned square: single cell is already equitable
    assert coarsest_equitable(cycle(4)).m == 1

    # seeding with a finer start is respected
    seeded = coarsest_equitable(cycle(4),
                                partition_from_cells([[0], [1, 2, 3]]))
    assert seeded.cells == ((0,), (1, 3), (2,))

    g = edge_join()
    p = coarsest_equitable(g, single_cell_partition(g.n))
    assert p.cells == ((0, 1), (2, 3, 4, 5))
    ok, _ = is_equitable(g, p)
    assert ok


# Plain per-vertex statements of the definitions, for the properties below.


def neighbour_counts(g, v, cell):
    return sum(int(g.pos[v, w]) for w in cell), sum(int(g.neg[v, w]) for w in cell)


def equitable_by_definition(g, cells):
    """Every vertex of cell j sees the same (+, -) counts in each cell k."""
    profile = []
    for cell_j in cells:
        row = [neighbour_counts(g, cell_j[0], cell_k) for cell_k in cells]
        for v in cell_j:
            if [neighbour_counts(g, v, cell_k) for cell_k in cells] != row:
                return None
        profile.append(row)
    return profile


def colour_refinement(g, cells):
    """Split cells by the multiset of (neighbour cell, sign) seen from each
    vertex until nothing splits; cells are listed by smallest vertex."""
    while True:
        cell_of = {v: j for j, cell in enumerate(cells) for v in cell}
        groups = {}
        for v in range(g.n):
            seen = sorted((cell_of[w], sign)
                          for w in range(g.n)
                          for sign, layer in ((1, g.pos), (-1, g.neg))
                          for _ in range(int(layer[v, w])))
            groups.setdefault((cell_of[v], tuple(seen)), []).append(v)
        refined = sorted(groups.values())
        if len(refined) == len(cells):
            return [tuple(cell) for cell in refined]
        cells = refined


@st.composite
def seeded_multigraphs(draw):
    n = draw(st.integers(1, 12))
    layers = []
    for _ in range(2):
        multiplicity = st.sampled_from((0, 0, 1, 2))  # sparse: coarse partitions
        counts = draw(st.lists(multiplicity, min_size=n * n, max_size=n * n))
        half = np.triu(np.array(counts).reshape(n, n), k=1)
        layers.append(half + half.T)
    m = draw(st.integers(1, n))
    labels = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    return SignedGraph(n, *layers, MULTIGRAPH), partition_from_cell_of(labels)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seeded_multigraphs())
def test_equitable_partitions_match_their_definitions(case):
    g, seed = case
    coarsest = coarsest_equitable(g, seed)
    assert list(coarsest.cells) == colour_refinement(g, list(seed.cells))
    # equitable for one layer, so only the other layer can break it
    layer_only = [coarsest_equitable(SignedGraph(g.n, layer, 0 * layer, MULTIGRAPH), seed)
                  for layer in (g.pos, g.neg)]
    for p in (seed, coarsest, *layer_only, single_cell_partition(g.n),
              discrete_partition(g.n)):
        ok, profile = is_equitable(g, p)
        want = equitable_by_definition(g, p.cells)
        assert ok == (want is not None)
        if ok:
            got = np.stack([profile.d_plus, profile.d_minus], axis=-1)
            assert np.array_equal(got, np.array(want).reshape(got.shape))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seeded_multigraphs(), st.floats(0.0, 10.0))
def test_quotient_walk_is_the_compressed_full_walk(case, t):
    # A Q = Q B on an equitable partition, so Q^T U(t) Q = U_B(t) on every
    # pair of cells, singleton or not
    g, seed = case
    p = coarsest_equitable(g, seed)
    q = normalized_partition_matrix(p)
    reduced = propagator(quotient(g, p), t)
    assert np.abs(q.T @ propagator(g, t) @ q - reduced).max() < 1e-10


def first_appearance(labels):
    """Labels renumbered 0, 1, ... in the order they first appear."""
    order = {}
    return np.array([order.setdefault(c, len(order)) for c in labels], dtype=np.int64)


def unique_rows_refinement(g, seed):
    """Refinement by whole signature rows [cell | + counts | - counts], with
    np.unique(axis=0) on dense count matrices."""
    cell_of = seed.cell_of
    while True:
        m = int(cell_of.max()) + 1
        member = np.zeros((g.n, m), dtype=np.int64)
        member[np.arange(g.n), cell_of] = 1
        rows = np.column_stack([cell_of, g.pos @ member, g.neg @ member])
        _, inverse = np.unique(rows, axis=0, return_inverse=True)
        refined = first_appearance(inverse.reshape(-1).tolist())
        if refined.max() + 1 == m:
            return refined
        cell_of = refined


def test_coarsest_equitable_matches_unique_rows_refinement():
    rng = np.random.default_rng(2024)
    cases = []
    for n in (5, 60, 130, 300):
        layers = []
        for _ in range(2):
            half = np.triu(rng.choice(3, size=(n, n), p=[0.97, 0.02, 0.01]), k=1)
            layers.append(half + half.T)
        for cells in (1, 2, 5):
            labels = rng.integers(0, cells, size=n)
            # each layer alone too: then only its own columns can split a cell
            for pos, neg in ((layers[0], layers[1]), (0 * layers[0], layers[1]),
                             (layers[0], 0 * layers[1])):
                cases.append((SignedGraph(n, pos, neg, MULTIGRAPH), labels))
    # many rounds: distance layers from one vertex, in shuffled labels
    perm = rng.permutation(512)
    cube = hypercube(9).adjacency[np.ix_(perm, perm)]
    cases.append((SignedGraph(512, cube, 0 * cube), np.arange(512) != 7))
    ring = circulant(300, [1, 7])
    cases.append((SignedGraph(300, ring.pos, ring.pos, MULTIGRAPH), np.arange(300) != 0))
    for g, labels in cases:
        seed = partition_from_cell_of(labels)
        want = unique_rows_refinement(g, seed)
        got = coarsest_equitable(g, seed)
        assert np.array_equal(got.cell_of, want)
        assert got.cells == tuple(tuple(np.flatnonzero(want == k).tolist())
                                  for k in range(got.m))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.integers(-3, 5), st.sampled_from([2 ** 64, -(2 ** 70)]))))
def test_partition_from_cell_of_numbers_cells_by_first_vertex(labels):
    want = first_appearance(labels)
    for given_labels in (labels, np.array(labels) if labels else []):
        p = partition_from_cell_of(given_labels)
        assert np.array_equal(p.cell_of, want) and p.n == len(labels)
        assert p.cells == tuple(tuple(np.flatnonzero(want == k).tolist())
                                for k in range(p.m))


def test_quotient_reuses_the_refinements_edge_scan():
    g = hypercube(4)
    p = coarsest_equitable(g, partition_from_cells([[0], list(range(1, 16))]))
    scan = quotient_module._edge_scan(g)
    assert all(not a.flags.writeable for layer in scan for a in layer)
    assert quotient_module._edge_scan(g) is scan
    assert quotient(g, p).n == 5 and quotient_module._edge_scan(g) is scan
    alive = weakref.ref(g)
    del g
    assert alive() is None  # the scan does not keep its graph alive


def test_quotient_checks_the_closed_form_without_a_dense_matrix(monkeypatch):
    g = hypercube(10)
    p = coarsest_equitable(g, partition_from_cells([[0], list(range(1, g.n))]))
    tracemalloc.start()
    try:
        quot = quotient(g, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.n * g.n  # an n x n int64 matrix is 8 n^2 bytes
    q = normalized_partition_matrix(p)
    assert np.abs(q.T @ g.adjacency @ q - quot.matrix).max() < 1e-12
    # a closed form that disagrees with Q^T A Q still fails the check
    profile = is_equitable(g, p)[1]
    wrong = EquitableProfile(profile.d_plus + 1, profile.d_minus.copy())
    monkeypatch.setattr(quotient_module, "is_equitable", lambda *_: (True, wrong))
    with pytest.raises(RuntimeError, match="^quotient entry rule mismatch beyond 1e-12$"):
        quotient(g, p)
