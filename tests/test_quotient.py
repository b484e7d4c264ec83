"""Equitable partitions, quotient matrices and walk compression."""

import ast
import dataclasses
import importlib
import math
import tracemalloc
import unittest.mock
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgwalk import (
    MULTIGRAPH,
    EquitableProfile,
    Partition,
    SignedGraph,
    amplitude,
    balance_verdict,
    build_signed_graph,
    circulant,
    coarsest_equitable,
    complete,
    cycle,
    discrete_partition,
    format_edge_list,
    from_net_matrix,
    graph_edges,
    hypercube,
    is_connected,
    is_equitable,
    normalized_partition_matrix,
    partition_from_cell_of,
    partition_from_cells,
    propagator,
    quotient,
    read_partition,
    read_signed_graph,
    signed_join,
    single_cell_partition,
    switch,
    write_partition,
)

core = importlib.import_module("sgwalk.core")
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
    with pytest.raises(ValueError, match="^a partition needs n >= 0 vertices, got n=-1$"):
        partition_from_cells([], n=-1)


def reference_cells(cells, n):
    """The cell_of of the sorted-list check that the bincount check replaces,
    on integer vertices, or its message."""
    normalized = [[int(v) for v in cell] for cell in cells]
    if any(len(cell) == 0 for cell in normalized):
        return "cells must be non-empty"
    flat = [v for cell in normalized for v in cell]
    if n is None:
        n = max(flat) + 1 if flat else 0
    if len(flat) != n or sorted(flat) != list(range(n)):
        return f"cells must partition 0..{n - 1} exactly"
    cell_of = [0] * n
    for j, cell in enumerate(normalized):
        for v in cell:
            cell_of[v] = j
    return cell_of


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.one_of(st.integers(-1, 7), st.sampled_from([2 ** 63, 2 ** 70])),
                         max_size=4), max_size=5),
       st.one_of(st.none(), st.integers(0, 8)))
def test_partition_from_cells_checks_each_vertex_once(cells, n):
    try:
        got = partition_from_cells(cells, n).cell_of.tolist()
    except ValueError as exc:
        got = str(exc)
    assert got == reference_cells(cells, n)
    # numpy integers are integers; floats and strings are not vertices
    assert partition_from_cells([np.array([1, 2]), [np.int64(0)]]).cells == ((1, 2), (0,))
    for bad in (1.5, 1.0, "1", None):
        with pytest.raises(ValueError, match="^cells must list integer vertices: "):
            partition_from_cells([[0], [bad]])


def test_partition_is_its_cell_numbers():
    # one representation: cells, m and sizes all come from cell_of, so a
    # partition whose cells and labels disagree cannot be made
    g = edge_join()
    p = Partition(np.array([0, 0, 1, 1, 1, 1]))
    assert p.cells == ((0, 1), (2, 3, 4, 5)) and p.m == 2 and p.sizes().tolist() == [2, 4]
    assert p.cell_of.dtype == np.int64 and not p.cell_of.flags.writeable
    ok, profile = is_equitable(g, p)
    assert ok and profile.d_plus.shape == (2, 2)
    q = normalized_partition_matrix(p)
    assert np.allclose(q.T @ q, np.eye(2))
    assert quotient(g, p).matrix.shape == (2, 2)
    with pytest.raises(TypeError):
        Partition(((0,), (1,), (2, 3, 4, 5)), np.array([0, 0, 1, 1, 1, 1]))
    # labels must be 1-D integers naming every cell 0..m-1
    for bad in ([0, 5, 0], [-1, 0], [1, 1], [[0, 1]], [0.0, 1.0], [True, False],
                np.array([2 ** 64 - 1], dtype=np.uint64)):
        with pytest.raises(ValueError, match="^cell_of must be a 1-D integer array"):
            Partition(np.array(bad))
    # a seed numbered 0, 5 is renumbered by partition_from_cell_of
    assert coarsest_equitable(complete(3), partition_from_cell_of([0, 5, 0])).cells == ((0, 2), (1,))


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


def test_quotient_refines_inequitable_partitions():
    # the seed {0}, {1, 2}, {3, 4, 5} is not equitable: 2 sees one edge into
    # {1, 2} and 1 two, so the quotient is over its coarsest equitable refinement
    g = edge_join()
    quot = quotient(g, partition_from_cells([[0], [1, 2], [3, 4, 5]]))
    assert quot.partition.cells == ((0,), (1,), (2,), (3, 4, 5))
    s3 = math.sqrt(3)
    assert np.abs(quot.matrix - np.array([[0, -1, 1, s3], [-1, 0, 1, s3], [1, 1, 0, s3],
                                          [s3, s3, s3, 2]])).max() < 1e-12
    assert quot.profile.d_plus.tolist() == [[0, 0, 1, 3], [0, 0, 1, 3], [1, 1, 0, 3],
                                            [1, 1, 1, 2]]
    # an equitable seed is kept as given, the same value in its own cell order
    seed = partition_from_cells([[2, 3, 4, 5], [1], [0]])
    quot = quotient(g, seed)
    assert quot.partition is seed
    assert quot.profile.d_plus.tolist() == [[3, 1, 1], [4, 0, 0], [4, 0, 0]]
    assert quot.profile.d_minus.tolist() == [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
    with pytest.raises(ValueError, match="^partition size does not match the graph$"):
        quotient(g, single_cell_partition(5))


def test_discrete_quotient_is_the_adjacency():
    g = edge_join()
    quot = quotient(g, discrete_partition(g.n))
    assert np.abs(quot.matrix - g.adjacency).max() < 1e-12


def test_quotient_transfer_agreement():
    # singleton cells a, b: the walk from a to b is the quotient walk between their cells
    g = edge_join()
    p = partition_from_cells([[0], [1], [2, 3, 4, 5]])
    quot = quotient(g, p)
    worst = 0.0
    for t in np.linspace(0.0, 2 * math.pi, 100):
        full = amplitude(g, 0, 1, float(t)).value
        worst = max(worst, abs(full - amplitude(quot, p.cell_of[0], p.cell_of[1], float(t)).value))
    assert worst < 1e-10
    t = math.pi / math.sqrt(12)
    assert abs(amplitude(g, 0, 1, t).value
               - amplitude(quot, 0, 1, t).value) < 1e-10


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


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seeded_multigraphs(), st.randoms(use_true_random=False))
def test_quotient_refines_its_seed_in_one_pass(case, rng):
    g, seed = case
    coarsest = coarsest_equitable(g, seed)
    quot = quotient(g, seed)
    assert quot.partition.cells == coarsest.cells
    assert quot.partition is seed or not is_equitable(g, seed)[0]
    two_calls = quotient(g, coarsest)
    assert two_calls.partition is coarsest
    assert np.array_equal(quot.matrix, two_calls.matrix)  # bit for bit
    profile = is_equitable(g, coarsest)[1]
    for got in (quot.profile, two_calls.profile):
        assert got.d_plus.dtype == got.d_minus.dtype == np.int64
        assert np.array_equal(got.d_plus, profile.d_plus)
        assert np.array_equal(got.d_minus, profile.d_minus)
    # an equitable seed comes back itself, in its own cell order: the cells
    # shuffled, so mostly not numbered by their first vertex
    cells = list(coarsest.cells)
    rng.shuffle(cells)
    shuffled = partition_from_cells(cells, g.n)
    quot = quotient(g, shuffled)
    assert quot.partition is shuffled
    order = [coarsest.cells.index(cell) for cell in cells]
    assert np.array_equal(quot.profile.d_plus, profile.d_plus[np.ix_(order, order)])
    assert np.array_equal(quot.profile.d_minus, profile.d_minus[np.ix_(order, order)])
    assert np.array_equal(quot.matrix, two_calls.matrix[np.ix_(order, order)])


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


@st.composite
def refinement_cases(draw):
    """A signed simple graph or multigraph on 1-40 vertices, connected (a drawn
    spanning tree under the other edges) or not, and a seed: none, a
    singleton or drawn labels."""
    n = draw(st.integers(1, 40))
    mode = draw(st.sampled_from(("simple", MULTIGRAPH)))
    vertex = st.integers(0, n - 1)
    pairs = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)] if draw(st.booleans()) else []
    pairs += [(u, v) for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n)) if u != v]
    if mode == "simple":
        pairs = list({(min(u, v), max(u, v)): None for u, v in pairs})
    g = build_signed_graph(n, [(u, v, draw(st.sampled_from((1, -1)))) for u, v in pairs], mode)
    seed = draw(st.sampled_from(("none", "singleton", "labels")))
    if seed == "singleton":
        a = draw(vertex)
        return g, partition_from_cells([[a], [v for v in range(n) if v != a]] if n > 1 else [[a]])
    if seed == "labels":
        return g, partition_from_cell_of(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    return g, None


def assert_cells_match_labels(p):
    assert p.cell_of.dtype == np.int64 and not p.cell_of.flags.writeable
    assert p.cells == tuple(tuple(np.flatnonzero(p.cell_of == j).tolist()) for j in range(p.m))
    assert p.sizes().tolist() == [len(cell) for cell in p.cells] and sum(p.sizes()) == p.n


@settings(max_examples=120, deadline=None, derandomize=True)
@given(refinement_cases())
def test_refinement_and_quotient_read_the_edge_view(case):
    g, seed = case
    p = coarsest_equitable(g, seed)
    start = [list(range(g.n))] if seed is None else list(seed.cells)
    assert list(p.cells) == colour_refinement(g, start)
    q = normalized_partition_matrix(p)
    assert np.abs(quotient(g, p).matrix - q.T @ g.adjacency @ q).max() < 1e-12
    # every partition the library builds keeps its cells and labels in step
    for built in (p, *([] if seed is None else [seed]), discrete_partition(g.n),
                  single_cell_partition(g.n), partition_from_cells(p.cells[::-1])):
        assert_cells_match_labels(built)


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


def assert_is_equitable_by_dense_rows(g, p):
    """is_equitable against the dense count rows [pos @ member | neg @ member]:
    equitable iff every row is its cell's first row, the profile those rows."""
    member = np.eye(p.m, dtype=np.int64)[p.cell_of]
    counts = np.hstack([g.pos @ member, g.neg @ member])
    first = counts[[cell[0] for cell in p.cells]]
    ok, profile = is_equitable(g, p)
    assert ok == np.array_equal(counts, first[p.cell_of])
    if ok:
        assert profile.d_plus.dtype == profile.d_minus.dtype == np.int64
        assert np.array_equal(np.hstack([profile.d_plus, profile.d_minus]), first)
    else:
        assert profile is None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seeded_multigraphs(), st.booleans())
def test_bincount_refinement_matches_unique_rows(case, from_edges):
    g, seed = case
    if from_edges:  # the same multigraph built from its edge lines: the view from edges
        lines = np.array(list(graph_edges(g)), dtype=np.int64).reshape(-1, 3)
        g = build_signed_graph(g.n, lines, MULTIGRAPH)
    coarsest = coarsest_equitable(g, seed)
    assert np.array_equal(coarsest.cell_of, unique_rows_refinement(g, seed))
    # is_equitable reads the refinement's count pass: its verdict and profile
    # are the dense rows', on drawn (mostly inequitable) partitions too
    for p in (seed, coarsest, single_cell_partition(g.n), discrete_partition(g.n)):
        assert_is_equitable_by_dense_rows(g, p)


@st.composite
def wide_field_multigraphs(draw):
    """Multigraphs on 2-10 vertices whose largest degree in a layer has
    exactly ``width`` bits, width 1, 31, 32, 62 or 63, and a drawn seed."""
    n = draw(st.integers(2, 10))
    width = draw(st.sampled_from([1, 31, 32, 62, 63]))
    layers = np.zeros((2, n, n), dtype=np.int64)
    for sign, layer in enumerate(layers):
        if width == 1:  # a matching, its first pair positive: every degree 1 at most
            order = draw(st.permutations(range(n)))
            for u, v in zip(order[::2], order[1::2]):
                layer[u, v] = layer[v, u] = 1 if sign == 0 and u == order[0] else draw(
                    st.integers(0, 1))
            continue
        for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=2 * n)):
            if u != v:
                layer[u, v] = layer[v, u] = draw(st.integers(1, 3))
        u, v = draw(st.permutations(range(n)))[:2]
        # one degree reaches 2^width - 1 or 2^(width - 1) + something: fields full or half full
        top = 2 ** width - 1 if draw(st.booleans()) else 2 ** (width - 1)
        big = top - max(layer[u].sum(), layer[v].sum()) + layer[u, v]
        layer[u, v] = layer[v, u] = big
    g = SignedGraph(n, layers[0], layers[1], MULTIGRAPH)
    assert max(int(d) for d in (g.pos.sum(axis=1).max(), g.neg.sum(axis=1).max())).bit_length() == width
    return g, partition_from_cell_of(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(wide_field_multigraphs())
def test_packed_refinement_is_exact_at_every_field_width(case):
    g, seed = case
    assert np.array_equal(coarsest_equitable(g, seed).cell_of, unique_rows_refinement(g, seed))
    assert np.array_equal(coarsest_equitable(g).cell_of,
                          unique_rows_refinement(g, single_cell_partition(g.n)))


@pytest.mark.parametrize("width", [2, 31, 32, 62, 63])
def test_a_full_field_does_not_carry_into_the_next(width):
    # vertex 0 sees 2^(width-1) positive edges into cell {2}, vertex 1 one
    # negative edge: fields of width - 1 bits would pack both to one word
    pos, neg = np.zeros((2, 3, 3), dtype=np.int64)
    pos[0, 2] = pos[2, 0] = 2 ** (width - 1)
    neg[1, 2] = neg[2, 1] = 1
    g = SignedGraph(3, pos, neg, MULTIGRAPH)
    assert coarsest_equitable(g, partition_from_cells([[0, 1], [2]])).cells == ((0,), (1,), (2,))


def test_refinement_counts_large_multiplicities_exactly():
    # a pair of multiplicity 2^40 is one entry with one weight, not 2^40 items
    big = 2 ** 40
    g = from_net_matrix([[0, big], [big, 0]])
    tracemalloc.start()
    ok, profile = is_equitable(g, single_cell_partition(2))
    single = coarsest_equitable(g)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert ok and profile.d_plus.tolist() == [[big]] and single.m == 1
    assert peak < 2 ** 20
    # the path 0 - 1 - 2 with multiplicities 2^53 + 1 and 2^53: in float64,
    # vertices 0 and 2 would count alike; the exact counts keep them apart
    big = 2 ** 53
    g = from_net_matrix([[0, big + 1, 0], [big + 1, 0, big], [0, big, 0]])
    assert coarsest_equitable(g).m == 3
    assert not is_equitable(g, partition_from_cells([[0, 2], [1]]))[0]
    for cells in ([[0, 1, 2]], [[0, 2], [1]], [[0], [1], [2]], [[1], [0, 2]]):
        assert_is_equitable_by_dense_rows(g, partition_from_cells(cells))
    ok, profile = is_equitable(g, discrete_partition(3))
    assert ok and profile.d_plus.tolist() == [[0, big + 1, 0], [big + 1, 0, big], [0, big, 0]]
    # equal multiplicities 2^53 + 1 on both sides: equitable, with exact counts
    g = from_net_matrix([[0, big + 1, 0], [big + 1, 0, big + 1], [0, big + 1, 0]])
    ok, profile = is_equitable(g, partition_from_cells([[0, 2], [1]]))
    assert ok and profile.d_plus.tolist() == [[0, big + 1], [2 * big + 2, 0]]
    assert not profile.d_minus.any()


def test_degrees_of_two_to_the_63_are_refused():
    # vertex 0 sees 2 * 2^62 = 2^63 edges, vertex 1 6 * 2^62: int64 wraps both,
    # and words packed at the wrapped width would call {0, 1}, {2, 3}, {4..7} equitable
    pos = np.zeros((8, 8), dtype=np.int64)
    pos[0, [2, 3]] = pos[1, 2:] = 2 ** 62
    pos = np.maximum(pos, pos.T)
    g = SignedGraph(8, pos, 0 * pos, MULTIGRAPH)
    p = partition_from_cells([[0, 1], [2, 3], [4, 5, 6, 7]])
    message = "^a vertex has 2\\^63 or more edges in one layer"
    for run in (lambda: coarsest_equitable(g), lambda: is_equitable(g, p), lambda: quotient(g, p)):
        with pytest.raises(ValueError, match=message):
            run()
    # in the negative layer: 2^63 alone, which wraps negative, and sums past 2^64,
    # of which the first wraps to 0
    for top, k in ((2 ** 62, 2), (2 ** 62, 4), (2 ** 63 - 1, 4)):
        layer = np.zeros((6, 6), dtype=np.int64)
        layer[0, 1:k + 1] = layer[1:k + 1, 0] = top
        with pytest.raises(ValueError, match=message):
            is_equitable(SignedGraph(6, 0 * layer, layer, MULTIGRAPH), discrete_partition(6))
    # 2^63 - 1 is a degree: it is counted exactly
    layer = np.zeros((3, 3), dtype=np.int64)
    layer[0, 1] = layer[1, 0] = 2 ** 62
    layer[0, 2] = layer[2, 0] = 2 ** 62 - 1
    g = SignedGraph(3, 0 * layer, layer, MULTIGRAPH)
    assert coarsest_equitable(g).cells == ((0,), (1,), (2,))
    ok, profile = is_equitable(g, discrete_partition(3))
    assert ok and profile.d_minus.tolist() == layer.tolist()


@pytest.mark.parametrize("d", [2 * 10 ** 9, 2 ** 40, 2 ** 53 + 1, 3 * 10 ** 9])
def test_quotients_of_large_multiplicities(d):
    # d^2 overflows int64 past about 3.04e9, and Q^T A Q is a float sum: the
    # closed form is taken in float and checked relative to the largest entry
    c4 = SignedGraph(4, d * cycle(4).pos, 0 * cycle(4).pos, MULTIGRAPH)
    assert np.allclose(quotient(c4, single_cell_partition(4)).matrix, [[2 * d]], rtol=1e-15, atol=0)
    p3 = from_net_matrix(d * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
    quot = quotient(p3, partition_from_cells([[0, 2], [1]]))
    assert np.allclose(quot.matrix, [[0, d * math.sqrt(2)], [d * math.sqrt(2), 0]],
                       rtol=1e-15, atol=0)
    assert quot.profile.d_plus.tolist() == [[0, d], [2 * d, 0]]


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
    # one scan of the layers per graph value: the writer, balance,
    # connectivity, the refinement and the quotient all read one edge view
    g = switch(hypercube(6), np.random.default_rng(6).choice([1, -1], size=64))
    reads = {"support": 0, "adjacency": 0}

    def counting(name):
        read = getattr(SignedGraph, name)

        def counted(self):
            reads[name] += 1
            return read.fget(self)
        return unittest.mock.patch.object(SignedGraph, name, property(counted))

    with counting("support"), counting("adjacency"):
        text = format_edge_list(g)
        verdict = balance_verdict(g)
        assert is_connected(g)
        p = coarsest_equitable(g, partition_from_cells([[0], list(range(1, 64))]))
        assert quotient(g, p).n == p.m
    assert reads == {"support": 1, "adjacency": 0}
    assert text.count("\n") == 1 + 192 and verdict.status == "balanced"
    view = core._edge_view(g)
    assert core._edge_view(g) is view and not any(a.flags.writeable for a in view)
    alive = weakref.ref(g)
    del g
    assert alive() is None  # the view does not keep its graph alive


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
    # a closed form that disagrees with Q^T A Q still fails the check: the
    # profile unpacked from the refinement's last words, one count off
    unpack = quotient_module._profile

    def off_by_one(*args):
        profile = unpack(*args)
        return EquitableProfile(profile.d_plus + 1, profile.d_minus.copy())

    monkeypatch.setattr(quotient_module, "_profile", off_by_one)
    for seed in (p, partition_from_cells([[0], list(range(1, g.n))])):
        with pytest.raises(RuntimeError, match="^quotient entry rule mismatch beyond 1e-12$"):
            quotient(g, seed)


def test_is_equitable_unpacks_the_profile_in_place(tmp_path):
    # the discrete partition of a Q9 file: 512 cells, a (512, 1024) int64
    # profile of 4 MiB, unpacked by one gather without further temporaries
    target = tmp_path / "q9.txt"
    target.write_text(format_edge_list(hypercube(9)))
    g = read_signed_graph(target)
    p = discrete_partition(g.n)
    is_equitable(g, p)  # the edge view, once per graph
    tracemalloc.start()
    try:
        ok, profile = is_equitable(g, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = profile.d_plus.nbytes + profile.d_minus.nbytes
    assert ok and size == 2 * 512 * 512 * 8
    assert np.array_equal(profile.d_plus, hypercube(9).pos) and not profile.d_minus.any()
    assert peak < 1.5 * size


def test_quotient_checks_the_closed_form_in_place(tmp_path, monkeypatch):
    # the same 4 MiB profile: the check's 2 MiB float arrays are made one at a
    # time, and an equitable partition is kept after one round, with no sort of its words
    target = tmp_path / "q9.txt"
    target.write_text(format_edge_list(hypercube(9)))
    g = read_signed_graph(target)
    p = discrete_partition(g.n)
    quotient(g, p)  # the edge view, once per graph
    monkeypatch.setattr(np, "lexsort", None)
    tracemalloc.start()
    try:
        quot = quotient(g, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert quot.partition is p and np.array_equal(quot.matrix, hypercube(9).adjacency)
    assert peak < 12 * 2 ** 20


def test_the_structure_layer_imports_no_walks():
    # spectral and the scenarios may call the quotient, never the reverse
    src = Path(quotient_module.__file__).parent
    for name in ("quotient", "core", "construct"):
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                named = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                assert not {x.split(".")[-1] for x in named} & {"spectral", "scenarios"}, name
