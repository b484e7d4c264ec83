"""Graph families, products, signed joins and double covers."""

import importlib
import itertools

import numpy as np
import pytest

from sgwalk import (
    MULTIGRAPH,
    SIMPLE,
    CubelikeSpec,
    antipodal_pairs,
    build_signed_graph,
    cartesian_product,
    circulant,
    cocktail_party,
    complement,
    complete,
    complete_bipartite,
    cover_index,
    cover_vertex,
    cubelike,
    cycle,
    double_cover,
    hypercube,
    is_connected,
    path,
    permutation_graph,
    petersen,
    random_regular,
    regular_stats,
    signed_join,
    signed_union,
)


def degrees(g):
    return (g.pos + g.neg).sum(axis=1)


def test_cocktail_party_of_two_parts_is_a_square():
    cp = cocktail_party(2)
    # complement of a perfect matching on 4 vertices: the 4-cycle 0-1-2-3
    # with antipodes 0/2 and 1/3
    expected = build_signed_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    assert np.array_equal(cp.adjacency, expected.adjacency)


def test_cocktail_party_is_matching_complement():
    for parts in (2, 3, 4):
        cp = cocktail_party(parts)
        matching = permutation_graph(2 * parts, antipodal_pairs(2 * parts))
        assert np.array_equal(complement(cp).adjacency, matching.adjacency)


def test_cube_is_a_power_of_edges():
    k2 = complete(2)
    cube = cartesian_product([k2, k2, k2])
    assert np.array_equal(cube.adjacency, hypercube(3).adjacency)
    assert np.array_equal(hypercube(3).adjacency,
                          cubelike(CubelikeSpec(3, (1, 2, 4))).adjacency)


def test_cycle_four_is_a_product_of_edges():
    k2 = complete(2)
    square = cartesian_product([k2, k2])
    # product vertex order is 00, 01, 10, 11: a cycle through corners
    ring = np.zeros((4, 4), dtype=int)
    for u, v in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        ring[u, v] = ring[v, u] = 1
    assert np.array_equal(square.adjacency, ring)


def test_complement_identities():
    k5 = complete(5)
    assert complement(k5).edge_count() == 0
    assert np.array_equal(complement(complement(cycle(5))).adjacency,
                          cycle(5).adjacency)
    with pytest.raises(ValueError):
        complement(build_signed_graph(3, [(0, 1, -1)]))


def test_circulant_families():
    assert np.array_equal(circulant(4, (1, 2)).adjacency, complete(4).adjacency)
    assert np.array_equal(circulant(5, (1,)).adjacency, cycle(5).adjacency)
    c24 = circulant(24, (1, 2, 3, 12))
    assert regular_stats(c24).k == 7  # +/-1, +/-2, +/-3 and the antipode
    with pytest.raises(ValueError):
        circulant(6, (4,))


def loop_families():
    """Cocktail party, circulant and cubelike graphs built entry by entry."""
    for parts in range(2, 7):
        n = 2 * parts
        net = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
        for x in range(parts):
            net[x, x + parts] = net[x + parts, x] = 0
        yield cocktail_party(parts), net
    for n in range(2, 11):
        for conns in [(), (1,), (n // 2,), tuple(range(1, n // 2 + 1)), (1, n // 2)]:
            net = np.zeros((n, n), dtype=np.int64)
            for c in conns:
                for u in range(n):
                    net[u, (u + c) % n] = net[(u + c) % n, u] = 1
            yield circulant(n, conns), net
    for d in range(1, 6):
        for elems in [(1,), ((1 << d) - 1,), tuple(1 << i for i in range(d)), (1, 3)[:d]]:
            spec = CubelikeSpec(d, elems)
            net = np.zeros((1 << d, 1 << d), dtype=np.int64)
            for u in range(1 << d):
                for c in spec.elements:
                    net[u, u ^ c] = 1
            yield cubelike(spec), net


def test_array_built_families_match_their_loops():
    for g, net in loop_families():
        assert np.array_equal(g.adjacency, net) and not g.neg.any()


def test_complete_bipartite_spectrum():
    k33 = complete_bipartite(3, 3)
    w = np.sort(np.linalg.eigvalsh(k33.adjacency.astype(float)))
    assert abs(w[0] + 3) < 1e-12 and abs(w[-1] - 3) < 1e-12
    assert np.abs(w[1:-1]).max() < 1e-12


def test_petersen_spectrum():
    g = petersen()
    assert g.n == 10
    assert regular_stats(g).k == 3
    w = np.sort(np.linalg.eigvalsh(g.adjacency.astype(float)))
    expected = np.sort(np.array([3.0] + [1.0] * 5 + [-2.0] * 4))
    assert np.abs(w - expected).max() < 1e-10


def test_cubelike_spec_delta_and_validation():
    assert CubelikeSpec(3, (1, 2, 4)).delta == 7
    assert CubelikeSpec(3, (1, 2, 4, 7)).delta == 0
    with pytest.raises(ValueError):
        CubelikeSpec(3, (1, 1, 2))
    with pytest.raises(ValueError):
        CubelikeSpec(3, (8,))
    with pytest.raises(ValueError):
        CubelikeSpec(3, ())


def test_signed_join_blocks():
    j = signed_join(complete(2), complete(4), -1, 1)
    assert j.n == 6
    assert j.adjacency[0, 1] == -1
    assert (j.adjacency[:2, 2:] == 1).all()
    assert np.array_equal(j.adjacency[2:, 2:], complete(4).adjacency)
    with pytest.raises(ValueError):
        signed_join(build_signed_graph(2, [(0, 1, -1)]), complete(3), -1, 1)


def test_antipodal_pairs_and_matching():
    assert antipodal_pairs(8) == [(0, 4), (1, 5), (2, 6), (3, 7)]
    matching = permutation_graph(8, antipodal_pairs(8))
    assert matching.edge_count() == 4
    assert (degrees(matching) == 1).all()
    with pytest.raises(ValueError):
        antipodal_pairs(7)


def test_double_cover_of_negative_edge_is_a_matching():
    neg_edge = build_signed_graph(2, [(0, 1, -1)])
    cover = double_cover(neg_edge)
    assert cover.n == 4
    assert cover.edge_count() == 2
    assert (degrees(cover) == 1).all()
    # crossing edges: (0, layer 0) - (1, layer 1) and (0, 1) - (1, 0)
    assert cover.pos[cover_index(0, 0), cover_index(1, 1)] == 1
    assert cover.pos[cover_index(0, 1), cover_index(1, 0)] == 1


def test_double_cover_of_balanced_square_splits_in_two():
    balanced = build_signed_graph(
        4, [(0, 1, -1), (1, 2, -1), (2, 3, 1), (0, 3, 1)])
    cover = double_cover(balanced)
    assert cover.n == 8
    assert (degrees(cover) == 2).all()
    assert not is_connected(cover)  # two disjoint 4-cycles


def test_double_cover_of_unbalanced_square_is_an_eight_cycle():
    unbalanced = build_signed_graph(
        4, [(0, 1, -1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    cover = double_cover(unbalanced)
    assert cover.n == 8
    assert (degrees(cover) == 2).all()
    assert is_connected(cover)
    w = np.sort(np.linalg.eigvalsh(cover.adjacency.astype(float)))
    expected = np.sort(2 * np.cos(2 * np.pi * np.arange(8) / 8))
    assert np.abs(w - expected).max() < 1e-10


def test_double_cover_keeps_parallel_layers_apart():
    doubled = signed_union(cycle(4), cycle(4), -1, mode=MULTIGRAPH)
    cover = double_cover(doubled)
    assert cover.mode == SIMPLE  # pos x I and neg x X never collide
    assert (degrees(cover) == 4).all()


def test_cover_vertex_round_trip():
    for index in range(10):
        v = cover_vertex(index)
        assert cover_index(v.base, v.layer) == index


def test_random_regular_is_seeded_and_regular():
    g1 = random_regular(10, 3, seed=5)
    g2 = random_regular(10, 3, seed=5)
    assert np.array_equal(g1.adjacency, g2.adjacency)
    assert regular_stats(g1).k == 3
    assert g1.mode == SIMPLE
    other = random_regular(10, 3, seed=6)
    assert not np.array_equal(g1.adjacency, other.adjacency)
    with pytest.raises(ValueError):
        random_regular(5, 3, seed=0)


def test_regular_stats_rejects_irregular():
    with pytest.raises(ValueError):
        regular_stats(path(3))


def random_regular_reference(n, k, seed, trials=5000):
    """Stub matching with rejection, one shuffle and one set of pairs per
    trial: the trial-by-trial loop whose graphs random_regular keeps."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        stubs = np.repeat(np.arange(n), k)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        keys = {(min(int(u), int(v)), max(int(u), int(v))) for u, v in pairs}
        if len(keys) != len(pairs):
            continue
        return build_signed_graph(n, [(u, v, 1) for u, v in keys])
    raise RuntimeError(f"could not sample a simple {k}-regular graph on {n} vertices")


def sampled(sampler, n, k, seed):
    """The graph's adjacency bytes and mode, or the exhaustion message."""
    try:
        g = sampler(n, k, seed)
    except RuntimeError as exc:
        return str(exc)
    return g.adjacency.tobytes(), g.mode


def test_random_regular_matches_the_trial_by_trial_loop():
    # k = n - 1 asks for K_n, which stub matching hits with a chance below
    # 1e-5 from n = 7 on: those cells spend all 5,000 trials in both routes
    # and are compared under a smaller trial count in the next test
    for n in range(4, 41):
        for k in sorted({2, 3, 4, n - 1}):
            if n * k % 2 or k >= n or (k == n - 1 and n > 6):
                continue
            for seed in range(20):
                assert sampled(random_regular, n, k, seed) == \
                    sampled(random_regular_reference, n, k, seed), (n, k, seed)


def test_random_regular_exhaustion_is_unchanged(monkeypatch):
    construct = importlib.import_module("sgwalk.construct")
    with pytest.raises(RuntimeError, match="^could not sample a simple 6-regular graph "
                                           "on 7 vertices$"):
        random_regular(7, 6, seed=0)  # K7 is not found in 5,000 trials

    def reference_with(trials):
        return lambda *case: random_regular_reference(*case, trials=trials)

    # the trial count is honoured exactly, also inside a draw of 16 trials:
    # a graph first found at trial t is missed under a limit of t - 1
    for seed in range(20):
        first = next(t for t in itertools.count(1)
                     if not isinstance(sampled(reference_with(t), 10, 3, seed), str))
        for trials in (first - 1, first):
            monkeypatch.setattr(construct, "_REGULAR_TRIALS", trials)
            want = sampled(reference_with(trials), 10, 3, seed)
            assert sampled(random_regular, 10, 3, seed) == want, (seed, trials)
    # the K_n cells of the grid above, under 40 trials
    monkeypatch.setattr(construct, "_REGULAR_TRIALS", 40)
    for n in range(7, 41):
        for seed in range(20):
            assert sampled(random_regular, n, n - 1, seed) == \
                sampled(reference_with(40), n, n - 1, seed), (n, seed)
