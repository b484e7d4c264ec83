"""Fermionic exterior powers, bosonic quotients and lifted transfers."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgwalk import (
    amplitude,
    antisymmetrizer,
    boson_formula_comparison,
    boson_quotient,
    boson_quotient_oracle,
    build_signed_graph,
    cartesian_power_matrix,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    eig_sym,
    exterior_power,
    exterior_power_oracle,
    fermion_pst_lift,
    from_net_matrix,
    hypercube,
    is_pst,
    k_subsets,
    multiset_rank,
    multiset_states,
    path,
    random_regular,
    subset_rank,
    subset_unrank,
    symmetric_power,
    symmetrizer,
)
from sgwalk.multiparticle import MAX_POWER_STATES, _conjugate_exterior, _hop_nets


def all_graphs(n):
    """Every simple unsigned graph on n labelled vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        net = np.zeros((n, n), dtype=np.int64)
        for bit, (u, v) in enumerate(pairs):
            if mask >> bit & 1:
                net[u, v] = net[v, u] = 1
        yield from_net_matrix(net)


def test_subset_indexing_round_trip():
    for n, k in [(5, 2), (6, 3), (7, 1), (4, 4)]:
        subsets = k_subsets(n, k)
        assert subsets == sorted(subsets)  # lex order
        for rank, subset in enumerate(subsets):
            assert subset_rank(subset, n) == rank
            assert subset_unrank(rank, n, k) == subset
    # the closed form stays exact beyond int64
    assert subset_rank(tuple(range(40, 80)), 80) == math.comb(80, 40) - 1
    for bad in [(3, 4), (-1, 0), (0, 5), (1, 0), (2, 2)]:
        with pytest.raises(ValueError):
            subset_rank(bad, 4)
    with pytest.raises(ValueError, match=r"outside 0\.\.3"):
        subset_rank((0, 5), 4)


def test_multiset_indexing():
    states = multiset_states(3, 2)
    assert states == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    for rank, state in enumerate(states):
        assert multiset_rank(state, 3) == rank
    for n, k in [(4, 3), (1, 5), (6, 1), (5, 4)]:
        for rank, state in enumerate(multiset_states(n, k)):
            assert multiset_rank(state, n) == rank
            assert multiset_rank(state[::-1], n) == rank  # order is ignored
    for bad in [(3, 4), (-1, 0), (0, 5), ()]:
        with pytest.raises(ValueError, match=r"is not a multiset over 0\.\.3"):
            multiset_rank(bad, 4)


def test_antisymmetrizer_and_symmetrizer_are_isometries():
    for n, k in [(4, 2), (5, 2), (5, 3)]:
        alt = antisymmetrizer(n, k)
        assert alt.shape == (n ** k, math.comb(n, k))
        assert np.abs(alt.T @ alt - np.eye(alt.shape[1])).max() < 1e-12
        sym = symmetrizer(n, k)
        assert sym.shape == (n ** k, math.comb(n + k - 1, k))
        assert np.abs(sym.T @ sym - np.eye(sym.shape[1])).max() < 1e-12


def permutation_walk_isometry(n, k, repeats):
    """antisymmetrizer / symmetrizer written as a walk over all k! permutations."""
    states = np.array((multiset_states if repeats else k_subsets)(n, k))
    places = n ** np.arange(k - 1, -1, -1)
    mat = np.zeros((n ** k, len(states)))
    for perm in itertools.permutations(range(k)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        mat[states[:, perm] @ places, np.arange(len(states))] = 1 if repeats else (-1) ** inversions
    if repeats:
        return mat / np.sqrt(mat.sum(axis=0))
    return mat / math.sqrt(math.factorial(k))


def test_oracle_isometries_match_the_permutation_walk_bit_for_bit():
    for n in range(1, 8):
        for k in range(1, 5):
            if n ** k > MAX_POWER_STATES:
                continue
            if k <= n:
                want = permutation_walk_isometry(n, k, False)
                assert antisymmetrizer(n, k).tobytes() == want.tobytes()
            want = permutation_walk_isometry(n, k, True)
            assert symmetrizer(n, k).tobytes() == want.tobytes()


def test_oracle_isometries_do_not_walk_k_factorial_permutations():
    # n^k caps the tuples, not k!: 12! = 479,001,600 permutations of one
    # vertex's single 12-multiset, 10! = 3,628,800 for 11 multisets on K2
    one = build_signed_graph(1, [])
    start = time.perf_counter()
    assert symmetrizer(1, 12).tolist() == [[1.0]]
    assert symmetrizer(2, 10).shape == (1024, 11)
    assert boson_quotient_oracle(one, 12).weights.tolist() == [[0.0]]
    with pytest.raises(ValueError, match="need 0 < k <= n"):
        antisymmetrizer(1, 12)  # no 12-subset of one vertex
    assert time.perf_counter() - start < 1.0


def kronecker_sum_reference(mats):
    """Sum over i of I (x) ... (x) mats[i] (x) ... (x) I, by np.kron."""
    total = 0
    for i in range(len(mats)):
        term = np.ones((1, 1), dtype=np.int64)
        for j, m in enumerate(mats):
            term = np.kron(term, m if i == j else np.eye(len(m), dtype=np.int64))
        total = total + term
    return total


def test_cartesian_power_matrix_is_a_kronecker_sum():
    g = path(3)
    a = g.adjacency
    eye = np.eye(3, dtype=np.int64)
    assert np.array_equal(cartesian_power_matrix(g, 2), np.kron(a, eye) + np.kron(eye, a))
    assert np.array_equal(cartesian_power_matrix(g, 3), kronecker_sum_reference([a] * 3))
    # unequal, signed factors, the first the most significant: K2 x C3 x P4
    factors = [build_signed_graph(2, [(0, 1, -1)]), cycle(3), path(4)]
    assert np.array_equal(cartesian_product(factors).adjacency,
                          kronecker_sum_reference([f.adjacency for f in factors]))


def test_exterior_power_sign_rule_matches_conjugation_exhaustively():
    # every graph on up to 4 vertices, every particle count
    for n in range(2, 5):
        for g in all_graphs(n):
            for k in range(1, n):
                built = exterior_power(g, k)
                oracle = exterior_power_oracle(g, k)
                assert np.array_equal(built.adjacency.astype(float),
                                      oracle.weights)


def test_oracles_conjugate_factor_by_factor_as_the_dense_kronecker_sum():
    # exterior entries are exact {-1, 0, +1}; a boson entry w is sqrt of an
    # integer (a_u (a_v + 1)), so sign(w) w^2 rounds to it in both routes
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        for k in range(1, 5):
            for _ in range(3):
                upper = np.triu(rng.integers(0, 2, size=(n, n)), k=1)
                g = from_net_matrix(upper + upper.T)
                box = cartesian_power_matrix(g, k).astype(float)
                if k <= n:
                    alt = antisymmetrizer(n, k)
                    dense = alt.T @ box @ alt
                    assert np.array_equal(exterior_power_oracle(g, k).weights, np.rint(dense))
                sym = symmetrizer(n, k)
                got, dense = boson_quotient_oracle(g, k).weights, sym.T @ box @ sym
                for w in (got, dense):
                    assert np.abs(w * w - np.rint(w * w)).max() < 1e-9
                assert np.array_equal(np.rint(np.sign(got) * got * got),
                                      np.rint(np.sign(dense) * dense * dense))


def test_oracles_check_the_tuple_cap_before_allocating():
    g = cycle(64)  # 64^4 tuples: a dense Kronecker sum would take 2 PiB
    tracemalloc.start()
    try:
        for call in (lambda: exterior_power_oracle(g, 4), lambda: boson_quotient_oracle(g, 4),
                     lambda: _conjugate_exterior(g, 4, np.zeros((0, 0)))):
            with pytest.raises(ValueError, match="desk-scale cap"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_exterior_power_sign_rule_on_random_larger_graphs():
    rng = np.random.default_rng(97)
    for _ in range(10):
        n = int(rng.choice([6, 7]))
        upper = np.triu(rng.integers(0, 2, size=(n, n)), k=1)
        g = from_net_matrix(upper + upper.T)
        built = exterior_power(g, 2)
        oracle = exterior_power_oracle(g, 2)
        assert np.array_equal(built.adjacency.astype(float), oracle.weights)


def test_exterior_square_of_the_square():
    # corner labelling: edges 01, 02, 13, 23 (antipodes 0-3 and 1-2)
    square = build_signed_graph(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
    ext = exterior_power(square, 2)
    assert ext.n == 6
    negatives = {(u, v) for u in range(6) for v in range(u + 1, 6)
                 if ext.neg[u, v]}
    pair_01 = subset_rank((0, 1), 4)
    pair_12 = subset_rank((1, 2), 4)
    pair_23 = subset_rank((2, 3), 4)
    assert negatives == {tuple(sorted((pair_01, pair_12))),
                         tuple(sorted((pair_12, pair_23)))}
    # two-particle transfer between the disjoint edges at pi/2
    verdict = is_pst(ext, pair_01, pair_23, math.pi / 2)
    assert verdict.kind == "pst"
    assert verdict.fidelity >= 1 - 1e-9


def test_exterior_power_spectra_negation_duality():
    # spec of the (n-k)-th power is the negation of the k-th power's,
    # not a plain equality: the triangle is the smallest counterexample
    k3 = complete(3)
    w1 = np.sort(eig_sym(exterior_power(k3, 1)).eigenvalues)
    w2 = np.sort(eig_sym(exterior_power(k3, 2)).eigenvalues)
    assert np.abs(np.sort(-w2) - w1).max() < 1e-10
    assert np.abs(w1 - w2).max() > 1.0

    rng = np.random.default_rng(131)
    for _ in range(5):
        upper = np.triu(rng.integers(0, 2, size=(5, 5)), k=1)
        g = from_net_matrix(upper + upper.T)
        for k in (1, 2):
            wk = np.sort(eig_sym(exterior_power(g, k)).eigenvalues)
            wc = np.sort(eig_sym(exterior_power(g, 5 - k)).eigenvalues)
            assert np.abs(np.sort(-wc) - wk).max() < 1e-10


@st.composite
def graph_stacks(draw):
    """A stack of simple graphs on one vertex count, and an order k."""
    n = draw(st.integers(2, 7))
    size = draw(st.integers(1, 5))
    bits = draw(st.lists(st.integers(0, 1), min_size=size * n * n,
                         max_size=size * n * n))
    upper = np.triu(np.array(bits).reshape(size, n, n), k=1)
    return upper + upper.transpose(0, 2, 1), draw(st.integers(1, n - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(graph_stacks())
def test_exterior_kernel_batch_members_do_not_interfere(case):
    stack, k = case
    n = stack.shape[1]
    for bosons, count, build in ((False, math.comb(n, k), exterior_power),
                                 (True, math.comb(n + k - 1, k), boson_quotient)):
        nets = _hop_nets(stack, k, bosons)
        assert nets.shape == (len(stack), count, count)
        for adj, net in zip(stack, nets):
            assert np.array_equal(net, build(from_net_matrix(adj), k).adjacency)


@st.composite
def boson_cases(draw):
    """A simple graph on 2-7 vertices and an order k <= 3 with n^k <= 1300."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, 3))
    bits = draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
    upper = np.triu(np.array(bits).reshape(n, n), k=1)
    return from_net_matrix(upper + upper.T), k


@settings(max_examples=60, deadline=None, derandomize=True)
@given(boson_cases())
def test_boson_quotient_matches_the_symmetrizer_oracle(case):
    g, k = case
    built = boson_quotient(g, k).weights
    assert np.abs(built - boson_quotient_oracle(g, k).weights).max() < 1e-12
    base = np.linalg.eigvalsh(g.adjacency.astype(float))
    sums = np.sort([sum(c) for c in itertools.combinations_with_replacement(base, k)])
    assert np.abs(np.linalg.eigvalsh(built) - sums).max() < 1e-9


@settings(max_examples=60, deadline=None, derandomize=True)
@given(graph_stacks())
def test_exterior_spectrum_is_the_k_sums_of_the_base_spectrum(case):
    stack, k = case
    for adj in stack:
        base = np.linalg.eigvalsh(adj.astype(float))
        sums = np.sort([sum(c) for c in itertools.combinations(base, k)])
        ext = exterior_power(from_net_matrix(adj), k)
        assert np.abs(np.linalg.eigvalsh(ext.adjacency.astype(float)) - sums).max() < 1e-9


def test_symmetric_power_of_the_ring_is_complete_bipartite():
    sym = symmetric_power(cycle(4), 2)
    assert not sym.neg.any()
    assert sorted((sym.pos.sum(axis=1)).tolist()) == [2, 2, 2, 2, 4, 4]
    # the two degree-4 states {0,2} and {1,3} form one side of a K_{2,4}
    big = [subset_rank((0, 2), 4), subset_rank((1, 3), 4)]
    small = [r for r in range(6) if r not in big]
    relabel = big + small
    expected = complete_bipartite(2, 4).adjacency
    permuted = sym.adjacency[np.ix_(relabel, relabel)]
    assert np.array_equal(permuted, expected)
    verdict = is_pst(sym, big[0], big[1], math.pi / math.sqrt(8))
    assert verdict.fidelity >= 1 - 1e-9


def test_boson_quotient_of_an_edge_is_a_sqrt2_ladder():
    ladder = boson_quotient(complete(2), 2)
    expected = math.sqrt(2) * np.array([[0.0, 1.0, 0.0],
                                        [1.0, 0.0, 1.0],
                                        [0.0, 1.0, 0.0]])
    assert np.abs(ladder.weights - expected).max() < 1e-12
    amp = amplitude(ladder, 0, 2, math.pi / 2)
    assert abs(amp.value - (-1.0)) < 1e-10


def test_boson_quotient_matches_orbit_quotient():
    from sgwalk import partition_from_cell_of, quotient

    for g in (complete(2), cycle(3), complete(4)):
        states = multiset_states(g.n, 2)
        box = cartesian_power_matrix(g, 2)
        pair_of = [multiset_rank(tuple(sorted((u, v))), g.n)
                   for u in range(g.n) for v in range(g.n)]
        p = partition_from_cell_of(pair_of)
        orbit = quotient(from_net_matrix(box), p)
        direct = boson_quotient(g, 2)
        # the orbit cells enumerate multisets in the same lex order
        assert [states[i] for i in range(len(states))] == states
        assert np.abs(orbit.matrix - direct.weights).max() < 1e-12


def test_boson_hop_weights_depart_from_the_occupancy_formula():
    mismatches = boson_formula_comparison(complete(2), 2)
    assert mismatches  # the sqrt((a_u - 1)(a_v + 1)) guess misses sqrt(2) hops
    guesses = {round(m[2], 6) for m in mismatches}
    actuals = {round(m[3], 6) for m in mismatches}
    assert round(math.sqrt(2), 6) in actuals
    assert guesses != actuals


def test_fermion_lift_on_the_ring():
    square = cycle(4)
    verdict = fermion_pst_lift(square, [(0, 2), (1, 3)], math.pi / 2)
    assert verdict.kind == "pst"
    assert verdict.fidelity >= 1 - 1e-9
    assert abs(verdict.phase) < 1e-9  # det of the two -1 phases is +1
    with pytest.raises(ValueError):
        fermion_pst_lift(square, [(0, 2), (2, 0)], math.pi / 2)  # not disjoint
    with pytest.raises(ValueError):
        fermion_pst_lift(square, [(0, 1), (2, 3)], math.pi / 2)  # no PST pairwise


def test_wedge_amplitude_is_a_single_particle_determinant():
    # free-fermion identity: the two-particle amplitude between sorted
    # wedges equals det <b_i|U(t)|a_j> of single-particle amplitudes
    for g in (cycle(4), hypercube(3)):
        ext = exterior_power(g, 2)
        rng = np.random.default_rng(271)
        for _ in range(6):
            a = tuple(sorted(rng.choice(g.n, size=2, replace=False).tolist()))
            b = tuple(sorted(rng.choice(g.n, size=2, replace=False).tolist()))
            t = float(rng.uniform(0, 4))
            m = np.array([[amplitude(g, a[j], b[i], t).value
                           for j in range(2)] for i in range(2)])
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            lifted = amplitude(ext, subset_rank(a, g.n),
                               subset_rank(b, g.n), t)
            assert abs(lifted.value - det) < 1e-9


def test_exterior_cubes_transfer_between_antipodal_wedges():
    cube = hypercube(3)
    ext = exterior_power(cube, 2)
    assert ext.n == 28
    verdict = fermion_pst_lift(cube, [(0, 7), (1, 6)], math.pi / 2)
    assert verdict.fidelity >= 1 - 1e-9
    # a self-antipodal wedge {u, u^7} returns to itself instead
    wedge = subset_rank((0, 7), 8)
    amp = amplitude(ext, wedge, wedge, math.pi / 2)
    assert abs(amp.value - 1.0) < 1e-9


def test_power_domain_checks():
    with pytest.raises(ValueError):
        exterior_power(build_signed_graph(3, [(0, 1, -1)]), 2)
    with pytest.raises(ValueError):
        exterior_power(complete(4), 0)
    with pytest.raises(ValueError):
        exterior_power(complete(4), 5)
    with pytest.raises(ValueError):
        boson_quotient(random_regular(40, 3, seed=1), 8)  # state space too big
    # C(n, k) states are capped before anything is allocated
    for g, k in [(random_regular(40, 3, seed=1), 5), (cycle(512), 2)]:
        with pytest.raises(ValueError, match="desk-scale cap"):
            exterior_power(g, k)
        with pytest.raises(ValueError, match="desk-scale cap"):
            symmetric_power(g, k)
    assert exterior_power(cycle(1300), 1).n == MAX_POWER_STATES
    # bosons are capped by their C(n+k-1, k) states, not by the n^k tuples
    assert boson_quotient(random_regular(12, 3, seed=1), 3).n == 364
