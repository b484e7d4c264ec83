"""Eigensolver contract, walk amplitudes, transfer search and join formulas."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from sgwalk import (
    MULTIGRAPH,
    CubelikeSpec,
    WalkAmplitude,
    WeightedGraph,
    adjacency_matrix,
    cubelike,
    amplitude,
    amplitude_series,
    build_signed_graph,
    complete,
    cycle,
    decomposition_transfer,
    eig_sym,
    from_net_matrix,
    hypercube,
    is_periodic,
    is_periodic_at,
    is_pst,
    join_pst_condition,
    join_spectral_data,
    path,
    propagator,
    pst_search,
    random_regular,
    signed_join,
    signed_join_amplitude,
    signed_union,
    switch,
    unsigned_k2_join_condition,
)


def random_signed(rng, n):
    net = np.triu(rng.integers(-1, 2, size=(n, n)), k=1)
    return from_net_matrix(net + net.T)


def test_eigensolver_against_library_oracle():
    rng = np.random.default_rng(11)
    for n in range(2, 26):
        g = random_signed(rng, n)
        a = g.adjacency.astype(float)
        spec = eig_sym(g)
        assert np.all(np.diff(spec.eigenvalues) <= 1e-12)
        oracle = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.abs(spec.eigenvalues - oracle).max() < 1e-10
        v = spec.eigenvectors
        assert np.abs(v.T @ v - np.eye(n)).max() < 1e-10
        assert np.abs((v * spec.eigenvalues) @ v.T - a).max() < 1e-10


def test_eigensolver_rejects_asymmetric():
    with pytest.raises(ValueError):
        eig_sym(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        eig_sym(np.zeros((2, 3)))


def test_eigensolver_rejects_non_finite_input():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="non-finite"):
            eig_sym(np.array([[0.0, bad], [bad, 0.0]]))


def test_eigensolver_contract_on_q7_without_warnings():
    q7 = hypercube(7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = eig_sym(q7)
    a = q7.adjacency.astype(float)
    v = spec.eigenvectors
    assert np.abs((v * spec.eigenvalues) @ v.T - a).max() < 1e-10
    assert np.abs(v.T @ v - np.eye(128)).max() < 1e-10
    # spectrum of Q_d: d - 2k with multiplicity C(d, k)
    expected = [7 - 2 * k for k in range(8) for _ in range(math.comb(7, k))]
    assert np.abs(spec.eigenvalues - expected).max() < 1e-12


def test_adjacency_matrix_accepts_graphs_and_arrays():
    g = cycle(4)
    assert np.array_equal(adjacency_matrix(g), g.adjacency)
    m = np.eye(3)
    assert np.array_equal(adjacency_matrix(m), m)


def test_spectrum_groups_and_projectors():
    spec = eig_sym(complete(4))  # eigenvalues 3, -1, -1, -1
    groups = spec.groups()
    assert [len(g) for g in groups] == [1, 3]
    total = np.zeros((4, 4))
    for value, proj in spec.projectors():
        assert np.abs(proj @ proj - proj).max() < 1e-10
        total += value * proj
    assert np.abs(total - complete(4).adjacency).max() < 1e-10


def test_propagator_is_unitary_and_matches_expm():
    rng = np.random.default_rng(23)
    for _ in range(8):
        n = int(rng.integers(2, 10))
        g = random_signed(rng, n)
        t = float(rng.uniform(0, 7))
        u = propagator(g, t)
        assert np.abs(u @ u.conj().T - np.eye(n)).max() < 1e-10
        oracle = scipy.linalg.expm(-1j * t * g.adjacency.astype(float))
        assert np.abs(u - oracle).max() < 1e-10


def test_amplitude_symmetries():
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        g = random_signed(rng, n)
        a, b = rng.integers(0, n, size=2)
        t = float(rng.uniform(0, 5))
        fwd = amplitude(g, int(a), int(b), t)
        # symmetric generator: <b|U|a> = <a|U|b>
        assert abs(fwd.value - amplitude(g, int(b), int(a), t).value) < 1e-12
        # time reversal conjugates the amplitude
        assert abs(fwd.value.conjugate()
                   - amplitude(g, int(a), int(b), -t).value) < 1e-12
        series = amplitude_series(g, int(a), int(b), [0.0, t])
        assert abs(series[0] - (1.0 if a == b else 0.0)) < 1e-12
        assert abs(series[1] - fwd.value) < 1e-12


def test_fidelity_is_switching_invariant():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        g = random_signed(rng, n)
        d = rng.choice([1, -1], size=n)
        h = switch(g, d)
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        t = float(rng.uniform(0, 5))
        assert abs(amplitude(g, a, b, t).fidelity
                   - amplitude(h, a, b, t).fidelity) < 1e-12


def test_amplitudes_refuse_times_without_a_correct_phase_digit():
    k2 = complete(2)
    limit = 1.0 / np.finfo(float).eps
    assert amplitude(k2, 0, 1, 0.99 * limit).fidelity <= 1.0
    for t in (limit, -1e300, math.inf, math.nan):
        with pytest.raises(ValueError, match="no correct digit"):
            amplitude(k2, 0, 1, t)
        with pytest.raises(ValueError, match="no correct digit"):
            amplitude_series(k2, 0, 1, [0.0, t])
        with pytest.raises(ValueError, match="no correct digit"):
            propagator(k2, t)
    with pytest.raises(ValueError, match="no correct digit"):
        pst_search(k2, 0, 1, 1e300)
    # the limit scales with the spectrum: a huge weight refuses t = 1
    heavy = WeightedGraph(2, np.array([[0.0, 1e200], [1e200, 0.0]]))
    with pytest.raises(ValueError, match="no correct digit"):
        amplitude(heavy, 0, 1, 1.0)


def test_vertex_validation():
    g = cycle(4)
    with pytest.raises(ValueError):
        amplitude(g, 0, 4, 1.0)
    with pytest.raises(ValueError):
        amplitude(g, -1, 0, 1.0)
    with pytest.raises(ValueError):
        is_pst(g, 2, 2, 1.0)


def test_square_antipodal_transfer():
    g = cycle(4)
    verdict = is_pst(g, 0, 2, math.pi / 2)
    assert verdict.kind == "pst"
    assert verdict.fidelity >= 1 - 1e-9
    assert abs(abs(verdict.phase) - math.pi) < 1e-9  # amplitude is -1
    assert is_pst(g, 0, 1, math.pi / 2).kind == "none"
    assert is_periodic_at(g, 0, math.pi).kind == "periodic"
    assert is_periodic(g, math.pi)
    assert not is_periodic(g, 1.0)


def test_pst_search_finds_the_square_peak():
    hits = pst_search(cycle(4), 0, 2, 4 * math.pi)
    assert hits and all(v.kind == "pst" for v in hits)
    assert abs(hits[0].time - math.pi / 2) < 1e-6
    assert hits[0].fidelity >= 1 - 1e-9
    # successive transfer times pi/2, 3pi/2, 5pi/2, 7pi/2
    assert len(hits) == 4
    spacing = np.diff([v.time for v in hits])
    assert np.abs(spacing - math.pi).max() < 1e-5


def test_pst_search_times_are_exact():
    # PST times are exact multiples of pi/2 here; the derivative root
    # reproduces them to a few units in the last place
    hits = pst_search(cycle(4), 0, 2, 4 * math.pi)
    for k, hit in enumerate(hits):
        assert abs(hit.time - (2 * k + 1) * math.pi / 2) < 4e-15
    hits = pst_search(hypercube(7), 0, 127, math.pi)
    assert len(hits) == 1 and hits[0].kind == "pst"
    assert abs(hits[0].time - math.pi / 2) < 1e-15
    # a curve still rising at t_max peaks at the end of the window
    (best,) = pst_search(cycle(4), 0, 2, 1.5)
    assert best.kind == "none" and best.time == 1.5


def test_pst_search_reports_best_peak_when_nothing_transfers():
    hits = pst_search(complete(6), 0, 1, 4 * math.pi)
    assert len(hits) == 1
    assert hits[0].kind == "none"
    assert abs(hits[0].fidelity - 1 / 9) < 1e-6
    # identically zero curve: single best grid point, no spurious peaks
    unbalanced = build_signed_graph(
        4, [(0, 1, -1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    hits = pst_search(unbalanced, 0, 2, 4 * math.pi)
    assert len(hits) == 1
    assert hits[0].kind == "none"
    assert hits[0].fidelity < 1e-18


def test_pst_search_periodicity_mode():
    hits = pst_search(complete(4), 0, 0, 2.0)
    assert hits and hits[0].kind == "periodic"
    assert abs(hits[0].time - math.pi / 2) < 1e-6
    with pytest.raises(ValueError):
        pst_search(complete(4), 0, 0, -1.0)


def test_join_spectral_data_matches_dense_spectrum():
    g1, g2 = complete(2), complete(4)
    data = join_spectral_data(2, 1, 4, 3)
    join = signed_join(g1, g2, -1, 1)
    w = np.linalg.eigvalsh(join.adjacency.astype(float))
    # lambda_pm are the two eigenvalues whose eigenvectors load both blocks
    for lam in (data.lambda_plus, data.lambda_minus):
        assert np.min(np.abs(w - lam)) < 1e-9
    assert data.Delta == pytest.approx(
        math.sqrt(data.delta_plus ** 2 + data.n1 * data.n2))
    assert data.lambda_plus - data.lambda_minus == pytest.approx(2 * data.Delta)


def test_join_closed_form_matches_dense_exponential():
    rng = np.random.default_rng(53)
    g1 = complete(2)
    for trial in range(25):
        k = 3 if trial % 2 == 0 else 4
        n = int(rng.choice([6, 8, 10, 12]))
        g2 = random_regular(n, k, seed=int(rng.integers(10000)))
        join = signed_join(g1, g2, -1, 1)
        t = float(rng.uniform(0, 2 * math.pi))
        closed = signed_join_amplitude(g1, g2, 0, 1, t)
        dense = scipy.linalg.expm(-1j * t * join.adjacency.astype(float))
        assert abs(closed.value - dense[1, 0]) < 1e-9


def test_join_transfer_time_formula():
    # K2^- joined to a k-regular G on n vertices transfers at pi/sqrt(4+2n)
    for g2, n in [(complete(4), 4), (hypercube(3), 8)]:
        t = math.pi / math.sqrt(4 + 2 * n)
        join = signed_join(complete(2), g2, -1, 1)
        assert is_pst(join, 0, 1, t).fidelity >= 1 - 1e-9


def test_join_pst_condition_cases():
    hit = join_pst_condition(1, 7, 2, 24, 2)
    assert hit.holds and hit.Delta == pytest.approx(8.0)
    miss = join_pst_condition(1, 3, 2, 4, 2)
    assert not miss.holds
    with pytest.raises(ValueError):
        join_pst_condition(1, 1, 2, 2, 0)
    # plain unsigned edge-join: no qualifying cubic graph up to n = 200
    assert not any(unsigned_k2_join_condition(3, n).holds
                   for n in range(4, 201))


def test_decomposition_transfer_matches_direct():
    pos = hypercube(3)
    neg = cubelike(CubelikeSpec(3, (1, 2, 4, 7)))
    union = signed_union(pos, neg, -1, mode=MULTIGRAPH)
    for t in (0.3, math.pi / 2, 1.7):
        direct = amplitude(union, 1, 6, t)
        split = decomposition_transfer(pos, neg, 1, 6, t)
        assert abs(direct.value - split.value) < 1e-10
    with pytest.raises(ValueError):
        decomposition_transfer(cycle(4), path(4), 0, 1, 1.0)  # not commuting


def test_weighted_graph_walks():
    ladder = WeightedGraph(3, np.array([[0.0, math.sqrt(2), 0.0],
                                        [math.sqrt(2), 0.0, math.sqrt(2)],
                                        [0.0, math.sqrt(2), 0.0]]))
    # two-boson walk on an edge: end states swap with amplitude -1 at pi/2
    amp = amplitude(ladder, 0, 2, math.pi / 2)
    assert abs(amp.value - (-1.0)) < 1e-10


def test_amplitude_phase_convention():
    amp = amplitude(complete(2), 0, 1, math.pi / 2)
    assert abs(amp.re) < 1e-12
    assert abs(amp.im + 1.0) < 1e-12
    assert abs(amp.phase + math.pi / 2) < 1e-12
    # a negative real amplitude has phase pi, whatever the sign of the
    # (rounding-sized) imaginary part
    for im in (0.0, -0.0, 1e-17, -1e-17, -4e-16):
        phase = WalkAmplitude(-1.0, im, 1.0, 0.0).phase
        assert phase == pytest.approx(math.pi, abs=1e-15)
    phase = WalkAmplitude(-1.0, -1e-9, 1.0, 0.0).phase
    assert phase == pytest.approx(-math.pi + 1e-9)
