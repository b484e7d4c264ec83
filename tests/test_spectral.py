"""Eigensolver contract, walk amplitudes, transfer search and join formulas."""

import gc
import itertools
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sgwalk import spectral
from sgwalk import (
    DEFAULT_TOL,
    WalkAmplitude,
    WeightedGraph,
    adjacency_matrix,
    amplitude,
    amplitude_series,
    build_signed_graph,
    complete,
    complete_bipartite,
    cycle,
    eig_sym,
    from_net_matrix,
    hypercube,
    is_periodic,
    is_periodic_at,
    is_pst,
    join_pst_condition,
    join_spectral_data,
    petersen,
    propagator,
    pst_search,
    random_regular,
    regular_stats,
    signed_join,
    signed_join_amplitude,
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


@pytest.mark.parametrize("order", [1, 2, 5, 16, 33])
@pytest.mark.parametrize("count", [1, 7])
def test_a_stacked_spectrum_is_bitwise_the_per_matrix_one(count, order):
    rng = np.random.default_rng(order * 10 + count)
    stack = np.stack([random_signed(rng, order).adjacency.astype(float) for _ in range(count)])
    spec = eig_sym(stack)
    assert spec.n == order
    assert spec.eigenvalues.shape == (count, order)
    assert spec.eigenvectors.shape == (count, order, order)
    for i in range(count):
        alone = eig_sym(stack[i])
        assert np.array_equal(spec.eigenvalues[i], alone.eigenvalues)
        assert np.array_equal(spec.eigenvectors[i], alone.eigenvectors)
    # a single matrix is the stack of one: the same arrays as its row 0
    single = eig_sym(stack[0])
    assert single.eigenvalues.shape == (order,) and single.n == order
    assert np.array_equal(eig_sym(stack[:1]).eigenvectors[0], single.eigenvectors)


def test_a_stack_names_the_first_matrix_that_fails():
    stack = np.zeros((5, 3, 3))
    stack[3, 0, 1] = stack[3, 1, 0] = math.nan
    stack[4, 0, 1] = math.inf
    with pytest.raises(ValueError, match=r"non-finite entries \(stack index 3\)"):
        eig_sym(stack)
    stack = np.zeros((5, 3, 3))
    stack[2, 0, 1] = 1.0
    with pytest.raises(ValueError, match=r"not symmetric \(stack index 2\)"):
        eig_sym(stack)
    stack = np.zeros((3, 3, 3))
    stack[1] = np.full((3, 3), 1e308) - np.diag([1e308] * 3)
    with pytest.raises(ValueError, match=r"overflows the float range \(stack index 1\)"):
        eig_sym(stack)
    # a single matrix names no index
    with pytest.raises(ValueError, match=r"not symmetric$"):
        eig_sym(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_eig_sym_refuses_an_empty_matrix_or_stack():
    for empty in (np.zeros((0, 0)), np.zeros((0, 4, 4)), np.zeros((3, 0, 0))):
        with pytest.raises(ValueError, match="non-empty"):
            eig_sym(empty)
    with pytest.raises(ValueError, match="square"):
        eig_sym(np.zeros((2, 2, 2, 2)))
    with pytest.raises(ValueError, match="square"):
        eig_sym([])


def test_a_stacked_spectrum_checks_the_phase_range_row_by_row():
    # row 1's eigenvalues near 1e200 leave no correct phase digit at t = 1;
    # row 0 alone is fine at the same time
    stack = np.array([[[0.0, 1.0], [1.0, 0.0]], [[0.0, 1e200], [1e200, 0.0]]])
    spec = eig_sym(stack)
    weights = spectral._weights(spec, 0, 1)
    z = spectral._transfer(spec, weights, [[1.0], [1e-190]])
    assert z.shape == (2, 1) and abs(abs(z[0, 0]) - abs(math.sin(1.0))) < 1e-15
    with pytest.raises(ValueError, match=r"no correct digit \(stack index 1\)"):
        spectral._transfer(spec, weights, [[1.0], [1.0]])


def test_the_kernels_take_one_spectrum_row_per_query():
    # a stacked spectrum pairs query q with row q: the grid scan, the fidelity
    # slope and the amplitudes of the batch agree with the rows one by one
    rng = np.random.default_rng(5)
    stack = eig_sym(np.stack([random_signed(rng, 6).adjacency.astype(float) for _ in range(3)]))
    rows = [spectral.Spectrum(stack.eigenvalues[q], stack.eigenvectors[q]) for q in range(3)]
    a, b = [0, 2, 5], [1, 2, 3]
    weights = spectral._weights(stack, a, b)
    alone = [spectral._weights(rows[q], a[q], b[q]) for q in range(3)]
    assert np.array_equal(weights, np.array(alone))
    grid = list(spectral._grid_amplitudes(stack.eigenvalues, weights, 0.01, 3000))
    for q in range(3):
        one = list(spectral._grid_amplitudes(rows[q].eigenvalues, alone[q], 0.01, 3000))
        for k in (1, 2):  # Cw, then Sw
            got = np.concatenate([chunk[k][q] for chunk in grid])
            assert np.abs(got - np.concatenate([chunk[k] for chunk in one])).max() < 1e-13
    times = rng.uniform(0.0, 5.0, size=7)
    lam = stack.eigenvalues
    cols = np.stack([weights, lam * weights, lam * lam * weights], axis=-1)
    batch = spectral._fidelity_slope(lam, cols, times, [2, 0, 5])
    for q, part in ((0, slice(0, 2)), (2, slice(2, 7))):
        one = spectral._fidelity_slope(lam[q], cols[q:q + 1], times[part], [len(times[part])])
        for got, want in zip(batch, one):
            assert np.abs(got[part] - want).max() < 1e-13
    z = spectral._transfer(stack, weights, times[:6].reshape(3, 2))
    for q in range(3):
        assert np.array_equal(z[q], spectral._transfer(rows[q], alone[q], times[2 * q:2 * q + 2]))


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


def test_graph_spectrum_is_computed_once():
    g = cycle(5)
    assert eig_sym(g) is eig_sym(g)
    # equal matrices in separate graph values get separate spectra
    twin = cycle(5)
    assert eig_sym(twin) is not eig_sym(g)
    # raw matrices are decomposed on every call
    assert eig_sym(g.adjacency) is not eig_sym(g.adjacency)
    # a failed decomposition is not kept: a finite triangle whose top
    # eigenvalue 2e308 overflows is refused every time
    heavy = WeightedGraph(3, np.full((3, 3), 1e308) - np.diag([1e308] * 3))
    for _ in range(2):
        with pytest.raises(ValueError, match="overflows"):
            eig_sym(heavy)
    assert heavy not in spectral._SPECTRA


def test_spectrum_is_freed_with_its_graph():
    g = cycle(6)
    spec = eig_sym(g)
    alive = weakref.ref(g)
    del g
    gc.collect()
    assert alive() is None
    assert all(kept is not spec for kept in spectral._SPECTRA.values())


def test_adjacency_matrix_accepts_graphs_and_arrays():
    g = cycle(4)
    assert np.array_equal(adjacency_matrix(g), g.adjacency)
    m = np.eye(3)
    assert np.array_equal(adjacency_matrix(m), m)


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


@st.composite
def signed_walks(draw):
    n = draw(st.integers(1, 9))
    signs = draw(st.lists(st.integers(-1, 1), min_size=n * n, max_size=n * n))
    net = np.triu(np.array(signs).reshape(n, n), k=1)
    a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    t = draw(st.floats(-20.0, 20.0))
    return from_net_matrix(net + net.T), a, b, t


@settings(max_examples=80, deadline=None, derandomize=True)
@given(signed_walks())
def test_amplitude_routes_agree(walk):
    g, a, b, t = walk
    z = amplitude(g, a, b, t).value
    assert abs(amplitude_series(g, a, b, [t])[0] - z) < 1e-12
    assert abs(propagator(g, t)[b, a] - z) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(signed_walks(), st.sampled_from([1.0, -1.0]), st.floats(-2.0, 4.0),
       st.sampled_from([2, 3, 50, 1001, 20001]),
       st.sampled_from(["offset", "nudged", "single"]))
def test_amplitude_series_on_a_uniform_grid_matches_per_time_amplitudes(walk, sign, digits,
                                                                       count, uneven):
    # np.linspace(0, T, N) goes through the chunked angle-addition kernel;
    # N = 20001 spans two of its chunks, and |T| runs from 1e-2 to 1e4
    g, a, b, _ = walk
    t_max = sign * 10.0 ** digits
    spec = eig_sym(g)
    times = np.linspace(0.0, t_max, count)
    series = amplitude_series(g, a, b, times)
    picks = np.unique(np.r_[0:count:max(1, count // 200), count - 1])
    want = np.array([amplitude(g, a, b, t).value for t in times[picks]])
    scale = 1.0 + abs(t_max) * float(np.abs(spec.eigenvalues).max())
    assert series.shape == (count,)
    assert np.abs(series[picks] - want).max() <= 64 * np.finfo(float).eps * scale
    # any other times array is evaluated term by term, bit for bit as before
    other = {"offset": times + 0.5, "nudged": times.copy(), "single": times[-1:]}[uneven]
    if uneven == "nudged":  # one ulp off the grid, short of its last time
        other[(count - 1) // 2] = np.nextafter(other[(count - 1) // 2], np.inf)
    assert np.array_equal(amplitude_series(g, a, b, other),
                          spectral._transfer(spec, spectral._weights(spec, a, b), other))


def test_amplitude_series_returns_the_shape_of_its_times():
    g = cycle(5)
    times = np.array([[0.3, 1.1], [2.0, -4.5]])
    series = amplitude_series(g, 0, 2, times)
    assert series.shape == (2, 2)
    want = [[amplitude(g, 0, 2, t).value for t in row] for row in times]
    assert np.abs(series - want).max() < 1e-14
    scalar = amplitude_series(g, 0, 2, 1.1)
    assert scalar.shape == () and abs(scalar - amplitude(g, 0, 2, 1.1).value) < 1e-14
    assert amplitude_series(g, 0, 2, []).shape == (0,)


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


def test_library_tolerances_must_be_finite():
    # tol = nan failed every verdict, tol = inf passed every peak
    for tol in (math.nan, math.inf, -math.inf):
        for call in (lambda: pst_search(complete(2), 0, 1, math.pi, tol=tol),
                     lambda: is_pst(cycle(4), 0, 2, math.pi / 2, tol),
                     lambda: is_periodic_at(cycle(4), 0, math.pi, tol),
                     lambda: is_periodic(cycle(4), math.pi, tol)):
            with pytest.raises(ValueError, match="tol must be finite"):
                call()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(signed_walks(), st.sampled_from([math.pi / 2, math.pi, 2 * math.pi, 1.0]),
       st.sampled_from([DEFAULT_TOL, 1e-3, 0.5]))
def test_is_periodic_agrees_with_the_per_vertex_loop(walk, t, tol):
    g = walk[0]
    loop = all(is_periodic_at(g, a, t, tol).kind == "periodic" for a in range(g.n))
    assert is_periodic(g, t, tol) is loop


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
    for t_max in (1.0, 4 * math.pi):
        (best,) = pst_search(unbalanced, 0, 2, t_max)
        assert best.kind == "none" and best.fidelity < 1e-18
        # all grid fidelities tie within 1e-12: the earliest grid time wins,
        # and an amplitude that rounds to 0 has phase 0.0
        steps = math.ceil(t_max / spectral.DEFAULT_GRID_STEP)
        assert best.time == np.linspace(0.0, t_max, steps + 1)[1]
        assert best.phase == 0.0


def _scalar_pst_search(graph, a, b, t_max):
    """pst_search as a per-grid-point scan and one bisection per peak."""
    spec = eig_sym(graph)
    weights = spectral._weights(spec, a, b)
    steps = max(2, int(math.ceil(t_max / spectral.DEFAULT_GRID_STEP)))
    ts = np.linspace(0.0, t_max, steps + 1)
    fids = np.abs(spectral._transfer(spec, weights, ts)) ** 2
    lambda_weights = spec.eigenvalues * weights

    def fid_slope(t):
        phases = np.exp(-1j * spec.eigenvalues * t)
        z = phases @ weights
        dz = -1j * (phases @ lambda_weights)
        return abs(z) ** 2, 2.0 * (z.conjugate() * dz).real

    def refine(lo, hi):
        f_lo, slope_lo = fid_slope(lo)
        f_hi, slope_hi = fid_slope(hi)
        if not slope_lo > 0.0 > slope_hi:
            return lo if f_lo > f_hi else hi
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                return mid
            if fid_slope(mid)[1] > 0.0:
                lo = mid
            else:
                hi = mid

    floor = max(1e-12, float(fids.max()) * 1e-6)
    candidates = []
    for i in range(1, len(ts) - 1):
        if fids[i] > floor and fids[i] > fids[i - 1] and fids[i] >= fids[i + 1]:
            candidates.append(refine(ts[i - 1], ts[i + 1]))
    if fids[-1] > floor and fids[-1] > fids[-2]:
        candidates.append(refine(ts[-2], ts[-1]))
    if not candidates:
        candidates.append(float(ts[1 + int(np.argmax(fids[1:]))]))
    peaks = []
    for t in sorted(candidates):
        if not peaks or t - peaks[-1] >= 1e-9:
            peaks.append(t)
    verdicts = [
        spectral._verdict(a, b, WalkAmplitude.from_complex(z, t), spectral.DEFAULT_TOL)
        for t, z in zip(peaks, spectral._transfer(spec, weights, peaks))
    ]
    hits = [v for v in verdicts if v.kind != "none"]
    best = max(v.fidelity for v in verdicts)
    return hits or [next(v for v in verdicts if v.fidelity >= best - 1e-12)]


def _printed(verdicts):
    return [f"{v.time:.12f} {v.fidelity:.12f} {v.phase:.12f} {v.kind}" for v in verdicts]


def _assert_matches_the_scalar_oracle(g, a, b, t_max):
    got, want = pst_search(g, a, b, t_max), _scalar_pst_search(g, a, b, t_max)
    if want[0].fidelity < 1e-12:
        # zero to rounding: the oracle reports the grid's argmax of noise,
        # pst_search the earliest grid time (see the zero-curve test)
        (best,) = got
        steps = max(2, math.ceil(t_max / spectral.DEFAULT_GRID_STEP))
        assert best.kind == "none" and best.time == np.linspace(0.0, t_max, steps + 1)[1]
    else:
        assert _printed(got) == _printed(want)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(signed_walks(), st.floats(0.0, 6 * math.pi, exclude_min=True))
def test_pst_search_matches_the_scalar_oracle(walk, t_max):
    g, a, b, _ = walk
    _assert_matches_the_scalar_oracle(g, a, b, t_max)


@pytest.mark.parametrize("g", [complete(n) for n in range(3, 9)]
                         + [hypercube(d) for d in range(2, 5)],
                         ids=[f"K{n}" for n in range(3, 9)] + [f"Q{d}" for d in range(2, 5)])
def test_pst_search_matches_the_scalar_oracle_on_tied_curves(g):
    # complete graphs and cubes give curves with exact ties (equal peaks,
    # peaks on a grid time or midway between two), which random graphs
    # never do; they separate the strict and non-strict comparisons of
    # the peak marking and of the bracket ends
    for b in range(g.n):
        for t_max in (math.pi / 2, 1000 * math.pi / 1001, 2 * math.pi, 5.0):
            _assert_matches_the_scalar_oracle(g, 0, b, t_max)


def test_pst_search_scan_memory_does_not_grow_with_grid_times_n():
    # 63,663 grid times x 32 eigenvalues on Q5, and 6,366,198 grid times on
    # K2: a scan over one complex table of them peaks at about 63 MB, a
    # scan that holds the grid and its fidelities at about 102 MB on K2;
    # the chunked scan holds one chunk and the peak candidates
    for g, a, b, t_max in ((hypercube(5), 0, 31, 200.0), (complete(2), 0, 1, 2e4)):
        eig_sym(g)
        tracemalloc.start()
        try:
            pst_search(g, a, b, t_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


def test_pst_search_refines_in_a_handful_of_kernel_calls(monkeypatch):
    # bisection to the last bit took about 50 calls here; Newton steps on
    # dF/dt and one probe of the floats around the root take a few
    calls = []
    kernel = spectral._fidelity_slope
    monkeypatch.setattr(spectral, "_fidelity_slope",
                        lambda *args: calls.append(len(args[2])) or kernel(*args))
    for b in (15, 3, 1):
        calls.clear()
        hits = pst_search(hypercube(4), 0, b, 5 * math.pi)
        assert len(calls) <= 10, calls
    (hit,) = pst_search(hypercube(4), 0, 1, 5 * math.pi)
    # F = cos^6 sin^2 peaks where tan^2 t = 1/3
    assert hit.kind == "none" and f"{hit.time:.12f}" == f"{math.pi / 6:.12f}"


def _assert_batch_matches_per_pair_searches(g, pairs, t_max):
    a, b = np.array(pairs).T
    batch = spectral._pst_searches(eig_sym(g), a, b, t_max, spectral.DEFAULT_TOL)
    assert len(batch) == len(pairs)
    for (u, v), got in zip(pairs, batch):
        want = pst_search(g, u, v, t_max)
        assert [(h.kind, h.from_vertex, h.to_vertex) for h in got] == \
            [(h.kind, h.from_vertex, h.to_vertex) for h in want]
        assert _printed(got) == _printed(want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(signed_walks(), st.floats(0.0, 6 * math.pi, exclude_min=True), st.integers(1, 12))
def test_a_batched_pair_search_matches_per_pair_searches(walk, t_max, count):
    g = walk[0]
    every = [(u, v) for u in range(g.n) for v in range(g.n)]
    pairs = [every[i] for i in np.random.default_rng(count).choice(len(every), count)]
    _assert_batch_matches_per_pair_searches(g, pairs, t_max)


@pytest.mark.parametrize("g", [complete(6), complete(8), hypercube(3), cycle(6)],
                         ids=["K6", "K8", "Q3", "C6"])
def test_a_batched_pair_search_matches_per_pair_searches_on_tied_curves(g):
    # every pair at once, the diagonal included, at horizons that put peaks
    # on grid times and midway between two
    pairs = [(u, v) for u in range(g.n) for v in range(u, g.n)]
    for t_max in (math.pi / 2, 1000 * math.pi / 1001, 4 * math.pi):
        _assert_batch_matches_per_pair_searches(g, pairs, t_max)


def test_a_batched_search_makes_no_more_kernel_calls_than_one_pair(monkeypatch):
    calls = []
    kernel = spectral._fidelity_slope
    monkeypatch.setattr(spectral, "_fidelity_slope",
                        lambda *args: calls.append(len(args[2])) or kernel(*args))
    k8 = complete(8)
    pst_search(k8, 0, 1, 4 * math.pi)
    alone = len(calls)
    calls.clear()
    a, b = np.array(list(itertools.combinations(range(8), 2))).T
    spectral._pst_searches(eig_sym(k8), a, b, 4 * math.pi, spectral.DEFAULT_TOL)
    assert len(calls) <= max(alone, 10), calls


def test_signed_joins_transfer_at_the_paper_times():
    # the negative K2 joined to an n-vertex regular graph transfers between
    # the K2 ends at pi / sqrt(4 + 2n) and its odd multiples
    for h in (complete(4), complete_bipartite(3, 3), hypercube(3), petersen()):
        t0 = math.pi / math.sqrt(4 + 2 * h.n)
        hits = pst_search(signed_join(complete(2), h, -1, 1), 0, 1, 4 * math.pi)
        assert hits[0].kind == "pst" and abs(hits[0].time - t0) < 1e-15
        for hit in hits:
            assert abs(hit.time / t0 - round(hit.time / t0)) < 4e-15
            assert round(hit.time / t0) % 2 == 1


def test_pst_search_periodicity_mode():
    hits = pst_search(complete(4), 0, 0, 2.0)
    assert hits and hits[0].kind == "periodic"
    assert abs(hits[0].time - math.pi / 2) < 1e-6
    with pytest.raises(ValueError):
        pst_search(complete(4), 0, 0, -1.0)
    with pytest.raises(TypeError):  # tol is keyword-only
        pst_search(complete(4), 0, 0, 2.0, 1e-3)


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


JOIN_FIRST_FACTORS = [complete(2), cycle(4), complete(4), cycle(5), complete(5)]


@st.composite
def join_queries(draw, n1):
    """A regular partner drawn by random_regular (k in {3, 4}, up to 12 vertices),
    a vertex pair of a first factor on n1 vertices and a time in [0, 2 pi]."""
    k2 = draw(st.sampled_from([3, 4]))
    n2 = draw(st.sampled_from([4, 6, 8, 10, 12] if k2 == 3 else list(range(5, 13))))
    partner = regular_stats(random_regular(n2, k2, seed=draw(st.integers(0, 2 ** 31 - 1))))
    a, b = draw(st.integers(0, n1 - 1)), draw(st.integers(0, n1 - 1))
    return partner.n, partner.k, a, b, draw(st.floats(0.0, 2 * math.pi))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_batched_join_amplitudes_are_the_batch_of_one_bit_for_bit(data):
    g1 = data.draw(st.sampled_from(JOIN_FIRST_FACTORS))
    queries = data.draw(st.lists(join_queries(g1.n), min_size=1, max_size=12))
    stats1 = regular_stats(g1)
    batch = spectral._join_amplitude(g1, stats1, *zip(*queries))
    assert batch.shape == (len(queries),)
    for q, (n2, k2, a, b, t) in enumerate(queries):
        one = spectral._join_amplitude(g1, stats1, [n2], [k2], [a], [b], [t])
        assert batch[q:q + 1].tobytes() == one.tobytes(), q
    # the public call is the batch of one, on a partner of the same size and degree
    n2, k2, a, b, t = queries[0]
    closed = signed_join_amplitude(g1, random_regular(n2, k2), a, b, t)
    assert closed.value == complex(batch[0])


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
    # the second branch: Delta = 6 = D (mod 2D) and k1 + k2 = 4 = 2D (mod 4D) at D = 2
    second = join_pst_condition(1, 3, 2, 16, 2)
    assert (second.holds, second.branch, second.Delta) == (True, 2, 6.0)
    for seed in (1, 2, 3):
        join = signed_join(complete(2), random_regular(16, 3, seed=seed), -1, 1)
        assert abs(amplitude(join, 0, 1, math.pi / 2).fidelity - 1.0) < 1e-9
    third = join_pst_condition(1, 3, 2, 16, 3)
    assert not third.holds and third.branch is None
    with pytest.raises(ValueError):
        join_pst_condition(1, 1, 2, 2, 0)
    # plain unsigned edge-join: no qualifying cubic graph up to n = 200
    assert not any(unsigned_k2_join_condition(3, n).holds
                   for n in range(4, 201))


def test_bisection_alone_closes_brackets_as_the_float_probe_does(monkeypatch):
    # with no float probed around a converged Newton point, the closing
    # bisection narrows every bracket alone, to the same 12-decimal verdicts
    rng = np.random.default_rng(29)
    cases = [(hypercube(4), 0, 15), (cycle(6), 0, 3), (complete(2), 0, 1),
             (random_signed(rng, 7), 0, 6)]
    calls = []
    slope = spectral._fidelity_slope
    monkeypatch.setattr(spectral, "_fidelity_slope", lambda *args: calls.append(1) or slope(*args))

    def lines():
        calls.clear()
        return [f"{v.kind} {v.time:.12f} {v.fidelity:.12f} {v.phase:.12f}"
                for g, a, b in cases for v in pst_search(g, a, b, 5 * math.pi)]

    probed, probed_calls = lines(), len(calls)
    monkeypatch.setattr(spectral, "_PROBE", np.array([0]))
    assert lines() == probed
    assert len(calls) > probed_calls  # the bisection ran where the probe had closed brackets


def test_join_conditions_are_exact_integer_tests():
    # 16 + 4 n2 and 64 + 8 n lie within 1e-9 of a square's float root here
    # but are not squares
    for cond in (join_pst_condition(2, 2, 1, 4 * 10 ** 18 - 3, 1),
                 unsigned_k2_join_condition(9, (64 * 10 ** 18 - 56) // 8)):
        assert not cond.holds and cond.branch is None and isinstance(cond.Delta, float)
    # a true square at the same scale still holds: 16 + 4 (m^2 - 4) = (2m)^2
    m = 2 * 10 ** 9
    hit = join_pst_condition(2, 2, 1, m * m - 4, 1)
    assert hit.holds and hit.branch == 1 and hit.Delta == float(m)
    # an odd root gives a half-integer Delta, which is not an integer
    assert not join_pst_condition(1, 0, 1, 2, 1).holds  # sqrt(1 + 8) / 2 = 1.5


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
