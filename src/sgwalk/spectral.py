"""Spectral decomposition and continuous-time walk amplitudes.

The walk generated by a symmetric matrix A is U(t) = exp(-i t A).  With
the spectral decomposition A = sum_a a E_a the transfer amplitude is

    <b| U(t) |a> = sum_a exp(-i t a) <b| E_a |a>,

which is how every amplitude here is evaluated.  Perfect state transfer
(PST) between distinct vertices means the fidelity |<b|U(t)|a>|^2
reaches 1; periodicity is the same statement on the diagonal.

Eigenproblems are solved by LAPACK (``numpy.linalg.eigh``) under an
accuracy contract checked on every call: reconstruction and
orthonormality residuals within 1e-10.  Transfer peaks are refined to a
root of the analytic derivative of the fidelity, so PST times are exact
to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import SignedGraph

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_GRID_STEP",
    "EIG_GROUP_TOL",
    "Spectrum",
    "eig_sym",
    "WalkAmplitude",
    "amplitude",
    "amplitude_series",
    "propagator",
    "PstVerdict",
    "is_pst",
    "is_periodic_at",
    "is_periodic",
    "pst_search",
    "JoinSpectralData",
    "join_spectral_data",
    "join_amplitude_formula",
    "signed_join_amplitude",
    "JoinPstCondition",
    "join_pst_condition",
    "unsigned_k2_join_condition",
    "decomposition_transfer",
]

DEFAULT_TOL = 1e-9            # fidelity slack for PST / periodicity verdicts
DEFAULT_GRID_STEP = 1e-3 * math.pi
EIG_GROUP_TOL = 1e-8          # eigenvalue grouping, relative to max |entry|
# Beyond |t| * max|eigenvalue| = 1/eps the phase t * lambda has no correct bit.
_PHASE_LIMIT = 1.0 / np.finfo(float).eps


def adjacency_matrix(graph_or_matrix) -> np.ndarray:
    """Dense float adjacency of a graph value or a raw matrix."""
    a = getattr(graph_or_matrix, "adjacency", graph_or_matrix)
    return np.array(a, dtype=float)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues (descending) and an orthonormal eigenvector basis.

    ``scale`` records max(1, max |A_ij|) of the decomposed matrix; the
    grouping tolerance for near-degenerate eigenvalues is relative to it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def groups(self, tol: float = EIG_GROUP_TOL) -> list:
        """Indices of (near-)equal eigenvalues, chained at tol * scale."""
        gap = tol * self.scale
        out: list = []
        for i, w in enumerate(self.eigenvalues):
            if out and abs(self.eigenvalues[out[-1][-1]] - w) <= gap:
                out[-1].append(i)
            else:
                out.append([i])
        return out

    def projectors(self, tol: float = EIG_GROUP_TOL) -> list:
        """(eigenvalue, spectral projector) pairs for distinct eigenvalues."""
        pairs = []
        for idx in self.groups(tol):
            cols = self.eigenvectors[:, idx]
            value = float(np.mean(self.eigenvalues[idx]))
            pairs.append((value, cols @ cols.T))
        return pairs


def eig_sym(graph_or_matrix) -> Spectrum:
    """Spectral decomposition of a symmetric matrix (or a graph's adjacency).

    Deterministic for a fixed input; eigenvalues are sorted descending
    with eigenvectors matched.  Raises ValueError if the input has a
    non-finite entry or is not symmetric to 1e-12, and RuntimeError if
    the accuracy contract fails.
    """
    A = adjacency_matrix(graph_or_matrix)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("eig_sym expects a square matrix")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(A).max(initial=0.0)))
    if np.abs(A - A.T).max(initial=0.0) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    w, v = np.linalg.eigh(A)
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    recon = np.abs((v * w) @ v.T - A).max()
    orth = np.abs(v.T @ v - np.eye(len(w))).max()
    # negated comparisons so that a NaN residual fails the contract
    if not (recon <= 1e-10 * scale and orth <= 1e-10):
        raise RuntimeError("eigendecomposition failed its accuracy contract")
    return Spectrum(w, v, scale)


# ---------------------------------------------------------------------------
# walk amplitudes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WalkAmplitude:
    """One transfer amplitude <b| exp(-i t A) |a> with its fidelity."""

    re: float
    im: float
    fidelity: float
    time: float

    def __post_init__(self):
        if self.fidelity > 1.0 + 1e-9:
            raise ValueError(f"fidelity {self.fidelity} exceeds 1")

    @classmethod
    def from_complex(cls, z: complex, t: float) -> "WalkAmplitude":
        return cls(float(z.real), float(z.imag), float(abs(z) ** 2), float(t))

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)

    @property
    def phase(self) -> float:
        """Argument of the amplitude in (-pi, pi].

        Within 1e-12 of -pi it reads pi: a negative real amplitude gets an
        imaginary part of either sign (or -0.0) from rounding alone.
        """
        phase = math.atan2(self.im, self.re)
        return math.pi if phase < -math.pi + 1e-12 else phase


def _check_vertex(label: str, v: int, n: int) -> int:
    v = int(v)
    if not 0 <= v < n:
        raise ValueError(f"vertex {label}={v} out of range for {n} vertices")
    return v


def _check_phase_range(spec: Spectrum, times) -> None:
    """Refuse times whose walk phases t * lambda have no correct bit."""
    extent = (float(np.abs(times).max(initial=0.0))
              * float(np.abs(spec.eigenvalues).max(initial=0.0)))
    if not extent < _PHASE_LIMIT:
        raise ValueError(f"|t| * max|eigenvalue| = {extent:.3g} >= 1/eps: "
                         "the walk phase has no correct digit")


def amplitude(graph, a: int, b: int, t: float,
              spectrum: Optional[Spectrum] = None) -> WalkAmplitude:
    """Transfer amplitude from vertex a to vertex b at time t."""
    spec = spectrum if spectrum is not None else eig_sym(graph)
    a = _check_vertex("a", a, spec.n)
    b = _check_vertex("b", b, spec.n)
    _check_phase_range(spec, float(t))
    weights = spec.eigenvectors[b, :] * spec.eigenvectors[a, :]
    z = complex(np.sum(np.exp(-1j * spec.eigenvalues * float(t)) * weights))
    return WalkAmplitude.from_complex(z, float(t))


def amplitude_series(graph, a: int, b: int, times,
                     spectrum: Optional[Spectrum] = None) -> np.ndarray:
    """Amplitudes <b|U(t)|a> for an array of times (complex ndarray)."""
    spec = spectrum if spectrum is not None else eig_sym(graph)
    a = _check_vertex("a", a, spec.n)
    b = _check_vertex("b", b, spec.n)
    ts = np.asarray(times, dtype=float)
    _check_phase_range(spec, ts)
    weights = spec.eigenvectors[b, :] * spec.eigenvectors[a, :]
    return np.exp(-1j * np.outer(ts, spec.eigenvalues)) @ weights


def propagator(graph, t: float, spectrum: Optional[Spectrum] = None) -> np.ndarray:
    """Full walk matrix U(t) = exp(-i t A)."""
    spec = spectrum if spectrum is not None else eig_sym(graph)
    _check_phase_range(spec, float(t))
    phases = np.exp(-1j * spec.eigenvalues * float(t))
    return (spec.eigenvectors * phases) @ spec.eigenvectors.T


@dataclass(frozen=True)
class PstVerdict:
    """Outcome of a transfer / periodicity check at one time.

    ``kind`` is "pst" (off-diagonal, fidelity within tolerance of 1),
    "periodic" (diagonal ditto) or "none".
    """

    kind: str
    from_vertex: int
    to_vertex: int
    time: float
    fidelity: float
    phase: float


def _verdict(a: int, b: int, amp: WalkAmplitude, tol: float) -> PstVerdict:
    if amp.fidelity >= 1.0 - tol:
        kind = "periodic" if a == b else "pst"
    else:
        kind = "none"
    return PstVerdict(kind, a, b, amp.time, amp.fidelity, amp.phase)


def is_pst(graph, a: int, b: int, t: float, tol: float = DEFAULT_TOL,
           spectrum: Optional[Spectrum] = None) -> PstVerdict:
    """Check perfect state transfer a -> b at time t (a and b distinct)."""
    if int(a) == int(b):
        raise ValueError("is_pst needs distinct vertices; use is_periodic_at")
    return _verdict(int(a), int(b), amplitude(graph, a, b, t, spectrum), tol)


def is_periodic_at(graph, a: int, t: float, tol: float = DEFAULT_TOL,
                   spectrum: Optional[Spectrum] = None) -> PstVerdict:
    """Check periodicity at vertex a at time t."""
    return _verdict(int(a), int(a), amplitude(graph, a, a, t, spectrum), tol)


def is_periodic(graph, t: float, tol: float = DEFAULT_TOL) -> bool:
    """Whole-graph periodicity: every vertex returns at time t."""
    spec = eig_sym(graph)
    return all(
        is_periodic_at(graph, a, t, tol, spectrum=spec).kind == "periodic"
        for a in range(spec.n)
    )


def _refine_peak(fid_slope, lo: float, hi: float) -> float:
    """Time of the fidelity peak in [lo, hi]: the root of dF/dt.

    ``fid_slope(t)`` returns (F, dF/dt).  When dF/dt falls from positive
    at lo to negative at hi, bisection on its sign runs until the
    midpoint stops moving.  Otherwise the peak sits at an end of the
    bracket, and the end with the higher fidelity is returned.
    """
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


def pst_search(graph, a: int, b: int, t_max: float,
               grid_step: float = DEFAULT_GRID_STEP,
               tol: float = DEFAULT_TOL) -> list:
    """Scan (0, t_max] for transfer (a != b) or return (a == b) peaks.

    The fidelity curve is sampled on a uniform grid and every local
    maximum is refined to the root of dF/dt = 2 Re(conj(z) z'), where
    z' = sum -i lambda exp(-i lambda t) w_lambda.  All peaks with
    fidelity >= 1 - tol are reported; if none qualifies the single best
    peak is returned with kind "none".
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    spec = eig_sym(graph)
    a = _check_vertex("a", a, spec.n)
    b = _check_vertex("b", b, spec.n)
    _check_phase_range(spec, t_max)
    steps = max(2, int(math.ceil(t_max / grid_step)))
    ts = np.linspace(0.0, t_max, steps + 1)
    fids = np.abs(amplitude_series(graph, a, b, ts, spectrum=spec)) ** 2

    weights = spec.eigenvectors[b, :] * spec.eigenvectors[a, :]
    lambda_weights = spec.eigenvalues * weights

    def fid_slope(t: float):
        phases = np.exp(-1j * spec.eigenvalues * t)
        z = phases @ weights
        dz = -1j * (phases @ lambda_weights)
        return abs(z) ** 2, 2.0 * (z.conjugate() * dz).real

    # Peaks far below the curve's own scale are rounding noise (a curve that
    # is mathematically zero wiggles around 1e-32), not transfer events.
    floor = max(1e-12, float(fids.max()) * 1e-6)
    candidates = []
    for i in range(1, len(ts) - 1):
        # strict rise on the left so a plateau yields one candidate, not one
        # per grid point (a constant curve would otherwise refine everywhere)
        if fids[i] > floor and fids[i] > fids[i - 1] and fids[i] >= fids[i + 1]:
            candidates.append(_refine_peak(fid_slope, ts[i - 1], ts[i + 1]))
    if fids[-1] > floor and fids[-1] > fids[-2]:
        candidates.append(_refine_peak(fid_slope, ts[-2], ts[-1]))
    if not candidates:
        candidates.append(float(ts[1 + int(np.argmax(fids[1:]))]))

    peaks = []
    for t in sorted(candidates):
        if not peaks or t - peaks[-1] >= 1e-9:
            peaks.append(t)
    verdicts = [
        _verdict(a, b, amplitude(graph, a, b, t, spectrum=spec), tol)
        for t in peaks
    ]
    hits = [v for v in verdicts if v.kind != "none"]
    if hits:
        return hits
    best = max(verdicts, key=lambda v: v.fidelity)
    return [best]


# ---------------------------------------------------------------------------
# joins: closed-form amplitude and integrality conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinSpectralData:
    """Spectral bookkeeping for the join of regular graphs.

    For block sizes/degrees (n1, k1) and (n2, k2) of the join with a
    negated first block, delta_plus = -(k1+k2)/2, delta_minus =
    -(k1-k2)/2 and Delta = sqrt(delta_plus^2 + n1 n2).  The two join
    eigenvalues supported on both blocks are lambda_pm = delta_minus
    +/- Delta with eigenvector slope x_pm = (lambda_pm - k2)/n1 and
    normalisation L_pm = n1 x_pm^2 + n2.
    """

    n1: int
    k1: int
    n2: int
    k2: int
    delta_plus: float
    delta_minus: float
    Delta: float
    lambda_plus: float
    lambda_minus: float
    x_plus: float
    x_minus: float
    L_plus: float
    L_minus: float


def join_spectral_data(n1: int, k1: int, n2: int, k2: int) -> JoinSpectralData:
    if min(n1, n2) < 1 or min(k1, k2) < 0:
        raise ValueError("block sizes must be positive and degrees non-negative")
    dp = -(k1 + k2) / 2.0
    dm = -(k1 - k2) / 2.0
    Delta = math.sqrt(dp * dp + n1 * n2)
    lp, lm = dm + Delta, dm - Delta
    xp, xm = (lp - k2) / n1, (lm - k2) / n1
    return JoinSpectralData(
        n1, k1, n2, k2, dp, dm, Delta, lp, lm, xp, xm,
        n1 * xp * xp + n2, n1 * xm * xm + n2,
    )


def join_amplitude_formula(amp_g1: WalkAmplitude, stats1, stats2,
                           t: float) -> WalkAmplitude:
    """Closed-form amplitude inside the negated block of a join.

    ``amp_g1`` must be the time-reversed amplitude <b| exp(+i t A(G1)) |a>
    for vertices a, b of the first block, i.e. the amplitude of G1 alone
    evaluated at -t.  The join consists of the negated copy of G1, the
    positive copy of G2 and all-positive cross edges.
    """
    data = join_spectral_data(stats1.n, stats1.k, stats2.n, stats2.k)
    dp, dm, Delta = data.delta_plus, data.delta_minus, data.Delta
    osc = math.cos(t * Delta) - 1j * (dp / Delta) * math.sin(t * Delta)
    z = amp_g1.value + np.exp(-1j * t * dm) / stats1.n * (osc - np.exp(-1j * t * dp))
    return WalkAmplitude.from_complex(complex(z), float(t))


def signed_join_amplitude(g1: SignedGraph, g2: SignedGraph, a: int, b: int,
                          t: float) -> WalkAmplitude:
    """Closed-form amplitude a -> b (both in G1) of the join G1^- + G2^+.

    G1 must be connected and regular (the formula pins its top
    eigenvector to the all-ones vector); G2 must be regular.
    """
    from .core import is_connected
    from .construct import regular_stats

    stats1, stats2 = regular_stats(g1), regular_stats(g2)
    if not is_connected(g1):
        raise ValueError("the first join factor must be connected")
    a = _check_vertex("a", a, g1.n)
    b = _check_vertex("b", b, g1.n)
    amp_g1 = amplitude(g1, a, b, -float(t))
    return join_amplitude_formula(amp_g1, stats1, stats2, float(t))


@dataclass(frozen=True)
class JoinPstCondition:
    """Result of the join transfer divisibility test.

    ``branch`` is 1 or 2 for the congruence branch that fired, None when
    the condition fails.  ``Delta`` is sqrt((k1+k2)^2 + 4 n1 n2) / 2.
    """

    holds: bool
    Delta: float
    branch: Optional[int]


def join_pst_condition(k1: int, k2: int, n1: int, n2: int, D: int) -> JoinPstCondition:
    """Divisibility test for transfer at time pi/D in the join G1^- + G2^+.

    Requires G1 to have perfect state transfer at pi/D on its own.  The
    test asks for Delta = sqrt((k1+k2)^2 + 4 n1 n2)/2 to be an integer
    with either Delta = 0 (mod 2D) and k1+k2 = 0 (mod 4D), or
    Delta = D (mod 2D) and k1+k2 = 2D (mod 4D).
    """
    if D < 1:
        raise ValueError("D must be a positive integer")
    Delta = math.sqrt((k1 + k2) ** 2 + 4 * n1 * n2) / 2.0
    rounded = round(Delta)
    if abs(Delta - rounded) > 1e-9:
        return JoinPstCondition(False, Delta, None)
    s = k1 + k2
    if rounded % (2 * D) == 0 and s % (4 * D) == 0:
        return JoinPstCondition(True, Delta, 1)
    if rounded % (2 * D) == D % (2 * D) and s % (4 * D) == (2 * D) % (4 * D):
        return JoinPstCondition(True, Delta, 2)
    return JoinPstCondition(False, Delta, None)


def unsigned_k2_join_condition(k: int, n: int) -> JoinPstCondition:
    """Divisibility test for the plain (unsigned) join of an edge with a
    k-regular graph on n vertices: transfer between the edge ends needs
    Delta = sqrt((k-1)^2 + 8n) integral with k-1 and Delta divisible by 8.
    """
    Delta = math.sqrt((k - 1) ** 2 + 8 * n)
    rounded = round(Delta)
    if abs(Delta - rounded) > 1e-9:
        return JoinPstCondition(False, Delta, None)
    holds = (k - 1) % 8 == 0 and rounded % 8 == 0
    return JoinPstCondition(holds, Delta, 1 if holds else None)


def decomposition_transfer(g: SignedGraph, h: SignedGraph, a: int, b: int,
                           t: float) -> WalkAmplitude:
    """Amplitude of the union G^+ u H^- computed factor by factor.

    Valid when A(G) and A(H) commute exactly (integer check): then
    exp(-it(A(G) - A(H))) = exp(-itA(G)) exp(+itA(H)) and the amplitude
    is evaluated through the two small spectra instead of the union's.
    """
    ag, ah = g.adjacency, h.adjacency
    if ag.shape != ah.shape:
        raise ValueError("graphs must share a vertex set")
    if not np.array_equal(ag @ ah, ah @ ag):
        raise ValueError("adjacency matrices do not commute")
    spec_g, spec_h = eig_sym(g), eig_sym(h)
    a = _check_vertex("a", a, g.n)
    b = _check_vertex("b", b, g.n)
    vh, wh = spec_h.eigenvectors, spec_h.eigenvalues
    psi = (vh * np.exp(+1j * wh * float(t))) @ vh[a, :]
    vg, wg = spec_g.eigenvectors, spec_g.eigenvalues
    z = complex((vg[b, :] * np.exp(-1j * wg * float(t))) @ (vg.T @ psi))
    return WalkAmplitude.from_complex(z, float(t))
