"""Spectral decomposition and continuous-time walk amplitudes.

The walk generated by a symmetric matrix A is U(t) = exp(-i t A).  With
the spectral decomposition A = sum_a a E_a the transfer amplitude is

    <b| U(t) |a> = sum_a exp(-i t a) <b| E_a |a>,

which is how every amplitude here is evaluated.  Perfect state transfer
(PST) between distinct vertices means the fidelity |<b|U(t)|a>|^2
reaches 1; periodicity is the same statement on the diagonal.

Eigenproblems are solved by LAPACK (``numpy.linalg.eigh``) under an
accuracy contract: reconstruction and orthonormality residuals within
1e-10.  A graph value's spectrum is computed once, on first use, and
kept until the graph is freed; only raw matrices are decomposed per call.
The PST search scans a uniform grid chunk by chunk, taking cos and sin by
angle addition, so its memory does not grow with the horizon; Newton steps
on the analytic derivative of the fidelity, closed by a probe of adjacent
floats, refine each peak to a root, so PST times are exact to rounding.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import SignedGraph, is_connected

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_GRID_STEP",
    "Spectrum",
    "adjacency_matrix",
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
    "signed_join_amplitude",
    "JoinPstCondition",
    "join_pst_condition",
    "unsigned_k2_join_condition",
]

DEFAULT_TOL = 1e-9            # fidelity slack for PST / periodicity verdicts
DEFAULT_GRID_STEP = 1e-3 * math.pi
# Beyond |t| * max|eigenvalue| = 1/eps the phase t * lambda has no correct bit.
_PHASE_LIMIT = 1.0 / np.finfo(float).eps


def adjacency_matrix(graph_or_matrix) -> np.ndarray:
    """Dense float adjacency of a graph value or a raw matrix."""
    a = getattr(graph_or_matrix, "adjacency", graph_or_matrix)
    return np.array(a, dtype=float)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues (descending) and an orthonormal eigenvector basis."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


# graph -> Spectrum; graph values are read-only and hash by identity
_SPECTRA: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def eig_sym(graph_or_matrix) -> Spectrum:
    """Spectral decomposition of a symmetric matrix (or a graph's adjacency).

    Deterministic for a fixed input; eigenvalues are sorted descending
    with eigenvectors matched.  A graph value is decomposed once (later
    calls return the same Spectrum), a raw matrix on every call.  Raises
    ValueError on a non-finite entry or eigenvalue or an asymmetry beyond
    1e-12, and RuntimeError if the accuracy contract fails.
    """
    is_graph = hasattr(type(graph_or_matrix), "adjacency")  # without building it
    if is_graph and graph_or_matrix in _SPECTRA:
        return _SPECTRA[graph_or_matrix]
    A = adjacency_matrix(graph_or_matrix)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("eig_sym expects a square matrix")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(A).max(initial=0.0)))
    if np.abs(A - A.T).max(initial=0.0) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    w, v = np.linalg.eigh(A)
    if not np.isfinite(w).all():
        raise ValueError("an eigenvalue overflows the float range")
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    recon = np.abs((v * w) @ v.T - A).max()
    orth = np.abs(v.T @ v - np.eye(len(w))).max()
    # negated comparisons so that a NaN residual fails the contract
    if not (recon <= 1e-10 * scale and orth <= 1e-10):
        raise RuntimeError("eigendecomposition failed its accuracy contract")
    spec = Spectrum(w, v)
    if is_graph:
        _SPECTRA[graph_or_matrix] = spec
    return spec


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
        imaginary part of either sign (or -0.0) from rounding alone.  An
        amplitude that rounds to 0 at 12 places has phase 0.0: its argument
        would be that of rounding residues.
        """
        if round(self.re, 12) == 0.0 == round(self.im, 12):
            return 0.0
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


def _weights(spec: Spectrum, a: int, b: int) -> np.ndarray:
    """Spectral weights v_b(lambda) * v_a(lambda) of the walk from a to b."""
    a = _check_vertex("a", a, spec.n)
    b = _check_vertex("b", b, spec.n)
    return spec.eigenvectors[b, :] * spec.eigenvectors[a, :]


def _transfer(spec: Spectrum, a: int, b: int, times) -> np.ndarray:
    """<b| U(t) |a> for every t in ``times``: exp(-i t (x) lambda) @ weights."""
    weights = _weights(spec, a, b)
    _check_phase_range(spec, times)
    return np.exp(-1j * np.outer(times, spec.eigenvalues)) @ weights


def amplitude(graph, a: int, b: int, t: float) -> WalkAmplitude:
    """Transfer amplitude from vertex a to vertex b at time t."""
    t = float(t)
    return WalkAmplitude.from_complex(_transfer(eig_sym(graph), a, b, [t])[0], t)


def amplitude_series(graph, a: int, b: int, times) -> np.ndarray:
    """Amplitudes <b|U(t)|a> for an array of times (complex ndarray)."""
    return _transfer(eig_sym(graph), a, b, times)


def propagator(graph, t: float) -> np.ndarray:
    """Full walk matrix U(t) = exp(-i t A)."""
    spec = eig_sym(graph)
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


def is_pst(graph, a: int, b: int, t: float, tol: float = DEFAULT_TOL) -> PstVerdict:
    """Check perfect state transfer a -> b at time t (a and b distinct)."""
    if int(a) == int(b):
        raise ValueError("is_pst needs distinct vertices; use is_periodic_at")
    return _verdict(int(a), int(b), amplitude(graph, a, b, t), tol)


def is_periodic_at(graph, a: int, t: float, tol: float = DEFAULT_TOL) -> PstVerdict:
    """Check periodicity at vertex a at time t."""
    return _verdict(int(a), int(a), amplitude(graph, a, a, t), tol)


def is_periodic(graph, t: float, tol: float = DEFAULT_TOL) -> bool:
    """Whole-graph periodicity: every vertex returns at time t."""
    return all(is_periodic_at(graph, a, t, tol).kind == "periodic"
               for a in range(eig_sym(graph).n))


_SCAN_ROWS = 16384  # grid times per scan chunk: memory stays O(chunk * n)
_MAX_STEPS = 10 ** 9  # grid steps per search: t_max up to about 3.1e6, a scan of about 40 s
_PROBE = np.arange(-8, 9)  # float steps probed around a converged Newton point


def _fidelity_slope(eigenvalues: np.ndarray, cols: np.ndarray, times) -> tuple:
    """(F, F' = dF/dt, F'' = d2F/dt2) at every t in ``times``, in real arithmetic.

    ``cols`` holds w, lambda w and lambda^2 w.  With C = cos(t (x) lambda) and
    S = sin(t (x) lambda) the amplitude is z = Cw - i Sw, so F = (Cw)^2 + (Sw)^2,
    F' = 2 [(Sw)(C lambda w) - (Cw)(S lambda w)] and F'' = 2 [(C lambda w)^2
    + (S lambda w)^2 - (Cw)(C lambda^2 w) - (Sw)(S lambda^2 w)].
    """
    phases = np.multiply.outer(times, eigenvalues)
    cw = np.cos(phases) @ cols
    sw = np.sin(phases, out=phases) @ cols
    fid = cw[:, 0] ** 2 + sw[:, 0] ** 2
    slope = 2.0 * (sw[:, 0] * cw[:, 1] - cw[:, 0] * sw[:, 1])
    curv = 2.0 * (cw[:, 1] ** 2 + sw[:, 1] ** 2 - cw[:, 0] * cw[:, 2] - sw[:, 0] * sw[:, 2])
    return fid, slope, curv


def _grid_fidelities(eigenvalues: np.ndarray, weights: np.ndarray, dt: float,
                     steps: int, chunks: slice = slice(None)):
    """Yield (first index, F) for the chunks of the grid i * dt, 0 <= i <= steps.

    With i = b B + j, 0 <= j < B, cos and sin are taken of the inner phases
    j dt lambda once and of each chunk's outer phases b B dt lambda; angle
    addition joins them, Cw = (c_b w) c_j - (s_b w) s_j and Sw = (s_b w) c_j
    + (c_b w) s_j, as one matrix product per chunk.
    """
    width = min(_SCAN_ROWS, math.isqrt(steps) + 1)
    rows, count = _SCAN_ROWS // width, steps // width + 1
    inner = np.multiply.outer(np.arange(width) * dt, eigenvalues)
    inner = np.vstack([np.cos(inner), np.sin(inner)]).T
    for b0 in range(0, count, rows)[chunks]:
        outer = np.multiply.outer(np.arange(b0, min(b0 + rows, count)) * width * dt, eigenvalues)
        m, prod = len(outer), (np.vstack([np.cos(outer), np.sin(outer)]) * weights) @ inner
        cw, sw = prod[:m, :width] - prod[m:, width:], prod[m:, :width] + prod[:m, width:]
        yield b0 * width, (cw ** 2 + sw ** 2).ravel()[:steps + 1 - b0 * width]


def _refine_peaks(eigenvalues: np.ndarray, cols: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> np.ndarray:
    """Time of the fidelity peak in every bracket [lo, hi]: the root of dF/dt.

    Where dF/dt falls from positive at lo to negative at hi, Newton steps on
    dF/dt run for all brackets together; each trial point moves a bracket end
    by its slope's sign, and the midpoint replaces a Newton point outside the
    bracket, on a convex stretch or not halving the previous step.  Once a
    step is below 2^-40 t, one call probes the floats around the point, and
    bisection closes any bracket left open: the peak is the midpoint of two
    adjacent floats, as bisection alone gives.  Elsewhere the peak is the end
    of the bracket with the higher fidelity.
    """
    fid, slope, _ = _fidelity_slope(eigenvalues, cols, np.concatenate([lo, hi]))
    k = len(lo)
    peaks = np.where(fid[:k] > fid[k:], lo, hi)
    live = np.flatnonzero((slope[:k] > 0.0) & (slope[k:] < 0.0))
    lo, hi = lo[live], hi[live]
    t, last, run, at = 0.5 * (lo + hi), hi - lo, np.arange(len(live)), np.empty_like(lo)
    while len(run):
        _, slope, curv = _fidelity_slope(eigenvalues, cols, t)
        up = slope > 0.0
        lo[run[up]], hi[run[~up]] = t[up], t[~up]
        a, b = lo[run], hi[run]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = slope / curv
        t = t - step
        close = (curv < 0.0) & (np.abs(step) <= 2.0 ** -40 * t)
        newton = close | (curv < 0.0) & (a < t) & (t < b) & (np.abs(step) <= 0.5 * last)
        t, last = np.where(newton, t, 0.5 * (a + b)), np.where(newton, np.abs(step), b - a)
        at[run] = t
        more = ~close & (a < t) & (t < b)  # a midpoint at an end: the bracket is closed
        run, t, last = run[more], t[more], last[more]
    bits = lambda x: x.view(np.int64)[:, None]  # floats >= 0 count up with their bits
    # keep the last probe where dF/dt rises and the first one after it
    probe = np.clip(bits(at) + _PROBE, bits(lo), bits(hi)).view(float)
    up = _fidelity_slope(eigenvalues, cols, probe.ravel())[1].reshape(probe.shape) > 0.0
    lo = np.where(up & (probe < hi[:, None]), probe, lo[:, None]).max(axis=1)
    hi = np.where(~up & (probe > lo[:, None]), probe, hi[:, None]).min(axis=1)
    while True:
        mid = 0.5 * (lo + hi)
        if not ((lo < mid) & (mid < hi)).any():
            peaks[live] = mid
            return peaks
        rising = _fidelity_slope(eigenvalues, cols, mid)[1] > 0.0
        lo, hi = np.where(rising, mid, lo), np.where(rising, hi, mid)


def pst_search(graph, a: int, b: int, t_max: float, *,
               tol: float = DEFAULT_TOL) -> list:
    """Scan (0, t_max] for transfer (a != b) or return (a == b) peaks.

    The fidelity curve is sampled on a uniform grid and every local
    maximum is refined to the root of dF/dt = 2 Re(conj(z) z'), where
    z' = sum -i lambda exp(-i lambda t) w_lambda.  All peaks with
    fidelity >= 1 - tol are reported; if none qualifies the earliest peak
    within 1e-12 of the best fidelity is returned with kind "none".  A
    curve without peaks (one that is zero to rounding, say) reports the
    earliest grid time within 1e-12 of its best grid fidelity.  Memory
    is O(chunk * n + peaks) at any horizon.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    spec = eig_sym(graph)
    weights, lam = _weights(spec, a, b), spec.eigenvalues
    a, b = int(a), int(b)
    _check_phase_range(spec, t_max)  # before a horizon like 1e300 sizes the grid
    steps = max(2, int(math.ceil(t_max / DEFAULT_GRID_STEP)))
    if steps > _MAX_STEPS:
        raise ValueError(f"t_max = {t_max:.6g} needs a scan of {steps + 1} grid times, more than "
                         f"the {_MAX_STEPS + 1} allowed: the largest horizon is "
                         f"{_MAX_STEPS * DEFAULT_GRID_STEP:.6g}")
    dt = t_max / steps  # grid time i is i * dt, the last t_max, as np.linspace gives

    # A local maximum rises strictly from its left neighbour, so a plateau
    # yields one candidate, not one per grid point; the last grid point counts
    # when the curve still rises into it.  Chunks carry their last two
    # fidelities into the next, and a sentinel closes the grid.
    best, tops, found, carry = 0.0, [], [], np.empty(0)
    for i0, fid in _grid_fidelities(lam, weights, dt, steps):
        best = max(best, float(fid.max()))
        tops.append(float(fid[1 if i0 == 0 else 0:].max()))
        f = np.concatenate([carry, fid, [-np.inf] if i0 + len(fid) > steps else []])
        at = 1 + np.flatnonzero((f[1:-1] > 1e-12) & (f[1:-1] > f[:-2]) & (f[1:-1] >= f[2:]))
        found.append((i0 - len(carry) + at, f[at]))
        carry = f[-2:]
    # Peaks far below the curve's own scale are rounding noise (a curve that
    # is mathematically zero wiggles around 1e-32), not transfer events.
    at = np.concatenate([i for i, _ in found])
    at = at[np.concatenate([f for _, f in found]) > max(1e-12, best * 1e-6)]
    if len(at):
        cols = np.column_stack([weights, lam * weights, lam * lam * weights])
        lo, hi = (np.where(i == steps, t_max, i * dt) for i in (at - 1, np.minimum(at + 1, steps)))
        size = _SCAN_ROWS // len(_PROBE)
        candidates = np.sort(np.concatenate([
            _refine_peaks(lam, cols, lo[i:i + size], hi[i:i + size])
            for i in range(0, len(lo), size)]))
    else:
        top = max(tops)
        c = next(c for c, m in enumerate(tops) if m >= top - 1e-12)
        ((i0, fid),) = _grid_fidelities(lam, weights, dt, steps, slice(c, c + 1))
        i = i0 + next(i for i in np.flatnonzero(fid >= top - 1e-12) if i0 + i > 0)
        candidates = [t_max if i == steps else i * dt]

    peaks = []
    for t in np.asarray(candidates).tolist():
        if not peaks or t - peaks[-1] >= 1e-9:
            peaks.append(t)
    verdicts = [
        _verdict(a, b, WalkAmplitude.from_complex(z, t), tol)
        for t, z in zip(peaks, _transfer(spec, a, b, peaks))
    ]
    hits = [v for v in verdicts if v.kind != "none"]
    # equal peaks differ below the 12 printed decimals: the earliest wins
    best = max(v.fidelity for v in verdicts)
    return hits or [next(v for v in verdicts if v.fidelity >= best - 1e-12)]


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


def signed_join_amplitude(g1: SignedGraph, g2: SignedGraph, a: int, b: int,
                          t: float) -> WalkAmplitude:
    """Closed-form amplitude a -> b (both in G1) of the join G1^- + G2^+:
    the negated copy of G1, the positive copy of G2 and all-positive cross
    edges.  G1's part enters as the time-reversed amplitude of G1 alone.

    G1 must be connected and regular (the formula pins its top
    eigenvector to the all-ones vector); G2 must be regular.
    """
    from .construct import regular_stats

    stats1, stats2 = regular_stats(g1), regular_stats(g2)
    if not is_connected(g1):
        raise ValueError("the first join factor must be connected")
    t = float(t)
    data = join_spectral_data(stats1.n, stats1.k, stats2.n, stats2.k)
    dp, dm, Delta = data.delta_plus, data.delta_minus, data.Delta
    osc = math.cos(t * Delta) - 1j * (dp / Delta) * math.sin(t * Delta)
    z = amplitude(g1, a, b, -t).value
    z += np.exp(-1j * t * dm) / stats1.n * (osc - np.exp(-1j * t * dp))
    return WalkAmplitude.from_complex(complex(z), t)


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
    square = (k1 + k2) ** 2 + 4 * n1 * n2
    Delta, root = math.sqrt(square) / 2.0, math.isqrt(square)
    if root * root != square or root % 2:  # exact: Delta = root / 2 must be an integer
        return JoinPstCondition(False, Delta, None)
    rounded = root // 2
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
    square = (k - 1) ** 2 + 8 * n
    Delta, rounded = math.sqrt(square), math.isqrt(square)
    if rounded * rounded != square:
        return JoinPstCondition(False, Delta, None)
    holds = (k - 1) % 8 == 0 and rounded % 8 == 0
    return JoinPstCondition(holds, Delta, 1 if holds else None)
