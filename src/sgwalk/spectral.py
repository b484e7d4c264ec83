"""Spectral decomposition and continuous-time walk amplitudes.

The walk generated by a symmetric matrix A is U(t) = exp(-i t A).  With
the spectral decomposition A = sum_a a E_a the transfer amplitude is

    <b| U(t) |a> = sum_a exp(-i t a) <b| E_a |a>,

evaluated term by term at single times and on uneven time arrays, and on
a uniform grid from 0 (``np.linspace(0, T, N)``, the PST scan's grid) by
one chunked kernel that takes cos and sin by angle addition, so memory
there is O(chunk * n + points) at any grid size.  Perfect state transfer
(PST) between distinct vertices means the fidelity |<b|U(t)|a>|^2
reaches 1; periodicity is the same statement on the diagonal.

Eigenproblems are solved by LAPACK (``numpy.linalg.eigh``) under an
accuracy contract: reconstruction and orthonormality residuals within
1e-10.  A graph value's spectrum is computed once, on first use, and
kept until the graph is freed; only raw matrices are decomposed per call.
A (B, n, n) stack of matrices is decomposed by one call into a stacked
Spectrum, each row bit for bit that of its matrix alone, and the private
kernels take a leading batch of queries: vertex pairs of one shared
spectrum, or one pair per row of a stack, each with its own weights and
times.  A single matrix or pair is the batch of one.
The PST search scans its uniform grid through the same kernel, so its
memory does not grow with the horizon; Newton steps on the analytic
derivative of the fidelity, closed by a probe of adjacent floats, refine
each peak to a root, so PST times are exact to rounding.
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
    """Eigenvalues (descending) and an orthonormal eigenvector basis.

    A stack of B matrices gives eigenvalues of shape (B, n) and
    eigenvectors of shape (B, n, n), row for row; ``n`` is the matrix order
    either way.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[-1]


# graph -> Spectrum; graph values are read-only and hash by identity
_SPECTRA: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def eig_sym(graph_or_matrix) -> Spectrum:
    """Spectral decomposition of a symmetric matrix (or a graph's adjacency),
    or of each matrix of a (B, n, n) stack.

    Deterministic for a fixed input, and a stacked matrix gets the same bits
    as the matrix alone; eigenvalues are sorted descending with eigenvectors
    matched.  A graph value is decomposed once (later calls return the same
    Spectrum), a raw matrix or stack on every call.  Raises ValueError on an
    empty input, a non-finite entry or eigenvalue or an asymmetry beyond
    1e-12, and RuntimeError if the accuracy contract fails; for a stack the
    message names the first matrix that fails.
    """
    is_graph = hasattr(type(graph_or_matrix), "adjacency")  # without building it
    if is_graph and graph_or_matrix in _SPECTRA:
        return _SPECTRA[graph_or_matrix]
    A = adjacency_matrix(graph_or_matrix)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValueError("eig_sym expects a square matrix or a stack of them")
    if not A.size:
        raise ValueError("eig_sym expects a non-empty matrix or stack")
    stack = A.reshape((-1,) + A.shape[-2:])  # a single matrix is a stack of one

    def check(ok: np.ndarray, error: type, message: str) -> None:
        # negated comparisons build ``ok``, so that a NaN fails the check
        if not ok.all():
            where = f" (stack index {int(np.argmin(ok))})" if A.ndim == 3 else ""
            raise error(message + where)

    top = np.abs(stack).max(axis=(1, 2))  # NaN or inf for a matrix with such an entry
    check(np.isfinite(top), ValueError, "matrix has non-finite entries")
    scale = np.maximum(1.0, top)
    check(np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2)) <= 1e-12 * scale,
          ValueError, "matrix is not symmetric")
    w, v = np.linalg.eigh(stack)
    check(np.isfinite(w).all(axis=1), ValueError, "an eigenvalue overflows the float range")
    order, rows = np.argsort(-w, axis=1, kind="stable"), np.arange(len(w))[:, None]
    # the sorted rows of V^T, transposed: each V is column-major, as LAPACK returns it
    w, v = w[rows, order], v[rows, :, order].transpose(0, 2, 1)
    recon = np.abs((v * w[:, None, :]) @ v.transpose(0, 2, 1) - stack).max(axis=(1, 2))
    orth = np.abs(v.transpose(0, 2, 1) @ v - np.eye(w.shape[1])).max(axis=(1, 2))
    check((recon <= 1e-10 * scale) & (orth <= 1e-10), RuntimeError,
          "eigendecomposition failed its accuracy contract")
    spec = Spectrum(w.reshape(A.shape[:-1]), v.reshape(A.shape))
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


def _check_vertex(label: str, v, n: int):
    """``v`` as an int in 0..n-1, or as an int array for a batch of vertices."""
    if isinstance(v, (list, tuple, np.ndarray)) and np.ndim(v):  # a batch: name the first bad one
        v = np.asarray(v, dtype=int)
        bad = v[(v < 0) | (v >= n)]
        return _check_vertex(label, bad[0], n) if len(bad) else v
    v = int(v)
    if not 0 <= v < n:
        raise ValueError(f"vertex {label}={v} out of range for {n} vertices")
    return v


def _check_phase_range(spec: Spectrum, times) -> None:
    """Refuse times whose walk phases t * lambda have no correct bit.

    A stacked spectrum is checked row by row against row q of ``times``.
    """
    top = np.abs(spec.eigenvalues).max(axis=-1, initial=0.0)
    extent = np.abs(times).reshape(top.shape + (-1,)).max(axis=-1, initial=0.0) * top
    ok = extent < _PHASE_LIMIT  # a NaN extent is refused
    if not ok.all():
        i = int(np.argmin(np.ravel(ok)))
        where = f" (stack index {i})" if top.ndim else ""
        raise ValueError(f"|t| * max|eigenvalue| = {np.ravel(extent)[i]:.3g} >= 1/eps: "
                         f"the walk phase has no correct digit{where}")


def _weights(spec: Spectrum, a, b) -> np.ndarray:
    """Spectral weights v_b(lambda) * v_a(lambda) of the walk from a to b.

    Vertex arrays, a stacked spectrum or both make a batch of queries, one
    row of weights each; query q reads row q of a stack.
    """
    a, b = _check_vertex("a", a, spec.n), _check_vertex("b", b, spec.n)
    v = spec.eigenvectors
    rows = (np.arange(len(v)),) if v.ndim == 3 else ()
    return v[rows + (b,)] * v[rows + (a,)]


def _transfer(spec: Spectrum, weights: np.ndarray, times) -> np.ndarray:
    """<b| U(t) |a> for every t in ``times``: exp(-i t (x) lambda) @ weights.

    The result has the shape of ``times``; a batch of weights (see
    ``_weights``) takes times of shape (B, T), row q for query q.
    """
    times = np.asarray(times, dtype=float)
    _check_phase_range(spec, times)
    phases = np.exp(-1j * (times[..., None] * spec.eigenvalues[..., None, :]))
    return (phases @ weights[..., None]).reshape(times.shape)


def _fidelity(z: np.ndarray) -> np.ndarray:
    """|z|^2 elementwise, bit for bit abs(z) ** 2 of each Python complex."""
    return np.float_power(np.hypot(z.real, z.imag), 2)


def amplitude(graph, a: int, b: int, t: float) -> WalkAmplitude:
    """Transfer amplitude from vertex a to vertex b at time t."""
    t = float(t)
    spec = eig_sym(graph)
    return WalkAmplitude.from_complex(_transfer(spec, _weights(spec, a, b), [t])[0], t)


def amplitude_series(graph, a: int, b: int, times) -> np.ndarray:
    """Amplitudes <b|U(t)|a> for an array of times: a complex ndarray of the
    shape of ``times``.

    One-dimensional times that form the grid i * T / (N - 1), 0 <= i < N,
    exactly as ``np.linspace(0, T, N)`` gives them, go through the chunked
    grid kernel; any other times are evaluated term by term.
    """
    spec, times = eig_sym(graph), np.asarray(times)
    weights = _weights(spec, a, b)
    _check_phase_range(spec, times)  # before the grid test trips on an inf or a nan
    steps = len(times) - 1 if times.ndim == 1 else 0
    if steps < 1 or not (times[:-1] == np.arange(steps) * (times[-1] / steps)).all():
        return _transfer(spec, weights, times)
    out = np.empty(steps + 1, dtype=complex)
    for i0, cw, sw in _grid_amplitudes(spec.eigenvalues, weights, times[-1] / steps, steps):
        # 0.0 - sw, not -sw: a zero imaginary part is +0.0, so np.angle of a
        # negative real amplitude reads pi, not -pi
        out.real[i0:i0 + len(cw)], out.imag[i0:i0 + len(cw)] = cw, 0.0 - sw
    return out


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


def _check_tol(tol: float) -> None:
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, not {tol}")


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
    _check_tol(tol)
    return _verdict(int(a), int(b), amplitude(graph, a, b, t), tol)


def is_periodic_at(graph, a: int, t: float, tol: float = DEFAULT_TOL) -> PstVerdict:
    """Check periodicity at vertex a at time t."""
    _check_tol(tol)
    return _verdict(int(a), int(a), amplitude(graph, a, a, t), tol)


def is_periodic(graph, t: float, tol: float = DEFAULT_TOL) -> bool:
    """Whole-graph periodicity: every vertex returns at time t.

    One batched amplitude call over the diagonal weights of all vertices
    gives each vertex the bits ``is_periodic_at`` gives it.
    """
    _check_tol(tol)
    spec = eig_sym(graph)
    every = np.arange(spec.n)
    z = _transfer(spec, _weights(spec, every, every), np.full((spec.n, 1), float(t)))
    return bool((_fidelity(z) >= 1.0 - tol).all())


_SCAN_ROWS = 16384  # grid times (queries x times) per scan chunk: memory stays O(chunk * n)
_MAX_STEPS = 10 ** 9  # grid steps per search: t_max up to about 3.1e6, a scan of about 40 s
_PROBE = np.arange(-8, 9)  # float steps probed around a converged Newton point


def _fidelity_slope(eigenvalues: np.ndarray, cols: np.ndarray, times: np.ndarray,
                    counts: list) -> tuple:
    """(F, F' = dF/dt, F'' = d2F/dt2) at every t in ``times``, in real arithmetic.

    Query q owns the next ``counts[q]`` times and ``cols[q]``, which holds
    w, lambda w and lambda^2 w; ``eigenvalues`` is one shared spectrum or
    one row per query.  With C = cos(t (x) lambda) and S = sin(t (x) lambda)
    the amplitude is z = Cw - i Sw, so F = (Cw)^2 + (Sw)^2,
    F' = 2 [(Sw)(C lambda w) - (Cw)(S lambda w)] and F'' = 2 [(C lambda w)^2
    + (S lambda w)^2 - (Cw)(C lambda^2 w) - (Sw)(S lambda^2 w)].  Each
    query's times take one matrix product.
    """
    lam = eigenvalues if eigenvalues.ndim == 1 else np.repeat(eigenvalues, counts, axis=0)
    phases = times[:, None] * lam
    cos = np.cos(phases)
    sin = np.sin(phases, out=phases)
    if len(counts) == 1:
        cw, sw = cos @ cols[0], sin @ cols[0]
    else:
        cw, sw, start = np.empty((len(times), 3)), np.empty((len(times), 3)), 0
        for q, count in enumerate(counts):
            rows = slice(start, start + count)
            np.matmul(cos[rows], cols[q], out=cw[rows])
            np.matmul(sin[rows], cols[q], out=sw[rows])
            start += count
    square = cw ** 2 + sw ** 2  # F, and the first term of F''
    slope = 2.0 * (sw[:, 0] * cw[:, 1] - cw[:, 0] * sw[:, 1])
    curv = 2.0 * (square[:, 1] - cw[:, 0] * cw[:, 2] - sw[:, 0] * sw[:, 2])
    return square[:, 0], slope, curv


def _grid_amplitudes(eigenvalues: np.ndarray, weights: np.ndarray, dt: float,
                     steps: int, chunks: slice = slice(None)):
    """Yield (first index, Cw, Sw) for the chunks of the grid i * dt, 0 <= i <= steps.

    Cw = cos(t (x) lambda) @ w and Sw = sin(t (x) lambda) @ w, so the
    amplitude is Cw - i Sw and the fidelity (Cw)^2 + (Sw)^2.  With
    i = b B + j, 0 <= j < B, cos and sin are taken of the inner phases
    j dt lambda once and of each chunk's outer phases b B dt lambda; angle
    addition joins them, Cw = (c_b w) c_j - (s_b w) s_j and Sw = (s_b w) c_j
    + (c_b w) s_j, as one matrix product per chunk.  Weights of shape
    (Q, n), with one shared spectrum or one row per query, scan Q queries
    at once, Cw and Sw getting one row each; a chunk holds at most
    _SCAN_ROWS times over all queries, or one row of B times per query
    when Q rows are more than that.
    """
    width = min(_SCAN_ROWS, math.isqrt(steps) + 1)
    queries = math.prod(weights.shape[:-1])
    rows, count = max(1, _SCAN_ROWS // (width * queries)), steps // width + 1
    lam = eigenvalues[..., None, :]
    inner = (np.arange(width) * dt)[:, None] * lam
    inner = np.concatenate([np.cos(inner), np.sin(inner)], axis=-2).swapaxes(-1, -2)
    for b0 in range(0, count, rows)[chunks]:
        outer = (np.arange(b0, min(b0 + rows, count)) * width * dt)[:, None] * lam
        m = outer.shape[-2]
        outer = np.concatenate([np.cos(outer), np.sin(outer)], axis=-2)
        prod = (outer * weights[..., None, :]) @ inner
        cw = prod[..., :m, :width] - prod[..., m:, width:]
        sw = prod[..., m:, :width] + prod[..., :m, width:]
        end, shape = steps + 1 - b0 * width, cw.shape[:-2] + (-1,)
        yield b0 * width, cw.reshape(shape)[..., :end], sw.reshape(shape)[..., :end]


def _refine_peaks(eigenvalues: np.ndarray, cols: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray, counts: list) -> np.ndarray:
    """Time of the fidelity peak in every bracket [lo, hi]: the root of dF/dt.

    Query q owns the next ``counts[q]`` brackets and ``cols[q]``, as in
    ``_fidelity_slope``.  Where dF/dt falls from positive at lo to negative
    at hi, Newton steps on dF/dt run for all brackets together; each trial
    point moves a bracket end by its slope's sign, and the midpoint replaces
    a Newton point outside the bracket, on a convex stretch or not halving
    the previous step.  Once a step is below 2^-40 t, one call probes the
    floats around the point, and bisection closes any bracket left open:
    the peak is the midpoint of two adjacent floats, as bisection alone
    gives.  Elsewhere the peak is the end of the bracket with the higher
    fidelity.  A query's brackets meet the kernel together and in their
    order, so a batch of one is evaluated as a search of one pair alone.
    """
    k = len(lo)
    if len(counts) == 1:  # one query: its times need no bookkeeping
        tally = lambda rows: [len(rows)]
        fid, slope, _ = _fidelity_slope(eigenvalues, cols, np.concatenate([lo, hi]), [2 * k])
    else:  # each query's lo ends, then its hi ends, as one query's search passes them
        query = np.repeat(np.arange(len(counts)), counts)
        tally = lambda rows: np.bincount(query[live[rows]], minlength=len(counts)).tolist()
        ends = np.argsort(np.concatenate([query, query]), kind="stable")
        fid, slope = np.empty(2 * k), np.empty(2 * k)
        fid[ends], slope[ends], _ = _fidelity_slope(
            eigenvalues, cols, np.concatenate([lo, hi])[ends], [2 * count for count in counts])
    peaks = np.where(fid[:k] > fid[k:], lo, hi)
    live = np.flatnonzero((slope[:k] > 0.0) & (slope[k:] < 0.0))
    lo, hi = lo[live], hi[live]
    t, last, run, at = 0.5 * (lo + hi), hi - lo, np.arange(len(live)), np.empty_like(lo)
    per_query = tally(run)
    while len(run):
        _, slope, curv = _fidelity_slope(eigenvalues, cols, t, tally(run))
        up, concave = slope > 0.0, curv < 0.0
        lo[run] = a = np.where(up, t, lo[run])
        hi[run] = b = np.where(up, hi[run], t)
        # a Newton step is taken only where F is concave; elsewhere the midpoint
        step = np.divide(slope, curv, out=np.zeros_like(slope), where=concave)
        t, step = t - step, np.abs(step)
        close = concave & (step <= 2.0 ** -40 * t)
        newton = close | concave & (a < t) & (t < b) & (step <= 0.5 * last)
        t, last = np.where(newton, t, 0.5 * (a + b)), np.where(newton, step, b - a)
        at[run] = t
        more = ~close & (a < t) & (t < b)  # a midpoint at an end: the bracket is closed
        run, t, last = run[more], t[more], last[more]
    bits = lambda x: x.view(np.int64)[:, None]  # floats >= 0 count up with their bits
    # keep the last probe where dF/dt rises and the first one after it
    probe = np.clip(bits(at) + _PROBE, bits(lo), bits(hi)).view(float)
    up = _fidelity_slope(eigenvalues, cols, probe.ravel(),
                         [len(_PROBE) * count for count in per_query])[1].reshape(probe.shape) > 0.0
    lo = np.where(up & (probe < hi[:, None]), probe, lo[:, None]).max(axis=1)
    hi = np.where(~up & (probe > lo[:, None]), probe, hi[:, None]).min(axis=1)
    while True:
        mid = 0.5 * (lo + hi)
        if not ((lo < mid) & (mid < hi)).any():
            peaks[live] = mid
            return peaks
        rising = _fidelity_slope(eigenvalues, cols, mid, per_query)[1] > 0.0
        lo, hi = np.where(rising, mid, lo), np.where(rising, hi, mid)


def _pst_searches(spec: Spectrum, a, b, t_max: float, tol: float) -> list:
    """``pst_search`` for the vertex pairs (a[q], b[q]) of one spectrum, or for
    the single pair (a, b): a list of verdict lists, one per pair, from one
    grid scan, one refinement and one amplitude call for all pairs.

    A batch scans in shorter chunks than a single pair, so a peak that ties
    a grid neighbour to the last bit may be marked on the other side, and
    the last bits of a reported value may differ from the search alone.
    """
    weights, lam = _weights(spec, a, b), spec.eigenvalues
    scan = np.atleast_2d(weights)
    pairs = len(scan)
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
    best, tops, found, carry = np.zeros(pairs), [], [], np.empty((pairs, 0))
    for i0, cw, sw in _grid_amplitudes(lam, weights, dt, steps):
        fid = np.atleast_2d(cw ** 2 + sw ** 2)
        best = np.maximum(best, fid.max(axis=1))
        tops.append(fid[:, 1 if i0 == 0 else 0:].max(axis=1))
        close = [np.full((pairs, 1), -np.inf)] if i0 + fid.shape[1] > steps else []
        f = np.concatenate([carry, fid] + close, axis=1)
        peak = (f[:, 1:-1] > 1e-12) & (f[:, 1:-1] > f[:, :-2]) & (f[:, 1:-1] >= f[:, 2:])
        q, at = divmod(np.flatnonzero(peak), peak.shape[1])
        found.append((q, i0 - carry.shape[1] + 1 + at, f[q, 1 + at]))
        carry = f[:, -2:]
    q, at, f = (np.concatenate(x) for x in zip(*found))
    if pairs > 1:  # chunks interleave the pairs: each pair's peaks together, in grid order
        order = np.argsort(q, kind="stable")
        q, at, f = q[order], at[order], f[order]
    # Peaks far below the curve's own scale are rounding noise (a curve that
    # is mathematically zero wiggles around 1e-32), not transfer events.
    keep = f > np.maximum(1e-12, best[q] * 1e-6)
    q, at = q[keep], at[keep]
    cols = [np.column_stack([w, lam * w, lam * lam * w]) for w in scan]
    lo, hi = (np.where(i == steps, t_max, i * dt) for i in (at - 1, np.minimum(at + 1, steps)))
    size = _SCAN_ROWS // len(_PROBE)
    refined = np.concatenate([np.empty(0)] + [
        _refine_peaks(lam, cols, lo[i:i + size], hi[i:i + size],
                      np.bincount(q[i:i + size], minlength=pairs).tolist())
        for i in range(0, len(q), size)])

    # Brackets in grid order overlap at most at their ends, and each peak
    # lies in its bracket, so every pair's peaks come out sorted.
    peaks = [[] for _ in range(pairs)]
    for i, t in zip(q.tolist(), refined.tolist()):
        if not peaks[i] or t - peaks[i][-1] >= 1e-9:
            peaks[i].append(t)
    for i in (i for i in range(pairs) if not peaks[i]):
        # no peak: the earliest grid time within 1e-12 of the best grid fidelity
        top = max(m[i] for m in tops)
        c = next(c for c, m in enumerate(tops) if m[i] >= top - 1e-12)
        ((i0, cw, sw),) = _grid_amplitudes(lam, weights, dt, steps, slice(c, c + 1))
        fid = np.atleast_2d(cw ** 2 + sw ** 2)[i]
        j = i0 + next(j for j in np.flatnonzero(fid >= top - 1e-12) if i0 + j > 0)
        peaks[i] = [t_max if j == steps else float(j * dt)]

    count = max(map(len, peaks))  # each pair's peaks, padded with its last
    z = _transfer(spec, weights, [times + times[-1:] * (count - len(times)) for times in peaks])
    fid = _fidelity(z)
    over = np.flatnonzero(fid > 1.0 + 1e-9)  # WalkAmplitude's check, over every peak
    if len(over):
        raise ValueError(f"fidelity {fid.flat[over[0]]} exceeds 1")
    verdicts = []
    for i, (u, v) in enumerate(zip(np.atleast_1d(a).tolist(), np.atleast_1d(b).tolist())):
        # equal peaks differ below the 12 printed decimals: the earliest wins
        f = fid[i, :len(peaks[i])]
        keep = np.flatnonzero(f >= 1.0 - tol)
        if not len(keep):
            keep = np.flatnonzero(f >= f.max() - 1e-12)[:1]
        verdicts.append([_verdict(int(u), int(v), WalkAmplitude.from_complex(z[i, j], peaks[i][j]),
                                  tol) for j in keep])
    return verdicts


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
    is O(chunk * n + peaks) at any horizon.  ``tol`` must be finite.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    _check_tol(tol)
    return _pst_searches(eig_sym(graph), a, b, t_max, tol)[0]


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
    z = _join_amplitude(g1, stats1, [stats2.n], [stats2.k], [a], [b], [float(t)])[0]
    return WalkAmplitude.from_complex(complex(z), float(t))


def _join_amplitude(g1: SignedGraph, stats1, n2, k2, a, b, t) -> np.ndarray:
    """:func:`signed_join_amplitude`'s complex amplitudes for a batch of queries on
    one checked first factor (``stats1`` its regular_stats, G1 connected): query q
    joins a regular partner of ``n2[q]`` vertices and degree ``k2[q]`` and asks
    for a[q] -> b[q] at t[q].  G1's part is one :func:`_transfer` over its cached
    spectrum, the closed-form terms are array expressions."""
    n2, k2, t = (np.asarray(x, dtype=float) for x in (n2, k2, t))
    spec = eig_sym(g1)
    z = _transfer(spec, _weights(spec, a, b), -t[:, None])[:, 0]  # refuses a bad time first
    dp, dm = -(stats1.k + k2) / 2.0, -(stats1.k - k2) / 2.0
    Delta = np.sqrt(dp * dp + stats1.n * n2)
    osc = np.cos(t * Delta) - 1j * (dp / Delta) * np.sin(t * Delta)
    return z + np.exp(-1j * t * dm) / stats1.n * (osc - np.exp(-1j * t * dp))


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
