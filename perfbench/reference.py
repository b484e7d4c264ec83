"""Independent references for checking the program's outputs.

Everything here is numpy plus the standard library: spectra come from
``numpy.linalg.eigh``, never from the program's eigensolver, and the edge
lists, partitions and powers are rebuilt from their definitions.  Each
``check_*`` function returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

GRID_STEP = 1e-3 * math.pi   # the program's documented pst-search grid
VALUE_TOL = 1e-9             # printed values carry 12 decimals
TIME_TOL = 1e-6              # pst-search times are refined to about 1e-8


# --- graphs -----------------------------------------------------------------


def edge_array(pos, neg) -> np.ndarray:
    """(u, v, sign) rows with u < v from a positive and a negative layer."""
    rows = []
    for layer, sign in ((pos, 1), (neg, -1)):
        u, v = np.nonzero(np.triu(np.asarray(layer)))
        rows.append(np.column_stack([u, v, np.full(len(u), sign)]))
    return np.concatenate(rows).astype(np.int64)


def relabel(edges: np.ndarray, perm: np.ndarray) -> np.ndarray:
    u, v = perm[edges[:, 0]], perm[edges[:, 1]]
    return np.column_stack([np.minimum(u, v), np.maximum(u, v), edges[:, 2]])


def switch(edges: np.ndarray, signs: np.ndarray) -> np.ndarray:
    out = edges.copy()
    out[:, 2] *= signs[edges[:, 0]] * signs[edges[:, 1]]
    return out


def dense(n: int, edges: np.ndarray) -> np.ndarray:
    net = np.zeros((n, n))
    net[edges[:, 0], edges[:, 1]] += edges[:, 2]
    net[edges[:, 1], edges[:, 0]] += edges[:, 2]
    return net


def edge_text(n: int, edges: np.ndarray) -> str:
    lines = [f"n {n}"]
    lines += [f"{u} {v} {'+1' if s > 0 else '-1'}" for u, v, s in edges.tolist()]
    return "\n".join(lines) + "\n"


def parse_graph(text: str):
    """Edge-list output: (n, weighted matrix, state labels)."""
    n = None
    entries = []
    states = []
    for raw in text.splitlines():
        body, _, comment = raw.partition("#")
        comment = comment.strip()
        if comment.startswith("state "):
            states.append(comment.split("=", 1)[1].strip())
        parts = body.split()
        if not parts:
            continue
        if n is None:
            if parts[0] != "n" or len(parts) != 2:
                raise ValueError(f"bad header {raw!r}")
            n = int(parts[1])
            continue
        entries.append((int(parts[0]), int(parts[1]), float(parts[2])))
    if n is None:
        raise ValueError("no header")
    mat = np.zeros((n, n))
    for u, v, w in entries:
        mat[u, v] += w
        if u != v:
            mat[v, u] += w
    return n, mat, states


# --- walks ------------------------------------------------------------------


class Walk:
    """exp(-itA) through numpy's eigh."""

    def __init__(self, a: np.ndarray):
        self.w, self.v = np.linalg.eigh(a)

    def amp(self, a: int, b: int, t):
        weights = self.v[a] * self.v[b]
        return np.exp(-1j * np.multiply.outer(np.asarray(t, dtype=float), self.w)) @ weights

    def fid(self, a: int, b: int, t):
        return np.abs(self.amp(a, b, t)) ** 2


def _golden_max(f, lo: float, hi: float) -> float:
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - inv * (hi - lo), lo + inv * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-12:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv * (hi - lo)
            f1 = f(x1)
    return (lo + hi) / 2.0


def transfer_peaks(walk: Walk, a: int, b: int, t_max: float, tol: float):
    """Highest grid peak and the refined peaks of fidelity >= 1 - tol on (0, t_max].

    A grid peak rises strictly from its left neighbour and does not fall to
    its right one; the last grid point counts when it rises.
    """
    steps = max(2, int(math.ceil(t_max / GRID_STEP)))
    ts = np.linspace(0.0, t_max, steps + 1)
    f = walk.fid(a, b, ts)
    inner = np.nonzero((f[1:-1] > f[:-2]) & (f[1:-1] >= f[2:]))[0] + 1
    brackets = [(ts[i - 1], ts[i + 1], f[i]) for i in inner]
    if f[-1] > f[-2]:
        brackets.append((ts[-2], ts[-1], f[-1]))
    best = max((fb for _, _, fb in brackets), default=0.0)
    brackets = [(lo, hi) for lo, hi, fb in brackets if fb > 0.99]
    peaks = []
    for lo, hi in brackets:
        t = _golden_max(lambda x: float(walk.fid(a, b, x)), lo, hi)
        if walk.fid(a, b, t) >= 1.0 - tol:
            peaks.append(t)
    return float(best), peaks


def check_pst(walk: Walk, a: int, b: int, t_max: float, verdicts, tol: float = 1e-9,
              exact_times=()) -> list:
    """``verdicts`` are (t, fidelity, phase, kind) rows from pst_search."""
    problems = []
    if not verdicts:
        return ["no verdict returned"]
    hit_kind = "periodic" if a == b else "pst"
    for t, fid, phase, kind in verdicts:
        ref = complex(walk.amp(a, b, t))
        if abs(abs(ref) ** 2 - fid) > VALUE_TOL:
            problems.append(f"t={t}: fidelity {fid} != reference {abs(ref) ** 2}")
        if abs(ref) ** 2 > 1e-6 and abs(np.angle(ref * np.exp(-1j * phase))) > 1e-6:
            problems.append(f"t={t}: phase {phase} != reference {np.angle(ref)}")
        if kind != (hit_kind if fid >= 1.0 - tol else "none"):
            problems.append(f"t={t}: kind {kind} for fidelity {fid}")
        if not 0.0 < t <= t_max + 1e-12:
            problems.append(f"t={t} outside (0, {t_max}]")
    grid_best, peaks = transfer_peaks(walk, a, b, t_max, 1e-10)
    hits = [t for t, _, _, kind in verdicts if kind != "none"]
    if hits:
        if len(hits) != len(verdicts):
            problems.append("transfer hits mixed with a 'none' verdict")
    else:
        if len(verdicts) != 1:
            problems.append("more than one 'none' verdict")
        if verdicts[0][1] < grid_best - VALUE_TOL:
            problems.append(f"best peak {verdicts[0][1]} below grid peak {grid_best}")
    for t in list(peaks) + [t for t in exact_times if t <= t_max - TIME_TOL]:
        if not any(abs(t - h) <= TIME_TOL for h in hits):
            problems.append(f"missed transfer peak at t={t}")
    return problems


# --- powers -----------------------------------------------------------------


def subset_sums(w: np.ndarray, k: int, repeat: bool) -> np.ndarray:
    pick = itertools.combinations_with_replacement if repeat else itertools.combinations
    return np.sort([sum(w[list(c)]) for c in pick(range(len(w)), k)])


def check_power_spectrum(base: np.ndarray, k: int, mat: np.ndarray, repeat: bool) -> list:
    """Exterior (k-subsets) or boson (k-multisets) spectra are k-sums of the base."""
    want = subset_sums(np.linalg.eigvalsh(base), k, repeat)
    got = np.linalg.eigvalsh(mat)
    if got.shape != want.shape:
        return [f"{len(got)} eigenvalues, expected {len(want)}"]
    err = float(np.abs(got - want).max())
    return [] if err <= 1e-8 * max(1.0, float(np.abs(want).max())) else [f"spectrum off by {err}"]


def exterior_support(base: np.ndarray, k: int) -> np.ndarray:
    """A ~ B iff they differ in one element u -> v with uv an edge."""
    subsets = list(itertools.combinations(range(base.shape[0]), k))
    index = {s: i for i, s in enumerate(subsets)}
    out = np.zeros((len(subsets), len(subsets)), dtype=bool)
    for s in subsets:
        members = set(s)
        for u in s:
            for v in np.nonzero(base[u])[0].tolist():
                if v not in members:
                    out[index[s], index[tuple(sorted(members - {u} | {v}))]] = True
    return out


def state_labels(n: int, k: int, repeat: bool) -> list:
    pick = itertools.combinations_with_replacement if repeat else itertools.combinations
    return [str(c) for c in pick(range(n), k)]


# --- partitions -------------------------------------------------------------


def indicator(cell_of: np.ndarray) -> np.ndarray:
    """Float 0/1 cell indicator: counts stay exact, products go through BLAS."""
    return np.eye(int(cell_of.max()) + 1)[cell_of]


def coarsest_refinement(pos: np.ndarray, neg: np.ndarray, cell_of: np.ndarray) -> np.ndarray:
    """Coarsest equitable partition refining ``cell_of`` (cell numbers only)."""
    while True:
        ind = indicator(cell_of)
        sig = np.column_stack([cell_of, pos @ ind, neg @ ind])
        _, new = np.unique(sig, axis=0, return_inverse=True)
        new = new.reshape(-1)
        if new.max() == cell_of.max():
            return new
        cell_of = new


def check_quotient(pos, neg, seed_vertex: int, cells, matrix, expected_cells=None) -> list:
    pos, neg = pos.astype(float), neg.astype(float)
    n = pos.shape[0]
    cell_of = np.full(n, -1)
    for j, cell in enumerate(cells):
        cell_of[list(cell)] = j
    if (cell_of < 0).any() or sum(len(c) for c in cells) != n:
        return ["cells do not partition the vertices"]
    problems = []
    if [seed_vertex] not in [list(c) for c in cells]:
        problems.append(f"vertex {seed_vertex} is not a singleton cell")
    ind = indicator(cell_of)
    for layer in (pos @ ind, neg @ ind):
        for j in range(len(cells)):
            rows = layer[cell_of == j]
            if (rows != rows[0]).any():
                problems.append(f"cell {j} is not equitable")
                return problems
    seed = np.where(np.arange(n) == seed_vertex, 0, 1)
    want = coarsest_refinement(pos, neg, seed)
    if int(want.max()) + 1 != len(cells):
        problems.append(f"{len(cells)} cells, coarsest has {int(want.max()) + 1}")
    if expected_cells is not None and len(cells) != expected_cells:
        problems.append(f"{len(cells)} cells, expected {expected_cells}")
    q = ind / np.sqrt(ind.sum(axis=0))
    if np.abs(q.T @ (pos - neg) @ q - np.asarray(matrix)).max() > VALUE_TOL:
        problems.append("quotient matrix differs from Q^T A Q")
    return problems


# --- signs ------------------------------------------------------------------


def constant_sign_switching(net: np.ndarray, target: int):
    """Switching d with d_u A_uv d_v == target on every edge, or None."""
    n = net.shape[0]
    d = np.zeros(n, dtype=np.int64)
    for root in range(n):
        if d[root]:
            continue
        d[root] = 1
        stack = [root]
        while stack:
            u = stack.pop()
            for v in np.nonzero(net[u])[0].tolist():
                if d[v] == 0:
                    d[v] = d[u] * int(net[u, v]) * target
                    stack.append(v)
    u, v = np.nonzero(np.triu(net))
    return d if np.all(d[u] * net[u, v] * d[v] == target) else None


def check_balance(net: np.ndarray, text: str) -> list:
    fields = dict(line.split(" ", 1) for line in text.strip().splitlines())
    bal = constant_sign_switching(net, 1)
    anti = constant_sign_switching(net, -1)
    status = "balanced" if bal is not None else "antibalanced" if anti is not None else "neither"
    problems = []
    if fields.get("status") != status:
        problems.append(f"status {fields.get('status')}, expected {status}")
    also = "true" if (bal is not None and anti is not None) else "false"
    if fields.get("also_antibalanced") != also:
        problems.append(f"also_antibalanced {fields.get('also_antibalanced')}, expected {also}")
    witness = fields.get("witness", "none")
    if status == "neither":
        if witness != "none":
            problems.append("witness given for a graph that is neither")
    else:
        d = np.array([int(x) for x in witness.split()])
        target = 1 if status == "balanced" else -1
        u, v = np.nonzero(np.triu(net))
        if len(d) != net.shape[0] or not np.all(d[u] * net[u, v] * d[v] == target):
            problems.append("witness does not switch to a constant sign")
    return problems
