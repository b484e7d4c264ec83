"""Equitable partitions and signed quotient graphs.

A partition of the vertices is equitable when every vertex of a cell j
sees the same number of positive and of negative neighbours inside each
cell k.  The signed cell degrees d[j,k] = d+ - d- then define a quotient
matrix B with

    B[j,k] = sign(d[j,k]) * sqrt(|d[j,k] * d[k,j]|)

(zero when the signed degree vanishes), which equals Q^T A Q for the
normalised partition indicator Q.  Walks commute with Q Q^T, so
amplitudes between singleton cells survive the quotient exactly.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import SignedGraph, WeightedGraph, _handed_over
from .spectral import WalkAmplitude, _check_vertex, amplitude

__all__ = [
    "Partition",
    "partition_from_cells",
    "partition_from_cell_of",
    "discrete_partition",
    "single_cell_partition",
    "read_partition",
    "write_partition",
    "format_partition",
    "EquitableProfile",
    "is_equitable",
    "normalized_partition_matrix",
    "QuotientGraph",
    "quotient",
    "coarsest_equitable",
    "TransferCheck",
    "quotient_transfer_check",
]


@dataclass(frozen=True, eq=False)
class Partition:
    """Ordered partition of 0..n-1 into non-empty cells."""

    cells: tuple
    cell_of: np.ndarray

    def __post_init__(self):
        self.cell_of.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.cell_of)

    @property
    def m(self) -> int:
        return len(self.cells)

    def sizes(self) -> np.ndarray:
        return np.array([len(c) for c in self.cells], dtype=np.int64)


def partition_from_cells(cells: Iterable[Sequence[int]], n: Optional[int] = None) -> Partition:
    """Build a partition from explicit cells (kept in the given order)."""
    normalized = tuple(tuple(sorted(int(v) for v in cell)) for cell in cells)
    if any(len(cell) == 0 for cell in normalized):
        raise ValueError("cells must be non-empty")
    flat = [v for cell in normalized for v in cell]
    if n is None:
        n = max(flat) + 1 if flat else 0
    if sorted(flat) != list(range(n)):
        raise ValueError(f"cells must partition 0..{n - 1} exactly")
    cell_of = np.zeros(n, dtype=np.int64)
    for j, cell in enumerate(normalized):
        for v in cell:
            cell_of[v] = j
    return Partition(normalized, cell_of)


def partition_from_cell_of(cell_of: Sequence[int]) -> Partition:
    """Build a partition from a cell-index vector; cells are numbered as
    their smallest vertices appear."""
    vec = np.asarray(cell_of)
    if vec.ndim != 1 or vec.dtype.kind not in "iu":
        vec = np.array([int(c) for c in cell_of])  # as int() reads them, any size
    _, first, inverse = np.unique(vec, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    labels = rank[inverse.reshape(-1)]
    members = np.argsort(labels, kind="stable").tolist()  # cell by cell, ascending
    ends = np.cumsum(np.bincount(labels, minlength=len(first))).tolist()
    cells = tuple(tuple(members[a:b]) for a, b in zip([0] + ends, ends))
    return Partition(cells, labels)


def discrete_partition(n: int) -> Partition:
    return partition_from_cells([[v] for v in range(n)], n=n)


def single_cell_partition(n: int) -> Partition:
    return partition_from_cells([list(range(n))], n=n)


def format_partition(p: Partition) -> str:
    return "\n".join(" ".join(str(v) for v in cell) for cell in p.cells) + "\n"


def write_partition(p: Partition, path) -> None:
    Path(path).write_text(format_partition(p))


def read_partition(path, n: Optional[int] = None) -> Partition:
    """Read a partition file: one cell per line, vertices space-separated."""
    cells = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            cells.append([int(tok) for tok in line.split()])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad vertex index") from None
    return partition_from_cells(cells, n=n)


@dataclass(frozen=True, eq=False)
class EquitableProfile:
    """Cell-to-cell edge counts of an equitable partition.

    ``d_plus[j, k]`` / ``d_minus[j, k]`` count positive / negative
    neighbours in cell k of any vertex in cell j; they satisfy the
    double-counting identity d[j,k] * |cell j| = d[k,j] * |cell k|
    layer by layer.
    """

    d_plus: np.ndarray
    d_minus: np.ndarray

    def __post_init__(self):
        self.d_plus.setflags(write=False)
        self.d_minus.setflags(write=False)

    @property
    def d_signed(self) -> np.ndarray:
        return self.d_plus - self.d_minus


_EDGE_SCANS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _edge_scan(g: SignedGraph) -> list:
    """Each layer's edges, each direction once, as arrays (v, u, multiplicity):
    the one read of the n x n layers that a count needs, made once per graph
    value (later calls return the same read-only arrays)."""
    scan = _EDGE_SCANS.get(g)
    if scan is None:
        scan = []
        for layer in (g.pos.ravel(), g.neg.ravel()):
            at = np.flatnonzero(layer != 0)  # a flat bool scan: a quarter of int64 nonzero's time
            v, u = np.divmod(at, g.n)
            scan.append((v, u, layer[at]))
            for a in scan[-1]:
                a.setflags(write=False)
        _EDGE_SCANS[g] = scan
    return scan


def _cell_counts(edges: list, p: Partition) -> np.ndarray:
    """Row v: the positive, then the negative neighbour counts of v in
    each cell of ``p`` (shape n x 2m), from :func:`_edge_scan`'s edges."""
    counts = np.zeros((p.n, 2, p.m), dtype=np.int64)
    for layer, (v, u, multiplicity) in enumerate(edges):
        np.add.at(counts[:, layer], (v, p.cell_of[u]), multiplicity)
    return counts.reshape(p.n, 2 * p.m)


def is_equitable(g: SignedGraph, p: Partition):
    """Check equitability for both edge layers at once.

    Returns (True, profile) or (False, None).
    """
    if p.n != g.n:
        raise ValueError("partition size does not match the graph")
    counts = _cell_counts(_edge_scan(g), p)
    _, first = np.unique(p.cell_of, return_index=True)  # first vertex of each cell
    rows = counts[first]
    if np.any(counts != rows[p.cell_of]):
        return False, None
    return True, EquitableProfile(rows[:, :p.m].copy(), rows[:, p.m:].copy())


def normalized_partition_matrix(p: Partition) -> np.ndarray:
    """Column-orthonormal indicator: column k is 1/sqrt(|cell k|) on cell k."""
    mat = np.zeros((p.n, p.m))
    mat[np.arange(p.n), p.cell_of] = 1 / np.sqrt(p.sizes())[p.cell_of]
    return mat


@dataclass(frozen=True, eq=False)
class QuotientGraph(WeightedGraph):
    """Weighted quotient graph with its partition and exact cell degrees.

    ``weights`` holds the floating-point quotient entries; the integer
    profile is kept alongside so every entry can be reproduced exactly
    as sign(d[j,k]) * sqrt(|d[j,k] d[k,j]|).
    """

    partition: Partition
    profile: EquitableProfile

    @property
    def matrix(self) -> np.ndarray:
        """The quotient matrix, the same array as ``weights``."""
        return self.weights


def quotient(g: SignedGraph, p: Partition) -> QuotientGraph:
    """Quotient of a signed graph over an equitable partition.

    The conjugated matrix Q^T A Q is verified against the closed-form
    entry rule to 1e-12 before being returned; its entry (j, k) is the net
    edge count from cell j to cell k over sqrt(|cell j| |cell k|).
    """
    ok, profile = is_equitable(g, p)
    if not ok:
        raise ValueError("partition is not equitable")
    pairs = p.m * p.m
    net = [np.bincount(p.cell_of[v] * p.m + p.cell_of[u], w, pairs) for v, u, w in _edge_scan(g)]
    conjugated = (net[0] - net[1]).reshape(p.m, p.m) / np.sqrt(np.outer(p.sizes(), p.sizes()))
    ds = profile.d_signed
    closed = np.sign(ds) * np.sqrt(np.abs(ds * ds.T).astype(float))
    if np.abs(conjugated - closed).max() > 1e-12:
        raise RuntimeError("quotient entry rule mismatch beyond 1e-12")
    # exactly symmetric: d[j,k] |cell j| = d[k,j] |cell k| gives both one sign
    return _handed_over(QuotientGraph, n=p.m, weights=closed, partition=p, profile=profile)


def coarsest_equitable(g: SignedGraph, seed: Optional[Partition] = None) -> Partition:
    """Coarsest equitable partition refining ``seed`` (default: one cell).

    Cells are split by their (positive, negative) neighbour-count
    signatures against the current cells; new cells are numbered as
    their smallest vertices appear, so the refinement is deterministic.
    """
    part = seed if seed is not None else single_cell_partition(g.n)
    if part.n != g.n:
        raise ValueError("seed partition size does not match the graph")
    edges = _edge_scan(g)
    while True:
        signatures = np.column_stack([part.cell_of, _cell_counts(edges, part)])
        # one opaque item per row: only equality matters, as cells are
        # renumbered by their first vertex
        rows = signatures.view(np.dtype((np.void, signatures.strides[0]))).ravel()
        _, new_cell_of = np.unique(rows, return_inverse=True)
        refined = partition_from_cell_of(new_cell_of.reshape(-1))
        if refined.m == part.m:
            return refined
        part = refined


@dataclass(frozen=True)
class TransferCheck:
    """Full-graph versus quotient amplitude between singleton cells."""

    full: WalkAmplitude
    reduced: WalkAmplitude
    agree: bool


def quotient_transfer_check(g: SignedGraph, p: Partition, a: int, b: int,
                            t: float, tol: float = 1e-10) -> TransferCheck:
    """Compare the walk on the graph with the walk on its quotient.

    The start and target vertices must form singleton cells; then the
    two amplitudes agree exactly and the check simply confirms the
    numerics to ``tol``.
    """
    a, b = _check_vertex("a", a, g.n), _check_vertex("b", b, g.n)
    ca, cb = int(p.cell_of[a]), int(p.cell_of[b])
    if len(p.cells[ca]) != 1 or len(p.cells[cb]) != 1:
        raise ValueError("transfer endpoints must be singleton cells")
    full = amplitude(g, a, b, t)
    reduced = amplitude(quotient(g, p), ca, cb, t)
    agree = abs(full.value - reduced.value) <= tol
    return TransferCheck(full, reduced, agree)
