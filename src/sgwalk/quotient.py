"""Equitable partitions and signed quotient graphs.

A partition of the vertices is equitable when every vertex of a cell j
sees the same number of positive and of negative neighbours inside each
cell k.  The signed cell degrees d[j,k] = d+ - d- then define a quotient
matrix B with

    B[j,k] = sign(d[j,k]) * sqrt(|d[j,k] * d[k,j]|)

(zero when the signed degree vanishes), which equals Q^T A Q for the
normalised partition indicator Q.  Walks commute with Q Q^T, so
amplitudes between singleton cells survive the quotient exactly.

A partition is its vector of cell numbers.  Counts come from the graph's edge
view (``core._edge_view``, made from the edges of a value made from edges, as
every signed file is read, and otherwise by one scan of its layers), so neither
the refinement nor the quotient makes n x n layers.  The refinement works on
label vectors and splits cells on signatures packed into int64 words.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import SignedGraph, WeightedGraph, _edge_view, _handed_over
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
    """Ordered partition of 0..n-1 into non-empty cells, given by the cell
    number ``cell_of[v]`` of each vertex: cells are numbered 0..m-1, none
    empty, and cell j holds the vertices numbered j, in ascending order."""

    cell_of: np.ndarray

    def __post_init__(self):
        labels = np.array(self.cell_of)
        kinds = np.unique(labels) if labels.ndim == 1 and labels.dtype.kind in "iu" else None
        if kinds is None or np.any(kinds != np.arange(len(kinds))):
            raise ValueError("cell_of must be a 1-D integer array numbering its cells 0..m-1")
        object.__setattr__(self, "cell_of", labels.astype(np.int64))
        self.cell_of.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.cell_of)

    @property
    def m(self) -> int:
        return int(self.cell_of.max(initial=-1)) + 1

    def sizes(self) -> np.ndarray:
        return np.bincount(self.cell_of)

    @property
    def cells(self) -> tuple:
        members = np.argsort(self.cell_of, kind="stable").tolist()
        ends = np.cumsum(self.sizes()).tolist()
        return tuple(tuple(members[a:b]) for a, b in zip([0] + ends, ends))


def partition_from_cells(cells: Iterable[Sequence[int]], n: Optional[int] = None) -> Partition:
    """Build a partition from explicit cells (kept in the given order)."""
    try:
        normalized = [list(map(operator.index, cell)) for cell in cells]
    except TypeError as exc:  # a float, say, whose int() would be silently another vertex
        raise ValueError(f"cells must list integer vertices: {exc}") from None
    sizes = [len(cell) for cell in normalized]
    if 0 in sizes:
        raise ValueError("cells must be non-empty")
    if n is None:
        n = max(map(max, normalized), default=-1) + 1
    try:
        flat = np.fromiter(itertools.chain.from_iterable(normalized), np.int64, sum(sizes))
    except OverflowError:  # a vertex beyond int64 lies outside 0..n-1
        flat = None
    in_range = flat is not None and (not len(flat) or 0 <= flat.min() and flat.max() < n)
    if not in_range or (np.bincount(flat, minlength=n) != 1).any():  # each vertex once
        raise ValueError(f"cells must partition 0..{n - 1} exactly")
    cell_of = np.empty(n, dtype=np.int64)
    cell_of[flat] = np.repeat(np.arange(len(normalized)), sizes)
    return _handed_over(Partition, cell_of=cell_of)


def partition_from_cell_of(cell_of: Sequence[int]) -> Partition:
    """Build a partition from a cell-index vector; cells are numbered as
    their smallest vertices appear."""
    vec = np.asarray(cell_of)
    if vec.ndim != 1 or vec.dtype.kind not in "iu":
        vec = np.array([int(c) for c in cell_of])  # as int() reads them, any size
    _, first, inverse = np.unique(vec, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))  # of each cell's first vertex
    return _handed_over(Partition, cell_of=rank[inverse.reshape(-1)])


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


def _cell_counts(g: SignedGraph, labels: np.ndarray, m: int) -> np.ndarray:
    """Row v: the positive, then the negative neighbour counts of v in each
    of the m cells of ``labels`` (shape n x 2m), from the graph's edge view:
    one ``np.bincount`` over its entries weighted by their multiplicities, so
    a pair of multiplicity 10^9 costs what a single edge does."""
    rows, cols, layers = _edge_view(g)
    at, size = (rows * (2 * m) + labels[cols] + [[0], [m]]).ravel(), len(labels) * 2 * m
    counts = np.bincount(at, layers.ravel(), size)
    if counts.max(initial=0) < 2 ** 53:  # non-negative weights: no partial sum was rounded
        return counts.astype(np.int64).reshape(len(labels), 2 * m)
    counts = np.zeros(size, dtype=np.int64)  # sums the float64 weights cannot hold exactly
    np.add.at(counts, at, layers.ravel())
    return counts.reshape(len(labels), 2 * m)


def is_equitable(g: SignedGraph, p: Partition):
    """Check equitability for both edge layers at once.

    Returns (True, profile) or (False, None).
    """
    if p.n != g.n:
        raise ValueError("partition size does not match the graph")
    counts = _cell_counts(g, p.cell_of, p.m)
    rows = counts[np.unique(p.cell_of, return_index=True)[1]]  # each cell's first vertex
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
    rows, cols, (pos, neg) = _edge_view(g)
    net = np.bincount(p.cell_of[rows] * p.m + p.cell_of[cols], pos - neg, p.m * p.m)
    conjugated = net.reshape(p.m, p.m) / np.sqrt(np.outer(p.sizes(), p.sizes()))
    ds = profile.d_signed
    closed = np.sign(ds) * np.sqrt(np.abs(ds * ds.T).astype(float))
    if np.abs(conjugated - closed).max() > 1e-12:
        raise RuntimeError("quotient entry rule mismatch beyond 1e-12")
    # exactly symmetric: d[j,k] |cell j| = d[k,j] |cell k| gives both one sign
    return _handed_over(QuotientGraph, n=p.m, weights=closed, partition=p, profile=profile)


def coarsest_equitable(g: SignedGraph, seed: Optional[Partition] = None) -> Partition:
    """Coarsest equitable partition refining ``seed`` (default: one cell).

    Cells are split by their (positive, negative) neighbour-count
    signatures against the current cells; new cells are numbered as their
    smallest vertices appear, so the refinement is deterministic.

    A vertex's signature is packed into int64 words of b-bit fields, one
    field per (cell, layer), where b is the bit length of the largest degree
    in a layer: no count exceeds it, so the fields never carry into each
    other and equal words mean equal counts, at any multiplicity.  A round is
    one ``np.add.at`` over the non-zero entries of the edge view and one
    ``np.lexsort`` of the (cell, words) rows.
    """
    seed = single_cell_partition(g.n) if seed is None else seed
    if seed.n != g.n:
        raise ValueError("seed partition size does not match the graph")
    rows, cols, layers = _edge_view(g)
    layer, entry = np.nonzero(layers)
    rows, cols, counts = rows[entry], cols[entry], layers[layer, entry]
    degrees = np.zeros(2 * g.n, dtype=np.int64)  # of each vertex in each layer, exactly
    np.add.at(degrees, layer * g.n + rows, counts)
    width = max(1, int(degrees.max()).bit_length())
    per_word = 63 // width  # fields of a non-negative int64
    labels, m = seed.cell_of, seed.m
    while True:
        field, size = 2 * labels[cols] + layer, -(-2 * m // per_word)
        words = np.zeros(g.n * size, dtype=np.int64)
        np.add.at(words, rows * size + field // per_word, counts << width * (field % per_word))
        keys = (*words.reshape(g.n, size).T, labels)
        order = np.lexsort(keys)  # by the cell, then by the words
        new = np.zeros(g.n, dtype=bool)  # where a row differs from the one before it
        new[0] = True
        for key in keys:
            ranked = key[order]
            new[1:] |= ranked[1:] != ranked[:-1]
        group = np.cumsum(new) - 1
        if group[-1] + 1 == m:
            return partition_from_cell_of(labels)
        labels, m = np.empty(g.n, dtype=np.int64), int(group[-1]) + 1
        labels[order] = group


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
    if (p.sizes()[[ca, cb]] != 1).any():
        raise ValueError("transfer endpoints must be singleton cells")
    full = amplitude(g, a, b, t)
    reduced = amplitude(quotient(g, p), ca, cb, t)
    agree = abs(full.value - reduced.value) <= tol
    return TransferCheck(full, reduced, agree)
