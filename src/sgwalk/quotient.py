"""Equitable partitions and signed quotient graphs.

A partition of the vertices is equitable when every vertex of a cell j
sees the same number of positive and of negative neighbours inside each
cell k.  The signed cell degrees d[j,k] = d+ - d- then define a quotient
matrix B with

    B[j,k] = sign(d[j,k]) * sqrt(|d[j,k] * d[k,j]|)

(zero when the signed degree vanishes), which equals Q^T A Q for the
normalised partition indicator Q.  Walks commute with Q Q^T, so
amplitudes between singleton cells survive the quotient exactly.
``quotient(g, seed)`` is over the coarsest equitable partition refining any
seed, and an equitable seed is kept as given.

A partition is its vector of cell numbers.  Counts come from the graph's edge
view (``core._edge_view``: from the edges of a value made from edges, as every
signed file is read, else by one scan of its layers), so no n x n layers are made.
The refinement, the equitability check and the quotient share one count pass,
exact below 2^63 edges per vertex and layer and refused at or above.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import SignedGraph, WeightedGraph, _edge_view, _handed_over

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
    elif n < 0:
        raise ValueError(f"a partition needs n >= 0 vertices, got n={n}")
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


def _signature_rounds(g: SignedGraph, labels: np.ndarray, m: int):
    """The refinement from the m cells of ``labels``, by rounds: each yields its
    labels, signature words (a row per vertex) and field width b, then splits its
    cells, until one splits none.  The words pack a vertex's counts into b-bit
    fields, one per (layer, cell), b the bit length of the largest degree in a
    layer: no count exceeds it, so equal words mean equal counts."""
    rows, cols, layers = _edge_view(g)
    keep = layers.ravel() != 0  # the non-zero entries, the positive layer's first
    rows, cols, counts = (np.concatenate(a)[keep] for a in ((rows, rows), (cols, cols), layers))
    layer = np.arange(len(rows)) >= np.count_nonzero(keep[:len(keep) // 2])
    at = layer * g.n + rows
    degrees = np.zeros(2 * g.n, dtype=np.int64)  # of each vertex in each layer, modulo 2^64
    np.add.at(degrees, at, counts)
    # a sum in [2^63, 2^64) wraps negative; the float sums (to 1 +- n 2^-53) tell 2^64 and more
    if degrees.min() < 0 or np.bincount(at, counts, 2 * g.n).max() >= 1.5 * 2 ** 63:
        raise ValueError("a vertex has 2^63 or more edges in one layer: its counts exceed int64")
    width = max(1, int(degrees.max()).bit_length())
    per_word = 63 // width  # fields of a non-negative int64
    while True:
        field, size = layer * m + labels[cols], -(-2 * m // per_word)
        word = field // per_word  # and field - word * per_word its slot: % is slower
        words = np.zeros(g.n * size, dtype=np.int64)
        np.add.at(words, rows * size + word, counts << width * (field - word * per_word))
        yield labels, words.reshape(g.n, size), width
        keys = (*words.reshape(g.n, size).T, labels)
        order = np.lexsort(keys)  # by the cell, then by the words
        new = np.arange(g.n) == 0  # where a row differs from the one before it
        for key in keys:
            ranked = key[order]
            new[1:] |= ranked[1:] != ranked[:-1]
        group = np.cumsum(new) - 1
        if group[-1] + 1 == m:
            return
        labels, m = np.empty(g.n, dtype=np.int64), int(group[-1]) + 1
        labels[order] = group


def _profile(rows: np.ndarray, width: int, order: np.ndarray) -> EquitableProfile:
    """The profile in a row of signature words per cell, cell k's counts in the
    fields of round label ``order[k]``: gathered once, shifted and masked in place."""
    m, per_word = len(order), 63 // width
    field = np.concatenate([order, order + m])  # the + fields, then the - fields
    counts = rows[:, field // per_word]
    counts >>= width * (field % per_word)
    counts &= (1 << width) - 1
    return EquitableProfile(counts[:, :m], counts[:, m:])


def is_equitable(g: SignedGraph, p: Partition):
    """Check equitability for both edge layers at once: (True, profile) when every
    vertex's signature words are its cell's first vertex's, whose fields are the
    profile, else (False, None)."""
    if p.n != g.n:
        raise ValueError("partition size does not match the graph")
    _, words, width = next(_signature_rounds(g, p.cell_of, p.m))
    rows = words[np.unique(p.cell_of, return_index=True)[1]]  # each cell's first vertex
    if (words != rows[p.cell_of]).any():
        return False, None
    return True, _profile(rows, width, np.arange(len(rows)))


def normalized_partition_matrix(p: Partition) -> np.ndarray:
    """Column-orthonormal indicator: column k is 1/sqrt(|cell k|) on cell k."""
    mat = np.zeros((p.n, p.m))
    mat[np.arange(p.n), p.cell_of] = 1 / np.sqrt(p.sizes())[p.cell_of]
    return mat


@dataclass(frozen=True, eq=False)
class QuotientGraph(WeightedGraph):
    """Weighted quotient graph with its equitable partition and exact cell degrees.

    ``weights`` holds the floating-point quotient entries; the integer
    profile, in the partition's cell order, is kept alongside so every entry
    can be reproduced exactly as sign(d[j,k]) * sqrt(|d[j,k] d[k,j]|).
    """

    partition: Partition
    profile: EquitableProfile

    @property
    def matrix(self) -> np.ndarray:
        """The quotient matrix, the same array as ``weights``."""
        return self.weights


def quotient(g: SignedGraph, p: Partition) -> QuotientGraph:
    """Quotient of a signed graph over the coarsest equitable partition refining ``p``.

    An equitable ``p`` is kept as given, cell order and all; any other is refined
    to ``coarsest_equitable(g, p)`` by one pass that also yields the profile.
    The conjugated matrix Q^T A Q is verified against the closed-form entry
    rule to 1e-12 times its largest entry (or 1) before being returned; its
    entry (j, k) is the net edge count from cell j to cell k over sqrt(|cell j| |cell k|).
    """
    if p.n != g.n:
        raise ValueError("partition size does not match the graph")
    rounds = _signature_rounds(g, p.cell_of, p.m)
    labels, words, width = next(rounds)
    first = np.unique(p.cell_of, return_index=True)[1]  # each cell's first vertex
    if (words != words[first][labels]).any():  # not equitable, as is_equitable tests
        for labels, words, width in rounds:
            pass
        p = partition_from_cell_of(labels)  # split: renumbered
        first = np.unique(p.cell_of, return_index=True)[1]
    rounds.close()  # the pass's edge arrays go before the check's m x m arrays
    profile = _profile(words[first], width, labels[first])
    ds = profile.d_signed  # a new array; the check's m x m arrays are reused in place
    closed = np.multiply(ds, ds.T, dtype=float)  # int64 would wrap
    np.copysign(np.sqrt(np.abs(closed, out=closed), out=closed), ds, out=closed)
    del ds
    rows, cols, (pos, neg) = _edge_view(g)
    net = np.bincount(p.cell_of[rows] * p.m + p.cell_of[cols], pos - neg, p.m * p.m)
    conjugated = net.astype(float, copy=False).reshape(p.m, p.m)  # int64 when edgeless
    root = np.sqrt(p.sizes())
    conjugated /= root[:, None]
    conjugated /= root
    conjugated -= closed
    if np.abs(conjugated, out=conjugated).max() > 1e-12 * max(1.0, closed.max(), -closed.min()):
        raise RuntimeError("quotient entry rule mismatch beyond 1e-12")
    # exactly symmetric: d[j,k] |cell j| = d[k,j] |cell k| gives both one sign
    return _handed_over(QuotientGraph, n=p.m, weights=closed, partition=p, profile=profile)


def coarsest_equitable(g: SignedGraph, seed: Optional[Partition] = None) -> Partition:
    """Coarsest equitable partition refining ``seed`` (default: one cell).

    Cells are split by their (positive, negative) neighbour-count
    signatures against the current cells; new cells are numbered as their
    smallest vertices appear, so the refinement is deterministic.  Its count
    pass is exact below 2^63 edges per vertex and layer, refused at or above.
    """
    seed = single_cell_partition(g.n) if seed is None else seed
    if seed.n != g.n:
        raise ValueError("seed partition size does not match the graph")
    for labels, _, _ in _signature_rounds(g, seed.cell_of, seed.m):
        pass
    return partition_from_cell_of(labels)
