"""Constructors for the graph families used by the walk machinery.

All constructors return :class:`~sgwalk.core.SignedGraph` values; the
plain families come out all-positive and can be signed afterwards via
``signed_union`` / ``switch`` or the join and product builders below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .core import (
    MULTIGRAPH,
    SIMPLE,
    SignedGraph,
    _edge_view,
    _require_unsigned,
    _signed_value,
    _simple_graph,
    _view_of,
    build_signed_graph,
    from_net_matrix,
)

__all__ = [
    "complete",
    "cycle",
    "path",
    "hypercube",
    "cocktail_party",
    "complete_bipartite",
    "petersen",
    "circulant",
    "complement",
    "cartesian_product",
    "signed_join",
    "CubelikeSpec",
    "cubelike",
    "permutation_graph",
    "antipodal_pairs",
    "double_cover",
    "LayeredVertex",
    "cover_index",
    "cover_vertex",
    "RegularGraphStats",
    "regular_stats",
    "random_regular",
]


def complete(n: int) -> SignedGraph:
    """Complete graph on n >= 2 vertices."""
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    return _simple_graph(~np.eye(n, dtype=bool))


def cycle(n: int) -> SignedGraph:
    """Cycle 0-1-...-(n-1)-0 on n >= 3 vertices."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return build_signed_graph(n, [(i, (i + 1) % n, 1) for i in range(n)])


def path(n: int) -> SignedGraph:
    """Path 0-1-...-(n-1) on n >= 2 vertices."""
    if n < 2:
        raise ValueError("path needs n >= 2")
    return build_signed_graph(n, [(i, i + 1, 1) for i in range(n - 1)])


def hypercube(d: int) -> SignedGraph:
    """d-dimensional hypercube; vertex u is the integer with bitstring u."""
    if d < 1:
        raise ValueError("hypercube needs d >= 1")
    return cubelike(CubelikeSpec(d, tuple(1 << i for i in range(d))))


def cocktail_party(parts: int) -> SignedGraph:
    """Complete multipartite graph with ``parts`` parts of size two.

    Vertices sit on a circle of N = 2*parts points and x is non-adjacent
    exactly to its antipode x + N/2.
    """
    if parts < 2:
        raise ValueError("cocktail party graph needs at least 2 parts")
    return complement(permutation_graph(2 * parts, antipodal_pairs(2 * parts)))


def complete_bipartite(m: int, n: int) -> SignedGraph:
    """Complete bipartite graph with sides {0..m-1} and {m..m+n-1}."""
    if m < 1 or n < 1:
        raise ValueError("complete bipartite graph needs non-empty sides")
    return signed_join(build_signed_graph(m, []), build_signed_graph(n, []), 1, 1)


def petersen() -> SignedGraph:
    """Petersen graph: outer 5-cycle 0-4, inner pentagram 5-9, spokes."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5, 1))
        edges.append((5 + i, 5 + (i + 2) % 5, 1))
        edges.append((i, 5 + i, 1))
    return build_signed_graph(10, edges)


def circulant(n: int, connections: Iterable[int]) -> SignedGraph:
    """Circulant graph: u ~ v iff (u - v) mod n is +/- a connection."""
    conns = sorted(set(int(c) for c in connections))
    if any(c < 1 or c > n // 2 for c in conns):
        raise ValueError("circulant connections must lie in 1..n//2")
    adj = np.zeros((n, n), dtype=bool)
    u = np.arange(n)[:, None]
    v = (u + np.array(conns, dtype=np.int64)) % n
    adj[u, v] = adj[v, u] = True
    return _simple_graph(adj)


def complement(g: SignedGraph) -> SignedGraph:
    """Complement of an all-positive simple graph."""
    _require_unsigned(g, "complement")
    return _simple_graph(~np.eye(g.n, dtype=bool) & (g.pos == 0))


def cartesian_product(factors: Sequence[SignedGraph]) -> SignedGraph:
    """Cartesian product of signed graphs.

    The vertex (g1, ..., gm) gets index g1*n2*...*nm + ... + gm, i.e. the
    first factor is the most significant digit.  The adjacency matrix is
    the Kronecker sum of the factor adjacencies, so factor matrices
    embedded this way commute pairwise.
    """
    if not factors:
        raise ValueError("cartesian product needs at least one factor")
    return from_net_matrix(_kronecker_sum(factors))


def _kronecker_sum(factors: Sequence[SignedGraph]) -> np.ndarray:
    """Kronecker sum of the net adjacencies of signed graphs, the first one the
    most significant digit: entry (p, q) of factor i is added at (b + p * low,
    b + q * low) for every index b whose digit i, of place value low, is 0."""
    sizes = [g.n for g in factors]
    total = math.prod(sizes)
    out = np.zeros((total, total), dtype=np.int64)
    for i, g in enumerate(factors):
        low = math.prod(sizes[i + 1:])
        base = np.flatnonzero(np.arange(total) // low % sizes[i] == 0)[:, None]
        p, q, (pos, neg) = _edge_view(g)
        out[base + p * low, base + q * low] += pos - neg
    return out


def signed_join(g1: SignedGraph, g2: SignedGraph, sign_g1: int,
                sign_cross: int) -> SignedGraph:
    """Join of two all-positive graphs with chosen block signs.

    The first block carries ``sign_g1`` times the adjacency of g1, the
    second keeps g2 positive, and every cross edge gets ``sign_cross``.
    """
    for g in (g1, g2):
        _require_unsigned(g, "signed_join")
    if sign_g1 not in (1, -1) or sign_cross not in (1, -1):
        raise ValueError("block signs must be +1 or -1")
    n1, n2 = g1.n, g2.n
    net = np.zeros((n1 + n2, n1 + n2), dtype=np.int64)
    net[:n1, :n1] = sign_g1 * g1.pos
    net[n1:, n1:] = g2.pos
    net[:n1, n1:] = sign_cross
    net[n1:, :n1] = sign_cross
    return _simple_graph(net)


@dataclass(frozen=True)
class CubelikeSpec:
    """Connection set of a cubelike graph over d-bit strings.

    ``delta`` is the XOR of all connection elements; it determines the
    transfer behaviour of the walk (non-zero: transfer partner, zero:
    the walk is periodic).
    """

    d: int
    elements: tuple
    delta: int = field(init=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("cubelike dimension must be >= 1")
        elems = tuple(int(c) for c in self.elements)
        if len(set(elems)) != len(elems):
            raise ValueError("connection set has repeated elements")
        if not elems:
            raise ValueError("connection set must be non-empty")
        limit = 1 << self.d
        if any(c < 1 or c >= limit for c in elems):
            raise ValueError(f"connection elements must lie in 1..{limit - 1}")
        object.__setattr__(self, "elements", tuple(sorted(elems)))
        delta = 0
        for c in elems:
            delta ^= c
        object.__setattr__(self, "delta", delta)


def cubelike(spec: CubelikeSpec) -> SignedGraph:
    """Cubelike graph: u ~ v iff u XOR v lies in the connection set."""
    u = np.arange(1 << spec.d)[:, None]
    adj = np.zeros((len(u), len(u)), dtype=bool)
    adj[u, u ^ np.array(spec.elements)] = True
    return _simple_graph(adj)


def permutation_graph(n: int, pairs: Iterable[tuple]) -> SignedGraph:
    """Perfect matching given as a fixed-point-free involution.

    ``pairs`` lists each 2-cycle once; every vertex must appear exactly
    once overall.
    """
    seen = set()
    edges = []
    for u, v in pairs:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"fixed point at vertex {u}")
        if u in seen or v in seen:
            raise ValueError("a vertex appears in two pairs")
        seen.update((u, v))
        edges.append((u, v, 1))
    if len(seen) != n:
        raise ValueError("pairs must cover every vertex exactly once")
    return build_signed_graph(n, edges)


def antipodal_pairs(n: int) -> list:
    """Pairs (x, x + n/2) on an even circle of n vertices."""
    if n % 2:
        raise ValueError("antipodal pairing needs an even vertex count")
    return [(x, x + n // 2) for x in range(n // 2)]


@dataclass(frozen=True)
class LayeredVertex:
    """Vertex (base, layer) of a double cover, layer in {0, 1}."""

    base: int
    layer: int


def cover_index(base: int, layer: int) -> int:
    return 2 * base + layer


def cover_vertex(index: int) -> LayeredVertex:
    return LayeredVertex(index // 2, index % 2)


def double_cover(g: SignedGraph) -> SignedGraph:
    """Two-layer cover: positive edges stay inside a layer, negative
    edges cross layers.

    Vertex (u, b) sits at index 2u + b.  The cover adjacency is
    pos (x) I + neg (x) X, which never collides even when the positive
    and the negative layer of a multigraph share vertex pairs, so the
    result is an ordinary all-positive graph whenever all multiplicities
    are one.  The cover is made from edges: each entry (u, v) of the
    graph's edge view gives the entries (2u + b, 2v + b) of its positive and
    (2u + b, 2v + 1 - b) of its negative multiplicity, for both b.
    """
    rows, cols, values = _edge_view(g)
    b, s = np.arange(2)[:, None, None], np.arange(2)[:, None]  # row's layer, edge sign
    at = ((2 * rows + b) * (2 * g.n) + 2 * cols + (b ^ s)).ravel()
    counts = np.broadcast_to(values, (2, *values.shape)).ravel()
    order = np.flatnonzero(counts)
    order = order[np.argsort(at[order])]
    cover = np.zeros((2, len(order)), dtype=np.int64)
    cover[0] = counts[order]
    mode = SIMPLE if values.max(initial=0) <= 1 else MULTIGRAPH
    return _signed_value(2 * g.n, mode, _view=_view_of(2 * g.n, at[order], cover))


@dataclass(frozen=True)
class RegularGraphStats:
    """Vertex count and common degree of a regular graph."""

    n: int
    k: int


def regular_stats(g: SignedGraph) -> RegularGraphStats:
    """Degree statistics, rejecting non-regular graphs (row-sum check)."""
    degrees = (g.pos + g.neg).sum(axis=1)
    if g.n and not np.all(degrees == degrees[0]):
        raise ValueError("graph is not regular")
    return RegularGraphStats(g.n, int(degrees[0]) if g.n else 0)


_REGULAR_TRIALS = 5000  # stub matchings random_regular tries before giving up


def random_regular(n: int, k: int, seed: int = 0) -> SignedGraph:
    """Seeded random simple k-regular graph: stub matching with rejection,
    16 trials per draw; same graph per seed as one shuffle per trial (a row
    of ``rng.permuted(..., axis=1)`` draws the stream as ``rng.shuffle``).
    The rejection test proves the pairs simple: they are handed over as a value
    made from edges, with no second check and no layers until asked for."""
    if n * k % 2:
        raise ValueError("n * k must be even")
    if not 0 < k < n:
        raise ValueError("degree must satisfy 0 < k < n")
    rng = np.random.default_rng(seed)
    stubs = np.broadcast_to(np.repeat(np.arange(n), k), (16, n * k))
    for start in range(0, _REGULAR_TRIALS, len(stubs)):
        ends = rng.permuted(stubs[:_REGULAR_TRIALS - start], axis=1)
        lo, hi = np.minimum(ends[:, ::2], ends[:, 1::2]), np.maximum(ends[:, ::2], ends[:, 1::2])
        keys = lo * n + hi
        keys.sort(axis=1)
        good = (lo < hi).all(axis=1) & (keys[:, 1:] > keys[:, :-1]).all(axis=1)
        if good.any():
            i = good.argmax()
            return _signed_value(n, SIMPLE, _edges=(np.array((lo[i], hi[i])), np.zeros_like(lo[i])))
    raise RuntimeError(f"could not sample a simple {k}-regular graph on {n} vertices")
