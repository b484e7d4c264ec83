"""Signed graphs stored as dense integer matrices.

A signed graph is kept as a pair of symmetric non-negative integer
matrices counting the positive and the negative edges separately; the
walk Hamiltonian is their difference ``pos - neg``.  Simple mode
restricts both layers to {0,1} entries with disjoint supports.
Multigraph mode allows parallel edges, which matters for unions of
overlapping spanning subgraphs: the two layers have to be kept apart
there so that a double cover can still route positive edges inside a
layer and negative edges across.

Vertices are integers ``0..n-1`` throughout.  All graph values are
immutable after construction (the backing arrays are marked read-only).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

SIMPLE = "simple"
MULTIGRAPH = "multigraph"

__all__ = [
    "SIMPLE",
    "MULTIGRAPH",
    "SignedGraph",
    "WeightedGraph",
    "BalanceVerdict",
    "build_signed_graph",
    "from_net_matrix",
    "positive_part",
    "negative_part",
    "underlying",
    "switch",
    "balance_verdict",
    "signed_union",
    "is_connected",
    "graph_edges",
    "format_edge_list",
    "write_edge_list",
    "read_signed_graph",
    "read_weighted_graph",
]


def _own_int_matrix(m, name: str, n: int) -> np.ndarray:
    a = np.asarray(m)
    if a.shape != (n, n):
        raise ValueError(f"{name} matrix must have shape ({n}, {n}), got {a.shape}")
    if not np.issubdtype(a.dtype, np.integer):
        if not np.all(a == np.rint(a)):
            raise ValueError(f"{name} matrix must have integer entries")
    a = np.array(a, dtype=np.int64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SignedGraph:
    """Signed adjacency split into a positive and a negative edge layer.

    ``pos`` and ``neg`` are symmetric non-negative integer matrices with
    zero diagonal.  The net adjacency seen by a walk is ``pos - neg``.
    """

    n: int
    pos: np.ndarray
    neg: np.ndarray
    mode: str = SIMPLE

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a graph needs at least one vertex")
        object.__setattr__(self, "pos", _own_int_matrix(self.pos, "pos", self.n))
        object.__setattr__(self, "neg", _own_int_matrix(self.neg, "neg", self.n))
        for name, m in (("pos", self.pos), ("neg", self.neg)):
            if not np.array_equal(m, m.T):
                raise ValueError(f"{name} matrix must be symmetric")
            if np.any(np.diagonal(m) != 0):
                raise ValueError("self-loops are not allowed")
            if np.any(m < 0):
                raise ValueError(f"{name} multiplicities must be non-negative")
        if self.mode == SIMPLE:
            if np.any(self.pos > 1) or np.any(self.neg > 1):
                raise ValueError("simple mode forbids parallel edges")
            if np.any((self.pos > 0) & (self.neg > 0)):
                raise ValueError(
                    "simple mode forbids a positive and a negative edge on the same pair"
                )
        elif self.mode != MULTIGRAPH:
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def adjacency(self) -> np.ndarray:
        """Net signed adjacency matrix ``pos - neg`` (integer entries)."""
        return self.pos - self.neg

    @property
    def support(self) -> np.ndarray:
        """Boolean matrix marking pairs joined by at least one edge of any sign."""
        return (self.pos + self.neg) > 0

    def edge_count(self) -> int:
        return int((self.pos.sum() + self.neg.sum()) // 2)


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Symmetric real matrix walked on directly (quotients, boson ladders).

    Unlike :class:`SignedGraph` the diagonal may be non-zero; quotient
    cells keep their internal degree there.
    """

    n: int
    weights: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a graph needs at least one vertex")
        w = np.array(self.weights, dtype=float)
        if w.shape != (self.n, self.n):
            raise ValueError(f"weights must have shape ({self.n}, {self.n})")
        scale = max(1.0, float(np.abs(w).max()) if w.size else 1.0)
        if np.abs(w - w.T).max(initial=0.0) > 1e-12 * scale:
            raise ValueError("weights must be symmetric")
        w = (w + w.T) / 2.0
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def adjacency(self) -> np.ndarray:
        return self.weights


def build_signed_graph(n: int, edges: Iterable[tuple], mode: str = SIMPLE) -> SignedGraph:
    """Build a signed graph from ``(u, v, sign)`` triples.

    Signs are +1 or -1.  In simple mode a vertex pair may appear once;
    multigraph mode accumulates parallel edges.
    """
    pos = np.zeros((n, n), dtype=np.int64)
    neg = np.zeros((n, n), dtype=np.int64)
    seen = set()
    for edge in edges:
        try:
            u, v, s = edge
        except (TypeError, ValueError):
            raise ValueError(f"edge {edge!r} is not a (u, v, sign) triple") from None
        u, v, s = int(u), int(v), int(s)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if s not in (1, -1):
            raise ValueError(f"edge sign must be +1 or -1, got {s}")
        key = (min(u, v), max(u, v))
        if mode == SIMPLE and key in seen:
            raise ValueError(f"duplicate edge {key} in simple mode")
        seen.add(key)
        layer = pos if s == 1 else neg
        layer[u, v] += 1
        layer[v, u] += 1
    return SignedGraph(n, pos, neg, mode)


def from_net_matrix(matrix, mode: Optional[str] = None) -> SignedGraph:
    """Build a signed graph from a net adjacency matrix.

    Positive entries land in the positive layer, negative entries in the
    negative one (minimal decomposition).  With ``mode=None`` the result
    is simple when all entries lie in {-1, 0, +1} and multigraph
    otherwise.
    """
    a = np.asarray(matrix)
    n = a.shape[0]
    if not np.issubdtype(a.dtype, np.integer):
        if not np.all(a == np.rint(a)):
            raise ValueError("net matrix must have integer entries")
    a = np.array(a, dtype=np.int64)
    if mode is None:
        mode = SIMPLE if np.abs(a).max(initial=0) <= 1 else MULTIGRAPH
    pos = np.where(a > 0, a, 0)
    neg = np.where(a < 0, -a, 0)
    return SignedGraph(n, pos, neg, mode)


def _require_simple(g: SignedGraph, op: str) -> None:
    if g.mode != SIMPLE:
        raise ValueError(f"{op} requires simple mode (multigraph decomposition is ambiguous)")


def positive_part(g: SignedGraph) -> SignedGraph:
    """Spanning subgraph of the +1 edges."""
    _require_simple(g, "positive_part")
    return SignedGraph(g.n, g.pos, np.zeros_like(g.neg), SIMPLE)


def negative_part(g: SignedGraph) -> SignedGraph:
    """Spanning subgraph of the -1 edges, reported with positive signs."""
    _require_simple(g, "negative_part")
    return SignedGraph(g.n, g.neg, np.zeros_like(g.pos), SIMPLE)


def underlying(g: SignedGraph) -> SignedGraph:
    """The unsigned graph obtained by forgetting all signs."""
    _require_simple(g, "underlying")
    return SignedGraph(g.n, g.pos + g.neg, np.zeros_like(g.neg), SIMPLE)


def _switching_vector(d, n: int) -> np.ndarray:
    vec = np.asarray(d)
    if vec.shape != (n,):
        raise ValueError(f"switching vector must have length {n}")
    vec = np.array(vec, dtype=np.int64)
    if not np.all(np.abs(vec) == 1):
        raise ValueError("switching vector entries must be +1 or -1")
    return vec


def switch(g: SignedGraph, d) -> SignedGraph:
    """Switch the graph by a +/-1 vertex vector.

    Edge (u, v) keeps its sign when d[u] * d[v] = +1 and flips it when
    d[u] * d[v] = -1.  Switching is an involution and preserves the
    underlying graph, edge multiplicities and the adjacency spectrum.
    """
    vec = _switching_vector(d, g.n)
    flip = np.outer(vec, vec) < 0
    pos = np.where(flip, g.neg, g.pos)
    neg = np.where(flip, g.pos, g.neg)
    return SignedGraph(g.n, pos, neg, g.mode)


@dataclass(frozen=True, eq=False)
class BalanceVerdict:
    """Outcome of a balance test.

    ``status`` is one of ``balanced``, ``antibalanced`` or ``neither``.
    The witness switches the graph to the all-positive (balanced) or
    all-negative (antibalanced) signing of its underlying graph.  Some
    graphs are both (even cycles with positive sign product, say); those
    report ``balanced`` with ``also_antibalanced`` set.
    """

    status: str
    witness: Optional[np.ndarray]
    also_antibalanced: bool = False


def is_connected(g) -> bool:
    """Connectivity of the underlying graph (any-sign edges count)."""
    if isinstance(g, SignedGraph):
        adj = g.support
    else:
        adj = np.asarray(g.adjacency) != 0
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in np.nonzero(adj[u])[0]:
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return bool(seen.all())


def _constant_sign_switching(net: np.ndarray, target: int) -> Optional[np.ndarray]:
    # spanning-tree propagation: pick d[0] = +1, force d[u]*s*d[v] == target
    # along a search tree, then check every remaining edge.
    n = net.shape[0]
    d = np.zeros(n, dtype=np.int64)
    d[0] = 1
    stack = [0]
    while stack:
        u = stack.pop()
        for v in np.nonzero(net[u])[0]:
            if d[v] == 0:
                d[v] = d[u] * net[u, v] * target
                stack.append(int(v))
    uu, vv = np.nonzero(np.triu(net))
    if np.all(d[uu] * net[uu, vv] * d[vv] == target):
        return d
    return None


def balance_verdict(g: SignedGraph) -> BalanceVerdict:
    """Classify a connected simple signed graph as balanced, antibalanced or neither."""
    _require_simple(g, "balance_verdict")
    if not is_connected(g):
        raise ValueError("balance verdict requires a connected graph")
    net = g.adjacency
    bal = _constant_sign_switching(net, +1)
    anti = _constant_sign_switching(net, -1)
    if bal is not None:
        bal.setflags(write=False)
        return BalanceVerdict("balanced", bal, also_antibalanced=anti is not None)
    if anti is not None:
        anti.setflags(write=False)
        return BalanceVerdict("antibalanced", anti)
    return BalanceVerdict("neither", None)


def signed_union(a: SignedGraph, b: SignedGraph, sign_of_b: int = 1,
                 mode: Optional[str] = None) -> SignedGraph:
    """Union of two signed graphs on the same vertex set.

    ``sign_of_b`` multiplies every sign of ``b`` before taking the union.
    With ``mode=None`` the result is simple when both inputs are simple,
    which then requires edge-disjoint supports; pass ``mode="multigraph"``
    to overlay graphs that share edges (the layers are kept separate, so
    a +1 and a -1 parallel edge survive even though they cancel in the
    net matrix).
    """
    if a.n != b.n:
        raise ValueError("signed_union needs graphs on the same vertex count")
    if sign_of_b not in (1, -1):
        raise ValueError("sign_of_b must be +1 or -1")
    if mode is None:
        mode = SIMPLE if (a.mode == SIMPLE and b.mode == SIMPLE) else MULTIGRAPH
    if mode == SIMPLE and np.any(a.support & b.support):
        raise ValueError(
            "overlapping edge supports: a simple union is impossible, use multigraph mode"
        )
    if sign_of_b == 1:
        pos, neg = a.pos + b.pos, a.neg + b.neg
    else:
        pos, neg = a.pos + b.neg, a.neg + b.pos
    return SignedGraph(a.n, pos, neg, mode)


# ---------------------------------------------------------------------------
# edge-list files
# ---------------------------------------------------------------------------
#
# Format: a header line "n <vertex count>", then one line "u v s" per edge
# with s in {+1, -1} for signed graphs or a real weight for weighted ones.
# "#" starts a comment.  Writers emit edges sorted by (u, v); weighted
# graphs may carry diagonal lines "u u w".


def graph_edges(g: SignedGraph) -> Iterator[tuple]:
    """Yield (u, v, sign) with u < v, repeating parallel edges."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            for _ in range(int(g.pos[u, v])):
                yield (u, v, 1)
            for _ in range(int(g.neg[u, v])):
                yield (u, v, -1)


def format_edge_list(g) -> str:
    lines = [f"n {g.n}"]
    if isinstance(g, SignedGraph):
        for u, v, s in graph_edges(g):
            lines.append(f"{u} {v} {'+1' if s == 1 else '-1'}")
    else:
        w = g.adjacency
        for u in range(g.n):
            for v in range(u, g.n):
                if w[u, v] != 0.0:
                    lines.append(f"{u} {v} {w[u, v]:.15g}")
    return "\n".join(lines) + "\n"


def write_edge_list(g, path) -> None:
    Path(path).write_text(format_edge_list(g))


def _parse_edge_lines(text: str, source: str):
    n = None
    triples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise ValueError(f"{source}:{lineno}: expected header 'n <count>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise ValueError(f"{source}:{lineno}: bad vertex count {parts[1]!r}") from None
            if n < 1:
                raise ValueError(f"{source}:{lineno}: vertex count must be positive")
            continue
        if len(parts) != 3:
            raise ValueError(f"{source}:{lineno}: expected 'u v s'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{source}:{lineno}: bad vertex index") from None
        triples.append((lineno, u, v, parts[2]))
    if n is None:
        raise ValueError(f"{source}: missing 'n <count>' header")
    return n, triples


def read_signed_graph(path, mode: Optional[str] = None) -> SignedGraph:
    """Read a signed edge list.  ``mode=None`` selects simple mode unless
    the file contains parallel edges."""
    source = str(path)
    n, triples = _parse_edge_lines(Path(path).read_text(), source)
    edges = []
    for lineno, u, v, token in triples:
        if token in ("+1", "1"):
            s = 1
        elif token == "-1":
            s = -1
        else:
            raise ValueError(f"{source}:{lineno}: sign must be +1 or -1, got {token!r}")
        edges.append((u, v, s))
    if mode is None:
        pairs = [(min(u, v), max(u, v)) for u, v, _ in edges]
        mode = MULTIGRAPH if len(set(pairs)) < len(pairs) else SIMPLE
    return build_signed_graph(n, edges, mode)


def read_weighted_graph(path) -> WeightedGraph:
    source = str(path)
    n, triples = _parse_edge_lines(Path(path).read_text(), source)
    w = np.zeros((n, n))
    seen = set()
    for lineno, u, v, token in triples:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"{source}:{lineno}: vertex out of range")
        try:
            value = float(token)
        except ValueError:
            raise ValueError(f"{source}:{lineno}: bad weight {token!r}") from None
        if not np.isfinite(value):
            raise ValueError(f"{source}:{lineno}: weight {token!r} is not finite")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"{source}:{lineno}: duplicate entry for ({u}, {v})")
        seen.add(key)
        w[u, v] = value
        w[v, u] = value
    return WeightedGraph(n, w)
