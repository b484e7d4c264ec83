"""Signed graphs as integer edge layers, kept as edges or as dense matrices.

A signed graph is a pair of symmetric non-negative integer matrices
counting the positive and the negative edges separately; the walk
Hamiltonian is their difference ``pos - neg``.  Simple mode restricts
both layers to {0,1} entries with disjoint supports.  Multigraph mode
allows parallel edges, which matters for unions of overlapping spanning
subgraphs: the two layers have to be kept apart there so that a double
cover can still route positive edges inside a layer and negative edges
across.

Vertices are integers ``0..n-1`` throughout.  All graph values are
immutable after construction (the backing arrays are marked read-only).

A value keeps the form it was made in.  Values made from edges (every
:func:`build_signed_graph` from an edge array, so every signed file read and
random regular graph; double covers; exterior and symmetric powers) hold their
checked edges, and their ``pos`` and ``neg`` are the halves of one read-only
(2, n, n) int64 array made on their first use.  Matrices from outside the
library, constructions, switchings and parts are dense from the start.

A graph's edges come from one place, :func:`_edge_view`, made once per graph
value and kept on it: the writer, connectivity, balance, double covers,
Cartesian products and the quotient refinement all read it, and none walks
n x n rows.  A value made from edges makes its view from them by one sort, and
makes no layers for it; a dense value by one flat scan of its layers.

Every graph value, signed or weighted, passes one complete check where its
data enters.  Matrices from outside the library get their class's O(n^2)
check: :class:`SignedGraph` (also under :func:`from_net_matrix`,
:func:`signed_union` and ``cartesian_product``) checks shape, integer entries,
symmetry, zero diagonal, signs of the counts and the simple-mode rules, and
:class:`WeightedGraph` shape and symmetry to 1e-12.  Edges are checked by
:func:`build_signed_graph` edge by edge, weighted files line by line.  Values
built from these or from checked parameters (switchings, parts, covers,
powers, constructions, boson ladders, quotients) have those properties by
construction, and are handed over by :func:`_handed_over` unchecked.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

SIMPLE = "simple"
MULTIGRAPH = "multigraph"
_MAX_BYTES = np.iinfo(np.intp).max  # the largest array numpy can address

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


def _require_integral(a: np.ndarray, name: str) -> None:
    """Refuse entries that are not integers of magnitude below 2**63, before
    any cast or negation: NaN, infinities, floats or uint64s of 2**63 or more,
    -2**63 (no int64 negation), complex entries and object arrays."""
    if a.dtype.kind in "iu":
        ok = not a.size or -2 ** 63 < int(a.min()) and int(a.max()) < 2 ** 63
    else:
        ok = a.dtype.kind in "bf" and np.all((a == np.rint(a)) & (np.abs(a) < 2.0 ** 63))
    if not ok:
        raise ValueError(f"{name} matrix must have integer entries")


def _int_matrix(m, name: str, n: int) -> np.ndarray:
    a = np.asarray(m)
    if a.shape != (n, n):
        raise ValueError(f"{name} matrix must have shape ({n}, {n}), got {a.shape}")
    _require_integral(a, name)
    return a


@dataclass(frozen=True, eq=False)
class SignedGraph:
    """Signed adjacency split into a positive and a negative edge layer.

    ``pos`` and ``neg`` are symmetric non-negative integer matrices with
    zero diagonal.  The net adjacency seen by a walk is ``pos - neg``.  A
    value made from edges holds its edges instead, and makes ``pos`` and
    ``neg`` as the halves of one read-only (2, n, n) int64 array when they
    are first asked for.
    """

    n: int
    pos: np.ndarray
    neg: np.ndarray
    mode: str = SIMPLE

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a graph needs at least one vertex")
        layers = np.array([_int_matrix(self.pos, "pos", self.n),
                           _int_matrix(self.neg, "neg", self.n)], dtype=np.int64)
        layers.setflags(write=False)
        object.__setattr__(self, "pos", layers[0])
        object.__setattr__(self, "neg", layers[1])
        asymmetric = (layers != layers.swapaxes(1, 2)).any(axis=(1, 2))
        loops = layers.diagonal(axis1=1, axis2=2).any(axis=1)
        negative = layers.min(axis=(1, 2)) < 0
        for k, name in enumerate(("pos", "neg")):
            if asymmetric[k]:
                raise ValueError(f"{name} matrix must be symmetric")
            if loops[k]:
                raise ValueError("self-loops are not allowed")
            if negative[k]:
                raise ValueError(f"{name} multiplicities must be non-negative")
        if self.mode == SIMPLE:
            if layers.max() > 1:
                raise ValueError("simple mode forbids parallel edges")
            if np.vdot(self.pos, self.neg):  # entries are 0 or 1 here: it counts shared pairs
                raise ValueError(
                    "simple mode forbids a positive and a negative edge on the same pair"
                )
        elif self.mode != MULTIGRAPH:
            raise ValueError(f"unknown mode {self.mode!r}")

    def __getattr__(self, name):
        # reached only for ``pos`` and ``neg`` of a value made from edges,
        # before their first use: both are made then, from its edges or view
        state = vars(self)
        if name not in ("pos", "neg") or "_edges" not in state and "_view" not in state:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        n = state["n"]
        layers = np.zeros((2, n, n), dtype=np.int64)
        if "_edges" in state:  # no view is made: a dense consumer may need none
            ends, layer = state["_edges"]
            if state["mode"] == SIMPLE:  # no entry repeats: one assignment
                layers[layer, ends, ends[::-1]] = 1
            else:
                np.add.at(layers.reshape(-1), ((layer * n + ends) * n + ends[::-1]).ravel(), 1)
        else:
            rows, cols, values = state["_view"]
            layers[:, rows, cols] = values
        layers.setflags(write=False)
        state["pos"], state["neg"] = layers
        return state[name]

    @property
    def adjacency(self) -> np.ndarray:
        """Net signed adjacency matrix ``pos - neg`` (integer entries)."""
        return self.pos - self.neg

    @property
    def support(self) -> np.ndarray:
        """Boolean matrix marking pairs joined by at least one edge of any sign."""
        return np.logical_or(self.pos, self.neg)

    def edge_count(self) -> int:
        """The number of edges, exactly, from the upper entries of the edge view."""
        rows, cols, layers = _edge_view(self)
        upper = layers[:, rows < cols]  # each below 2^63: in 32-bit halves no sum wraps
        return (int((upper >> 32).sum()) << 32) + int((upper & 0xFFFFFFFF).sum())


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
        asymmetric = w != w.T  # NaN entries too: they are averaged, and accepted
        if asymmetric.any():
            half = w / 2.0  # halved first: w + w.T and w - w.T overflow above ~9e307
            if np.abs(half - half.T).max() > 0.5e-12 * max(1.0, float(np.abs(w).max())):
                raise ValueError("weights must be symmetric")
            np.copyto(w, half + half.T, where=asymmetric)  # symmetric entries keep their bits
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def adjacency(self) -> np.ndarray:
        return self.weights


def _check_edge(n: int, u: int, v: int, s: int) -> None:
    """Raise the error of the first check that edge (u, v, s) fails, if any:
    range, self-loop, sign."""
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    if s not in (1, -1):
        raise ValueError(f"edge sign must be +1 or -1, got {s}")


def _first_repeat(u: np.ndarray, v: np.ndarray, n: int) -> int:
    """Index of the first edge whose vertex pair an earlier edge has, or the
    edge count (exact for vertices in 0..n-1)."""
    keys = np.minimum(u, v) * n + np.maximum(u, v)
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():
        return len(keys)
    order = np.argsort(keys, kind="stable")  # a pair's first edge sorts first
    return int(order[1:][keys[order[1:]] == keys[order[:-1]]].min())


def _handed_over(cls, **fields):
    """The ``cls`` value on ``fields``, with no check run: for data the library
    made itself from checked edges, lines, graphs or parameters, which holds by
    construction what the check of ``cls`` asks (a property test holds each
    caller to that).  Array fields are owned by the value and made read-only
    here; a view's base must be made read-only first."""
    value = object.__new__(cls)
    for name, field in fields.items():
        if isinstance(field, np.ndarray):
            field.setflags(write=False)
        object.__setattr__(value, name, field)
    return value


def _signed_value(n: int, mode: str, **fields) -> SignedGraph:
    """The graph value on ``n`` vertices with ``fields``, handed over by
    :func:`_handed_over`; only the mode is checked.  Fields are ``pos`` and
    ``neg``, or, for a value made from edges, one edge state: ``_edges``, the
    checked (2, m) int64 ends and the layer of each edge (0 positive, 1
    negative), or ``_view``, its finished :func:`_edge_view`."""
    if mode not in (SIMPLE, MULTIGRAPH):
        raise ValueError(f"unknown mode {mode!r}")
    return _handed_over(SignedGraph, n=n, mode=mode, **fields)


def _graph_from_layers(layers: np.ndarray, mode: str) -> SignedGraph:
    """The graph value on ``layers``, an owned int64 (2, n, n) array, handed
    over by :func:`_signed_value`; only the vertex count and the mode are
    checked."""
    n = layers.shape[1]
    if n < 1:
        raise ValueError("a graph needs at least one vertex")
    layers.setflags(write=False)  # the base as well as the views handed over
    return _signed_value(n, mode, pos=layers[0], neg=layers[1])


def _checked_edge_array(n: int, edges: np.ndarray, mode: str) -> tuple:
    """The (2, m) ends and the layers (0 for +1, 1 for -1) of the edges of an
    integer (m, 3) array of u, v, sign, checked by masks over its columns; the
    first offending edge is reported as the per-edge checks report it."""
    u, v, s = columns = edges.astype(np.int64).T
    # as unsigned, a negative index is out of range too
    bad = (np.maximum(u.view(np.uint64), v.view(np.uint64)) >= n) | (u == v) | (np.abs(s) != 1)
    first = int(bad.argmax()) if bad.any() else len(bad)
    if mode == SIMPLE:
        first = _first_repeat(u[:first], v[:first], n)
    if first < len(bad):
        a, b, sign = (int(x) for x in edges[first])
        _check_edge(n, a, b, sign)
        raise ValueError(f"duplicate edge {(min(a, b), max(a, b))} in simple mode")
    return columns[:2], (1 - s) >> 1


def build_signed_graph(n: int, edges: Iterable[tuple], mode: str = SIMPLE) -> SignedGraph:
    """Build a signed graph from ``(u, v, sign)`` triples.

    Signs are +1 or -1.  In simple mode a vertex pair may appear once;
    multigraph mode accumulates parallel edges.  The first offending edge
    is reported, by the first check it fails: range, self-loop, sign,
    duplicate.  An integer (m, 3) array, as the reader passes, is checked by
    masks over its columns; any other iterable edge by edge, as it is
    converted, so that a small graph makes no numpy call per check.  These
    edge checks are the graph's whole check: the layers the edges fill are
    symmetric, loop-free, non-negative and (in simple mode) simple, so the
    matrix-wide check of :class:`SignedGraph` is not run on them.  A value
    built from an array keeps its checked edges, and makes its layers only
    when they are first asked for; an iterable fills the layers as it goes.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("a graph needs at least one vertex")
    if 8 * n * n > _MAX_BYTES:  # no n x n int64 layer can be addressed
        raise ValueError(f"vertex count {n} is too large")
    if isinstance(edges, np.ndarray) and edges.dtype.kind == "i" and edges.shape[1:] == (3,):
        return _signed_value(n, mode, _edges=_checked_edge_array(n, edges, mode))
    layers = np.zeros((2, n, n), dtype=np.int64)
    seen = set()
    for edge in edges:
        try:
            u, v, s = edge
        except (TypeError, ValueError):
            raise ValueError(f"edge {edge!r} is not a (u, v, sign) triple") from None
        u, v, s = int(u), int(v), int(s)
        _check_edge(n, u, v, s)
        key = (min(u, v), max(u, v))
        if mode == SIMPLE and key in seen:
            raise ValueError(f"duplicate edge {key} in simple mode")
        seen.add(key)
        layer = layers[0 if s == 1 else 1]
        layer[u, v] += 1
        layer[v, u] += 1
    return _graph_from_layers(layers, mode)


def from_net_matrix(matrix, mode: Optional[str] = None) -> SignedGraph:
    """Build a signed graph from a net adjacency matrix.

    Positive entries land in the positive layer, negative entries in the
    negative one (minimal decomposition).  With ``mode=None`` the result
    is simple when all entries lie in {-1, 0, +1} and multigraph
    otherwise.
    """
    a = np.asarray(matrix)
    n = a.shape[0]
    _require_integral(a, "net")
    a = a.astype(np.int64, copy=False)
    if mode is None:
        mode = SIMPLE if max(int(a.max(initial=0)), -int(a.min(initial=0))) <= 1 else MULTIGRAPH
    pos = np.maximum(a, 0)
    return SignedGraph(n, pos, pos - a, mode)


def _require_simple(g: SignedGraph, op: str) -> None:
    if g.mode != SIMPLE:
        raise ValueError(f"{op} requires simple mode (multigraph decomposition is ambiguous)")


def _require_unsigned(g: SignedGraph, op: str) -> None:
    if g.mode != SIMPLE or g.neg.any():
        raise ValueError(f"{op} expects an all-positive simple graph")


def _simple_graph(net: np.ndarray) -> SignedGraph:
    """:func:`_graph_from_layers` on a symmetric, loop-free {-1, 0, +1} or bool net matrix."""
    layers = np.empty((2, *net.shape), dtype=np.int64)
    np.greater(net, 0, out=layers[0])
    np.less(net, 0, out=layers[1])
    return _graph_from_layers(layers, SIMPLE)


def positive_part(g: SignedGraph) -> SignedGraph:
    """Spanning subgraph of the +1 edges."""
    _require_simple(g, "positive_part")
    return _simple_graph(g.pos)


def negative_part(g: SignedGraph) -> SignedGraph:
    """Spanning subgraph of the -1 edges, reported with positive signs."""
    _require_simple(g, "negative_part")
    return _simple_graph(g.neg)


def underlying(g: SignedGraph) -> SignedGraph:
    """The unsigned graph obtained by forgetting all signs."""
    _require_simple(g, "underlying")
    return _simple_graph(g.support)


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
    layers = np.array((g.pos, g.neg))
    return _graph_from_layers(np.where(np.outer(vec, vec) < 0, layers[::-1], layers), g.mode)


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


def _edge_entries(n: int, ends: np.ndarray, layer: np.ndarray) -> tuple:
    """The flat indices, ascending, of the non-zero entries of the layers
    that the edges with (2, m) ``ends`` and ``layer`` (0 positive, 1
    negative) fill, and their (2, E) multiplicities: one sort of the 2m keys,
    an entry's index with the edge's layer in the lowest bit."""
    keys = np.sort((ends * n + ends[::-1]) * 2 + layer, axis=None)
    pairs, bits = keys >> 1, keys & 1
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(pairs[1:], pairs[:-1], out=new[1:])
    at = pairs[new]
    entry = np.cumsum(new) - 1  # the entry of each key
    return at, np.bincount(bits * len(at) + entry, minlength=2 * len(at)).reshape(2, -1)


def _view_of(n: int, at: np.ndarray, values: np.ndarray) -> tuple:
    """The read-only (rows, cols, values) of the entries at flat indices ``at``."""
    view = (*np.divmod(at, n), values)
    for a in view:
        a.setflags(write=False)
    return view


def _edge_view(g) -> tuple:
    """The non-zero entries of a graph's matrix (both halves, and a weighted
    diagonal) in row-major order, as read-only (rows, cols, values): the (2, E)
    positive and negative multiplicities, or the (E,) weights.  Made once per
    graph value and kept on it: from the checked edges of a value made from
    edges, by one sort of them, which then go; otherwise by one flat scan of
    the support."""
    state = vars(g)  # a frozen value's own attributes: the view is kept there
    if "_view" not in state:
        if "_edges" in state:
            at, values = _edge_entries(g.n, *state["_edges"])
        elif isinstance(g, SignedGraph):
            at = np.flatnonzero(g.support)  # bool: a quarter of int64's time
            values = np.stack((g.pos.ravel()[at], g.neg.ravel()[at]))
        else:
            w = np.asarray(g.adjacency).ravel()
            at = np.flatnonzero(w != 0)
            values = w[at]
        state["_view"] = _view_of(g.n, at, values)
        state.pop("_edges", None)
    return state["_view"]


def _search_tree(g, net=None):
    """Breadth-first search tree from vertex 0 over :func:`_edge_view`, a new vertex's
    parent its first neighbour in the level: d[v] is the product of ``net`` (one value
    per entry, default 1) along the path 0 -> v, 0 if unreached; alt[v] is (-1)^depth."""
    rows, cols, _ = _edge_view(g)
    net = np.ones_like(rows) if net is None else net
    d, alt = np.zeros((2, g.n), dtype=np.int64)
    d[0] = alt[0] = 1
    level = np.arange(g.n) == 0
    while level.any():  # a level masks all E entries: O(E) a level, in a few numpy calls
        at = np.flatnonzero(level[rows] & (d[cols] == 0))
        v, new = np.unique(cols[at], return_index=True)  # one parent per new vertex
        d[v], alt[v] = d[rows[at[new]]] * net[at[new]], -alt[rows[at[new]]]
        level = np.zeros(g.n, dtype=bool)
        level[v] = True
    return d, alt


def is_connected(g) -> bool:
    """Connectivity of the underlying graph (any-sign edges count)."""
    return bool(_search_tree(g)[0].all())


def balance_verdict(g: SignedGraph) -> BalanceVerdict:
    """Classify a connected simple signed graph as balanced, antibalanced or neither.

    With d[0] = +1 the only candidate switchings are the search tree's sign
    products d (every tree edge positive) and d * (-1)^depth (every tree edge
    negative); the remaining edges decide.
    """
    _require_simple(g, "balance_verdict")
    rows, cols, (pos, neg) = _edge_view(g)
    net = pos - neg
    d, alt = _search_tree(g, net)
    if not d.all():
        raise ValueError("balance verdict requires a connected graph")
    product = d[rows] * net * d[cols]  # sign of each edge after switching by d
    antibalanced = bool(np.all(product * alt[rows] * alt[cols] == -1))
    if np.all(product == 1):
        d.setflags(write=False)
        return BalanceVerdict("balanced", d, also_antibalanced=antibalanced)
    if antibalanced:
        anti = d * alt
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


def _edge_columns(g) -> tuple:
    """The u, v and sign (or weight) columns of the lines of :func:`graph_edges`."""
    rows, cols, values = _edge_view(g)
    upper = rows <= cols
    uu, vv, values = rows[upper], cols[upper], values[..., upper]
    if isinstance(g, SignedGraph):
        counts = values.T.ravel()  # +1 first
        return (np.repeat(np.repeat(uu, 2), counts), np.repeat(np.repeat(vv, 2), counts),
                np.repeat(np.tile([1, -1], len(uu)), counts))
    return uu, vv, values


def graph_edges(g) -> Iterator[tuple]:
    """Yield the edge lines of a graph as plain numbers, sorted by (u, v).

    Signed graphs give (u, v, sign) with u < v, parallel edges repeated
    and +1 before -1; weighted graphs give (u, v, weight) with u <= v,
    diagonal entries included.
    """
    yield from zip(*(column.tolist() for column in _edge_columns(g)))


_BLOCK_ROWS = 16384  # rows per block of text: bounds the values alive at once


def _row_blocks(columns) -> Iterator[list]:
    """The columns cut into blocks of at most ``_BLOCK_ROWS`` rows."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        yield [c[start:start + _BLOCK_ROWS] for c in columns]


def _format_rows(row: str, columns) -> Iterator[str]:
    """Yield the lines ``row % values`` of the columns' rows, each block of
    rows formatted by one %-format of the repeated template."""
    for block in _row_blocks(columns):
        cells = np.array(block, dtype=object)
        yield (row + "\n") * cells.shape[1] % tuple(cells.T.ravel().tolist())


def format_edge_list(g) -> str:
    u, v, w = _edge_columns(g)
    row = "%d %d %+d"
    if not isinstance(g, SignedGraph):  # %r: a float's shortest text that reads back
        row, integral, w = "%d %d %r", (w == np.rint(w)) & (np.abs(w) < 1e16), w.astype(object)
        w[integral] = w[integral].astype(np.int64)  # integral weights print with no ".0"
    return f"n {g.n}\n" + "".join(_format_rows(row, (u, v, w)))


def write_edge_list(g, path) -> None:
    Path(path).write_text(format_edge_list(g))


def _vertex_count(token: str, source: str, lineno: int) -> int:
    """The vertex count of a header line, checked."""
    try:
        n = int(token)
    except ValueError:
        raise ValueError(f"{source}:{lineno}: bad vertex count {token!r}") from None
    if n < 1:
        raise ValueError(f"{source}:{lineno}: vertex count must be positive")
    if 8 * n * n > _MAX_BYTES:  # no n x n int64 layer can be addressed
        raise ValueError(f"{source}:{lineno}: vertex count {n} is too large")
    return n


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
            n = _vertex_count(parts[1], source, lineno)
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


_SIGNS = {"+1": 1, "1": 1, "-1": -1}
# The signed writer's own form: single spaces, "\n" endings, no comments, and
# at most 18 digits a number, so that every token converts to int64.
_NUMBER = "(?:0|[1-9][0-9]{0,17})"
_SIGNED_FILE = re.compile(f"n [1-9][0-9]{{0,17}}\n(?:{_NUMBER} {_NUMBER} (?:\\+1|1|-1)\n)*")


def _edge_lines(path) -> tuple:
    """The name, the vertex count and the edge lines of an edge-list file,
    decoded and tokenised once.  A file in the signed writer's own form gives
    its lines as one int64 (m, 3) array of u, v, sign, converted by one
    ``np.fromstring`` call (exact: no token has more than 18 digits, and the
    pattern leaves nothing it could misread); any other file gives
    (line number, u, v, third token) tuples from the per-line loop, which
    reports the first bad line."""
    source = str(path)
    text = Path(path).read_text()
    if _SIGNED_FILE.fullmatch(text):  # no line can be bad: one conversion
        header, body = text.split("\n", 1)
        n = _vertex_count(header[2:], source, 1)
        return source, n, np.fromstring(body, dtype=np.int64, sep=" ").reshape(-1, 3)
    return (source, *_parse_edge_lines(text, source))


def _signed_graph(source: str, n: int, triples, mode: Optional[str]) -> SignedGraph:
    if isinstance(triples, np.ndarray):
        edges = triples
    else:
        lines, us, vs, tokens = zip(*triples) if triples else ((),) * 4
        signs = [_SIGNS.get(token, 0) for token in tokens]
        if 0 in signs:
            i = signs.index(0)
            raise ValueError(f"{source}:{lines[i]}: sign must be +1 or -1, got {tokens[i]!r}")
        try:
            edges = np.array((us, vs, signs), dtype=np.int64).T
        except OverflowError:  # a vertex beyond int64, which fails in either mode
            edges, mode = list(zip(us, vs, signs)), mode or MULTIGRAPH
    if mode is None:  # checked as a multigraph, then simple if no pair repeats
        ends, layer = _checked_edge_array(n, edges, MULTIGRAPH)
        simple = _first_repeat(*ends, n) == len(layer)
        return _signed_value(n, SIMPLE if simple else MULTIGRAPH, _edges=(ends, layer))
    return build_signed_graph(n, edges, mode)


def _weighted_graph(source: str, n: int, triples) -> WeightedGraph:
    if isinstance(triples, np.ndarray):  # the writer's form: edge i is on line i + 2
        triples = [(i, u, v, s) for i, (u, v, s) in enumerate(triples.tolist(), start=2)]
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
    return _handed_over(WeightedGraph, n=n, weights=w)


def _read_graph(path):
    """Read an edge-list file once, as a signed graph when every edge line's
    third token is +1, 1 or -1 and no line is a loop ``u u s``, and as a
    weighted graph otherwise; a file that fails gets the reason of its kind."""
    source, n, triples = _edge_lines(path)
    if isinstance(triples, np.ndarray):
        signed = not (triples[:, 0] == triples[:, 1]).any()
    else:
        signed = all(token in _SIGNS and u != v for _, u, v, token in triples)
    if signed:
        return _signed_graph(source, n, triples, None)
    return _weighted_graph(source, n, triples)


def read_signed_graph(path, mode: Optional[str] = None) -> SignedGraph:
    """Read a signed edge list.  ``mode=None`` selects simple mode unless
    the file contains parallel edges."""
    return _signed_graph(*_edge_lines(path), mode)


def read_weighted_graph(path) -> WeightedGraph:
    return _weighted_graph(*_edge_lines(path))
