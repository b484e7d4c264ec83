"""Many-particle walks: exterior, symmetric and bosonic powers.

k non-interacting particles on a graph G walk on the Cartesian power
G^[]k (box product of k copies).  Restricting to the antisymmetric
subspace gives a signed graph on the k-subsets of V(G) (fermions);
the symmetric analogue keeps the same support with all-positive signs,
and projecting onto unordered occupation states gives the weighted
boson ladder.

Conventions: subsets are written sorted ascending and enumerated in
lexicographic order; multisets likewise as sorted tuples.  Tuple states
of the power graph are indexed with the first coordinate most
significant, matching the Cartesian product convention.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .construct import _kronecker_sum
from .core import (SignedGraph, WeightedGraph, _edge_view, _handed_over, _require_unsigned,
                   _simple_graph)
from .spectral import PstVerdict, is_pst

__all__ = [
    "MAX_POWER_STATES",
    "k_subsets",
    "subset_rank",
    "subset_unrank",
    "multiset_states",
    "multiset_rank",
    "antisymmetrizer",
    "symmetrizer",
    "cartesian_power_matrix",
    "exterior_power",
    "exterior_power_oracle",
    "symmetric_power",
    "boson_quotient",
    "boson_quotient_oracle",
    "boson_formula_comparison",
    "fermion_pst_lift",
]

MAX_POWER_STATES = 1300  # dense n^k work is capped at desk scale


def k_subsets(n: int, k: int) -> list:
    """All k-subsets of 0..n-1 as sorted tuples, lexicographically."""
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    return list(itertools.combinations(range(n), k))


def subset_rank(subset: Sequence[int], n: int) -> int:
    """Lexicographic rank of a sorted k-subset of 0..n-1 among all k-subsets.

    Closed form: C(n, k) - 1 - sum_i C(n - 1 - s_i, k - i), 0-based i.
    """
    s = tuple(subset)
    if list(s) != sorted(set(s)):
        raise ValueError(f"{subset!r} is not a sorted duplicate-free subset")
    if s and not (0 <= s[0] and s[-1] < n):
        raise ValueError(f"{subset!r} has a vertex outside 0..{n - 1}")
    k = len(s)
    return math.comb(n, k) - 1 - sum(math.comb(n - 1 - v, k - i) for i, v in enumerate(s))


def subset_unrank(rank: int, n: int, k: int) -> tuple:
    """Inverse of :func:`subset_rank`."""
    if not 0 <= rank < math.comb(n, k):
        raise ValueError("rank out of range")
    out = []
    prev = -1
    for i in range(k):
        v = prev + 1
        while True:
            block = math.comb(n - 1 - v, k - 1 - i)
            if rank < block:
                break
            rank -= block
            v += 1
        out.append(v)
        prev = v
    return tuple(out)


def multiset_states(n: int, k: int) -> list:
    """All k-multisets of 0..n-1 as sorted tuples, lexicographically."""
    if k < 1 or n < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return list(itertools.combinations_with_replacement(range(n), k))


def multiset_rank(state: Sequence[int], n: int) -> int:
    """Lexicographic rank of a k-multiset among all k-multisets of 0..n-1.

    The sorted multiset m maps to the k-subset (m_i + i) of 0..n+k-2, a
    bijection that keeps the lexicographic order.
    """
    m = sorted(int(v) for v in state)
    if not m or m[0] < 0 or m[-1] >= n:
        raise ValueError(f"{state!r} is not a multiset over 0..{n - 1}")
    return subset_rank([v + i for i, v in enumerate(m)], n + len(m) - 1)


def _check_states(label: str, count: int) -> int:
    if count > MAX_POWER_STATES:
        # str() refuses integers of more than 4,300 digits
        size = count if count.bit_length() <= 64 else f"2^{count.bit_length() - 1} or more"
        raise ValueError(
            f"{label} = {size} exceeds the desk-scale cap of {MAX_POWER_STATES} states"
        )
    return count


def _arrangements(n: int, k: int, repeats: bool) -> tuple:
    """Tuple indices, tuples and lex ranks of the sorted forms of the k-tuples
    over 0..n-1 arranging a k-subset (or, with ``repeats``, a k-multiset), and
    the state count: n^k tuples, never the k! permutations n^k cannot bound."""
    _check_states("n^k", n ** k)
    count = len((multiset_states if repeats else k_subsets)(n, k))
    tuples = np.array(list(itertools.product(range(n), repeat=k)), dtype=np.int64).reshape(-1, k)
    srt = np.sort(tuples, axis=1)
    rows = np.flatnonzero(repeats | (srt[:, 1:] > srt[:, :-1]).all(axis=1))
    q = np.arange(k)
    term = _lex_terms(n + k - 1 if repeats else n, k)
    ranks = count - 1 - term(srt[rows] + q * repeats, q).sum(axis=1)
    return rows, tuples[rows], ranks, count


def antisymmetrizer(n: int, k: int) -> np.ndarray:
    """Isometry from k-subsets into the antisymmetric sector of tuples.

    Column for subset S holds sign(pi)/sqrt(k!) at every arrangement
    pi(S); columns are orthonormal (disjoint supports, unit norm).
    """
    rows, tuples, cols, count = _arrangements(n, k, False)
    inversions = sum(tuples[:, a] > tuples[:, b] for a, b in itertools.combinations(range(k), 2))
    mat = np.zeros((n ** k, count))
    mat[rows, cols] = (-1.0) ** inversions
    return mat / math.sqrt(math.factorial(k))


def symmetrizer(n: int, k: int) -> np.ndarray:
    """Isometry from k-multisets into the symmetric sector of tuples.

    Column for a multiset is the normalised indicator of its orbit of
    distinct arrangements.
    """
    rows, _, cols, count = _arrangements(n, k, True)
    mat = np.zeros((n ** k, count))
    mat[rows, cols] = 1.0
    return mat / np.sqrt(mat.sum(axis=0))  # a column sum is its orbit's size


def cartesian_power_matrix(g: SignedGraph, k: int) -> np.ndarray:
    """Adjacency of the k-fold Cartesian power as a Kronecker sum."""
    _check_states("n^k", g.n ** k)
    return _kronecker_sum([g] * k)


def _lex_terms(n: int, k: int):
    """The summands C(n - 1 - a, k - q) of :func:`subset_rank`'s closed form
    for arrays of elements a at positions q, zero where n - 1 - a < k - q.
    They are read from a table of C(d + j, j) at d = n - 1 - a - (k - q) and
    j = k - q, whose entries never exceed C(n, k)."""
    table = np.zeros((n - k + 2, k + 1), dtype=np.int64)  # rows 0, 1: d = -2, -1
    table[2:, 0] = 1
    for j in range(1, k + 1):
        table[2:, j] = np.cumsum(table[2:, j - 1])  # hockey-stick identity
    return lambda a, q: table[n - k - a + q + 1, k - q]


def _hop_nets(adj: np.ndarray, k: int, bosons: bool) -> np.ndarray:
    """Hop matrices of k particles on unsigned adjacencies, (..., n, n) in,
    (..., S, S) out, over the lex-ordered k-subsets (fermions, int64 signs) or
    k-multisets (bosons, float weights).

    Each hop u -> v is met once, from its lower state (v > u).  A fermion
    hop carries (-1)^(occupied sites strictly between u and v); a boson hop
    moves the first particle on u and carries sqrt(a_u (a_v + 1)) for the
    occupations a before it.  :func:`subset_rank`'s closed form ranks each
    target, a multiset m as the k-subset (m_i + i) of 0..n+k-2.
    """
    n = adj.shape[-1]
    top = n + k - 1 if bosons else n  # the subsets' ground set is 0..top-1
    count = _check_states("C(n+k-1, k)" if bosons else "C(n, k)", math.comb(top, k))
    states = np.array((multiset_states if bosons else k_subsets)(n, k), dtype=np.int64)
    occupied = np.zeros((count, n), dtype=np.int64)
    np.add.at(occupied, (np.arange(count)[:, None], states), 1)
    at_or_below = np.cumsum(occupied, axis=1)  # particles on sites <= v
    term, q = _lex_terms(top, k), np.arange(k)
    # hop[..., a, r, v]: the particle at position r of state a hops to v
    hop = (adj > 0)[..., states, :] & (np.arange(n) > states[..., None])
    if bosons:
        hop[..., 1:, :] &= (states[:, 1:] != states[:, :-1])[..., None]  # first particle on u
    else:
        hop &= (occupied == 0)[:, None]
    *ig, ia, r, v = np.nonzero(hop)
    u = states[ia, r]
    target = np.sort(np.where(q == r[:, None], v[:, None], states[ia]), axis=1)
    ib = count - 1 - term(target + q if bosons else target, q).sum(axis=1)
    net = np.zeros((*adj.shape[:-2], count, count), dtype=float if bosons else np.int64)
    at, mirror = (*ig, ia, ib), (*ig, ib, ia)
    if bosons:
        net[at] = np.sqrt(occupied[ia, u] * (occupied[ia, v] + 1))
    else:
        net[at] = 1 - 2 * ((at_or_below[ia, v] - at_or_below[ia, u]) % 2)
    net[mirror] = net[at]
    return net


def exterior_power(g: SignedGraph, k: int) -> SignedGraph:
    """Signed k-th exterior power on the k-subsets of the vertices.

    Subsets A and B are adjacent when they differ in one element u -> v
    with uv an edge of G; the sign is (-1)^(r+s) for the 1-based
    positions r of u in A and s of v in B (the parity of the alignment
    permutation between the two sorted tuples).
    """
    _require_unsigned(g, "exterior_power")
    return _simple_graph(_hop_nets(g.pos, k, False))


def exterior_power_oracle(g: SignedGraph, k: int) -> WeightedGraph:
    """Independent route to the exterior power: conjugate the Cartesian
    power by the antisymmetrizer and round to exact {-1, 0, +1} entries."""
    _require_unsigned(g, "exterior_power_oracle")
    return _conjugate_exterior(g, k, antisymmetrizer(g.n, k))  # checks the n^k cap first


def _conjugate_exterior(g: SignedGraph, k: int, alt: np.ndarray) -> WeightedGraph:
    """:func:`exterior_power_oracle` with the antisymmetrizer of (g.n, k)
    given, so that callers conjugating many graphs build it once.  The
    Cartesian power acts factor by factor, as in :func:`_conjugate_power`."""
    w = _conjugate_power(g, k, alt)
    rounded = np.rint(w)
    if np.abs(w - rounded).max() > 1e-9:
        raise RuntimeError("exterior power conjugation is not integral to 1e-9")
    if np.abs(rounded).max(initial=0.0) > 1:
        raise RuntimeError("exterior power conjugation left an entry outside {-1,0,+1}")
    return WeightedGraph(w.shape[0], rounded)


def _conjugate_power(g: SignedGraph, k: int, iso: np.ndarray) -> np.ndarray:
    """iso^T B iso for B = :func:`cartesian_power_matrix` (g, k), applied as
    A on each tuple digit of iso's columns in turn: no n^k x n^k matrix."""
    _check_states("n^k", g.n ** k)
    a = g.adjacency.astype(float)
    cols = iso.reshape((g.n,) * k + (-1,))
    box_iso = sum(np.moveaxis(np.tensordot(a, cols, axes=(1, i)), 0, i) for i in range(k))
    return iso.T @ box_iso.reshape(iso.shape)


def symmetric_power(g: SignedGraph, k: int) -> SignedGraph:
    """Unsigned k-th symmetric power: same support as the exterior power,
    every edge positive."""
    _require_unsigned(g, "symmetric_power")
    return _simple_graph(_hop_nets(g.pos, k, False) != 0)


def boson_quotient(g: SignedGraph, k: int) -> WeightedGraph:
    """Weighted walk of k bosons on the k-multisets in lex order: a hop
    u -> v carries sqrt(a_u (a_v + 1)) for occupations a before the hop."""
    _require_unsigned(g, "boson_quotient")
    net = _hop_nets(g.pos, k, True)  # each hop written with its mirror, zero diagonal
    return _handed_over(WeightedGraph, n=len(net), weights=net)


def boson_quotient_oracle(g: SignedGraph, k: int) -> WeightedGraph:
    """Independent route to the boson walk: the Cartesian power
    conjugated by the multiset symmetrizer."""
    _require_unsigned(g, "boson_quotient_oracle")
    sym = symmetrizer(g.n, k)  # checks the n^k cap first
    return WeightedGraph(sym.shape[1], _conjugate_power(g, k, sym))


def boson_formula_comparison(g: SignedGraph, k: int) -> list:
    """Compare the hop weights of :func:`boson_quotient` with the
    closed-form guess sqrt((a_u - 1)(a_v + 1)).

    Returns a list of (state_a, state_b, formula_value, actual_value)
    for every adjacent pair where the guess misses; an empty list would
    mean the closed form reproduces the conjugated ladder.
    """
    states = multiset_states(g.n, k)
    rows, cols, weights = _edge_view(boson_quotient(g, k))
    occupation = np.zeros((len(states), g.n), dtype=np.int64)
    np.add.at(occupation, (np.arange(len(states))[:, None], np.array(states)), 1)
    upper = rows < cols  # each entry above the diagonal is one hop: a particle leaves u for v
    ia, ib, actual = rows[upper], cols[upper], weights[upper]
    moved = occupation[ia] - occupation[ib]
    a_u = occupation[ia, moved.argmax(axis=1)]
    a_v = occupation[ia, moved.argmin(axis=1)]
    guess = np.sqrt(np.maximum(0, (a_u - 1) * (a_v + 1)))
    miss = np.flatnonzero(np.abs(guess - actual) > 1e-9)
    return [(states[ia[i]], states[ib[i]], float(guess[i]), float(actual[i])) for i in miss]


def fermion_pst_lift(g: SignedGraph, pairs: Sequence, t: float,
                     tol: float = 1e-9) -> PstVerdict:
    """Lift simultaneous single-particle transfers to the exterior power.

    ``pairs`` lists k disjoint (a_j, b_j) transfer pairs that must each
    pass a numeric PST check on G at time t; the verdict is then the PST
    check between the sorted wedge states on the k-th exterior power.
    """
    pairs = [(int(a), int(b)) for a, b in pairs]
    k = len(pairs)
    if k < 1:
        raise ValueError("need at least one transfer pair")
    endpoints = [v for pair in pairs for v in pair]
    if len(set(endpoints)) != 2 * k:
        raise ValueError("transfer pairs must be pairwise disjoint")
    for a, b in pairs:
        verdict = is_pst(g, a, b, t, tol)
        if verdict.kind != "pst":
            raise ValueError(
                f"no perfect state transfer {a} -> {b} at t={t} "
                f"(fidelity {verdict.fidelity:.6f})"
            )
    start = tuple(sorted(a for a, _ in pairs))
    end = tuple(sorted(b for _, b in pairs))
    ext = exterior_power(g, k)
    return is_pst(ext, subset_rank(start, g.n), subset_rank(end, g.n), t, tol)
