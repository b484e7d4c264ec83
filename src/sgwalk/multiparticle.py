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
from .core import SIMPLE, SignedGraph, WeightedGraph, from_net_matrix
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


def _tuple_index(t: Sequence[int], n: int) -> int:
    idx = 0
    for v in t:
        idx = idx * n + v
    return idx


def _perm_sign(perm: Sequence[int]) -> int:
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def _check_states(label: str, count: int) -> int:
    if count > MAX_POWER_STATES:
        raise ValueError(
            f"{label} = {count} exceeds the desk-scale cap of {MAX_POWER_STATES} states"
        )
    return count


def antisymmetrizer(n: int, k: int) -> np.ndarray:
    """Isometry from k-subsets into the antisymmetric sector of tuples.

    Column for subset S holds sign(pi)/sqrt(k!) at every arrangement
    pi(S); columns are orthonormal (disjoint supports, unit norm).
    """
    _check_states("n^k", n ** k)
    subsets = k_subsets(n, k)
    norm = 1.0 / math.sqrt(math.factorial(k))
    mat = np.zeros((n ** k, len(subsets)))
    for col, subset in enumerate(subsets):
        for perm in itertools.permutations(range(k)):
            row = _tuple_index([subset[p] for p in perm], n)
            mat[row, col] = _perm_sign(perm) * norm
    return mat


def symmetrizer(n: int, k: int) -> np.ndarray:
    """Isometry from k-multisets into the symmetric sector of tuples.

    Column for a multiset is the normalised indicator of its orbit of
    distinct arrangements.
    """
    _check_states("n^k", n ** k)
    states = multiset_states(n, k)
    mat = np.zeros((n ** k, len(states)))
    for col, state in enumerate(states):
        orbit = set(itertools.permutations(state))
        value = 1.0 / math.sqrt(len(orbit))
        for arrangement in orbit:
            mat[_tuple_index(arrangement, n), col] = value
    return mat


def _require_unsigned(g: SignedGraph, op: str) -> None:
    if g.mode != SIMPLE or g.neg.any():
        raise ValueError(f"{op} expects an all-positive simple graph")


def cartesian_power_matrix(g: SignedGraph, k: int) -> np.ndarray:
    """Adjacency of the k-fold Cartesian power as a Kronecker sum."""
    _check_states("n^k", g.n ** k)
    return _kronecker_sum([g.adjacency] * k)


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


def _exterior_nets(adj: np.ndarray, k: int) -> np.ndarray:
    """Net matrices of the k-th exterior powers of a stack of unsigned
    adjacencies: shape (B, n, n) in, (B, C(n, k), C(n, k)) out."""
    n = adj.shape[-1]
    count = _check_states("C(n, k)", math.comb(n, k))  # before any allocation
    subsets = np.array(k_subsets(n, k), dtype=np.int64)
    member = np.zeros((count, n), dtype=bool)
    member[np.arange(count)[:, None], subsets] = True
    at_or_below = np.cumsum(member, axis=1)  # members <= v
    term, q = _lex_terms(n, k), np.arange(k)
    own = term(subsets, q)
    # Moving a_r up to v shifts a_{r+1} .. a_s down one position; shift[:, s]
    # - shift[:, r] is what that adds to the rank of A.
    shift = np.zeros((count, k), dtype=np.int64)
    shift[:, 1:] = np.cumsum(own[:, 1:] - term(subsets[:, 1:], q[:-1]), axis=1)
    rank = count - 1 - own.sum(axis=1)
    net = np.zeros((len(adj), count, count), dtype=np.int64)
    for r in range(k):
        u = subsets[:, r]
        # only v > u: then B ranks after A, and each edge is met from A once
        ig, ia, v = np.nonzero((adj[:, u] > 0) & (np.arange(n) > u[:, None]) & ~member)
        s = at_or_below[ia, v] - 1  # position of v in B
        ib = (rank + own[:, r] - shift[:, r])[ia] + shift[ia, s] - term(v, s)
        net[ig, ia, ib] = net[ig, ib, ia] = 1 - 2 * ((r + s) % 2)
    return net


def exterior_power(g: SignedGraph, k: int) -> SignedGraph:
    """Signed k-th exterior power on the k-subsets of the vertices.

    Subsets A and B are adjacent when they differ in one element u -> v
    with uv an edge of G; the sign is (-1)^(r+s) for the 1-based
    positions r of u in A and s of v in B (the parity of the alignment
    permutation between the two sorted tuples).
    """
    _require_unsigned(g, "exterior_power")
    return from_net_matrix(_exterior_nets(g.pos[None], k)[0])


def exterior_power_oracle(g: SignedGraph, k: int) -> WeightedGraph:
    """Independent route to the exterior power: conjugate the Cartesian
    power by the antisymmetrizer and round to exact {-1, 0, +1} entries."""
    _require_unsigned(g, "exterior_power_oracle")
    _check_states("n^k", g.n ** k)
    alt = antisymmetrizer(g.n, k)
    box = cartesian_power_matrix(g, k).astype(float)
    w = alt.T @ box @ alt
    rounded = np.rint(w)
    if np.abs(w - rounded).max() > 1e-9:
        raise RuntimeError("exterior power conjugation is not integral to 1e-9")
    if np.abs(rounded).max(initial=0.0) > 1:
        raise RuntimeError("exterior power conjugation left an entry outside {-1,0,+1}")
    return WeightedGraph(w.shape[0], rounded)


def symmetric_power(g: SignedGraph, k: int) -> SignedGraph:
    """Unsigned k-th symmetric power: same support as the exterior power,
    every edge positive."""
    _require_unsigned(g, "symmetric_power")
    return from_net_matrix(np.abs(_exterior_nets(g.pos[None], k)[0]))


def boson_quotient(g: SignedGraph, k: int) -> WeightedGraph:
    """Weighted walk of k bosons: the Cartesian power conjugated by the
    multiset symmetrizer.  States are the k-multisets in lex order."""
    _require_unsigned(g, "boson_quotient")
    _check_states("n^k", g.n ** k)
    sym = symmetrizer(g.n, k)
    box = cartesian_power_matrix(g, k).astype(float)
    return WeightedGraph(sym.shape[1], sym.T @ box @ sym)


def boson_formula_comparison(g: SignedGraph, k: int) -> list:
    """Compare the hop weights of :func:`boson_quotient` with the
    closed-form guess sqrt((a_u - 1)(a_v + 1)).

    Returns a list of (state_a, state_b, formula_value, actual_value)
    for every adjacent pair where the guess misses; an empty list would
    mean the closed form reproduces the conjugated ladder.
    """
    states = multiset_states(g.n, k)
    ladder = boson_quotient(g, k).weights
    occupation = np.zeros((len(states), g.n), dtype=np.int64)
    np.add.at(occupation, (np.arange(len(states))[:, None], np.array(states)), 1)
    ia, ib = np.nonzero(np.triu(ladder, 1))
    # each non-zero entry is one hop: a particle leaves u and lands on v
    moved = occupation[ia] - occupation[ib]
    a_u = occupation[ia, moved.argmax(axis=1)]
    a_v = occupation[ia, moved.argmin(axis=1)]
    guess = np.sqrt(np.maximum(0, (a_u - 1) * (a_v + 1)))
    actual = ladder[ia, ib]
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
