"""Builders for distance-biregular graph families.

Every builder returns a :class:`ConstructionResult` carrying the graph
together with the intersection array the construction predicts for it.
Builders never verify their own output; the verification pass
(:func:`dbrg.bigraph.dbrg_check`) is separate, so each predicted array
doubles as a regression fixture.

Builders that know symmetries of their graph also claim them, as vertex
permutations in ``ConstructionResult.automorphisms``: the coset graphs
carry the translations of F_q^n, the affine hyperoval graph the scaling
by a primitive element.  A claim is not trusted: ``dbrg_check(graph,
automorphisms)`` checks every generator against the edges exactly and
raises ValueError for a wrong one, and only then runs one BFS per orbit.

A builder refuses, with MemoryError and before it allocates, a graph
whose predicted edge count is over :data:`MAX_EDGES`.

Families: complete bipartite graphs; the two unbounded-diameter
subset/subspace inclusion families; vector-coset incidence graphs of
perp systems and of the quadric-cone family; the affine hyperoval
family; and local derived graphs of diameter-4 graphs, their hypotheses
and array from :func:`dbrg.params.derived_array`.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .bigraph import BipartiteGraph, dbrg_check, distance_partition, flip, induced_subgraph
from .gfcore import (
    coset_index,
    echelon_bases,
    scaling,
    stack_bases,
    subspace_vector_ids,
    translations,
    vector_ids,
)
from .geometry import cone_spaces, dualize, hyperoval
from .gfint import SpaceFamily, field_for_order, qbinom
from .params import DerivedGraphError, IntersectionArray, derived_array, prime_power

if TYPE_CHECKING:
    from .perpsys import PerpSystem

__all__ = [
    "ConstructionResult",
    "complete_bipartite",
    "bi_johnson",
    "bi_grassmann",
    "gen_delorme_graph",
    "cone_graph",
    "hyperoval_affine_graph",
    "derived_local_graph",
    "MAX_EDGES",
]

# a build and its certified check peak at about 20 bytes per edge over the
# interpreter (the dual Denniston (32,4) graph: 63 MB for 3.3M edges)
MAX_EDGES = 2**24


_BATCH = 2**16  # coset table entries per batch of members in a coset incidence graph


def _check_size(edges: int) -> None:
    """MemoryError if a graph of at least ``edges`` edges is over MAX_EDGES."""
    if edges > MAX_EDGES:
        count = edges if edges < 2**64 else f"2^{edges.bit_length() - 1}"
        raise MemoryError(f"a graph of at least {count} edges, over the bound of {MAX_EDGES}")


class ConstructionResult(NamedTuple):
    graph: BipartiteGraph
    predicted: IntersectionArray
    provenance: str
    params: dict = {}  # one shared default: no caller mutates params
    # claimed automorphisms, each a vertex permutation of length V;
    # dbrg_check verifies them before it uses them
    automorphisms: tuple[np.ndarray, ...] = ()


def complete_bipartite(k: int, l: int) -> ConstructionResult:
    """K_{l,k}: the class of size l has valency k."""
    if k < 1 or l < 1:
        raise ValueError("valencies must be positive")
    _check_size(k * l)
    g = BipartiteGraph(l, k, np.indices((l, k), np.int32).reshape(2, -1).T)
    cb = (1, k) if l > 1 else (1,)
    cc = (1, l) if k > 1 else (1,)
    note = "complete-bipartite"
    if k == l == 1:
        note += " (single edge, diameter 1)"
    return ConstructionResult(g, IntersectionArray(k, l, cb, cc), note, {"k": k, "l": l})


def _stair(count: int) -> tuple[int, ...]:
    # 1, 1, 2, 2, 3, 3, ...
    return tuple((i + 1) // 2 for i in range(1, count + 1))


def _subset_inclusions(n: int, k: int) -> np.ndarray:
    """The pairs (small, large) of k-subsets in (k+1)-subsets of an n-set,
    each numbered in ``itertools.combinations`` order, as int32 rows.

    A subset c_0 < ... < c_{k-1} is number C(n, k) - 1 - sum_i C(n-1-c_i,
    k-i) (the colex rank of {n-1-c_i}).  Dropping element j of a large set
    L keeps the terms C(n-1-L_i, k-i) of the i < j and shifts those of the
    i > j to C(n-1-L_i, k+1-i), so each j is a prefix plus a suffix sum.
    """
    count = math.comb(n, k + 1)
    large = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), k + 1)),
                        np.int32, count * (k + 1)).reshape(count, k + 1)
    np.subtract(n - 1, large, out=large)
    choose = np.array([[math.comb(a, b) for b in range(k + 2)] for a in range(n)], np.int32)
    i = np.arange(k + 1)
    kept, shifted = choose[large, k - i], choose[large, k + 1 - i]
    del large
    edges = np.empty((count, k + 1, 2), np.int32)
    edges[:, :, 0] = math.comb(n, k) - 1
    edges[:, 1:, 0] -= np.cumsum(kept, axis=1, dtype=np.int32)[:, :-1]
    edges[:, :-1, 0] -= np.cumsum(shifted[:, ::-1], axis=1, dtype=np.int32)[:, -2::-1]
    edges[:, :, 1] = np.arange(count)[:, None]
    return edges.reshape(-1, 2)


def bi_johnson(n: int, k: int) -> ConstructionResult:
    """Inclusion graph of k-subsets vs (k+1)-subsets of an n-set."""
    if k < 1 or n < 2 * k + 2:
        raise ValueError(f"need k >= 1 and n >= 2k+2, got n={n}, k={k}")
    # C(n, j) grows with j < n/2, so this is exact up to k = 25 and, past
    # that, a lower bound already over MAX_EDGES (n >= 52)
    _check_size(math.comb(n, min(k, 25)) * (n - k))
    g = BipartiteGraph(math.comb(n, k), math.comb(n, k + 1), _subset_inclusions(n, k))
    arr = IntersectionArray(n - k, k + 1, _stair(2 * k + 1), _stair(2 * k + 2))
    return ConstructionResult(g, arr, "subset-inclusion", {"n": n, "k": k})


def bi_grassmann(n: int, k: int, q: int) -> ConstructionResult:
    """Inclusion graph of k-dim vs (k+1)-dim subspaces of F_q^n."""
    if k < 1 or n < 2 * k + 2:
        raise ValueError(f"need k >= 1 and n >= 2k+2, got n={n}, k={k}")
    prime_power(q)  # ValueError for a q that is no field order, before it is counted
    # [n, k]_q >= [n, 1]_q >= 2^(n-1): a larger n is over the bound, counted in part
    _check_size(qbinom(n, k, q) * qbinom(n - k, 1, q) if n <= 25 else qbinom(26, 1, q))
    ctx = field_for_order(q)
    small = np.concatenate(list(echelon_bases(ctx, n, k)))
    large = np.concatenate(list(echelon_bases(ctx, n, k + 1)))
    rows = vector_ids(ctx, small)
    # a small space lies in a large one iff each of its basis rows does;
    # large spaces go in chunks so that each table stays a few million entries
    step = max(1, 2**22 // max(len(small) * k, q**n))
    edges = []
    for c in range(0, len(large), step):
        ids = subspace_vector_ids(ctx, large[c:c + step])
        member = np.zeros((len(ids), q**n), dtype=bool)  # member[i, v]: v lies in large space c + i
        member[np.arange(len(ids))[:, None], ids] = True
        edges.append(np.argwhere(member[:, rows].all(axis=2))[:, ::-1] + (0, c))
    g = BipartiteGraph(len(small), len(large), np.concatenate(edges))
    cb = tuple(qbinom(v, 1, q) for v in _stair(2 * k + 1))
    cc = tuple(qbinom(v, 1, q) for v in _stair(2 * k + 2))
    arr = IntersectionArray(qbinom(n - k, 1, q), qbinom(k + 1, 1, q), cb, cc)
    return ConstructionResult(g, arr, "subspace-inclusion", {"n": n, "k": k, "q": q})


def _coset_incidence(family: SpaceFamily, maps: np.ndarray,
                     points: np.ndarray | None = None) -> tuple[BipartiteGraph, np.ndarray]:
    """B = the vectors ``points`` of F_q^n (increasing vector indices, all
    of them by default), C = the cosets of the members that hold one, in
    :func:`dbrg.gfcore.coset_index` order: with all vectors, coset j of
    member i is C vertex i * q^(n-dim) + j, and j = 0 is the member
    itself.  Also returns the vector-id maps ``maps`` (one per row, each
    keeping ``points`` and sending every coset of a member to a coset of
    that member) as int32 vertex permutations, lifted to the cosets
    through one vector of each.

    The edges come a batch of members at a time, each batch's tables
    about ``_BATCH`` entries, straight from the coset that holds each
    point; a point's neighbours increase with the member, so the rows
    point by point, member by member, are sorted.
    """
    ctx, bases = family.ctx, stack_bases(family)
    size = ctx.q**family.n
    points = np.arange(size) if points is None else points
    edges = np.empty((len(points), len(bases), 2), np.int32)
    edges[:, :, 0] = np.arange(len(points))[:, None]
    lifted, nC, step = [], 0, max(1, _BATCH // size)
    per = size // ctx.q ** bases.shape[1]  # cosets of each member
    for i in range(0, len(bases), step):
        index = coset_index(ctx, bases[i:i + step])
        rows = np.arange(len(index))[:, None]
        where, held = index[:, points], np.zeros((len(index), per), bool)
        held[rows, where] = True
        vertex = (np.cumsum(held, dtype=np.int32) + np.int32(nC - 1)).reshape(held.shape)
        edges[:, i:i + step, 1] = vertex[rows, where].T
        reps = np.empty((len(index), per), np.int32)
        reps[rows, index] = np.arange(size, dtype=np.int32)  # one vector of each coset
        lifted.append(vertex[rows, index[rows, maps[:, reps]]][:, held])
        nC += int(held.sum())
    g = BipartiteGraph(len(points), nC, edges.reshape(-1, 2))
    del edges
    moved = np.searchsorted(points, maps[:, points])
    return g, np.hstack([moved, *(g.nB + c for c in lifted)]).astype(np.int32)


def gen_delorme_graph(system: PerpSystem) -> ConstructionResult:
    """Vector-coset incidence graph of a perp system.

    B is all q^n vectors, C the s*q^k affine cosets of the members; the
    predicted diameter-4 array is determined by (n, k, q, d, s).  Raises
    ValueError when d does not divide q^(n-2k)(s-1), the numerator of c3B.
    """
    ctx, n, k, d, s = system.ctx, system.n, system.k, system.d, system.s
    q = ctx.q
    c3b, rem = divmod(q ** (n - 2 * k) * (s - 1), d)
    if rem:
        raise ValueError(f"c3B = q^(n-2k)(s-1)/d = {q ** (n - 2 * k) * (s - 1)}/{d} is not an integer")
    _check_size(q**n * s)
    g, shifts = _coset_incidence(system, translations(ctx, n))
    arr = IntersectionArray(
        s, q ** (n - k),
        (1, d, c3b, s),
        (1, q ** (n - 2 * k), s - 1, q ** (n - k)),
    )
    return ConstructionResult(
        g, arr, "perp-system cosets", {"n": n, "k": k, "q": q, "d": d, "s": s},
        automorphisms=tuple(shifts),
    )


def cone_graph(q: int) -> ConstructionResult:
    """Coset incidence graph of one ruling of the hyperbolic-quadric cone.

    B is the q^6 affine points, C the q^3 cosets of each of the
    (q+1)(q^2+1) totally singular 3-spaces in the chosen ruling.
    """
    _check_size(q**6 * (q + 1) * (q * q + 1))  # each point lies on one coset of each member
    _, s_star = cone_spaces(q)
    g, shifts = _coset_incidence(s_star, translations(s_star.ctx, 6))
    n4 = qbinom(4, 1, q)
    arr = IntersectionArray(
        n4, q**3,
        (1, q + 1, q * q, n4),
        (1, q, q * q + q, q**3),
    )
    return ConstructionResult(g, arr, "quadric-cone cosets", {"q": q},
                              automorphisms=tuple(shifts))


def hyperoval_affine_graph(q: int) -> ConstructionResult:
    """Points with exterior direction vs affine planes of a dual hyperoval.

    Directions of F_q^3 are classified by the dual of a hyperoval (q+2
    lines at infinity, every direction on 0 or 2 of them).  B is the
    q(q-1)^2/2 points whose direction misses all lines; C is the
    (q+2)(q-1) affine planes with a line of the dual at infinity, the
    plane through the origin excluded.
    """
    if q < 4 or q & (q - 1):
        raise ValueError("need q = 2^m with m >= 2")
    _check_size(q * (q - 1) ** 2 // 2 * (q + 2))  # each point lies on q + 2 planes
    # planes of the dual hyperoval: perps of the oval points; each has q
    # cosets, the plane through the origin first.  The points off every
    # plane are those with an exterior direction, and lie on affine planes.
    planes = dualize(hyperoval(q))
    ctx = planes.ctx
    on_plane = np.zeros(q**3, bool)
    on_plane[0] = True
    on_plane[subspace_vector_ids(ctx, stack_bases(planes))] = True
    # x -> lam x fixes the origin, so it keeps both vertex sets
    g, (lam,) = _coset_incidence(planes, scaling(ctx, 3, ctx.generator)[None],
                                 np.flatnonzero(~on_plane))
    arr = IntersectionArray(
        q + 2, q * (q - 1) // 2,
        (1, 2, q * (q + 1) // 4, q + 2),
        (1, q // 2, q + 1, q * (q - 1) // 2),
    )
    return ConstructionResult(g, arr, "affine hyperoval planes", {"q": q},
                              automorphisms=(lam,))


def derived_local_graph(parent: BipartiteGraph, z_side: str, z_index: int) -> ConstructionResult:
    """Induced subgraph on the distance-3 and distance-4 cells from z.

    :class:`DerivedGraphError` ``parent_not_dbrg`` with the witness of
    :func:`dbrg_check` if the parent is not distance-biregular; else its
    array, oriented so that z lies in class C, goes to
    :func:`dbrg.params.derived_array` for the hypotheses and the predicted
    array.  ValueError for a side or index the parent lacks.
    """
    parent.vertex(z_side, z_index)
    res = dbrg_check(parent)
    if not res.ok:
        raise DerivedGraphError("parent_not_dbrg", str(res.witness))
    arr, gamma3 = derived_array(res.array if z_side == "C" else res.array.swapped())
    # orient the graph so that z lies in class C; its covering radius dC >= 4
    # is z's eccentricity, so cells 3 and 4 exist
    graph = flip(parent) if z_side == "B" else parent
    part = distance_partition(graph, graph.vertex("C", z_index))
    # distance 3 from a C vertex lands in B, distance 4 back in C
    sub = induced_subgraph(graph, part.cells[3], [v - graph.nB for v in part.cells[4]])
    return ConstructionResult(
        sub, arr, "local derived graph",
        {"z_side": z_side, "z_index": z_index, "gamma3": gamma3},
    )
