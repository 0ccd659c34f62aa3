"""Builders for distance-biregular graph families.

Every builder returns a :class:`ConstructionResult` carrying the graph
together with the intersection array the construction predicts for it.
Builders never verify their own output; the verification pass
(:func:`dbrg.bigraph.dbrg_check`) is separate, so each predicted array
doubles as a regression fixture.

Families: complete bipartite graphs; the two unbounded-diameter
subset/subspace inclusion families; vector-coset incidence graphs of
perp systems and of the quadric-cone family; the affine hyperoval
family; and local derived graphs of diameter-4 graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .bigraph import (BipartiteGraph, IntersectionArray, dbrg_check, distance_partition,
                      flip, induced_subgraph)
from .feasibility import distance3_homogeneity
from .gfcore import (
    bitset_contains,
    coset_ids,
    echelon_bases,
    qbinom,
    subspace_vector_ids,
    vector_bitsets,
    vector_ids,
)
from .geometry import SpaceFamily, cone_spaces, dualize, field_for_order, hyperoval
from .perpsys import PerpSystem

__all__ = [
    "ConstructionResult",
    "DerivedGraphError",
    "complete_bipartite",
    "bi_johnson",
    "bi_grassmann",
    "gen_delorme_graph",
    "cone_graph",
    "hyperoval_affine_graph",
    "derived_local_graph",
]


@dataclass(frozen=True)
class ConstructionResult:
    graph: BipartiteGraph
    predicted: IntersectionArray
    provenance: str
    params: dict = dc_field(default_factory=dict)


def complete_bipartite(k: int, l: int) -> ConstructionResult:
    """K_{l,k}: the class of size l has valency k."""
    if k < 1 or l < 1:
        raise ValueError("valencies must be positive")
    g = BipartiteGraph(l, k, [(b, c) for b in range(l) for c in range(k)])
    cb = (1, k) if l > 1 else (1,)
    cc = (1, l) if k > 1 else (1,)
    note = "complete-bipartite"
    if k == l == 1:
        note += " (single edge, diameter 1)"
    return ConstructionResult(g, IntersectionArray(k, l, cb, cc), note, {"k": k, "l": l})


def _stair(count: int) -> tuple[int, ...]:
    # 1, 1, 2, 2, 3, 3, ...
    return tuple((i + 1) // 2 for i in range(1, count + 1))


def bi_johnson(n: int, k: int) -> ConstructionResult:
    """Inclusion graph of k-subsets vs (k+1)-subsets of an n-set."""
    if k < 1 or n < 2 * k + 2:
        raise ValueError(f"need k >= 1 and n >= 2k+2, got n={n}, k={k}")
    small = list(itertools.combinations(range(n), k))
    large = list(itertools.combinations(range(n), k + 1))
    big_index = {s: i for i, s in enumerate(large)}
    edges = []
    for bi, s in enumerate(small):
        rest = set(range(n)) - set(s)
        for extra in rest:
            edges.append((bi, big_index[tuple(sorted(s + (extra,)))]))
    g = BipartiteGraph(len(small), len(large), edges)
    arr = IntersectionArray(n - k, k + 1, _stair(2 * k + 1), _stair(2 * k + 2))
    return ConstructionResult(g, arr, "subset-inclusion", {"n": n, "k": k})


def bi_grassmann(n: int, k: int, q: int) -> ConstructionResult:
    """Inclusion graph of k-dim vs (k+1)-dim subspaces of F_q^n."""
    if k < 1 or n < 2 * k + 2:
        raise ValueError(f"need k >= 1 and n >= 2k+2, got n={n}, k={k}")
    ctx = field_for_order(q)
    small = np.concatenate(list(echelon_bases(ctx, n, k)))
    large = np.concatenate(list(echelon_bases(ctx, n, k + 1)))
    rows = vector_ids(ctx, small)
    bits = vector_bitsets(subspace_vector_ids(ctx, large), q**n)
    # a small space lies in a large one iff each of its basis rows does;
    # large spaces go in chunks so the table stays a few million entries
    step = max(1, 2**22 // (len(small) * k))
    edges = [np.argwhere(bitset_contains(bits[c:c + step], rows).all(axis=2))[:, ::-1] + (0, c)
             for c in range(0, len(large), step)]
    g = BipartiteGraph(len(small), len(large), np.concatenate(edges))
    cb = tuple(qbinom(v, 1, q) for v in _stair(2 * k + 1))
    cc = tuple(qbinom(v, 1, q) for v in _stair(2 * k + 2))
    arr = IntersectionArray(qbinom(n - k, 1, q), qbinom(k + 1, 1, q), cb, cc)
    return ConstructionResult(g, arr, "subspace-inclusion", {"n": n, "k": k, "q": q})


def _coset_incidence(family: SpaceFamily) -> BipartiteGraph:
    """B = all vectors of F_q^n by vector index, C = all cosets of all
    members in :func:`dbrg.gfcore.coset_ids` order: coset j of member i is
    C vertex i * q^(n-dim) + j, and j = 0 is the member itself."""
    cosets = coset_ids(family.ctx, family.bases)
    s, per, size = cosets.shape
    c = np.repeat(np.arange(s * per), size)
    return BipartiteGraph(family.ctx.q**family.n, s * per, np.column_stack([cosets.ravel(), c]))


def gen_delorme_graph(system: PerpSystem) -> ConstructionResult:
    """Vector-coset incidence graph of a perp system.

    B is all q^n vectors, C the s*q^k affine cosets of the members; the
    predicted diameter-4 array is determined by (n, k, q, d, s).  Raises
    ValueError on a dual system, and when d does not divide
    q^(n-2k)(s-1), the numerator of c3B.
    """
    system.require_primal("the coset graph")
    ctx, n, k, d, s = system.ctx, system.n, system.k, system.d, system.s
    q = ctx.q
    c3b, rem = divmod(q ** (n - 2 * k) * (s - 1), d)
    if rem:
        raise ValueError(f"c3B = q^(n-2k)(s-1)/d = {q ** (n - 2 * k) * (s - 1)}/{d} is not an integer")
    g = _coset_incidence(system)
    arr = IntersectionArray(
        s, q ** (n - k),
        (1, d, c3b, s),
        (1, q ** (n - 2 * k), s - 1, q ** (n - k)),
    )
    return ConstructionResult(
        g, arr, "perp-system cosets", {"n": n, "k": k, "q": q, "d": d, "s": s}
    )


def cone_graph(q: int) -> ConstructionResult:
    """Coset incidence graph of one ruling of the hyperbolic-quadric cone.

    B is the q^6 affine points, C the q^3 cosets of each of the
    (q+1)(q^2+1) totally singular 3-spaces in the chosen ruling.
    """
    if q > 4:
        raise ValueError("cone_graph is desk-scale: q <= 4")
    _, s_star = cone_spaces(q)
    g = _coset_incidence(s_star)
    n4 = qbinom(4, 1, q)
    arr = IntersectionArray(
        n4, q**3,
        (1, q + 1, q * q, n4),
        (1, q, q * q + q, q**3),
    )
    return ConstructionResult(g, arr, "quadric-cone cosets", {"q": q})


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
    # planes of the dual hyperoval: perps of the oval points; each has q
    # cosets, the plane through the origin first
    full = _coset_incidence(dualize(hyperoval(q)))
    exterior = np.flatnonzero(np.bincount(full.eb[full.ec % q == 0], minlength=full.nB) == 0)
    g = induced_subgraph(full, exterior.tolist(), np.flatnonzero(np.arange(full.nC) % q).tolist())
    arr = IntersectionArray(
        q + 2, q * (q - 1) // 2,
        (1, 2, q * (q + 1) // 4, q + 2),
        (1, q // 2, q + 1, q * (q - 1) // 2),
    )
    return ConstructionResult(g, arr, "affine hyperoval planes", {"q": q})


class DerivedGraphError(ValueError):
    """A hypothesis of the local derivation fails; names the condition."""

    def __init__(self, condition: str, detail: str = ""):
        super().__init__(f"{condition}" + (f": {detail}" if detail else ""))
        self.condition = condition


def derived_local_graph(
    parent: BipartiteGraph,
    z_side: str,
    z_index: int,
    array: IntersectionArray | None = None,
) -> ConstructionResult:
    """Induced subgraph on the distance-3 and distance-4 cells from z.

    The class containing z plays the role of the second array line; all
    b-numbers are re-derived from the verified parent array.  Hypotheses
    checked before building: a caller-supplied array is valid; b_3 > 0
    on the line of z; the homogeneity scalar for distance 3 vanishes, and
    the two strict inequalities relating its constant to c_2 and b_3.
    Violations raise :class:`DerivedGraphError` naming the condition.
    """
    parent.vertex(z_side, z_index)  # ValueError for a side or index the parent lacks
    if array is None:
        res = dbrg_check(parent)
        if not res.ok:
            raise ValueError(f"parent graph is not distance-biregular: {res.witness}")
        array = res.array
    else:
        try:
            array.validate()
        except ValueError as exc:
            raise DerivedGraphError("array_invalid", str(exc)) from None
    arr = array if z_side == "C" else array.swapped()
    # orient the graph so that z lies in class C
    graph = flip(parent) if z_side == "B" else parent
    z = graph.vertex("C", z_index)
    if arr.dB < 4 or arr.dC < 4:
        raise DerivedGraphError("diameter", "parent must have covering radii at least 4")
    if arr.bC(3) < 1:  # nothing at distance 4 from z; the distance-3 denominator would be 0
        raise DerivedGraphError("b3_positive", f"b3 = {arr.bC(3)} on the line of z")
    c2b, c3b, c2c, b3c = arr.cB[1], arr.cB[2], arr.cC[1], arr.bC(3)
    delta3, gamma3 = distance3_homogeneity(arr)
    if delta3 != 0:
        raise DerivedGraphError("delta3_nonzero", f"distance-3 homogeneity scalar is {delta3}")
    if not (c2b > gamma3):
        raise DerivedGraphError("c2_bound", f"need c2 > gamma3 = {gamma3}")
    if not (b3c > c2b - gamma3):
        raise DerivedGraphError("b3_bound", f"need b3 > c2 - gamma3 = {c2b - gamma3}")
    if gamma3.denominator != 1:
        raise DerivedGraphError("gamma3_integrality", f"gamma3 = {gamma3} is not an integer")
    gamma3 = int(gamma3)

    part = distance_partition(graph, z)
    if part.eccentricity < 4:
        raise DerivedGraphError("diameter", f"z has eccentricity {part.eccentricity} < 4")
    # distance 3 from a C vertex lands in B, distance 4 back in C
    sub = induced_subgraph(graph, part.cells[3], [v - graph.nB for v in part.cells[4]])
    c2_new = c2b - gamma3
    if (c2_new * c3b) % c2c:
        raise DerivedGraphError("array_integrality", "derived c3 is not an integer")
    arr_new = IntersectionArray(
        b3c, arr.l,
        (1, c2_new, c3b, b3c),
        (1, c2c, c2_new * c3b // c2c, arr.l),
    )
    return ConstructionResult(
        sub, arr_new, "local derived graph",
        {"z_side": z_side, "z_index": z_index, "gamma3": gamma3},
    )
