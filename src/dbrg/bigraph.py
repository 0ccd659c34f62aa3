"""Bipartite graph engine: distance partitions and biregularity checks.

Verification is definition-first: a BFS from every vertex, with the
per-cell neighbour counts (c_i, b_i) tested for constancy cell by cell.
Theorem shortcuts are available as cross-checks but never replace the
definition.

Every distance comes from one engine, :func:`_levels`: level-synchronous
BFS from up to ``_BATCH`` sources of one class at once, as products with
the biadjacency matrix N (BFS as linear algebra).  A frontier on B times N
reaches C, one on C times N^T reaches B; each product counts, per vertex,
its neighbours in the frontier.  The graph is bipartite, so no edge joins
two vertices at the same distance: for a vertex first reached at level i
the product is exactly c_i, and b_i = deg - c_i.  One pass gives the
distances and the (c, b) profile of every source in the batch.  Float32
products are exact: the terms are 0/1, so every partial sum is an integer
at most the maximum degree, and degrees of 2**24 or more are refused.
Memory: edges are two sorted int32 arrays; the engine holds N densely
(4 nB nC bytes) plus, per level, a few ``_BATCH`` x class-size arrays.

A simple :class:`Graph` (a halved graph, or subdivision input) is held as
a dense read-only boolean adjacency matrix: every consumer works densely,
so its edge list is derived from the matrix, not stored.  A strongly
regular graph's parameters come from one derivation,
:func:`srg_from_spectrum`, which both the feasibility conditions and the
perp-system parameters use.

Vertices are addressed by a single index: the B class occupies
``0..nB-1`` and the C class ``nB..nB+nC-1``.

Graph text format: header ``B=<nB> C=<nC>``, then one edge ``<b> <c>``
per line with 0-based class-local indices, sorted.  Intersection arrays
print as ``{k;c1,...,cdB | l;c1,...,cdC}``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BipartiteGraph",
    "Graph",
    "IntersectionArray",
    "DistancePartition",
    "LocalCheck",
    "DbrgResult",
    "SemiregularResult",
    "SrgResult",
    "SrgParams",
    "srg_from_spectrum",
    "ShortcutResult",
    "distance_partition",
    "local_dr_check",
    "dbrg_check",
    "girth",
    "semiregular_check",
    "halved_graphs",
    "srg_check",
    "subdivision",
    "flip",
    "induced_subgraph",
    "c3_shortcut_check",
    "parse_graph",
    "serialize_graph",
    "arrays_equal_up_to_swap",
]


def _check_class_sizes(nB: int, nC: int) -> None:
    if nB < 0 or nC < 0:
        raise ValueError(f"negative class size, B={nB} C={nC}")
    if nB + nC > 2**31:
        raise ValueError(f"B={nB} C={nC}: {nB + nC} vertices do not fit int32 vertex ids")


class BipartiteGraph:
    """Immutable bipartite graph on two indexed vertex classes.

    The edges are held as int32 arrays ``eb`` and ``ec`` of class-local
    endpoints, sorted by (b, c); repeated input pairs are dropped.
    """

    def __init__(self, nB: int, nC: int, edges: Iterable[tuple[int, int]] | np.ndarray):
        _check_class_sizes(nB, nC)
        pairs = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        b, c = pairs.reshape(-1, 2).T
        bad = (b < 0) | (b >= nB) | (c < 0) | (c >= nC)
        if bad.any():
            b0, c0 = min(zip(b[bad].tolist(), c[bad].tolist()))
            raise ValueError(f"edge ({b0},{c0}) out of range for B={nB} C={nC}")
        keys = np.sort(b * nC + c)  # de-duplicated by sorting: np.unique imports numpy.ma
        eb, ec = np.divmod(keys[np.diff(keys, prepend=-1) != 0], max(nC, 1))
        self.eb, self.ec = eb.astype(np.int32), ec.astype(np.int32)
        self.nB, self.nC, self.V = nB, nC, nB + nC
        self.degrees = np.bincount(np.concatenate([self.eb, self.ec + nB]), minlength=self.V)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as sorted (b, c) pairs."""
        return tuple(zip(self.eb.tolist(), self.ec.tolist()))

    def vertex(self, side: str, idx: int) -> int:
        if side == "B":
            if not 0 <= idx < self.nB:
                raise ValueError(f"B index {idx} out of range")
            return idx
        if side == "C":
            if not 0 <= idx < self.nC:
                raise ValueError(f"C index {idx} out of range")
            return self.nB + idx
        raise ValueError(f"side must be 'B' or 'C', got {side!r}")

    def side_of(self, v: int) -> str:
        return "B" if v < self.nB else "C"

    def neighbors(self, v: int) -> np.ndarray:
        if v < self.nB:
            return self.ec[self.eb == v].astype(np.int64) + self.nB
        return self.eb[self.ec == v - self.nB].astype(np.int64)

    def biadjacency(self, dtype=np.int64) -> np.ndarray:
        n = np.zeros((self.nB, self.nC), dtype=dtype)
        n[self.eb, self.ec] = 1
        return n

    def __repr__(self) -> str:
        return f"BipartiteGraph(B={self.nB}, C={self.nC}, edges={len(self.eb)})"


class Graph:
    """Immutable simple graph held as a dense read-only boolean adjacency.

    Edges are (u, v) pairs; loops and out-of-range endpoints raise
    ValueError, repeated pairs and orientations are merged.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        for u, v in pairs.tolist():
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        adj = np.zeros((n, n), dtype=bool)
        adj[pairs[:, 0], pairs[:, 1]] = adj[pairs[:, 1], pairs[:, 0]] = True
        self._set(adj)

    @classmethod
    def from_adjacency(cls, adj: np.ndarray) -> "Graph":
        """The graph of a square symmetric boolean matrix with a false
        diagonal, taken without a copy; ValueError if it is not one."""
        if (adj.dtype != bool or adj.ndim != 2 or adj.shape[0] != adj.shape[1]
                or adj.diagonal().any() or (adj != adj.T).any()):
            raise ValueError("need a square symmetric boolean matrix with a false diagonal")
        g = cls.__new__(cls)
        g._set(adj)
        return g

    def _set(self, adj: np.ndarray) -> None:
        adj.flags.writeable = False
        self.n, self._adj = len(adj), adj

    def adjacency(self) -> np.ndarray:
        """The read-only boolean adjacency matrix."""
        return self._adj

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as sorted (u, v) pairs with u < v."""
        return tuple(zip(*(x.tolist() for x in np.nonzero(np.triu(self._adj, 1)))))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={int(self._adj.sum()) // 2})"


# ---------------------------------------------------------------------------
# Intersection arrays
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntersectionArray:
    """The two c-lines of a distance-biregular graph.

    ``k`` and ``cB`` describe vertices in B (valency k, c_1..c_dB), and
    ``l``, ``cC`` the C side.  The b-numbers are derived: at even
    distance from a base vertex the counts sum to the base side's
    valency, at odd distance to the other valency.
    """

    k: int
    l: int
    cB: tuple[int, ...]
    cC: tuple[int, ...]

    @property
    def dB(self) -> int:
        return len(self.cB)

    @property
    def dC(self) -> int:
        return len(self.cC)

    def bB(self, i: int) -> int:
        if i == 0:
            return self.k
        return (self.k if i % 2 == 0 else self.l) - self.cB[i - 1]

    def bC(self, i: int) -> int:
        if i == 0:
            return self.l
        return (self.l if i % 2 == 0 else self.k) - self.cC[i - 1]

    def validate(self) -> None:
        """Raise ValueError if a necessary condition on the array fails."""
        for name, k, cs in (("B", self.k, self.cB), ("C", self.l, self.cC)):
            other = self.l if name == "B" else self.k
            if not cs or cs[0] != 1:
                raise ValueError(f"{name}-line must start with c_1 = 1")
            for i, c in enumerate(cs, start=1):
                cap = k if i % 2 == 0 else other
                if not 1 <= c <= cap:
                    raise ValueError(f"c_{i}^{name} = {c} exceeds valency bound {cap}")
            d = len(cs)
            final_cap = k if d % 2 == 0 else other
            if cs[-1] != final_cap:
                raise ValueError(f"final c of {name}-line must equal {final_cap}")
        if abs(self.dB - self.dC) > 1:  # adjacent eccentricities differ by at most one
            raise ValueError(f"covering radii {self.dB} and {self.dC} differ by more than one")
        if max(self.dB, self.dC) % 2 and self.k != self.l:
            raise ValueError("odd diameter forces a regular graph (k = l)")

    @property
    def regular(self) -> bool:
        return self.k == self.l

    def swapped(self) -> "IntersectionArray":
        return IntersectionArray(self.l, self.k, self.cC, self.cB)

    def __str__(self) -> str:
        top = ",".join(map(str, self.cB))
        bot = ",".join(map(str, self.cC))
        return f"{{{self.k};{top} | {self.l};{bot}}}"

    @classmethod
    def parse(cls, text: str) -> "IntersectionArray":
        """Read ``{k;c_1,...,c_dB | l;c_1,...,c_dC}`` ('/' may replace '|');
        ValueError quoting ``text`` if it has another form."""
        body = text.strip().strip("{}")
        sep = "|" if "|" in body else "/"
        parts = body.split(sep)
        if len(parts) != 2:
            raise ValueError(f"cannot parse intersection array {text!r}: expected two lines")
        lines = []
        for part in parts:
            head, _, rest = part.partition(";")
            try:
                lines.append((int(head), tuple(int(x) for x in rest.split(","))))
            except ValueError as exc:
                raise ValueError(f"cannot parse intersection array {text!r}: each line must be "
                                 "'<valency>;<c_1>,...,<c_d>' with integer entries") from exc
        (k, cb), (l, cc) = lines
        return cls(k, l, cb, cc)


def arrays_equal_up_to_swap(a: IntersectionArray, b: IntersectionArray) -> bool:
    return a == b or a.swapped() == b


# ---------------------------------------------------------------------------
# Distance engine
# ---------------------------------------------------------------------------

_BATCH = 64  # sources per BFS pass: per-level arrays stay at _BATCH x class size
_EXACT_DEGREE = 1 << 24  # float32 counts every integer up to 2**24 exactly


def _levels(g: BipartiteGraph, n: np.ndarray, side: int, sources: np.ndarray):
    """BFS from class-local ``sources`` of class ``side`` (0 = B, 1 = C), with
    ``n`` the float32 biadjacency.  Yields ``(level, cls, new, counts)`` for
    level 1, 2, ...: ``new`` marks, one row per source, the class-``cls``
    vertices first reached there; ``counts`` under ``new`` are their c_level."""
    steps = (n, n.T)
    seen = [np.zeros((len(sources), g.nB), bool), np.zeros((len(sources), g.nC), bool)]
    seen[side][np.arange(len(sources)), sources] = True
    counts, level = steps[side][sources], 1  # level 1: the sources' own rows
    while True:
        side = 1 - side
        new = (counts > 0) & ~seen[side]
        if not new.any():
            return
        seen[side] |= new
        yield level, side, new, counts
        if seen[0].all() and seen[1].all():
            return
        counts, level = new.astype(np.float32) @ steps[side], level + 1


def _sweeps(g: BipartiteGraph, vertices: Iterable[int]):
    """Yield ``(batch, levels)`` per run of up to ``_BATCH`` same-class
    vertices of the increasing ``vertices``; ``levels`` is its BFS."""
    vs = np.asarray(vertices, dtype=np.int64)
    if vs.size and (vs[0] < 0 or vs[-1] >= g.V):
        raise ValueError(f"vertex out of range for V={g.V}")
    if g.V and g.degrees.max() >= _EXACT_DEGREE:
        raise ValueError("maximum degree must be below 2**24 for exact float32 counts")
    n = g.biadjacency(np.float32)
    for side, part in ((0, vs[vs < g.nB]), (1, vs[vs >= g.nB] - g.nB)):
        for start in range(0, len(part), _BATCH):
            batch = part[start:start + _BATCH]
            yield batch + side * g.nB, _levels(g, n, side, batch)


@dataclass(frozen=True)
class DistancePartition:
    source: int
    cells: tuple[tuple[int, ...], ...]

    @property
    def eccentricity(self) -> int:
        return len(self.cells) - 1

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)


def distance_partition(g: BipartiteGraph, v: int) -> DistancePartition:
    """BFS-exact distance partition from v; raises if g is disconnected."""
    (_, levels), = _sweeps(g, [v])
    cells = ((v,),) + tuple(tuple((np.flatnonzero(new[0]) + cls * g.nB).tolist())
                            for _, cls, new, _ in levels)
    if sum(map(len, cells)) < g.V:
        raise ValueError("graph is disconnected")
    return DistancePartition(v, cells)


@dataclass(frozen=True)
class LocalCheck:
    ok: bool
    c: tuple[int, ...] = ()
    b: tuple[int, ...] = ()
    witness: tuple[int, int, int] | None = None  # (level, vertex, vertex)


def _local_checks(g: BipartiteGraph, vertices: Iterable[int]):
    """Yield the :class:`LocalCheck` of each of the increasing ``vertices``.

    A cell is equitable iff c and the degree are constant on it (b = deg - c).
    Raises ValueError if g is disconnected.
    """
    deg = (g.degrees[:g.nB], g.degrees[g.nB:])
    for batch, levels in _sweeps(g, vertices):
        rows = np.arange(len(batch))
        profiles = [[(0, d)] for d in g.degrees[batch].tolist()]
        fail, reached = {}, np.ones(len(batch), np.int64)
        for level, cls, new, counts in levels:
            u = new.argmax(axis=1)
            cu, du = counts[rows, u], deg[cls][u]
            bad = new & ((counts != cu[:, None]) | (deg[cls] != du[:, None]))
            off = cls * g.nB
            for r in np.flatnonzero(bad.any(axis=1)).tolist():
                fail.setdefault(r, (level, int(u[r]) + off, int(bad[r].argmax()) + off))
            for r in np.flatnonzero(new.any(axis=1)).tolist():
                profiles[r].append((int(cu[r]), int(du[r]) - int(cu[r])))
            reached += new.sum(axis=1)
        if reached.min() < g.V:
            raise ValueError("graph is disconnected")
        for r, profile in enumerate(profiles):
            c, b = zip(*profile)
            yield LocalCheck(False, witness=fail[r]) if r in fail else LocalCheck(True, c=c, b=b)


def local_dr_check(g: BipartiteGraph, v: int) -> LocalCheck:
    """Is the distance partition from v equitable?  Witness on failure.

    The returned c/b tuples run over distances 0..ecc (so ``c[0] = 0``
    and ``b[0]`` is the valency of v).
    """
    return next(_local_checks(g, [v]))


@dataclass(frozen=True)
class DbrgResult:
    ok: bool
    array: IntersectionArray | None = None
    regular: bool = False
    witness: tuple | None = None
    # witness forms: ("local", vertex, level, u, w) for an inequitable
    # partition, ("side", side, u, w) for two same-side vertices with
    # different profiles.


def dbrg_check(g: BipartiteGraph) -> DbrgResult:
    """Definition-exact distance-biregularity check.

    Accepts iff every distance partition is equitable and the (c, b)
    profile is constant on each class.  Regular graphs (k = l) are
    accepted and flagged via ``regular``.  The witness names the first
    failing vertex, an inequitable partition before a profile mismatch.
    Raises ValueError if a class is empty or the graph is disconnected.
    """
    if g.nB == 0 or g.nC == 0:
        raise ValueError(f"both classes must be non-empty, got B={g.nB} C={g.nC}")
    first: dict[str, tuple] = {}  # side -> (vertex, c, b) of its first vertex
    for v, res in enumerate(_local_checks(g, range(g.V))):
        if not res.ok:
            return DbrgResult(False, witness=("local", v, *res.witness))
        side = g.side_of(v)
        rep, c, b = first.setdefault(side, (v, res.c, res.b))
        if (c, b) != (res.c, res.b):
            return DbrgResult(False, witness=("side", side, rep, v))
    (_, cB, bB), (_, cC, bC) = first["B"], first["C"]
    array = IntersectionArray(k=bB[0], l=bC[0], cB=cB[1:], cC=cC[1:])
    array.validate()
    return DbrgResult(True, array=array, regular=array.regular)


def girth(g: BipartiteGraph) -> int:
    """Exact girth, 0 for an acyclic graph: a vertex first reached at level i
    with two parents closes a cycle of length at most 2i, and every vertex
    of a shortest cycle sees one at half its length."""
    best = 0
    for _, levels in _sweeps(g, range(g.V)):
        for level, _, new, counts in levels:
            if (counts[new] >= 2).any():
                best = 2 * level
            if best and 2 * level + 2 >= best:
                break
    return best


@dataclass(frozen=True)
class SemiregularResult:
    ok: bool
    k: int | None = None
    l: int | None = None
    witness: int | None = None


def semiregular_check(g: BipartiteGraph) -> SemiregularResult:
    """Constant valency on each side; witness is the first offender."""
    kb = int(g.degrees[0]) if g.nB else 0
    kc = int(g.degrees[g.nB]) if g.nC else 0
    bad = np.flatnonzero(g.degrees != np.repeat([kb, kc], [g.nB, g.nC]))
    if bad.size:
        return SemiregularResult(False, witness=int(bad[0]))
    return SemiregularResult(True, k=kb, l=kc)


def halved_graphs(g: BipartiteGraph) -> tuple[Graph, Graph]:
    """Distance-two graphs on B and on C (for a connected bipartite g)."""
    # float32 products are exact: every count is at most nB or nC, far below 2**24
    n = g.biadjacency(np.float32)
    halves = []
    for prod in (n @ n.T, n.T @ n):
        adj = prod > 0.5
        np.fill_diagonal(adj, False)
        halves.append(Graph.from_adjacency(adj))
    return halves[0], halves[1]


@dataclass(frozen=True)
class SrgResult:
    ok: bool
    params: tuple[int, int, int, int] | None = None
    witness: tuple | None = None


def srg_check(h: Graph) -> SrgResult:
    """Combinatorial strong-regularity check (no spectra).

    Counts common neighbours for every pair: adjacent pairs must agree on
    lambda, non-adjacent pairs on mu.  Requires a regular, non-complete,
    non-empty graph; the witness names the first violation.
    """
    v, adj = h.n, h.adjacency()
    degs = adj.sum(axis=1)
    k = int(degs[0])
    bad = np.flatnonzero(degs != k)
    if bad.size:
        return SrgResult(False, witness=("degree", int(bad[0])))
    non = ~adj
    np.fill_diagonal(non, False)
    if not adj.any() or not non.any():
        raise ValueError("srg_check requires a non-complete, non-empty graph")
    a = adj.astype(np.float32)  # exact: common-neighbour counts are below v < 2**24
    common = (a @ a).astype(np.int64)
    lam_vals = common[adj]
    lam = int(lam_vals[0])
    if (lam_vals != lam).any():
        i, j = next(zip(*np.nonzero(adj & (common != lam))))
        return SrgResult(False, witness=("lambda", int(i), int(j)))
    mu_vals = common[non]
    mu = int(mu_vals[0])
    if (mu_vals != mu).any():
        i, j = next(zip(*np.nonzero(non & (common != mu))))
        return SrgResult(False, witness=("mu", int(i), int(j)))
    return SrgResult(True, params=(v, k, lam, mu))


@dataclass(frozen=True)
class SrgParams:
    """Strongly regular parameters with the eigenvalues r >= 0 > s of the
    adjacency matrix and their multiplicities f1, f2."""

    v: int
    k: int
    lam: int
    mu: int
    r: int
    s: int
    f1: int
    f2: int

    def tuple4(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.mu)


def srg_from_spectrum(v: int, k: int | Fraction, r: int | Fraction,
                      s: int | Fraction) -> SrgParams:
    """The strongly regular graph on v vertices with eigenvalues k, r, s.

    mu = k + r*s and lambda = mu + r + s; f1 and f2 solve f1 + f2 = v - 1
    and k + f1*r + f2*s = 0.  ValueError names the first failing
    condition (Brouwer-Cohen-Neumaier, *Distance-Regular Graphs*, 1.3 and
    2.3): integral eigenvalues with r >= 0 > s, integral non-negative
    multiplicities, lambda >= 0, 1 <= mu <= k, the counting identity
    k(k - lambda - 1) = (v - k - 1) mu, and both Krein inequalities.
    """
    if k.denominator != 1 or r.denominator != 1 or s.denominator != 1:
        raise ValueError("non-integral halved eigenvalue")
    k, r, s = int(k), int(r), int(s)
    mu = k + r * s
    lam = mu + r + s
    if not r >= 0 > s:
        raise ValueError(f"eigenvalues out of order: r={r}, s={s}")
    f1, rem = divmod(-k - (v - 1) * s, r - s)
    if rem:
        raise ValueError(f"non-integral multiplicity f1 = {Fraction(-k - (v - 1) * s, r - s)}")
    f2 = v - 1 - f1
    if f1 < 0 or f2 < 0:
        raise ValueError(f"negative multiplicity (f1={f1}, f2={f2})")
    if lam < 0:
        raise ValueError(f"negative lambda = {lam}")
    if mu < 1 or mu > k:
        raise ValueError(f"mu = {mu} outside [1, k]")
    if k * (k - lam - 1) != (v - k - 1) * mu:
        raise ValueError("SRG counting identity fails")
    if ((r + 1) * (k + r + 2 * r * s) > (k + r) * (s + 1) ** 2
            or (s + 1) * (k + s + 2 * r * s) > (k + s) * (r + 1) ** 2):
        raise ValueError(f"Krein condition fails for ({v},{k},{lam},{mu})")
    return SrgParams(v, k, lam, mu, r, s, f1, f2)


def subdivision(h: Graph) -> BipartiteGraph:
    """Vertex-edge incidence graph: B = vertices of h, C = edges of h."""
    edges = h.edges
    return BipartiteGraph(h.n, len(edges), [(u, ci) for ci, e in enumerate(edges) for u in e])


def flip(g: BipartiteGraph) -> BipartiteGraph:
    """The same graph with the two classes exchanged."""
    return BipartiteGraph(g.nC, g.nB, np.column_stack([g.ec, g.eb]))


def induced_subgraph(
    g: BipartiteGraph, b_keep: Sequence[int], c_keep: Sequence[int]
) -> BipartiteGraph:
    """Induced bipartite subgraph; class indices are re-numbered in order."""
    b_keep, c_keep = sorted(set(b_keep)), sorted(set(c_keep))
    keep = np.isin(g.eb, b_keep) & np.isin(g.ec, c_keep)
    edges = np.column_stack([np.searchsorted(b_keep, g.eb[keep]),
                             np.searchsorted(c_keep, g.ec[keep])])
    return BipartiteGraph(len(b_keep), len(c_keep), edges)


# ---------------------------------------------------------------------------
# Diameter-4 shortcut check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShortcutResult:
    verdict: str  # "applies" | "inconclusive" | "hypothesis_failed"
    reason: str = ""
    predicted: IntersectionArray | None = None
    agrees: bool | None = None


def c3_shortcut_check(g: BipartiteGraph, c2b: int, c3b: int, c2c: int) -> ShortcutResult:
    """Diameter-4 certification shortcut from one locally regular side.

    Hypotheses verified on the graph: every B vertex locally
    distance-regular with c-line (1, c2b, c3b, k); the count of common
    neighbours of any two C vertices at distance two constant equal to
    c2c; and k strictly greater than c2b*c3b/c2c.  When they hold, the
    full predicted array is emitted and compared with the definition
    check.
    """
    semi = semiregular_check(g)
    if not semi.ok:
        return ShortcutResult("hypothesis_failed", f"not semiregular at {semi.witness}")
    k, l = semi.k, semi.l
    expected = (1, c2b, c3b, k)
    for v, res in enumerate(_local_checks(g, range(g.nB))):
        if not res.ok:
            return ShortcutResult("hypothesis_failed", f"B vertex {v} not locally distance-regular")
        if res.c[1:] != expected:
            return ShortcutResult("hypothesis_failed",
                                  f"B vertex {v} has c-line {res.c[1:]}, wanted {expected}")
    n = g.biadjacency(np.float64)
    cc = (n.T @ n).astype(np.int64)
    off = cc[~np.eye(g.nC, dtype=bool)]
    vals = set(np.unique(off).tolist()) - {0}
    if vals != {c2c}:
        return ShortcutResult(
            "hypothesis_failed", f"C-side common-neighbour counts {sorted(vals)} != {{{c2c}}}"
        )
    if k * c2c == c2b * c3b:
        return ShortcutResult("inconclusive", "k equals c2B*c3B/c2C; strict inequality required")
    if k * c2c < c2b * c3b:
        return ShortcutResult("hypothesis_failed", "k < c2B*c3B/c2C")
    if (c2b * c3b) % c2c:
        return ShortcutResult("hypothesis_failed", "predicted c3C is not an integer")
    predicted = IntersectionArray(k, l, (1, c2b, c3b, k), (1, c2c, c2b * c3b // c2c, l))
    full = dbrg_check(g)
    agrees = full.ok and full.array == predicted
    return ShortcutResult("applies", predicted=predicted, agrees=agrees)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def serialize_graph(g: BipartiteGraph) -> str:
    lines = [f"B={g.nB} C={g.nC}"]
    lines.extend(f"{b} {c}" for b, c in zip(g.eb.tolist(), g.ec.tolist()))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> BipartiteGraph:
    """Parse the graph text format; ValueError names the offending line."""
    if not text:
        raise ValueError("empty graph file")
    lines = io.StringIO(text, newline=None)  # one line alive at a time: low peak memory
    head = lines.readline().rstrip("\n")
    header = head.split()
    try:
        nb = int(header[0].removeprefix("B="))
        nc = int(header[1].removeprefix("C="))
    except (IndexError, ValueError) as exc:
        raise ValueError(f"line 1: bad header {head!r}") from exc
    try:
        _check_class_sizes(nb, nc)
    except ValueError as exc:
        raise ValueError(f"line 1: {exc}") from None
    eb, ec, nos = (np.empty(text.count("\n") + text.count("\r") + 1, np.int64) for _ in range(3))
    m = 0
    for no, line in enumerate(lines, start=2):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValueError(f"line {no}: expected '<b> <c>', got {line.strip()!r}")
        try:
            b, c = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {no}: non-integer edge {line.strip()!r}") from exc
        if not (0 <= b < nb and 0 <= c < nc):
            raise ValueError(f"line {no}: edge ({b},{c}) out of range for B={nb} C={nc}")
        eb[m], ec[m], nos[m] = b, c, no
        m += 1
    g = BipartiteGraph(nb, nc, np.column_stack([eb[:m], ec[:m]]))
    if len(g.eb) < m:  # name the first line that repeats an earlier edge
        i = np.setdiff1d(np.arange(m), np.unique(eb[:m] * nc + ec[:m], return_index=True)[1])[0]
        raise ValueError(f"line {nos[i]}: duplicate edge '{eb[i]} {ec[i]}'")
    return g
