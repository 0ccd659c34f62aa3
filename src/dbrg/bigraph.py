"""Bipartite graph engine: distance partitions and biregularity checks.

Verification is definition-first: a BFS from every vertex, with the
per-cell neighbour counts (c_i, b_i) tested for constancy cell by cell.
Theorem shortcuts are available as cross-checks but never replace the
definition.  Known automorphisms cut the work without weakening it: an
automorphism carries the distance partition from v onto the one from its
image, so :func:`dbrg_check` runs one BFS per orbit of the group that
given generators span, after checking each generator exactly against the
edges.  The trivial group (no generators) is the BFS from every vertex.

Every distance comes from one engine, :func:`_levels`: level-synchronous
BFS from up to ``_BATCH`` sources of one class at once, as products with
the biadjacency matrix N (BFS as linear algebra).  A frontier on B times N
reaches C, one on C times N^T reaches B; each product counts, per vertex,
its neighbours in the frontier.  The graph is bipartite, so no edge joins
two vertices at the same distance: for a vertex first reached at level i
the product is exactly c_i, and b_i = deg - c_i.  One pass gives the
distances and the (c, b) profile of every source in the batch.  The level
after one that completes its class is the rest of the other class, with
c the degree: no product, so eccentricity e >= 2 costs e - 2 products.
Float32 products are exact: the terms are 0/1, so every partial sum is
an integer at most the maximum degree, and degrees of 2**24 or more are
refused.  Memory: edges are two sorted int32 arrays; the engine holds N
densely (4 nB nC bytes) plus, per level, a few ``_BATCH`` x class-size
arrays; the file reader holds ``_CHUNK`` lines at a time.

A simple :class:`Graph` (a halved graph, or subdivision input) is held as
a dense read-only boolean adjacency matrix: every consumer works densely,
so its edge list is derived from the matrix, not stored.  The parameter
records, :class:`dbrg.params.IntersectionArray` and the strongly regular
:class:`dbrg.params.SrgParams` with its one derivation
:func:`dbrg.params.srg_from_spectrum`, live in :mod:`dbrg.params`, which
imports no numpy, so the feasibility layer can use them without this one.

Vertices are addressed by a single index: the B class occupies
``0..nB-1`` and the C class ``nB..nB+nC-1``.

Graph text format: header ``B=<nB> C=<nC>``, then one edge ``<b> <c>``
per line with 0-based class-local indices, sorted.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .params import IntersectionArray

__all__ = [
    "BipartiteGraph",
    "Graph",
    "DistancePartition",
    "LocalCheck",
    "DbrgResult",
    "SemiregularResult",
    "SrgResult",
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
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
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

    def biadjacency(self) -> np.ndarray:
        """N, the nB x nC float32 0/1 matrix of every product here.  The products
        are exact: each count is at most nB or nC, far below 2**24."""
        n = np.zeros((self.nB, self.nC), dtype=np.float32)
        n[self.eb, self.ec] = 1
        return n

    def __repr__(self) -> str:
        return f"BipartiteGraph(B={self.nB}, C={self.nC}, edges={len(self.eb)})"


class Graph:
    """Immutable simple graph held as a dense read-only boolean adjacency.

    ``adj``, square symmetric boolean with a false diagonal (else
    ValueError), is taken without a copy and made read-only."""

    def __init__(self, adj: np.ndarray):
        if (adj.dtype != bool or adj.ndim != 2 or adj.shape[0] != adj.shape[1]
                or adj.diagonal().any() or (adj != adj.T).any()):
            raise ValueError("need a square symmetric boolean matrix with a false diagonal")
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
# Distance engine
# ---------------------------------------------------------------------------

_BATCH = 64  # sources per BFS pass: per-level arrays stay at _BATCH x class size
_EXACT_DEGREE = 1 << 24  # float32 counts every integer up to 2**24 exactly
_CHUNK = 1024  # graph-file lines converted per step: the word lists stay small


def _levels(g: BipartiteGraph, n: np.ndarray, side: int, sources: np.ndarray):
    """BFS from class-local ``sources`` of class ``side`` (0 = B, 1 = C), with
    ``n`` the float32 biadjacency.  Yields ``(level, cls, new, counts)`` for
    level 1, 2, ...: ``new`` marks, one row per source, the class-``cls``
    vertices first reached there; ``counts`` under ``new`` are their c_level.
    Once a level completes its class, the unseen vertices of positive degree
    have all their neighbours there: the last level, c = degree.  RuntimeError
    for a count that is not finite: a NaN is never > 0, its vertex unreached."""
    steps = (n, n.T)
    deg = (g.degrees[:g.nB], g.degrees[g.nB:])
    seen = [np.zeros((len(sources), g.nB), bool), np.zeros((len(sources), g.nC), bool)]
    seen[side][np.arange(len(sources)), sources] = True
    counts, level = steps[side][sources], 1  # level 1: the sources' own rows
    while True:
        if not np.isfinite(counts).all():
            raise RuntimeError(f"non-finite neighbour count at BFS level {level}")
        side = 1 - side
        new = (counts > 0) & ~seen[side]
        if not new.any():
            return
        seen[side] |= new
        yield level, side, new, counts
        if seen[side].all():
            new = ~seen[1 - side] & (deg[1 - side] > 0)
            if new.any():
                yield level + 1, 1 - side, new, np.broadcast_to(deg[1 - side], new.shape)
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
    n = g.biadjacency()
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


class _Disconnected(ValueError):
    """Raised by the distance engine when a BFS misses a vertex."""

    def __init__(self):
        super().__init__("graph is disconnected")


def _cells(g: BipartiteGraph, v: int) -> tuple[tuple[int, ...], ...]:
    """The vertices at distance 0, 1, 2, ... from v, in its component."""
    (_, levels), = _sweeps(g, [v])
    return ((v,),) + tuple(tuple((np.flatnonzero(new[0]) + cls * g.nB).tolist())
                           for _, cls, new, _ in levels)


def distance_partition(g: BipartiteGraph, v: int) -> DistancePartition:
    """BFS-exact distance partition from v; raises if g is disconnected."""
    cells = _cells(g, v)
    if sum(map(len, cells)) < g.V:
        raise _Disconnected()
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
    uneven = [d.size > 0 and d.min() < d.max() for d in deg]  # else deg != du never holds
    for batch, levels in _sweeps(g, vertices):
        rows = np.arange(len(batch))
        profiles = [[(0, d)] for d in g.degrees[batch].tolist()]
        fail, reached = {}, np.ones(len(batch), np.int64)
        for level, cls, new, counts in levels:
            u = new.argmax(axis=1)
            cu, du = counts[rows, u], deg[cls][u]
            bad = new & (counts != cu[:, None])
            if uneven[cls]:
                bad |= new & (deg[cls] != du[:, None])
            off = cls * g.nB
            for r in np.flatnonzero(bad.any(axis=1)).tolist():
                fail.setdefault(r, (level, int(u[r]) + off, int(bad[r].argmax()) + off))
            sizes = new.sum(axis=1)
            for r in np.flatnonzero(sizes).tolist():
                profiles[r].append((int(cu[r]), int(du[r]) - int(cu[r])))
            reached += sizes
        if reached.min() < g.V:
            raise _Disconnected()
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
    # witness forms: ("disconnected", 0, w) for a disconnected graph, w the
    # least vertex that vertex 0 does not reach; ("local", vertex, level,
    # u, w) for an inequitable partition; ("side", side, u, w) for two
    # same-side vertices with different profiles.


def _automorphism(g: BipartiteGraph, perm, edge_keys: np.ndarray) -> np.ndarray:
    """``perm`` as int64 if it is an automorphism of g that keeps each class,
    else ValueError: a permutation of 0..V-1 mapping B to B whose image of
    the edge set, sorted, is the edge set."""
    perm = np.asarray(perm)
    if perm.shape != (g.V,) or perm.dtype.kind not in "iu":
        raise ValueError(f"automorphism must be an integer array of length V={g.V}")
    perm = perm.astype(np.int64)
    if perm.min() < 0 or perm.max() >= g.V or (np.bincount(perm, minlength=g.V) != 1).any():
        raise ValueError("automorphism is not a permutation of the vertices")
    if (perm[:g.nB] >= g.nB).any():
        raise ValueError("automorphism does not keep the classes")
    pb, pc = perm[:g.nB].astype(edge_keys.dtype), (perm[g.nB:] - g.nB).astype(edge_keys.dtype)
    image = np.repeat(pb * g.nC, g.degrees[:g.nB]) + pc[g.ec]  # eb runs through each row in turn
    if not np.array_equal(np.sort(image, kind="stable"), edge_keys):  # timsort merges sorted runs
        raise ValueError("automorphism does not preserve the edges")
    return perm


def _orbit_minima(g: BipartiteGraph, automorphisms: Sequence) -> np.ndarray:
    """The least vertex of each orbit of the group the checked generators
    span, increasing: union-find over the edges v -- perm[v].  Each pass
    hooks the larger root of every crossing edge under the smaller, then
    jumps pointers to the roots; it stops when no edge crosses two trees.
    Pointers only decrease, so each root is the minimum of its orbit."""
    keys = g.eb.astype(np.int32 if g.nB * g.nC < 2**31 else np.int64) * g.nC + g.ec
    gens = [_automorphism(g, perm, keys) for perm in automorphisms]
    root = np.arange(g.V)
    while True:
        merged = False
        for perm in gens:
            other = root[perm]
            cross = other != root
            if cross.any():
                merged = True
                np.minimum.at(root, np.maximum(root, other)[cross], np.minimum(root, other)[cross])
                while (root[root] != root).any():
                    root = root[root]
        if not merged:
            return np.flatnonzero(root == np.arange(g.V))


def dbrg_check(g: BipartiteGraph, automorphisms: Sequence = ()) -> DbrgResult:
    """Definition-exact distance-biregularity check.

    Accepts iff the graph is connected, every distance partition is
    equitable and the (c, b) profile is constant on each class.  Regular
    graphs (k = l) are accepted and flagged via ``regular``.  The witness
    names a disconnected graph first, then the first failing vertex, an
    inequitable partition before a profile mismatch.  Raises ValueError
    if a class is empty.

    ``automorphisms`` are generators of a group of automorphisms, each a
    vertex permutation of length V.  Each is checked exactly first: it
    must permute 0..V-1, keep B and C, and map the edge set onto itself;
    otherwise ValueError, and no verdict.  The BFS then runs only from the
    least vertex of each orbit.  Vertices of one orbit have the same
    local check, so the result and its witness are those of the full
    check: the first failing vertex is the least of its orbit, and so are
    vertex 0 and the first C vertex, the references of each class.
    """
    if g.nB == 0 or g.nC == 0:
        raise ValueError(f"both classes must be non-empty, got B={g.nB} C={g.nC}")
    reps = _orbit_minima(g, automorphisms)
    first: dict[str, tuple] = {}  # side -> (vertex, c, b) of its first vertex
    try:
        for v, res in zip(reps.tolist(), _local_checks(g, reps)):
            if not res.ok:
                return DbrgResult(False, witness=("local", v, *res.witness))
            side = g.side_of(v)
            rep, c, b = first.setdefault(side, (v, res.c, res.b))
            if (c, b) != (res.c, res.b):
                return DbrgResult(False, witness=("side", side, rep, v))
    except _Disconnected:  # raised by the first batch, before any verdict
        apart = min(set(range(g.V)).difference(*_cells(g, 0)))
        return DbrgResult(False, witness=("disconnected", 0, apart))
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
    n = g.biadjacency()
    halves = []
    for prod in (n @ n.T, n.T @ n):
        adj = prod > 0.5
        np.fill_diagonal(adj, False)
        halves.append(Graph(adj))
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
    n = g.biadjacency()
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


def parse_graph(source: str | TextIO) -> BipartiteGraph:
    """Parse the graph text format from a string or from a text file opened
    in universal-newline mode (``open``'s default), which is read
    ``_CHUNK`` lines at a time and never held whole; ValueError names the
    first faulty line."""
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
    head = lines.readline()
    if not head:
        raise ValueError("empty graph file")
    head = head.rstrip("\n")
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
    edges, nos, m = np.empty((_CHUNK, 2), np.int64), np.empty(_CHUNK, np.int64), 0
    chunks = iter(lambda: list(itertools.islice(lines, _CHUNK)), [])
    for first, chunk in zip(itertools.count(2, _CHUNK), chunks):
        if m + _CHUNK > len(nos):  # room for this chunk: double the edge arrays
            edges, nos = (np.concatenate([a, np.empty_like(a)]) for a in (edges, nos))
        # "b c ; b c ; ...": ";" is no integer, so if 3k - 1 words hold integers in
        # every b and c place, the k - 1 separators fill the rest: two words a line
        k, words = len(chunk), " ; ".join(chunk).split()
        b, c = edges[m:m + k].T
        try:
            b[:], c[:] = (np.fromiter(map(int, words[i::3]), np.int64, k) for i in (0, 1))
            fast = len(words) == 3 * k - 1 and min(b.min(), c.min()) >= 0
        except (ValueError, OverflowError):
            fast = False
        if fast and b.max() < nb and c.max() < nc:
            nos[m:m + k] = np.arange(first, first + k)
            m += k
            continue
        for no, line in enumerate(chunk, start=first):  # a blank or faulty line
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
            edges[m], nos[m] = (b, c), no
            m += 1
    g = BipartiteGraph(nb, nc, edges[:m])
    if len(g.eb) < m:  # name the first line that repeats an earlier edge
        i = np.setdiff1d(np.arange(m), np.unique(edges[:m] @ [nc, 1], return_index=True)[1])[0]
        raise ValueError(f"line {nos[i]}: duplicate edge '{edges[i, 0]} {edges[i, 1]}'")
    return g
