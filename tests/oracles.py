"""Dense and scalar references that the tests hold the library against.

No module of :mod:`dbrg` calls these.  Each gives a second view of a
graph, a field or a subspace that the library's results are compared
with:

* :func:`biadjacency` and :func:`halved_graphs` -- the dense N and its
  halved graphs, for the walk identity N N^T = k I + c_2 A(H_B) against
  the array that ``dbrg_check`` returns;
* :func:`srg_check` -- common-neighbour counts of the halved graphs
  against the strongly regular parameters that the paper and
  :mod:`dbrg.params` predict;
* :class:`Graph`, :func:`simple_graph`, :func:`petersen` and
  :func:`subdivision` -- simple graphs and their vertex-edge incidence
  graphs, whose arrays and girths are known by hand;
* :func:`girth` -- the girth of a bipartite graph, from networkx;
* :func:`semiregular_check` and :func:`c3_shortcut_check` -- the
  diameter-4 theorem shortcut, from its hypotheses, against the
  definition check;
* :func:`local_dr_check` -- the engine's check of one vertex, the unit
  that the networkx oracle compares vertex by vertex;
* :func:`cell_sizes` -- the sizes of the cells of a distance partition;
* :func:`structurally_sound` -- a feasibility report's counts, products
  and halved-SRG conditions, the filter of the brute-force enumeration;
* :func:`field_pow`, :func:`vector_index`, :func:`contains` and
  :func:`subspace_meet` -- powers by repeated squaring, vector ids one
  coordinate at a time, membership by reduction and intersections by the
  Zassenhaus block trick, in plain Python ints;
* :func:`reference_field` -- the modulus, generator and exp and log
  tables of GF(p^t) from the field bootstrap on polynomial lists trimmed
  of leading zeros, which walks the generator's powers a second time.
"""

from typing import NamedTuple, Sequence

import networkx as nx
import numpy as np

from dbrg.bigraph import BipartiteGraph, DistancePartition, LocalCheck, _local_checks, dbrg_check
from dbrg.feasibility import FeasibilityReport
from dbrg.gfint import FieldContext, Subspace, rref
from dbrg.params import IntersectionArray


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


def simple_graph(n, edges):
    """The graph on 0..n-1 with the (u, v) pairs of ``edges``, either way round."""
    adj = np.zeros((n, n), bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return Graph(adj)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return simple_graph(10, outer + inner + spokes)


def biadjacency(g: BipartiteGraph) -> np.ndarray:
    """N, the nB x nC float32 0/1 matrix of the halved-graph and shortcut
    products, exact: each count is at most nB or nC, far below 2**24."""
    n = np.zeros((g.nB, g.nC), dtype=np.float32)
    n[g.eb, g.ec] = 1
    return n


def local_dr_check(g: BipartiteGraph, v: int) -> LocalCheck:
    """Is the distance partition from v equitable?  Witness on failure.

    The returned c/b tuples run over distances 0..ecc (so ``c[0] = 0``
    and ``b[0]`` is the valency of v).
    """
    return next(_local_checks(g, [v]))


class SemiregularResult(NamedTuple):
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
    n = biadjacency(g)
    halves = []
    for prod in (n @ n.T, n.T @ n):
        adj = prod > 0.5
        np.fill_diagonal(adj, False)
        halves.append(Graph(adj))
    return halves[0], halves[1]


class SrgResult(NamedTuple):
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


class ShortcutResult(NamedTuple):
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
    n = biadjacency(g)
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


def girth(g: BipartiteGraph) -> int:
    """The girth of g by networkx, 0 for an acyclic graph."""
    graph = nx.Graph()
    graph.add_nodes_from(range(g.V))
    graph.add_edges_from(zip(g.eb.tolist(), (g.ec + g.nB).tolist()))
    found = nx.girth(graph)
    return 0 if found == float("inf") else found


def cell_sizes(partition: DistancePartition) -> tuple[int, ...]:
    return tuple(len(c) for c in partition.cells)


def structurally_sound(report: FeasibilityReport) -> bool:
    """Counts, products, and halved-SRG admissibility all hold."""
    return report.counts.ok and report.srg.ok and all(
        c.ok for c in report.conditions if c.name == "products")


def field_pow(ctx: FieldContext, a: int, e: int) -> int:
    """a^e in ``ctx`` by repeated squaring with ``ctx.mul``; ZeroDivisionError
    for a negative power of zero."""
    if e < 0:
        if a == 0:
            raise ZeroDivisionError("negative power of zero")
        a, e = ctx.inv(a), -e
    out = 1
    while e:
        if e & 1:
            out = ctx.mul(out, a)
        a, e = ctx.mul(a, a), e >> 1
    return out


def vector_index(ctx: FieldContext, v: Sequence[int]) -> int:
    """Rank of a vector in the lexicographic enumeration of F_q^n: its id."""
    idx = 0
    for c in v:
        idx = idx * ctx.q + c
    return idx


def contains(space: Subspace, v: Sequence[int]) -> bool:
    return all(x == 0 for x in space.reduce(v))


def subspace_meet(u: Subspace, w: Subspace) -> Subspace:
    """Exact intersection, via the Zassenhaus block trick."""
    if u.ctx != w.ctx or u.n != w.n:
        raise ValueError("subspaces live in different ambient spaces")
    ctx, n = u.ctx, u.n
    block = [list(r) + list(r) for r in u.basis] + [list(r) + [0] * n for r in w.basis]
    reduced = rref(ctx, block, 2 * n)
    inter = [row[n:] for row in reduced if all(x == 0 for x in row[:n])]
    return Subspace(ctx, n, rref(ctx, inter, n))


# The field bootstrap on polynomial lists, little-endian and trimmed of
# leading zeros.


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        _poly_trim(a)
    return a


def _int_to_poly(v: int, p: int) -> list[int]:
    out = []
    while v:
        out.append(v % p)
        v //= p
    return out


def _poly_to_int(a: Sequence[int], p: int) -> int:
    v = 0
    for c in reversed(a):
        v = v * p + c
    return v


def _is_irreducible(m: Sequence[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg(m)/2."""
    t = len(m) - 1
    if t < 1 or m[-1] != 1:
        return False
    if t == 1:
        return True
    for deg in range(1, t // 2 + 1):
        for lower in range(p**deg):
            div = _int_to_poly(lower, p) + [0] * (deg - len(_int_to_poly(lower, p))) + [1]
            if not _poly_mod(m, div, p):
                return False
    return True


def reference_field(p: int, t: int) -> tuple[tuple[int, ...], int, list[int], list[int]]:
    """(modulus, generator, exp, log) of GF(p^t) as ``FieldContext`` stores
    them: the least irreducible monic modulus by its encoding, the first
    generator of 2, 3, ... (1 in GF(2)) by the order of its walk, exp
    twice over then 2(q - 1) + 1 zeros, and log 0 = 2(q - 1)."""
    q = p**t
    modulus = None
    for lower in range(p**t):
        cand = _int_to_poly(lower, p)
        cand = cand + [0] * (t - len(cand)) + [1]
        if _is_irreducible(cand, p):
            modulus = tuple(cand)
            break

    def raw_mul(a: int, b: int) -> int:
        pa = _int_to_poly(a, p)
        pb = _int_to_poly(b, p)
        return _poly_to_int(_poly_mod(_poly_mul(pa, pb, p), modulus, p), p)

    exp = [1] * max(q - 1, 1)
    log = [0] * q
    generator = None
    candidates = range(2, q) if q > 2 else range(1, 2)
    for g in candidates:
        val, order = 1, 0
        while True:
            order += 1
            val = raw_mul(val, g)
            if val == 1:
                break
        if order == q - 1:
            val = 1
            for i in range(q - 1):
                exp[i] = val
                log[val] = i
                val = raw_mul(val, g)
            generator = g
            break
    log[0] = 2 * (q - 1)
    return modulus, generator, exp * 2 + [0] * (2 * (q - 1) + 1), log
