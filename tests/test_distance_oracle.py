"""The batched distance engine against an independent all-pairs BFS oracle.

networkx computes every distance; the oracle then applies the definition
of distance-biregularity one vertex at a time, in index order, the way
the witness contract states it.  Random graphs closed under random
class-preserving permutations check the orbit path of ``dbrg_check``
against its full path.  Named graphs check the last BFS level, which the
engine finds without a counting pass, and count the passes it runs;
others put counts at the edges of the engine's bit planes.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbrg import bigraph
from dbrg.bigraph import (
    BipartiteGraph,
    DbrgResult,
    dbrg_check,
    distance_partition,
    flip,
)
from dbrg.constructions import cone_graph
from dbrg.params import IntersectionArray

from oracles import local_dr_check, simple_graph, subdivision

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def random_bigraphs(draw):
    nb, nc = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    pairs = st.tuples(st.integers(0, nb - 1), st.integers(0, nc - 1))
    return BipartiteGraph(nb, nc, draw(st.lists(pairs, max_size=nb * nc)))


@st.composite
def structured_bigraphs(draw):
    # families rich in distance-biregular members, plus a random extra edge set
    kind = draw(st.sampled_from(["complete", "cycle", "subdivided-cycle", "subdivided-complete"]))
    n = draw(st.integers(2, 6))
    if kind == "complete":
        nc = draw(st.integers(1, 6))
        g = BipartiteGraph(n, nc, [(b, c) for b in range(n) for c in range(nc)])
    elif kind == "cycle":
        g = BipartiteGraph(n, n, [(i, i) for i in range(n)] + [(i, (i + 1) % n) for i in range(n)])
    elif kind == "subdivided-cycle":
        g = subdivision(simple_graph(n + 1, [(i, (i + 1) % (n + 1)) for i in range(n + 1)]))
    else:
        g = subdivision(simple_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)]))
    extra = draw(st.lists(st.tuples(st.integers(0, g.nB - 1), st.integers(0, g.nC - 1)),
                          max_size=2))
    return BipartiteGraph(g.nB, g.nC, list(g.edges) + extra)


@st.composite
def dense_bigraphs(draw):
    # classes of up to 24 vertices, a complete graph less a few random edges:
    # counts reach 2**4 and beyond, so the engine's fifth bit plane carries
    nb, nc = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    pairs = st.tuples(st.integers(0, nb - 1), st.integers(0, nc - 1))
    missing = set(draw(st.lists(pairs, max_size=2 * max(nb, nc))))
    return BipartiteGraph(nb, nc, [(b, c) for b in range(nb) for c in range(nc)
                                   if (b, c) not in missing])


def bigraphs():
    return st.one_of(random_bigraphs(), structured_bigraphs(), dense_bigraphs())


class Oracle:
    def __init__(self, g):
        self.g = g
        self.G = nx.Graph()
        self.G.add_nodes_from(range(g.V))
        self.G.add_edges_from((b, g.nB + c) for b, c in g.edges)
        self.dist = dict(nx.all_pairs_shortest_path_length(self.G))
        self.connected = nx.is_connected(self.G)

    def cells(self, v):
        d = self.dist[v]
        return [sorted(x for x in d if d[x] == i) for i in range(max(d.values()) + 1)]

    def counts(self, v, x):
        d = self.dist[v]
        c = sum(1 for y in self.G[x] if d.get(y) == d[x] - 1)
        b = sum(1 for y in self.G[x] if d.get(y) == d[x] + 1)
        return c, b

    def local(self, v):
        """(c, b) or the witness (level, first vertex, first differing vertex)."""
        cs, bs = [], []
        for level, cell in enumerate(self.cells(v)):
            prof = [self.counts(v, x) for x in cell]
            odd = [x for x, p in zip(cell, prof) if p != prof[0]]
            if odd:
                return None, (level, cell[0], odd[0])
            cs.append(prof[0][0])
            bs.append(prof[0][1])
        return (tuple(cs), tuple(bs)), None

    def dbrg(self):
        first = {}
        for v in range(self.g.V):
            prof, wit = self.local(v)
            if wit:
                return None, ("local", v, *wit)
            side = "B" if v < self.g.nB else "C"
            rep, seen = first.setdefault(side, (v, prof))
            if seen != prof:
                return None, ("side", side, rep, v)
        (_, (cB, bB)), (_, (cC, bC)) = first["B"], first["C"]
        return IntersectionArray(bB[0], bC[0], cB[1:], cC[1:]), None


def assert_dbrg_check_matches_oracle(g):
    oracle = Oracle(g)
    if not oracle.connected:
        # a disconnected graph is a negative verdict: vertex 0 and the least
        # vertex outside its component
        apart = min(set(range(g.V)) - nx.node_connected_component(oracle.G, 0))
        assert dbrg_check(g) == DbrgResult(False, witness=("disconnected", 0, apart))
        return
    array, witness = oracle.dbrg()
    res = dbrg_check(g)
    assert (res.ok, res.array, res.witness) == (array is not None, array, witness)


def assert_local_checks_and_partitions_match_oracle(g):
    oracle = Oracle(g)
    for v in range(g.V):
        if not oracle.connected:
            with pytest.raises(ValueError, match="disconnected"):
                local_dr_check(g, v)
            with pytest.raises(ValueError, match="disconnected"):
                distance_partition(g, v)
            continue
        prof, witness = oracle.local(v)
        res = local_dr_check(g, v)
        assert (res.ok, (res.c, res.b) if res.ok else None, res.witness) == (
            prof is not None, prof, witness)
        cells = oracle.cells(v)
        assert distance_partition(g, v).cells == tuple(tuple(c) for c in cells)


@SETTINGS
@given(bigraphs())
def test_dbrg_check_matches_oracle(g):
    assert_dbrg_check_matches_oracle(g)


@SETTINGS
@given(bigraphs())
def test_local_checks_and_partitions_match_oracle(g):
    assert_local_checks_and_partitions_match_oracle(g)


def complete(k, l):
    return BipartiteGraph(k, l, [(b, c) for b in range(k) for c in range(l)])


# Graphs whose BFS ends on the level found without a product: once a level
# reaches all of its class, the rest of the other class is the last level.
# Each is also checked with its classes exchanged.
LAST_LEVEL_CASES = {
    "K_1,1": complete(1, 1),
    "K_3,4": complete(3, 4),
    "K_5,2": complete(5, 2),
    # from B0 level 1 is all of C; the last level {B1, B2} has degrees 2 and 1
    "last_level_uneven_degrees": BipartiteGraph(3, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1),
                                                       (2, 2)]),
    # K_2,3 and an isolated B vertex, which the last level from B0 must not take
    "isolated_vertex": BipartiteGraph(3, 3, [(b, c) for b in range(2) for c in range(3)]),
    # the 6-cycle with a chord B0 - C2: degrees 3, 2, 2 on each side
    "not_biregular": BipartiteGraph(3, 3, [(i, i) for i in range(3)]
                                    + [(i, (i + 1) % 3) for i in range(3)] + [(0, 2)]),
    # a path B0 - C0 - B1 - C1 - B2: ends of degree 1, a middle of degree 2
    "path": BipartiteGraph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)]),
}


@pytest.mark.parametrize("g", LAST_LEVEL_CASES.values(), ids=LAST_LEVEL_CASES)
def test_last_level_matches_oracle(g):
    for h in (g, flip(g)):
        assert_dbrg_check_matches_oracle(h)
        assert_local_checks_and_partitions_match_oracle(h)


def passes(g, side, monkeypatch):
    """The counting passes and levels of one BFS from all of class ``side``."""
    calls = []
    count = bigraph._count
    monkeypatch.setattr(bigraph, "_count", lambda c, frontier: calls.append(c) or count(c, frontier))
    (_, _, levels), = bigraph._sweeps(g, range(side * g.nB, g.nB + side * g.nC))
    eccentricity = len(list(levels)) - 1
    return len(calls), eccentricity


@pytest.mark.parametrize("g,expected", [
    (complete(3, 4), (0, 2)),
    (BipartiteGraph(3, 3, [(i, i) for i in range(3)] + [(i, (i + 1) % 3) for i in range(3)]),
     (1, 3)),
    (cone_graph(2).graph, (2, 4)),
], ids=["K_3,4", "6-cycle", "cone_q2"])
def test_last_level_costs_no_product(g, expected, monkeypatch):
    # level 1 comes from the edges and the last level is free: a BFS of
    # eccentricity e from every source of a class runs e - 2 counting passes
    assert passes(g, 0, monkeypatch) == passes(g, 1, monkeypatch) == expected


# Degrees and counts that fill or overflow a bit plane, each graph with its
# classes exchanged too.  In K_{2,7..9}, K_{3,255} and K_{3,256} they are
# degrees, and c = degree on the last level; K_{n,n} less a perfect
# matching runs a counting pass to c = n - 2 = 7, 8, 9.  The last graph is
# not distance-biregular: from C0 the level-2 cell is C1 and C2, both of
# degree 9, with 1 and 9 neighbours at level 1: counts that differ in bit 3
# alone, after an equitable level 1.
BIT_PLANE_CASES = {
    **{f"K_{k},{l}": complete(k, l) for k, l in [(2, 7), (2, 8), (2, 9), (3, 255), (3, 256)]},
    **{f"K_{n},{n}-I": BipartiteGraph(n, n, [(b, c) for b in range(n) for c in range(n) if b != c])
       for n in (9, 10, 11)},
    "counts_1_and_9": BipartiteGraph(18, 3, [(b, 0) for b in range(10)] + [(0, 1)]
                                     + [(b, 1) for b in range(10, 18)]
                                     + [(b, 2) for b in range(1, 10)]),
}


@pytest.mark.parametrize("g", BIT_PLANE_CASES.values(), ids=BIT_PLANE_CASES)
def test_bit_plane_boundaries_match_oracle(g):
    for h in (g, flip(g)):
        assert_dbrg_check_matches_oracle(h)
        assert_local_checks_and_partitions_match_oracle(h)


@st.composite
def symmetric_bigraphs(draw):
    """A graph closed under 1-2 random class-preserving permutations: the
    orbits of random edges, or of a cycle's edges, under the group they
    span.  Vertices are global ids, the permutations arrays of length V."""
    nb, nc = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    gens = [np.concatenate([draw(st.permutations(range(nb))),
                            nb + np.array(draw(st.permutations(range(nc))), dtype=int)])
            for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()) and nb == nc:
        seeds = [(i, i) for i in range(nb)] + [(i, (i + 1) % nb) for i in range(nb)]
    else:
        pairs = st.tuples(st.integers(0, nb - 1), st.integers(0, nc - 1))
        seeds = draw(st.lists(pairs, max_size=nb * nc))
    edges, todo = set(), [(b, nb + c) for b, c in seeds]
    while todo:
        e = todo.pop()
        if e not in edges:
            edges.add(e)
            todo += [(int(perm[e[0]]), int(perm[e[1]])) for perm in gens]
    g = BipartiteGraph(nb, nc, [(b, c - nb) for b, c in edges])
    other = np.concatenate([draw(st.permutations(range(nb))),
                            nb + np.array(draw(st.permutations(range(nc))), dtype=int)])
    return g, gens, other


@SETTINGS
@given(symmetric_bigraphs())
def test_orbit_check_matches_full_check(case):
    # same verdict, array and witness from one BFS per orbit, on connected,
    # disconnected and non-distance-biregular graphs alike
    g, gens, other = case
    full = dbrg_check(g)
    assert dbrg_check(g, automorphisms=tuple(gens)) == full
    assert dbrg_check(g, automorphisms=[gens[0]] * 2) == full
    # a random class-preserving permutation is accepted iff it maps the edges onto themselves
    edges = set(g.edges)
    if {(int(other[b]), int(other[g.nB + c]) - g.nB) for b, c in edges} == edges:
        assert dbrg_check(g, automorphisms=(other,)) == full
    else:
        with pytest.raises(ValueError, match="does not preserve the edges"):
            dbrg_check(g, automorphisms=(other,))


@pytest.mark.parametrize("perm,message", [
    ([0, 0, 2, 3], "not a permutation"),
    ([0, 1, 2, 4], "not a permutation"),
    ([-1, 1, 2, 3], "not a permutation"),
    ([0, 1, 2], "length V=4"),
    ([[0, 1, 2, 3]], "length V=4"),
    ([0.0, 1.0, 2.0, 3.0], "integer array"),
    ([3, 2, 1, 0], "does not keep the classes"),
    ([1, 0, 2, 3], "does not preserve the edges"),
])
def test_bogus_automorphisms_raise(perm, message):
    # the path C0 - B0 - C1 - B1; swapping B0 and B1 breaks it
    g = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 1)])
    with pytest.raises(ValueError, match=message):
        dbrg_check(g, automorphisms=(np.arange(4), perm))
    # [3, 2, 1, 0] reverses the path, a graph automorphism that swaps the
    # classes; the identity, given as a list, is the only one kept
    assert dbrg_check(g, automorphisms=([0, 1, 2, 3],)) == dbrg_check(g)


def test_bogus_automorphism_of_a_sparse_graph_raises():
    # the path less B1 - C1 has fewer than V - 1 edges, so it is reported
    # disconnected without a sweep; a claimed generator is still checked
    # first, and swapping B0 and B1 is refused before any verdict
    g = BipartiteGraph(2, 2, [(0, 0), (0, 1)])
    with pytest.raises(ValueError, match="does not preserve the edges"):
        dbrg_check(g, automorphisms=(np.arange(4), [1, 0, 2, 3]))
    assert dbrg_check(g) == DbrgResult(False, witness=("disconnected", 0, 1))
