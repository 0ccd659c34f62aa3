"""Distance partitions, biregularity checks, halved graphs, subdivision."""

import itertools

import numpy as np
import pytest

from dbrg.bigraph import (BipartiteGraph, dbrg_check, distance_partition, flip, induced_subgraph,
                          parse_graph, serialize_graph)
from dbrg.params import IntersectionArray

from oracles import (Graph, biadjacency, c3_shortcut_check, cell_sizes, girth, halved_graphs,
                     local_dr_check, petersen, semiregular_check, simple_graph, srg_check,
                     subdivision)


def complete_bip(nb, nc):
    return BipartiteGraph(nb, nc, [(b, c) for b in range(nb) for c in range(nc)])


def cycle6():
    # hexagon: B = {0,1,2}, C = {0,1,2}, edges form a single 6-cycle
    return BipartiteGraph(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)])


def hypercube4():
    # 4-cube as a bipartite graph on even/odd weight vectors
    evens = [v for v in range(16) if bin(v).count("1") % 2 == 0]
    odds = [v for v in range(16) if bin(v).count("1") % 2 == 1]
    ei = {v: i for i, v in enumerate(evens)}
    oi = {v: i for i, v in enumerate(odds)}
    edges = []
    for v in evens:
        for bit in range(4):
            edges.append((ei[v], oi[v ^ (1 << bit)]))
    return BipartiteGraph(8, 8, edges)


def test_distance_partition_cycle6():
    g = cycle6()
    for v in range(6):
        dp = distance_partition(g, v)
        assert cell_sizes(dp) == (1, 2, 2, 1)


def test_distance_partition_hypercube():
    dp = distance_partition(hypercube4(), 0)
    assert cell_sizes(dp) == (1, 4, 6, 4, 1)


def test_distance_partition_disconnected_errors():
    g = BipartiteGraph(2, 2, [(0, 0)])  # B1 and C1 isolated
    with pytest.raises(ValueError):
        distance_partition(g, 0)


def test_local_dr_complete_bipartite():
    g = complete_bip(2, 3)
    res_b = local_dr_check(g, g.vertex("B", 0))
    assert res_b.ok and res_b.c[1:] == (1, 3)
    res_c = local_dr_check(g, g.vertex("C", 0))
    assert res_c.ok and res_c.c[1:] == (1, 2)


def test_local_dr_cycle6():
    res = local_dr_check(cycle6(), 0)
    assert res.ok and res.c[1:] == (1, 1, 2)


def test_local_dr_pendant_failure():
    # K_{2,3} plus a pendant C vertex on B0: some partition is inequitable
    edges = [(b, c) for b in range(2) for c in range(3)] + [(0, 3)]
    g = BipartiteGraph(2, 4, edges)
    res = local_dr_check(g, g.vertex("C", 0))
    assert not res.ok
    assert res.witness == (1, 0, 1)  # level, the cell's first vertex, the first that differs


def test_dbrg_complete_bipartite_53():
    g = complete_bip(5, 3)  # B has 5 vertices of valency 3
    res = dbrg_check(g)
    assert res.ok
    assert res.array == IntersectionArray(3, 5, (1, 3), (1, 5))
    assert not res.regular


def test_dbrg_cycle6_regular():
    res = dbrg_check(cycle6())
    assert res.ok and res.regular
    assert res.array.cB == res.array.cC == (1, 1, 2)


def test_dbrg_rejects_pendant():
    edges = [(b, c) for b in range(2) for c in range(3)] + [(0, 3)]
    g = BipartiteGraph(2, 4, edges)
    res = dbrg_check(g)
    assert not res.ok
    # the first failing vertex in index order is named
    assert res.witness == ("local", 0, 1, 2, 5)


def test_dbrg_hypercube4():
    res = dbrg_check(hypercube4())
    assert res.ok and res.regular
    assert res.array == IntersectionArray(4, 4, (1, 2, 3, 4), (1, 2, 3, 4))


def test_girth_and_semiregular():
    assert girth(cycle6()) == 6
    assert girth(complete_bip(2, 3)) == 4
    assert girth(hypercube4()) == 4
    tree = BipartiteGraph(2, 1, [(0, 0), (1, 0)])
    assert girth(tree) == 0
    sr = semiregular_check(complete_bip(4, 7))
    assert sr.ok and (sr.k, sr.l) == (7, 4)
    bad = semiregular_check(BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0)]))
    assert not bad.ok


def test_halved_hypercube_is_k4x2():
    hb, hc = halved_graphs(hypercube4())
    for h in (hb, hc):
        res = srg_check(h)
        assert res.ok and res.params == (8, 6, 4, 6)


def test_srg_check_petersen():
    res = srg_check(petersen())
    assert res.ok and res.params == (10, 3, 0, 1)


def test_srg_check_witnesses():
    # path on 3 vertices: not regular
    res = srg_check(simple_graph(3, [(0, 1), (1, 2)]))
    assert not res.ok and res.witness[0] == "degree"
    # C5 plus a chord: regular fails first on degree; use C4 with one diagonal pair
    res2 = srg_check(simple_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))
    assert res2.ok and res2.params == (5, 2, 0, 1)
    # hexagon: regular but mu is not constant
    res3 = srg_check(simple_graph(6, [(i, (i + 1) % 6) for i in range(6)]))
    assert not res3.ok and res3.witness[0] == "mu"


def test_graph_takes_a_simple_adjacency_matrix_only():
    path = np.zeros((3, 3), bool)
    path[0, 1] = path[1, 0] = path[1, 2] = path[2, 1] = True
    asymmetric = path.copy()
    asymmetric[1, 0] = False
    for adj in (np.zeros((2, 3), bool), np.zeros(3, bool), path.astype(np.int64),
                path | np.eye(3, dtype=bool), asymmetric):
        with pytest.raises(ValueError, match="square symmetric boolean matrix with a false diagonal"):
            Graph(adj)
    g = Graph(path)
    assert g.adjacency() is path and not path.flags.writeable
    assert (g.n, g.edges) == (3, ((0, 1), (1, 2)))


def test_subdivision_c4_is_c8():
    c4 = simple_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    s = subdivision(c4)
    assert (s.nB, s.nC) == (4, 4)
    assert girth(s) == 8
    res = dbrg_check(s)
    assert res.ok and res.array.cB == (1, 1, 1, 2)


def test_subdivision_petersen_array():
    s = subdivision(petersen())
    res = dbrg_check(s)
    assert res.ok
    # regression value, cross-checked by hand against Moore-graph counting
    assert res.array == IntersectionArray(3, 2, (1, 1, 1, 1, 2), (1, 1, 1, 1, 2, 2))
    assert girth(s) == 10


def test_subdivision_path_rejected():
    p3 = simple_graph(3, [(0, 1), (1, 2)])
    res = dbrg_check(subdivision(p3))
    assert not res.ok and res.witness == ("side", "B", 0, 1)


def test_c3_shortcut_applies_on_hypercube():
    res = c3_shortcut_check(hypercube4(), c2b=2, c3b=3, c2c=2)
    assert res.verdict == "applies"
    assert res.predicted == IntersectionArray(4, 4, (1, 2, 3, 4), (1, 2, 3, 4))
    assert res.agrees


def test_c3_shortcut_equality_inconclusive():
    # edge-vertex incidence of K4, oriented with the edges as class B:
    # k*c2C = 2 = c2B*c3B, exactly the boundary case
    k4 = simple_graph(4, list(itertools.combinations(range(4), 2)))
    g = flip(subdivision(k4))
    res = c3_shortcut_check(g, c2b=1, c3b=2, c2c=1)
    assert res.verdict == "inconclusive"


def test_c3_shortcut_hypothesis_failure():
    res = c3_shortcut_check(hypercube4(), c2b=2, c3b=3, c2c=3)
    assert res.verdict == "hypothesis_failed"


def test_induced_subgraph_and_flip():
    g = complete_bip(3, 4)
    sub = induced_subgraph(g, [0, 2], [1, 3])
    assert (sub.nB, sub.nC) == (2, 2)
    assert len(sub.edges) == 4
    f = flip(g)
    assert (f.nB, f.nC) == (4, 3)
    assert dbrg_check(f).ok


def test_induced_subgraph_refuses_an_index_outside_its_class():
    g = complete_bip(3, 2)
    with pytest.raises(ValueError, match="^B index 7 out of range for B=3$"):
        induced_subgraph(g, [0, 7], [0, -1])
    with pytest.raises(ValueError, match="^C index -1 out of range for C=2$"):
        induced_subgraph(g, [0, 2], [0, -1])
    assert induced_subgraph(g, [2, 0, 2], [1]).edges == ((0, 0), (1, 0))


@pytest.mark.parametrize("edges", [
    [(0.5, 1)],
    np.array([[0.0, 1.0]]),
    [(True, 1)],
    np.array([[True, False]]),
], ids=["float_list", "float_array", "bool_in_list", "bool_array"])
def test_graph_refuses_non_integer_edges(edges):
    with pytest.raises(ValueError, match="^edges must hold integers"):
        BipartiteGraph(2, 2, edges)


@pytest.mark.parametrize("edges,message", [
    ([(0, 1, 2)], "edge 0 is not a pair: (0, 1, 2)"),
    ([(0, 1), (1,)], "edge 1 is not a pair: (1,)"),
    ([(0, 1), (1, 0), 1], "edge 2 is not a pair: 1"),
    (np.zeros((2, 3), int), "edge 0 is not a pair: array([0, 0, 0])"),
], ids=["triple", "single", "scalar", "array_rows_of_three"])
def test_graph_names_the_edge_that_is_no_pair(edges, message):
    with pytest.raises(ValueError) as err:
        BipartiteGraph(2, 2, edges)
    assert str(err.value) == message


def test_graph_file_round_trip():
    g = complete_bip(2, 3)
    text = serialize_graph(g)
    assert text.splitlines()[0] == "B=2 C=3"
    again = parse_graph(text)
    assert serialize_graph(again) == text
    with pytest.raises(ValueError) as err:
        parse_graph("B=2 C=3\n0 0\n1 x\n")
    assert "line 3" in str(err.value)
    with pytest.raises(ValueError):
        parse_graph("")
    with pytest.raises(ValueError, match="line 1: negative"):
        parse_graph("B=-1 C=2")
    # vertex ids are int32: 10^11 + 1 vertices is a header error, not an OverflowError
    with pytest.raises(ValueError, match="line 1: .* do not fit int32 vertex ids"):
        parse_graph("B=100000000000 C=1\n")
    with pytest.raises(ValueError, match="int32"):
        BipartiteGraph(10**11, 1, [])
    with pytest.raises(ValueError, match="line 5: duplicate edge '0 1'"):
        parse_graph("B=2 C=2\n0 1\n\n1 0\n0 1\n")
    with pytest.raises(ValueError, match="line 3: edge \\(2,0\\) out of range"):
        parse_graph("B=2 C=2\n0 1\n2 0\n")
    # builders, unlike files, may repeat a pair
    assert BipartiteGraph(2, 2, [(1, 0), (0, 1), (1, 0)]).edges == ((0, 1), (1, 0))


def test_intersection_array_parse_and_validate():
    a = IntersectionArray(6, 16, (1, 2, 10, 6), (1, 4, 5, 16))
    a.validate()
    assert str(a) == "{6;1,2,10,6 | 16;1,4,5,16}"
    assert IntersectionArray.parse(str(a)) == a
    assert IntersectionArray.parse("{6;1,2,10,6 / 16;1,4,5,16}") == a
    assert a.swapped() != a and a.swapped().swapped() == a
    assert IntersectionArray(6, 16, (1, 2, 10, 6), (1, 4, 4, 16)) not in (a, a.swapped())
    with pytest.raises(ValueError):
        IntersectionArray(6, 16, (2, 2, 10, 6), (1, 4, 5, 16)).validate()
    with pytest.raises(ValueError):
        IntersectionArray(6, 16, (1, 2, 10, 5), (1, 4, 5, 16)).validate()
    # b2 = 4 - c2 = 0 leaves nothing at distance 3, yet c3 = 3 follows
    with pytest.raises(ValueError, match="c_2\\^B = 4 outside \\[1, 4\\) before the last cell"):
        IntersectionArray(4, 4, (1, 4, 3, 4), (1, 4, 3, 4)).validate()


@pytest.mark.parametrize("text", [
    "{6;1,2,x,6 | 16;1,4,5,16}",
    "{6 | 16;1,4,5,16}",
    "{6;1,2,10,6 | 16;}",
    "{6;1,2,10,6 | 16;1,4,5,16 | 3;1}",
    "6;1,2,10,6",
])
def test_intersection_array_parse_errors_quote_text(text):
    with pytest.raises(ValueError, match="cannot parse intersection array") as err:
        IntersectionArray.parse(text)
    assert repr(text) in str(err.value)


def test_biadjacency_identity_on_hypercube():
    # N N^T = k I + c2 A(H_B) for the 4-cube
    g = hypercube4()
    n = biadjacency(g)
    hb, _ = halved_graphs(g)
    lhs = n @ n.T
    rhs = 4 * np.eye(8, dtype=int) + 2 * hb.adjacency()
    assert (lhs == rhs).all()


def test_dbrg_check_needs_both_classes():
    for g in (BipartiteGraph(1, 0, []), BipartiteGraph(0, 1, []), BipartiteGraph(0, 0, [])):
        with pytest.raises(ValueError, match="both classes"):
            dbrg_check(g)


def test_array_invariants_raise():
    # each array passes the per-line bounds but no connected graph has it
    with pytest.raises(ValueError, match="covering radii 5 and 3"):
        IntersectionArray(3, 2, (1, 1, 1, 1, 2), (1, 1, 3)).validate()
    with pytest.raises(ValueError, match="odd diameter"):
        IntersectionArray(3, 2, (1, 1, 2), (1, 1, 3)).validate()
