"""Builders against the definition-exact verifier."""

import hashlib
import itertools
import pickle
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from dbrg.bigraph import (BipartiteGraph, dbrg_check, distance_partition, flip, parse_graph,
                          serialize_graph, write_graph)
from dbrg.constructions import (
    MAX_EDGES,
    _coset_incidence,
    bi_grassmann,
    bi_johnson,
    complete_bipartite,
    cone_graph,
    derived_local_graph,
    gen_delorme_graph,
    hyperoval_affine_graph,
)
from dbrg.gfcore import translations
from dbrg.geometry import ArcCheckResult, cone_spaces, denniston_arc, dualize, hyperoval
from dbrg.gfint import SpaceFamily, field, index_vector, subspace_make
from dbrg.params import DerivedGraphError, IntersectionArray, derived_array
from dbrg.perpsys import PerpSystem, PerpViolation, perp_search, perp_verify, two_intersection_set

from oracles import (ShortcutResult, girth, halved_graphs, local_dr_check, petersen,
                     semiregular_check, srg_check, subdivision)


def verified(result):
    res = dbrg_check(result.graph)
    assert res.ok, res.witness
    assert res.array == result.predicted, (res.array, result.predicted)
    return res


def dual_hyperoval_system(q):
    fam = dualize(hyperoval(q))
    return perp_verify(fam.ctx, 3, 1, fam.members)


def test_complete_bipartite():
    res = verified(complete_bipartite(2, 3))
    assert not res.regular
    verified(complete_bipartite(3, 3))
    r11 = complete_bipartite(1, 1)
    assert "diameter 1" in r11.provenance
    verified(r11)


def test_bi_johnson():
    r = bi_johnson(6, 2)
    assert (r.graph.nB, r.graph.nC) == (15, 20)
    assert str(r.predicted) == "{4;1,1,2,2,3 | 3;1,1,2,2,3,3}"
    verified(r)
    r2 = bi_johnson(4, 1)
    assert str(r2.predicted) == "{3;1,1,2 | 2;1,1,2,2}"
    verified(r2)
    with pytest.raises(ValueError):
        bi_johnson(5, 2)


@pytest.mark.parametrize("n,k", [(4, 1), (7, 2), (9, 3), (10, 4), (12, 5), (30, 1)])
def test_bi_johnson_edges_are_subset_inclusions(n, k):
    # numbered as itertools.combinations numbers the subsets
    small = list(itertools.combinations(range(n), k))
    large = {s: i for i, s in enumerate(itertools.combinations(range(n), k + 1))}
    want = sorted((i, large[tuple(sorted(s + (x,)))]) for i, s in enumerate(small)
                  for x in range(n) if x not in s)
    g = bi_johnson(n, k).graph
    assert (g.nB, g.nC) == (len(small), len(large))
    assert g.edges == tuple(want)


def test_bi_grassmann():
    r = bi_grassmann(4, 1, 2)
    assert (r.graph.nB, r.graph.nC) == (15, 35)
    assert str(r.predicted) == "{7;1,1,3 | 3;1,1,3,3}"
    verified(r)
    r3 = bi_grassmann(4, 1, 3)
    assert str(r3.predicted) == "{13;1,1,4 | 4;1,1,4,4}"
    verified(r3)
    with pytest.raises(ValueError):
        bi_grassmann(5, 2, 2)


def test_gen_delorme_q2_hypercube_parameters():
    r = gen_delorme_graph(dual_hyperoval_system(2))
    assert (r.graph.nB, r.graph.nC) == (8, 8)
    assert str(r.predicted) == "{4;1,2,3,4 | 4;1,2,3,4}"
    verified(r)


def test_gen_delorme_rejects_non_integral_c3b():
    # q^(n-2k)(s-1)/d = 4 * 5 / 3 is not an integer
    good = dual_hyperoval_system(4)
    broken = PerpSystem(good.ctx, good.n, good.members, k=good.k, d=3, s=good.s)
    with pytest.raises(ValueError, match="c3B"):
        gen_delorme_graph(broken)


def test_gen_delorme_q4_row1():
    r = gen_delorme_graph(dual_hyperoval_system(4))
    assert (r.graph.nB, r.graph.nC) == (64, 24)
    assert str(r.predicted) == "{6;1,2,10,6 | 16;1,4,5,16}"
    verified(r)
    assert girth(r.graph) == 4
    sr = semiregular_check(r.graph)
    assert (sr.k, sr.l) == (6, 16)
    hb, hc = halved_graphs(r.graph)
    assert srg_check(hb).params == (64, 45, 32, 30)
    assert srg_check(hc).params == (24, 20, 16, 20)


def test_cone_q2():
    r = cone_graph(2)
    assert (r.graph.nB, r.graph.nC) == (64, 120)
    assert str(r.predicted) == "{15;1,3,4,15 | 8;1,2,6,8}"
    verified(r)
    hb, hc = halved_graphs(r.graph)
    assert srg_check(hb).params == (64, 35, 18, 20)
    assert srg_check(hc).params == (120, 56, 28, 24)


def test_cone_q5_is_within_the_edge_bound():
    # q = 5 is within the edge bound, 5^6 * 6 * 26 = 2437500 edges, and checked
    # with its translations; q = 6 is no field order, and q = 7 is over the
    # bound (see test_oversized_builds_are_refused_before_allocating)
    r = cone_graph(5)
    assert (r.graph.nB, r.graph.nC) == (5**6, 156 * 5**3)
    res = dbrg_check(r.graph, r.automorphisms)
    assert res.ok and str(res.array) == "{156;1,6,25,156 | 125;1,5,30,125}"
    assert res.array == r.predicted
    with pytest.raises(ValueError):
        cone_graph(6)


def test_hyperoval_affine_q4_regular():
    r = hyperoval_affine_graph(4)
    assert (r.graph.nB, r.graph.nC) == (18, 18)
    assert str(r.predicted) == "{6;1,2,5,6 | 6;1,2,5,6}"
    res = verified(r)
    assert res.regular
    with pytest.raises(ValueError):
        hyperoval_affine_graph(2)
    with pytest.raises(ValueError):
        hyperoval_affine_graph(6)


@pytest.mark.parametrize("q,digest", [
    (4, "4a32aa66e9dcebb234f0e473b5cdb3000912cdf35ffe47888e7b35aae608b2b8"),
    (8, "e7f8c15b1d8390c86b188d4f11eed8110cde8e09d76ba3538d6410b60cdcbb95"),
    (16, "39aa8fc7cb5230fcd7eb6ab687ee1e79f9db6dab6cb184370c979f0ce73fd3ec"),
])
def test_hyperoval_affine_graph_bytes_pinned(q, digest):
    # sha256 of the graph file as the direct point-plane builder wrote it;
    # by 2-B-homogeneity it is also the flip of the local derived graph at
    # B:0 of the Delorme graph of the dual hyperoval, in bytes and array
    built = hyperoval_affine_graph(q)
    derived = derived_local_graph(gen_delorme_graph(dual_hyperoval_system(q)).graph, "B", 0)
    for g in (built.graph, flip(derived.graph)):
        assert hashlib.sha256(serialize_graph(g).encode()).hexdigest() == digest
    assert derived.predicted.swapped() == built.predicted


def dual_denniston_system(q, r):
    fam = dualize(denniston_arc(q, r))
    return perp_verify(fam.ctx, 3, 1, fam.members)


@pytest.mark.parametrize("build,digest", [
    (lambda: cone_graph(2), "11f9443dbb00baeb4d610d5dfdff24714d2dfbefbd719c53d2eed53c6dace468"),
    (lambda: cone_graph(3), "2e99629c1efad4570c1ce70402b981752fd86445f70e8c2752ec3882ebc85abb"),
    (lambda: cone_graph(4), "bd9002bdbeb6d16aa3cd7518344dd1dfd103d739e76da0c052756aa3c30aebdb"),
    (lambda: bi_grassmann(4, 1, 2),
     "e4385c3ec0bdfa99640d46a22e2bb44ddf3d13c724fdf9becce7069ceff0fd98"),
    (lambda: bi_grassmann(4, 1, 3),
     "e87b22384476759344beb210c355862b0c1215e82e34f42ea32cec8109e3eeed"),
    (lambda: bi_grassmann(4, 1, 4),
     "e5e05c4232b71d08d7d7f7e28f82082cd45cacb657f7ac79fa6330f376cb04e8"),
    (lambda: bi_grassmann(6, 2, 2),
     "1a88619e4d697a20241c296613c61bf586cff41386e8d73ee72c75a01e730ec8"),
    (lambda: bi_grassmann(6, 1, 3),
     "430c96dbc88df8efe7978caeb790462a3d978d91ba54f3d16c82690602be51ef"),
    (lambda: gen_delorme_graph(dual_hyperoval_system(4)),
     "64321102284e2c59b91a1173d5916dc1d74342b3219359f3d2ad817a1f64ce31"),
    (lambda: gen_delorme_graph(dual_hyperoval_system(8)),
     "192131bbeb9034c0d369675164ffe5201030cba3743a9c1b88f34deb84c9b910"),
    (lambda: gen_delorme_graph(dual_denniston_system(8, 4)),
     "4f5b09f4e0ad3747f2d594f1a0bb90471424af34e38a2bab344cb07d89c7e075"),
], ids=["cone2", "cone3", "cone4", "grassmann4_1_2", "grassmann4_1_3", "grassmann4_1_4",
        "grassmann6_2_2", "grassmann6_1_3", "delorme_hyperoval4", "delorme_hyperoval8", "delorme_denniston8_4"])
def test_coset_and_inclusion_graph_bytes_pinned(build, digest):
    # sha256 of the graph file as the per-vector builders wrote it
    text = serialize_graph(build().graph)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("build", [
    lambda: complete_bipartite(100_000, 100_000),  # 10^10 pairs
    lambda: bi_johnson(40, 19),  # C(40, 19) subsets, about 1.3 10^11
    lambda: bi_johnson(10**30, 10**29),  # counted in part: C(n, 25) is over already
    lambda: bi_grassmann(8, 1, 16),
    lambda: bi_grassmann(10**30, 2, 2),  # counted in part, as [26, 1]_2
    lambda: hyperoval_affine_graph(128),  # 128 127^2 / 2 points, each on 130 planes
    lambda: hyperoval_affine_graph(2**40),  # beyond the field bound as well
    lambda: cone_graph(7),  # 7^6 points, each on 8 * 50 cosets: 47059600 edges
], ids=["complete_bipartite", "bi_johnson", "bi_johnson_huge", "bi_grassmann",
        "bi_grassmann_huge", "hyperoval_affine128", "hyperoval_affine_huge", "cone7"])
def test_oversized_builds_are_refused_before_allocating(build):
    # the predicted edge count is checked against MAX_EDGES first: the
    # refusal is immediate and allocates next to nothing
    tracemalloc.start()
    try:
        t0 = time.monotonic()
        with pytest.raises(MemoryError, match=f"over the bound of {MAX_EDGES}$"):
            build()
        seconds, peak = time.monotonic() - t0, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 1 and peak < 2**20, (seconds, peak)


def test_hyperoval_affine_64_is_within_the_edge_bound(monkeypatch):
    # the bound counts the 64 63^2 / 2 * 66 = 8382528 final edges, not the
    # cosets of all 64^3 vectors: the build gets past the size check to the
    # hyperoval, stopped here before it allocates anything
    class Built(Exception):
        pass

    def stop(q):
        raise Built(q)

    monkeypatch.setattr("dbrg.constructions.hyperoval", stop)
    with pytest.raises(Built, match="^64$"):
        hyperoval_affine_graph(64)
    assert 64 * 63**2 // 2 * 66 == 8382528 <= MAX_EDGES


def _traced_peak(call):
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graph_layers_peak_at_pinned_bytes_per_edge(tmp_path):
    # every edge-sized array from the builder through the file to the
    # graph is int32, and no step holds more than one edge-sized copy
    # beyond the graph (8 bytes an edge) and the text (9.5): measured
    # 18.9, 19.1, 16.8 and 29.9 bytes an edge (numpy 2.4), each pinned
    # with a quarter of headroom; bi_johnson's 10010 edges carry its
    # fixed tables too
    built, peak = _traced_peak(lambda: cone_graph(4))
    m = len(built.graph.eb)
    assert m == 348160 and peak / m < 24, peak / m
    text, peak = _traced_peak(lambda: serialize_graph(built.graph))
    assert peak / m < 24, peak / m
    parsed, peak = _traced_peak(lambda: parse_graph(text))
    assert parsed.edges == built.graph.edges and peak / m < 21, peak / m
    # written to a file, the text is never held whole: the writer holds its
    # vertex labels (70 bytes a vertex) and one chunk of edges, 0.69 MB here
    path = tmp_path / "cone4.graph"

    def write():
        with open(path, "w") as fh:
            write_graph(built.graph, fh)

    _, peak = _traced_peak(write)
    assert path.read_text() == text and peak < 1_000_000, peak
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "bd9002bdbeb6d16aa3cd7518344dd1dfd103d739e76da0c052756aa3c30aebdb")
    built, peak = _traced_peak(lambda: bi_johnson(14, 4))
    m = len(built.graph.eb)
    assert m == 10010 and peak / m < 37, peak / m


def test_oversized_gen_delorme_graph_is_refused():
    # the dual hyperoval of PG(2, 64) verifies as a perp system; its graph
    # would have 64^3 66 > 2^24 edges
    system = dual_hyperoval_system(64)
    t0 = time.monotonic()
    with pytest.raises(MemoryError, match="at least 17301504 edges"):
        gen_delorme_graph(system)
    assert time.monotonic() - t0 < 1


def test_distance_engine_memory_is_below_dense_n():
    # the check of the dual Denniston (16,4) Delorme graph, 4096+832
    # vertices, with its translations: the engine keeps neighbour tables
    # and bit sets, far below the 4 nB nC bytes of a float32 biadjacency
    built = gen_delorme_graph(dual_denniston_system(16, 4))
    g = built.graph
    tracemalloc.start()
    try:
        res = dbrg_check(g, built.automorphisms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.ok and res.array == built.predicted
    assert peak < 4 * g.nB * g.nC / 2, peak


@pytest.mark.parametrize("build,count", [
    (lambda: cone_graph(2), 6),
    (lambda: cone_graph(3), 6),
    (lambda: gen_delorme_graph(dual_hyperoval_system(4)), 6),
    (lambda: gen_delorme_graph(dual_hyperoval_system(8)), 9),
    (lambda: hyperoval_affine_graph(8), 1),
    (lambda: hyperoval_affine_graph(16), 1),
], ids=["cone2", "cone3", "delorme_hyperoval4", "delorme_hyperoval8",
        "hyperoval_affine8", "hyperoval_affine16"])
def test_claimed_automorphisms_pass_and_keep_the_result(build, count):
    # coset graphs claim the n t translations by GF(p) unit vectors, the
    # affine hyperoval graph x -> lam x; dbrg_check raises on a wrong one,
    # and one BFS per orbit gives the full check's result
    built = build()
    assert len(built.automorphisms) == count
    res = dbrg_check(built.graph, built.automorphisms)
    assert res == dbrg_check(built.graph)
    assert res.ok and res.array == built.predicted


def test_derived_from_q4_parent():
    parent = gen_delorme_graph(dual_hyperoval_system(4))
    d = derived_local_graph(parent.graph, "B", 0)
    assert d.params["gamma3"] == 2
    assert (d.graph.nB, d.graph.nC) == (18, 18)
    res = dbrg_check(d.graph)
    assert res.ok and res.array == d.predicted
    # parameters coincide with the direct affine construction
    direct = hyperoval_affine_graph(4)
    assert direct.predicted in (res.array, res.array.swapped())
    assert {d.graph.nB, d.graph.nC} == {direct.graph.nB, direct.graph.nC}


def test_derived_rejects_parent_that_is_not_distance_biregular():
    apart = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
    with pytest.raises(DerivedGraphError) as err:
        derived_local_graph(apart, "B", 0)
    assert err.value.condition == "parent_not_dbrg"
    assert str(err.value) == "parent_not_dbrg: ('disconnected', 0, 1)"


def test_derived_rejects_bi_johnson_parent():
    bj = bi_johnson(6, 2)
    with pytest.raises(DerivedGraphError) as err:
        derived_local_graph(bj.graph, "C", 0)
    assert err.value.condition == "delta3_nonzero"


def test_derived_rejects_supplied_array_without_distance_4():
    # derived_array validates its input: c3C = k and c2C = l - 1 give b3 = 0
    # on the C line before its last cell, and c2B = 0 is no c-number; an
    # invalid array is a ValueError, not a failed hypothesis
    arr = IntersectionArray(3, 4, (1, 2, 2, 3), (1, 3, 3, 4))
    for bad, message in ((arr, r"c_3\^C = 3 outside \[1, 3\)"),
                         (IntersectionArray(3, 4, (1, 0, 2, 3), arr.cC), r"c_2\^B = 0 outside")):
        with pytest.raises(ValueError, match=message) as err:
            derived_array(bad)
        assert not isinstance(err.value, DerivedGraphError)


def test_derived_rejects_undefined_gamma3():
    # a valid array whose distance-3 homogeneity denominator
    # b3(c4 - 1) + c3(b2 - 1) is 0 (c4 = 1, b2 = 1), so Delta3 = 0 and
    # gamma3 is 0/0
    arr = IntersectionArray(3, 3, (1, 2, 1, 1, 1, 3), (1, 2, 1, 1, 1, 3))
    arr.validate()
    with pytest.raises(DerivedGraphError) as err:
        derived_array(arr)
    assert err.value.condition == "gamma3_undefined"


@pytest.mark.parametrize("build,side,condition", [
    (lambda: complete_bipartite(3, 4).graph, "C", "diameter"),
    (lambda: subdivision(petersen()), "B", "c2_bound"),
], ids=["complete_bipartite", "subdivided_petersen"])
def test_derived_checks_the_measured_array(build, side, condition):
    # the hypotheses are checked on the parent's measured array, oriented to
    # z: K_3,4 has covering radii 2; seen from a Petersen vertex, the
    # subdivided Petersen graph has c4 = 1 on z's line and gamma3 = c2 = 1
    with pytest.raises(DerivedGraphError) as err:
        derived_local_graph(build(), side, 0)
    assert err.value.condition == condition


@pytest.mark.parametrize("side,index,message", [
    ("X", 0, "side must be 'B' or 'C', got 'X'"),
    ("b", 0, "side must be 'B' or 'C', got 'b'"),
    ("B", 10**6, "B index 1000000 out of range"),
    ("C", 24, "C index 24 out of range"),
])
def test_derived_rejects_vertex_outside_parent(side, index, message):
    parent = gen_delorme_graph(dual_hyperoval_system(4))
    with pytest.raises(ValueError, match=message) as err:
        derived_local_graph(parent.graph, side, index)
    assert not isinstance(err.value, DerivedGraphError)


def test_derived_vertex_choice_is_irrelevant():
    parent = gen_delorme_graph(dual_hyperoval_system(4))
    a = derived_local_graph(parent.graph, "B", 0)
    b = derived_local_graph(parent.graph, "B", 17)
    assert dbrg_check(a.graph).array == dbrg_check(b.graph).array


@st.composite
def member_families(draw):
    """A field of order 2, 3, 4 or 9, n <= 5 with q^n <= 1024, and a few
    random distinct subspaces of one dimension in F_q^n."""
    p, t = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]))
    gf = field(p, t)
    n = draw(st.integers(1, max(k for k in range(1, 6) if gf.q**k <= 1024)))
    m = draw(st.integers(0, n))
    count = draw(st.integers(1, 3))
    spaces = []
    for _ in range(count):
        rows = draw(st.lists(st.lists(st.integers(0, gf.q - 1), min_size=n, max_size=n),
                             min_size=m, max_size=m))
        space = subspace_make(gf, n, rows)
        if space.dim == m and space not in spaces:
            spaces.append(space)
    assume(spaces)
    return gf, n, tuple(spaces)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(member_families())
def test_coset_positions_match_reduce(case):
    # coset j of a member is the one whose reduced representative has the
    # free coordinates with base-q rank j; a translation x -> x + e lifts to
    # the map taking the coset of x to the coset of x + e, member by member
    gf, n, members = case
    q, m = gf.q, members[0].dim
    want = []
    for vid in range(q**n):
        v = index_vector(gf, vid, n)
        for i, mb in enumerate(members):
            rep = mb.reduce(v)
            rank = 0
            for j in range(n):
                if j not in mb.pivots:
                    rank = rank * q + rep[j]
            want.append((vid, i * q ** (n - m) + rank))
    shifts = translations(gf, n)
    g, lifted = _coset_incidence(SpaceFamily(gf, n, members), shifts)
    assert (g.nB, g.nC) == (q**n, len(members) * q ** (n - m))
    assert g.edges == tuple(sorted(want))
    per = q ** (n - m)
    coset_of = {(vid, c // per): c for vid, c in want}
    some_vector = {c: vid for vid, c in want}
    for row, perm in zip(shifts.tolist(), lifted.tolist()):
        assert perm[:g.nB] == row
        assert perm[g.nB:] == [g.nB + coset_of[row[some_vector[c]], c // per] for c in range(g.nC)]


def _records():
    """One value of each record of the graph, geometry and perp layers, with
    its fields in order (the search keeps no node record: a node is the
    arguments of its call)."""
    path, system = complete_bipartite(1, 2).graph, dual_hyperoval_system(2)
    return [
        (distance_partition(path, 0), "source cells"),
        (local_dr_check(path, 0), "ok c b witness"),
        (dbrg_check(path), "ok array regular witness"),
        (semiregular_check(path), "ok k l witness"),
        (srg_check(petersen()), "ok params witness"),
        (ShortcutResult("inconclusive"), "verdict reason predicted agrees"),
        (subspace_make(field(2), 3, [(1, 0, 0)]), "ctx n basis"),
        (ArcCheckResult(True, 2), "ok degree violating_line count"),
        (complete_bipartite(2, 2), "graph predicted provenance params automorphisms"),
        (PerpViolation("d_too_small"), "kind vector pair detail"),
        (two_intersection_set(system), "points N K h1 h2 hyperplanes_h1 hyperplanes_h2"),
        (perp_search(3, 1, 2, 2), "status system nodes elapsed solutions complete setup_seconds"),
        (cone_spaces(2)[1], "ctx n members"),
        (system, "ctx n members k d s"),
    ]


def test_records_are_read_only_with_their_fields_in_order():
    # the records are NamedTuples, and the two families plain classes with
    # __slots__; none takes an assignment, a deletion or a new attribute
    for record, names in _records():
        fields = getattr(record, "_fields", None) or tuple(
            name for cls in reversed(type(record).__mro__) for name in vars(cls).get("__slots__", ()))
        assert fields == tuple(names.split()), type(record)
        for name in (fields[0], fields[-1], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, fields[0])
    # copy and pickle fill the families' slots without their setattr
    for family in (hyperoval(4), dual_hyperoval_system(2)):
        assert pickle.loads(pickle.dumps(family)) == family
