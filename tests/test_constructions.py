"""Builders against the definition-exact verifier."""

import dataclasses
import hashlib

import pytest
from hypothesis import assume, given, settings, strategies as st

from dbrg.bigraph import (
    IntersectionArray,
    arrays_equal_up_to_swap,
    dbrg_check,
    girth,
    halved_graphs,
    semiregular_check,
    serialize_graph,
    srg_check,
)
from dbrg.constructions import (
    DerivedGraphError,
    _coset_incidence,
    bi_grassmann,
    bi_johnson,
    complete_bipartite,
    cone_graph,
    derived_local_graph,
    gen_delorme_graph,
    hyperoval_affine_graph,
)
from dbrg.geometry import SpaceFamily, denniston_arc, dualize, hyperoval
from dbrg.gfcore import field, index_vector, subspace_make
from dbrg.perpsys import perp_verify


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
    broken = dataclasses.replace(dual_hyperoval_system(4), d=3)
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
    # sha256 of the graph file as the direct point-plane builder wrote it
    text = serialize_graph(hyperoval_affine_graph(q).graph)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
    (lambda: gen_delorme_graph(dual_hyperoval_system(4)),
     "64321102284e2c59b91a1173d5916dc1d74342b3219359f3d2ad817a1f64ce31"),
    (lambda: gen_delorme_graph(dual_hyperoval_system(8)),
     "192131bbeb9034c0d369675164ffe5201030cba3743a9c1b88f34deb84c9b910"),
    (lambda: gen_delorme_graph(dual_denniston_system(8, 4)),
     "4f5b09f4e0ad3747f2d594f1a0bb90471424af34e38a2bab344cb07d89c7e075"),
], ids=["cone2", "cone3", "cone4", "grassmann4_1_2", "grassmann4_1_3",
        "delorme_hyperoval4", "delorme_hyperoval8", "delorme_denniston8_4"])
def test_coset_and_inclusion_graph_bytes_pinned(build, digest):
    # sha256 of the graph file as the per-vector builders wrote it
    text = serialize_graph(build().graph)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_derived_from_q4_parent():
    parent = gen_delorme_graph(dual_hyperoval_system(4))
    pres = dbrg_check(parent.graph)
    d = derived_local_graph(parent.graph, "B", 0, array=pres.array)
    assert d.params["gamma3"] == 2
    assert (d.graph.nB, d.graph.nC) == (18, 18)
    res = dbrg_check(d.graph)
    assert res.ok and res.array == d.predicted
    # parameters coincide with the direct affine construction
    direct = hyperoval_affine_graph(4)
    assert arrays_equal_up_to_swap(res.array, direct.predicted)
    assert {d.graph.nB, d.graph.nC} == {direct.graph.nB, direct.graph.nC}


def test_derived_rejects_bi_johnson_parent():
    bj = bi_johnson(6, 2)
    with pytest.raises(DerivedGraphError) as err:
        derived_local_graph(bj.graph, "C", 0)
    assert err.value.condition == "delta3_nonzero"


def test_derived_rejects_supplied_array_without_distance_4():
    # c3C = k and c2C = l - 1: b3 = 0 on the C line, and the distance-3
    # homogeneity denominator would be zero
    parent = complete_bipartite(3, 4).graph
    arr = IntersectionArray(3, 4, (1, 2, 2, 3), (1, 3, 3, 4))
    with pytest.raises(DerivedGraphError) as err:
        derived_local_graph(parent, "C", 0, array=arr)
    assert err.value.condition == "b3_positive"
    with pytest.raises(DerivedGraphError) as err:
        derived_local_graph(parent, "C", 0, array=IntersectionArray(3, 4, (1, 0, 2, 3), arr.cC))
    assert err.value.condition == "array_invalid"


@pytest.mark.parametrize("side,index,message", [
    ("X", 0, "side must be 'B' or 'C', got 'X'"),
    ("b", 0, "side must be 'B' or 'C', got 'b'"),
    ("B", 10**6, "B index 1000000 out of range"),
    ("C", 24, "C index 24 out of range"),
])
def test_derived_rejects_vertex_outside_parent(side, index, message):
    parent = gen_delorme_graph(dual_hyperoval_system(4))
    arr = dbrg_check(parent.graph).array
    with pytest.raises(ValueError, match=message) as err:
        derived_local_graph(parent.graph, side, index, array=arr)
    assert not isinstance(err.value, DerivedGraphError)


def test_derived_vertex_choice_is_irrelevant():
    parent = gen_delorme_graph(dual_hyperoval_system(4))
    arr = dbrg_check(parent.graph).array
    a = derived_local_graph(parent.graph, "B", 0, array=arr)
    b = derived_local_graph(parent.graph, "B", 17, array=arr)
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
    # free coordinates with base-q rank j
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
    g = _coset_incidence(SpaceFamily(gf, n, members))
    assert (g.nB, g.nC) == (q**n, len(members) * q ** (n - m))
    assert g.edges == tuple(sorted(want))
