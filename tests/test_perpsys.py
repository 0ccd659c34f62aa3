"""Perp-system verification, parameters, duals, search, and file format."""

import itertools

import pytest

from dbrg.constructions import gen_delorme_graph
from dbrg.gfcore import enumerate_subspaces, field, subspace_make, subspace_meet
from dbrg.geometry import field_for_order
from dbrg.geometry import dualize, hyperoval
from dbrg.perpsys import (
    PerpSystem,
    PerpViolation,
    parse_perp,
    perp_dualize,
    perp_params,
    perp_search,
    perp_srg_params,
    perp_verify,
    serialize_perp,
    two_intersection_set,
)


def dual_hyperoval_system(q):
    fam = dualize(hyperoval(q))
    res = perp_verify(fam.ctx, 3, 1, fam.members)
    assert isinstance(res, PerpSystem)
    return res


def test_verify_dual_hyperoval_q2():
    sys2 = dual_hyperoval_system(2)
    assert (sys2.d, sys2.s) == (2, 4)


def test_verify_dual_hyperoval_q4():
    sys4 = dual_hyperoval_system(4)
    assert (sys4.d, sys4.s) == (2, 6)


def test_verify_rejects_multiplicity_one():
    # two disjoint planes in F_2^4: meets fine, but d would be 1
    gf2 = field(2)
    u = subspace_make(gf2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    w = subspace_make(gf2, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    res = perp_verify(gf2, 4, 2, (u, w))
    assert isinstance(res, PerpViolation)
    assert res.kind == "d_too_small"


def test_verify_rejects_mixed_multiplicity():
    gf2 = field(2)
    planes = list(dualize(hyperoval(2)).members)
    extra = next(s for s in enumerate_subspaces(gf2, 3, 2) if s not in planes)
    res = perp_verify(gf2, 3, 1, tuple(planes[:3]) + (extra,))
    assert isinstance(res, PerpViolation)


def test_verify_reports_pair_meet():
    # the 7 lines of a plane of PG(3,2) cover its points 3 times each, but any two meet
    gf2 = field(2)
    plane = subspace_make(gf2, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)])
    lines = [s for s in enumerate_subspaces(gf2, 4, 2) if all(plane.contains(r) for r in s.basis)]
    res = perp_verify(gf2, 4, 2, lines)
    assert isinstance(res, PerpViolation)
    assert (res.kind, res.pair) == ("pair_meet", (0, 1))
    assert "dimension 1, expected 0" in res.detail


def test_verify_precondition_errors():
    gf2 = field(2)
    with pytest.raises(ValueError):
        perp_verify(gf2, 3, 1, ())
    line = subspace_make(gf2, 3, [(1, 0, 0)])
    with pytest.raises(ValueError):
        perp_verify(gf2, 3, 1, (line, line))
    with pytest.raises(ValueError):
        perp_verify(gf2, 4, 3, (line,))


def test_perp_params_examples():
    rep = perp_params(6, 2, 3, 3)
    assert rep.admissible and rep.s == 21
    rep = perp_params(3, 1, 4, 2)
    assert rep.admissible and rep.s == 6
    rep = perp_params(6, 2, 3, 2)  # 2 is not a power of 3
    assert not rep.admissible
    assert any(c.rule == "multiplicity" and not c.ok for c in rep.checks)
    rep = perp_params(6, 3, 3, 4)  # n = 2k degenerates
    assert not rep.admissible


def test_srg_params_values_and_identities():
    p = perp_srg_params(6, 2, 3, 3, 21)
    assert p.tuple4() == (729, 560, 433, 420)
    assert (p.r, p.s, p.f1, p.f2) == (20, -7, 168, 560)
    p2 = perp_srg_params(3, 1, 4, 2, 6)
    assert p2.tuple4() == (64, 45, 32, 30)
    for hp in (p, p2):
        assert hp.lam == hp.mu + hp.r + hp.s
        assert hp.mu == hp.k + hp.r * hp.s
    with pytest.raises(ValueError):
        perp_srg_params(6, 2, 3, 2, 21)  # s/d not integral
    with pytest.raises(ValueError, match="mu = k"):
        perp_srg_params(3, 1, 8, 2, 4)  # integral, but s = 4 is not the forced s = 10


def test_unverified_systems_raise_value_error():
    good = dual_hyperoval_system(4)
    short = PerpSystem(good.ctx, good.n, good.k, good.members[:-1], good.d, good.s)
    with pytest.raises(ValueError, match="covered-point count"):
        two_intersection_set(short)
    with pytest.raises(ValueError, match="non-integral"):
        two_intersection_set(PerpSystem(good.ctx, good.n, good.k, good.members, good.d, 5))
    twice = PerpSystem(good.ctx, good.n, good.k, good.members + good.members[:1], good.d, good.s)
    with pytest.raises(ValueError, match="do not meet trivially"):
        perp_dualize(twice)
    dual = perp_dualize(good)
    with pytest.raises(ValueError, match="failed verification"):
        perp_dualize(PerpSystem(dual.ctx, dual.n, dual.k, dual.members[:-1], dual.d, dual.s,
                                dual=True))


def test_two_intersection_set_q4():
    tis = two_intersection_set(dual_hyperoval_system(4))
    assert (tis.N, tis.h1, tis.h2) == (15, 5, 3)
    assert (tis.hyperplanes_h1, tis.hyperplanes_h2) == (6, 15)


def test_two_intersection_set_q2():
    tis = two_intersection_set(dual_hyperoval_system(2))
    assert tis.N == 6  # 2 * [2]_2
    assert tis.hyperplanes_h1 + tis.hyperplanes_h2 == 7


def test_dualize_involution_and_dual_properties():
    sys2 = dual_hyperoval_system(2)
    dual = perp_dualize(sys2)
    assert dual.dual and not sys2.dual
    assert (dual.d, dual.s) == (2, 4)
    assert all(m.dim == 1 for m in dual.members)
    for i in range(len(dual.members)):
        for j in range(i + 1, len(dual.members)):
            assert subspace_meet(dual.members[i], dual.members[j]).dim == 0
    back = perp_dualize(dual)
    assert not back.dual
    assert set(back.members) == set(sys2.members)


def test_dual_system_has_no_graph_point_set_or_file():
    # the primal-only operations refuse the k-dimensional dual members
    # instead of building a graph or a file that does not verify
    dual = perp_dualize(dual_hyperoval_system(4))
    for primal_only in (gen_delorme_graph, two_intersection_set, serialize_perp):
        with pytest.raises(ValueError, match="primal formulation"):
            primal_only(dual)


def test_search_3_1_2_2_exhaustive():
    out = perp_search(3, 1, 2, 2, count_all=True)
    assert out.complete
    assert out.solutions == 4  # systems through the least plane of PG(2,2)
    assert out.system is not None and (out.system.d, out.system.s) == (2, 2 + 2)


def test_search_3_1_4_2_finds_dual_hyperoval():
    out = perp_search(3, 1, 4, 2)
    assert out.status == "found"
    assert (out.system.d, out.system.s) == (2, 6)
    tis = two_intersection_set(out.system)
    assert (tis.N, tis.h1, tis.h2) == (15, 5, 3)


def test_search_rejects_inadmissible():
    with pytest.raises(ValueError):
        perp_search(6, 2, 3, 2)


def test_search_budget_exhaustion_reported():
    out = perp_search(6, 2, 3, 3, budget_nodes=2000)
    assert out.status == "budget"
    assert not out.complete
    assert out.nodes >= 2000


@pytest.mark.parametrize("params,systems,nodes", [
    ((3, 1, 2, 2), 4, 10),
    ((3, 1, 3, 3), 9, 56),
    ((4, 1, 2, 4), 8, 108),
    ((3, 1, 4, 2), 48, 164),
    ((3, 1, 4, 4), 16, 195),
])
def test_search_count_all_pinned(params, systems, nodes):
    out = perp_search(*params, count_all=True)
    assert out.complete and out.status == "found"
    assert out.solutions == systems
    # node counts of this branching rule; the counts above are what must not change
    assert out.nodes == nodes


@pytest.mark.parametrize("n,k,q,d", [(3, 1, 2, 2), (3, 1, 3, 3), (4, 1, 2, 4)])
def test_search_count_matches_brute_force(n, k, q, d):
    # every s-subset of the candidates through candidate 0, checked by perp_verify
    ctx = field_for_order(q)
    s = perp_params(n, k, q, d).s
    cands = list(enumerate_subspaces(ctx, n, n - k))
    brute = 0
    for rest in itertools.combinations(cands[1:], s - 1):
        res = perp_verify(ctx, n, k, (cands[0],) + rest)
        brute += isinstance(res, PerpSystem) and res.d == d
    out = perp_search(n, k, q, d, count_all=True)
    assert out.complete and out.solutions == brute


def test_search_time_budget_covers_setup():
    out = perp_search(6, 2, 3, 3, budget_seconds=0.5)
    assert out.status == "budget" and not out.complete
    assert 0 < out.setup_seconds <= out.elapsed
    assert abs(out.elapsed - 0.5) < 1.0


def test_search_determinism():
    a = perp_search(3, 1, 4, 2)
    b = perp_search(3, 1, 4, 2)
    assert a.system.members == b.system.members


def test_perp_file_round_trip():
    sys4 = dual_hyperoval_system(4)
    text = serialize_perp(sys4)
    ctx, n, k, members = parse_perp(text)
    assert (n, k) == (3, 1)
    res = perp_verify(ctx, n, k, members)
    assert isinstance(res, PerpSystem)
    assert serialize_perp(res) == text


def test_perp_file_parse_errors():
    with pytest.raises(ValueError):
        parse_perp("")
    with pytest.raises(ValueError) as err:
        parse_perp("q=2^1 modulus=0,1 n=3 k=1\n1,0\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ValueError):
        parse_perp("q=2^1 modulus=0,1 k=1\n")  # missing n field

def test_perp_file_q4_coordinates():
    sys4 = dual_hyperoval_system(4)
    text = serialize_perp(sys4)
    assert text.splitlines()[0] == "q=2^2 modulus=1,1,1 n=3 k=1"
    # extension-field coordinates are base-p digit strings
    ctx, n, k, members = parse_perp(text)
    assert set(members) == set(sys4.members)
