"""Perp-system verification, parameters, duals, search, and file format."""

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dbrg.constructions import gen_delorme_graph
from dbrg.gfcore import (enumerate_subspaces, field, orthogonal_complement, qbinom,
                         subspace_make, subspace_meet)
from dbrg.geometry import SpaceFamily, denniston_arc, dualize, field_for_order, hyperoval
from dbrg.perpsys import (
    PerpSystem,
    PerpViolation,
    TwoIntersectionSet,
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


def test_verify_reports_all_covered():
    # every nonzero vector of F_2^3 lies on 3 of its 7 planes: none has multiplicity 0
    gf2 = field(2)
    res = perp_verify(gf2, 3, 1, tuple(enumerate_subspaces(gf2, 3, 2)))
    assert isinstance(res, PerpViolation) and res.kind == "all_covered"


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
    short = PerpSystem(good.ctx, good.n, good.members[:-1], k=good.k, d=good.d, s=good.s)
    with pytest.raises(ValueError, match="covered-point count"):
        two_intersection_set(short)
    with pytest.raises(ValueError, match="non-integral"):
        two_intersection_set(PerpSystem(good.ctx, good.n, good.members, k=good.k, d=good.d, s=5))
    with pytest.raises(ValueError, match="duplicate members"):
        PerpSystem(good.ctx, good.n, good.members + good.members[:1], k=good.k, d=good.d,
                   s=good.s)
    # two planes of F_2^4 meeting in a line: so do their perps
    gf2 = field(2)
    planes = (subspace_make(gf2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)]),
              subspace_make(gf2, 4, [(1, 0, 0, 0), (0, 0, 1, 0)]))
    with pytest.raises(ValueError, match="dual members 0,1 do not meet trivially"):
        perp_dualize(PerpSystem(gf2, 4, planes, k=2, d=2, s=2))
    dual = perp_dualize(good)
    with pytest.raises(ValueError, match="failed verification"):
        perp_dualize(PerpSystem(dual.ctx, dual.n, dual.members[:-1], k=dual.k, d=dual.d,
                                s=dual.s, dual=True))


def test_perp_system_is_a_space_family_with_keyword_fields():
    good = dual_hyperoval_system(4)
    assert isinstance(good, SpaceFamily)
    assert [f.name for f in dataclasses.fields(PerpSystem)] == [
        "ctx", "n", "members", "k", "d", "s", "dual"]
    with pytest.raises(TypeError):
        PerpSystem(good.ctx, good.n, good.members, good.k, good.d, good.s)


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


def test_search_zero_time_budget_stops_in_setup():
    out = perp_search(7, 3, 2, 2, budget_seconds=0)
    assert (out.status, out.nodes, out.system, out.complete) == ("budget", 0, None, False)
    assert out.setup_seconds == out.elapsed


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


# ---------------------------------------------------------------------------
# Scalar references for the vectorized point and hyperplane counts
# ---------------------------------------------------------------------------

def scalar_dot(ctx, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = ctx.add(acc, ctx.mul(a, b))
    return acc


def lex_points(ctx, n):
    for lead in range(n):
        for rest in itertools.product(range(ctx.q), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + rest


def two_intersection_reference(system):
    """Point by point: multiplicities by ``contains``, hyperplane sizes by
    scalar dot products; the same checks in the same order."""
    system.require_primal("the two-intersection set")
    ctx, n, k, d, s = system.ctx, system.n, system.k, system.d, system.s
    q = ctx.q
    reps = [w for w in lex_points(ctx, n) if sum(m.contains(w) for m in system.members) == d]
    big_n = Fraction(s, d) * qbinom(n - k, 1, q)
    h1 = Fraction(qbinom(n - k, 1, q) + (s - 1) * qbinom(n - k - 1, 1, q), d)
    h2 = Fraction(s * qbinom(n - k - 1, 1, q), d)
    if big_n.denominator != 1 or h1.denominator != 1 or h2.denominator != 1:
        raise ValueError(f"non-integral point count or hyperplane size: N={big_n}, "
                         f"h1={h1}, h2={h2}")
    if len(reps) != big_n:
        raise ValueError(f"covered-point count {len(reps)} != predicted {int(big_n)}")
    n1 = n2 = 0
    for w in lex_points(ctx, n):
        cnt = sum(1 for y in reps if scalar_dot(ctx, w, y) == 0)
        if cnt == h1:
            n1 += 1
        elif cnt == h2:
            n2 += 1
        else:
            raise ValueError(f"hyperplane {w} meets the point set in {cnt}, expected {h1} or {h2}")
    if h1 != h2 and (n1 == 0 or n2 == 0):
        raise ValueError("one of the two hyperplane sizes does not occur")
    pts = SpaceFamily(ctx, n, tuple(subspace_make(ctx, n, [w]) for w in sorted(reps)))
    return TwoIntersectionSet(pts, int(big_n), n, int(h1), int(h2), n1, n2)


def dualize_reference(system):
    """Pair by pair by ``subspace_meet``, hyperplane by hyperplane by scalar
    dot products with the basis rows."""
    ctx, n, k, d = system.ctx, system.n, system.k, system.d
    duals = tuple(sorted((orthogonal_complement(m) for m in system.members),
                         key=lambda m: m.basis))
    if system.dual:
        res = perp_verify(ctx, n, k, duals)
        if isinstance(res, PerpViolation):
            raise ValueError(f"dual of a dual system failed verification: {res}")
        return res
    for i, j in itertools.combinations(range(len(duals)), 2):
        if subspace_meet(duals[i], duals[j]).dim != 0:
            raise ValueError(f"dual members {i},{j} do not meet trivially")
    seen = set()
    for w in lex_points(ctx, n):
        cnt = sum(1 for m in duals if all(scalar_dot(ctx, w, row) == 0 for row in m.basis))
        if cnt not in (0, d):
            raise ValueError(f"hyperplane {w} contains {cnt} dual members, expected 0 or {d}")
        seen.add(cnt)
    if seen != {0, d}:
        raise ValueError("hyperplane covering must take both values 0 and d")
    return PerpSystem(ctx, n, duals, k=k, d=d, s=system.s, dual=True)


def outcome(fn, system):
    try:
        return "ok", fn(system)
    except ValueError as exc:
        return "ValueError", str(exc)


def known_systems():
    out = [dual_hyperoval_system(q) for q in (2, 4, 8)]
    fam = dualize(denniston_arc(8, 4))
    out.append(perp_verify(fam.ctx, 3, 1, fam.members))
    out += [perp_search(*params).system for params in ((3, 1, 3, 3), (4, 1, 2, 4))]
    return out


KNOWN = known_systems()


@st.composite
def perp_like_systems(draw):
    """A verified system, its dual, or a broken one: members dropped,
    replaced or added, d or s changed, or a random family of hyperplanes
    whose s, where possible, makes the covered-point count come out right
    (so the hyperplane sizes are what is tested)."""
    kind = draw(st.sampled_from(["known", "dual", "mutated", "random"]))
    if kind == "random":
        q = draw(st.sampled_from([2, 3, 4]))
        ctx = field_for_order(q)
        n = draw(st.integers(3, 4))
        cands = list(enumerate_subspaces(ctx, n, n - 1))
        members = draw(st.lists(st.sampled_from(cands), min_size=1, max_size=8, unique=True))
        d = draw(st.integers(1, 4))
        covered = sum(1 for w in lex_points(ctx, n)
                      if sum(m.contains(w) for m in members) == d)
        s, rem = divmod(covered * d, qbinom(n - 1, 1, q))
        return PerpSystem(ctx, n, tuple(members), k=1, d=d,
                          s=s if s and not rem else len(members))
    base = draw(st.sampled_from(KNOWN))
    if kind == "known":
        return base
    if kind == "dual":
        dual = perp_dualize(base)
        if draw(st.booleans()):
            return dual
        return dataclasses.replace(dual, members=dual.members[1:])
    members = list(base.members)
    others = [m for m in enumerate_subspaces(base.ctx, base.n, base.n - base.k)
              if m not in members]

    def fresh():  # a member not in the family and not drawn before
        m = draw(st.sampled_from(others))
        others.remove(m)
        return m

    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "replace", "add", "d", "s"]))
        if op == "drop" and len(members) > 1:
            members.pop(draw(st.integers(0, len(members) - 1)))
        elif op == "replace":
            members[draw(st.integers(0, len(members) - 1))] = fresh()
        elif op == "add":
            members.append(fresh())
        elif op == "d":
            base = dataclasses.replace(base, d=draw(st.integers(1, 2 * base.d)))
        else:
            base = dataclasses.replace(base, s=draw(st.integers(2, 2 * base.s)))
    return dataclasses.replace(base, members=tuple(members))


# three lines of PG(2,2) with the right covered-point count for d = s = 2,
# but a hyperplane meeting the point set in neither predicted size
HYPERPLANE_MISS = PerpSystem(
    field(2), 3,
    tuple(subspace_make(field(2), 3, rows) for rows in (
        [(1, 0, 0), (0, 0, 1)], [(1, 0, 0), (0, 1, 0)], [(1, 0, 1), (0, 1, 0)])),
    k=1, d=2, s=2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(perp_like_systems())
@example(HYPERPLANE_MISS)
def test_two_intersection_set_matches_scalar_reference(system):
    got = outcome(two_intersection_set, system)
    assert got == outcome(two_intersection_reference, system)
    if system is HYPERPLANE_MISS:
        assert got == ("ValueError", "hyperplane (1, 1, 0) meets the point set in 0, "
                                     "expected 2 or 1")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(perp_like_systems())
@example(HYPERPLANE_MISS)
def test_perp_dualize_matches_scalar_reference(system):
    assert outcome(perp_dualize, system) == outcome(dualize_reference, system)
