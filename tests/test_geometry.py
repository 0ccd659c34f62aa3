"""Arcs, hyperovals, duality, and the quadric-cone space families."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbrg.gfcore import (enumerate_projective_points, enumerate_subspaces, subspace_make,
                         subspace_meet)
from dbrg.geometry import (
    ArcCheckResult,
    SpaceFamily,
    arc_check,
    cone_spaces,
    denniston_arc,
    dualize,
    field_for_order,
    hyperoval,
    point,
)


def test_field_for_order():
    assert field_for_order(9).p == 3
    assert field_for_order(8).t == 3
    with pytest.raises(ValueError):
        field_for_order(12)
    with pytest.raises(ValueError):
        field_for_order(1)


@pytest.mark.parametrize("q,lines", [(2, 7), (4, 21)])
def test_hyperoval_meets_every_line_in_0_or_2(q, lines):
    h = hyperoval(q)
    assert len(h) == q + 2
    res = arc_check(h, 2)
    assert res.ok, res
    assert sum(1 for _ in enumerate_projective_points(h.ctx, 3)) == lines


def test_hyperoval_odd_q_rejected():
    with pytest.raises(ValueError):
        hyperoval(3)


def test_conic_without_nucleus_has_a_tangent():
    # dropping the nucleus leaves a q+1 point conic; some line meets it once
    h = hyperoval(4)
    ctx = h.ctx
    nucleus = point(ctx, (0, 1, 0))
    conic = SpaceFamily(ctx, 3, tuple(p for p in h.members if p != nucleus))
    res = arc_check(conic, 2)
    assert not res.ok
    assert res.count == 1  # a tangent line


def test_all_points_fail_arc_check():
    ctx = field_for_order(2)
    everything = SpaceFamily(
        ctx, 3, tuple(point(ctx, v) for v in enumerate_projective_points(ctx, 3))
    )
    res = arc_check(everything, 2)
    assert not res.ok and res.count == 3


@pytest.mark.parametrize(
    "q,r,size",
    [(4, 2, 6), (8, 2, 10), (8, 4, 28)],
)
def test_denniston_arcs(q, r, size):
    arc = denniston_arc(q, r)
    assert len(arc) == q * r - q + r == size
    assert arc_check(arc, r).ok


def test_denniston_rejects_bad_parameters():
    with pytest.raises(ValueError):
        denniston_arc(8, 3)
    with pytest.raises(ValueError):
        denniston_arc(9, 3)
    with pytest.raises(ValueError):
        denniston_arc(16, 8 + 1)


def test_dualize_involution_on_hyperoval():
    h = hyperoval(4)
    assert dualize(dualize(h)) == h


def test_dual_hyperoval_point_counts():
    # dual of hyperoval(2): 4 lines, every point of PG(2,2) on 0 or 2 of them
    h = hyperoval(2)
    fam = dualize(h)
    assert len(fam) == 4
    ctx = h.ctx
    counts = []
    for w in enumerate_projective_points(ctx, 3):
        pt = point(ctx, w)
        counts.append(sum(1 for m in fam.members if subspace_meet(m, pt).dim == 1))
    assert set(counts) == {0, 2}


def test_dualize_preserves_incidence_counts():
    # point w on m dual lines  <=>  hyperplane w-perp through m arc points
    h = hyperoval(4)
    ctx = h.ctx
    fam = dualize(h)
    for w in enumerate_projective_points(ctx, 3):
        pt = point(ctx, w)
        on_lines = sum(1 for m in fam.members if subspace_meet(m, pt).dim == 1)
        hyp = dualize(pt)
        through = sum(1 for p in h.members if subspace_meet(hyp, p).dim == 1)
        assert on_lines == through


def test_space_family_rejects_a_member_over_another_field():
    # a point of GF(4)^3 in a family over GF(2)
    pt = point(field_for_order(4), (1, 2, 3))
    with pytest.raises(ValueError, match="field"):
        SpaceFamily(field_for_order(2), 3, (pt,))


def test_bases_are_stacked_int64_also_for_zero_dim_members():
    gf2 = field_for_order(2)
    fam = SpaceFamily(gf2, 4, (subspace_make(gf2, 4, []),))
    assert fam.bases.dtype == np.int64 and fam.bases.shape == (1, 0, 4)
    arc = hyperoval(4)
    assert arc.bases.dtype == np.int64 and arc.bases.shape == (6, 1, 3)
    assert arc.bases[:, 0].tolist() == [list(pt.basis[0]) for pt in arc.members]


def test_dualize_subspace_dimension():
    ctx = field_for_order(2)
    s = subspace_make(ctx, 3, [(1, 0, 1), (0, 1, 1)])
    d = dualize(s)
    assert d.dim == 1
    assert dualize(d) == s


def test_cone_spaces_q2_counts_and_membership():
    r_star, s_star = cone_spaces(2)
    assert len(r_star) == 30
    assert len(s_star) == 15
    m0 = subspace_make(
        s_star.ctx, 6, [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0)]
    )
    assert m0 in s_star.members


def quadric(ctx, v):
    """X1X2 - X3X4 + X5X6, one field operation at a time."""
    return ctx.add(ctx.sub(ctx.mul(v[0], v[1]), ctx.mul(v[2], v[3])), ctx.mul(v[4], v[5]))


def test_cone_members_are_totally_singular_q2():
    r_star, _ = cone_spaces(2)
    for m in r_star.members:
        for v in m.vectors():
            assert quadric(r_star.ctx, v) == 0


@pytest.mark.parametrize("q", [2, 3])
def test_cone_spaces_match_brute_force(q):
    # every 3-space on which the quadric vanishes at every vector (the rows
    # first, as a cheap necessary test), in enumeration order; the ruling
    # is the one meeting <e1, e3, e5> in odd dimension
    ctx = field_for_order(q)
    singular = [m for m in enumerate_subspaces(ctx, 6, 3)
                if all(quadric(ctx, row) == 0 for row in m.basis)
                and all(quadric(ctx, v) == 0 for v in m.vectors())]
    ruling = [m for m in singular
              if sum(1 for v in m.vectors() if v[1] == v[3] == v[5] == 0) in (q, q**3)]
    r_star, s_star = cone_spaces(q)
    assert r_star.members == tuple(singular)
    assert s_star.members == tuple(ruling)


def test_cone_meet_dimension_distribution_q2():
    _, s_star = cone_spaces(2)
    dist = {}
    for a, b in itertools.combinations(s_star.members, 2):
        d = subspace_meet(a, b).dim
        dist[d] = dist.get(d, 0) + 1
    # same ruling: generators meet in odd dimension
    assert set(dist) == {1}
    assert dist[1] == 15 * 14 // 2


def scalar_dot(ctx, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = ctx.add(acc, ctx.mul(a, b))
    return acc


def lex_points(ctx, n):
    """Normalized point representatives of PG(n-1, q), lex order."""
    for lead in range(n):
        for rest in itertools.product(range(ctx.q), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + rest


def arc_check_reference(arc, r):
    """One line and one point at a time, by scalar dot products."""
    for w in lex_points(arc.ctx, arc.n):
        cnt = sum(1 for pt in arc.members if scalar_dot(arc.ctx, w, pt.basis[0]) == 0)
        if cnt not in (0, r):
            return ArcCheckResult(False, r, w, cnt)
    return ArcCheckResult(True, r)


@st.composite
def plane_point_sets(draw):
    """A random point set of PG(2, q) and a degree r, or a known arc."""
    q = draw(st.sampled_from([2, 3, 4, 8, 9]))
    ctx = field_for_order(q)
    pts = list(lex_points(ctx, 3))
    if q in (4, 8) and draw(st.booleans()):
        r = draw(st.sampled_from([rr for rr in (2, 4) if rr < q]))
        return denniston_arc(q, r), r
    chosen = draw(st.sets(st.sampled_from(pts), max_size=len(pts)))
    arc = SpaceFamily(ctx, 3, tuple(point(ctx, v) for v in sorted(chosen)))
    return arc, draw(st.integers(0, q + 1))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(plane_point_sets())
def test_arc_check_matches_scalar_reference(case):
    arc, r = case
    assert arc_check(arc, r) == arc_check_reference(arc, r)
