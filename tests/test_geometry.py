"""Arcs, hyperovals, duality, and the quadric-cone space families."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbrg.gfcore import echelon_bases, enumerate_subspaces, mul, stack_bases, subspace_vector_ids
from dbrg.geometry import (
    ArcCheckResult,
    arc_check,
    cone_spaces,
    denniston_arc,
    dualize,
    hyperoval,
    point,
)
from dbrg.gfint import (SpaceFamily, field_for_order, orthogonal_complement, point_vectors, rref,
                        subspace_make)

from oracles import subspace_meet
from test_gfcore import array_dot


def test_field_for_order():
    assert field_for_order(9).p == 3
    assert field_for_order(8).t == 3
    with pytest.raises(ValueError):
        field_for_order(12)
    with pytest.raises(ValueError):
        field_for_order(1)
    with pytest.raises(ValueError, match="q=1000000000000000003 exceeds supported bound"):
        field_for_order(10**18 + 3)  # a prime: trial division would take hours


@pytest.mark.parametrize("q,lines", [(2, 7), (4, 21)])
def test_hyperoval_meets_every_line_in_0_or_2(q, lines):
    h = hyperoval(q)
    assert len(h) == q + 2
    res = arc_check(h, 2)
    assert res.ok, res
    assert len(point_vectors(h.ctx, 3)) == lines


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
        ctx, 3, tuple(point(ctx, v) for v in point_vectors(ctx, 3))
    )
    res = arc_check(everything, 2)
    assert not res.ok and res.count == 3


# sha256 of the repr of the members' bases, as the array form evaluation listed them
DENNISTON_DIGESTS = {
    (4, 2): "1110421a57bbbdd70b037f14b29aedc3c27b47c6cf1d11f94a2e756a5a81d792",
    (8, 2): "3aa7944e2e818f453ee72c68ae169daac9a17c54712a941490ac2ac86b5377f9",
    (8, 4): "e45fd77fd70e2e4b99bbfca7a8571879b488f2dfcc1a629b8147afe2c97169d1",
    (16, 8): "84b8e84ec763562ff2eb4a5100a3288cbb63abd509b1aafa6fd7224c1cd684ac",
    (32, 4): "9afec0dc78613b53b1f1aeb2a6cd2eeac0a7084a320725dccec36e3b5f35d774",
}


@pytest.mark.parametrize(
    "q,r,size",
    [(4, 2, 6), (8, 2, 10), (8, 4, 28), (16, 8, 120), (32, 4, 100)],
)
def test_denniston_arcs(q, r, size):
    arc = denniston_arc(q, r)
    assert len(arc) == q * r - q + r == size
    assert arc_check(arc, r).ok
    digest = hashlib.sha256(repr([m.basis for m in arc.members]).encode()).hexdigest()
    assert digest == DENNISTON_DIGESTS[q, r]


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
    for w in point_vectors(ctx, 3):
        pt = point(ctx, w)
        counts.append(sum(1 for m in fam.members if subspace_meet(m, pt).dim == 1))
    assert set(counts) == {0, 2}


def test_dualize_preserves_incidence_counts():
    # point w on m dual lines  <=>  hyperplane w-perp through m arc points
    h = hyperoval(4)
    ctx = h.ctx
    fam = dualize(h)
    for w in point_vectors(ctx, 3):
        pt = point(ctx, w)
        on_lines = sum(1 for m in fam.members if subspace_meet(m, pt).dim == 1)
        hyp = orthogonal_complement(pt)
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
    bases = stack_bases(fam)
    assert bases.dtype == np.int64 and bases.shape == (1, 0, 4)
    arc = hyperoval(4)
    bases = stack_bases(arc)
    assert bases.dtype == np.int64 and bases.shape == (6, 1, 3)
    assert bases[:, 0].tolist() == [list(pt.basis[0]) for pt in arc.members]


def test_dualize_subspace_dimension():
    ctx = field_for_order(2)
    s = subspace_make(ctx, 3, [(1, 0, 1), (0, 1, 1)])
    d = orthogonal_complement(s)
    assert d.dim == 1
    assert orthogonal_complement(d) == s


def test_cone_spaces_q2_counts_and_membership():
    r_star, s_star = cone_spaces(2)
    assert len(r_star) == 30
    assert len(s_star) == 15
    m0 = subspace_make(
        s_star.ctx, 6, [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0)]
    )
    assert m0 in s_star.members


def quadric(ctx, v):
    """X1X2 - X3X4 + X5X6, one field operation at a time, on ints or arrays."""
    minus = mul(ctx, ctx.p - 1, mul(ctx, v[2], v[3]))
    return ctx.add(ctx.add(mul(ctx, v[0], v[1]), minus), mul(ctx, v[4], v[5]))


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


def filtered_cone_spaces(q):
    """Every totally singular [6, 3]_q space, in enumeration order, and the
    ruling meeting <e1, e3, e5> in odd dimension.  The quadric on each basis
    row (as X1X2 + X5X6 = X3X4) and its polar form on each pair of rows are
    tested on all echelon bases of a pivot set at once, as dot products;
    the ruling is read from the number of vector ids M shares with M0."""
    ctx = field_for_order(q)
    singular = []
    for rows in echelon_bases(ctx, 6, 3):
        u, v = rows[:, [0, 0, 1]], rows[:, [1, 2, 2]]  # the three pairs of rows
        ok = ((array_dot(ctx, rows[..., [0, 4]], rows[..., [1, 5]])
               == array_dot(ctx, rows[..., [2]], rows[..., [3]])).all(axis=1)
              & (array_dot(ctx, u[..., [0, 1, 4, 5]], v[..., [1, 0, 5, 4]])
                 == array_dot(ctx, u[..., [2, 3]], v[..., [3, 2]])).all(axis=1))
        singular.append(rows[ok])
    singular = np.concatenate(singular)
    m0 = subspace_vector_ids(ctx, np.eye(6, dtype=np.int8)[None, ::2])
    shared = np.isin(subspace_vector_ids(ctx, singular), m0).sum(axis=1)
    odd = np.isin(shared, (q - 1, q**3 - 1))
    spaces = tuple(subspace_make(ctx, 6, rows) for rows in singular.tolist())
    return spaces, tuple(m for m, keep in zip(spaces, odd) if keep)


def test_cone_spaces_match_the_filter_q4():
    # all 376 805 [6, 3]_4 spaces filtered: both rulings, member for member
    r_star, s_star = cone_spaces(4)
    assert (r_star.members, s_star.members) == filtered_cone_spaces(4)
    assert (len(r_star), len(s_star)) == (170, 85)


@pytest.mark.parametrize("q", [5, 7, 8, 9])
def test_cone_spaces_are_the_generators(q):
    # 2(q+1)(q^2+1) distinct totally singular 3-spaces are every generator
    # of the hyperbolic quadric: each basis row and each sum of two rows is
    # singular, so the polar form vanishes on each pair of rows and every
    # vector is singular; the ruling is the generators meeting
    # M0 = <e1, e3, e5> in odd dimension 3 - rank of their X2, X4, X6 columns
    r_star, s_star = cone_spaces(q)
    ctx = r_star.ctx
    assert (len(r_star), len(s_star)) == (2 * (q + 1) * (q * q + 1), (q + 1) * (q * q + 1))
    rows = np.moveaxis(stack_bases(r_star), -1, 0)  # coordinates first, as quadric reads them
    for i, j in itertools.combinations_with_replacement(range(3), 2):
        v = rows[..., i] if i == j else ctx.add(rows[..., i], rows[..., j])
        assert not quadric(ctx, v).any()
    odd = [m for m in r_star.members
           if len(rref(ctx, [row[1::2] for row in m.basis], 3)) in (0, 2)]
    assert s_star.members == tuple(odd)


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
def point_sets(draw):
    """A random point set of PG(2, q), or of PG(3, q) for q <= 3, and a
    degree r; or a known arc."""
    q = draw(st.sampled_from([2, 3, 4, 8, 9, 16]))
    ctx = field_for_order(q)
    if q in (4, 8, 16) and draw(st.booleans()):
        r = draw(st.sampled_from([rr for rr in (2, 4, 8) if rr < q]))
        return denniston_arc(q, r), r
    n = 4 if q <= 3 and draw(st.booleans()) else 3
    pts = list(lex_points(ctx, n))
    chosen = draw(st.sets(st.sampled_from(pts), max_size=len(pts)))
    arc = SpaceFamily(ctx, n, tuple(point(ctx, v) for v in sorted(chosen)))
    return arc, draw(st.integers(0, q**(n - 2) + q + 1))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(point_sets())
def test_arc_check_matches_scalar_reference(case):
    arc, r = case
    assert arc_check(arc, r) == arc_check_reference(arc, r)

