"""Feasibility conditions, halved-SRG derivation, and table enumeration."""

import hashlib
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from dbrg.feasibility import (
    _c2b_strides,
    catalog_annotate,
    compare_with_reference,
    delorme_relations_check,
    delta_gamma_check,
    enumerate_feasible,
    evaluate,
    halved_srg_derive,
    plane_implication_check,
    reference_table,
    rows_to_csv,
    rows_to_json,
    vertex_counts,
)
from dbrg.params import IntersectionArray

from oracles import structurally_sound


def array4(k, l, c2b, c3b, c2c, c3c):
    """The diameter-4 array {k; 1,c2b,c3b,k | l; 1,c2c,c3c,l}."""
    return IntersectionArray(k, l, (1, c2b, c3b, k), (1, c2c, c3c, l))


ROW1 = array4(6, 16, 2, 10, 4, 5)
MATHON = array4(21, 81, 3, 60, 9, 20)


def test_vertex_counts_row1():
    c = vertex_counts(ROW1)
    assert c.ok and (c.nB, c.nC) == (64, 24)
    assert c.cells_B == (1, 6, 45, 18, 18)


def test_vertex_counts_mathon():
    c = vertex_counts(MATHON)
    assert c.ok and (c.nB, c.nC) == (729, 189)


def test_vertex_counts_non_integral():
    c = vertex_counts(array4(6, 16, 4, 5, 2, 10))
    assert not c.ok and "not an integer" in c.detail


def test_delorme_relations():
    assert delorme_relations_check(ROW1).ok      # 2*10 = 4*5 and 15*4 = 5*12
    assert delorme_relations_check(MATHON).ok    # 3*60 = 9*20
    bad = array4(6, 16, 2, 9, 4, 5)
    assert not delorme_relations_check(bad).ok


@pytest.mark.parametrize(
    "cand,gamma",
    [
        (array4(12, 45, 3, 33, 9, 11), Fraction(9, 5)),
        (array4(20, 96, 4, 76, 16, 19), Fraction(8, 3)),
        (array4(18, 120, 3, 85, 15, 17), Fraction(15, 8)),
        (array4(30, 175, 5, 145, 25, 29), Fraction(25, 7)),
    ],
)
def test_delta_gamma_flagged_rows(cand, gamma):
    verdict, entries = delta_gamma_check(cand)
    assert not verdict.ok
    bad = [e for e in entries if not e.ok]
    assert any(e.gamma == gamma and e.i == 2 and e.orientation == "swapped" for e in bad)


def test_delta_gamma_row1_not_rejected():
    verdict, entries = delta_gamma_check(ROW1)
    assert verdict.ok
    as_given = next(e for e in entries if e.i == 2 and e.orientation == "as-given")
    assert as_given.delta == 30
    # the swapped orientation is homogeneous at both distances, with
    # integral constants (gamma_2 = 1, gamma_3 = 2), so nothing rejects
    swapped2 = next(e for e in entries if e.i == 2 and e.orientation == "swapped")
    assert swapped2.delta == 0 and swapped2.gamma == 1 and swapped2.ok
    d3 = next(e for e in entries if e.i == 3 and e.orientation == "swapped")
    assert d3.delta == 0 and d3.gamma == 2 and d3.ok


def test_delta_gamma_orientation_complete():
    # swapping the lines permutes the orientations but not the verdict
    for cand in [ROW1, MATHON, array4(12, 45, 3, 33, 9, 11)]:
        v1, _ = delta_gamma_check(cand)
        v2, _ = delta_gamma_check(cand.swapped())
        assert v1.ok == v2.ok


def test_halved_srg_mathon_and_row1():
    d = halved_srg_derive(MATHON)
    assert d.ok
    assert d.B.tuple4() == (729, 560, 433, 420)
    assert (d.B.r, d.B.s, d.B.f1, d.B.f2) == (20, -7, 168, 560)
    assert d.C.tuple4() == (189, 180, 171, 180)
    d1 = halved_srg_derive(ROW1)
    assert d1.B.tuple4() == (64, 45, 32, 30)
    assert d1.C.tuple4() == (24, 20, 16, 20)


def test_halved_srg_regular_boundary_case():
    # the 4-cube array: k = l is fine for derivation even if not enumerated
    cube = array4(4, 4, 2, 3, 2, 3)
    d = halved_srg_derive(cube)
    assert d.ok and d.B.tuple4() == (8, 6, 4, 6)


def test_plane_implication():
    n6 = array4(8, 36, 2, 21, 6, 7)
    assert not plane_implication_check(n6).ok
    n10 = array4(12, 100, 2, 55, 10, 11)
    assert not plane_implication_check(n10).ok
    n8 = array4(10, 64, 2, 36, 8, 9)
    res = plane_implication_check(n8)
    assert res.ok and "order 8" in res.detail
    assert plane_implication_check(ROW1).detail.startswith("matches")  # n=4 exists


@pytest.mark.parametrize("n", [14, 21, 22])
def test_plane_implication_bruck_ryser(n):
    # n = 1 or 2 mod 4 and not a sum of two squares
    res = plane_implication_check(array4(n + 2, n * n, 2, n * (n + 1) // 2, n, n + 1))
    assert not res.ok and "Bruck-Ryser" in res.detail


def test_evaluate_statuses():
    assert evaluate(MATHON).status in ("feasible", "flagged")
    gam = evaluate(array4(12, 45, 3, 33, 9, 11))
    assert gam.status == "infeasible"
    assert any("9/5" in r for r in gam.reasons)
    plane = evaluate(array4(8, 36, 2, 21, 6, 7))
    assert plane.status == "infeasible"
    assert any("order 6" in r for r in plane.reasons)


def test_candidate_validation():
    with pytest.raises(ValueError, match="girth four"):
        evaluate(array4(6, 16, 1, 10, 4, 5))
    with pytest.raises(ValueError, match="before the last cell"):
        evaluate(array4(6, 16, 6, 10, 4, 5))  # b2 = 0
    with pytest.raises(ValueError, match="covering radius 4"):
        evaluate(IntersectionArray(2, 3, (1, 2), (1, 3)))
    assert array4(16, 6, 4, 5, 2, 10).canonical() == ROW1


def test_enumeration_small_bounds():
    assert enumerate_feasible(30) == []  # smallest table entry has a side of 64
    rows = enumerate_feasible(64)
    keys = {str(r.array) for r in rows}
    assert "{6;1,2,10,6 | 16;1,4,5,16}" in keys


def test_enumeration_determinism():
    a = enumerate_feasible(100)
    b = enumerate_feasible(100)
    assert rows_to_csv(a) == rows_to_csv(b)
    assert rows_to_json(a) == rows_to_json(b)


def _brute_force_rows(max_side):
    """Every canonical array by direct search: no gcd strides, no bounds but
    k2 <= max_side (which also bounds l, since l - 1 < k2 < nB)."""
    rows = []
    for l in range(4, max_side + 1):
        for k in range(3, l):
            for c2b in range(2, k):
                k2, r = divmod(k * (l - 1), c2b)
                if r or k2 > max_side:
                    continue
                b2c, r = divmod((l - 1) * (k - c2b), k - 1)  # b1B*b2B = b1C*b2C
                c2c = l - b2c
                if r or not 2 <= c2c <= l - 1:
                    continue
                for c3b in range(1, l):
                    c3c, r = divmod(c2b * c3b, c2c)  # c2B*c3B = c2C*c3C
                    if r or not 1 <= c3c <= k - 1:
                        continue
                    rep = evaluate(array4(k, l, c2b, c3b, c2c, c3c))
                    if structurally_sound(rep) and max(rep.counts.nB, rep.counts.nC) <= max_side:
                        rows.append(rep)
    rows.sort(key=lambda r: (r.counts.nB, r.counts.nC, r.array.k, r.array.l,
                             r.array.cB[1], r.array.cB[2]))
    return rows


@pytest.mark.parametrize("max_side", [64, 150, 300, 400])
def test_enumeration_matches_brute_force(max_side):
    assert rows_to_json(enumerate_feasible(max_side)) == rows_to_json(_brute_force_rows(max_side))


def _strides_by_definition(span, k):
    """(k, c2B, l, c2C) for every c2B in [2, k) and l > k with c2B | k,
    c2C | l and k(l-1) <= span*c2B, by direct division: l - 1 runs over
    the multiples of (k-1)/gcd(k-c2B, k-1), which are exactly the l - 1
    making b2C = (l-1)(k-c2B)/(k-1) and so c2C = l - b2C integral."""
    out = []
    for c2b in range(2, k):
        if k % c2b:
            continue
        b = (k - 1) // gcd(k - c2b, k - 1)
        for l_minus1 in range(-(-k // b) * b, span * c2b // k + 1, b):
            l = l_minus1 + 1
            c2c = l - l_minus1 * (k - c2b) // (k - 1)
            if l % c2c == 0:
                out.append((k, c2b, l, c2c))
    return out


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 5000), st.data())
def test_second_cell_identities(k, data):
    # with g = gcd(c2B-1, k-1), a = (c2B-1)/g, b = (k-1)/g: c2C is integral
    # exactly for l = 1 + t*b, and then both second-cell integralities, and
    # both halved-graph eigenvalue integralities, are divisibility
    # conditions of the same shape, with g and t swapped
    c2b = data.draw(st.integers(2, k - 1))
    g = gcd(c2b - 1, k - 1)
    a, b = (c2b - 1) // g, (k - 1) // g
    l = data.draw(st.one_of(st.integers(k + 1, 40 * k),
                            st.integers(g + 1, 40 * g + 40).map(lambda t: 1 + t * b)))
    b2c, r = divmod((l - 1) * (k - c2b), k - 1)
    assert (r == 0) == ((l - 1) % b == 0)
    if r:
        return
    t, c2c = (l - 1) // b, l - b2c
    assert c2c == 1 + t * a
    assert (k * (l - 1) % c2b == 0) == (t * b * (b - a) % c2b == 0)
    assert (l * (k - 1) % c2c == 0) == (g * b * (b - a) % c2c == 0)
    assert g * b * (b - a) == (k - c2b) * (k - 1) // g
    # the halved graphs' least eigenvalues -k/c2B and -l/c2C
    assert (k % c2b == 0) == ((b - a) % c2b == 0)
    assert (l % c2c == 0) == ((b - a) % c2c == 0)


@pytest.mark.parametrize("max_side", [300, 1300, 2000, 3000])
def test_c2b_strides_match_definition(max_side):
    span = max_side - 2
    got = list(_c2b_strides(span))
    want = [row for k in range(3, span) for row in _strides_by_definition(span, k)]
    assert got == want


def test_c2b_strides_match_definition_sampled_at_10000():
    span = 9998
    by_k = {}
    for row in _c2b_strides(span):
        by_k.setdefault(row[0], []).append(row)
    for k in [*range(3, 200), *range(200, span, 37), 9240, 9241, 9972, 9973]:
        assert by_k.get(k, []) == _strides_by_definition(span, k), k


def test_enumeration_pinned_at_2000():
    rows = enumerate_feasible(2000)
    statuses = [r.status for r in rows]
    assert (len(rows), statuses.count("feasible"), statuses.count("flagged"),
            statuses.count("infeasible")) == (91, 80, 5, 6)
    assert hashlib.sha256(rows_to_csv(rows).encode()).hexdigest() == (
        "be06a14218a9d4649dcac188497c4f68da9d5f0c9af0c39ffcaf413bdccd4418")


def test_enumeration_pinned_at_40000():
    # sha256 of the table as the earlier stride-pass enumeration wrote it
    rows = enumerate_feasible(40000)
    statuses = [r.status for r in rows]
    assert (len(rows), statuses.count("feasible"), statuses.count("flagged"),
            statuses.count("infeasible")) == (1017, 967, 17, 33)
    assert hashlib.sha256(rows_to_csv(rows).encode()).hexdigest() == (
        "0cd7f3ac31b4e02e4369591d1a806c94b2976bf2d1deba5d7e27bbb95ce68b36")
    assert hashlib.sha256(rows_to_json(rows).encode()).hexdigest() == (
        "4a46ed8a406af90b7a12d3f6513f1605a7fb3df5bb001de31e505ec07dd7154d")


def test_reference_table_contained_at_1300():
    rows = enumerate_feasible(1300)
    ref = reference_table()
    assert len(ref) == 38
    matched, extras, missing = compare_with_reference(rows, ref)
    assert missing == []
    assert len(matched) == 38
    for r in extras:
        assert r.status in ("feasible", "flagged")  # extras carry no known rejection


def test_gamma_constants_match_brute_force_on_hypercube():
    # the 4-cube is distance-2 homogeneous with constant 1; measure it
    from dbrg.bigraph import BipartiteGraph, distance_partition

    evens = [v for v in range(16) if bin(v).count("1") % 2 == 0]
    odds = [v for v in range(16) if bin(v).count("1") % 2 == 1]
    ei = {v: i for i, v in enumerate(evens)}
    oi = {v: i for i, v in enumerate(odds)}
    g = BipartiteGraph(8, 8, [(ei[v], oi[v ^ (1 << b)]) for v in evens for b in range(4)])
    cube = array4(4, 4, 2, 3, 2, 3)
    _, entries = delta_gamma_check(cube)
    e2 = next(e for e in entries if e.i == 2 and e.orientation == "as-given")
    assert e2.delta == 0 and e2.gamma == 1
    nbrs = [{g.nB + c for b, c in g.edges if b == u} for u in range(g.nB)]
    dist = [{x: d for d, cell in enumerate(distance_partition(g, v).cells) for x in cell}
            for v in range(g.V)]
    seen = set()
    for u in range(8):
        for v in range(8):
            if dist[u][v] != 2:
                continue
            for w in range(g.V):
                if dist[u][w] == 2 and dist[v][w] == 2:
                    seen.add(sum(1 for x in nbrs[u] & nbrs[v] if dist[w][x] == 1))
    assert seen == {1}


def test_catalog_annotate_and_conflict():
    rows = enumerate_feasible(120)
    ref = reference_table()
    annotated = catalog_annotate(rows, ref)
    assert any(a["catalog_status"] == "exists" for a in annotated)
    # inject a conflict: mark an infeasible gamma row as existing
    gam = evaluate(array4(12, 45, 3, 33, 9, 11))
    fake = [{"array": str(gam.array), "status": "exists", "note": ""}]
    with pytest.raises(ValueError):
        catalog_annotate([gam], fake)


def test_csv_columns():
    rows = enumerate_feasible(64)
    text = rows_to_csv(rows)
    assert text.splitlines()[0] == "k,c2B,c3B,l,c2C,c3C,nB,nC,srgB,srgC,status,reasons"
