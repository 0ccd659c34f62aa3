"""Perp-system verification, parameters, duals, search, and file format."""

import hashlib
import inspect
import itertools
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dbrg.gfcore import echelon_bases, enumerate_subspaces, subspace_vector_ids
from dbrg.gfint import (SpaceFamily, echelon_bitsets, echelon_space, field, field_for_order,
                        hyperplane_bitsets, incidence_planes, orthogonal_complement, qbinom,
                        subspace_make)
from dbrg.geometry import denniston_arc, dualize, hyperoval
from dbrg import perpsys
from dbrg.params import perp_params, perp_srg_params
from dbrg.perpsys import (
    PerpSystem,
    PerpViolation,
    TwoIntersectionSet,
    parse_perp,
    perp_dualize,
    perp_search,
    perp_verify,
    serialize_perp,
    two_intersection_set,
)

from oracles import contains, subspace_meet
from test_gfcore import array_dot


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
    # the 7 lines of a plane of PG(3,2) cover its points 3 times each, and the
    # 15 planes of a solid of PG(4,2) its points 7 times each, but any two
    # lines meet in a point and any two planes in a line; the dimension comes
    # from the shared bit count, and the scalar Zassenhaus meet agrees
    gf2 = field(2)
    plane = subspace_make(gf2, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)])
    solid = subspace_make(gf2, 5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                                   (0, 0, 0, 1, 1)])
    for space, dim, detail in [(plane, 2, "members 0,1 meet in dimension 1, expected 0"),
                               (solid, 3, "members 0,1 meet in dimension 2, expected 1")]:
        members = [s for s in enumerate_subspaces(gf2, space.n, dim)
                   if all(contains(space, r) for r in s.basis)]
        res = perp_verify(gf2, space.n, 2, members)
        assert isinstance(res, PerpViolation)
        assert (res.kind, res.pair, res.detail) == ("pair_meet", (0, 1), detail)
        assert f"dimension {subspace_meet(members[0], members[1]).dim}," in res.detail


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
    assert any(c.name == "multiplicity" and not c.ok for c in rep.checks)
    rep = perp_params(6, 3, 3, 4)  # n = 2k degenerates
    assert not rep.admissible


def test_srg_params_values_and_identities():
    # s = 21, 6 and 10 come from perp_params
    p = perp_srg_params(6, 2, 3, 3)
    assert p.tuple4() == (729, 560, 433, 420)
    assert (p.r, p.s, p.f1, p.f2) == (20, -7, 168, 560)
    p2 = perp_srg_params(3, 1, 4, 2)
    assert p2.tuple4() == (64, 45, 32, 30)
    p3 = perp_srg_params(3, 1, 8, 2)
    assert p3.tuple4() == (512, 315, 202, 180)
    for hp, (n, k, q, d, s) in ((p, (6, 2, 3, 3, 21)), (p2, (3, 1, 4, 2, 6)),
                                (p3, (3, 1, 8, 2, 10))):
        assert hp.lam == hp.mu + hp.r + hp.s
        assert hp.mu == hp.k + hp.r * hp.s == q ** (n - 2 * k) * s * (s - 1) // (d * d)
    with pytest.raises(ValueError, match="^inadmissible parameters: d=2 must be a power of 3"):
        perp_srg_params(6, 2, 3, 2)
    with pytest.raises(ValueError, match="^q=6 is not a prime power$"):
        perp_srg_params(3, 1, 6, 2)


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
    # the way back from a dual family is perp_verify, which reports a broken one
    dual = perp_dualize(good)
    back = perp_verify(dual.ctx, dual.n, good.k,
                       dualize(SpaceFamily(dual.ctx, dual.n, dual.members[:-1])).members)
    assert isinstance(back, PerpViolation) and back.kind == "mixed_multiplicity"


def test_perp_system_is_a_space_family_with_keyword_fields():
    good = dual_hyperoval_system(4)
    assert isinstance(good, SpaceFamily)
    fields = inspect.signature(PerpSystem).parameters
    assert list(fields) == ["ctx", "n", "members", "k", "d", "s"]
    assert {p.kind for p in list(fields.values())[3:]} == {inspect.Parameter.KEYWORD_ONLY}
    with pytest.raises(TypeError):
        PerpSystem(good.ctx, good.n, good.members, good.k, good.d, good.s)


@pytest.mark.parametrize("arc,counts,duals", [
    (lambda: hyperoval(4), (15, 5, 3, 6, 15), 6),
    (lambda: hyperoval(32), (561, 33, 17, 34, 1023), 34),
    (lambda: denniston_arc(32, 4), (825, 33, 25, 100, 957), 100),
], ids=["dual_hyperoval_4", "dual_hyperoval_32", "dual_denniston_32_4"])
def test_two_intersection_set_and_dual_counts(arc, counts, duals):
    fam = dualize(arc())
    system = perp_verify(fam.ctx, 3, 1, fam.members)
    tis = two_intersection_set(system)
    assert (tis.N, tis.h1, tis.h2, tis.hyperplanes_h1, tis.hyperplanes_h2) == counts
    assert len(perp_dualize(system)) == duals


def test_two_intersection_set_q2():
    tis = two_intersection_set(dual_hyperoval_system(2))
    assert tis.N == 6  # 2 * [2]_2
    assert tis.hyperplanes_h1 + tis.hyperplanes_h2 == 7


def test_dualize_involution_and_dual_properties():
    sys2 = dual_hyperoval_system(2)
    dual = perp_dualize(sys2)
    assert type(dual) is SpaceFamily and len(dual) == sys2.s == 4
    assert all(m.dim == 1 for m in dual.members)
    assert list(dual.members) == sorted(dual.members, key=lambda m: m.basis)
    for i in range(len(dual.members)):
        for j in range(i + 1, len(dual.members)):
            assert subspace_meet(dual.members[i], dual.members[j]).dim == 0
    back = perp_verify(dual.ctx, dual.n, sys2.k, dualize(dual).members)
    assert isinstance(back, PerpSystem)
    assert set(back.members) == set(sys2.members) and (back.d, back.s) == (2, 4)


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


# all systems, counted by brute force; (3,1,4,4) is 16 * 21 / 16
ALL_SYSTEMS = {(3, 1, 2, 2): 7, (3, 1, 3, 3): 13, (4, 1, 2, 4): 15, (3, 1, 4, 4): 21}


@pytest.mark.parametrize("n,k,q,d", [(3, 1, 2, 2), (3, 1, 3, 3), (4, 1, 2, 4), (3, 1, 4, 4)])
def test_search_count_matches_brute_force(n, k, q, d):
    # every s-subset of the K candidates, checked by perp_verify: the search
    # counts those through candidate 0, and GL(n, q) is transitive on the
    # candidates, so all systems number solutions * K / s
    ctx = field_for_order(q)
    s = perp_params(n, k, q, d).s
    cands = list(enumerate_subspaces(ctx, n, n - k))
    through_0 = total = 0
    for family in itertools.combinations(cands, s):
        res = perp_verify(ctx, n, k, family)
        found = isinstance(res, PerpSystem) and res.d == d
        total += found
        through_0 += found and family[0] == cands[0]
    out = perp_search(n, k, q, d, count_all=True)
    assert out.complete and out.solutions == through_0
    assert total == out.solutions * len(cands) // s == ALL_SYSTEMS[n, k, q, d]
    assert out.solutions * len(cands) % s == 0


def candidate_tables(n, k, q):
    ctx = field_for_order(q)
    return [bits for block in echelon_bitsets(ctx, n, n - k) for bits in block]


@pytest.mark.parametrize("n,k,q", [(7, 3, 2), (3, 1, 4), (6, 2, 3)])
def test_candidate_tables_match_brute_force(n, k, q):
    # the candidates' bitsets against the stacked kernels: echelon_bases
    # in order, their vector ids, and the ids packed bit by bit
    ctx, size = field_for_order(q), q**n
    bits = candidate_tables(n, k, q)
    bases = np.concatenate(list(echelon_bases(ctx, n, n - k)))
    ids = subspace_vector_ids(ctx, bases)
    assert len(bits) == len(bases) == len(set(bits)) == qbinom(n, n - k, q)
    assert bits == [sum(1 << i for i in row) for row in ids.tolist()]
    # echelon_space decodes a position back to that basis
    assert all(echelon_space(ctx, n, n - k, c).basis == tuple(map(tuple, rows))
               for c, rows in enumerate(bases.tolist()))
    with pytest.raises(IndexError):
        echelon_space(ctx, n, n - k, len(bases))
    # membership table: candidate c holds vector v; bit v of c's set is set iff so
    holds = np.zeros((len(ids), size), dtype=bool)
    holds[np.arange(len(ids))[:, None], ids] = True
    width = size // 8 + 1
    packed = np.frombuffer(b"".join(b.to_bytes(width, "little") for b in bits), np.uint8)
    assert np.array_equal(np.unpackbits(packed.reshape(len(bits), width), axis=1,
                                        bitorder="little")[:, :size], holds)
    per_vector = qbinom(n - 1, n - k - 1, q)
    # every nonzero vector lies in R candidates, the root availability
    assert (holds[:, 0].sum(), set(holds[:, 1:].sum(axis=0).tolist())) == (0, {per_vector})
    planes = incidence_planes(ctx, n, n - k, bits)
    assert [sum((p >> v & 1) << i for i, p in enumerate(planes)) for v in range(size)] == (
        holds.sum(axis=0).tolist())


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_hyperplane_bitsets_match_brute_force(q):
    # every w of F_q^3, zero included, against the dot products of all vectors
    ctx, n = field_for_order(q), 3
    vectors = np.array(list(itertools.product(range(q), repeat=n)))
    hyperplane = hyperplane_bitsets(ctx, n)
    for w in vectors.tolist():
        zero = np.flatnonzero(array_dot(ctx, vectors, w) == 0)
        assert hyperplane(w) == sum(1 << int(v) for v in zero if v)
    with pytest.raises(ValueError):
        hyperplane([1] * (n + 1))


def test_search_7_3_2_2_first_system_pinned():
    # the first join kills 4131 of the 11811 candidates, so the child's
    # live counts are the parent's less the killed; any miscount changes
    # the branching, the node count and the system found
    out = perp_search(7, 3, 2, 2)
    assert (out.status, out.nodes, out.system.d, out.system.s) == ("found", 92, 2, 16)
    assert hashlib.sha256(serialize_perp(out.system).encode()).hexdigest() == (
        "0d0876fd4fd0896e3b800269f9b561926d8b175e73d3cae6daeb1a87b13d2b24")


def test_candidate_tables_refuse_a_missing_block(monkeypatch):
    # without its first pivot block of 4096 subspaces, (7,3,2) has 7715
    # candidates, and some vectors lie in fewer than R = 1395 of them
    def without_first_block(ctx, n, m):
        parts, dropped = echelon_bitsets(ctx, n, m), 0
        while dropped < 4096:  # the block comes in parts, one per value of its first two cells
            dropped += len(next(parts))
        assert dropped == 4096
        return parts

    monkeypatch.setattr(perpsys, "echelon_bitsets", without_first_block)
    with pytest.raises(RuntimeError, match="^7715 candidates, each vector in 883 to 1395 of them; "
                                           "expected 11811 and 1395$"):
        perp_search(7, 3, 2, 2)


def test_search_setup_peak_memory_is_bounded_by_its_tables():
    # the 11811 bitsets of (7,3,2) take 0.59 MB as Python ints in a list;
    # set-up and the first node peak near 1.30 MB of traced memory
    # (Python 3.11), against 1.62 MB for the numpy tables they replace
    table_bytes = sys.getsizeof(bits := candidate_tables(7, 3, 2)) + sum(map(sys.getsizeof, bits))
    perp_search(7, 3, 2, 2, budget_nodes=1)
    tracemalloc.start()
    try:
        out = perp_search(7, 3, 2, 2, budget_nodes=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.status, out.nodes) == ("budget", 1)
    assert peak < 2.5 * table_bytes


def test_search_peak_memory_after_set_up_stays_below_the_set_up_peak(monkeypatch):
    # after set-up, a join holds one node's planes and its live list: for
    # (6,2,3,3) set-up peaks near 2.19 MB of traced memory and the root join
    # and first node near 2.04 MB (Python 3.11); the numpy tables peaked
    # at 5.81 MB in set-up
    tables, peaks = perpsys.incidence_planes, []

    def traced(*args):
        out = tables(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(perpsys, "incidence_planes", traced)
    perp_search(6, 2, 3, 3, budget_nodes=1)
    peaks.clear()
    tracemalloc.start()
    try:
        out = perp_search(6, 2, 3, 3, budget_nodes=1)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert (out.status, out.nodes) == ("budget", 1)
    set_up, search = peaks
    assert search <= set_up < 3e6


def test_search_refuses_tables_beyond_a_gibibyte():
    # (3,1,128,2): 16513 candidates over 2^21 vectors, about 8.6 GB of
    # bitsets; refused before any set-up, as the CLI's "too large"
    with pytest.raises(MemoryError, match="^16513 candidate bitsets over 2097152 vectors"):
        perp_search(3, 1, 128, 2, budget_seconds=5)


def test_search_time_budget_covers_setup():
    out = perp_search(6, 2, 3, 3, budget_seconds=0.5)
    assert out.status == "budget" and not out.complete
    assert 0 < out.setup_seconds <= out.elapsed
    assert abs(out.elapsed - 0.5) < 1.0


def test_search_zero_time_budget_stops_in_setup():
    out = perp_search(7, 3, 2, 2, budget_seconds=0)
    assert (out.status, out.nodes, out.system, out.complete) == ("budget", 0, None, False)
    assert out.setup_seconds == out.elapsed


def test_search_setup_stops_once_the_clock_passes_the_budget(monkeypatch):
    # a clock that reads 0 up to its ticks-th reading and 10 after, against
    # a budget of 1 s, for every ticks >= 1 (the start reads 0) until the
    # search finds its system:
    # once the clock has read 10, no set-up stage starts (a part of the
    # candidates or the incidence planes), and the search reads it at most
    # twice more, for the elapsed time and the set-up seconds or the check
    # that follows them; so the root join stops at the candidate it reads at
    reads = ticks = 0
    stages = []

    def clock():
        nonlocal reads
        reads += 1
        return 0.0 if reads <= ticks else 10.0

    def parts(ctx, n, m):
        inner = echelon_bitsets(ctx, n, m)
        while True:
            stages.append(("part", reads > ticks))
            part = next(inner, None)
            if part is None:
                return
            yield part

    def planes(*args):
        stages.append(("incidence", reads > ticks))
        return incidence_planes(*args)

    monkeypatch.setattr(perpsys.time, "monotonic", clock)
    monkeypatch.setattr(perpsys, "echelon_bitsets", parts)
    monkeypatch.setattr(perpsys, "incidence_planes", planes)
    stopped_in = []
    for ticks in itertools.count(1):
        reads, stages = 0, []
        out = perp_search(3, 1, 4, 2, budget_seconds=1.0)
        assert not any(late for _, late in stages), ticks
        if out.status != "budget":
            break
        assert (out.elapsed, out.system, out.complete) == (10.0, None, False)
        assert reads - ticks <= 3
        stopped_in.append((len(stages), out.nodes))
    # (3,1,4): a reading after each of 21 parts; the incidence planes, then
    # readings for the set-up seconds and after them; one at each of the 21
    # candidates of the root join; then one at each of the 5 nodes
    assert out.status == "found" and out.nodes == 5
    assert stopped_in == ([(i + 1, 0) for i in range(21)] + [(23, 0)] * 23
                          + [(23, i) for i in range(1, 6)])


@pytest.mark.parametrize("budget,name", [
    ({"budget_seconds": float("nan")}, "budget_seconds"),
    ({"budget_seconds": float("inf")}, "budget_seconds"),
    ({"budget_seconds": -1.0}, "budget_seconds"),
    ({"budget_nodes": -5}, "budget_nodes"),
])
def test_search_rejects_budgets_that_do_not_bound_it(budget, name):
    # a NaN or infinite time budget never runs out; a negative budget is
    # not a budget.  Both are refused before any set-up work.
    with pytest.raises(ValueError, match=f"^{name} must be"):
        perp_search(6, 2, 3, 3, **budget)


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
    ctx, n, k, d, s = system.ctx, system.n, system.k, system.d, system.s
    q = ctx.q
    reps = [w for w in lex_points(ctx, n) if sum(contains(m, w) for m in system.members) == d]
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
    ctx, n, d = system.ctx, system.n, system.d
    duals = tuple(sorted((orthogonal_complement(m) for m in system.members),
                         key=lambda m: m.basis))
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
    return SpaceFamily(ctx, n, duals)


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
    """A verified system, or a broken one: members dropped, replaced or
    added, d or s changed, or a random family of hyperplanes whose s, where
    possible, makes the covered-point count come out right (so the
    hyperplane sizes are what is tested)."""
    kind = draw(st.sampled_from(["known", "mutated", "random"]))
    if kind == "random":
        q = draw(st.sampled_from([2, 3, 4]))
        ctx = field_for_order(q)
        n = draw(st.integers(3, 4))
        cands = list(enumerate_subspaces(ctx, n, n - 1))
        members = draw(st.lists(st.sampled_from(cands), min_size=1, max_size=8, unique=True))
        d = draw(st.integers(1, 4))
        covered = sum(1 for w in lex_points(ctx, n)
                      if sum(contains(m, w) for m in members) == d)
        s, rem = divmod(covered * d, qbinom(n - 1, 1, q))
        return PerpSystem(ctx, n, tuple(members), k=1, d=d,
                          s=s if s and not rem else len(members))
    base = draw(st.sampled_from(KNOWN))
    if kind == "known":
        return base
    members, d, s = list(base.members), base.d, base.s
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
            d = draw(st.integers(1, 2 * d))
        else:
            s = draw(st.integers(2, 2 * s))
    return PerpSystem(base.ctx, base.n, tuple(members), k=base.k, d=d, s=s)


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
