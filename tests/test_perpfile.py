"""The numpy-free field and perp-file layers.

Every violation kind of ``perp_verify`` is pinned on a crafted file, and
its verdicts agree with a point-by-point reference, in characteristic 2
over GF(4), GF(8) and GF(16) too.  The subspace bitsets of
:mod:`dbrg.gfint` (ANDs of hyperplanes) agree with the vector ids of the
stacked kernel of :mod:`dbrg.gfcore`.  ``perp verify`` and ``roundtrip``
of a perp file load no numpy, and a file whose bitsets would not fit is
refused at once.
"""

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dbrg
from dbrg import geometry, gfcore, gfint, perpsys
from dbrg.geometry import dualize, hyperoval
from dbrg.gfint import (field, format_vector, hyperplane_bitsets, index_vector,
                        orthogonal_complement, parse_vector, point_vectors, subspace_bitset,
                        subspace_make)
from dbrg.perpsys import PerpSystem, PerpViolation, parse_perp, perp_verify

from oracles import contains, subspace_meet
from test_gfcore import pack_ids

# one crafted file per violation: (file text, kind, vector, pair, detail)
VIOLATIONS = {
    "single_member": (
        "q=2^1 modulus=0,1 n=3 k=1\n0,1,0;0,0,1\n",
        "d_too_small", None, None, "family has a single member (s >= 2 required)"),
    # two complementary planes of F_2^4: every covered vector once
    "multiplicity_one": (
        "q=2^1 modulus=0,1 n=4 k=2\n0,0,1,0;0,0,0,1\n1,0,0,0;0,1,0,0\n",
        "d_too_small", None, None, "covered vectors have multiplicity 1, need d >= 2"),
    # the dual hyperoval of PG(2,4) with its last line swapped for another
    "mixed_multiplicity_q4": (
        "q=2^2 modulus=1,1,1 n=3 k=1\n1,0,0;0,1,0\n1,0,0;0,0,1\n0,1,0;0,0,1\n1,0,1;0,1,1\n"
        "1,0,10;0,1,11\n1,0,0;0,1,1\n",
        "mixed_multiplicity", (0, 0, 1), None, "vector covered 2 times, elsewhere 3"),
    # three lines of PG(2,9) through one point
    "mixed_multiplicity_q9": (
        "q=3^2 modulus=1,0,1 n=3 k=1\n1,0,0;0,1,0\n1,0,11;0,1,1\n1,0,22;0,1,2\n",
        "mixed_multiplicity", (0, 1, 0), None, "vector covered 1 times, elsewhere 3"),
    # the 7 planes of F_2^3 cover every nonzero vector 3 times
    "all_covered": (
        "q=2^1 modulus=0,1 n=3 k=1\n0,1,0;0,0,1\n1,0,0;0,0,1\n1,0,0;0,1,0\n1,0,0;0,1,1\n"
        "1,0,1;0,1,0\n1,0,1;0,1,1\n1,1,0;0,0,1\n",
        "all_covered", None, None, "no vector with multiplicity 0"),
    # the two reguli of the quadric x0 x1 + x2 x3 of PG(3,2): its 9 points
    # twice each; lines of one regulus are disjoint, so the first pair that
    # meets is a line of the first and the first line of the second
    "pair_meet_reguli": (
        "q=2^1 modulus=0,1 n=4 k=2\n1,0,0,1;0,1,1,0\n1,0,0,0;0,0,1,0\n0,1,0,0;0,0,0,1\n"
        "1,0,1,0;0,1,0,1\n1,0,0,0;0,0,0,1\n0,1,0,0;0,0,1,0\n",
        "pair_meet", None, (0, 3), "members 0,3 meet in dimension 1, expected 0"),
    # the 13 lines of a plane of PG(3,3): the dimension is a base-3 log
    "pair_meet_q3": (
        "q=3^1 modulus=0,1 n=4 k=2\n0,1,0,2;0,0,1,1\n1,0,0,1;0,0,1,1\n1,0,0,1;0,1,0,2\n"
        "1,0,0,1;0,1,1,0\n1,0,0,1;0,1,2,1\n1,0,1,2;0,1,0,2\n1,0,1,2;0,1,1,0\n"
        "1,0,1,2;0,1,2,1\n1,0,2,0;0,1,0,2\n1,0,2,0;0,1,1,0\n1,0,2,0;0,1,2,1\n"
        "1,1,0,0;0,0,1,1\n1,2,0,2;0,0,1,1\n",
        "pair_meet", None, (0, 1), "members 0,1 meet in dimension 1, expected 0"),
}


@pytest.mark.parametrize("name", sorted(VIOLATIONS))
def test_each_violation_kind_is_pinned(name):
    text, kind, vector, pair, detail = VIOLATIONS[name]
    res = perp_verify(*parse_perp(text))
    assert res == PerpViolation(kind, vector, pair, detail)
    assert not isinstance(res, PerpSystem)


def test_moved_names_are_one_object_each():
    # the field layer's names live in gfint alone: gfcore's public names are
    # its own kernels, and index_vector, which it still imports, is gfint's
    assert all(getattr(gfcore, name).__module__ == "dbrg.gfcore" for name in gfcore.__all__)
    assert gfcore.index_vector is gfint.index_vector
    assert geometry.SpaceFamily is gfint.SpaceFamily


def test_fields_without_a_vector_literal_are_named():
    # GF(17^2): base-17 coordinate digits run past the digits 0-9a-f
    gf = field(17, 2)
    with pytest.raises(ValueError, match=r"GF\(289\)"):
        format_vector(gf, [16])
    with pytest.raises(ValueError, match=r"GF\(289\)"):
        parse_vector(gf, "1,0")
    # prime fields write decimal coordinates, whatever p is
    assert parse_vector(field(17), "16,0") == (16, 0) and format_vector(field(17), [16]) == "16"


def test_perp_file_over_a_field_without_a_vector_literal_exits_65(tmp_path, capsys):
    from dbrg.cli import main

    path = tmp_path / "gf289.perp"
    path.write_text("q=17^2 modulus=3,0,1 n=3 k=1\n0,1,0;0,0,1\n")
    assert main(["perp", "verify", str(path)]) == 65
    assert capsys.readouterr().err.startswith("invalid input: line 2: coordinates of GF(289)")


def verify_reference(ctx, n, k, members):
    """Vector by vector in lex order by ``contains``, pair by pair by the
    Zassenhaus meet; the same checks in the same order."""
    q = ctx.q
    if len(members) < 2:
        return PerpViolation("d_too_small", detail="family has a single member (s >= 2 required)")
    vectors = [index_vector(ctx, i, n) for i in range(1, q**n)]
    mults = [sum(contains(m, v) for m in members) for v in vectors]
    covered = [c for c in mults if c]
    d, ref = min(covered), max(covered)
    if d != ref:
        c, v = next((c, v) for c, v in zip(mults, vectors) if c and c != ref)
        return PerpViolation("mixed_multiplicity", vector=v,
                             detail=f"vector covered {c} times, elsewhere {ref}")
    if d < 2:
        return PerpViolation("d_too_small", detail="covered vectors have multiplicity 1, need d >= 2")
    if all(mults):
        return PerpViolation("all_covered", detail="no vector with multiplicity 0")
    for i, j in itertools.combinations(range(len(members)), 2):
        dim = subspace_meet(members[i], members[j]).dim
        if dim != n - 2 * k:
            return PerpViolation("pair_meet", pair=(i, j),
                                 detail=f"members {i},{j} meet in dimension {dim}, "
                                        f"expected {n - 2 * k}")
    return PerpSystem(ctx, n, tuple(members), k=k, d=d, s=len(members))


KNOWN = [perpsys.perp_search(*params).system
         for params in ((3, 1, 2, 2), (3, 1, 3, 3), (3, 1, 4, 2), (4, 1, 2, 4))]
KNOWN += [perp_verify(fam.ctx, 3, 1, fam.members)
          for fam in (dualize(hyperoval(8)), dualize(geometry.denniston_arc(8, 4)))]


@st.composite
def bitset_cases(draw):
    """A field of order 2 to 16 and a few subspaces of F_q^n: random ones
    of one dimension from 0 to n (n is the whole space), or the
    k-dimensional duals that ``perp_dualize`` builds of a known system."""
    if draw(st.booleans()):
        dual = perpsys.perp_dualize(draw(st.sampled_from(KNOWN)))
        return dual.ctx, dual.n, dual.members[0].dim, dual.members
    p, t = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4)]))
    gf = field(p, t)
    n = draw(st.integers(1, 4 if gf.q <= 5 else 3))
    m, count = draw(st.integers(0, n)), draw(st.integers(1, 4))
    spaces = []
    while len(spaces) < count:
        rows = draw(st.lists(st.lists(st.integers(0, gf.q - 1), min_size=n, max_size=n),
                             min_size=m, max_size=m))
        space = subspace_make(gf, n, rows)
        if space.dim == m:
            spaces.append(space)
    return gf, n, m, spaces


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bitset_cases())
def test_subspace_bitsets_match_the_stacked_kernels(case):
    # the one path from a subspace to its bitset, against the vector ids
    # of gfcore.subspace_vector_ids, packed into ints
    gf, n, m, spaces = case
    bases = np.array([s.basis for s in spaces], dtype=np.int64).reshape(len(spaces), m, n)
    ids = gfcore.subspace_vector_ids(gf, bases).tolist()
    hyperplane = hyperplane_bitsets(gf, n)
    assert [subspace_bitset(hyperplane, s) for s in spaces] == [pack_ids(row) for row in ids]


@st.composite
def perp_like_files(draw):
    """A verified system with members dropped, replaced or added and in any
    order; codimension-2 members of F_2^4 or F_2^5 drawn at random; or all
    codimension-2 subspaces of a larger subspace, which cover it evenly but
    meet in too much (or cover every vector), in any order."""
    kind = draw(st.sampled_from(["known", "random", "subspaces"]))
    if kind == "random":
        ctx, n, k = field(2), draw(st.integers(4, 5)), 2
        cands = list(gfcore.enumerate_subspaces(ctx, n, n - k))
        return ctx, n, k, draw(st.lists(st.sampled_from(cands), min_size=1, max_size=12,
                                        unique=True))
    if kind == "subspaces":
        q, n = draw(st.sampled_from([(2, 4), (2, 5), (3, 4)]))
        ctx, k = field(q), 2
        room = draw(st.sampled_from(list(gfcore.enumerate_subspaces(ctx, n, draw(
            st.integers(n - k + 1, n))))))
        members = [m for m in gfcore.enumerate_subspaces(ctx, n, n - k)
                   if all(contains(room, r) for r in m.basis)]
        return ctx, n, k, draw(st.permutations(members))
    base = draw(st.sampled_from(KNOWN))
    members = list(draw(st.permutations(base.members)))
    others = [m for m in gfcore.enumerate_subspaces(base.ctx, base.n, base.n - base.k)
              if m not in members]
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["drop", "replace", "add"]))
        if op == "drop" and len(members) > 1:
            members.pop(draw(st.integers(0, len(members) - 1)))
        elif op in ("replace", "add") and others:
            m = others.pop(draw(st.integers(0, len(others) - 1)))
            if op == "replace":
                members[draw(st.integers(0, len(members) - 1))] = m
            else:
                members.insert(draw(st.integers(0, len(members))), m)
    return base.ctx, base.n, base.k, members


@settings(max_examples=200, deadline=None, derandomize=True)
@given(perp_like_files())
def test_verify_matches_the_point_by_point_reference(case):
    ctx, n, k, members = case
    assert perp_verify(ctx, n, k, members) == verify_reference(ctx, n, k, members)


def char_two_family(q, case):
    """A family over GF(q), q = 2^t, named by the verdict it gets: the dual
    hyperoval of PG(2, q), a perp system; it with its last line swapped
    for another, or cut to one member; three points of PG(1, q), each
    covered once; every line of PG(2, q); or the dual hyperoval lifted to
    lines of the plane x3 = 0 of PG(3, q), which meet pairwise."""
    ctx = field(2, q.bit_length() - 1)
    oval = list(dualize(hyperoval(q)).members)
    lines = [orthogonal_complement(subspace_make(ctx, 3, [w])) for w in point_vectors(ctx, 3)]
    return {
        "system": lambda: (ctx, 3, 1, oval),
        "mixed_multiplicity": lambda: (
            ctx, 3, 1, oval[:-1] + [next(line for line in lines if line not in oval)]),
        "d_too_small-single": lambda: (ctx, 3, 1, oval[:1]),
        "d_too_small-once": lambda: (
            ctx, 2, 1, [subspace_make(ctx, 2, [v]) for v in ((1, 0), (0, 1), (1, 1))]),
        "all_covered": lambda: (ctx, 3, 1, lines),
        "pair_meet": lambda: (
            ctx, 4, 2, [subspace_make(ctx, 4, [row + (0,) for row in m.basis]) for m in oval]),
    }[case]()


# at q = 16 the reference's pass over the 273 lines, or over F_16^4, takes seconds
@pytest.mark.parametrize("q,case", [
    (q, case) for q in (4, 8, 16)
    for case in ("system", "mixed_multiplicity", "d_too_small-single", "d_too_small-once",
                 "all_covered", "pair_meet")
    if q < 16 or case not in ("all_covered", "pair_meet")])
def test_verify_matches_the_reference_in_characteristic_two(q, case):
    # kind, vector, pair and detail all agree, and each family gets the verdict it is named for
    ctx, n, k, members = char_two_family(q, case)
    got = perp_verify(ctx, n, k, members)
    assert got == verify_reference(ctx, n, k, members)
    assert getattr(got, "kind", "system") == case.partition("-")[0]


def test_perp_file_too_large_for_its_bitsets_exits_65_at_once(tmp_path, capsys):
    from dbrg.cli import main

    # three planes of F_1024^3: 2^30-bit member sets, about 1.2 GB with their hyperplanes
    path = tmp_path / "gf1024.perp"
    path.write_text("q=2^10 modulus=1,0,0,1,0,0,0,0,0,0,1 n=3 k=1\n"
                    "0,1,0;0,0,1\n1,0,0;0,0,1\n1,0,0;0,1,0\n")
    t0 = time.monotonic()
    assert main(["perp", "verify", str(path)]) == 65
    assert time.monotonic() - t0 < 1
    assert capsys.readouterr().err == (
        "invalid input: too large: 3 member bitsets over 1073741824 vectors, with their "
        "hyperplanes, need about 1207959552 bytes\n")


def test_perp_file_commands_load_no_numpy(tmp_path):
    # perp verify and the perp roundtrip run on gfint, perpsys and params
    fixture = Path(dbrg.__file__).resolve().parents[2] / "bench" / "data" / "dual_hyperoval_q8.perp"
    code = ("import contextlib, io, sys\n"
            "from dbrg.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    codes = [main(['perp', 'verify', {str(fixture)!r}]),\n"
            f"             main(['roundtrip', {str(fixture)!r}])]\n"
            "print(codes, '\"identical\": true' in out.getvalue(), 'numpy' in sys.modules,\n"
            "      sorted(m for m in sys.modules if m.startswith('dbrg')))\n")
    src = str(Path(dbrg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout.strip()
    assert out == ("[0, 0] True False "
                   "['dbrg', 'dbrg.cli', 'dbrg.gfint', 'dbrg.params', 'dbrg.perpsys']")

