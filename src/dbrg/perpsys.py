"""Perp systems: constant-covering families of codimension-k subspaces.

A perp system in F_q^n is a family of s >= 2 subspaces of codimension k
(k <= n/2) such that every nonzero vector lies in exactly 0 or d of the
members (d >= 2, both cases occurring) and any two distinct members meet
in dimension exactly n - 2k.  The member count is then forced:

    s = (d - 1) (q^(n-k) - 1) / (q^(n-2k) - 1) + 1,

d must be a power of the characteristic dividing q^(n-2k), and the
points covered d times form a projective two-intersection set whose
associated graph is strongly regular.  The member count and the
admissibility rules are :func:`dbrg.params.perp_params`.

``perp_verify`` measures everything exhaustively and returns either a
:class:`PerpSystem` or a :class:`PerpViolation` naming the offending
vector or member pair.  It ANDs hyperplanes into the members' bitsets
(:func:`dbrg.gfint.subspace_bitset`), counts them in bit planes and
meets them pairwise.  A :class:`PerpSystem` is a
:class:`dbrg.gfint.SpaceFamily` plus k, d and s, always in the primal
formulation that :func:`perp_verify` checked; the coset graph, the
two-intersection set and the file format read it.  ``perp_dualize``
checks the dual formulation (k-dimensional members meeting trivially,
every hyperplane holding 0 or d of them), with the meet routine of
``perp_verify``, and returns it as a plain
:class:`dbrg.gfint.SpaceFamily`; the way back is
``perp_verify(ctx, n, k, dualize(family).members)``.  It and
``two_intersection_set`` count incidences with no hyperplane's bitset,
by :func:`dbrg.gfint.hyperplane_counts`.

``perp_search`` is a deterministic exact-cover search with
multiplicities (Knuth's Algorithm M): it branches on the partially
covered vector with the fewest candidates left.  Its candidates and
members are Python ints over the q^n vector ids, each the AND of the
hyperplanes over a basis of its orthogonal complement
(:func:`dbrg.gfint.echelon_bitsets`, :func:`dbrg.gfint.subspace_bitset`),
and a bitset is its subspace's canonical key.  The counts per vector
(how many members and how many live candidates hold it) are bit planes.

Like the modules it imports, this one imports no numpy, so
``perp verify``, ``roundtrip`` and ``perp search`` run without it.

File format (one system per file)::

    q=<p>^<t> modulus=<c0,...,ct> n=<n> k=<k>
    <vector>;<vector>;...       one member per line, coords comma-separated

The header gives each of its four keys once, and no other key.  Members
and basis rows are written in canonical echelon order, so serialization
round-trips byte-identically.
"""

from __future__ import annotations

import math
import time
from typing import Iterable, NamedTuple, Sequence

from .gfint import (
    MAX_BITSET_BYTES,
    FieldContext,
    SpaceFamily,
    Subspace,
    echelon_bitsets,
    echelon_space,
    field_for_order,
    format_vector,
    hyperplane_bitsets,
    hyperplane_counts,
    incidence_planes,
    index_vector,
    orthogonal_complement,
    parse_vector,
    planes_add,
    planes_at,
    planes_count,
    planes_equal,
    planes_less,
    planes_max,
    planes_min,
    planes_sub,
    point_vectors,
    qbinom,
    subspace_bitset,
    subspace_make,
)
from .params import perp_params

__all__ = [
    "PerpSystem",
    "PerpViolation",
    "TwoIntersectionSet",
    "SearchOutcome",
    "perp_verify",
    "two_intersection_set",
    "perp_dualize",
    "perp_search",
    "serialize_perp",
    "parse_perp",
]


# ---------------------------------------------------------------------------
# Records and the exhaustive check
# ---------------------------------------------------------------------------

class PerpSystem(SpaceFamily):
    """A verified perp system (construct through :func:`perp_verify`): a
    :class:`SpaceFamily` plus read-only k, d, s, keyword-only so an order slip fails."""

    __slots__ = ("k", "d", "s")

    def __init__(self, ctx: FieldContext, n: int, members: tuple[Subspace, ...], *,
                 k: int, d: int, s: int):
        super().__init__(ctx, n, members)
        self.__setstate__((None, {"k": k, "d": d, "s": s}))


class PerpViolation(NamedTuple):
    kind: str  # mixed_multiplicity | d_too_small | all_covered | pair_meet
    vector: tuple[int, ...] | None = None
    pair: tuple[int, int] | None = None
    detail: str = ""


def _meeting_pair(bits: Sequence[int], want: int) -> tuple[int, int] | None:
    """First pair (i, j), i < j in lex order, of Python-int bitsets
    (:func:`dbrg.gfint.subspace_bitset`) not sharing ``want`` ids."""
    for i, row in enumerate(bits):
        for j in range(i + 1, len(bits)):
            if (row & bits[j]).bit_count() != want:
                return i, j
    return None


def perp_verify(
    ctx: FieldContext, n: int, k: int, members: Iterable[Subspace]
) -> PerpSystem | PerpViolation:
    """Exhaustive check of the two covering conditions.

    Preconditions raise ValueError: members that do not form a
    :class:`dbrg.gfint.SpaceFamily` in F_q^n, an empty family, k > n/2,
    or members not of dimension n - k.  Failures of the covering or meet
    conditions come back as :class:`PerpViolation` values: the first
    vector id of another multiplicity than the largest, or the first
    member pair in lex order that meets in another dimension.
    """
    family = SpaceFamily(ctx, n, tuple(members))
    members = family.members
    if not members:
        raise ValueError("empty family")
    if 2 * k > n or k < 1:
        raise ValueError(f"need 1 <= k <= n/2, got k={k}, n={n}")
    if members[0].dim != n - k:
        raise ValueError(f"member of dimension {members[0].dim}, expected {n - k}")
    if len(members) < 2:
        return PerpViolation("d_too_small", detail="family has a single member (s >= 2 required)")

    q, s = ctx.q, len(members)
    # the members' bitsets, and at most 2 q^n bits of hyperplane memo per dual basis vector
    need = s * (2 * k + 1) * q**n // 8
    if need > MAX_BITSET_BYTES:
        raise MemoryError(f"{s} member bitsets over {q**n} vectors, with their hyperplanes, "
                          f"need about {need} bytes")
    hyperplane = hyperplane_bitsets(ctx, n)
    bits = [subspace_bitset(hyperplane, m) for m in members]
    mults = planes_count(bits)
    nonzero = (1 << q**n) - 2
    covered = nonzero & ~planes_equal(mults, 0, nonzero)  # not empty: members have dim >= 1
    most = planes_max(mults, covered)
    d = planes_at(mults, most)  # the largest multiplicity
    if most != covered:
        bad = covered & ~most  # its lowest vector is the first of another multiplicity
        return PerpViolation(
            "mixed_multiplicity",
            vector=index_vector(ctx, (bad & -bad).bit_length() - 1, n),
            detail=f"vector covered {planes_at(mults, bad)} times, elsewhere {d}",
        )
    if d < 2:
        return PerpViolation("d_too_small", detail="covered vectors have multiplicity 1, need d >= 2")
    if covered == nonzero:
        return PerpViolation("all_covered", detail="no vector with multiplicity 0")
    pair = _meeting_pair(bits, q ** (n - 2 * k) - 1)
    if pair is not None:
        i, j = pair
        # the meet is a subspace: the members share q^dim - 1 nonzero vectors
        shared, got = (bits[i] & bits[j]).bit_count() + 1, 0
        while shared > 1:
            shared //= q
            got += 1
        return PerpViolation(
            "pair_meet", pair=pair,
            detail=f"members {i},{j} meet in dimension {got}, expected {n - 2 * k}",
        )
    return PerpSystem(ctx, n, members, k=k, d=d, s=s)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def serialize_perp(system: PerpSystem) -> str:
    """The file text of a system, which :func:`parse_perp` reads back
    (ValueError from :func:`dbrg.gfint.format_vector` for fields with no
    vector literal)."""
    ctx = system.ctx
    mod = ",".join(str(c) for c in ctx.modulus)
    lines = [f"q={ctx.p}^{ctx.t} modulus={mod} n={system.n} k={system.k}"]
    for m in sorted(system.members, key=lambda m: m.basis):
        lines.append(";".join(format_vector(ctx, row) for row in m.basis))
    return "\n".join(lines) + "\n"


def parse_perp(text: str) -> tuple[FieldContext, int, int, tuple[Subspace, ...]]:
    """Parse a perp-system file into (ctx, n, k, members), unverified.

    ValueError with line 1 and the reason if the header does not give each
    of q, modulus, n and k exactly once, in ASCII digits, and nothing else,
    or gives a field :class:`FieldContext` refuses; or naming the first
    member line with a bad vector (see :func:`dbrg.gfint.parse_vector`),
    linearly dependent rows, another dimension than the first member's or
    an earlier line's member."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty perp file")
    tokens = [tok.partition("=") for tok in lines[0].split()]
    fields = {key: val for key, _, val in tokens}
    try:
        if len(fields) != len(tokens) or fields.keys() != {"q", "modulus", "n", "k"}:
            raise ValueError("a key is repeated, unknown or missing")
        p_s, _, t_s = fields["q"].partition("^")
        numbers = [p_s, t_s or "1", fields["n"], fields["k"], *fields["modulus"].split(",")]
        if not all(x.isascii() and x.isdigit() for x in numbers):
            raise ValueError("a number is not ASCII digits")
        p, t, n, k, *modulus = map(int, numbers)
        ctx = FieldContext(p, t, modulus)
    except ValueError as exc:
        raise ValueError(f"line 1: bad header {lines[0]!r}: {exc}") from exc
    members: dict[Subspace, int] = {}  # member -> its line
    for no, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        try:
            rows = [parse_vector(ctx, part) for part in line.split(";")]
        except ValueError as exc:
            raise ValueError(f"line {no}: {exc}") from exc
        if any(len(r) != n for r in rows):
            raise ValueError(f"line {no}: vector of wrong length")
        member = subspace_make(ctx, n, rows)
        if member.dim < len(rows):
            raise ValueError(f"line {no}: linearly dependent rows span dimension {member.dim}")
        if member.dim != (first := next(iter(members), member)).dim:
            raise ValueError(f"line {no}: dimension {member.dim}, not {first.dim} as on line {members[first]}")
        if member in members:
            raise ValueError(f"line {no}: repeats the member on line {members[member]}")
        members[member] = no
    return ctx, n, k, tuple(members)


# ---------------------------------------------------------------------------
# Two-intersection sets
# ---------------------------------------------------------------------------

class TwoIntersectionSet(NamedTuple):
    points: SpaceFamily
    N: int
    K: int
    h1: int
    h2: int
    hyperplanes_h1: int
    hyperplanes_h2: int


def two_intersection_set(system: PerpSystem) -> TwoIntersectionSet:
    """The d-times-covered points, with the hyperplane sizes verified.

    Counts by :func:`dbrg.gfint.hyperplane_counts`: over the members'
    complements they are the points' multiplicities (v lies in M iff
    M-perp lies in v-perp), over the covered points the hyperplanes'
    sizes.  ValueError means ``system`` is not a perp system (a predicted
    size is not an integer, or the measured point set differs);
    RuntimeError means the double count of point-hyperplane incidences
    failed, which holds by construction.
    """
    ctx, n, k, d, s = system.ctx, system.n, system.k, system.d, system.s
    q, points = ctx.q, point_vectors(ctx, n)
    mults = hyperplane_counts(map(orthogonal_complement, system.members))
    reps = [w for w in points if mults[w] == d]
    # d N, d h1 and d h2
    sizes = (s * qbinom(n - k, 1, q), qbinom(n - k, 1, q) + (s - 1) * qbinom(n - k - 1, 1, q),
             s * qbinom(n - k - 1, 1, q))
    (big_n, r0), (h1, r1), (h2, r2) = (divmod(x, d) for x in sizes)
    if r0 or r1 or r2:
        big_n, h1, h2 = (_ratio(x, d) for x in sizes)
        raise ValueError(f"non-integral point count or hyperplane size: N={big_n}, "
                         f"h1={h1}, h2={h2}")
    if len(reps) != big_n:
        raise ValueError(f"covered-point count {len(reps)} != predicted {big_n}")
    point_set = tuple(subspace_make(ctx, n, [w]) for w in sorted(reps))  # in lex order
    met, n1 = hyperplane_counts(point_set), 0
    for w in points:
        if met[w] not in (h1, h2):
            raise ValueError(f"hyperplane {w} meets the point set in {met[w]}, "
                             f"expected {h1} or {h2}")
        n1 += met[w] == h1
    n2 = len(points) - n1
    if h1 != h2 and (n1 == 0 or n2 == 0):
        raise ValueError("one of the two hyperplane sizes does not occur")
    if big_n * qbinom(n - 1, 1, q) != n1 * h1 + n2 * h2:
        raise RuntimeError("point-hyperplane incidences do not double count")
    return TwoIntersectionSet(SpaceFamily(ctx, n, point_set), big_n, n, h1, h2, n1, n2)


def _ratio(num: int, den: int) -> str:
    """num/den in lowest terms, as ``Fraction`` prints it."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


# ---------------------------------------------------------------------------
# Dual formulation
# ---------------------------------------------------------------------------

def perp_dualize(system: PerpSystem) -> SpaceFamily:
    """The dual formulation: the members' orthogonal complements, sorted
    by basis.

    They are k-dimensional, meet pairwise trivially, and every hyperplane
    contains 0 or d of them (counted by :func:`dbrg.gfint.hyperplane_counts`);
    ValueError means ``system`` fails one of these checks.  The way back is
    ``perp_verify(ctx, n, k, dualize(family).members)``.
    """
    ctx, n, d = system.ctx, system.n, system.d
    dual = SpaceFamily(ctx, n, tuple(sorted(map(orthogonal_complement, system.members),
                                            key=lambda m: m.basis)))
    hyperplane = hyperplane_bitsets(ctx, n)
    pair = _meeting_pair([subspace_bitset(hyperplane, m) for m in dual.members], 0)
    if pair is not None:
        raise ValueError(f"dual members {pair[0]},{pair[1]} do not meet trivially")
    counts, seen = hyperplane_counts(dual.members), set()
    for w in point_vectors(ctx, n):
        if counts[w] not in (0, d):
            raise ValueError(f"hyperplane {w} contains {counts[w]} dual members, expected 0 or {d}")
        seen.add(counts[w])
    if seen != {0, d}:
        raise ValueError("hyperplane covering must take both values 0 and d")
    return dual


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

class SearchOutcome(NamedTuple):
    status: str  # found | exhausted | budget
    system: PerpSystem | None
    nodes: int
    elapsed: float  # wall seconds from entry, set-up included
    # count_all runs: the systems through candidate 0; all systems number
    # solutions * K / s (GL(n, q) is transitive on the K candidates)
    solutions: int = 0
    complete: bool = False  # whole space explored (exhausted, or found with count_all)
    # wall seconds to build the candidates' bitsets and count them per vector
    setup_seconds: float = 0.0


class _Budget(Exception):
    pass


class _Found(Exception):
    pass


def perp_search(
    n: int,
    k: int,
    q: int,
    d: int,
    *,
    budget_nodes: int | None = None,
    budget_seconds: float | None = None,
    count_all: bool = False,
) -> SearchOutcome:
    """Deterministic exact-cover search for a perp system.

    Candidates are the codimension-k subspaces in enumeration order, and
    the first member is pinned to candidate 0 (the conditions are
    GL-invariant, so this loses no system up to GL(n, q)).  This is Algorithm X with
    multiplicities (Knuth, *Dancing Links*; TAOCP 7.2.2.1 Algorithm M):
    every nonzero vector must end up in 0 or d members.  After each
    inclusion the candidates that meet the new member in the wrong size
    or contain a vector now covered d times are killed.  The search
    branches on the partially covered vector with the fewest live
    candidates, the lowest id among ties; sibling i excludes siblings
    0..i-1, so ``count_all`` counts each system through candidate 0 once.
    GL(n, q) is transitive on the K candidates, so each lies in equally
    many systems, and the number of all systems is ``solutions * K / s``.
    A node with no partially covered vector
    has no live candidate: as n > 2k, every candidate shares a vector
    with member 0, and that vector is then covered d times.  A node is
    pruned when some partially covered vector has fewer live candidates
    than it still needs, or needs more than the members left.  The
    search is deterministic.

    Set-up builds the K = [n, n-k]_q candidates' bitsets with
    :func:`dbrg.gfint.echelon_bitsets`, one Python int each over the q^n
    vector ids, and counts them per vector in bit planes
    (:func:`dbrg.gfint.incidence_planes`): RuntimeError if there are not
    K of them or some vector does not lie in exactly R = [n-1, n-k-1]_q.
    A node holds its members, the bit planes of how many members cover
    each vector, its live candidates as a list of indices, and the bit
    planes of how many live candidates hold each vector.  Joining c
    keeps the live y with ``(bits[y] & bits[c]).bit_count()`` equal to
    q^(n-2k) - 1 that hold no vector c has just filled to d covers; the
    child's live counts are those of the kept candidates, or the node's
    less those of the killed, whichever set is smaller to count.  No
    step holds more than the candidates' bitsets and one node's planes
    per depth.  MemoryError, before any set-up, if the bitsets would
    take more than 1 GiB.

    A node is one inclusion tried.  ``budget_seconds`` bounds the wall
    time from entry, set-up included: it is checked after each part of
    the candidates that :func:`dbrg.gfint.echelon_bitsets` yields, after
    the incidence planes, at each candidate of the root join and at each
    node.  Returns status ``found`` with a system checked by
    :func:`perp_verify`, ``exhausted`` when the whole space was explored
    (with ``solutions`` counted if ``count_all``), or ``budget`` when a
    cap was hit first.  ValueError if ``budget_nodes`` is negative or
    ``budget_seconds`` is negative, infinite or NaN.
    """
    t0 = time.monotonic()
    if budget_nodes is not None and budget_nodes < 0:
        raise ValueError(f"budget_nodes must be non-negative, got {budget_nodes}")
    if budget_seconds is not None and not 0 <= budget_seconds < math.inf:
        raise ValueError(f"budget_seconds must be finite and non-negative, got {budget_seconds}")
    s_target = perp_params(n, k, q, d).forced_s()
    ctx = field_for_order(q)
    want = q ** (n - 2 * k) - 1
    # the candidates' bitsets, and the q^(n-1) suffixes of q sets each of q^(n-1) bits
    # that the hyperplane recursion keeps
    table_bytes = (qbinom(n, n - k, q) * q**n + q ** (2 * n - 1)) // 8
    if table_bytes > MAX_BITSET_BYTES:
        raise MemoryError(f"{qbinom(n, n - k, q)} candidate bitsets over {q**n} vectors "
                          f"need about {table_bytes} bytes")

    def out_of_time() -> bool:
        return budget_seconds is not None and time.monotonic() - t0 > budget_seconds

    def timed(items):  # each item as it comes, while there is time
        for item in items:
            if out_of_time():
                raise _Budget
            yield item

    setup_seconds = None

    def join(members, cover, live, avail, c):
        new = bits[c]
        cover = cover.copy()
        planes_add(cover, new)
        full = planes_equal(cover, d, new)  # vectors now covered d times
        keep, dead = [], []
        for y in live:  # c itself meets c in too much and leaves
            held = bits[y]
            if held & full or (held & new).bit_count() != want:
                dead.append(held)
            else:
                keep.append(y)
        if len(dead) < len(keep):  # count the smaller side
            avail = avail.copy()
            planes_sub(avail, planes_count(dead))
        else:
            avail = planes_count([bits[y] for y in keep])
        return members + (c,), cover, keep, avail

    def feasible(members, cover, _live, avail) -> bool:
        left, covered = s_target - len(members), 0
        for plane in cover:
            covered |= plane
        for have in range(1, d):  # the partially covered vectors, by cover
            part = planes_equal(cover, have, covered)
            if part and (d - have > left or planes_less(avail, d - have, part)):
                return False
        return True

    nodes = solutions = 0
    first: PerpSystem | None = None

    def visit(members, cover, live, avail) -> None:
        nonlocal nodes, solutions, first
        covered = 0
        for plane in cover:
            covered |= plane
        if len(members) == s_target:
            # feasible, so every vector is covered 0 or d times
            if covered.bit_count() < q**n - 1:
                res = perp_verify(ctx, n, k, [echelon_space(ctx, n, n - k, c) for c in members])
                if not isinstance(res, PerpSystem):
                    raise RuntimeError(f"search produced a family that fails perp_verify: {res}")
                solutions += 1
                if first is None:
                    first = res
                if not count_all:
                    raise _Found
            return
        part = covered & ~planes_equal(cover, d, covered)
        if not part:  # no live candidate is left (see the docstring)
            return
        fewest = planes_min(avail, part)
        v = fewest & -fewest  # the lowest of them
        for c in [y for y in live if bits[y] & v]:
            nodes += 1
            if (budget_nodes is not None and nodes >= budget_nodes) or out_of_time():
                raise _Budget
            child = join(members, cover, live, avail, c)
            if feasible(*child):
                visit(*child)
            live.remove(c)  # later siblings exclude c
            planes_sub(avail, [bits[c]])
            if not feasible(members, cover, live, avail):
                return

    status, complete = "exhausted", True
    try:
        bits = [b for part in timed(echelon_bitsets(ctx, n, n - k)) for b in part]
        avail = incidence_planes(ctx, n, n - k, bits)
        setup_seconds = time.monotonic() - t0
        if out_of_time():
            raise _Budget
        start = join((), [], timed(range(len(bits))), avail, 0)
        if feasible(*start):
            visit(*start)
    except _Found:
        complete = False
    except _Budget:
        status, complete = "budget", False
    if first is not None:
        status = "found"
    elapsed = time.monotonic() - t0
    return SearchOutcome(status, first, nodes, elapsed, solutions, complete,
                         elapsed if setup_seconds is None else setup_seconds)
