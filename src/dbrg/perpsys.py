"""Perp systems: constant-covering families of codimension-k subspaces.

A perp system in F_q^n is a family of s >= 2 subspaces of codimension k
(k <= n/2) such that every nonzero vector lies in exactly 0 or d of the
members (d >= 2, both cases occurring) and any two distinct members meet
in dimension exactly n - 2k.  The member count is then forced:

    s = (d - 1) (q^(n-k) - 1) / (q^(n-2k) - 1) + 1,

d must be a power of the characteristic dividing q^(n-2k), and the
points covered d times form a projective two-intersection set whose
associated graph is strongly regular.

``perp_verify`` measures everything exhaustively and returns either a
:class:`PerpSystem` or a :class:`PerpViolation` naming the offending
vector or member pair.  ``perp_search`` is a deterministic exact-cover
search with multiplicities (Knuth's Algorithm M): it branches on the
partially covered vector with the fewest candidates left.  Both work on
the member vector ids and uint64 bitsets of :mod:`dbrg.gfcore`.

A :class:`PerpSystem` is a :class:`dbrg.geometry.SpaceFamily` plus k, d,
s and a ``dual`` flag for both formulations: ``perp_dualize`` maps a
system to its :func:`dbrg.geometry.dualize` (k-dimensional members
meeting trivially, every hyperplane holding 0 or d of them), and back.
The coset graph, the two-intersection set and the file format are
defined for the primal formulation only; they raise ValueError on a
dual system.

File format (one system per file)::

    q=<p>^<t> modulus=<c0,...,ct> n=<n> k=<k>
    <vector>;<vector>;...       one member per line, coords comma-separated

Members and basis rows are written in canonical echelon order, so
serialization round-trips byte-identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .bigraph import SrgParams, srg_from_spectrum
from .gfcore import (
    FieldContext,
    Subspace,
    echelon_bases,
    format_vector,
    hyperplane_counts,
    index_vector,
    parse_vector,
    projective_points,
    qbinom,
    subspace_make,
    subspace_meet,
    subspace_vector_ids,
    subspaces,
    vector_bitsets,
    vector_ids,
)
from .geometry import SpaceFamily, dualize, field_for_order, point_family

__all__ = [
    "PerpSystem",
    "PerpViolation",
    "ParamCheck",
    "ParamReport",
    "TwoIntersectionSet",
    "SearchOutcome",
    "perp_verify",
    "perp_params",
    "perp_srg_params",
    "two_intersection_set",
    "perp_dualize",
    "perp_search",
    "serialize_perp",
    "parse_perp",
]


@dataclass(frozen=True, kw_only=True)
class PerpSystem(SpaceFamily):
    """A verified perp system (construct through :func:`perp_verify`): a
    :class:`SpaceFamily` plus k, d and s, keyword-only so an order slip fails.

    With ``dual`` set it is the dual formulation (from :func:`perp_dualize`):
    k-dimensional members, pairwise trivial meets, every hyperplane
    containing 0 or d members.
    """

    k: int
    d: int
    s: int
    dual: bool = False

    def require_primal(self, what: str) -> None:
        """ValueError if this is a dual system, for which ``what`` is undefined."""
        if self.dual:
            raise ValueError(f"{what} is defined for the primal formulation only; "
                             "dualize the system back first")


@dataclass(frozen=True)
class PerpViolation:
    kind: str  # mixed_multiplicity | d_too_small | all_covered | pair_meet
    vector: tuple[int, ...] | None = None
    pair: tuple[int, int] | None = None
    detail: str = ""


def _meet_sizes(bits: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Nonzero vectors shared by each bitset in ``bits`` with ``row``."""
    return np.bitwise_count(bits & row).sum(axis=1)


def _first_meeting_pair(bits: np.ndarray, want: int) -> tuple[int, int] | None:
    """First pair (i, j), i < j in lex order, of bitsets not sharing ``want`` ids."""
    for i in range(len(bits) - 1):
        wrong = np.flatnonzero(_meet_sizes(bits[i + 1:], bits[i]) != want)
        if wrong.size:
            return i, i + 1 + int(wrong[0])
    return None


def perp_verify(
    ctx: FieldContext, n: int, k: int, members: Iterable[Subspace]
) -> PerpSystem | PerpViolation:
    """Exhaustive check of the two covering conditions.

    Preconditions raise ValueError: members that do not form a
    :class:`dbrg.geometry.SpaceFamily` in F_q^n, an empty family, k > n/2,
    or members not of dimension n - k.  Failures of the covering or meet
    conditions come back as :class:`PerpViolation` values.
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

    q = ctx.q
    ids = subspace_vector_ids(ctx, family.bases)
    mults = np.bincount(ids.ravel(), minlength=q**n)[1:]
    covered = mults[mults > 0]  # not empty: every member has dimension n - k >= 1
    d, ref = int(covered.min()), int(covered.max())
    if d != ref:
        bad = int(np.flatnonzero((mults > 0) & (mults != ref))[0]) + 1
        return PerpViolation(
            "mixed_multiplicity",
            vector=index_vector(ctx, bad, n),
            detail=f"vector covered {int(mults[bad - 1])} times, elsewhere {ref}",
        )
    if d < 2:
        return PerpViolation("d_too_small", detail="covered vectors have multiplicity 1, need d >= 2")
    if (mults == 0).sum() == 0:
        return PerpViolation("all_covered", detail="no vector with multiplicity 0")
    pair = _first_meeting_pair(vector_bitsets(ids, q**n), q ** (n - 2 * k) - 1)
    if pair is not None:
        i, j = pair
        got = subspace_meet(members[i], members[j]).dim
        return PerpViolation(
            "pair_meet", pair=pair,
            detail=f"members {i},{j} meet in dimension {got}, expected {n - 2 * k}",
        )
    return PerpSystem(ctx, n, members, k=k, d=d, s=len(members))


# ---------------------------------------------------------------------------
# Parameter admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamCheck:
    rule: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class ParamReport:
    n: int
    k: int
    q: int
    d: int
    s: int | None
    checks: tuple[ParamCheck, ...]

    @property
    def admissible(self) -> bool:
        return all(c.ok for c in self.checks)


def perp_params(n: int, k: int, q: int, d: int) -> ParamReport:
    """Forced member count s plus the admissibility rules for (n,k,q,d)."""
    ctx = field_for_order(q)
    p = ctx.p
    checks: list[ParamCheck] = []
    s: int | None = None

    if k < 1 or 2 * k > n:
        checks.append(ParamCheck("range", False, f"need 1 <= k <= n/2, got k={k}, n={n}"))
    elif d < 2:
        checks.append(ParamCheck("range", False, f"need d >= 2, got d={d}"))
    elif n == 2 * k:
        checks.append(
            ParamCheck(
                "range", False,
                "n = 2k is inadmissible for d >= 2: the member-count formula degenerates "
                "and d would have to be a non-positive power of p",
            )
        )
    else:
        checks.append(ParamCheck("range", True, ""))
        num = (d - 1) * (q ** (n - k) - 1)
        den = q ** (n - 2 * k) - 1
        if num % den:
            checks.append(ParamCheck("count", False, f"member count (d-1)(q^(n-k)-1)/(q^(n-2k)-1)+1 is not an integer"))
        else:
            s = num // den + 1
            checks.append(ParamCheck("count", True, f"s = {s}"))
        # d = q^(n-2k) / p^i for a nonnegative integer i
        dd, is_p_power = d, True
        while dd % p == 0:
            dd //= p
        if dd != 1:
            is_p_power = False
        if not is_p_power or d > q ** (n - 2 * k):
            checks.append(
                ParamCheck(
                    "multiplicity", False,
                    f"d={d} must be a power of {p} dividing q^(n-2k)={q ** (n - 2 * k)}",
                )
            )
        else:
            checks.append(ParamCheck("multiplicity", True, ""))
        if d >= q ** max(n - 3 * k, 0) or n <= 4 * k - 1:
            checks.append(ParamCheck("dimension", True, ""))
        else:
            checks.append(
                ParamCheck(
                    "dimension", False,
                    f"need d >= q^(n-3k) = {q ** (n - 3 * k)} or n <= 4k-1 = {4 * k - 1}",
                )
            )
    return ParamReport(n, k, q, d, s, tuple(checks))


def perp_srg_params(n: int, k: int, q: int, d: int, s: int) -> SrgParams:
    """Strongly regular parameters of the distance-two graph on the vectors.

    Its eigenvalues are s(q^(n-k) - 1)/d, (q^(n-k) - s)/d and -s/d, and
    mu = q^(n-2k) s (s-1) / d^2.  ValueError if mu != k + r*s (s
    inconsistent with n, k, q, d), checked first, or if
    :func:`dbrg.bigraph.srg_from_spectrum` rejects the spectrum (the
    parameter set is inadmissible).
    """
    k_h = Fraction(s * (q ** (n - k) - 1), d)
    r_e, s_e = Fraction(q ** (n - k) - s, d), Fraction(-s, d)
    mu = Fraction(q ** (n - 2 * k) * s * (s - 1), d * d)
    if mu != k_h + r_e * s_e:
        raise ValueError(f"SRG identity mu = k + r*s fails: {mu} != {k_h + r_e * s_e}")
    return srg_from_spectrum(q**n, k_h, r_e, s_e)


# ---------------------------------------------------------------------------
# Two-intersection sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoIntersectionSet:
    points: SpaceFamily
    N: int
    K: int
    h1: int
    h2: int
    hyperplanes_h1: int
    hyperplanes_h2: int


def two_intersection_set(system: PerpSystem) -> TwoIntersectionSet:
    """The d-times-covered points, with the hyperplane sizes verified.

    Exhaustively intersects every hyperplane with the point set and
    checks that exactly the two predicted sizes occur, by
    :func:`dbrg.gfcore.hyperplane_counts`.  ValueError means
    ``system`` is dual or not a perp system (a predicted size is not an
    integer, or the measured point set differs); RuntimeError means the
    double count of point-hyperplane incidences failed, which holds by
    construction.
    """
    system.require_primal("the two-intersection set")
    ctx, n, k, d, s = system.ctx, system.n, system.k, system.d, system.s
    q = ctx.q
    points = projective_points(ctx, n)
    ids = subspace_vector_ids(ctx, system.bases)
    mults = np.bincount(ids.ravel(), minlength=q**n)
    reps = points[mults[vector_ids(ctx, points)] == d]
    big_n = Fraction(s, d) * qbinom(n - k, 1, q)
    h1 = Fraction(qbinom(n - k, 1, q) + (s - 1) * qbinom(n - k - 1, 1, q), d)
    h2 = Fraction(s * qbinom(n - k - 1, 1, q), d)
    if big_n.denominator != 1 or h1.denominator != 1 or h2.denominator != 1:
        raise ValueError(f"non-integral point count or hyperplane size: N={big_n}, "
                         f"h1={h1}, h2={h2}")
    big_n, h1, h2 = int(big_n), int(h1), int(h2)
    if len(reps) != big_n:
        raise ValueError(f"covered-point count {len(reps)} != predicted {big_n}")
    counts = hyperplane_counts(ctx, reps[:, None])
    bad = np.flatnonzero((counts != h1) & (counts != h2))
    if bad.size:
        w, cnt = tuple(points[bad[0]].tolist()), int(counts[bad[0]])
        raise ValueError(f"hyperplane {w} meets the point set in {cnt}, expected {h1} or {h2}")
    n1 = int((counts == h1).sum())
    n2 = len(counts) - n1
    if h1 != h2 and (n1 == 0 or n2 == 0):
        raise ValueError("one of the two hyperplane sizes does not occur")
    if big_n * qbinom(n - 1, 1, q) != n1 * h1 + n2 * h2:
        raise RuntimeError("point-hyperplane incidences do not double count")
    return TwoIntersectionSet(point_family(ctx, n, reps.tolist()), big_n, n, h1, h2, n1, n2)


# ---------------------------------------------------------------------------
# Dual formulation
# ---------------------------------------------------------------------------

def perp_dualize(system: PerpSystem) -> PerpSystem:
    """Orthogonal-complement dual; applying it twice returns the original.

    Primal -> dual: k-dimensional members, pairwise trivial meets, every
    hyperplane containing 0 or d members (checked exhaustively).
    Dual -> primal: re-verified through :func:`perp_verify`.
    ValueError means ``system`` fails one of these checks.
    """
    ctx, n, k, d = system.ctx, system.n, system.k, system.d
    duals = tuple(sorted(dualize(system).members, key=lambda m: m.basis))
    if system.dual:
        res = perp_verify(ctx, n, k, duals)
        if isinstance(res, PerpViolation):
            raise ValueError(f"dual of a dual system failed verification: {res}")
        return res
    dual = PerpSystem(ctx, n, duals, k=k, d=d, s=system.s, dual=True)
    pair = _first_meeting_pair(vector_bitsets(subspace_vector_ids(ctx, dual.bases), ctx.q**n), 0)
    if pair is not None:
        raise ValueError(f"dual members {pair[0]},{pair[1]} do not meet trivially")
    counts = hyperplane_counts(ctx, dual.bases)
    bad = np.flatnonzero((counts != 0) & (counts != d))
    if bad.size:
        w, cnt = tuple(projective_points(ctx, n)[bad[0]].tolist()), int(counts[bad[0]])
        raise ValueError(f"hyperplane {w} contains {cnt} dual members, expected 0 or {d}")
    if not ((counts == 0).any() and (counts == d).any()):
        raise ValueError("hyperplane covering must take both values 0 and d")
    return dual


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchOutcome:
    status: str  # found | exhausted | budget
    system: PerpSystem | None
    nodes: int
    elapsed: float  # wall seconds from entry, set-up included
    solutions: int = 0  # populated by count_all runs
    complete: bool = False  # whole space explored (exhausted, or found with count_all)
    setup_seconds: float = 0.0  # candidates, their vector ids and bitsets


@dataclass
class _Node:
    """A partial family in :func:`perp_search`."""

    members: tuple[int, ...]  # candidate indices
    cover: np.ndarray  # per vector id: members containing it
    live: np.ndarray  # per candidate: may still join
    avail: np.ndarray  # per vector id: live candidates containing it


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
    GL-invariant, so this loses no solutions).  This is Algorithm X with
    multiplicities (Knuth, *Dancing Links*; TAOCP 7.2.2.1 Algorithm M):
    every nonzero vector must end up in 0 or d members.  After each
    inclusion the candidates that meet the new member in the wrong size
    or contain a vector now covered d times are killed.  The search
    branches on the partially covered vector with the fewest live
    candidates; sibling i excludes siblings 0..i-1, so ``count_all``
    counts each system once.  A node with no partially covered vector
    has no live candidate: as n > 2k, every candidate shares a vector
    with member 0, and that vector is then covered d times.  A node is
    pruned when some partially covered vector has fewer live candidates
    than it still needs, or needs more than the members left.  The
    search is deterministic.

    A node is one inclusion tried.  ``budget_seconds`` bounds the wall
    time from entry, set-up included.  Returns status ``found`` with a
    system checked by :func:`perp_verify`, ``exhausted`` when the whole
    space was explored (with ``solutions`` counted if ``count_all``), or
    ``budget`` when a cap was hit first.
    """
    t0 = time.monotonic()
    report = perp_params(n, k, q, d)
    if not report.admissible:
        reasons = "; ".join(c.detail for c in report.checks if not c.ok)
        raise ValueError(f"inadmissible parameters: {reasons}")
    s_target = report.s
    ctx = field_for_order(q)
    size = q**n
    want = q ** (n - 2 * k) - 1

    def out_of_time() -> bool:
        return budget_seconds is not None and time.monotonic() - t0 > budget_seconds

    blocks, id_blocks = [], []
    for block in echelon_bases(ctx, n, n - k):
        if out_of_time():
            spent = time.monotonic() - t0
            return SearchOutcome("budget", None, 0, spent, setup_seconds=spent)
        blocks.append(block)
        id_blocks.append(subspace_vector_ids(ctx, block))
    bases, ids = np.concatenate(blocks), np.concatenate(id_blocks)
    del blocks, id_blocks
    bits = vector_bitsets(ids, size)
    # row v - 1: the candidates containing vector v, in index order
    through = (np.argsort(ids.ravel(), kind="stable") // ids.shape[1]).reshape(size - 1, -1)
    setup_seconds = time.monotonic() - t0

    def drop(node: _Node, dead) -> None:
        node.live[dead] = False
        node.avail -= np.bincount(ids[dead].ravel(), minlength=size)

    def join(node: _Node, c: int) -> _Node:
        cover = node.cover.copy()
        cover[ids[c]] += 1
        cand = np.flatnonzero(node.live)
        dead = np.zeros(len(ids), dtype=bool)
        dead[cand[_meet_sizes(bits[cand], bits[c]) != want]] = True  # c itself included
        dead[through[ids[c][cover[ids[c]] == d] - 1]] = True  # vectors now covered d times
        child = _Node(node.members + (c,), cover, node.live.copy(), node.avail.copy())
        drop(child, np.flatnonzero(dead & node.live))
        return child

    def feasible(node: _Node) -> bool:
        part = (node.cover > 0) & (node.cover < d)
        need = d - node.cover[part]
        left = s_target - len(node.members)
        return not need.size or (need.max() <= left and (node.avail[part] >= need).all())

    nodes = solutions = 0
    first: PerpSystem | None = None

    def visit(node: _Node) -> None:
        nonlocal nodes, solutions, first
        if len(node.members) == s_target:
            # feasible, so every vector is covered 0 or d times
            if (node.cover[1:] == 0).any():
                res = perp_verify(ctx, n, k, subspaces(ctx, bases[list(node.members)]))
                if not isinstance(res, PerpSystem):
                    raise RuntimeError(f"search produced a family that fails perp_verify: {res}")
                solutions += 1
                if first is None:
                    first = res
                if not count_all:
                    raise _Found
            return
        part = np.flatnonzero((node.cover > 0) & (node.cover < d))
        if not part.size:  # no live candidate is left (see the docstring)
            return
        row = through[part[np.argmin(node.avail[part])] - 1]
        for c in row[node.live[row]].tolist():
            nodes += 1
            if (budget_nodes is not None and nodes >= budget_nodes) or out_of_time():
                raise _Budget
            child = join(node, c)
            if feasible(child):
                visit(child)
            drop(node, [c])  # later siblings exclude c
            if not feasible(node):
                return

    root = _Node((), np.zeros(size, dtype=np.int64), np.ones(len(ids), dtype=bool),
                 np.bincount(ids.ravel(), minlength=size))
    start = join(root, 0)
    status, complete = "exhausted", True
    try:
        if feasible(start):
            visit(start)
    except _Found:
        complete = False
    except _Budget:
        status, complete = "budget", False
    if first is not None:
        status = "found"
    return SearchOutcome(status, first, nodes, time.monotonic() - t0, solutions, complete,
                         setup_seconds)

# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def serialize_perp(system: PerpSystem) -> str:
    """The file text of a primal system.  ValueError on a dual one: its
    file would not pass :func:`perp_verify` when read back."""
    system.require_primal("the perp file format")
    ctx = system.ctx
    mod = ",".join(str(c) for c in ctx.modulus)
    lines = [f"q={ctx.p}^{ctx.t} modulus={mod} n={system.n} k={system.k}"]
    for m in sorted(system.members, key=lambda m: m.basis):
        lines.append(";".join(format_vector(ctx, row) for row in m.basis))
    return "\n".join(lines) + "\n"


def parse_perp(text: str) -> tuple[FieldContext, int, int, tuple[Subspace, ...]]:
    """Parse a perp-system file into (ctx, n, k, members), unverified."""
    lines = [ln for ln in text.splitlines()]
    if not lines:
        raise ValueError("empty perp file")
    fields = {}
    for tok in lines[0].split():
        key, _, val = tok.partition("=")
        fields[key] = val
    try:
        p_s, _, t_s = fields["q"].partition("^")
        p, t = int(p_s), int(t_s) if t_s else 1
        modulus = tuple(int(c) for c in fields["modulus"].split(","))
        n = int(fields["n"])
        k = int(fields["k"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"line 1: bad header {lines[0]!r}") from exc
    ctx = FieldContext(p, t, modulus)
    members = []
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
        members.append(subspace_make(ctx, n, rows))
    return ctx, n, k, tuple(members)
