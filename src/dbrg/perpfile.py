"""Perp-system records, the exhaustive check and the file format, without numpy.

A perp system in F_q^n is a family of s >= 2 subspaces of codimension k
(k <= n/2) such that every nonzero vector lies in exactly 0 or d of the
members (d >= 2, both cases occurring) and any two distinct members meet
in dimension exactly n - 2k.

``perp_verify`` measures everything exhaustively and returns either a
:class:`PerpSystem` or a :class:`PerpViolation` naming the offending
vector or member pair.  It ANDs hyperplanes into the members' bitsets
(:func:`dbrg.gfint.subspace_bitset`), counts them in bit planes and
meets them pairwise (:func:`meeting_pair`), so ``perp verify`` and the
perp ``roundtrip`` import no numpy.  Search, duals and two-intersection
sets are :mod:`dbrg.perpsys`, which re-exports this module's names.

File format (one system per file)::

    q=<p>^<t> modulus=<c0,...,ct> n=<n> k=<k>
    <vector>;<vector>;...       one member per line, coords comma-separated

The header gives each of its four keys once, and no other key.  Members
and basis rows are written in canonical echelon order, so serialization
round-trips byte-identically.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .gfint import (
    MAX_BITSET_BYTES,
    FieldContext,
    SpaceFamily,
    Subspace,
    format_vector,
    hyperplane_bitsets,
    index_vector,
    parse_vector,
    planes_at,
    planes_count,
    planes_equal,
    planes_max,
    subspace_bitset,
    subspace_make,
)

__all__ = [
    "PerpSystem",
    "PerpViolation",
    "perp_verify",
    "meeting_pair",
    "serialize_perp",
    "parse_perp",
]


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


def meeting_pair(bits: Sequence[int], want: int) -> tuple[int, int] | None:
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
    pair = meeting_pair(bits, q ** (n - 2 * k) - 1)
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

    ValueError if the header does not give each of q, modulus, n and k
    exactly once, in ASCII digits, and nothing else, or naming the first
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
    except ValueError as exc:
        raise ValueError(f"line 1: bad header {lines[0]!r}") from exc
    ctx = FieldContext(p, t, modulus)
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
