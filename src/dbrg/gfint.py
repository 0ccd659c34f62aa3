"""Finite fields GF(p^t), vectors and canonical subspaces in plain Python ints.

Field elements are represented as plain ints in ``0..q-1``.  The base-p
digits of the integer are the coefficients of the canonical residue
polynomial: digit ``i`` is the coefficient of ``x^i``.  For prime fields
this is the usual residue ``0..p-1``.

A :class:`FieldContext` fixes the modulus (a monic irreducible polynomial
of degree ``t`` over GF(p)) and provides all arithmetic through lookup
tables, so every operation is exact integer work -- no floating point.

The default modulus for ``field(p, t)`` is the irreducible monic
polynomial of degree ``t`` whose integer encoding ``c_0 + c_1 p + ... +
p^t`` is least.  This makes element encodings reproducible across runs
without external polynomial tables.

Subspaces of ``F_q^n`` are kept in reduced row-echelon form, which gives
each subspace a unique, hashable representation: two subspaces are equal
iff their echelon bases are identical tuples.  A :class:`SpaceFamily` is
a duplicate-free family of them.

This module imports no numpy: the exp/log tables are Python lists, and
``mul``, ``neg``, ``inv`` and ``pow`` take ints.  ``add`` uses only
integer operators, so it also applies elementwise to integer arrays; the
array product, and everything on stacked bases, is :mod:`dbrg.gfcore`,
which reads the same tables.  A vector's id is its
:func:`vector_index`, the coordinates read as one base-q number, so ids
add digit by digit (``ctx.add(id1, id2, n * ctx.t)``); :func:`span_ids`
lists the ids of a subspace and :func:`id_bitset` packs ids into one
Python int.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .params import prime_power

__all__ = [
    "FieldContext",
    "Subspace",
    "SpaceFamily",
    "field",
    "qbinom",
    "rref",
    "subspace_make",
    "orthogonal_complement",
    "vector_index",
    "index_vector",
    "span_ids",
    "id_bitset",
    "parse_vector",
    "format_vector",
]


# ---------------------------------------------------------------------------
# Polynomials over GF(p), little-endian coefficient tuples.  Only used to
# bootstrap the field tables; everything downstream goes through the tables.
# ---------------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)

def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        _poly_trim(a)
    return a


def _int_to_poly(v: int, p: int) -> list[int]:
    out = []
    while v:
        out.append(v % p)
        v //= p
    return out


def _poly_to_int(a: Sequence[int], p: int) -> int:
    v = 0
    for c in reversed(a):
        v = v * p + c
    return v


def _is_irreducible(m: Sequence[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg(m)/2."""
    t = len(m) - 1
    if t < 1 or m[-1] != 1:
        return False
    if t == 1:
        return True
    for deg in range(1, t // 2 + 1):
        for lower in range(p**deg):
            div = _int_to_poly(lower, p) + [0] * (deg - len(_int_to_poly(lower, p))) + [1]
            if not _poly_mod(m, div, p):
                return False
    return True


class FieldContext:
    """Arithmetic context for GF(p^t) with a fixed irreducible modulus.

    All values are immutable after construction and every operation is
    pure, so a context can be shared freely.
    """

    def __init__(self, p: int, t: int, modulus: Sequence[int] | None = None):
        if t < 1:
            raise ValueError(f"extension degree t={t} must be >= 1")
        if p > 2**16 or t > 16:  # before the trial division and p**t
            raise ValueError(f"field order q={p}^{t} exceeds supported bound 2^16")
        if prime_power(p) != (p, 1):
            raise ValueError(f"p={p} is not prime")
        q = p**t
        if q > 2**16:
            raise ValueError(f"field order q={q} exceeds supported bound 2^16")
        self.p = p
        self.t = t
        self.q = q
        if modulus is None:
            modulus = self._least_irreducible(p, t)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != t + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree t")
        if not _is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.modulus = modulus
        self._build_tables()

    @staticmethod
    def _least_irreducible(p: int, t: int) -> tuple[int, ...]:
        for lower in range(p**t):
            cand = _int_to_poly(lower, p)
            cand = cand + [0] * (t - len(cand)) + [1]
            if _is_irreducible(cand, p):
                return tuple(cand)
        raise RuntimeError("no irreducible polynomial found")  # unreachable

    def _raw_mul(self, a: int, b: int) -> int:
        pa = _int_to_poly(a, self.p)
        pb = _int_to_poly(b, self.p)
        return _poly_to_int(_poly_mod(_poly_mul(pa, pb, self.p), self.modulus, self.p), self.p)

    def _build_tables(self) -> None:
        # discrete-log tables over a multiplicative generator; exp is stored
        # twice over, then zeros, and log 0 = 2(q - 1): a product is
        # exp[log a + log b], with no reduction mod q - 1 and no test for 0
        q = self.q
        exp = [1] * max(q - 1, 1)
        log = [0] * q
        candidates = range(2, q) if q > 2 else range(1, 2)
        for g in candidates:
            val, order = 1, 0
            while True:
                order += 1
                val = self._raw_mul(val, g)
                if val == 1:
                    break
            if order == q - 1:
                val = 1
                for i in range(q - 1):
                    exp[i] = val
                    log[val] = i
                    val = self._raw_mul(val, g)
                self.generator = g
                break
        log[0] = 2 * (q - 1)
        self._exp = exp * 2 + [0] * (2 * (q - 1) + 1)
        self._log = log

    # -- arithmetic on ints; add also elementwise on integer arrays

    def add(self, a, b, digits: int | None = None):
        """a + b, digit by digit mod p over ``digits`` base-p digits: t for
        field elements (the default), n t for vector ids.  XOR when p = 2."""
        p = self.p
        if p == 2:
            return a ^ b
        out, place = 0, 1
        for _ in range(self.t if digits is None else digits):
            out = out + (a // place + b // place) % p * place
            place *= p
        return out

    def neg(self, a: int) -> int:
        return self.mul(self.p - 1, a)

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self._exp[self._log[a] * e % (self.q - 1)]

    def elements(self) -> range:
        return range(self.q)

    def nonzero(self) -> range:
        return range(1, self.q)

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldContext)
            and (self.p, self.t, self.modulus) == (other.p, other.t, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.t, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field(p: int, t: int = 1) -> FieldContext:
    """Shared context for GF(p^t) with the canonical (least) modulus."""
    return FieldContext(p, t)


def qbinom(n: int, m: int, q: int) -> int:
    """Number of m-dimensional subspaces of F_q^n (Gaussian binomial).

    ValueError unless 0 <= m <= n; RuntimeError if the quotient is not
    an integer, which cannot happen for q >= 2.
    """
    if not 0 <= m <= n:
        raise ValueError(f"qbinom requires 0 <= m <= n, got ({n}, {m})")
    num, den = 1, 1
    for i in range(m):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    quot, rem = divmod(num, den)
    if rem:
        raise RuntimeError(f"Gaussian binomial [{n} choose {m}]_{q} is not an integer")
    return quot


# ---------------------------------------------------------------------------
# Vectors: tuples of field elements, and their ids.
# ---------------------------------------------------------------------------

def vector_index(ctx: FieldContext, v: Sequence[int]) -> int:
    """Rank of a vector in the lexicographic enumeration of F_q^n: its id."""
    idx = 0
    for c in v:
        idx = idx * ctx.q + c
    return idx


def index_vector(ctx: FieldContext, idx: int, n: int) -> tuple[int, ...]:
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = idx % ctx.q
        idx //= ctx.q
    return tuple(out)


def span_ids(ctx: FieldContext, basis: Sequence[Sequence[int]]) -> list[int]:
    """Sorted ids of the nonzero vectors spanned by linearly independent rows.

    The scalar form of :func:`dbrg.gfcore.subspace_vector_ids`: the ids
    of c * row for every scalar c come from the tables, and the spans
    from the digit-wise addition of ids."""
    ids = [0]
    for row in basis:
        digits = len(row) * ctx.t
        scaled = [vector_index(ctx, [ctx.mul(c, x) for x in row]) for c in ctx.elements()]
        ids = [ctx.add(a, b, digits) for a in ids for b in scaled]
    return sorted(ids[1:])


def id_bitset(ids: Sequence[int]) -> int:
    """Distinct ids as one Python int, bit i set iff i is in ``ids``."""
    buf = bytearray(max(ids, default=-1) // 8 + 1)
    for i in ids:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


_DIGITS = "0123456789abcdef"


def _digit_form(ctx: FieldContext) -> tuple[str, int]:
    """The digits and base of coordinates as vector literals write them."""
    if ctx.t == 1:
        return "0123456789", 10
    if ctx.p > len(_DIGITS):
        raise ValueError(f"coordinates of {ctx!r} have no vector literal: their base-{ctx.p} "
                         f"digits exceed the digits {_DIGITS!r}")
    return _DIGITS[:ctx.p], ctx.p


def parse_vector(ctx: FieldContext, text: str) -> tuple[int, ...]:
    """Parse a comma-separated vector literal: coordinates are ASCII decimal
    digits over a prime field, else base-p digits 0-9a-f, as
    :func:`format_vector` writes.  ValueError on a malformed literal, or
    naming the field when t > 1 and p > 16."""
    digits, base = _digit_form(ctx)
    coords = []
    for tok in text.strip().split(","):
        tok = tok.strip()
        if not tok:
            raise ValueError(f"empty coordinate in vector literal {text!r}")
        if tok.strip(digits):
            raise ValueError(f"coordinate {tok!r} is not written in the digits {digits!r}")
        val = int(tok, base)
        if not 0 <= val < ctx.q:
            raise ValueError(f"coordinate {tok!r} out of range for {ctx!r}")
        coords.append(val)
    return tuple(coords)


def _digits(val: int, base: int) -> str:
    if val == 0:
        return "0"
    out = []
    while val:
        out.append(_DIGITS[val % base])
        val //= base
    return "".join(reversed(out))


def format_vector(ctx: FieldContext, v: Sequence[int]) -> str:
    """The literal :func:`parse_vector` reads; ValueError naming the field
    when t > 1 and p > 16."""
    _, base = _digit_form(ctx)
    if ctx.t == 1:
        return ",".join(str(c) for c in v)
    return ",".join(_digits(c, base) for c in v)


# ---------------------------------------------------------------------------
# Subspaces in canonical echelon form
# ---------------------------------------------------------------------------

def rref(ctx: FieldContext, rows: Sequence[Sequence[int]], n: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row-echelon form; returns the nonzero rows."""
    work = [list(r) for r in rows]
    for r in work:
        if len(r) != n:
            raise ValueError(f"vector of length {len(r)} in ambient dimension {n}")
    pivots: list[int] = []
    rank = 0
    for col in range(n):
        sel = None
        for i in range(rank, len(work)):
            if work[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        inv = ctx.inv(work[rank][col])
        work[rank] = [ctx.mul(inv, x) for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                c = ctx.neg(work[i][col])
                work[i] = [ctx.add(x, ctx.mul(c, y)) for x, y in zip(work[i], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return tuple(tuple(r) for r in work[:rank])


class Subspace(NamedTuple):
    """A subspace of F_q^n in canonical reduced row-echelon form.

    Equality and hashing go through the echelon basis, so subspaces can be
    used as set members and dict keys.
    """

    ctx: FieldContext
    n: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(i for i, x in enumerate(row) if x != 0) for row in self.basis)

    def reduce(self, v: Sequence[int]) -> tuple[int, ...]:
        """Canonical coset representative of v modulo this subspace."""
        ctx, w = self.ctx, list(v)
        for row, piv in zip(self.basis, self.pivots):
            if w[piv]:
                c = ctx.neg(w[piv])
                for j in range(piv, self.n):
                    w[j] = ctx.add(w[j], ctx.mul(c, row[j]))
        return tuple(w)

    def contains(self, v: Sequence[int]) -> bool:
        return all(x == 0 for x in self.reduce(v))

    def vectors(self) -> Iterator[tuple[int, ...]]:
        """All q^dim vectors of the subspace, deterministic order."""
        ctx = self.ctx
        for coeffs in itertools.product(ctx.elements(), repeat=self.dim):
            v = (0,) * self.n
            for c, row in zip(coeffs, self.basis):
                if c:
                    v = tuple(ctx.add(a, ctx.mul(c, b)) for a, b in zip(v, row))
            yield v

    def __repr__(self) -> str:
        rows = "; ".join(",".join(map(str, r)) for r in self.basis)
        return f"Subspace(n={self.n}, dim={self.dim}, [{rows}])"


def subspace_make(ctx: FieldContext, n: int, vectors: Sequence[Sequence[int]]) -> Subspace:
    """Canonical subspace spanned by the given vectors (may be empty)."""
    return Subspace(ctx, n, rref(ctx, vectors, n))


def orthogonal_complement(s: Subspace) -> Subspace:
    """Perp under the standard dot bilinear form."""
    ctx, n = s.ctx, s.n
    if s.dim == 0:
        return subspace_make(ctx, n, [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)])
    # nullspace of the basis matrix from its RREF
    pivots = set(s.pivots)
    free = [j for j in range(n) if j not in pivots]
    out = []
    for j in free:
        v = [0] * n
        v[j] = 1
        for row, piv in zip(s.basis, s.pivots):
            v[piv] = ctx.neg(row[j])
        out.append(v)
    return subspace_make(ctx, n, out)


class SpaceFamily:
    """A duplicate-free family of equal-dimensional subspaces of one F_q^n:
    read-only ``ctx``, ``n`` and ``members``, a tuple of :class:`Subspace`.
    Families of one class are equal when their fields are.  The kernels of
    :mod:`dbrg.gfcore` read the members' bases as ``stack_bases(family)``."""

    __slots__ = ("ctx", "n", "members")

    def __init__(self, ctx: FieldContext, n: int, members: tuple[Subspace, ...]):
        if members:
            d = members[0].dim
            if any(m.dim != d or m.n != n or m.ctx != ctx for m in members):
                raise ValueError("SpaceFamily members must share field, space and dimension")
        if len(set(members)) != len(members):
            raise ValueError("duplicate members in SpaceFamily")
        self.__setstate__((None, {"ctx": ctx, "n": n, "members": members}))

    def __setstate__(self, state) -> None:
        # (None, slot values): as __init__ fills the slots and copy and pickle restore them
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *_):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for cls in reversed(type(self).__mro__)
                     for name in vars(cls).get("__slots__", ()))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._values() == self._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __len__(self) -> int:
        return len(self.members)
