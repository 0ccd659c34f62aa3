"""Exact arithmetic and linear algebra over small finite fields GF(p^t).

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
iff their echelon bases are identical tuples.  Stacked bases (arrays of
shape (K, m, n)) become :class:`Subspace` values only in :func:`subspaces`.

The arithmetic methods of :class:`FieldContext` take ints or integer
arrays alike, through one pair of exp/log tables and one digit-wise
addition, so the scalar paths (``Subspace.reduce``, ``rref``) and the
stacked kernels share them.  This module is the only one that knows the
vector-id encoding (:func:`vector_ids`: coordinates as one base-q
number, added digit by digit) and the bitset layout; callers work
through :func:`subspace_vector_ids`, :func:`coset_ids`,
:func:`vector_bitsets`, :func:`bitset_contains`, :func:`dot` and
:func:`hyperplane_counts`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "FieldContext",
    "Subspace",
    "field",
    "qbinom",
    "subspace_make",
    "subspace_meet",
    "orthogonal_complement",
    "enumerate_subspaces",
    "subspaces",
    "echelon_bases",
    "vector_ids",
    "subspace_vector_ids",
    "coset_ids",
    "vector_bitsets",
    "bitset_contains",
    "dot",
    "hyperplane_counts",
    "projective_points",
    "enumerate_projective_points",
    "parse_vector",
    "format_vector",
]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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
        if not _is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if t < 1:
            raise ValueError(f"extension degree t={t} must be >= 1")
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
        # discrete-log tables over a multiplicative generator; exp is
        # stored twice over so a product needs no reduction mod q - 1
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
        self._exp = np.array(exp * 2, dtype=np.int32)
        self._log = np.array(log, dtype=np.int32)

    # -- arithmetic: on ints, or elementwise on integer arrays that broadcast

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

    def neg(self, a):
        return self.mul(self.p - 1, a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return np.where((a != 0) & (b != 0), self._exp[self._log[a] + self._log[b]], 0)
        return self._exp.item(self._log.item(a) + self._log.item(b)) if a and b else 0

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self._exp.item(self.q - 1 - self._log.item(a))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self._exp.item(self._log.item(a) * e % (self.q - 1))

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
# Vectors: tuples of field elements.
# ---------------------------------------------------------------------------

def dot(ctx: FieldContext, u, v):
    """Dot product along the last axis, the other axes broadcast:
    ``dot(ctx, u[:, None], v[None])`` is the table of all pairs of rows."""
    u, v = np.moveaxis(np.asarray(u), -1, 0), np.moveaxis(np.asarray(v), -1, 0)
    return reduce(ctx.add, map(ctx.mul, u, v))


def vector_index(ctx: FieldContext, v: Sequence[int]) -> int:
    """Rank of a vector in the lexicographic enumeration of F_q^n."""
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


def parse_vector(ctx: FieldContext, text: str) -> tuple[int, ...]:
    """Parse a comma-separated vector literal; coordinates are base-p digits."""
    coords = []
    for tok in text.strip().split(","):
        tok = tok.strip()
        if not tok:
            raise ValueError(f"empty coordinate in vector literal {text!r}")
        val = int(tok, ctx.p) if ctx.t > 1 else int(tok)
        if not 0 <= val < ctx.q:
            raise ValueError(f"coordinate {tok!r} out of range for {ctx!r}")
        coords.append(val)
    return tuple(coords)


def _digits(val: int, base: int) -> str:
    if val == 0:
        return "0"
    sym = "0123456789abcdef"
    out = []
    while val:
        out.append(sym[val % base])
        val //= base
    return "".join(reversed(out))


def format_vector(ctx: FieldContext, v: Sequence[int]) -> str:
    if ctx.t == 1:
        return ",".join(str(c) for c in v)
    return ",".join(_digits(c, ctx.p) for c in v)


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


@dataclass(frozen=True)
class Subspace:
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


def subspace_meet(u: Subspace, w: Subspace) -> Subspace:
    """Exact intersection, via the Zassenhaus block trick."""
    if u.ctx != w.ctx or u.n != w.n:
        raise ValueError("subspaces live in different ambient spaces")
    ctx, n = u.ctx, u.n
    block = [list(r) + list(r) for r in u.basis] + [list(r) + [0] * n for r in w.basis]
    reduced = rref(ctx, block, 2 * n)
    inter = [row[n:] for row in reduced if all(x == 0 for x in row[:n])]
    return Subspace(ctx, n, rref(ctx, inter, n))


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


def enumerate_subspaces(ctx: FieldContext, n: int, m: int) -> Iterator[Subspace]:
    """All m-dimensional subspaces of F_q^n, deterministic order.

    Order: pivot-column sets lexicographically, then free echelon entries
    lexicographically (last free cell varies fastest).  The stream can be
    restarted at will and always yields qbinom(n, m, q) subspaces.
    """
    for block in echelon_bases(ctx, n, m):
        yield from subspaces(ctx, block)


def subspaces(ctx: FieldContext, bases: np.ndarray) -> Iterator[Subspace]:
    """Canonical echelon bases, shape (K, m, n), as :class:`Subspace` values,
    one at a time (a block can hold q^(m(n-m)) bases); no row is reduced."""
    for rows in bases:
        yield Subspace(ctx, bases.shape[-1], tuple(map(tuple, rows.tolist())))


def echelon_bases(ctx: FieldContext, n: int, m: int) -> Iterator[np.ndarray]:
    """The subspaces of :func:`enumerate_subspaces` as stacked echelon bases.

    Yields one array of shape (count, m, n) per pivot-column set, in the
    same order, so row r of the concatenated blocks is the basis of the
    r-th subspace that :func:`enumerate_subspaces` yields.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got ({n}, {m})")
    q = ctx.q
    dtype = np.int8 if q < 128 else np.int32
    for pivots in itertools.combinations(range(n), m):
        pivot_set = set(pivots)
        cells = [(i, j) for i in range(m) for j in range(pivots[i] + 1, n) if j not in pivot_set]
        # every assignment of the free cells, the last cell varying fastest
        grid = np.indices((q,) * len(cells), dtype=dtype).reshape(len(cells), q ** len(cells))
        block = np.zeros((grid.shape[1], m, n), dtype=dtype)
        block[:, range(m), pivots] = 1
        if cells:
            rows, cols = zip(*cells)
            block[:, rows, cols] = grid.T
        yield block


def vector_ids(ctx: FieldContext, vectors) -> np.ndarray:
    """:func:`vector_index` of each vector along the last axis, stacked.

    The id reads the coordinates as one base-q number, and the base-p
    digits of a coordinate are its polynomial coefficients, so the base-p
    digits of an id are the vector's coordinates over GF(p): vectors add
    as ``ctx.add(id1, id2, n * ctx.t)``.  int32 while q^n fits, else int64.
    """
    vectors = np.asarray(vectors)
    n = vectors.shape[-1]
    dtype = np.int32 if ctx.q**n < 2**31 else np.int64
    return vectors.astype(dtype) @ ctx.q ** np.arange(n - 1, -1, -1, dtype=dtype)


def subspace_vector_ids(ctx: FieldContext, bases: np.ndarray) -> np.ndarray:
    """Sorted :func:`vector_ids` of the nonzero vectors of each subspace.

    ``bases`` has shape (K, m, n) and holds linearly independent rows;
    the result has shape (K, q^m - 1).  Scalar multiples of the rows
    come from the exp/log tables and their sums from ``ctx.add`` on ids;
    all work is exact integers.
    """
    count, m, n = bases.shape
    q = ctx.q
    # ids of c * row for every scalar c, shape (q, count, m)
    scaled = np.stack([vector_ids(ctx, ctx.mul(c, bases)) for c in range(q)])
    # all combinations, the coefficient of the first row varying slowest
    ids = np.zeros((count, 1), dtype=scaled.dtype)
    for i in range(m):
        ids = ctx.add(ids[:, :, None], scaled[:, :, i].T[:, None, :], n * ctx.t).reshape(count, -1)
    return np.sort(ids[:, 1:], axis=1)


def coset_ids(ctx: FieldContext, bases: np.ndarray) -> np.ndarray:
    """Vector ids of every coset of each subspace, shape (K, q^(n-m), q^m).

    Coset j of subspace M is rep_j + M, where rep_j (the ``M.reduce``
    image of the coset) is zero on the pivots of M and has the base-q
    digits of j, in order, on the free coordinates; so j = 0 is M itself.
    Each coset lists rep_j first, then rep_j plus the sorted
    :func:`subspace_vector_ids` of M.
    """
    count, m, n = bases.shape
    q = ctx.q
    ids = np.pad(subspace_vector_ids(ctx, bases), ((0, 0), (1, 0)))  # the zero vector first
    free = np.ones((count, n), dtype=bool)
    free[np.arange(count)[:, None], np.argmax(bases != 0, axis=2)] = False
    reps = np.zeros((count, n, q ** (n - m)), dtype=ids.dtype)
    reps[free] = np.tile(np.indices((q,) * (n - m)).reshape(n - m, q ** (n - m)), (count, 1))
    return ctx.add(vector_ids(ctx, reps.transpose(0, 2, 1))[:, :, None], ids[:, None, :], n * ctx.t)


def vector_bitsets(ids: np.ndarray, size: int) -> np.ndarray:
    """Rows of ``ids`` as uint64 bitsets over ``size`` vector ids.

    Word ``w`` of row ``r`` has bit ``b`` set iff ``64 w + b`` is in
    ``ids[r]``; the ids in a row must be distinct.
    """
    bits = np.zeros((len(ids), -(-size // 64)), dtype=np.uint64)
    rows = np.repeat(np.arange(len(ids)), ids.shape[1])
    flat = ids.ravel()
    np.bitwise_or.at(bits, (rows, flat >> 6), np.uint64(1) << (flat & 63).astype(np.uint64))
    return bits


def bitset_contains(bits: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Whether each row of ``bits`` holds each id, shape (len(bits),) + ids.shape."""
    return ((bits[:, ids >> 6] >> (ids & 63).astype(np.uint64)) & 1).astype(bool)


def hyperplane_counts(ctx: FieldContext, bases: np.ndarray) -> np.ndarray:
    """For each point w of :func:`projective_points`, in its order, how many
    of the subspaces (echelon bases, shape (K, m, n)) lie in the hyperplane
    w-perp, that is, have every basis row orthogonal to w."""
    points = projective_points(ctx, bases.shape[-1])
    return (dot(ctx, points[:, None, None], bases[None]) == 0).all(axis=2).sum(axis=1)


def projective_points(ctx: FieldContext, n: int) -> np.ndarray:
    """Normalized representatives (first nonzero coordinate 1) of the points
    of PG(n-1, q), one per row in lex order: the 1-dim echelon bases."""
    return np.concatenate(list(echelon_bases(ctx, n, 1)))[:, 0]


def enumerate_projective_points(ctx: FieldContext, n: int) -> Iterator[tuple[int, ...]]:
    """The rows of :func:`projective_points` as tuples."""
    return map(tuple, projective_points(ctx, n).tolist())
