"""Finite fields GF(p^t), vectors and canonical subspaces in plain Python ints.

Digit ``i`` of an int v in base b is ``v // b**i % b``, and digits are
listed least significant first.  Field elements are plain ints in
``0..q-1`` whose base-p digits are the coefficients of the canonical
residue polynomial: digit ``i`` is the coefficient of ``x^i`` (for prime
fields, the usual residue ``0..p-1``).  A vector's id is the int whose
base-q digits are its coordinates, the last coordinate as digit 0: its
lexicographic rank (see :func:`index_vector`).  So the base-p digits of
an id are the vector's coordinates over GF(p).

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
a duplicate-free family of them.  Echelon order lists subspaces by
pivot-column set, then by the free entries of the basis read row by
row (the last fastest), both lexicographically.

This module imports no numpy: the exp/log tables are Python lists, and
``mul``, ``neg`` and ``inv`` take ints.  ``add`` uses only
integer operators, so it also applies elementwise to integer arrays; the
array product, and everything on stacked bases, is :mod:`dbrg.gfcore`,
which reads the same tables.  The points of PG(n-1, q) are the
normalized vectors of :func:`point_vectors`; :func:`hyperplane_counts`
counts the subspaces of a family in each hyperplane w-perp.

A set of vectors is a bitset: one Python int, bit i set iff the vector
with id i is in the set.  A subspace's set is the AND of the
hyperplanes w-perp (:func:`hyperplane_bitsets`) over a basis of its
orthogonal complement: :func:`subspace_bitset` for one subspace,
:func:`echelon_bitsets` for every m-dimensional one in echelon order
(:func:`echelon_space` decodes a position back to its
:class:`Subspace`).  The set determines the subspace, so it is a
canonical key.  Callers refuse inputs whose sets would pass
:data:`MAX_BITSET_BYTES`.  Counts per vector are bit planes, a list
whose entry i is the bitset of the vectors whose count has bit i set:
:func:`planes_count` counts a list of sets, :func:`planes_add` adds one
set and :func:`planes_sub` takes counts out, :func:`planes_equal`,
:func:`planes_less`, :func:`planes_min` and :func:`planes_max` select
vectors by their counts, :func:`planes_at` reads one count, and
:func:`incidence_planes` counts a family and checks it is every
m-dimensional subspace once.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
    "index_vector",
    "field_for_order",
    "point_vectors",
    "hyperplane_counts",
    "hyperplane_bitsets",
    "subspace_bitset",
    "MAX_BITSET_BYTES",
    "echelon_bitsets",
    "echelon_space",
    "incidence_planes",
    "planes_add",
    "planes_sub",
    "planes_count",
    "planes_equal",
    "planes_less",
    "planes_min",
    "planes_max",
    "planes_at",
    "parse_vector",
    "format_vector",
]


# ---------------------------------------------------------------------------
# Digits, as the module docstring defines them, and polynomials over GF(p) as
# lists of coefficients.  Polynomials only bootstrap the field tables;
# everything downstream goes through the tables.
# ---------------------------------------------------------------------------

def _base_digits(v: int, base: int, count: int) -> list[int]:
    """The first ``count`` base-``base`` digits of v, least significant first."""
    out = []
    for _ in range(count):
        out.append(v % base)
        v //= base
    return out


def _remainder(a: Sequence[int], m: Sequence[int], p: int) -> int:
    """a modulo the monic m over GF(p), as the int whose base-p digits are its
    deg(m) coefficients; a has at least as many."""
    t, a = len(m) - 1, list(a)
    for top in range(len(a) - 1, t - 1, -1):
        lead = a[top] % p
        if lead:
            for i in range(t):
                a[top - t + i] -= lead * m[i]
    out = 0
    for c in reversed(a[:t]):
        out = out * p + c % p
    return out


def _is_irreducible(m: Sequence[int], p: int) -> bool:
    """Trial division of the monic m by every monic of degree 1..deg(m)/2."""
    for deg in range(1, (len(m) - 1) // 2 + 1):
        for low in range(p**deg):
            if not _remainder(m, _base_digits(low, p, deg) + [1], p):
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
        if t > 16:  # before p**t; prime_power bounds p before its trial division
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
            for low in range(p**t):
                modulus = _base_digits(low, p, t) + [1]
                if _is_irreducible(modulus, p):
                    break
        modulus = tuple(map(int, modulus))
        if any(not 0 <= c < p for c in modulus):
            raise ValueError(f"modulus {modulus} has a coefficient outside 0..{p - 1}")
        if len(modulus) != t + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree t")
        if not _is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.modulus = modulus
        self._build_tables()

    def _raw_mul(self, a: int, b: int) -> int:
        """a b as the schoolbook product of its polynomials, then its remainder."""
        p, t = self.p, self.t
        prod, xs = [0] * (2 * t - 1), _base_digits(a, p, t)
        for j, y in enumerate(_base_digits(b, p, t)):
            if y:
                for i, x in enumerate(xs):
                    prod[i + j] += x * y
        return _remainder(prod, self.modulus, p)

    def _build_tables(self) -> None:
        # discrete-log tables over the first g of 2, 3, ... (1 in GF(2)) whose
        # walk of powers, kept as it goes, reaches all q - 1 units.  exp is
        # stored twice over, then zeros, and log 0 = 2(q - 1): a product is
        # exp[log a + log b], with no reduction mod q - 1 and no test for 0
        q = self.q
        for g in range(2, q) if q > 2 else (1,):
            exp, val = [1], g
            while val != 1:
                exp.append(val)
                val = self._raw_mul(val, g)
            if len(exp) == q - 1:
                break
        else:
            raise RuntimeError(f"no generator of the units of GF({q})")
        log = [2 * (q - 1)] + [0] * (q - 1)
        for i, val in enumerate(exp):
            log[val] = i
        self.generator = g
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


@functools.lru_cache(maxsize=None)
def field(p: int, t: int = 1) -> FieldContext:
    """Shared context for GF(p^t) with the canonical (least) modulus."""
    return FieldContext(p, t)


def field_for_order(q: int) -> FieldContext:
    """Context for GF(q), with q factored by :func:`dbrg.params.prime_power`
    (ValueError if q is not a prime power or exceeds 2^16)."""
    return field(*prime_power(q))


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

def index_vector(ctx: FieldContext, idx: int, n: int) -> tuple[int, ...]:
    """The vector of F_q^n whose id is ``idx``: its n base-q digits."""
    return tuple(reversed(_base_digits(idx, ctx.q, n)))


def point_vectors(ctx: FieldContext, n: int) -> list[tuple[int, ...]]:
    """Normalized representatives (first nonzero coordinate 1) of the points
    of PG(n-1, q) in echelon order: by the place of the leading 1, then lex."""
    return [(0,) * lead + (1,) + rest for lead in range(n)
            for rest in itertools.product(range(ctx.q), repeat=n - lead - 1)]


# the most that one call holds in bitsets, hyperplane memo included
MAX_BITSET_BYTES = 2**30


def hyperplane_bitsets(ctx: FieldContext, n: int) -> Callable[[Sequence[int]], int]:
    """A map from w in F_q^n to the bitset of the nonzero vectors v with
    v . w = 0 under the standard dot form (all of them for w = 0).

    The sets come from a recursion on the coordinates of w: the vectors
    (x, v') with x w_0 + v' . w' = c are those (0, v') with v' . w' = c - x w_0,
    shifted by x q^(n-1) in id.  Each suffix w' of length l < n is
    memoised, with q bitsets over the q^l ids, one per value c, built by
    shifts and ORs; a whole w takes q shifts and ORs more."""
    q = ctx.q
    levels: dict[tuple[int, ...], list[int]] = {(): [1] + [0] * (q - 1)}

    def level(w: tuple[int, ...]) -> list[int]:
        got = levels.get(w)
        if got is None:
            rest, shift, got = level(w[1:]), q ** (len(w) - 1), [0] * q
            for x in range(q):
                xw = ctx.mul(x, w[0])
                for c, bits in enumerate(rest):
                    got[ctx.add(c, xw)] |= bits << x * shift
            levels[w] = got
        return got

    def hyperplane(w: Sequence[int]) -> int:
        if len(w) != n:
            raise ValueError(f"vector of length {len(w)} in ambient dimension {n}")
        rest, shift, got = level(tuple(w[1:])), q ** (n - 1), 0
        for x in range(q):
            got |= rest[ctx.neg(ctx.mul(x, w[0]))] << x * shift
        return got ^ 1  # v = 0 is in every hyperplane; the sets hold nonzero vectors

    return hyperplane


def subspace_bitset(hyperplane: Callable[[Sequence[int]], int], space: Subspace) -> int:
    """The bitset of the nonzero vectors of ``space``: the AND of the
    hyperplanes w-perp, from a map of :func:`hyperplane_bitsets` for its
    F_q^n, over the basis of its :func:`orthogonal_complement` (all
    nonzero vectors for the whole space, as :func:`echelon_bitsets`)."""
    dual = orthogonal_complement(space).basis or ((0,) * space.n,)
    return functools.reduce(operator.and_, map(hyperplane, dual))


def _free_cells(n: int, pivots: Sequence[int]) -> list[tuple[int, int]]:
    """The free echelon entries (row, column) for a pivot-column set, row by
    row, in the order that echelon order reads them (last fastest)."""
    return [(i, j) for i, piv in enumerate(pivots) for j in range(piv + 1, n)
            if j not in pivots]


def echelon_bitsets(ctx: FieldContext, n: int, m: int) -> Iterator[list[int]]:
    """The nonzero vectors of every m-dimensional subspace of F_q^n, as
    bitsets, in echelon order: one list per pivot-column set and values of
    its first two free cells, the cells that vary slowest, so that no list
    takes long to build.

    A subspace with echelon basis B and pivot columns p_0 < ... < p_{m-1}
    is the intersection of the hyperplanes w_j-perp, one for each
    non-pivot column j, with w_j = e_j - sum_i B[i][j] e_{p_i}.  w_j
    depends only on the free cells of column j, and each cell's value
    adds a fixed amount to the subspace's position in its list; so the
    lists are built column by column, one AND and one sum per subspace
    and column.  ValueError unless 0 <= m <= n."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got ({n}, {m})")
    q = ctx.q
    hyperplane = hyperplane_bitsets(ctx, n)
    for pivots in itertools.combinations(range(n), m):
        cells = _free_cells(n, pivots)
        lead = min(len(cells), 2)
        built = {}  # column -> its lead cells' values, offsets and hyperplanes, as last built
        for fixed in itertools.product(range(q), repeat=lead):
            choices = [[x] for x in fixed] + [range(q)] * (len(cells) - lead)  # per cell
            where, bits = [0], None
            for j in range(n):
                if j in pivots:
                    continue
                at = [pos for pos, (_, col) in enumerate(cells) if col == j]
                mine = [fixed[pos] for pos in at if pos < lead]
                if built.get(j, (None,))[0] != mine:  # w_j depends on column j's cells only
                    offsets, hyperplanes = [], []
                    for values in itertools.product(*(choices[pos] for pos in at)):
                        w = [0] * n
                        w[j] = 1
                        for pos, x in zip(at, values):
                            w[pivots[cells[pos][0]]] = ctx.neg(x)
                        offsets.append(sum(x * q ** (len(cells) - 1 - pos)
                                           for pos, x in zip(at, values) if pos >= lead))
                        hyperplanes.append(hyperplane(w))
                    built[j] = mine, offsets, hyperplanes
                _, offsets, hyperplanes = built[j]
                where = [a + b for a in where for b in offsets]
                bits = hyperplanes if bits is None else [a & b for a in bits for b in hyperplanes]
            if bits is None:  # m = n: the whole space
                bits = [hyperplane([0] * n)]
            part = [0] * len(bits)
            for pos, b in zip(where, bits):
                part[pos] = b
            yield part


def echelon_space(ctx: FieldContext, n: int, m: int, index: int) -> Subspace:
    """The m-dimensional subspace at position ``index`` of echelon order,
    as :func:`echelon_bitsets` lists them: its pivot set's block, then the
    base-q digits of the offset in it as the free cells, the last cell
    least significant.
    IndexError unless 0 <= index < [n, m]_q."""
    if index >= 0:
        for pivots in itertools.combinations(range(n), m):
            cells = _free_cells(n, pivots)
            if index < ctx.q ** len(cells):
                rows = [[int(j == piv) for j in range(n)] for piv in pivots]
                for (i, j), x in zip(reversed(cells), _base_digits(index, ctx.q, len(cells))):
                    rows[i][j] = x
                return Subspace(ctx, n, tuple(map(tuple, rows)))
            index -= ctx.q ** len(cells)
    raise IndexError(f"no {m}-dimensional subspace of F_{ctx.q}^{n} at this position")


# ---------------------------------------------------------------------------
# Counts per vector as bit planes: entry i of a list of planes is the bitset
# of the vectors whose count has bit i set.
# ---------------------------------------------------------------------------

def planes_add(planes: list[int], bits: int) -> None:
    """Count each vector of ``bits`` once more, in place (ripple carry; a
    carry out of the top plane becomes a new plane)."""
    for i, plane in enumerate(planes):
        planes[i] = plane ^ bits
        bits &= plane
        if not bits:
            return
    if bits:
        planes.append(bits)


def planes_sub(planes: list[int], other: Sequence[int]) -> None:
    """Take the counts ``other`` (planes too: ``[bits]`` counts one set)
    out of ``planes`` in place, borrow by borrow; RuntimeError if some
    count would fall below zero."""
    borrow = 0
    for i, x in enumerate(other):
        if i == len(planes):
            if x | borrow:
                raise RuntimeError("a count per vector fell below zero")
            continue
        plane = planes[i]
        half = plane ^ x
        planes[i] = half ^ borrow
        borrow = (x & ~plane) | (borrow & ~half)
    for i in range(len(other), len(planes)):
        if not borrow:
            return
        plane = planes[i]
        planes[i] = plane ^ borrow
        borrow &= ~plane
    if borrow:
        raise RuntimeError("a count per vector fell below zero")


def planes_count(sets: Sequence[int]) -> list[int]:
    """The planes of how many of the bitsets ``sets`` hold each vector.

    Carry-save: at each weight, full adders turn three sets into their
    sum at that weight and their carry at the next, until one set is
    left, the plane of that weight; five operations a set in all."""
    planes, level = [], list(sets)
    while level:
        carries = []
        while len(level) > 2:
            a, b, c = level.pop(), level.pop(), level.pop()
            half = a ^ b
            level.append(half ^ c)
            carries.append((a & b) | (half & c))
        if len(level) == 2:
            a, b = level
            level = [a ^ b]
            carries.append(a & b)
        planes.append(level[0])
        level = carries
    return planes


def planes_equal(planes: Sequence[int], value: int, mask: int) -> int:
    """The vectors of ``mask`` counted exactly ``value`` times."""
    if value < 0 or value >> len(planes):
        return 0
    for i, plane in enumerate(planes):
        mask &= plane if value >> i & 1 else ~plane
    return mask


def planes_less(planes: Sequence[int], value: int, mask: int) -> int:
    """The vectors of ``mask`` counted fewer than ``value`` times."""
    if value <= 0:
        return 0
    if value >> len(planes):
        return mask
    less = 0
    for i in reversed(range(len(planes))):
        if value >> i & 1:
            less |= mask & ~planes[i]
            mask &= planes[i]
        else:
            mask &= ~planes[i]
    return less


def planes_min(planes: Sequence[int], mask: int) -> int:
    """The vectors of ``mask`` with the least count among them."""
    for plane in reversed(planes):
        if mask & ~plane:
            mask &= ~plane
    return mask


def planes_max(planes: Sequence[int], mask: int) -> int:
    """The vectors of ``mask`` with the greatest count among them."""
    for plane in reversed(planes):
        if mask & plane:
            mask &= plane
    return mask


def incidence_planes(ctx: FieldContext, n: int, m: int, bits: Sequence[int]) -> list[int]:
    """The planes of how many of ``bits`` hold each vector, checked to be the
    counts of all m-dimensional subspaces: RuntimeError unless there are
    [n, m]_q sets and every nonzero vector lies in [n-1, m-1]_q of them
    (GL(n, q) is transitive on nonzero vectors)."""
    planes = planes_count(bits)
    q = ctx.q
    count, per = qbinom(n, m, q), qbinom(n - 1, m - 1, q) if m else 0
    nonzero = (1 << q**n) - 2
    if len(bits) != count or planes_equal(planes, per, nonzero) != nonzero:
        low, high = planes_min(planes, nonzero), planes_max(planes, nonzero)
        raise RuntimeError(f"{len(bits)} candidates, each vector in {planes_at(planes, low)} to "
                           f"{planes_at(planes, high)} of them; expected {count} and {per}")
    return planes


def planes_at(planes: Sequence[int], bits: int) -> int:
    """The count of the lowest vector of ``bits``."""
    low = bits & -bits
    return sum(1 << i for i, plane in enumerate(planes) if plane & low)


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


def format_vector(ctx: FieldContext, v: Sequence[int]) -> str:
    """The literal :func:`parse_vector` reads; ValueError naming the field
    when t > 1 and p > 16."""
    digits, base = _digit_form(ctx)
    if ctx.t == 1:
        return ",".join(str(c) for c in v)
    words = ("".join(digits[d] for d in reversed(_base_digits(c, base, ctx.t))) for c in v)
    return ",".join(word.lstrip("0") or "0" for word in words)


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
    pivots, out = s.pivots, []
    for j in range(n):
        if j not in pivots:
            v = [0] * n
            v[j] = 1
            for row, piv in zip(s.basis, pivots):
                v[piv] = ctx.neg(row[j])
            out.append(v)
    return subspace_make(ctx, n, out)


def hyperplane_counts(spaces: Iterable[Subspace]) -> Counter:
    """For each normalized w (first nonzero coordinate 1), how many of
    ``spaces`` lie in the hyperplane w-perp.  X lies in w-perp iff w lies
    in X-perp, so each space adds one at each point of its
    :func:`orthogonal_complement`; a point in no such complement reads 0."""
    return Counter(w for space in spaces for w in _points(orthogonal_complement(space)))


def _points(space: Subspace) -> Iterator[tuple[int, ...]]:
    """The normalized vectors of the points of ``space``: each echelon row
    plus every combination of the rows below it (whose pivots it holds as
    zeros); for a line with basis r1, r2, r1 + c r2 for each c, and r2."""
    ctx, basis = space.ctx, space.basis
    multiples = [[tuple(ctx.mul(c, x) for x in row) for c in ctx.elements()] for row in basis[1:]]
    for i, lead in enumerate(basis):
        for coeffs in itertools.product(ctx.elements(), repeat=len(basis) - i - 1):
            v = lead
            for c, row in zip(coeffs, multiples[i:]):
                if c:
                    v = tuple(map(ctx.add, v, row[c]))
            yield v


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
