"""Stacked kernels over GF(p^t) for the coset and inclusion graphs.

The fields, vectors, canonical subspaces and vector-set bitsets live in
the numpy-free :mod:`dbrg.gfint`; this module adds the array work that
:mod:`dbrg.constructions` runs.  Stacked echelon bases (arrays of
shape (K, m, n)) come from :func:`echelon_bases` or, for a
:class:`dbrg.gfint.SpaceFamily`, from :func:`stack_bases`;
:func:`enumerate_subspaces` turns the first into :class:`Subspace`
values one at a time.

One pair of exp/log tables serves both layers: a :class:`FieldContext`
holds them as Python lists for its scalar methods, and :func:`mul`
reads them as int32 arrays (converted once per field) for the products
of :func:`subspace_vector_ids`, :func:`coset_index` and :func:`scaling`.
Sums go through ``FieldContext.add``, which is written in integer
operators and so applies to arrays unchanged.  This module and
:mod:`dbrg.gfint` are the only ones that know the vector-id encoding
(:func:`vector_ids`: coordinates as one base-q number, added digit by
digit); callers work through :func:`subspace_vector_ids` and
:func:`coset_index`, and act on ids through the maps :func:`translations`
and :func:`scaling`.  Cosets are numbered once, by reduction: coset j of
a subspace M holds the vectors whose ``M.reduce`` image has the base-q
digits of j on the free (non-pivot) coordinates, so coset 0 is M.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

import numpy as np

from .gfint import FieldContext, SpaceFamily, Subspace
from .gfint import index_vector  # noqa: F401 -- bench/trace_layers.py reads gfcore.index_vector

__all__ = [
    "enumerate_subspaces",
    "stack_bases",
    "echelon_bases",
    "mul",
    "vector_ids",
    "subspace_vector_ids",
    "translations",
    "scaling",
    "coset_index",
]


@lru_cache(maxsize=None)
def _tables(ctx: FieldContext) -> tuple[np.ndarray, np.ndarray]:
    """The exp and log tables of ``ctx`` as int32 arrays."""
    return np.array(ctx._exp, np.int32), np.array(ctx._log, np.int32)


def mul(ctx: FieldContext, a, b) -> np.ndarray:
    """a * b over ``ctx``, elementwise on integer arrays that broadcast."""
    exp, log = _tables(ctx)
    return exp[log[a] + log[b]]


def stack_bases(family: SpaceFamily) -> np.ndarray:
    """The members' echelon bases for the kernels: int64, shape (K, m, n), also if m = 0."""
    m = family.members[0].dim if family.members else 0
    bases = np.array([mb.basis for mb in family.members], np.int64)
    return bases.reshape(len(family), m, family.n)


def enumerate_subspaces(ctx: FieldContext, n: int, m: int) -> Iterator[Subspace]:
    """All m-dimensional subspaces of F_q^n, deterministic order.

    Order: pivot-column sets lexicographically, then free echelon entries
    lexicographically (last free cell varies fastest).  The stream can be
    restarted at will and always yields qbinom(n, m, q) subspaces.
    """
    for block in echelon_bases(ctx, n, m):
        for rows in block:  # one at a time: a block can hold q^(m(n-m)) bases
            yield Subspace(ctx, n, tuple(map(tuple, rows.tolist())))


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
    """The id of each vector along the last axis, stacked: its rank in the
    lexicographic order of F_q^n, the coordinates read as one base-q number.

    The base-p digits of a coordinate are its polynomial coefficients, so
    the base-p digits of an id are the vector's coordinates over GF(p):
    vectors add as ``ctx.add(id1, id2, n * ctx.t)``.  int32 while q^n
    fits, else int64.
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
    scaled = np.stack([vector_ids(ctx, mul(ctx, c, bases)) for c in range(q)])
    # all combinations, the coefficient of the first row varying slowest
    ids = np.zeros((count, 1), dtype=scaled.dtype)
    for i in range(m):
        ids = ctx.add(ids[:, :, None], scaled[:, :, i].T[:, None, :], n * ctx.t).reshape(count, -1)
    return np.sort(ids[:, 1:], axis=1)


def translations(ctx: FieldContext, n: int) -> np.ndarray:
    """x -> x + e on the vector ids of F_q^n, one row per vector e whose id
    is p^i, i = 0 .. n t - 1: the unit vectors of F_q^n over GF(p), which
    generate its translations.  Shape (n t, q^n); row i maps id x to the
    id of x + e_i."""
    nt = n * ctx.t
    return ctx.add(np.arange(ctx.q**n)[None, :], ctx.p ** np.arange(nt)[:, None], nt)


def scaling(ctx: FieldContext, n: int, lam: int) -> np.ndarray:
    """x -> lam x on the vector ids of F_q^n, shape (q^n,): entry x is the
    id of the vector with id x times the field element lam."""
    coords = np.arange(ctx.q**n)[:, None] // ctx.q ** np.arange(n - 1, -1, -1) % ctx.q
    return vector_ids(ctx, mul(ctx, lam, coords))


def coset_index(ctx: FieldContext, bases: np.ndarray) -> np.ndarray:
    """The coset of every vector modulo each subspace: int32, shape (K, q^n).

    ``bases`` has shape (K, m, n) and holds echelon bases.  Entry [i, x]
    is the base-q rank of the free coordinates of the vector with id x
    reduced modulo subspace i (``Subspace.reduce``).  Reduction is linear:
    coordinate c adds x_c times row c of the reduction matrix, the unit
    on a free column and -B[r, free] on the pivot column of row r, so the
    table grows by one coordinate at a time, as ids of F_q^(n-m).
    """
    count, m, n = bases.shape
    if m == n:
        return np.zeros((count, ctx.q**n), np.int32)
    members = np.arange(count)[:, None]
    pivots = np.argmax(bases != 0, axis=2)
    free = np.ones((count, n), dtype=bool)
    free[members, pivots] = False
    cols = np.nonzero(free)[1].reshape(count, n - m)
    reduction = np.zeros((count, n, n - m), np.int32)
    reduction[members, cols, np.arange(n - m)] = 1
    reduction[members, pivots] = mul(ctx, ctx.p - 1, np.take_along_axis(bases, cols[:, None], axis=2))
    index = np.zeros((count, 1), np.int32)
    for c in range(n):
        step = vector_ids(ctx, mul(ctx, np.arange(ctx.q)[:, None, None], reduction[:, c])).T
        index = ctx.add(index[:, :, None], step[:, None, :], (n - m) * ctx.t).reshape(count, -1)
    return index
