"""Bipartite graph engine: distance partitions and biregularity checks.

Verification is definition-first: a BFS from every vertex, with the
per-cell neighbour counts (c_i, b_i) tested for constancy cell by cell.
Known automorphisms cut the work without weakening it: an automorphism
carries the distance partition from v onto the one from its image, so
:func:`dbrg_check` runs one BFS per orbit of the group that given
generators span, after checking each generator exactly against the
edges.  The trivial group (no generators) is the BFS from every vertex.

Every distance comes from one engine, :func:`_levels`: level-synchronous
BFS from up to 64 ``_WORDS`` sources of one class at once, bit-parallel
(Akiba, Iwata & Yoshida, SIGMOD 2013): bit s of word w of a vertex's row
stands for source 64w + s.  A counting pass ripple-adds the frontier
words of each neighbour slot into bit planes, plane i holding bit i of
every vertex's number of neighbours in the frontier.  The graph is
bipartite, so for a vertex first reached at level i that number is c_i,
and b_i = deg - c_i.  Level 1 comes from the edges, and the level after
one that completes its class is the rest of the other class, with c the
degree: eccentricity e >= 2 costs e - 2 counting passes.

Memory is bounded by the edges: the graph's int32 endpoints and the two
int32 neighbour tables take 8 bytes an edge each, and per level a few
class size x ``_WORDS`` word arrays.  Beyond that at most one array of
sort keys at a time (4 bytes an edge while nB nC <= 2^32): the
constructor's, a table's in the making, or a claimed automorphism's
image; gathers go ``_STEP`` edges at a time.  The file reader holds
one ``_BLOCK`` of text and int32 blocks of edges, the writer one
``_CHUNK`` of edges as text.  The Delorme graph of the dual Denniston
(32,4) arc, 3.3M edges, builds and checks with its translations at a
93 MB peak RSS, 63 MB over the interpreter and numpy.

The parameter records, :class:`dbrg.params.IntersectionArray` and the
strongly regular :class:`dbrg.params.SrgParams` with its one derivation
:func:`dbrg.params.srg_from_spectrum`, live in :mod:`dbrg.params`, which
imports no numpy, so the feasibility layer can use them without this one.

Vertices are addressed by a single index: the B class occupies
``0..nB-1`` and the C class ``nB..nB+nC-1``.

Graph text format: header ``B=<nB> C=<nC>``, then one edge ``<b> <c>``
per line with 0-based class-local indices, sorted.  :func:`write_graph`
streams it ``_CHUNK`` edges at a time.  :func:`parse_graph` converts a
block of ``_BLOCK`` characters to a line feed by one ``np.fromstring`` if
it is lines "<b> <c>" of ASCII digits in range, else line by line.
"""

from __future__ import annotations

import io
import itertools
from collections import namedtuple
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .params import IntersectionArray

__all__ = [
    "BipartiteGraph",
    "DistancePartition",
    "LocalCheck",
    "DbrgResult",
    "distance_partition",
    "dbrg_check",
    "flip",
    "induced_subgraph",
    "parse_graph",
    "serialize_graph",
    "write_graph",
]


def _check_class_sizes(nB: int, nC: int) -> None:
    if nB < 0 or nC < 0:
        raise ValueError(f"negative class size, B={nB} C={nC}")
    if nB + nC > 2**31:
        raise ValueError(f"B={nB} C={nC}: {nB + nC} vertices do not fit int32 vertex ids")


def _key_dtype(nB: int, nC: int) -> type:
    """The dtype of keys b * nC + c, 0 <= b < nB and 0 <= c < nC: uint32
    while they fit, as for the Denniston (32,4) graph's 3.4 10^9 pairs."""
    return np.uint32 if nB * nC <= 2**32 else np.uint64


def _pairs(edges: Iterable[tuple[int, int]] | np.ndarray) -> np.ndarray:
    """``edges`` as an (m, 2) integer array, without a copy of an array;
    ValueError for a non-integer entry or, naming it, a row that is no pair."""
    rows = edges if isinstance(edges, np.ndarray) else list(edges)
    try:
        pairs = np.asarray(rows)
    except ValueError:  # ragged rows
        pairs = None
    if pairs is None or (pairs.size and pairs.shape[1:] != (2,)):
        i = next((i for i, e in enumerate(rows) if np.shape(e) != (2,)), 0)
        raise ValueError(f"edge {i} is not a pair: {rows[i]!r}")
    if pairs.size and pairs.dtype.kind not in "iu":
        raise ValueError(f"edges must hold integers, got {pairs.dtype} entries")
    # a bool is no vertex index, though numpy reads one among ints as 0 or 1
    if rows is not edges and any(type(x) is bool for e in rows for x in e):
        raise ValueError("edges must hold integers, got a bool")
    return pairs.reshape(-1, 2)


def _int32(keys: np.ndarray) -> np.ndarray:
    """Keys below 2^31 as int32: a view of uint32 keys, else a copy."""
    return keys.view(np.int32) if keys.itemsize == 4 else keys.astype(np.int32)


def _pair_keys(b: np.ndarray, c: np.ndarray, nC: int, dtype: type) -> np.ndarray:
    """The keys b * nC + c of in-range pairs, as ``dtype``."""
    keys = b.astype(dtype)
    keys *= nC
    keys += c.astype(dtype, copy=False)
    return keys


class BipartiteGraph:
    """Immutable bipartite graph on two indexed vertex classes.

    The edges are held as int32 arrays ``eb`` and ``ec`` of class-local
    endpoints, sorted by (b, c); repeated input pairs are dropped.  The
    input is an (m, 2) integer array or an iterable of integer pairs; the
    sort runs in place on one array of keys b * nC + c, uint32 while nB nC
    <= 2^32, which then becomes ``eb``.
    """

    def __init__(self, nB: int, nC: int, edges: Iterable[tuple[int, int]] | np.ndarray):
        _check_class_sizes(nB, nC)
        pairs = _pairs(edges)
        b, c = pairs.T
        if len(pairs) and (min(b.min(), c.min()) < 0 or b.max() >= nB or c.max() >= nC):
            bad = (b < 0) | (b >= nB) | (c < 0) | (c >= nC)
            b0, c0 = min(zip(b[bad].tolist(), c[bad].tolist()))
            raise ValueError(f"edge ({b0},{c0}) out of range for B={nB} C={nC}")
        keys = _pair_keys(b, c, nC, _key_dtype(nB, nC))
        keys.sort()  # de-duplicated by sorting: np.unique imports numpy.ma
        fresh = np.empty(len(keys), bool)
        fresh[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        keys = keys if fresh.all() else keys[fresh]
        del fresh
        self.ec = np.empty(len(keys), np.int32)
        np.remainder(keys, max(nC, 1), out=self.ec, casting="unsafe")
        keys //= max(nC, 1)
        self.eb = _int32(keys)
        self.nB, self.nC, self.V = nB, nC, nB + nC
        self.degrees = np.zeros(self.V, np.int64)  # add.at, unlike bincount, makes no intp copy
        np.add.at(self.degrees, self.eb, 1)
        np.add.at(self.degrees[nB:], self.ec, 1)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as sorted (b, c) pairs."""
        return tuple(zip(self.eb.tolist(), self.ec.tolist()))

    def vertex(self, side: str, idx: int) -> int:
        if side == "B":
            if not 0 <= idx < self.nB:
                raise ValueError(f"B index {idx} out of range")
            return idx
        if side == "C":
            if not 0 <= idx < self.nC:
                raise ValueError(f"C index {idx} out of range")
            return self.nB + idx
        raise ValueError(f"side must be 'B' or 'C', got {side!r}")

    def side_of(self, v: int) -> str:
        return "B" if v < self.nB else "C"

    def __repr__(self) -> str:
        return f"BipartiteGraph(B={self.nB}, C={self.nC}, edges={len(self.eb)})"


# ---------------------------------------------------------------------------
# Distance engine
# ---------------------------------------------------------------------------

_WORDS = 16  # source words per BFS chunk: each level array is class size x 16 words
_CHUNK = 1024  # graph-file edges formatted per step
_BLOCK = 2**16  # graph-file characters read per step, then to the end of the line
_STEP = 2**16  # edges gathered per step: no temporary as large as the edges

# A class's rows are its vertices by decreasing degree, ``order[row]`` the
# class-local index and ``rank`` its inverse.  Slot j of ``table``, a row's
# neighbours in the other class, is held by the first ``prefix[j]`` rows;
# ``degree[i]`` is all ones on the rows whose degree has bit i set.
_Class = namedtuple("_Class", "order rank table prefix degree")


def _add_gathered(out: np.ndarray, values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``out += values[index]``, ``_STEP`` entries at a time."""
    for i in range(0, len(index), _STEP):
        out[i:i + _STEP] += values[index[i:i + _STEP]]
    return out


def _tables(g: BipartiteGraph) -> tuple[_Class, _Class]:
    deg = (g.degrees[:g.nB], g.degrees[g.nB:])
    order = [np.argsort(-d, kind="stable") for d in deg]
    rank = [np.argsort(o).astype(np.int32) for o in order]
    classes = []
    for x, (heads, tails) in enumerate(((g.eb, g.ec), (g.ec, g.eb))):
        d, other = deg[x][order[x]], len(deg[1 - x]) + 1
        top = int(d[0]) if d.size else 0
        # sorted keys row * other + entry give the table in place: a row's
        # neighbours' rows, then its top - d padding slots of other - 1, a
        # value no caller reads
        dtype = _key_dtype(d.size, other)
        keys, row_key = np.zeros(d.size * top, dtype), np.arange(d.size, dtype=dtype) * other
        _add_gathered(keys[:len(heads)], row_key[rank[x]], heads)
        _add_gathered(keys[:len(heads)], rank[1 - x].astype(dtype), tails)
        keys[len(heads):] = np.repeat(row_key + (other - 1), top - d)
        keys.sort()
        keys %= other
        table = _int32(keys).reshape(d.size, top)
        del keys
        bits = (d >> np.arange(top.bit_length())[:, None]) & 1
        bits = bits if (d[:1] > d[-1:]).any() else bits[:, :1]
        classes.append(_Class(order[x], rank[x], table, np.searchsorted(-d, -np.arange(top)),
                              (-bits).astype(np.uint64)[:, :, None]))
    return classes[0], classes[1]


def _count(c: _Class, frontier: np.ndarray) -> np.ndarray:
    """Bit planes, low first, of each row's number of neighbours in ``frontier``:
    slot j's words are ripple-added into the planes a count of j + 1 reaches."""
    planes = np.zeros((len(c.prefix).bit_length(), len(c.table), frontier.shape[1]), np.uint64)
    for j, rows in enumerate(c.prefix.tolist()):
        carry = frontier[c.table[:rows, j]]
        for p in planes[:(j + 1).bit_length(), :rows]:
            low = p & carry
            p ^= carry
            carry = low
    return planes


def _levels(t: tuple[_Class, _Class], side: int, src: np.ndarray):
    """Bit-parallel BFS from the rows ``src`` of class ``side`` (0 = B, 1 = C).
    Yields ``(level, cls, new, planes, seen)`` for level 0, 1, ...: ``new``
    marks, per class-``cls`` row, the sources that first reach it there,
    ``planes`` (broadcast to ``new``) hold its c_level, and ``seen`` both
    classes' reached sets.  Once a level completes its class, the unseen
    rows of positive degree are the last level, with c their degree."""
    word, s = np.divmod(np.arange(len(src)), 64)
    bit = np.uint64(1) << s.astype(np.uint64)
    seen = [np.zeros((len(c.order), word[-1] + 1), np.uint64) for c in t]
    new, planes = np.zeros_like(seen[side]), np.zeros((0, 1, 1), np.uint64)
    new[src, word] = bit
    full, level, cls, last = np.bitwise_or.reduce(new, axis=0), 0, side, False
    while new.any():
        seen[cls] |= new
        yield level, cls, new, planes, seen
        if last:
            return
        o = t[1 - cls]
        if level == 0:  # level 1 from the edges, c = 1
            valid = t[side].prefix > src[:, None]
            n, new = valid.sum(1), np.zeros_like(seen[1 - cls])
            np.bitwise_or.at(new, (t[side].table[src][valid], np.repeat(word, n)), np.repeat(bit, n))
            planes = np.full((1, 1, 1), ~np.uint64(0))
        elif (np.bitwise_and.reduce(seen[cls], axis=0) == full).all():
            new = ~seen[1 - cls] & full & np.bitwise_or.reduce(o.degree, axis=0)
            planes, last = o.degree, True
        else:
            planes = _count(o, new)
            new = np.bitwise_or.reduce(planes, axis=0) & ~seen[1 - cls]
        level, cls = level + 1, 1 - cls


def _sweeps(g: BipartiteGraph, vertices: Iterable[int]):
    """Yield ``(batch, tables, levels)`` per run of up to 64 ``_WORDS``
    same-class vertices of the increasing ``vertices``."""
    vs = np.asarray(vertices, dtype=np.int64)
    if vs.size and (vs[0] < 0 or vs[-1] >= g.V):
        raise ValueError(f"vertex out of range for V={g.V}")
    t = _tables(g)
    for side, part in ((0, vs[vs < g.nB]), (1, vs[vs >= g.nB] - g.nB)):
        for start in range(0, len(part), 64 * _WORDS):
            batch = part[start:start + 64 * _WORDS]
            yield batch + side * g.nB, t, _levels(t, side, t[side].rank[batch])


def _bits(words: np.ndarray, n: int) -> np.ndarray:
    """Bits 0..n-1 of each row of uint64 words, as uint8 0/1."""
    return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), axis=-1, bitorder="little")[..., :n]


def _alone(g: BipartiteGraph, v: int) -> tuple[list[list[int]], tuple[int, int, int] | None]:
    """The BFS from v alone: its cells, increasing, and ``(level, u, w)`` for
    its first inequitable cell, u its least vertex, w the least unlike u."""
    (_, t, levels), = _sweeps(g, [v])
    cells, witness = [], None
    for level, cls, new, planes, _ in levels:
        rows = np.flatnonzero(new[:, 0])
        rows = rows[np.argsort(t[cls].order[rows])]
        cells.append((t[cls].order[rows] + cls * g.nB).tolist())
        key = np.array([np.broadcast_to(p, new.shape)[rows, 0] for p in (*planes, *t[cls].degree)],
                       np.uint64).reshape(-1, len(rows)) & 1
        odd = (key != key[:, :1]).any(axis=0)
        if witness is None and odd.any():
            witness = (level, cells[-1][0], cells[-1][odd.argmax()])
    return cells, witness


class DistancePartition(NamedTuple):
    source: int
    cells: tuple[tuple[int, ...], ...]


class _Disconnected(ValueError):
    """Raised by the distance engine when a BFS misses a vertex."""

    def __init__(self):
        super().__init__("graph is disconnected")


def distance_partition(g: BipartiteGraph, v: int) -> DistancePartition:
    """BFS-exact distance partition from v; raises if g is disconnected."""
    cells = tuple(map(tuple, _alone(g, v)[0]))
    if sum(map(len, cells)) < g.V:
        raise _Disconnected()
    return DistancePartition(v, cells)


class LocalCheck(NamedTuple):
    ok: bool
    c: tuple[int, ...] = ()
    b: tuple[int, ...] = ()
    witness: tuple[int, int, int] | None = None  # (level, vertex, vertex)


def _local_checks(g: BipartiteGraph, vertices: Iterable[int]):
    """Yield the :class:`LocalCheck` of each of the increasing ``vertices``.

    A cell is equitable iff c and the degree (b = deg - c) are: iff no bit
    plane of either has a set and a clear bit under ``new``, which word ORs
    decide.  ValueError if g is disconnected.
    """
    for batch, t, levels in _sweeps(g, vertices):
        rows = []  # per level and source: reached, inequitable, c, degree
        for _, cls, new, planes, seen in levels:
            reach, values = np.bitwise_or.reduce(new, axis=0), []
            bad = np.zeros_like(reach)
            for p in (planes, t[cls].degree):
                x = new if p.shape[1] > 1 else reach[None]  # planes alike on every row: their OR
                hi = np.zeros((len(p), x.shape[1]), np.uint64)
                for i, plane in enumerate(p):  # one plane at a time: rows x words each
                    hit = plane & x
                    hi[i] = np.bitwise_or.reduce(hit, axis=0)
                    hit ^= x
                    bad |= hi[i] & np.bitwise_or.reduce(hit, axis=0)
                values.append(_bits(hi, len(batch)).T @ (1 << np.arange(len(hi))))
            rows.append((_bits(reach, len(batch)), _bits(bad, len(batch)), *values))
        whole = np.bitwise_and.reduce(seen[0], axis=0) & np.bitwise_and.reduce(seen[1], axis=0)
        if not _bits(whole, len(batch)).all():
            raise _Disconnected()
        reached, bad, c, d = np.array(rows).transpose(1, 2, 0)
        cs, bs, ecc, bad = c.tolist(), (d - c).tolist(), reached.sum(1).tolist(), bad.any(1).tolist()
        for r, v in enumerate(batch.tolist()):
            yield (LocalCheck(False, witness=_alone(g, v)[1]) if bad[r]
                   else LocalCheck(True, c=tuple(cs[r][:ecc[r]]), b=tuple(bs[r][:ecc[r]])))


class DbrgResult(NamedTuple):
    ok: bool
    array: IntersectionArray | None = None
    regular: bool = False
    witness: tuple | None = None
    # witness forms: ("disconnected", 0, w) for a disconnected graph, w the
    # least vertex that vertex 0 does not reach; ("local", vertex, level,
    # u, w) for an inequitable partition; ("side", side, u, w) for two
    # same-side vertices with different profiles.


def _automorphism(g: BipartiteGraph, perm) -> np.ndarray:
    """``perm`` as int32 if it is an automorphism of g that keeps each class,
    else ValueError: a permutation of 0..V-1 mapping B to B whose image of
    the edge set, sorted, is the edge set."""
    perm = np.asarray(perm)
    if perm.shape != (g.V,) or perm.dtype.kind not in "iu":
        raise ValueError(f"automorphism must be an integer array of length V={g.V}")
    if perm.min() < 0 or perm.max() >= g.V:
        raise ValueError("automorphism is not a permutation of the vertices")
    perm = perm.astype(np.int32, copy=False)  # V <= 2^31
    if (np.bincount(perm, minlength=g.V) != 1).any():
        raise ValueError("automorphism is not a permutation of the vertices")
    if (perm[:g.nB] >= g.nB).any():
        raise ValueError("automorphism does not keep the classes")
    dtype = _key_dtype(g.nB, g.nC)
    pb, pc = perm[:g.nB].astype(dtype) * g.nC, (perm[g.nB:] - g.nB).astype(dtype)
    # eb runs through each row in turn; timsort merges the rows' runs
    image = _add_gathered(np.repeat(pb, g.degrees[:g.nB]), pc, g.ec)
    image.sort(kind="stable")
    for i in range(0, len(image), _STEP):
        edges = _pair_keys(g.eb[i:i + _STEP], g.ec[i:i + _STEP], g.nC, dtype)
        if not np.array_equal(image[i:i + _STEP], edges):
            raise ValueError("automorphism does not preserve the edges")
    return perm


def _orbit_minima(g: BipartiteGraph, gens: list[np.ndarray]) -> np.ndarray:
    """The least vertex of each orbit of the group the checked generators
    span, increasing: union-find over the edges v -- perm[v].  Each pass
    hooks the larger root of every crossing edge under the smaller, then
    jumps pointers to the roots; it stops when no edge crosses two trees.
    Pointers only decrease, so each root is the minimum of its orbit."""
    root = np.arange(g.V)
    while True:
        merged = False
        for perm in gens:
            other = root[perm]
            cross = other != root
            if cross.any():
                merged = True
                np.minimum.at(root, np.maximum(root, other)[cross], np.minimum(root, other)[cross])
                while (root[root] != root).any():
                    root = root[root]
        if not merged:
            return np.flatnonzero(root == np.arange(g.V))


def dbrg_check(g: BipartiteGraph, automorphisms: Sequence = ()) -> DbrgResult:
    """Definition-exact distance-biregularity check.

    Accepts iff the graph is connected, every distance partition is
    equitable and the (c, b) profile is constant on each class.  Regular
    graphs (k = l) are accepted and flagged via ``regular``.  The witness
    names a disconnected graph first, then the first failing vertex, an
    inequitable partition before a profile mismatch.  Raises ValueError
    if a class is empty.

    ``automorphisms`` are generators of a group of automorphisms, each a
    vertex permutation of length V.  Each is checked exactly first: it
    must permute 0..V-1, keep B and C, and map the edge set onto itself;
    otherwise ValueError, and no verdict.  The BFS then runs only from the
    least vertex of each orbit.  Vertices of one orbit have the same
    local check, so the result and its witness are those of the full
    check: the first failing vertex is the least of its orbit, and so are
    vertex 0 and the first C vertex, the references of each class.

    A graph with fewer than V - 1 edges is disconnected: once the
    generators are checked, its witness comes from the BFS of 0 alone.

    The engine runs 64 ``_WORDS`` sources at a time, in memory bounded by
    the edges and that chunk; a failing source runs again alone.
    """
    if g.nB == 0 or g.nC == 0:
        raise ValueError(f"both classes must be non-empty, got B={g.nB} C={g.nC}")
    gens = [_automorphism(g, perm) for perm in automorphisms]
    first: dict[str, tuple] = {}  # side -> (vertex, c, b) of its first vertex
    try:
        if len(g.eb) < g.V - 1:
            raise _Disconnected()
        reps = _orbit_minima(g, gens)
        for v, res in zip(reps.tolist(), _local_checks(g, reps)):
            if not res.ok:
                return DbrgResult(False, witness=("local", v, *res.witness))
            side = g.side_of(v)
            rep, c, b = first.setdefault(side, (v, res.c, res.b))
            if (c, b) != (res.c, res.b):
                return DbrgResult(False, witness=("side", side, rep, v))
    except _Disconnected:  # too few edges, or the first batch: before any verdict
        reached = np.zeros(g.V, bool)
        for cell in _alone(g, 0)[0]:
            reached[cell] = True
        return DbrgResult(False, witness=("disconnected", 0, int(reached.argmin())))
    (_, cB, bB), (_, cC, bC) = first["B"], first["C"]
    array = IntersectionArray(k=bB[0], l=bC[0], cB=cB[1:], cC=cC[1:])
    array.validate()
    return DbrgResult(True, array=array, regular=array.regular)


def flip(g: BipartiteGraph) -> BipartiteGraph:
    """The same graph with the two classes exchanged."""
    return BipartiteGraph(g.nC, g.nB, np.column_stack([g.ec, g.eb]))


def induced_subgraph(
    g: BipartiteGraph, b_keep: Sequence[int], c_keep: Sequence[int]
) -> BipartiteGraph:
    """Induced bipartite subgraph; class indices are re-numbered in order.
    ValueError names the first index outside its class, B before C."""
    masks = []
    for side, keep, n in (("B", b_keep, g.nB), ("C", c_keep, g.nC)):
        keep = list(keep)
        bad = [v for v in keep if not 0 <= v < n]
        if bad:
            raise ValueError(f"{side} index {bad[0]} out of range for {side}={n}")
        masks.append(np.zeros(n, bool))
        masks[-1][keep] = True
    inside = masks[0][g.eb] & masks[1][g.ec]
    new = [np.cumsum(mask, dtype=np.int32) - 1 for mask in masks]
    edges = np.column_stack([new[0][g.eb[inside]], new[1][g.ec[inside]]])
    return BipartiteGraph(int(masks[0].sum()), int(masks[1].sum()), edges)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def write_graph(g: BipartiteGraph, fh: TextIO) -> None:
    """Write the graph text format to ``fh``, ``_CHUNK`` edges at a time."""
    b = np.array([f"{i} " for i in range(g.nB)], dtype=object)
    c = np.array([f"{j}\n" for j in range(g.nC)], dtype=object)
    fh.write(f"B={g.nB} C={g.nC}\n")
    for i in range(0, len(g.eb), _CHUNK):
        fh.write("".join((b[g.eb[i:i + _CHUNK]] + c[g.ec[i:i + _CHUNK]]).tolist()))


def serialize_graph(g: BipartiteGraph) -> str:
    """The graph text format as one string, as :func:`write_graph` writes it."""
    out = io.StringIO()
    write_graph(g, out)
    return out.getvalue()


def _integer(word: str) -> int:
    """A graph-file integer: ASCII digits after an optional "-", else ValueError."""
    if not (word.isascii() and word.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {word!r}")
    return int(word)


def _blocks(source: str | TextIO) -> Iterator[str]:
    """``source`` in pieces of about ``_BLOCK`` characters that end after a
    line feed (so a CR LF stays whole), with newlines translated as a
    universal-newline file reads them; a file is read a piece at a time."""
    if not isinstance(source, str):
        while block := source.read(_BLOCK):
            yield block if block.endswith("\n") else block + source.readline()
        return
    start = 0
    while start < len(source):
        end = source.find("\n", start + _BLOCK) + 1 or len(source)
        yield source[start:end].replace("\r\n", "\n").replace("\r", "\n")
        start = end


def _edge_block(block: str, nb: int, nc: int) -> np.ndarray | None:
    """The int32 edges of ``block`` by one ``np.fromstring`` if it is lines
    "<b> <c>\\n" of 1 to 18 ASCII digits, b < nb and c < nc, else None: that
    call also reads "+", "-", tabs and spaces, and caps a number at int64."""
    if not (block.isascii() and block.endswith("\n")):
        return None
    text = np.frombuffer(block.encode(), np.uint8)
    at = np.flatnonzero((text < 48) | (text > 57))  # the non-digits, with the last "\n"
    gaps = np.diff(at, prepend=-1)
    if len(at) % 2 or not (((gaps > 1) & (gaps < 20)).all()
                           and (text[at].reshape(-1, 2) == (32, 10)).all()):
        return None
    edges = np.fromstring(block, np.int64, sep=" ").reshape(-1, 2)
    fits = len(edges) * 2 == len(at) and edges[:, 0].max() < nb and edges[:, 1].max() < nc
    return edges.astype(np.int32) if fits else None


def parse_graph(source: str | TextIO) -> BipartiteGraph:
    """Parse the graph text format from a string or from a text file opened
    in universal-newline mode (``open``'s default), which is read
    ``_BLOCK`` characters at a time and never held whole; ValueError names
    the first faulty line.  The header is two words, ``B=<nB> C=<nC>``."""
    blocks = _blocks(source)
    block = next(blocks, "")
    if not block:
        raise ValueError("empty graph file")
    head, _, rest = block.partition("\n")
    header = head.split()
    try:
        if len(header) != 2 or header[0][:2] != "B=" or header[1][:2] != "C=":
            raise ValueError("not two words 'B=<nB> C=<nC>'")
        nb, nc = _integer(header[0][2:]), _integer(header[1][2:])
    except ValueError as exc:
        raise ValueError(f"line 1: bad header {head!r}") from exc
    try:
        _check_class_sizes(nb, nc)
    except ValueError as exc:
        raise ValueError(f"line 1: {exc}") from None
    # per block: its edges, int32, and the line of each: a range, or a list
    # if the block went line by line
    edge_blocks, nos, first = [], [], 2
    for block in itertools.chain([rest], blocks):
        edges, kept, lines_at = _edge_block(block, nb, nc), [], []
        if edges is None:  # a blank or faulty line, or other spacing: line by line
            for no, line in enumerate(block.split("\n"), start=first):
                parts = line.split()
                if not parts:
                    continue
                if len(parts) != 2:
                    raise ValueError(f"line {no}: expected '<b> <c>', got {line.strip()!r}")
                try:
                    b, c = _integer(parts[0]), _integer(parts[1])
                except ValueError as exc:
                    raise ValueError(f"line {no}: non-integer edge {line.strip()!r}") from exc
                if not (0 <= b < nb and 0 <= c < nc):
                    raise ValueError(f"line {no}: edge ({b},{c}) out of range for B={nb} C={nc}")
                kept.append((b, c))
                lines_at.append(no)
            edges = np.array(kept, np.int32).reshape(-1, 2)
        edge_blocks.append(edges)
        nos.append(lines_at or range(first, first + len(edges)))
        first += block.count("\n")
    edges = np.concatenate(edge_blocks) if edge_blocks else np.empty((0, 2), np.int32)
    del edge_blocks
    g = BipartiteGraph(nb, nc, edges)
    if len(g.eb) < len(edges):  # name the first line that repeats an earlier edge
        keys = _pair_keys(edges[:, 0], edges[:, 1], nc, _key_dtype(nb, nc))
        order = np.argsort(keys, kind="stable")
        i = j = int(order[1:][keys[order[1:]] == keys[order[:-1]]].min())
        for lines_at in nos:
            if j < len(lines_at):
                b, c = edges[i]
                raise ValueError(f"line {lines_at[j]}: duplicate edge '{b} {c}'")
            j -= len(lines_at)
    return g
