"""Feasibility engine for diameter-4, girth-4, non-regular intersection arrays.

A candidate is a :class:`dbrg.params.IntersectionArray`
``{k; 1,c2B,c3B,k | l; 1,c2C,c3C,l}``: valid, covering radius 4 on both
sides and 2 <= c2 on both lines (girth four).  Every condition reads its
c-lines and derived b-numbers; the two orientations are ``swapped`` and
``canonical`` of the array, and each check's verdict is a
:class:`dbrg.params.Condition`.  The implemented necessary conditions:

* integral distance-cell sizes on both sides, consistent across sides
  and with the edge count;
* the product relations tying the two lines together
  (c2B*c3B = c2C*c3C and b1B*b2B = b1C*b2C);
* homogeneity: for i in {2, 3} and both line orientations, whenever the
  scalar Delta_i of :func:`homogeneity` vanishes the associated
  triple-intersection constant gamma_i must be a non-negative integer;
* both halved graphs must carry consistent strongly-regular parameters
  with integral eigenvalues and multiplicities, non-negative lambda,
  mu <= k, the SRG counting identity, and the two Krein inequalities;
* arrays matching the pattern of the degree-2 maximal-arc family force
  a projective plane of the corresponding order (order 6 and 10 are
  impossible, and Bruck-Ryser applies).

Everything is exact integer/Fraction arithmetic, and the module imports
no numpy.  ``enumerate_feasible`` reproduces the known table of
admissible arrays up to 1300 vertices per side.  It starts c2B at
k^2/(max_side-2), visits only the c2B that leave some l in range, and
skips a c3B that leaves k3 non-integral before building anything; all
three drop only tuples that the cell recursion rejects (see its
docstring).  Arrays that only the homogeneity or plane conditions reject
stay listed with status ``infeasible`` (they are part of the table),
while anything failing a structural condition is not listed at all.
"""

from __future__ import annotations

import csv
import io
import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from math import gcd, isqrt, lcm
from typing import Iterable

from .params import Condition, IntersectionArray, SrgParams, srg_from_spectrum

__all__ = [
    "FeasibilityReport",
    "DeltaGammaEntry",
    "SrgDerivation",
    "vertex_counts",
    "delorme_relations_check",
    "delta_gamma_check",
    "homogeneity",
    "halved_srg_derive",
    "plane_implication_check",
    "evaluate",
    "enumerate_feasible",
    "reference_table",
    "compare_with_reference",
    "catalog_annotate",
    "rows_to_csv",
    "rows_to_json",
]


@dataclass(frozen=True)
class Counts:
    ok: bool
    nB: int | None = None
    nC: int | None = None
    cells_B: tuple[int, ...] | None = None
    cells_C: tuple[int, ...] | None = None
    detail: str = ""


def _diameter4(a: IntersectionArray) -> IntersectionArray:
    """``a`` itself if it is a valid diameter-4, girth-4 array, else ValueError."""
    a.validate()
    if a.dB != 4 or a.dC != 4:
        raise ValueError(f"{a}: feasibility arrays have covering radius 4 on both sides")
    if a.cB[1] < 2 or a.cC[1] < 2:
        raise ValueError(f"{a}: girth four needs c2 >= 2 on both lines")
    return a


def _side_cells(b, c: tuple[int, ...]) -> tuple[int, ...] | str:
    """Distance-cell sizes 1, k1..k4 from a base vertex with b-numbers
    ``b(i)`` and c-line ``c``."""
    cells = [1]
    for i in range(4):
        num, den = cells[i] * b(i), c[i]
        if num % den:
            return f"k_{i + 1} = {num}/{den} is not an integer"
        cells.append(num // den)
    return tuple(cells)


def vertex_counts(a: IntersectionArray) -> Counts:
    """Exact class sizes from the distance-cell recursion, both sides."""
    cb = _side_cells(a.bB, a.cB)
    if isinstance(cb, str):
        return Counts(False, detail=f"B side: {cb}")
    cc = _side_cells(a.bC, a.cC)
    if isinstance(cc, str):
        return Counts(False, detail=f"C side: {cc}")
    nB = 1 + cb[2] + cb[4]
    nC = cb[1] + cb[3]
    nC_check = 1 + cc[2] + cc[4]
    nB_check = cc[1] + cc[3]
    if (nB, nC) != (nB_check, nC_check):
        return Counts(
            False, detail=f"cell counts disagree across sides: ({nB},{nC}) vs ({nB_check},{nC_check})"
        )
    if a.k * nB != a.l * nC:
        return Counts(False, detail="edge count differs between the sides")
    return Counts(True, nB, nC, cb, cc)


def delorme_relations_check(a: IntersectionArray) -> Condition:
    """The two product identities linking the array lines."""
    lhs1, rhs1 = a.cB[1] * a.cB[2], a.cC[1] * a.cC[2]
    lhs2, rhs2 = a.bB(1) * a.bB(2), a.bC(1) * a.bC(2)
    if lhs1 != rhs1:
        return Condition("products", False, f"c2*c3 differ: {lhs1} != {rhs1}")
    if lhs2 != rhs2:
        return Condition("products", False, f"b1*b2 differ: {lhs2} != {rhs2}")
    return Condition("products", True)


@dataclass(frozen=True)
class DeltaGammaEntry:
    i: int
    orientation: str  # "as-given" | "swapped"
    delta: Fraction
    gamma: Fraction | None  # set when delta == 0
    ok: bool


def homogeneity(arr: IntersectionArray, i: int) -> tuple[Fraction, Fraction | None]:
    """(Delta_i, gamma_i) of an array with covering radii at least 4.

    Delta_i is the distance-i homogeneity scalar and gamma_i the forced
    triple-intersection constant, given only when Delta_i vanishes
    (otherwise None).  For i = 2 the b- and c-numbers are read from the
    B line, for i = 3 from the C line; the cross factor is always
    (c2C - 1)/c2B:

        den     = b_i (c_{i+1} - 1) + c_i (b_{i-1} - 1)
        Delta_i = (b_{i-1} - 1)(c_{i+1} - 1) - den (c2C - 1)/c2B
        gamma_i = c2B c_i (b_{i-1} - 1)/den

    ValueError if den = 0 (then Delta_i = 0 and gamma_i is undefined).
    """
    b, c = (arr.bB, arr.cB) if i == 2 else (arr.bC, arr.cC)
    c2B, c2C = arr.cB[1], arr.cC[1]
    den = b(i) * (c[i] - 1) + c[i - 1] * (b(i - 1) - 1)
    delta = Fraction((b(i - 1) - 1) * (c[i] - 1)) - Fraction(den * (c2C - 1), c2B)
    if delta:
        return delta, None
    if den == 0:
        raise ValueError(f"gamma_{i} is undefined: its denominator "
                         f"b_{i}(c_{i + 1} - 1) + c_{i}(b_{i - 1} - 1) is 0")
    return delta, Fraction(c2B * c[i - 1] * (b(i - 1) - 1), den)


def _delta_gamma(a: IntersectionArray) -> list[DeltaGammaEntry]:
    out = []
    for orientation, arr in (("as-given", a), ("swapped", a.swapped())):
        for i in (2, 3):
            delta, gamma = homogeneity(arr, i)
            ok = gamma is None or (gamma.denominator == 1 and gamma >= 0)
            out.append(DeltaGammaEntry(i, orientation, delta, gamma, ok))
    return out


def delta_gamma_check(a: IntersectionArray) -> tuple[Condition, list[DeltaGammaEntry]]:
    """Homogeneity test at distances 2 and 3, in both line orientations.

    Wherever the scalar Delta vanishes, the triple-intersection constant
    gamma is forced and must be a non-negative integer.
    """
    entries = _delta_gamma(a)
    bad = [e for e in entries if not e.ok]
    if bad:
        e = bad[0]
        return (
            Condition(
                "homogeneity", False,
                f"gamma_{e.i} = {e.gamma} ({e.orientation}) must be a non-negative integer",
            ),
            entries,
        )
    return Condition("homogeneity", True), entries


@dataclass(frozen=True)
class SrgDerivation:
    ok: bool
    theta: int | None = None
    B: SrgParams | None = None
    C: SrgParams | None = None
    detail: str = ""


def halved_srg_derive(a: IntersectionArray, counts: Counts | None = None) -> SrgDerivation:
    """Strongly-regular parameters of both halved graphs, or a rejection.

    The middle eigenvalue theta of the walk matrix is forced by the
    array (the trace of the squared side-quotient, sum_i b_i c_{i+1} - kl
    on either line); each halved graph then has eigenvalues k_H,
    (theta-val)/c2, -val/c2.  ``counts``, when given, must be
    ``vertex_counts(a)``.
    """
    counts = vertex_counts(a) if counts is None else counts
    if not counts.ok:
        return SrgDerivation(False, detail=f"cell counts: {counts.detail}")
    k, l = a.k, a.l
    kl = k * l
    theta = sum(a.bB(i) * a.cB[i] for i in range(4)) - kl
    theta_c = sum(a.bC(i) * a.cC[i] for i in range(4)) - kl
    if theta != theta_c:
        return SrgDerivation(False, detail=f"walk traces disagree: {theta} vs {theta_c}")
    if theta <= 0 or theta >= kl:
        return SrgDerivation(False, detail=f"middle eigenvalue {theta} outside (0, kl)")
    sides = []
    for name, v, val, c2 in (("B", counts.nB, k, a.cB[1]), ("C", counts.nC, l, a.cC[1])):
        try:  # the halved valency counts the vertices at distance two
            sides.append(srg_from_spectrum(v, Fraction(val * (kl // val - 1), c2),
                                           Fraction(theta - val, c2), Fraction(-val, c2)))
        except ValueError as exc:
            return SrgDerivation(False, theta=theta, detail=f"{name} side: {exc}")
    return SrgDerivation(True, theta, *sides)


def _sum_of_two_squares(n: int) -> bool:
    for x in range(isqrt(n) + 1):
        y2 = n - x * x
        r = isqrt(y2)
        if r * r == y2:
            return True
    return False


def plane_implication_check(a: IntersectionArray) -> Condition:
    """Arrays of the degree-2 maximal-arc shape force a projective plane.

    Pattern (canonical orientation): {n+2; 1, 2, n(n+1)/2, n+2 | n^2; 1,
    n, n+1, n^2}.  Orders 6 and 10 are impossible; n congruent to 1 or 2
    mod 4 must be a sum of two squares (Bruck-Ryser).
    """
    c = a.canonical()
    n = c.cC[1]
    if (
        c.cB[1] == 2
        and c.k == n + 2
        and c.l == n * n
        and c.cC[2] == n + 1
        and 2 * c.cB[2] == n * (n + 1)
    ):
        if n in (6, 10):
            return Condition("plane", False, f"requires a projective plane of order {n}")
        if n % 4 in (1, 2) and not _sum_of_two_squares(n):
            return Condition(
                "plane", False,
                f"requires a projective plane of order {n}, excluded by Bruck-Ryser",
            )
        return Condition("plane", True, f"matches the plane pattern with admissible order {n}")
    return Condition("plane", True)


@dataclass(frozen=True)
class FeasibilityReport:
    array: IntersectionArray
    counts: Counts
    conditions: tuple[Condition, ...]
    delta_gamma: tuple[DeltaGammaEntry, ...]
    srg: SrgDerivation
    status: str  # feasible | infeasible | flagged
    reasons: tuple[str, ...]

    @property
    def structurally_sound(self) -> bool:
        """Counts, products, and halved-SRG admissibility all hold."""
        return self.counts.ok and self.srg.ok and all(
            c.ok for c in self.conditions if c.name == "products"
        )


def evaluate(a: IntersectionArray) -> FeasibilityReport:
    """Run every implemented condition on one diameter-4, girth-4 array;
    ValueError if ``a`` is not one."""
    counts = vertex_counts(_diameter4(a))
    return _report(a, counts, halved_srg_derive(a, counts))


def _report(a: IntersectionArray, counts: Counts, srg: SrgDerivation) -> FeasibilityReport:
    """The full report, given ``vertex_counts(a)`` and ``halved_srg_derive(a)``."""
    hom, entries = delta_gamma_check(a)
    plane = plane_implication_check(a)
    conditions = [Condition("counts", counts.ok, counts.detail), delorme_relations_check(a),
                  hom, Condition("halved-srg", srg.ok, srg.detail), plane]
    reasons = [("halved graphs: " if c.name == "halved-srg" else "") + c.detail
               for c in conditions if not c.ok]

    if all(c.ok for c in conditions):
        gamma_notes = [e for e in entries if e.gamma is not None]
        status = "flagged" if (gamma_notes or plane.detail) else "feasible"
        for e in gamma_notes:
            reasons.append(f"gamma_{e.i} = {int(e.gamma)} ({e.orientation})")
        if plane.detail:
            reasons.append(plane.detail)
    else:
        status = "infeasible"
    return FeasibilityReport(a, counts, tuple(conditions), tuple(entries), srg,
                             status, tuple(reasons))


def _c2b_strides(span: int):
    """Yield ``(k, c2B, step, first, last)`` in order of k, then c2B: for
    every k >= 3 and lo = max(2, ceil(k^2/span)) <= c2B < k with

        step = lcm((k-1)/gcd(k-c2B, k-1), c2B/gcd(k, c2B)),
        first = the least multiple of step above k - 1,
        last = floor(span*c2B/k),

    exactly the c2B with first <= last, i.e. with some l - 1 in range.

    Only c2B that can pass are visited.  Write c2B = h*t with
    h = gcd(k, c2B) < k, g = gcd(c2B - 1, k - 1) and A = (k - 1)/g, so
    step = lcm(A, t).  Then step <= last forces A/gcd(A, t) <= span*h/k:
    D = g*gcd(A, t) divides k - 1 and is at least k(k-1)/(span*h).  The
    factors of D = g*e are coprime (g divides h*t - 1, e divides t), and
    every such c2B has t = 0 mod e and h*t = 1 mod g, one residue of t
    modulo D.  So for each h | k, each large enough D | k - 1 and each
    coprime split D = g*e, one progression of difference h*D covers the
    candidates; where the range of t is shorter than that list of
    splits, every t in it is a candidate instead.  Each candidate then
    takes the exact test.  Divisor lists come from one sieve up to span.
    """
    divisors: list[list[int]] = [[] for _ in range(span + 1)]
    for d in range(1, span + 1):
        for m in range(d, span + 1, d):
            divisors[m].append(d)
    for k in range(3, span):
        lo = max(2, -(-k * k // span))
        if lo >= k:
            return
        splits = sorted((g * e, g, e) for g in divisors[k - 1]
                        for e in divisors[(k - 1) // g] if gcd(g, e) == 1)
        c2bs = set()
        for h in divisors[k][:-1]:
            first_split = bisect_left(splits, (-(-k * (k - 1) // (span * h)),))
            t_lo = -(-lo // h)
            if (k - 1) // h - t_lo < len(splits) - first_split:
                c2bs.update(range(h * t_lo, k, h))
                continue
            for D, g, e in splits[first_split:]:
                t0 = e * pow(h * e, -1, g) if g > 1 else 0  # t0 = 0 mod e, h*t0 = 1 mod g
                c2bs.update(range(lo + (h * t0 - lo) % (h * D), k, h * D))
        for c2b in sorted(c2bs):
            step = lcm((k - 1) // gcd(k - c2b, k - 1), c2b // gcd(k, c2b))
            first, last = ((k - 1) // step + 1) * step, span * c2b // k
            if first <= last:
                yield k, c2b, step, first, last


def enumerate_feasible(max_side: int) -> list[FeasibilityReport]:
    """All canonical (k < l) arrays with both classes at most max_side.

    The listing keeps every array whose structural conditions hold;
    homogeneity and plane failures are reported as ``infeasible`` status
    on listed rows.  Output is a pure function of max_side, sorted by
    (nB, nC, k, l, c2B, c3B).

    Each bound and stride drops only tuples the cell recursion rejects:
    k4 >= 1 gives k2 = k(l-1)/c2B <= max_side - 2, and l - 1 >= k, so
    c2B starts at k^2/(max_side-2); l - 1 steps by the lcm of the strides
    making k2 and c2C integral, and only the c2B leaving some l - 1 in
    range are visited (:func:`_c2b_strides`, integer divisor arithmetic);
    c3B steps so that c3C is integral and at most k - 1; and a c3B that
    does not divide k2*b2B (k3 not integral) is skipped before any object
    is built.  The products hold by construction; full reports are built
    only for rows passing the counts and halved-SRG checks.
    """
    if max_side < 2:
        raise ValueError("max_side must be at least 2")
    span = max_side - 2
    rows: list[FeasibilityReport] = []
    for k, c2b, step, first, last in _c2b_strides(span):
        for l_minus1 in range(first, last + 1, step):
            l, k2b2 = l_minus1 + 1, k * l_minus1 // c2b * (k - c2b)
            c2c = l - (l_minus1 * (k - c2b)) // (k - 1)
            step3 = c2c // gcd(c2b, c2c)
            for c3b in range(step3, min(l - 1, (k - 1) * c2c // c2b) + 1, step3):
                if k2b2 % c3b:  # k3 = k2*b2B/c3B is not an integer
                    continue
                cand = IntersectionArray(k, l, (1, c2b, c3b, k), (1, c2c, c2b * c3b // c2c, l))
                counts = vertex_counts(cand)
                if counts.ok and counts.nB <= max_side and counts.nC <= max_side:
                    srg = halved_srg_derive(cand, counts)
                    if srg.ok:
                        rows.append(_report(cand, counts, srg))
    rows.sort(key=lambda r: (r.counts.nB, r.counts.nC, r.array.k, r.array.l,
                             r.array.cB[1], r.array.cB[2]))
    return rows


# ---------------------------------------------------------------------------
# Reference catalog
# ---------------------------------------------------------------------------

def reference_table(path: str | None = None) -> list[dict]:
    """Curated catalog of the known feasible-array table with statuses.

    ValueError if the JSON is malformed, a status is unknown, an array
    does not parse as a diameter-4 intersection array, or two rows list
    the same array (in either orientation)."""
    if path is None:
        text = resources.files("dbrg").joinpath("data/catalog.json").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    try:
        rows = json.loads(text)["rows"]
        seen = set()
        for row in rows:
            if row["status"] not in ("exists", "unknown", "nonexistent"):
                raise ValueError(f"catalog status {row['status']!r} invalid")
            key = _canon_key(IntersectionArray.parse(row["array"]))  # a diameter-4 array
            if key in seen:
                raise ValueError(f"malformed catalog: {key} listed twice")
            seen.add(key)
    except (json.JSONDecodeError, RecursionError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed catalog: {exc!r}") from exc
    return rows


def _canon_key(arr: IntersectionArray) -> str:
    return str(_diameter4(arr).canonical())


def compare_with_reference(
    rows: list[FeasibilityReport], reference: list[dict]
) -> tuple[list[str], list[FeasibilityReport], list[str]]:
    """Split into (matched keys, extra rows, missing keys) vs the catalog."""
    have = {_canon_key(r.array): r for r in rows}
    ref_keys = {_canon_key(IntersectionArray.parse(row["array"])) for row in reference}
    matched = sorted(k for k in have if k in ref_keys)
    extras = [have[k] for k in sorted(have) if k not in ref_keys]
    missing = sorted(k for k in ref_keys if k not in have)
    return matched, extras, missing


def catalog_annotate(rows: list[FeasibilityReport], catalog: list[dict]) -> list[dict]:
    """Join computed verdicts with curated statuses.

    A computed-infeasible row whose catalog status is ``exists`` is a
    hard error: one of the two is wrong.
    """
    by_key = {_canon_key(IntersectionArray.parse(row["array"])): row for row in catalog}
    out = []
    for rep in rows:
        key = _canon_key(rep.array)
        cat = by_key.get(key)
        status = cat["status"] if cat else "extra"
        if cat and rep.status == "infeasible" and cat["status"] == "exists":
            raise ValueError(
                f"catalog conflict for {key}: computed infeasible "
                f"({'; '.join(rep.reasons)}) but catalog says it exists"
            )
        out.append(
            {
                "array": key,
                "computed_status": rep.status,
                "reasons": list(rep.reasons),
                "catalog_status": status,
                "note": cat.get("note", "") if cat else "not in reference table",
                "halved_B": list(rep.srg.B.tuple4()),
                "halved_C": list(rep.srg.C.tuple4()),
            }
        )
    return out


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ["k", "c2B", "c3B", "l", "c2C", "c3C", "nB", "nC",
                "srgB", "srgC", "status", "reasons"]


def rows_to_csv(rows: Iterable[FeasibilityReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for r in rows:
        a = r.array
        writer.writerow(
            [
                a.k, a.cB[1], a.cB[2], a.l, a.cC[1], a.cC[2],
                r.counts.nB, r.counts.nC,
                "(%d,%d,%d,%d)" % r.srg.B.tuple4(),
                "(%d,%d,%d,%d)" % r.srg.C.tuple4(),
                r.status,
                "; ".join(r.reasons),
            ]
        )
    return buf.getvalue()


def rows_to_json(rows: Iterable[FeasibilityReport]) -> str:
    payload = []
    for r in rows:
        a = r.array
        payload.append(
            {
                "array": str(a),
                "k": a.k, "l": a.l,
                "c2B": a.cB[1], "c3B": a.cB[2], "c2C": a.cC[1], "c3C": a.cC[2],
                "nB": r.counts.nB, "nC": r.counts.nC,
                "cells_B": list(r.counts.cells_B),
                "cells_C": list(r.counts.cells_C),
                "theta": r.srg.theta,
                "srgB": {
                    "params": list(r.srg.B.tuple4()),
                    "eigenvalues": [r.srg.B.r, r.srg.B.s],
                    "multiplicities": [r.srg.B.f1, r.srg.B.f2],
                },
                "srgC": {
                    "params": list(r.srg.C.tuple4()),
                    "eigenvalues": [r.srg.C.r, r.srg.C.s],
                    "multiplicities": [r.srg.C.f1, r.srg.C.f2],
                },
                "delta_gamma": [
                    {
                        "i": e.i,
                        "orientation": e.orientation,
                        "delta": str(e.delta),
                        "gamma": None if e.gamma is None else str(e.gamma),
                        "ok": e.ok,
                    }
                    for e in r.delta_gamma
                ],
                "status": r.status,
                "reasons": list(r.reasons),
            }
        )
    return json.dumps({"rows": payload}, indent=2) + "\n"
