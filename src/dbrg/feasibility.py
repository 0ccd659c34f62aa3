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
  scalar Delta_i of :func:`dbrg.params.homogeneity` vanishes the associated
  triple-intersection constant gamma_i must be a non-negative integer;
* both halved graphs must carry consistent strongly-regular parameters
  with integral eigenvalues and multiplicities, non-negative lambda,
  mu <= k, the SRG counting identity, and the two Krein inequalities;
* arrays matching the pattern of the degree-2 maximal-arc family force
  a projective plane of the corresponding order (order 6 and 10 are
  impossible, and Bruck-Ryser applies).

Everything is exact integer/Fraction arithmetic, and the module imports
no numpy.  ``enumerate_feasible`` reproduces the known table of
admissible arrays up to 1300 vertices per side.  It works in integers
first.  With g = gcd(c2B - 1, k - 1), both c2B and c2C divide
delta = (k - c2B)/g whenever the halved graphs' least eigenvalues -k/c2B
and -l/c2C are integers, so the (k, c2B, l) come from pairs of divisors
of delta (:func:`_c2b_strides`).  Both cell recursions then run on
integers over c3B, and only the tuples that pass become arrays and
reports.  Each of these tests drops only tuples that the cell recursion
or the halved-SRG derivation rejects (see ``enumerate_feasible``).
Arrays that only the homogeneity or plane conditions reject stay listed
with status ``infeasible`` (they are part of the table), while anything
failing a structural condition is not listed at all.

Its records are NamedTuple classes, as in :mod:`dbrg.params`, and the
bundled catalog is read as a file next to the module, so a feasibility
command loads neither :mod:`dataclasses` (and with it :mod:`inspect`)
nor :mod:`importlib.resources`.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import gcd, isqrt, lcm
from pathlib import Path
from typing import Iterable, NamedTuple

from .params import Condition, IntersectionArray, SrgParams, homogeneity, srg_from_spectrum

__all__ = [
    "FeasibilityReport",
    "DeltaGammaEntry",
    "SrgDerivation",
    "vertex_counts",
    "delorme_relations_check",
    "delta_gamma_check",
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


class Counts(NamedTuple):
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


class DeltaGammaEntry(NamedTuple):
    i: int
    orientation: str  # "as-given" | "swapped"
    delta: Fraction
    gamma: Fraction | None  # set when delta == 0
    ok: bool


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


class SrgDerivation(NamedTuple):
    ok: bool
    theta: int | None = None
    B: SrgParams | None = None
    C: SrgParams | None = None
    detail: str = ""


def halved_srg_derive(a: IntersectionArray) -> SrgDerivation:
    """Strongly-regular parameters of both halved graphs, or a rejection.

    The middle eigenvalue theta of the walk matrix is forced by the
    array (the trace of the squared side-quotient, sum_i b_i c_{i+1} - kl
    on either line); each halved graph then has eigenvalues k_H,
    (theta-val)/c2, -val/c2, on the class sizes of :func:`vertex_counts`.
    """
    counts = vertex_counts(a)
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


class FeasibilityReport(NamedTuple):
    array: IntersectionArray
    counts: Counts
    conditions: tuple[Condition, ...]
    delta_gamma: tuple[DeltaGammaEntry, ...]
    srg: SrgDerivation
    status: str  # feasible | infeasible | flagged
    reasons: tuple[str, ...]


def evaluate(a: IntersectionArray) -> FeasibilityReport:
    """Run every implemented condition on one diameter-4, girth-4 array;
    ValueError if ``a`` is not one."""
    return _report(_diameter4(a), halved_srg_derive(a))


def _report(a: IntersectionArray, srg: SrgDerivation) -> FeasibilityReport:
    """The full report, given ``halved_srg_derive(a)``."""
    counts = vertex_counts(a)
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


def _c2b_strides(span: int) -> list[tuple[int, int, int, int]]:
    """Every ``(k, c2B, l, c2C)``, sorted, with

        2 <= c2B < k < l and k(l-1) <= span*c2B (k2 at most span),
        c2C = l - (l-1)(k-c2B)/(k-1) an integer (b1B*b2B = b1C*b2C),
        c2B | k and c2C | l.

    The last two are the integrality of the least eigenvalues -k/c2B and
    -l/c2C of the halved graphs, which :func:`halved_srg_derive`
    requires; they also make both second cells, k2 = (k/c2B)(l-1) and
    kC2 = (l/c2C)(k-1), integers.

    Write g = gcd(c2B - 1, k - 1), a = (c2B - 1)/g and b = (k - 1)/g, so
    k = 1 + g*b and c2B = 1 + g*a with a < b coprime.  c2C is an integer
    iff b | l - 1; then l = 1 + t*b and c2C = 1 + t*a, and l > k is
    t > g.  With delta = b - a, k = c2B + g*delta and l = c2C + t*delta,
    and c2B is prime to g and c2C to t, so the conditions read alike
    under g <-> t:

        c2B | k   <=>  c2B | delta,       c2C | l   <=>  c2C | delta,
        k2 integral   <=>  c2B | t*b*delta,
        kC2 integral  <=>  c2C | g*b*delta = (k - c2B)(k - 1)/g.

    So the tuples are the (a, g, t, delta) with 1 <= g < t, delta a
    multiple of lcm(c2B, c2C) and gcd(a, delta) = 1.  k2 =
    (1 + g*b)*t*b/(1 + g*a) grows with g, t and delta, and delta >=
    c2C = 1 + t*a, so each loop ends at the first value for which even
    the smallest later choices (g = 1, t = g + 1, delta = 1 + t*a) give
    k2 > span; that smallest k2 grows with the loop variable.
    """
    def over(a: int, g: int, t: int, delta: int) -> bool:
        b = a + delta
        return (1 + g * b) * t * b > span * (1 + g * a)

    out = []
    a = 1
    while not over(a, 1, 2, 1 + 2 * a):
        g = 1
        while not over(a, g, g + 1, 1 + (g + 1) * a):
            c2b, t = 1 + g * a, g + 1
            while not over(a, g, t, 1 + t * a):
                c2c = 1 + t * a
                step = lcm(c2b, c2c)
                delta = step
                while not over(a, g, t, delta):
                    if gcd(a, delta) == 1:
                        b = a + delta
                        out.append((1 + g * b, c2b, 1 + t * b, c2c))
                    delta += step
                t += 1
            g += 1
        a += 1
    return sorted(out)


def enumerate_feasible(max_side: int) -> list[FeasibilityReport]:
    """All canonical (k < l) arrays with both classes at most max_side.

    The listing keeps every array whose structural conditions hold;
    homogeneity and plane failures are reported as ``infeasible`` status
    on listed rows.  Output is a pure function of max_side, sorted by
    (nB, nC, k, l, c2B, c3B).

    Each bound and test drops only tuples that the cell recursion or the
    halved-SRG derivation rejects, and all of them are integer arithmetic
    on the array's entries.  k4 >= 1 gives k2 = k(l-1)/c2B <= max_side - 2.
    The halved graphs' least eigenvalues -k/c2B and -l/c2C must be
    integers, and :func:`_c2b_strides` lists the (k, c2B, l) with c2B | k,
    c2C | l and k2 in range; both second cells are then integers.  c3B
    steps so that c3C is integral and at most k - 1, and starts at
    k2*b2B/(max_side - k), because nC = k + k3.  Both recursions then run
    on integers: k3, k4, kC3 and kC4 integral, the two sides' class sizes
    equal and at most max_side.  Only the tuples passing all of that
    become :class:`IntersectionArray` values and take
    :func:`vertex_counts`, the halved-SRG derivation and the full report;
    the products hold by construction.
    """
    if max_side < 2:
        raise ValueError("max_side must be at least 2")
    span = max_side - 2
    rows: list[FeasibilityReport] = []
    for k, c2b, l, c2c in _c2b_strides(span):
        k2, kc2 = k // c2b * (l - 1), l // c2c * (k - 1)
        k2b2, b2c = k2 * (k - c2b), l - c2c
        step3 = c2c // gcd(c2b, c2c)
        lo3 = -(-k2b2 // (max_side - k))  # nC = k + k3 <= max_side
        for c3b in range(-(-lo3 // step3) * step3,
                         min(l - 1, (k - 1) * c2c // c2b) + 1, step3):
            c3c = c2b * c3b // c2c
            k3, r3 = divmod(k2b2, c3b)
            k4, r4 = divmod(k3 * (l - c3b), k)
            kc3, s3 = divmod(kc2 * b2c, c3c)
            kc4, s4 = divmod(kc3 * (k - c3c), l)
            nB = 1 + k2 + k4
            if (r3 or r4 or s3 or s4 or nB > max_side
                    or (nB, k + k3) != (l + kc3, 1 + kc2 + kc4)):
                continue
            cand = IntersectionArray(k, l, (1, c2b, c3b, k), (1, c2c, c3c, l))
            srg = halved_srg_derive(cand)
            if srg.ok:
                rows.append(_report(cand, srg))
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
        text = (Path(__file__).parent / "data" / "catalog.json").read_text()
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
