"""Parameter records shared by the graph, feasibility and perp layers.

:class:`IntersectionArray` is the one array type: it holds the two
c-lines of a distance-biregular graph, derives the b-numbers, reads and
prints them as ``{k;c1,...,cdB | l;c1,...,cdC}`` and orients them
(``swapped``, ``canonical``).  The graph checks, the constructions and
the feasibility conditions all read it.  :func:`homogeneity` is the one
Delta/gamma formula, shared by the feasibility conditions and
:func:`derived_array`, the hypotheses and predicted array of a local
derived graph.  :class:`SrgParams` holds the parameters of
a strongly regular graph, which come from one derivation,
:func:`srg_from_spectrum`, used by both the feasibility conditions and
:func:`perp_srg_params`.  :class:`Condition` is the one record of a
named check with its verdict, for array conditions and the perp-system
rules of :func:`perp_params` alike.  :func:`prime_power` is the one
factorisation of a field order q = p^t, and the one place that bounds
it by 2^16.

The module is plain integer and Fraction arithmetic and imports no
numpy, so the feasibility layer and the perp-system parameters run
without it.  Its records are :class:`typing.NamedTuple` classes, not
dataclasses: importing :mod:`dataclasses` loads :mod:`inspect` and its
parsers, which would outweigh the integer work of a feasibility command.
A record is therefore a tuple: it compares equal to the tuple of its
fields, and it hashes, iterates and orders as that tuple.  The three
functions that use :class:`fractions.Fraction` import it themselves, so
the perp commands, which need only :func:`prime_power` and
:func:`perp_params`, load neither :mod:`fractions` nor the
:mod:`decimal` and :mod:`numbers` it imports.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Condition",
    "IntersectionArray",
    "homogeneity",
    "DerivedGraphError",
    "derived_array",
    "SrgParams",
    "srg_from_spectrum",
    "prime_power",
    "ParamReport",
    "perp_params",
    "perp_srg_params",
]


class Condition(NamedTuple):
    """One named necessary condition and whether it holds."""

    name: str
    ok: bool
    detail: str = ""


class IntersectionArray(NamedTuple):
    """The two c-lines of a distance-biregular graph.

    ``k`` and ``cB`` describe vertices in B (valency k, c_1..c_dB), and
    ``l``, ``cC`` the C side.  The b-numbers are derived: at even
    distance from a base vertex the counts sum to the base side's
    valency, at odd distance to the other valency.
    """

    k: int
    l: int
    cB: tuple[int, ...]
    cC: tuple[int, ...]

    @property
    def dB(self) -> int:
        return len(self.cB)

    @property
    def dC(self) -> int:
        return len(self.cC)

    def bB(self, i: int) -> int:
        if i == 0:
            return self.k
        return (self.k if i % 2 == 0 else self.l) - self.cB[i - 1]

    def bC(self, i: int) -> int:
        if i == 0:
            return self.l
        return (self.l if i % 2 == 0 else self.k) - self.cC[i - 1]

    def validate(self) -> None:
        """Raise ValueError if a necessary condition on the array fails."""
        for name, k, cs in (("B", self.k, self.cB), ("C", self.l, self.cC)):
            other = self.l if name == "B" else self.k
            if not cs or cs[0] != 1:
                raise ValueError(f"{name}-line must start with c_1 = 1")
            d = len(cs)
            for i, c in enumerate(cs, start=1):
                cap = k if i % 2 == 0 else other
                if i == d and c != cap:
                    raise ValueError(f"final c of {name}-line must equal {cap}")
                if i < d and not 1 <= c < cap:  # b_i > 0: a vertex lies at distance i + 1
                    raise ValueError(f"c_{i}^{name} = {c} outside [1, {cap}) before the last cell")
        if abs(self.dB - self.dC) > 1:  # adjacent eccentricities differ by at most one
            raise ValueError(f"covering radii {self.dB} and {self.dC} differ by more than one")
        if max(self.dB, self.dC) % 2 and self.k != self.l:
            raise ValueError("odd diameter forces a regular graph (k = l)")

    @property
    def regular(self) -> bool:
        return self.k == self.l

    def swapped(self) -> "IntersectionArray":
        return IntersectionArray(self.l, self.k, self.cC, self.cB)

    def canonical(self) -> "IntersectionArray":
        """The orientation with the smaller valency first (k <= l)."""
        return self if self.k <= self.l else self.swapped()

    def __str__(self) -> str:
        top = ",".join(map(str, self.cB))
        bot = ",".join(map(str, self.cC))
        return f"{{{self.k};{top} | {self.l};{bot}}}"

    @classmethod
    def parse(cls, text: str) -> "IntersectionArray":
        """Read ``{k;c_1,...,c_dB | l;c_1,...,c_dC}`` ('/' may replace '|'),
        each entry ASCII digits after an optional minus sign (so ``str`` of
        any array reads back), spaces around it allowed; ValueError quoting
        ``text`` if it has another form."""
        body = text.strip().strip("{}")
        sep = "|" if "|" in body else "/"
        parts = body.split(sep)
        if len(parts) != 2:
            raise ValueError(f"cannot parse intersection array {text!r}: expected two lines")
        lines = []
        for part in parts:
            head, _, rest = part.partition(";")
            entries = [x.strip() for x in (head, *rest.split(","))]
            if not all((n := x.removeprefix("-")).isascii() and n.isdigit() for x in entries):
                raise ValueError(f"cannot parse intersection array {text!r}: each line must be "
                                 "'<valency>;<c_1>,...,<c_d>' with ASCII-digit entries")
            lines.append((int(entries[0]), tuple(map(int, entries[1:]))))
        (k, cb), (l, cc) = lines
        return cls(k, l, cb, cc)


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

    ValueError if i is not 2 or 3, if a covering radius is below 4, or if
    den = 0 (then Delta_i = 0 and gamma_i is undefined).
    """
    if i not in (2, 3):
        raise ValueError(f"homogeneity is defined for i = 2 and 3, got i = {i}")
    if arr.dB < 4 or arr.dC < 4:
        raise ValueError(f"{arr}: homogeneity needs covering radii at least 4, "
                         f"got {arr.dB} and {arr.dC}")
    from fractions import Fraction

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


class DerivedGraphError(ValueError):
    """A hypothesis of the local derivation fails; names the condition."""

    def __init__(self, condition: str, detail: str = ""):
        super().__init__(f"{condition}" + (f": {detail}" if detail else ""))
        self.condition = condition


def derived_array(arr: IntersectionArray) -> tuple[IntersectionArray, int]:
    """(array, gamma3) of the graph induced on the vertices at distance 3
    (class B) and 4 (class C) from a vertex of class C, for a parent array.

    ValueError if ``arr`` is invalid; else :class:`DerivedGraphError` names
    the first failing hypothesis: ``diameter`` (covering radii >= 4),
    ``gamma3_undefined``, ``delta3_nonzero`` (Delta_3 = 0), ``c2_bound``
    (c2B > gamma3), ``b3_bound`` (b3C > c2B - gamma3), ``gamma3_integrality``
    and ``array_integrality`` (the derived c3C is an integer).
    """
    arr.validate()
    if arr.dB < 4 or arr.dC < 4:
        raise DerivedGraphError("diameter", "parent must have covering radii at least 4")
    c2b, c3b, c2c, b3c = arr.cB[1], arr.cB[2], arr.cC[1], arr.bC(3)
    try:
        delta3, gamma3 = homogeneity(arr, 3)
    except ValueError as exc:
        raise DerivedGraphError("gamma3_undefined", str(exc)) from None
    if delta3 != 0:
        raise DerivedGraphError("delta3_nonzero", f"distance-3 homogeneity scalar is {delta3}")
    if not (c2b > gamma3):
        raise DerivedGraphError("c2_bound", f"need c2 > gamma3 = {gamma3}")
    if not (b3c > c2b - gamma3):
        raise DerivedGraphError("b3_bound", f"need b3 > c2 - gamma3 = {c2b - gamma3}")
    if gamma3.denominator != 1:
        raise DerivedGraphError("gamma3_integrality", f"gamma3 = {gamma3} is not an integer")
    gamma3 = int(gamma3)
    c2_new = c2b - gamma3
    if (c2_new * c3b) % c2c:
        raise DerivedGraphError("array_integrality", "derived c3 is not an integer")
    return IntersectionArray(b3c, arr.l, (1, c2_new, c3b, b3c),
                             (1, c2c, c2_new * c3b // c2c, arr.l)), gamma3


class SrgParams(NamedTuple):
    """Strongly regular parameters with the eigenvalues r >= 0 > s of the
    adjacency matrix and their multiplicities f1, f2."""

    v: int
    k: int
    lam: int
    mu: int
    r: int
    s: int
    f1: int
    f2: int

    def tuple4(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.mu)


def srg_from_spectrum(v: int, k: int | Fraction, r: int | Fraction,
                      s: int | Fraction) -> SrgParams:
    """The strongly regular graph on v vertices with eigenvalues k, r, s.

    mu = k + r*s and lambda = mu + r + s; f1 and f2 solve f1 + f2 = v - 1
    and k + f1*r + f2*s = 0.  ValueError names the first failing
    condition (Brouwer-Cohen-Neumaier, *Distance-Regular Graphs*, 1.3 and
    2.3): integral eigenvalues with r >= 0 > s, integral non-negative
    multiplicities, lambda >= 0, 1 <= mu <= k, the counting identity
    k(k - lambda - 1) = (v - k - 1) mu, and both Krein inequalities.
    """
    if k.denominator != 1 or r.denominator != 1 or s.denominator != 1:
        raise ValueError("non-integral halved eigenvalue")
    k, r, s = int(k), int(r), int(s)
    mu = k + r * s
    lam = mu + r + s
    if not r >= 0 > s:
        raise ValueError(f"eigenvalues out of order: r={r}, s={s}")
    f1, rem = divmod(-k - (v - 1) * s, r - s)
    if rem:
        from fractions import Fraction

        raise ValueError(f"non-integral multiplicity f1 = {Fraction(-k - (v - 1) * s, r - s)}")
    f2 = v - 1 - f1
    if f1 < 0 or f2 < 0:
        raise ValueError(f"negative multiplicity (f1={f1}, f2={f2})")
    if lam < 0:
        raise ValueError(f"negative lambda = {lam}")
    if mu < 1 or mu > k:
        raise ValueError(f"mu = {mu} outside [1, k]")
    if k * (k - lam - 1) != (v - k - 1) * mu:
        raise ValueError("SRG counting identity fails")
    if ((r + 1) * (k + r + 2 * r * s) > (k + r) * (s + 1) ** 2
            or (s + 1) * (k + s + 2 * r * s) > (k + s) * (r + 1) ** 2):
        raise ValueError(f"Krein condition fails for ({v},{k},{lam},{mu})")
    return SrgParams(v, k, lam, mu, r, s, f1, f2)


def prime_power(q: int) -> tuple[int, int]:
    """(p, t) with q = p^t and p prime: the order of a field GF(q).

    ValueError if q is not a prime power, or if q exceeds 2^16, the bound
    on field orders, which is checked before any trial division.
    """
    if q < 2:
        raise ValueError(f"q={q} is not a prime power")
    if q > 2**16:
        raise ValueError(f"field order q={q} exceeds supported bound 2^16")
    p = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)
    t, rest = 0, q
    while rest % p == 0:
        rest //= p
        t += 1
    if rest != 1:
        raise ValueError(f"q={q} is not a prime power")
    return p, t


class ParamReport(NamedTuple):
    """The admissibility rules for a perp system with parameters (n, k, q, d),
    and its member count s when that is an integer (else None)."""

    n: int
    k: int
    q: int
    d: int
    s: int | None
    checks: tuple[Condition, ...]

    @property
    def admissible(self) -> bool:
        return all(c.ok for c in self.checks)

    def forced_s(self) -> int:
        """The member count; ValueError naming the failed rules if inadmissible."""
        if not self.admissible:
            reasons = "; ".join(c.detail for c in self.checks if not c.ok)
            raise ValueError(f"inadmissible parameters: {reasons}")
        return self.s


def perp_params(n: int, k: int, q: int, d: int) -> ParamReport:
    """Forced member count s plus the admissibility rules for (n,k,q,d).

    ValueError if q is not a field order (:func:`prime_power`)."""
    p, _ = prime_power(q)
    checks: list[Condition] = []
    s: int | None = None

    if k < 1 or 2 * k > n:
        checks.append(Condition("range", False, f"need 1 <= k <= n/2, got k={k}, n={n}"))
    elif d < 2:
        checks.append(Condition("range", False, f"need d >= 2, got d={d}"))
    elif n == 2 * k:
        checks.append(
            Condition(
                "range", False,
                "n = 2k is inadmissible for d >= 2: the member-count formula degenerates "
                "and d would have to be a non-positive power of p",
            )
        )
    else:
        checks.append(Condition("range", True))
        num = (d - 1) * (q ** (n - k) - 1)
        den = q ** (n - 2 * k) - 1
        if num % den:
            checks.append(Condition(
                "count", False, "member count (d-1)(q^(n-k)-1)/(q^(n-2k)-1)+1 is not an integer"))
        else:
            s = num // den + 1
            checks.append(Condition("count", True, f"s = {s}"))
        # d = q^(n-2k) / p^i for a nonnegative integer i
        dd = d
        while dd % p == 0:
            dd //= p
        if dd != 1 or d > q ** (n - 2 * k):
            checks.append(
                Condition(
                    "multiplicity", False,
                    f"d={d} must be a power of {p} dividing q^(n-2k)={q ** (n - 2 * k)}",
                )
            )
        else:
            checks.append(Condition("multiplicity", True))
        if d >= q ** max(n - 3 * k, 0) or n <= 4 * k - 1:
            checks.append(Condition("dimension", True))
        else:
            checks.append(
                Condition(
                    "dimension", False,
                    f"need d >= q^(n-3k) = {q ** (n - 3 * k)} or n <= 4k-1 = {4 * k - 1}",
                )
            )
    return ParamReport(n, k, q, d, s, tuple(checks))


def perp_srg_params(n: int, k: int, q: int, d: int) -> SrgParams:
    """Strongly regular parameters of the distance-two graph on the vectors
    of F_q^n of a perp system with parameters (n, k, q, d).

    With the member count s forced by :func:`perp_params`, its eigenvalues
    are s(q^(n-k) - 1)/d, (q^(n-k) - s)/d and -s/d, and
    mu = q^(n-2k) s (s-1) / d^2.  ValueError if (n, k, q, d) is
    inadmissible, or if :func:`srg_from_spectrum` rejects the spectrum.
    """
    from fractions import Fraction

    s = perp_params(n, k, q, d).forced_s()
    return srg_from_spectrum(q**n, Fraction(s * (q ** (n - k) - 1), d),
                             Fraction(q ** (n - k) - s, d), Fraction(-s, d))
