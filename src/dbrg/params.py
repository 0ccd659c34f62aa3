"""Parameter records shared by the graph, feasibility and perp layers.

:class:`IntersectionArray` is the one array type: it holds the two
c-lines of a distance-biregular graph, derives the b-numbers, reads and
prints them as ``{k;c1,...,cdB | l;c1,...,cdC}`` and orients them
(``swapped``, ``canonical``).  The graph checks, the constructions and
the feasibility conditions all read it.  :func:`homogeneity` is the one
Delta/gamma formula, shared by the feasibility conditions and the
derived-graph construction.  :class:`SrgParams` holds the parameters of
a strongly regular graph, which come from one derivation,
:func:`srg_from_spectrum`, used by both the feasibility conditions and
the perp-system parameters.  :class:`Condition` is the one record of a
named check with its verdict, for array conditions and perp-system
parameter rules alike.

The module is plain integer and Fraction arithmetic and imports no
numpy, so the feasibility layer runs without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Condition",
    "IntersectionArray",
    "arrays_equal_up_to_swap",
    "homogeneity",
    "SrgParams",
    "srg_from_spectrum",
]


@dataclass(frozen=True)
class Condition:
    """One named necessary condition and whether it holds."""

    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class IntersectionArray:
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
        """Read ``{k;c_1,...,c_dB | l;c_1,...,c_dC}`` ('/' may replace '|');
        ValueError quoting ``text`` if it has another form."""
        body = text.strip().strip("{}")
        sep = "|" if "|" in body else "/"
        parts = body.split(sep)
        if len(parts) != 2:
            raise ValueError(f"cannot parse intersection array {text!r}: expected two lines")
        lines = []
        for part in parts:
            head, _, rest = part.partition(";")
            try:
                lines.append((int(head), tuple(int(x) for x in rest.split(","))))
            except ValueError as exc:
                raise ValueError(f"cannot parse intersection array {text!r}: each line must be "
                                 "'<valency>;<c_1>,...,<c_d>' with integer entries") from exc
        (k, cb), (l, cc) = lines
        return cls(k, l, cb, cc)


def arrays_equal_up_to_swap(a: IntersectionArray, b: IntersectionArray) -> bool:
    return a == b or a.swapped() == b


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


@dataclass(frozen=True)
class SrgParams:
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
