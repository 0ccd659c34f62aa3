"""Intersection-array text, field orders, and the perp-system parameters."""

import hashlib
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dbrg.feasibility import enumerate_feasible, evaluate
from dbrg.params import (DerivedGraphError, IntersectionArray, derived_array, homogeneity,
                         perp_params, perp_srg_params, prime_power)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

lines = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6).map(tuple)
arrays = st.builds(IntersectionArray, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
                   lines, lines)
# text near the format, so the parser's later branches are reached too
near_format = st.text(alphabet="{};|/,-+ 0123456789\n\t", max_size=40)


@SETTINGS
@given(arrays)
def test_parse_inverts_str(a):
    assert IntersectionArray.parse(str(a)) == a


@SETTINGS
@given(st.one_of(st.text(max_size=40), near_format))
def test_parse_accepts_or_raises_value_error(text):
    try:
        a = IntersectionArray.parse(text)
    except ValueError:
        return
    assert IntersectionArray.parse(str(a)) == a


@pytest.mark.parametrize("text", [
    "{\u0663;1,\u0663 | \u0663;1,\u0663}",  # Arabic-Indic digit three
    "{1_0;1,2 | 3;1,3}",
    "{+3;1,3 | 3;1,3}",
])
def test_parse_accepts_ascii_digits_only(text):
    with pytest.raises(ValueError, match="cannot parse intersection array"):
        IntersectionArray.parse(text)


def test_parsed_array_repr_and_str():
    a = IntersectionArray.parse("{5;1,2,3,5 / 7;1,2,3,7}")
    assert repr(a) == "IntersectionArray(k=5, l=7, cB=(1, 2, 3, 5), cC=(1, 2, 3, 7))"
    assert str(a) == "{5;1,2,3,5 | 7;1,2,3,7}"
    # a NamedTuple record is the tuple of its fields
    assert a == (5, 7, (1, 2, 3, 5), (1, 2, 3, 7)) and hash(a) == hash(tuple(a))


def test_integer_layer_records_refuse_attribute_assignment():
    rep = evaluate(IntersectionArray.parse("{6;1,2,10,6 | 16;1,4,5,16}"))
    records = [rep.array, rep.conditions[0], rep.srg.B, perp_params(6, 2, 3, 3),
               rep.counts, rep.delta_gamma[0], rep.srg, rep]
    assert [type(r).__name__ for r in records] == [
        "IntersectionArray", "Condition", "SrgParams", "ParamReport",
        "Counts", "DeltaGammaEntry", "SrgDerivation", "FeasibilityReport"]
    for r in records:
        with pytest.raises(AttributeError):
            setattr(r, type(r)._fields[0], None)
        with pytest.raises(AttributeError):
            r.note = ""


CONE_3 = IntersectionArray.parse("{40;1,4,9,40 | 27;1,3,12,27}")  # cone_graph(3)


def test_homogeneity_values_and_errors():
    assert homogeneity(CONE_3, 2) == (Fraction(6), None)
    assert homogeneity(CONE_3, 3) == (Fraction(96), None)
    # i = 0 used to wrap c_{i-1} to the last entry, i = 1 returned (0, 1)
    # and i = 4 ran off the c-line
    for i in (0, 1, 4):
        with pytest.raises(ValueError, match=f"^homogeneity is defined for i = 2 and 3, got i = {i}$"):
            homogeneity(CONE_3, i)
    with pytest.raises(ValueError, match=r"^\{3;1,3 \| 3;1,3\}: homogeneity needs covering radii "
                                         "at least 4, got 2 and 2$"):
        homogeneity(IntersectionArray.parse("{3;1,3 | 3;1,3}"), 2)


def test_homogeneity_pinned_on_the_2000_table():
    # (Delta_i, gamma_i) for i = 2, 3 in both orientations of each of the 91 rows
    rows = enumerate_feasible(2000)
    got = [homogeneity(arr, i) for r in rows for arr in (r.array, r.array.swapped())
           for i in (2, 3)]
    assert len(got) == 4 * 91
    assert _digest(got) == "5d8299574619fbc700c5d3ace26b69c14115eb1d2df7562c7edce6c1f0462272"


@pytest.mark.parametrize("text,condition,detail", [
    # gamma3_undefined: test_constructions.test_derived_rejects_undefined_gamma3
    ("{3;1,3 | 4;1,4}", "diameter", "parent must have covering radii at least 4"),
    ("{2;1,1,1,2 | 3;1,1,1,3}", "delta3_nonzero", "distance-3 homogeneity scalar is 2"),
    # c2B <= gamma3 needs c4C = 1, so a covering radius of 5 or more: the
    # subdivided Petersen graph, seen from a vertex of the Petersen graph
    ("{2;1,1,1,1,2,2 | 3;1,1,1,1,2}", "c2_bound", "need c2 > gamma3 = 1"),
    ("{2;1,1,1,2 | 2;1,1,1,2}", "b3_bound", "need b3 > c2 - gamma3 = 1"),
    ("{2;1,1,1,2 | 7;1,3,1,7}", "gamma3_integrality", "gamma3 = 1/3 is not an integer"),
    ("{6;1,2,1,6 | 5;1,2,4,5}", "array_integrality", "derived c3 is not an integer"),
])
def test_derived_array_names_each_failing_hypothesis(text, condition, detail):
    with pytest.raises(DerivedGraphError) as err:
        derived_array(IntersectionArray.parse(text))
    assert err.value.condition == condition
    assert str(err.value) == f"{condition}: {detail}"


def test_derived_array_values():
    assert derived_array(IntersectionArray.parse("{3;1,1,1,3 | 2;1,1,1,2}")) == (
        IntersectionArray.parse("{2;1,1,1,2 | 2;1,1,1,2}"), 0)
    # the generalised Delorme graph of the dual hyperoval in PG(2,8), at a B vertex
    assert derived_array(IntersectionArray.parse("{64;1,8,9,64 | 10;1,2,36,10}")) == (
        IntersectionArray.parse("{28;1,4,9,28 | 10;1,2,18,10}"), 4)


def _factor(q):
    try:
        return prime_power(q)
    except ValueError as exc:
        return str(exc)


def test_prime_power_matches_brute_force_factorisation():
    # smallest prime factors by sieve; q = p^t exactly when dividing out p leaves 1
    top = 2**16
    spf = list(range(top + 1))
    for f in range(2, 257):
        if spf[f] == f:
            for m in range(f * f, top + 1, f):
                spf[m] = min(spf[m], f)
    want = []
    for q in range(2, top + 1):
        p, t, rest = spf[q], 0, q
        while rest % p == 0:
            rest, t = rest // p, t + 1
        want.append((p, t) if rest == 1 else f"q={q} is not a prime power")
    got = [_factor(q) for q in range(2, top + 1)]
    assert got == want
    assert sum(isinstance(x, tuple) for x in got) == 6542 + 93  # primes, then p^t with t > 1


def test_prime_power_rejects_at_once():
    # the 2^16 bound comes before any trial division: 10^18 + 3 is a prime
    t0 = time.perf_counter()
    for q, message in ((0, "q=0 is not a prime power"), (1, "q=1 is not a prime power"),
                       (12, "q=12 is not a prime power"),
                       (2**16 + 1, "field order q=65537 exceeds supported bound 2^16"),
                       (10**18 + 3, "field order q=1000000000000000003 exceeds supported "
                                    "bound 2^16")):
        assert _factor(q) == message
    assert time.perf_counter() - t0 < 1


# every (n, k, q, d) with q a field order up to 16, 2 <= n <= 8, 1 <= k <= n/2
# and 2 <= d <= 64, in this order
SWEEP = [(n, k, q, d) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16) for n in range(2, 9)
         for k in range(1, n // 2 + 1) for d in range(2, 65)]


def _digest(lines):
    return hashlib.sha256("".join(repr(line) + "\n" for line in lines).encode()).hexdigest()


def test_perp_params_sweep_pinned():
    # each report: member count and every rule with its verdict and detail
    reports = [perp_params(*x) for x in SWEEP]
    assert (len(reports), sum(r.admissible for r in reports)) == (10080, 102)
    assert _digest((r.n, r.k, r.q, r.d, r.s, [(c.name, c.ok, c.detail) for c in r.checks])
                   for r in reports) == (
        "32d19f078afe7ffa38e68e2343c01acd7decfeb061aae8dd371c9e7fe3cb27db")


def test_perp_srg_params_pinned_on_the_admissible_sweep():
    # all 102 admissible sets give a strongly regular graph; the rest raise
    lines = []
    for x in SWEEP:
        if perp_params(*x).admissible:
            p = perp_srg_params(*x)
            lines.append(x + (perp_params(*x).s, p.v, p.k, p.lam, p.mu, p.r, p.s, p.f1, p.f2))
        else:
            with pytest.raises(ValueError, match="^inadmissible parameters: "):
                perp_srg_params(*x)
    assert len(lines) == 102
    assert lines[:2] == [(3, 1, 2, 2, 4, 8, 6, 4, 6, 0, -2, 4, 3),
                         (4, 1, 2, 4, 8, 16, 14, 12, 14, 0, -2, 8, 7)]
    assert _digest(lines) == "272eac537f6ffd23135c41d462223cae92037c3caaad2baa670f9ffdfe518786"
