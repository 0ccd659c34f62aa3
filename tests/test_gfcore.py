"""Field arithmetic, canonical subspaces, and enumeration counts."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbrg.gfcore import (echelon_bases, enumerate_subspaces, mul, scaling, subspace_vector_ids,
                         translations)
from dbrg.gfint import (FieldContext, field, format_vector, index_vector, orthogonal_complement,
                        parse_vector, point_vectors, qbinom, subspace_make)
from dbrg.params import prime_power

from oracles import contains, field_pow, reference_field, subspace_meet, vector_index


def test_prime_field_modulus_is_x():
    gf2 = field(2, 1)
    assert gf2.q == 2
    assert gf2.modulus == (0, 1)  # the polynomial x


def test_gf4_modulus_and_multiplication():
    gf4 = field(2, 2)
    assert gf4.modulus == (1, 1, 1)  # x^2 + x + 1, the unique irreducible quadratic
    x = 2  # the element 'x'
    assert gf4.mul(x, x) == 3  # x^2 = x + 1


def test_field_make_rejects_bad_input():
    with pytest.raises(ValueError):
        field(4, 1)
    with pytest.raises(ValueError):
        field(2, 0)
    with pytest.raises(ValueError):
        FieldContext(2, 2, modulus=(0, 0, 1))  # x^2 is reducible
    # taken as given: 3 and 21 are not coefficients over GF(2), though
    # they reduce mod 2 to those of the irreducible x^3 + x + 1
    for modulus in ((3, 1, 0, 1), (11, 1, 0, 21)):
        with pytest.raises(ValueError, match=r"coefficient outside 0\.\.1"):
            FieldContext(2, 3, modulus=modulus)
    # refused before any trial division of p or power p**t
    for p, t in ((10**18 + 3, 1), (2, 10**12), (65537, 1), (2, 17)):
        with pytest.raises(ValueError, match="exceeds supported bound 2"):
            FieldContext(p, t)


def field_axioms_hold(gf):
    els = list(gf.elements())
    for a in els:
        assert gf.add(a, 0) == a
        assert gf.mul(a, 1) == a
        assert gf.mul(a, 0) == 0
        assert gf.add(a, gf.neg(a)) == 0
    for a, b in itertools.product(els, repeat=2):
        assert gf.add(a, b) == gf.add(b, a)
        assert gf.mul(a, b) == gf.mul(b, a)
    for a, b, c in itertools.product(els, repeat=3):
        assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))


def test_gf9_axioms_exhaustive():
    field_axioms_hold(field(3, 2))


def test_characteristic_two_self_inverse():
    for t in (1, 2, 3):
        gf = field(2, t)
        for a in gf.elements():
            assert gf.add(a, a) == 0


def test_inverses_and_group_order():
    for p, t in [(2, 2), (3, 2), (2, 3), (5, 1), (7, 1)]:
        gf = field(p, t)
        for a in gf.nonzero():
            assert gf.mul(a, gf.inv(a)) == 1
            assert field_pow(gf, a, gf.q - 1) == 1


def test_field_arith_dispatch():
    gf = field(3, 1)
    assert gf.add(2, 2) == 1
    assert gf.mul(2, 2) == 1
    assert gf.inv(2) == 2
    assert field_pow(gf, 2, 3) == 2
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)


def digitwise_sum(p, a, b, digits):
    """Reference addition: base-p digit by digit, mod p, one digit at a time."""
    out, place = 0, 1
    for _ in range(digits):
        out += (a % p + b % p) % p * place
        a, b, place = a // p, b // p, place * p
    return out


# every field of order <= 81 that the tests use
SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (3, 3), (2, 5),
                (2, 6), (3, 4)]


@pytest.mark.parametrize("p,t", SMALL_FIELDS)
def test_add_matches_digitwise_reference_on_every_pair(p, t):
    gf = field(p, t)
    a, b = np.indices((gf.q, gf.q)).reshape(2, -1)
    want = [digitwise_sum(p, x, y, t) for x, y in zip(a.tolist(), b.tolist())]
    assert gf.add(a, b).tolist() == want
    assert [gf.add(x, y) for x, y in zip(a.tolist(), b.tolist())] == want


@pytest.mark.parametrize("p,t", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4), (3, 3),
                                 (2, 5)])
def test_mul_matches_polynomial_reference_on_every_pair(p, t):
    # zero has a log past every product of units, where the exp table is zero
    gf = field(p, t)
    a, b = np.indices((gf.q, gf.q)).reshape(2, -1)
    want = [gf._raw_mul(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert mul(gf, a, b).tolist() == want
    assert [gf.mul(x, y) for x, y in zip(a.tolist(), b.tolist())] == want


def test_field_tables_match_the_reference_bootstrap():
    # modulus, generator and tables of every GF(q) with q < 1100 (210
    # fields), bit for bit as the bootstrap on trimmed polynomial lists
    # builds them
    orders = []
    for q in range(2, 1100):
        try:
            orders.append(prime_power(q))
        except ValueError:
            continue
    assert len(orders) == 210
    for p, t in orders:
        gf = FieldContext(p, t)
        assert (gf.modulus, gf.generator, gf._exp, gf._log) == reference_field(p, t), (p, t)


@pytest.mark.parametrize("p,t", [(2, 9), (3, 6)])
def test_add_matches_digitwise_reference_on_a_sample(p, t):
    gf = field(p, t)
    rng = np.random.default_rng(20260418)
    a, b = rng.integers(0, gf.q, size=(2, 4000))
    want = [digitwise_sum(p, x, y, t) for x, y in zip(a.tolist(), b.tolist())]
    assert gf.add(a, b).tolist() == want
    assert [gf.add(x, y) for x, y in zip(a.tolist(), b.tolist())] == want
    # vector ids: n t digits, here n = 2
    u, v = rng.integers(0, gf.q**2, size=(2, 4000))
    want = [digitwise_sum(p, x, y, 2 * t) for x, y in zip(u.tolist(), v.tolist())]
    assert gf.add(u, v, 2 * t).tolist() == want
    assert [gf.add(x, y, 2 * t) for x, y in zip(u.tolist(), v.tolist())] == want


@pytest.mark.parametrize("p,t", [(2, 9), (3, 6)])
def test_field_axioms_on_a_sample_of_a_large_field(p, t):
    gf = field(p, t)
    rng = np.random.default_rng(7)
    a, b, c = rng.integers(0, gf.q, size=(3, 3000))
    neg_a, neg_b = mul(gf, gf.p - 1, a), mul(gf, gf.p - 1, b)
    assert (gf.add(a, gf.add(b, c)) == gf.add(gf.add(a, b), c)).all()
    assert (mul(gf, a, mul(gf, b, c)) == mul(gf, mul(gf, a, b), c)).all()
    assert (mul(gf, a, gf.add(b, c)) == gf.add(mul(gf, a, b), mul(gf, a, c))).all()
    assert (gf.add(a, b) == gf.add(b, a)).all() and (mul(gf, a, b) == mul(gf, b, a)).all()
    assert (gf.add(a, neg_a) == 0).all() and (gf.add(gf.add(a, neg_b), b) == a).all()
    assert (mul(gf, a, 1) == a).all() and (gf.add(a, 0) == a).all()
    assert [gf.neg(x) for x in a.tolist()[:300]] == neg_a[:300].tolist()
    for x, y in zip(a.tolist()[:300], b.tolist()[:300]):
        assert gf.mul(x, y) == int(mul(gf, np.array(x), np.array(y)))
        if x:
            assert gf.mul(x, gf.inv(x)) == 1 and field_pow(gf, x, gf.q - 1) == 1


def test_qbinom_small_values():
    assert qbinom(4, 1, 2) == 15
    assert qbinom(4, 2, 2) == 35
    assert qbinom(6, 4, 3) == 11011
    assert qbinom(3, 0, 5) == 1
    with pytest.raises(ValueError):
        qbinom(3, 4, 2)


def test_qbinom_matches_echelon_enumeration():
    # independent count: generate echelon matrices and count them
    assert sum(1 for _ in enumerate_subspaces(field(3), 6, 4)) == 11011


def test_subspace_make_row_reduction():
    gf2 = field(2)
    s = subspace_make(gf2, 3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert s.dim == 2
    assert s.basis == ((1, 0, 1), (0, 1, 1))


def test_subspace_make_edge_cases():
    gf2 = field(2)
    z = subspace_make(gf2, 3, [])
    assert z.dim == 0 and z.basis == ()
    full = subspace_make(gf2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert full.dim == 3
    assert full.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        subspace_make(gf2, 3, [(1, 0)])


def test_subspace_make_takes_numpy_rows():
    # numpy integer scalars take the scalar path: the basis stays hashable
    gf3 = field(3)
    s = subspace_make(gf3, 3, np.array([[2, 1, 0], [1, 1, 1]]))
    assert s == subspace_make(gf3, 3, [(2, 1, 0), (1, 1, 1)]) and hash(s) == hash(s)
    assert gf3.mul(np.int64(2), 2) == 1 and isinstance(gf3.mul(np.int64(2), 2), int)


def test_subspace_make_idempotent():
    gf3 = field(3)
    for s in itertools.islice(enumerate_subspaces(gf3, 4, 2), 40):
        again = subspace_make(gf3, 4, s.basis)
        assert again == s


def test_meet_join_dimension_formula():
    gf2 = field(2)
    planes = list(enumerate_subspaces(gf2, 3, 2))
    for u, w in itertools.combinations(planes, 2):
        assert subspace_meet(u, w).dim == 1  # two distinct planes in F_2^3
    # dimension formula on a sample of pairs in F_3^4
    gf3 = field(3)
    sample = list(itertools.islice(enumerate_subspaces(gf3, 4, 2), 25))
    for u, w in itertools.combinations(sample, 2):
        m, j = subspace_meet(u, w), subspace_make(gf3, 4, u.basis + w.basis)
        assert m.dim + j.dim == u.dim + w.dim
        for row in m.basis:
            assert contains(u, row) and contains(w, row)


def test_join_of_complementary_spaces():
    gf2 = field(2)
    u = subspace_make(gf2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    w = subspace_make(gf2, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    assert subspace_meet(u, w).dim == 0
    assert subspace_make(gf2, 4, u.basis + w.basis).dim == 4


def test_enumeration_counts_match_qbinom():
    for q, (p, t) in [(2, (2, 1)), (3, (3, 1)), (4, (2, 2))]:
        gf = field(p, t)
        for n in range(1, 5):
            for m in range(n + 1):
                count = sum(1 for _ in enumerate_subspaces(gf, n, m))
                assert count == qbinom(n, m, q), (q, n, m)


def test_enumeration_is_duplicate_free():
    gf2 = field(2)
    spaces = list(enumerate_subspaces(gf2, 4, 2))
    assert len(set(spaces)) == len(spaces) == 35


def test_coset_and_hyperplane_streams():
    gf3 = field(3)
    m = subspace_make(gf3, 6, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                               (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0)])
    reps = {m.reduce(index_vector(gf3, i, 6)) for i in range(3**6)}
    assert len(reps) == 9  # q^(n-dim) = 3^2
    assert all(r[:4] == (0, 0, 0, 0) and m.reduce(r) == r for r in reps)
    hyps = [orthogonal_complement(subspace_make(gf3, 6, [w]))
            for w in point_vectors(gf3, 6)]
    assert len(set(hyps)) == 364  # [6]_3
    assert all(h.dim == 5 for h in hyps)
    pts = point_vectors(gf3, 3)
    assert len(pts) == 13


def test_reduce_is_constant_on_cosets():
    gf2 = field(2)
    m = subspace_make(gf2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    reps = {m.reduce(index_vector(gf2, i, 4)) for i in range(2**4)}
    assert len(reps) == 4
    for rep in reps:
        for v in m.vectors():
            shifted = tuple(gf2.add(a, b) for a, b in zip(rep, v))
            assert m.reduce(shifted) == m.reduce(rep)


def test_orthogonal_complement_involution():
    gf2 = field(2)
    for s in enumerate_subspaces(gf2, 3, 2):
        perp = orthogonal_complement(s)
        assert perp.dim == 1
        assert orthogonal_complement(perp) == s


def test_vector_literals_round_trip():
    gf3 = field(3)
    v = parse_vector(gf3, "1,0,2,2,0,1")
    assert v == (1, 0, 2, 2, 0, 1)
    assert format_vector(gf3, v) == "1,0,2,2,0,1"
    gf4 = field(2, 2)
    w = parse_vector(gf4, "11,0,10")
    assert w == (3, 0, 2)
    assert format_vector(gf4, w) == "11,0,10"
    with pytest.raises(ValueError):
        parse_vector(gf3, "1,,2")
    with pytest.raises(ValueError):
        parse_vector(gf3, "1,5,2")


@st.composite
def subspace_stacks(draw):
    """A field of order 2, 3, 4, 8 or 9 and a few random subspaces of one
    dimension in F_q^n."""
    p, t = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)]))
    gf = field(p, t)
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, n))
    count = draw(st.integers(1, 4))
    spaces = []
    while len(spaces) < count:
        rows = draw(st.lists(st.lists(st.integers(0, gf.q - 1), min_size=n, max_size=n),
                             min_size=m, max_size=m))
        space = subspace_make(gf, n, rows)
        if space.dim == m:
            spaces.append(space)
    return gf, n, m, spaces


def bitset_reference(row):
    """The bitset of one row of ids as one Python integer."""
    return sum(1 << v for v in row)


def pack_ids(ids):
    """Distinct ids as one Python int, packed byte by byte: the packer the
    bitset oracles of the perp tests use on rows of thousands of ids."""
    buf = bytearray(max(ids, default=-1) // 8 + 1)
    for i in ids:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def array_dot(ctx, u, v):
    """Dot product over ``ctx`` along the last axis, the other axes
    broadcast, from ``gfcore.mul`` and ``ctx.add``: ``array_dot(ctx,
    u[:, None], v[None])`` is the table of all pairs of rows."""
    u, v = np.moveaxis(np.asarray(u), -1, 0), np.moveaxis(np.asarray(v), -1, 0)
    return functools.reduce(ctx.add, (mul(ctx, a, b) for a, b in zip(u, v)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(subspace_stacks())
def test_kernel_ids_match_subspace_vectors(case):
    gf, n, m, spaces = case
    bases = np.array([s.basis for s in spaces], dtype=np.int32).reshape(len(spaces), m, n)
    ids = subspace_vector_ids(gf, bases)
    for row, s in zip(ids.tolist(), spaces):
        assert row == sorted(vector_index(gf, v) for v in s.vectors() if any(v))
        assert pack_ids(row) == bitset_reference(row)


@pytest.mark.parametrize("size", [63, 64, 65, 128, 729, 4096])
def test_vector_bitsets_at_word_edges(size):
    # the test packer pack_ids, which packs ids byte by byte: rows of
    # distinct ids, each holding the ids on both sides of every 64-bit
    # word edge below size and 40 random others, in random order
    rng = np.random.default_rng(size)
    edges = sorted({v for w in range(64, size, 64) for v in (w - 1, w)} | {0, size - 1})
    others = np.setdiff1d(np.arange(size), edges)
    ids = [rng.permutation(np.concatenate([edges, rng.choice(others, 40, replace=False)])).tolist()
           for _ in range(200)]
    assert [pack_ids(row) for row in ids] == [bitset_reference(row) for row in ids]
    assert all(pack_ids(row).bit_length() == size for row in ids)


def echelon_loop(gf, n, m):
    """Reference enumeration: echelon bases one at a time, in the
    documented order (pivot sets, then free cells, last cell fastest)."""
    for pivots in itertools.combinations(range(n), m):
        cells = [(i, j) for i in range(m) for j in range(pivots[i] + 1, n) if j not in pivots]
        for values in itertools.product(gf.elements(), repeat=len(cells)):
            rows = [[0] * n for _ in range(m)]
            for i, piv in enumerate(pivots):
                rows[i][piv] = 1
            for (i, j), val in zip(cells, values):
                rows[i][j] = val
            yield tuple(map(tuple, rows))


def test_echelon_bases_match_loop_reference():
    for p, t, n, m in [(2, 1, 4, 2), (3, 1, 4, 3), (2, 2, 3, 1), (3, 2, 3, 2), (2, 1, 3, 0)]:
        gf = field(p, t)
        want = list(echelon_loop(gf, n, m))
        stacked = np.concatenate(list(echelon_bases(gf, n, m)))
        assert [tuple(map(tuple, b)) for b in stacked.tolist()] == want
        assert [s.basis for s in enumerate_subspaces(gf, n, m)] == want


@pytest.mark.parametrize("p,t,n", [(2, 1, 4), (3, 1, 3), (2, 2, 3), (2, 3, 2)])
def test_id_maps_match_scalar_oracle(p, t, n):
    # translation row i adds the vector whose id is p^i; scaling multiplies
    # every coordinate; both are permutations of the q^n ids
    gf = field(p, t)
    vecs = [index_vector(gf, x, n) for x in range(gf.q**n)]
    shifts = translations(gf, n)
    assert shifts.shape == (n * t, gf.q**n)
    units = [index_vector(gf, p**i, n) for i in range(n * t)]
    # the unit vectors over GF(p): one coordinate x^d, the others 0
    assert sorted(units) == sorted(tuple(p**d if j == c else 0 for j in range(n))
                                   for c in range(n) for d in range(t))
    for row, e in zip(shifts.tolist(), units):
        assert row == [vector_index(gf, [gf.add(a, b) for a, b in zip(v, e)]) for v in vecs]
    for lam in gf.elements():
        row = scaling(gf, n, lam).tolist()
        assert row == [vector_index(gf, [gf.mul(lam, a) for a in v]) for v in vecs]
        if lam:
            assert sorted(row) == list(range(gf.q**n))
