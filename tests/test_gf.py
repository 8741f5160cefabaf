import itertools
import tracemalloc

import numpy as np
import pytest

from mwrelay import codec, gf
from mwrelay.gf import (
    Field,
    FieldSpecError,
    default_reduction_poly,
    mat_mul,
    random_matrix,
    rank,
    solve_linear,
    span,
)
from mwrelay.rng import stream

SMALL_FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def assert_unique_inverses(f):
    """Exhaustively: each nonzero a has exactly one b with a b = 1."""
    elems = np.arange(f.order)
    products = f.mul(elems[:, None], elems[None, :])
    assert np.count_nonzero(products[0] == 1) == 0
    assert (np.count_nonzero(products[1:] == 1, axis=1) == 1).all()


def test_construction_rejects_non_prime_powers():
    for bad in (1, 6, 10, 12, 15):
        with pytest.raises(FieldSpecError):
            Field(bad)


def test_default_reduction_polys():
    # Smallest packed irreducible: x^2+x+1 for GF(4), x^3+x+1 for GF(8).
    assert default_reduction_poly(2, 2) == (1, 1, 1)
    assert default_reduction_poly(2, 3) == (1, 1, 0, 1)
    assert Field(4).reduction_poly == (1, 1, 1)


def test_reducible_poly_rejected():
    with pytest.raises(FieldSpecError):
        Field(4, [1, 0, 1])  # x^2+1 = (x+1)^2 over GF(2)
    with pytest.raises(FieldSpecError):
        Field(4, [1, 1])  # wrong degree


def test_add_examples():
    assert Field(2).add(1, 1) == 0
    # GF(4): digit vectors (0,1)+(1,1) -> (1,0) -> 1
    assert Field(4).add(2, 3) == 1
    # GF(5): plain integer addition mod 5
    assert Field(5).add(3, 4) == 2


def test_mul_examples():
    assert Field(2).mul(1, 1) == 1
    # GF(4) with x^2+x+1: x*x = x+1
    assert Field(4).mul(2, 2) == 3
    assert Field(5).mul(3, 4) == 2


def test_sub_is_add_inverse():
    for order in SMALL_FIELDS:
        f = Field(order)
        for a in range(f.order):
            for b in range(f.order):
                assert f.add(f.sub(a, b), b) == a


def test_field_axioms_exhaustive_small():
    for order in SMALL_FIELDS:
        f = Field(order)
        elems = list(range(f.order))
        for a in elems:
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.mul(a, 0) == 0
        assert_unique_inverses(f)
        if order > 16:
            continue
        for a in elems:
            for b in elems:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                for c in elems:
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))


def test_field_axioms_randomized_large():
    for order in (25, 27, 64, 121, 256):
        f = Field(order)
        rng = stream(11, "axioms", order)
        trip = rng.integers(0, order, size=(200, 3))
        for a, b, c in trip:
            a, b, c = int(a), int(b), int(c)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert_unique_inverses(f)


def test_array_ops_match_scalar():
    for order in (4, 5, 9):
        f = Field(order)
        rng = stream(3, "arr", order)
        a = rng.integers(0, order, size=50)
        b = rng.integers(0, order, size=50)
        for i in range(50):
            assert f.add(a, b)[i] == f.add(int(a[i]), int(b[i]))
            assert f.mul(a, b)[i] == f.mul(int(a[i]), int(b[i]))
            assert f.sub(a, b)[i] == f.sub(int(a[i]), int(b[i]))


def test_mat_mul_examples():
    f2 = Field(2)
    ident = np.eye(2, dtype=np.int64)
    assert np.array_equal(mat_mul(f2, np.array([1, 0]), ident), [1, 0])
    g = np.array([[1, 0, 1], [0, 1, 1]])
    assert np.array_equal(mat_mul(f2, np.array([1, 1]), g), [1, 1, 0])
    assert np.array_equal(mat_mul(f2, np.array([0, 0]), g), [0, 0, 0])


def test_mat_mul_dimension_mismatch():
    f2 = Field(2)
    with pytest.raises(ValueError):
        mat_mul(f2, np.array([1, 0, 1]), np.eye(2, dtype=np.int64))


def test_solve_linear_examples():
    f2 = Field(2)
    ident = np.eye(3, dtype=np.int64)
    b = np.array([1, 0, 1])
    sol = solve_linear(f2, ident, b)
    assert sol.status == "unique" and np.array_equal(sol.x, b)

    sol = solve_linear(f2, np.array([[1, 1], [0, 1]]), np.array([0, 1]))
    assert sol.status == "unique" and np.array_equal(sol.x, [1, 1])

    sol = solve_linear(f2, np.zeros((2, 2), dtype=np.int64), np.array([1, 0]))
    assert sol.status == "inconsistent"

    sol = solve_linear(f2, np.array([[1, 1]]), np.array([1]))
    assert sol.status == "underdetermined"


def test_solve_round_trips_random_systems():
    for order in (2, 4, 5, 8):
        f = Field(order)
        rng = stream(17, "solve", order)
        done = 0
        while done < 25:
            n = int(rng.integers(1, 7))
            a = random_matrix(f, n, n, rng)
            if rank(f, a) < n:
                continue
            x = random_matrix(f, 1, n, rng)[0]
            # solve_linear uses the column convention b = A x
            b = mat_mul(f, x, a.T)
            sol = solve_linear(f, a, b)
            assert sol.status == "unique"
            assert np.array_equal(sol.x, x)
            done += 1


def test_rank_examples_and_invariance():
    f2 = Field(2)
    assert rank(f2, np.eye(4, dtype=np.int64)) == 4
    assert rank(f2, np.zeros((3, 3), dtype=np.int64)) == 0
    assert rank(f2, np.array([[1, 1], [1, 1]])) == 1

    f5 = Field(5)
    rng = stream(23, "rank")
    for _ in range(20):
        a = random_matrix(f5, 4, 6, rng)
        r = rank(f5, a)
        swapped = a[[1, 0, 2, 3]]
        assert rank(f5, swapped) == r
        scaled = a.copy()
        scaled[2] = f5.mul(3, scaled[2])
        assert rank(f5, scaled) == r


def test_random_matrix_deterministic_and_uniform():
    f = Field(4)
    m1 = random_matrix(f, 5, 7, stream(9, "det"))
    m2 = random_matrix(f, 5, 7, stream(9, "det"))
    assert np.array_equal(m1, m2)
    assert random_matrix(f, 0, 0, stream(9, "det")).shape == (0, 0)

    draws = random_matrix(f, 1, 100_000, stream(9, "freq"))[0]
    counts = np.bincount(draws, minlength=4)
    expect = draws.size / 4
    sigma = np.sqrt(draws.size * 0.25 * 0.75)
    assert np.all(np.abs(counts - expect) < 4 * sigma)


def test_digit_expansion_consistency():
    for order in (4, 8, 9):
        f = Field(order)
        rng = stream(31, "expand", order)
        a = random_matrix(f, 3, 5, rng)
        u = random_matrix(f, 10, 3, rng)
        direct = np.stack([ref_mat_mul(f, row, a) for row in u])
        digits = (f.digit_rows(u).astype(np.int64) @ f.expand_matrix(a)) % f.p
        assert np.array_equal(f.rows_from_digits(digits), direct)
        assert np.array_equal(mat_mul(f, u, a), direct)


def ref_mat_mul(field, u, g):
    """Row loop over the polynomial oracle's tables, kept as an oracle."""
    add, mul = oracle_tables(field)
    out = np.zeros(g.shape[1], dtype=np.int64)
    for i in range(u.shape[0]):
        out = add[out, mul[u[i], g[i]]]
    return out


def test_mat_mul_matches_row_loop_for_vectors_and_stacks():
    for order in SMALL_FIELDS:
        f = Field(order)
        rng = stream(31, "matmul", order)
        for k, n in ((0, 3), (1, 1), (4, 6), (7, 2)):
            g = random_matrix(f, k, n, rng)
            u = random_matrix(f, 5, k, rng)
            want = np.stack([ref_mat_mul(f, row, g) for row in u])
            assert np.array_equal(mat_mul(f, u, g), want)
            assert np.array_equal(mat_mul(f, u[2], g), want[2])
            # A stack of matrices takes a stack of row stacks, or one vector for all.
            gs = np.stack([g, random_matrix(f, k, n, rng), random_matrix(f, k, n, rng)])
            us = np.stack([u, random_matrix(f, 5, k, rng), random_matrix(f, 5, k, rng)])
            got = mat_mul(f, us, gs)
            assert got.shape == (3, 5, n)
            for i in range(3):
                assert np.array_equal(got[i], [ref_mat_mul(f, row, gs[i]) for row in us[i]])
                assert np.array_equal(mat_mul(f, u[2], gs)[i], ref_mat_mul(f, u[2], gs[i]))


def test_mat_mul_float64_path_is_exact():
    # 300 * 250^2 exceeds 2^24, where float32 sums would round
    f = Field(251)
    rng = stream(31, "matmul-wide")
    g = random_matrix(f, 300, 4, rng)
    u = random_matrix(f, 3, 300, rng)
    want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % 251 for col in g.T] for row in u]
    assert mat_mul(f, u, g).tolist() == want


@pytest.mark.parametrize("k", [268, 269])
def test_mat_mul_exact_at_the_float32_boundary(k):
    # Column 0 times row 1 is the all-250 product 268 * 250^2 = 16,750,000,
    # below 2^24 (k = 268), or, with one 249 * 249 term, the odd 16,812,001,
    # above 2^24 (k = 269), which a float32 sum would round.
    f = Field(251)
    rng = stream(31, "matmul-boundary", k)
    g = random_matrix(f, k, 5, rng)
    g[:, 0] = 250
    u = random_matrix(f, 4, k, rng)
    u[1] = 250
    if k == 269:
        g[-1, 0] = u[1, -1] = 249
    want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % 251 for col in g.T] for row in u]
    assert want[1][0] == {268: 16_750_000, 269: 16_812_001}[k] % 251
    assert mat_mul(f, u, g).tolist() == want
    for row, w in zip(u, want):
        assert mat_mul(f, row, g).tolist() == w


def test_mat_mul_exact_past_2_to_the_53():
    # 519 (p-1)^2 + (p-1)(p-2) = 519 + 2 = 521 mod p; its sum, about 9.1e15, lies
    # above 2^53, where a float64 product rounds it.
    f = Field(4_194_301)
    p, k = f.p, 520
    u = np.full((2, k), p - 1, dtype=np.int64)
    g = np.full((k, 1), p - 1, dtype=np.int64)
    g[-1, 0] = p - 2
    assert mat_mul(f, u, g).tolist() == [[521], [521]]
    assert mat_mul(f, u[0], g).tolist() == [521]


def test_mat_mul_refuses_products_that_can_exceed_int64():
    # 524,289 (p-1)^2 is the last multiple below 2^63.
    f = Field(4_194_301)
    assert 524_289 * (f.p - 1) ** 2 < 2**63 <= 524_290 * (f.p - 1) ** 2

    def zeros(k):
        return np.zeros(k, dtype=np.int64), np.zeros((k, 1), dtype=np.int64)

    assert mat_mul(f, *zeros(524_289)).tolist() == [0]
    with pytest.raises(ValueError, match="int64"):
        mat_mul(f, *zeros(524_300))


# -- independent oracle: polynomial arithmetic over GF(p) ------------------------


def prime_powers(limit):
    primes = [q for q in range(2, limit + 1) if all(q % d for d in range(2, q))]
    return sorted(q**e for q in primes for e in range(1, 9) if q**e <= limit)


def poly_digits(field, a):
    return [(a // field.p**i) % field.p for i in range(field.m)]


def poly_value(field, coeffs):
    return sum(c * field.p**i for i, c in enumerate(coeffs[: field.m]))


def oracle_add(field, a, b):
    pairs = zip(poly_digits(field, a), poly_digits(field, b))
    return poly_value(field, [(x + y) % field.p for x, y in pairs])


def oracle_neg(field, a):
    return poly_value(field, [-x % field.p for x in poly_digits(field, a)])


def oracle_mul(field, a, b):
    """Schoolbook product of the digit polynomials, then long division by
    the monic reduction polynomial, all mod p."""
    p, m = field.p, field.m
    da, db = poly_digits(field, a), poly_digits(field, b)
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * m - 2, m - 1, -1):
        lead = prod[top]
        for i, c in enumerate(field.reduction_poly or ()):
            prod[top - m + i] = (prod[top - m + i] - lead * c) % p
    return poly_value(field, prod)


def oracle_tables(field):
    """(add, mul) lookup tables of the field, built from the oracle."""
    elems = range(field.order)
    add = np.array([[oracle_add(field, a, b) for b in elems] for a in elems], dtype=np.int64)
    mul = np.array([[oracle_mul(field, a, b) for b in elems] for a in elems], dtype=np.int64)
    return add, mul


def test_field_ops_match_polynomial_oracle():
    fields = prime_powers(256)
    assert len(fields) == 70
    for order in fields:
        f = Field(order)
        if order <= 16:
            a, b = (x.ravel() for x in np.meshgrid(np.arange(order), np.arange(order)))
        else:
            a, b, c = stream(37, "oracle", order).integers(0, order, size=(3, 300))
        want_add = [oracle_add(f, x, y) for x, y in zip(a.tolist(), b.tolist())]
        want_mul = [oracle_mul(f, x, y) for x, y in zip(a.tolist(), b.tolist())]
        want_neg = [oracle_neg(f, y) for y in b.tolist()]
        want_sub = [oracle_add(f, x, y) for x, y in zip(a.tolist(), want_neg)]
        assert f.add(a, b).tolist() == want_add
        assert f.mul(a, b).tolist() == want_mul
        assert f.sub(a, b).tolist() == want_sub
        if order > 16:
            abc = zip(want_mul, c.tolist())
            assert f.mul(f.mul(a, b), c).tolist() == [oracle_mul(f, x, y) for x, y in abc]
        for x, y in list(zip(a.tolist(), b.tolist()))[:20]:
            assert f.mul(x, y) == oracle_mul(f, x, y) and type(f.mul(x, y)) is int
            assert f.add(x, y) == oracle_add(f, x, y)
            assert f.sub(x, y) == oracle_add(f, x, oracle_neg(f, y))


def test_from_digits_matches_polynomial_value():
    for order in prime_powers(256):
        f = Field(order)
        digits = [poly_digits(f, a) for a in range(order)]
        want = [poly_value(f, d) for d in digits]
        assert f.from_digits(np.array(digits)).tolist() == want
        stacked = np.array(digits).reshape(order, 1, f.m)
        assert f.from_digits(stacked).tolist() == [[w] for w in want]
        assert f.from_digits(f.digits(np.arange(order))).tolist() == list(range(order))


def brute_force_rank(tables, order, a):
    """log_F of the number of distinct row combinations u A over all u."""
    add, mul = tables
    rows, cols = a.shape
    combos = {(0,) * cols}
    for u in itertools.product(range(order), repeat=rows):
        v = np.zeros(cols, dtype=np.int64)
        for i in range(rows):
            v = add[v, mul[u[i], a[i]]]
        combos.add(tuple(v.tolist()))
    r = round(np.log(len(combos)) / np.log(order))
    assert order**r == len(combos)
    return r


def brute_force_solutions(tables, order, a, b):
    """Every x in F^cols with a x = b."""
    add, mul = tables
    rows, cols = a.shape
    out = []
    for x in itertools.product(range(order), repeat=cols):
        ax = np.zeros(rows, dtype=np.int64)
        for j in range(cols):
            ax = add[ax, mul[a[:, j], x[j]]]
        if np.array_equal(ax, b):
            out.append(list(x))
    return out


def test_rank_and_solve_match_brute_force():
    for order in (2, 3, 4, 8, 9):
        f = Field(order)
        tables = oracle_tables(f)
        add, mul = tables
        rng = stream(41, "brute", order)
        seen = set()
        for i in range(36):
            rows, cols = (int(v) for v in rng.integers(1, 4, size=2))
            a = random_matrix(f, rows, cols, rng)
            b = random_matrix(f, 1, rows, rng)[0]
            if rows >= 2 and i % 3:
                # Last row = s * first row (+ t * second), so the rank drops.
                s, t = (int(v) for v in rng.integers(0, order, size=2))
                mix = mul[s, a[0]] if rows == 2 else add[mul[s, a[0]], mul[t, a[1]]]
                b_mix = mul[s, b[0]] if rows == 2 else add[mul[s, b[0]], mul[t, b[1]]]
                a[-1] = mix
                # i % 3 == 1 keeps b consistent with that row; 2 breaks it.
                b[-1] = b_mix if i % 3 == 1 else add[b_mix, 1 + int(rng.integers(0, order - 1))]
            assert rank(f, a) == brute_force_rank(tables, order, a)
            found = brute_force_solutions(tables, order, a, b)
            sol = solve_linear(f, a, b)
            want = {0: "inconsistent", 1: "unique"}.get(len(found), "underdetermined")
            assert sol.status == want, (order, a.tolist(), b.tolist())
            if want == "unique":
                assert sol.x.tolist() == found[0]
            else:
                assert sol.x is None
            seen.add(want)
        assert seen == {"inconsistent", "unique", "underdetermined"}


def oracle_span(tables, order, g):
    """u g for every u in F^k, big-endian, in Python ints through the oracle tables."""
    add, mul = (t.tolist() for t in tables)
    out = []
    for u in itertools.product(range(order), repeat=len(g)):
        w = [0] * len(g[0]) if len(g) else []
        for c, row in zip(u, g):
            w = [add[x][mul[c][y]] for x, y in zip(w, row)]
        out.append(w)
    return out


@pytest.mark.parametrize("order", [2, 3, 4, 5, 8, 9, 25, 27, 251])
def test_span_matches_a_brute_force_enumeration(order):
    f = Field(order)
    tables = oracle_tables(f)
    rng = stream(43, "span", order)
    for k in range(5):
        if order**k > 2**16:
            break
        n = 2 if order**k > 1000 else 5
        g = random_matrix(f, 2 * k, n, rng).reshape(2, k, n)
        g[1, k // 2 :] = order - 1 - np.arange(n) % 2  # large entries where uint8 sums would wrap
        words = span(f, g)
        assert words.shape == (2, order**k, n) and words.dtype == np.uint8
        columns = span(f, g, positions_major=True)
        assert columns.flags.c_contiguous and np.array_equal(columns, words.swapaxes(-1, -2))
        for t in range(2):
            want = oracle_span(tables, order, g[t].tolist()) if k else [[0] * n]
            assert words[t].tolist() == want
            assert np.array_equal(span(f, g[t]), words[t])
            assert np.array_equal(span(f, g[t], positions_major=True), columns[t])
    assert span(f, np.zeros((0, 3), dtype=np.int64)).tolist() == [[0, 0, 0]]
    empty = np.zeros((0, 3), dtype=np.int64)
    assert span(f, empty, positions_major=True).tolist() == [[0], [0], [0]]


@pytest.mark.parametrize("order", [2, 3, 4, 9])
def test_span_index_and_span_vectors_invert_each_other(order):
    f = Field(order)
    for k in range(4):
        index = np.arange(order**k)
        vectors = gf.span_vectors(f, index, k)
        assert vectors.tolist() == [list(u) for u in itertools.product(range(order), repeat=k)]
        assert gf.span_index(f, vectors).tolist() == index.tolist()
        words = span(f, np.eye(k, dtype=np.int64))
        assert words.dtype == np.uint8
        assert gf.span_index(f, words).tolist() == index.tolist()
    rng = stream(53, "span-index", order)
    words = rng.integers(0, order, size=(3, 4, 6))
    words[0, 0] = order - 1  # the largest index, past what a uint8 sum holds
    for dtype in (np.uint8, np.int64):
        keys = gf.span_index(f, words.astype(dtype))
        assert keys.shape == (3, 4) and keys.dtype == np.int64
        assert keys[0, 0] == order**6 - 1
        assert gf.span_vectors(f, keys, 6).tolist() == words.tolist()


def test_span_index_refuses_vectors_whose_index_overflows_int64():
    f = Field(2)
    assert gf.span_index(f, np.ones(63, dtype=np.uint8)) == 2**63 - 1
    assert gf.span_index(f, np.ones((2, 63), dtype=np.int64)).tolist() == [2**63 - 1] * 2
    for words in (np.ones(64, dtype=np.uint8), np.zeros((3, 64), dtype=np.int64)):
        with pytest.raises(ValueError, match="length-64"):
            gf.span_index(f, words)
    with pytest.raises(ValueError, match="length-32"):
        gf.span_index(Field(4), np.zeros(32, dtype=np.uint8))
    assert gf.span_index(Field(3), np.full(39, 2)) == 3**39 - 1


def test_span_refuses_past_the_enumeration_bound_before_allocating():
    # span is the one enumerator, so it owns the bound; codec re-exports the names.
    assert codec.CapabilityError is gf.CapabilityError
    assert codec.ENUMERATION_LIMIT == gf.ENUMERATION_LIMIT == 2**20
    f = Field(2)
    assert span(f, np.zeros((20, 1), dtype=np.int64)).shape == (2**20, 1)
    tracemalloc.start()
    try:
        with pytest.raises(gf.CapabilityError, match=r"2\^21 candidates exceeds the 2\^20"):
            span(f, np.zeros((21, 1), dtype=np.int64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    with pytest.raises(gf.CapabilityError, match=r"4\^11"):
        span(Field(4), np.zeros((3, 11, 2), dtype=np.int64))


def test_prime_field_ops_keep_their_values_and_types():
    # add/sub/mul over GF(p) reduce the elements themselves; the digit and
    # multiplication-matrix routes they replaced are the reference, for ints,
    # numpy scalars, int64 arrays and uint8 arrays (widened, so sums cannot wrap).
    for order in (3, 5, 7, 251):
        f = Field(order)
        a, b = stream(47, "prime", order).integers(0, order, size=(2, 200))
        da, db = f.digits(a), f.digits(b)
        reference = {
            "add": f.from_digits((da + db) % f.p),
            "sub": f.from_digits((da - db) % f.p),
            "mul": f.from_digits(np.matmul(da[:, None, :], f._reps[b])[:, 0, :] % f.p),
        }
        for name, want in reference.items():
            op = getattr(f, name)
            got = op(a, b)
            assert got.dtype == np.int64 and got.tolist() == want.tolist()
            assert op(a.astype(np.uint8), b.astype(np.uint8)).tolist() == want.tolist()
            x, y = int(a[0]), int(b[0])
            for ops in ((x, y), (np.int64(x), np.int64(y))):
                assert type(op(*ops)) is int and op(*ops) == int(want[0])
