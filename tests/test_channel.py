import math
import warnings
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from mwrelay.channel import (
    DownlinkSpec,
    UplinkSpec,
    entropy,
    identity_downlink,
    most_likely,
    mutual_info,
    sample_downlink,
    sample_uplink_noise,
    uplink_bound,
)
from mwrelay.gf import Field
from mwrelay.rng import stream


def h2(q: float) -> float:
    return -q * math.log2(q) - (1 - q) * math.log2(1 - q)


def test_entropy_examples():
    assert entropy(np.array([0.5, 0.5, 0.0, 0.0])) == 1.0
    assert entropy(np.array([1.0, 0.0, 0.0])) == 0.0
    assert entropy(np.full(4, 0.25)) == 2.0


def test_entropy_rejects_bad_pmf():
    with pytest.raises(ValueError):
        entropy(np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        entropy(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        entropy(np.array([[0.5, 0.5]]))


def test_entropy_bounds_and_uniform_max():
    rng = stream(5, "ent")
    for _ in range(50):
        n = int(rng.integers(2, 9))
        p = rng.random(n)
        p /= p.sum()
        h = entropy(p)
        assert -1e-12 <= h <= math.log2(n) + 1e-12
    assert entropy(np.full(8, 1 / 8)) == pytest.approx(3.0, abs=1e-12)


def test_uplink_bound_examples():
    f4 = Field(4)
    up = UplinkSpec(f4, np.array([0.5, 0.5, 0.0, 0.0]))
    assert uplink_bound(up) == 1.0
    f2 = Field(2)
    assert uplink_bound(UplinkSpec(f2, np.array([1.0, 0.0]))) == 1.0
    assert uplink_bound(UplinkSpec(f2, np.array([0.5, 0.5]))) == 0.0


def test_uplink_bound_cap():
    rng = stream(5, "bound")
    for order in (2, 4, 8):
        f = Field(order)
        for _ in range(20):
            p = rng.random(order)
            p /= p.sum()
            b = uplink_bound(UplinkSpec(f, p))
            # random noise is non-degenerate, so the cap is strict
            assert b < math.log2(order)
        point = np.zeros(order)
        point[1] = 1.0
        assert uplink_bound(UplinkSpec(f, point)) == math.log2(order)


def test_mutual_info_examples():
    ident = np.eye(2)
    assert mutual_info(np.array([0.5, 0.5]), ident) == pytest.approx(1.0, abs=1e-12)
    for q in (0.1, 0.25):
        bsc = np.array([[1 - q, q], [q, 1 - q]])
        assert mutual_info(np.array([0.5, 0.5]), bsc) == pytest.approx(1 - h2(q), abs=1e-9)
    point = np.array([1.0, 0.0])
    assert mutual_info(point, np.array([[0.3, 0.7], [0.6, 0.4]])) == pytest.approx(0.0, abs=1e-12)


def test_mutual_info_nonneg_and_product_channel():
    rng = stream(5, "mi")
    for _ in range(30):
        nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        w = rng.random((nx, ny))
        w /= w.sum(axis=1, keepdims=True)
        d = rng.random(nx)
        d /= d.sum()
        assert mutual_info(d, w) >= -1e-12
    same_rows = np.tile(np.array([0.2, 0.3, 0.5]), (3, 1))
    d = np.array([0.1, 0.4, 0.5])
    assert mutual_info(d, same_rows) == pytest.approx(0.0, abs=1e-12)


def test_mutual_info_concavity_in_input():
    rng = stream(5, "concave")
    for _ in range(30):
        nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        w = rng.random((nx, ny))
        w /= w.sum(axis=1, keepdims=True)
        d1 = rng.random(nx)
        d1 /= d1.sum()
        d2 = rng.random(nx)
        d2 /= d2.sum()
        mid = mutual_info((d1 + d2) / 2, w)
        assert mid >= (mutual_info(d1, w) + mutual_info(d2, w)) / 2 - 1e-9


def test_mutual_info_dimension_mismatch():
    with pytest.raises(ValueError):
        mutual_info(np.array([0.5, 0.5]), np.eye(3))


def test_sampling_deterministic_and_degenerate():
    f4 = Field(4)
    up = UplinkSpec(f4, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(sample_uplink_noise(up, stream(1, "n").random(100)), np.zeros(100))

    up = UplinkSpec(f4, np.array([0.5, 0.5, 0.0, 0.0]))
    a = sample_uplink_noise(up, stream(1, "n").random(64))
    b = sample_uplink_noise(up, stream(1, "n").random(64))
    assert np.array_equal(a, b)

    down = identity_downlink(2, 2)
    x0 = stream(1, "x").integers(0, 2, size=50)
    y = sample_downlink(down, 1, x0, stream(1, "d").random(x0.shape))
    assert np.array_equal(y, x0)


def test_samplers_are_pinned_on_seeded_streams():
    # Zero-probability symbols in the middle and at the end of a row.
    up = UplinkSpec(Field(5), np.array([0.4, 0.0, 0.3, 0.3, 0.0]))
    assert sample_uplink_noise(up, stream(3, "pin-up").random(16)).tolist() == [
        2, 0, 0, 3, 2, 2, 3, 0, 0, 3, 3, 0, 3, 2, 3, 2,
    ]
    w = np.array([[0.7, 0.0, 0.3, 0.0], [0.0, 0.5, 0.25, 0.25], [0.1, 0.2, 0.7, 0.0]])
    down = DownlinkSpec(3, (w, np.eye(3, 4)))
    x0 = np.array([0, 1, 2, 2, 1, 0, 0, 1, 2, 1, 0, 2, 1, 1, 0, 2])
    u = stream(3, "pin-down").random(x0.shape)
    assert sample_downlink(down, 1, x0, u).tolist() == [
        0, 1, 1, 2, 1, 0, 2, 2, 2, 1, 0, 0, 1, 1, 0, 2,
    ]
    assert sample_downlink(down, 2, x0, u).tolist() == x0.tolist()
    assert sample_uplink_noise(up, stream(3, "pin-up").random(0)).size == 0


def test_draws_stop_at_the_last_positive_symbol():
    # Rows summing to 1 - 1e-13 pass validation; a uniform above that sum
    # would otherwise land past the last positive-probability symbol.
    class Top:
        def random(self, n):
            return np.full(n, np.nextafter(1.0, 0.0))

    up = UplinkSpec(Field(4), np.array([0.5, 0.5 - 1e-13, 0.0, 0.0]))
    assert sample_uplink_noise(up, Top().random(3)).tolist() == [1, 1, 1]
    w = np.array([[0.5, 0.5 - 1e-13, 0.0], [1.0 - 1e-13, 0.0, 0.0]])
    x0 = np.array([0, 1])
    assert sample_downlink(DownlinkSpec(2, (w,)), 1, x0, Top().random(x0.shape)).tolist() == [1, 0]


def ref_inverse_cdf(row, u):
    """Inverse CDF in Python floats: the first j whose positive running sum
    reaches u, capped at the last positive-probability symbol of ``row``."""
    last = max(j for j, p in enumerate(row) if p > 0)
    return min(next((j for j, c in enumerate(accumulate(row)) if u <= c and c > 0), last), last)


def oracle_laws(seed):
    """Seeded 5-symbol rows: zeros in the middle and at the end, then the same
    rows scaled to sum to 1 - 1e-13, which validation accepts; after them,
    rows with leading zeros, exact and scaled."""
    rng = stream(seed, "oracle-laws")

    def laws(patterns):
        rows = []
        for zeros in patterns:
            row = rng.random(5) + 0.05
            row[zeros] = 0.0
            rows.append(row / row.sum())
        return rows + [row * (1 - 1e-13) for row in rows]

    return np.array(laws(([], [2], [4], [3, 4], [1, 3, 4])) + laws(([0], [0, 1], [0, 2, 4])))


def oracle_uniforms(row, seed):
    """Every step of ``row``, one ulp either side of each, 0, nextafter(1, 0) and seeded uniforms."""
    steps = list(accumulate(row.tolist()))
    return np.array(
        steps + np.nextafter(steps, 0).tolist() + np.nextafter(steps, 1).tolist()
        + [0.0, np.nextafter(1.0, 0.0)] + stream(seed, "oracle-u").random(40).tolist()
    ).clip(0.0, np.nextafter(1.0, 0.0))


def test_samplers_match_the_inverse_cdf_oracle():
    laws = oracle_laws(5)
    assert (abs(laws.sum(axis=1)[np.r_[5:10, 13:16]] - (1 - 1e-13)) < 1e-15).all()
    assert (laws[10:, 0] == 0).all()
    down = DownlinkSpec(len(laws), (laws,))
    on_step = 0
    for x, row in enumerate(laws):
        u = oracle_uniforms(row, x)
        want = [ref_inverse_cdf(row.tolist(), v) for v in u.tolist()]
        assert sample_uplink_noise(UplinkSpec(Field(5), row), u).tolist() == want
        assert sample_downlink(down, 1, np.full(u.shape, x), u).tolist() == want
        # Stacked rows, as the Monte Carlo harness passes them.
        stacked = sample_downlink(down, 1, np.full((2, u.size), x), np.stack([u, u]))
        assert stacked.tolist() == [want, want]
        on_step += sum(want[j] == j for j in range(5) if row[j] > 0)
    assert on_step >= 20  # a uniform on a step selects that step's symbol
    y = sample_downlink(down, 1, np.arange(len(laws)), np.full(len(laws), np.nextafter(1.0, 0.0)))
    assert y.tolist() == [max(np.flatnonzero(row)) for row in laws]


def test_sampling_frequencies_multinomial():
    f4 = Field(4)
    pmf = np.array([0.5, 0.3, 0.2, 0.0])
    up = UplinkSpec(f4, pmf)
    draws = sample_uplink_noise(up, stream(2, "freq").random(100_000))
    counts = np.bincount(draws, minlength=4)
    for s in range(4):
        expect = draws.size * pmf[s]
        sigma = math.sqrt(draws.size * pmf[s] * (1 - pmf[s])) if pmf[s] else 0.0
        assert abs(counts[s] - expect) <= 4 * sigma


def test_downlink_spec_validation():
    with pytest.raises(ValueError):
        DownlinkSpec(2, (np.array([[0.5, 0.4], [0.5, 0.5]]),))
    with pytest.raises(ValueError):
        DownlinkSpec(2, (np.array([[1.1, -0.1], [0.5, 0.5]]),))
    with pytest.raises(ValueError):
        DownlinkSpec(3, (np.eye(2),))
    spec = identity_downlink(3, 2)
    with pytest.raises(ValueError):
        spec.channel(4)


def ref_most_likely(law, rows):
    """The first row with the largest exact likelihood, each float of ``law`` a rational."""
    likelihoods = [math.prod(Fraction(float(law[i])) for i in row) for row in rows]
    return likelihoods.index(max(likelihoods))


def rows_with_permutations(rng, size, candidates, n):
    """Rows over range(size), half of them permutations of earlier rows.

    A permutation has its row's type, so the two tie in exact arithmetic,
    though summing their logs position by position may round them apart.
    """
    rows = [rng.integers(0, size, n)]
    while len(rows) < candidates:
        pick = rows[int(rng.integers(0, len(rows)))]
        rows.append(rng.permutation(pick) if rng.random() < 0.5 else rng.integers(0, size, n))
    return np.array(rows)


def test_most_likely_matches_a_loop_oracle_with_ties_zeros_and_stacks():
    rng = stream(17, "most-likely")
    seen_tie = seen_zero = 0
    for trial in range(60):
        size, n = int(rng.integers(2, 9)), int(rng.integers(1, 20))
        law = rng.dirichlet(np.ones(size))
        law[rng.random(size) < 0.25] = 0.0  # zero-probability symbols score -inf
        index = np.array([rows_with_permutations(rng, size, 12, n) for _ in range(3)])
        # The same rows laid out positions-major, as the relay passes them.
        strided = np.ascontiguousarray(index.swapaxes(-1, -2)).swapaxes(-1, -2)
        want = [ref_most_likely(law, rows) for rows in index]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = most_likely(law, index)
            single = [most_likely(law, rows) for rows in index]
            assert most_likely(law, strided).tolist() == want
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        assert got.tolist() == single == want, (trial, law.tolist())
        assert all(type(b) is int for b in single)
        for rows, b in zip(index, want):
            # A later row of the winner's type, in another order, ties exactly.
            seen_tie += any(
                sorted(rows[b]) == sorted(r) and not np.array_equal(rows[b], r)
                for r in rows[b + 1 :]
            )
            seen_zero += bool(np.any(law[rows] == 0))
    assert seen_tie >= 50 and seen_zero >= 30
    # Every candidate impossible: all score -inf, and the first one wins.
    law = np.array([0.0, 1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert most_likely(law, np.array([[0, 1], [2, 1], [1, 0]])) == 0
        assert most_likely(law, np.array([[[1, 0], [1, 1]], [[2, 2], [0, 0]]])).tolist() == [1, 0]


@pytest.mark.parametrize(
    "law",
    [
        [0.4, 0.4, 0.2],  # a repeated top probability
        [0.5, 0.5, 0.0],  # a zero
        [1.0, 0.0],  # a one changes no likelihood
        [0.25] * 4,
        [0.8, 0.1, 0.05, 0.05],
    ],
)
def test_most_likely_matches_the_loop_oracle_stacked_and_unstacked(law):
    law, rng = np.array(law), stream(29, "v-minus-one", len(law))
    for n in (1, 5, 13):
        stack = np.array([rows_with_permutations(rng, law.size, 9, n) for _ in range(4)])
        want = [ref_most_likely(law, rows) for rows in stack]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert most_likely(law, stack).tolist() == want
            assert [most_likely(law, rows) for rows in stack] == want


def test_most_likely_decides_types_an_ulp_apart_exactly():
    # law[0] = law[1], so rows of types (3, 5, 1) and (4, 4, 1) both have
    # likelihood 0.4^8 0.2, yet summed by value (3L + 5L against 4L + 4L)
    # or by position, with the 0.2 in another place, they round an ulp
    # apart.  The first row must win whichever type it has.
    law = np.array([0.4, 0.4, 0.2])
    L = math.log(0.4)
    assert 3 * L + 5 * L > 4 * L + 4 * L
    a = [2, 0, 0, 0, 1, 1, 1, 1, 1]
    b = [0, 0, 0, 0, 1, 1, 1, 1, 2]
    worse = [0, 0, 0, 0, 1, 1, 1, 2, 2]
    for rows, want in (([b, a], 0), ([a, b], 0), ([worse, b, a], 1), ([worse, a, b], 1)):
        assert most_likely(law, np.array(rows)) == want == ref_most_likely(law, rows)
    stack = np.array([[b, a, worse], [worse, a, b], [worse, worse, a]])
    assert most_likely(law, stack).tolist() == [0, 1, 2]


def test_most_likely_ties_commensurate_compositions_exactly():
    # The relay_gf4 law: 0.8 = 8 x 0.1 = 16 x 0.05 in floats, so rows tie
    # exactly across probability compositions: 0.1^4 = 0.8 x 0.05^3, though
    # 4 log 0.1 and log 0.8 + 3 log 0.05 round apart.
    law = np.array([0.8, 0.1, 0.05, 0.05])
    assert 4 * math.log(0.1) != math.log(0.8) + 3 * math.log(0.05)
    rng = stream(17, "commensurate")
    across = 0
    for _ in range(40):
        stack, m = [], int(rng.integers(0, 5))
        for _ in range(3):
            # Four rows of one likelihood and eight of their length without a 0.8.
            base = rng.integers(0, 4, m)
            blocks = ([1, 1, 1, 1], [0, 2, 3, 2], [0, 3, 3, 3], [2, 0, 2, 2])
            rows = [rng.permutation(np.concatenate([base, b])) for b in blocks]
            rows += list(rng.integers(1, 4, (8, m + 4)))
            stack.append(np.array(rows)[rng.permutation(12)])
        index = np.array(stack)
        want = [ref_most_likely(law, rows) for rows in index]
        assert most_likely(law, index).tolist() == want
        assert [most_likely(law, rows) for rows in index] == want
        for rows in index:
            exact = [math.prod(Fraction(law[i]) for i in row) for row in rows]
            top = {tuple(sorted(law[row])) for row, p in zip(rows, exact) if p == max(exact)}
            across += len(top) > 1
    assert across >= 100
