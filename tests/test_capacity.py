import functools
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from mwrelay.capacity import (
    GAP_TOL,
    MARGIN_TOL,
    RateTuple,
    RegionEvaluator,
    _gale_feasible,
    _gale_slack,
    _minimal_caps,
    fdfp_feasible,
    max_min_downlink,
    region_slice,
)
from mwrelay import lp
from mwrelay.channel import DownlinkSpec, UplinkSpec, identity_downlink, mutual_info, uplink_bound
from mwrelay.gf import Field
from mwrelay.rng import stream


def counterexample_channel():
    f4 = Field(4)
    up = UplinkSpec(f4, np.array([0.5, 0.5, 0.0, 0.0]))
    return up, identity_downlink(3, 2)


def counterexample_rates() -> RateTuple:
    return RateTuple.from_lists(
        [Fraction(39, 100)] * 3,
        {(1, 2): Fraction(19, 100), (1, 3): Fraction(14, 100), (2, 3): Fraction(14, 100)},
    )


def h2(q):
    return -q * math.log2(q) - (1 - q) * math.log2(1 - q)


def test_sum_rate_examples():
    r = counterexample_rates()
    assert r.sum_rate(3) == Fraction(97, 100)
    assert r.sum_rate(1) == Fraction(92, 100)
    assert r.sum_rate(2) == Fraction(92, 100)
    zero = RateTuple.from_lists([0, 0, 0])
    assert zero.sum_rates() == [0, 0, 0]
    with pytest.raises(ValueError):
        r.sum_rate(4)


def test_rate_tuple_validation():
    with pytest.raises(ValueError):
        RateTuple.from_lists([Fraction(-1, 2), 0])
    with pytest.raises(ValueError):
        RateTuple(2, {(1, 2, 3): 1})
    # unordered pair keys collapse to one entry
    r = RateTuple(2, {(2, 1): Fraction(1, 4), (1,): 0, (2,): 0})
    assert r.rate((1, 2)) == Fraction(1, 4)


def test_rate_tuple_rejects_a_message_given_twice():
    with pytest.raises(ValueError, match="given twice"):
        RateTuple(3, {(1, 2): Fraction(9, 10), (2, 1): 0})
    # a common entry may not restate a private rate
    with pytest.raises(ValueError, match="given twice"):
        RateTuple.from_lists([1, 2, 3], {(1,): 7})


def test_max_min_noiseless_binary():
    _, down = counterexample_channel()
    margin, _, dist = max_min_downlink(down, [0, 0, 0])
    assert margin == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(dist, [0.5, 0.5], atol=1e-6)


def test_max_min_bsc_capacity():
    for q in (0.1, 0.25):
        bsc = DownlinkSpec(2, (np.array([[1 - q, q], [q, 1 - q]]),))
        margin, _, dist = max_min_downlink(bsc, [0.0])
        assert margin == pytest.approx(1 - h2(q), abs=1e-6)
        assert 0.5 * np.abs(dist - 0.5).sum() <= 1e-3


def test_max_min_negative_when_rates_exceed_output():
    _, down = counterexample_channel()
    margin, _, _ = max_min_downlink(down, [2.0, 2.0, 2.0])
    assert margin < 0


def dirichlet_downlinks():
    """Three 3-user downlinks, |X| = 3, 4, 6, with Dirichlet(1) rows."""
    rng = np.random.default_rng(0)
    return [
        DownlinkSpec(x, tuple(rng.dirichlet(np.ones(x), size=x) for _ in range(3)))
        for x in (3, 4, 6)
    ]


def objective(down, p, srs):
    return min(mutual_info(p, down.channel(a + 1)) - s for a, s in enumerate(srs))


def random_downlinks(label, count):
    """Seeded 2-6-input, 1-4-user downlinks with per-user output sizes."""
    rng = stream(13, label)
    for _ in range(count):
        inputs, users = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        chans = tuple(
            rng.dirichlet(np.full(int(rng.integers(2, 7)), rng.choice([0.3, 1.0, 3.0])), size=inputs)
            for _ in range(users)
        )
        yield DownlinkSpec(inputs, chans), rng.random(users) * 0.4, rng


def test_gap_tolerance_is_below_the_verdict_tolerance():
    assert GAP_TOL < MARGIN_TOL


# Margins the former grid + Frank-Wolfe optimizer returned on the first two
# downlinks (the third it solved); both lie about 2.5e-4 and 4.1e-4 below
# the optimum.
@pytest.mark.parametrize("index, old_margin", [(0, 0.231840), (1, 0.068170), (2, 0.1766540924)])
def test_max_min_certifies_generic_downlinks(index, old_margin):
    down = dirichlet_downlinks()[index]
    srs = [0.1, 0.2, 0.1]
    start = time.perf_counter()
    lower, upper, p = max_min_downlink(down, srs)
    assert time.perf_counter() - start < 2.0
    assert -1e-12 <= upper - lower <= 1e-9
    assert lower == pytest.approx(objective(down, p, srs), abs=1e-12)
    if index < 2:
        assert lower >= old_margin + 2e-4
    else:
        assert lower >= old_margin - 1e-9


def test_max_min_upper_bounds_the_objective_at_random_inputs():
    for down, srs, rng in random_downlinks("maxmin-upper", 12):
        lower, upper, p = max_min_downlink(down, srs)
        assert -1e-12 <= upper - lower <= 1e-9
        assert lower == pytest.approx(objective(down, p, srs), abs=1e-12)
        for q in rng.dirichlet(np.ones(down.input_size), size=200):
            assert objective(down, q, srs) <= upper


def slsqp_max_min(down, srs, rng, starts=8):
    """Best min_a (I_a - s_a) over SLSQP runs of the epigraph problem."""
    from scipy.optimize import minimize

    size = down.input_size

    def info_grad(v, w):
        p = np.clip(v, 1e-300, None)
        q = p @ w
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(w > 0, w * np.log2(w / q), 0.0).sum(axis=1)
        return d - 1 / math.log(2)

    def simplex(v):
        p = np.clip(v, 0, None)
        return p / p.sum()

    cons = [{"type": "eq", "fun": lambda v: v[:-1].sum() - 1}]
    for w, s in zip(down.user_channels, srs):
        cons.append({
            "type": "ineq",
            "fun": lambda v, w=w, s=s: mutual_info(simplex(v[:-1]), w) - s - v[-1],
            "jac": lambda v, w=w: np.r_[info_grad(v[:-1], w), -1.0],
        })
    best = -np.inf
    for _ in range(starts):
        p0 = rng.dirichlet(np.ones(size))
        res = minimize(
            lambda v: -v[-1],
            np.r_[p0, objective(down, p0, srs)],
            jac=lambda v: np.r_[np.zeros(size), -1.0],
            bounds=[(0, 1)] * size + [(None, None)],
            constraints=cons,
            method="SLSQP",
            options={"ftol": 1e-15, "maxiter": 500},
        )
        best = max(best, objective(down, simplex(res.x[:-1]), srs))
    return best


def test_max_min_brackets_an_slsqp_multistart():
    pytest.importorskip("scipy")
    cases = [(d, [0.1, 0.2, 0.1], stream(13, "slsqp", i)) for i, d in enumerate(dirichlet_downlinks())]
    cases += list(random_downlinks("maxmin-slsqp", 8))
    for down, srs, rng in cases:
        lower, upper, _ = max_min_downlink(down, srs)
        value = slsqp_max_min(down, srs, rng)
        assert lower - 1e-9 <= value <= upper + 1e-9


def test_outer_verdict_follows_the_upper_bound(monkeypatch):
    # Sum rates that put the optimum margin at 0 on a generic downlink.
    down = dirichlet_downlinks()[1]
    value, _, _ = max_min_downlink(down, [0.1, 0.2, 0.1])
    s1, s2, s3 = (Fraction(x + value) for x in (0.1, 0.2, 0.1))
    rates = RateTuple.from_lists([(s2 + s3 - s1) / 2, (s1 + s3 - s2) / 2, (s1 + s2 - s3) / 2])
    up = UplinkSpec(Field(4), np.array([1.0, 0.0, 0.0, 0.0]))
    ev = RegionEvaluator(up, down)
    rep = ev.report(rates)
    assert not rep.achievable and rep.inside_outer
    # Stopped after one iteration, the attained margin is well below 0, so
    # the tuple is not shown achievable; the upper bound still keeps it
    # inside the outer region.
    monkeypatch.setattr("mwrelay.capacity.MAX_ITERS", 1)
    rep = ev.report(rates)
    assert rep.margin < -MARGIN_TOL and rep.upper >= 0
    assert not rep.achievable and rep.inside_outer


def test_check_achievable_counterexample():
    up, down = counterexample_channel()
    r = counterexample_rates()
    rep = RegionEvaluator(up, down).report(r)
    assert rep.achievable and rep.inside_outer
    assert rep.uplink_bound == 1.0
    assert rep.margin == pytest.approx(0.03, abs=1e-9)


def test_check_achievable_trivial_cases():
    up, down = counterexample_channel()
    ev = RegionEvaluator(up, down)
    assert ev.report(RateTuple.from_lists([0, 0, 0])).achievable
    big = ev.report(RateTuple.from_lists([3, 0, 0]))
    assert not big.achievable
    assert not big.inside_outer


def test_boundary_tuple_outer_but_not_inner():
    f2 = Field(2)
    up = UplinkSpec(f2, np.array([1.0, 0.0]))
    down = identity_downlink(2, 2)
    # sum rate for user 2 is exactly the uplink bound of 1
    ev = RegionEvaluator(up, down)
    r = ev.report(RateTuple.from_lists([Fraction(1), Fraction(0)]))
    assert not r.achievable
    assert r.inside_outer
    above = RateTuple.from_lists([Fraction(11, 10), Fraction(0)])
    assert not ev.report(above).inside_outer


def test_inner_implies_outer_random():
    up, down = counterexample_channel()
    ev = RegionEvaluator(up, down)
    rng = stream(13, "inout")
    for _ in range(40):
        vals = rng.random(6) * 0.5
        r = RateTuple.from_lists(
            [Fraction(str(round(v, 3))) for v in vals[:3]],
            {
                (1, 2): Fraction(str(round(vals[3], 3))),
                (1, 3): Fraction(str(round(vals[4], 3))),
                (2, 3): Fraction(str(round(vals[5], 3))),
            },
        )
        rep = ev.report(r)
        if rep.achievable:
            assert rep.inside_outer


def test_downward_closure():
    up, down = counterexample_channel()
    ev = RegionEvaluator(up, down)
    rng = stream(13, "down")
    base = counterexample_rates()
    assert ev.report(base).achievable
    for _ in range(20):
        shrunk = {k: v * Fraction(int(rng.integers(0, 100)), 100) for k, v in base.rates.items()}
        assert ev.report(RateTuple(3, shrunk)).achievable


def test_fdfp_counterexample_infeasible_with_certificate():
    r = counterexample_rates()
    res = fdfp_feasible(r, [1, 1, 1])
    assert not res.feasible
    chains = {c.user: c for c in res.certificate.chains}
    # the pair (r_1 + r_3) bound: exceeds user 2's cap by exactly 3/100
    assert 2 in chains
    assert chains[2].bound == Fraction(103, 100)
    assert chains[2].cap == Fraction(1)


def test_fdfp_feasible_cases():
    private_only = RateTuple.from_lists([Fraction(1, 4)] * 3)
    res = fdfp_feasible(private_only, [1, 1, 1])
    assert res.feasible
    assert all(v == 0 for v in res.splits.values())

    zero = RateTuple.from_lists([0, 0, 0])
    assert fdfp_feasible(zero, [1, 1, 1]).feasible

    # splits genuinely constrained: user 1's tight cap limits how much of
    # the pair rate may be routed to user 2
    r = RateTuple.from_lists([0, 0, 0], {(1, 2): Fraction(1, 2)})
    res = fdfp_feasible(r, [Fraction(1, 4), Fraction(3, 4), Fraction(1)])
    assert res.feasible
    assert res.splits[((1, 2), 2)] <= Fraction(1, 4)
    # but no split can satisfy a sub-quarter cap on user 3, who gets both parts
    res = fdfp_feasible(r, [Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)])
    assert not res.feasible
    chain = {c.user: c for c in res.certificate.chains}[3]
    assert chain.bound == Fraction(1, 2) and chain.cap == Fraction(1, 4)


def test_fdfp_witness_splits_satisfy_constraints():
    rng = stream(13, "split")
    for _ in range(40):
        vals = [Fraction(int(v), 40) for v in rng.integers(0, 12, size=6)]
        r = RateTuple.from_lists(vals[:3], {(1, 2): vals[3], (1, 3): vals[4], (2, 3): vals[5]})
        caps = [Fraction(int(c), 4) for c in rng.integers(2, 9, size=3)]
        res = fdfp_feasible(r, caps)
        if not res.feasible:
            continue
        eff = res.effective_private
        for a in range(1, 4):
            total = sum(eff[j - 1] for j in range(1, 4) if j != a)
            assert total <= caps[a - 1]
        for pair in [(1, 2), (1, 3), (2, 3)]:
            assert res.splits[(pair, pair[0])] + res.splits[(pair, pair[1])] == r.rate(pair)
            assert res.splits[(pair, pair[0])] >= 0 and res.splits[(pair, pair[1])] >= 0


def test_fdfp_user_relabeling_invariance():
    rng = stream(13, "perm")
    import itertools

    for _ in range(10):
        vals = [Fraction(int(v), 40) for v in rng.integers(0, 14, size=6)]
        r = RateTuple.from_lists(vals[:3], {(1, 2): vals[3], (1, 3): vals[4], (2, 3): vals[5]})
        caps = [Fraction(int(c), 4) for c in rng.integers(1, 7, size=3)]
        answer = fdfp_feasible(r, caps).feasible
        for perm in itertools.permutations([1, 2, 3]):
            remap = {old: new for new, old in enumerate(perm, start=1)}
            rp = RateTuple(
                3,
                {tuple(sorted(remap[i] for i in k)): v for k, v in r.rates.items()},
            )
            caps_p = [None] * 3
            for old in (1, 2, 3):
                caps_p[remap[old] - 1] = caps[old - 1]
            assert fdfp_feasible(rp, caps_p).feasible == answer


def test_fdfp_region_inside_outer_and_strict_inclusion():
    up, down = counterexample_channel()
    ev = RegionEvaluator(up, down)
    bound = uplink_bound(up)
    caps = [Fraction(1)] * 3  # min(uplink bound, downlink peak) for this channel
    rng = stream(13, "incl")
    for _ in range(25):
        vals = [Fraction(int(v), 50) for v in rng.integers(0, 20, size=6)]
        r = RateTuple.from_lists(vals[:3], {(1, 2): vals[3], (1, 3): vals[4], (2, 3): vals[5]})
        if fdfp_feasible(r, caps).feasible:
            assert ev.report(r).inside_outer
    # witnessed strict inclusion at the bundled counterexample
    star = counterexample_rates()
    assert ev.report(star).achievable
    assert not fdfp_feasible(star, caps).feasible


def test_lp_answer_invariant_under_constraint_order():
    from mwrelay.lp import solve_lp

    rng = stream(13, "lporder")
    for _ in range(20):
        n = 4
        a_ub = [[int(v) for v in rng.integers(-3, 4, size=n)] for _ in range(5)]
        b_ub = [int(v) for v in rng.integers(-2, 6, size=5)]
        a_eq = [[int(v) for v in rng.integers(-2, 3, size=n)]]
        b_eq = [int(rng.integers(0, 4))]
        c = [int(v) for v in rng.integers(-2, 3, size=n)]
        base = solve_lp(c, a_eq, b_eq, a_ub, b_ub)
        perm = list(rng.permutation(5))
        shuffled = solve_lp(c, a_eq, b_eq, [a_ub[i] for i in perm], [b_ub[i] for i in perm])
        assert base.status == shuffled.status
        if base.status == "optimal":
            assert base.value == shuffled.value


def test_margin_concavity_along_segments():
    up, down = counterexample_channel()
    rng = stream(13, "concave")
    srs = [0.2, 0.3, 0.1]

    def g(p):
        from mwrelay.channel import mutual_info

        return min(mutual_info(p, down.channel(a)) - srs[a - 1] for a in (1, 2, 3))

    for _ in range(20):
        p1 = rng.random(2)
        p1 /= p1.sum()
        p2 = rng.random(2)
        p2 /= p2.sum()
        assert g((p1 + p2) / 2) >= (g(p1) + g(p2)) / 2 - 1e-9


def test_region_slice_examples():
    up, down = counterexample_channel()
    base = RateTuple.from_lists([0, 0, 0])
    rows = region_slice(base, (1,), (1, 2), up, down, Fraction(1, 2), Fraction(0))
    assert len(rows) == 1 and rows[0].achievable

    rows = region_slice(base, (1,), (1, 2), up, down, Fraction(3), Fraction(3))
    flags = {(float(r.x), float(r.y)): r.achievable for r in rows}
    assert flags[(0.0, 0.0)] is True
    assert all(not v for k, v in flags.items() if k != (0.0, 0.0))


def test_region_slice_monotone_staircase():
    up, down = counterexample_channel()
    base = counterexample_rates().with_rate((1, 2), 0)
    rows = region_slice(base, (1, 2), (2, 3), up, down, Fraction(1, 8), Fraction(1))
    by_y = {}
    for r in rows:
        by_y.setdefault(r.y, []).append((r.x, r.achievable))
    for y, seq in by_y.items():
        seq.sort()
        flags = [a for _, a in seq]
        # once unachievable, never achievable again along the axis
        assert flags == sorted(flags, reverse=True)
        assert sum(1 for i in range(1, len(flags)) if flags[i] != flags[i - 1]) <= 1


def test_region_slice_rejects_bad_step():
    up, down = counterexample_channel()
    with pytest.raises(ValueError):
        region_slice(RateTuple.from_lists([0, 0, 0]), (1,), (2,), up, down, 0)


def test_region_slice_default_max_reaches_alphabet_ceiling():
    up, down = counterexample_channel()
    rows = region_slice(RateTuple.from_lists([0, 0, 0]), (1,), (1, 2), up, down, Fraction(1, 2))
    # log2(4) = 2, so the grid must include the 2.0 boundary
    assert max(r.x for r in rows) == Fraction(2)


def test_fdfp_two_users_pair_rate_still_burdens_the_baseline():
    # the split baseline transmits both halves of a pair message as fresh
    # private messages, so even a pair both users already share consumes
    # cap, while the true region's per-user sums exclude it entirely
    r = RateTuple.from_lists([0, 0], {(1, 2): Fraction(1, 2)})
    assert r.sum_rate(1) == 0 and r.sum_rate(2) == 0
    assert fdfp_feasible(r, [Fraction(1, 2), Fraction(1, 2)]).feasible
    tight = fdfp_feasible(r, [Fraction(1, 5), Fraction(1, 5)])
    assert not tight.feasible
    assert tight.certificate.minimal_caps == [1, 2]


@pytest.mark.parametrize("caps", [[1, 1], [1, 1, 1, 1]])
def test_fdfp_rejects_a_cap_count_other_than_the_user_count_before_any_work(caps, monkeypatch):
    def forbidden(*_):
        raise AssertionError("split work started before the input check")

    monkeypatch.setattr("mwrelay.capacity._gale_slack", forbidden)
    monkeypatch.setattr("mwrelay.lp.solve_lp", forbidden)
    with pytest.raises(ValueError, match="one cap per user required"):
        fdfp_feasible(counterexample_rates(), caps)


# -- Gale's supply-demand verdict against independent oracles ---------------------


def near_cap_tuples(label, count):
    """Seeded tuples for L = 2..7, drawn like the benchmark's split checks.

    Integer rates and caps near 1, scaled so the most loaded user sits at
    96-104% of its cap: most are infeasible, not all trivially.
    """
    rng = stream(13, label)
    for b in range(count):
        n = 2 + b % 6
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        raw = RateTuple.from_lists(
            [int(v) for v in rng.integers(0, 9, n)],
            {p: int(v) for p, v in zip(pairs, rng.integers(0, 9, len(pairs)))},
        )
        caps = [Fraction(int(c), 20) for c in rng.integers(18, 23, n)]
        load = max(s / c for s, c in zip(raw.sum_rates(), caps))
        factor = Fraction(int(rng.integers(96, 105)), 100) / load if load else 1
        yield raw.scaled(factor), caps


@functools.cache
def oracle_tuples():
    """1,000 drawn tuples, each with its least Gale slack over all caps."""
    return [(r, c, _gale_slack(r, c, range(1, r.num_users + 1))) for r, c in near_cap_tuples("gale", 1000)]


def split_rows(rates, caps):
    """The split LP written from its definition: ``(a_eq, b_eq, a_ub, b_ub)``.

    Variable (p, m) is the part of pair p routed to its member m; user a's
    row bounds sum_{j != a} r_j by its cap, with r_j = R_j + j's parts.
    """
    users = range(1, rates.num_users + 1)
    pairs = [p for p in rates.rates if len(p) == 2]
    arcs = [(p, m) for p in pairs for m in p]
    a_eq = [[int(q == p) for q, _ in arcs] for p in pairs]
    a_ub = [[int(m != a) for _, m in arcs] for a in users]
    own = sum(rates.rate((a,)) for a in users)
    b_ub = [caps[a - 1] - own + rates.rate((a,)) for a in users]
    return a_eq, [rates.rate(p) for p in pairs], a_ub, b_ub


def exact_lp_feasible(rates, caps) -> bool:
    a_eq, b_eq, a_ub, b_ub = split_rows(rates, caps)
    return lp.solve_lp([0] * len(a_eq[0]), a_eq, b_eq, a_ub, b_ub).status == "optimal"


def highs_overruns(systems):
    """Per split system, the least cap overrun t >= 0 that makes it feasible.

    One HiGHS solve over the block-diagonal union: system k's cap rows
    read A_ub x - t_k <= b_ub and the sum of the t_k is minimized, so each
    t_k is its own system's least overrun, 0 exactly when it is feasible.
    """
    from scipy.optimize import linprog
    from scipy.sparse import block_diag, csr_array, hstack

    k = len(systems)
    a_eq = block_diag([np.array(s[0], float) for s in systems], format="csr")
    a_ub = block_diag([np.array(s[2], float) for s in systems], format="csr")
    owner = np.repeat(np.arange(k), [len(s[2]) for s in systems])
    rows = np.arange(owner.size)
    a_ub = hstack([a_ub, csr_array((-np.ones(owner.size), (rows, owner)), shape=(owner.size, k))])
    a_eq = hstack([a_eq, csr_array((a_eq.shape[0], k))])
    res = linprog(
        np.r_[np.zeros(a_eq.shape[1] - k), np.ones(k)],
        A_ub=a_ub,
        b_ub=np.concatenate([np.array(s[3], float) for s in systems]),
        A_eq=a_eq,
        b_eq=np.concatenate([np.array(s[1], float) for s in systems]),
        method="highs",
    )
    assert res.status == 0, res.message
    return res.x[-k:]


def test_gale_verdict_matches_highs():
    pytest.importorskip("scipy")
    tuples = oracle_tuples()
    assert {r.num_users for r, _, _ in tuples} == set(range(2, 8))
    # HiGHS works to about 1e-7, so its verdicts are read only where
    # Gale's slack is far from 0; exact ties go to the exact LP below.
    assert min(abs(s) for _, _, s in tuples if s) > Fraction(1, 1000)
    clear = [(r, c, s is None or s > 0) for r, c, s in tuples if s != 0]
    assert len(clear) > 950
    overruns = highs_overruns([split_rows(r, c) for r, c, _ in clear])
    verdicts = [feasible for _, _, feasible in clear]
    assert [t <= 1e-6 for t in overruns] == verdicts
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.5


def test_gale_verdict_matches_the_exact_lp_on_ties_and_small_tuples():
    # Phase I of the exact simplex, on every tie (least slack exactly 0,
    # so feasible) and, where it is cheap, on L <= 4.
    tuples = oracle_tuples()
    ties = [(r, c) for r, c, s in tuples if s == 0]
    assert len({r.num_users for r, _ in ties}) > 3
    for r, c in ties:
        assert exact_lp_feasible(r, c)
    for r, c, s in tuples:
        if s != 0 and r.num_users <= 4:
            assert exact_lp_feasible(r, c) == (s is None or s > 0)


def test_gale_verdict_matches_a_split_grid_on_three_users():
    # The split system's matrix is the incidence matrix of a bipartite
    # graph (pairs against users), so it is totally unimodular: with every
    # rate and cap a multiple of 1/den, a feasible system has a vertex on
    # the 1/den grid, and searching that grid decides it exactly.
    rng = stream(13, "gale-grid")
    pairs = [(1, 2), (1, 3), (2, 3)]
    verdicts = []
    for _ in range(300):
        den = int(rng.integers(2, 5))
        own = [0] + [int(v) for v in rng.integers(0, den + 1, 3)]
        pair = dict(zip(pairs, (int(v) for v in rng.integers(0, den + 1, 3))))
        total = sum(own) + sum(pair.values())
        # User a needs u_a of its pairs' rate; u_a runs up to all of it.
        caps = [
            total - own[a] - int(rng.integers(0, 1 + sum(v for p, v in pair.items() if a in p)))
            for a in (1, 2, 3)
        ]
        grid = False
        for first in itertools.product(*(range(v + 1) for v in pair.values())):
            load = list(own)
            for (i, j), x in zip(pairs, first):
                load[i] += x
                load[j] += pair[(i, j)] - x
            if all(total - load[a] <= caps[a - 1] for a in (1, 2, 3)):
                grid = True
                break
        rates = RateTuple.from_lists(
            [Fraction(v, den) for v in own[1:]], {p: Fraction(v, den) for p, v in pair.items()}
        )
        assert _gale_feasible(rates, [Fraction(c, den) for c in caps], (1, 2, 3)) == grid
        verdicts.append(grid)
    assert 50 < sum(verdicts) < 250


def subset_deficits(rates, caps) -> list[Fraction]:
    """Demand minus pair supply of every user set S, indexed by bitmask (bit a - 1 is user a).

    User a demands T - cap_a - R_a; the pairs meeting S supply their rates.
    """
    n = rates.num_users
    total = sum(rates.rates.values())
    need = [total - caps[a - 1] - rates.rate((a,)) for a in range(1, n + 1)]
    pairs = [((1 << p[0] - 1) | (1 << p[1] - 1), r) for p, r in rates.rates.items() if len(p) == 2]
    scale = math.lcm(*(v.denominator for v in need), *(r.denominator for _, r in pairs))
    need = [int(v * scale) for v in need]
    pairs = [(mask, int(r * scale)) for mask, r in pairs]
    return [
        Fraction(
            sum(d for a, d in enumerate(need) if s >> a & 1) - sum(r for mask, r in pairs if mask & s),
            scale,
        )
        for s in range(1 << n)
    ]


def test_minimal_caps_are_a_violated_gale_set_whose_proper_parts_pass():
    infeasible = [(r, c) for r, c, s in oracle_tuples() if s is not None and s < 0]
    assert len(infeasible) > 500
    for rates, caps in infeasible:
        deficit = subset_deficits(rates, caps)
        minimal = _minimal_caps(rates, caps)
        mask = sum(1 << a - 1 for a in minimal)
        assert deficit[mask] > 0
        for a in minimal:
            rest = mask & ~(1 << a - 1)
            assert all(deficit[s] <= 0 for s in range(len(deficit)) if s & ~rest == 0)
    # fdfp_feasible reports the same set (chains are cheap at L = 3).
    for rates, caps in infeasible:
        if rates.num_users == 3:
            assert fdfp_feasible(rates, caps).certificate.minimal_caps == _minimal_caps(rates, caps)


def test_gale_decides_the_five_user_tuple_whose_chain_solve_fails():
    # bench/test_bench.py pins this tuple as a strict xfail: the chain
    # solves of the exact simplex still fail on it.  The verdict and the
    # minimal set no longer depend on them.  The most violated set is all
    # five users; the deletion filter drops user 1 first, since the caps
    # of users 2-5 alone already conflict.
    F = Fraction
    rates = RateTuple(5, {
        (1,): F(0), (2,): F(57, 500), (3,): F(19, 200), (4,): F(57, 500), (5,): F(0),
        (1, 2): F(19, 500), (1, 3): F(19, 200), (1, 4): F(133, 1000), (1, 5): F(57, 500),
        (2, 3): F(57, 500), (2, 4): F(19, 125), (2, 5): F(19, 200), (3, 4): F(19, 125),
        (3, 5): F(57, 500), (4, 5): F(0),
    })
    caps = [F(19, 20), F(9, 10), F(21, 20), F(9, 10), F(21, 20)]
    assert not _gale_feasible(rates, caps, range(1, 6))
    assert _gale_slack(rates, caps, range(1, 6)) == -F(47, 100)
    deficit = subset_deficits(rates, caps)
    assert max(deficit) == deficit[0b11111] == F(47, 100)
    assert _minimal_caps(rates, caps) == [2, 3, 4, 5]
    assert deficit[0b11110] == F(9, 100)
