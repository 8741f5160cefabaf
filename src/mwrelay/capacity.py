"""Rate-region arithmetic for the multi-way relay channel.

Covers rate tuples with private and pairwise common messages, the
per-user sum rates, membership tests against the inner (achievable) and
outer (cut-set) regions, the downlink max-min optimizer with a
certified upper bound, and the exact-rational feasibility check
for the baseline scheme that splits each common message into two
private parts (with Farkas-style infeasibility certificates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import lp
from .channel import DownlinkSpec, UplinkSpec, mutual_info, neg_entropy, uplink_bound
from .schedule import MsgId, decode_sums, message_ids, msg_id, per_message

#: Real-valued downlink margins within this tolerance of zero are treated
#: as boundary cases (neither strictly inside nor strictly outside).
MARGIN_TOL = 1e-9


class RateTuple:
    """Nonnegative rates (bits/use) for every private and pair message.

    Rates are stored as exact ``Fraction`` values; float views are
    available where real arithmetic is needed.
    """

    def __init__(self, num_users: int, rates: dict):
        if num_users < 2:
            raise ValueError("need at least two users")
        self.num_users = num_users
        self.rates = per_message(num_users, rates.items(), Fraction, "rate")

    @classmethod
    def from_lists(cls, private, common=None) -> "RateTuple":
        items = [((i + 1,), r) for i, r in enumerate(private)] + list((common or {}).items())
        num_users = len(private)
        return cls(num_users, per_message(num_users, items, Fraction, "rate"))

    def rate(self, key) -> Fraction:
        return self.rates[msg_id(key)]

    def sum_rate(self, a: int) -> Fraction:
        """Total rate of everything user ``a`` must decode."""
        if not 1 <= a <= self.num_users:
            raise ValueError(f"no such user {a}")
        return self._sum_rates[a - 1]

    def sum_rates(self) -> list[Fraction]:
        return list(self._sum_rates)

    @cached_property
    def _sum_rates(self) -> tuple[Fraction, ...]:
        # Computed once per tuple: the split LP reads them for every cap
        # row, and every region report of the tuple shares them.
        return tuple(decode_sums(self.num_users, self.rates))

    def scaled(self, factor) -> "RateTuple":
        f = Fraction(factor)
        return RateTuple(self.num_users, {k: v * f for k, v in self.rates.items()})

    def with_rate(self, key, value) -> "RateTuple":
        return RateTuple(self.num_users, {**self.rates, msg_id(key): value})

    def __eq__(self, other):
        return (
            isinstance(other, RateTuple)
            and other.num_users == self.num_users
            and other.rates == self.rates
        )

    def __repr__(self):
        body = ", ".join(f"{k}: {v}" for k, v in sorted(self.rates.items()))
        return f"RateTuple({self.num_users}, {{{body}}})"


# -- downlink max-min optimizer --------------------------------------------------

#: Stop once the certified upper bound is within this of the lower bound.
GAP_TOL = 1e-10
#: Iteration cap; a run that reaches it returns its bounds with a wider gap.
MAX_ITERS = 100_000
#: Multiplicative-weights step of the user weights, per bit of margin.
_WEIGHT_STEP = 16.0
#: Least user weight.  A weight that underflowed to 0 could never grow
#: back once its user became the binding one.
_WEIGHT_FLOOR = 1e-12
_TINY = np.finfo(np.float64).tiny


def max_min_downlink(down: DownlinkSpec, sum_rates) -> tuple[float, float, np.ndarray]:
    """Bounds on max_p min_a (I(X0;Y_a) - sum_rate_a) over input distributions.

    Returns ``(lower, upper, p)``: ``lower`` is the objective at the input
    distribution ``p``, and ``upper`` is a certified bound on the maximum.

    With q_a = p W_a and D[a, x] = D(W_a(x) || q_a) in bits, I(X0;Y_a) =
    sum_x p_x D[a, x].  Since I(p'; W) <= max_x D(W(x) || q) for every p'
    and every q, max_x sum_a lam_a (D[a, x] - s_a) bounds the maximum for
    every weight vector lam in the simplex; ``upper`` is the least such
    value over the iterates, taken at the current weights and at each
    single user.  The weights move by multiplicative weights toward the
    users with the smallest margin, and p by the lam-weighted
    Blahut-Arimoto update p <- p 2^(lam . D) (Blahut 1972; Arimoto 1972).
    The loop stops when upper - lower <= ``GAP_TOL`` or after
    ``MAX_ITERS`` iterations.
    """
    srs = np.array([float(s) for s in sum_rates])
    if srs.size != down.num_users:
        raise ValueError("one sum rate per user required")
    # All users' channels stacked, outputs padded with zero columns.
    w = np.zeros((down.num_users, down.input_size, max(c.shape[1] for c in down.user_channels)))
    for a, c in enumerate(down.user_channels):
        w[a, :, : c.shape[1]] = c
    offset = neg_entropy(w) - srs[:, None]

    p = np.full(down.input_size, 1.0 / down.input_size)
    lam = np.full(down.num_users, 1.0 / down.num_users)
    lower, upper, best = -np.inf, np.inf, p
    for _ in range(MAX_ITERS):
        # Flooring q keeps D finite.  The upper bound holds for any output
        # distribution q (the floor adds under 1e-300 of mass), and
        # raising q can only lower the lower one.
        log_q = np.log2(np.maximum(p @ w, _TINY))
        d = offset - (w @ log_q[:, :, None])[:, :, 0]  # D[a, x] - s_a
        margins = d @ p
        worst = margins.min()
        if worst > lower:
            lower, best = worst, p
        lam = lam * np.exp2(_WEIGHT_STEP * (worst - margins))
        lam = np.maximum(lam / lam.sum(), _WEIGHT_FLOOR)
        lam /= lam.sum()
        z = lam @ d
        z_max = z.max()
        upper = min(upper, float(z_max), float(d.max(axis=1).min()))
        if upper - lower <= GAP_TOL:
            break
        p = p * np.exp2(z - z_max)
        p /= p.sum()
    # Report the objective itself at the returned distribution.
    lower = min(mutual_info(best, c) - s for c, s in zip(down.user_channels, srs))
    return float(lower), upper, best


# -- region membership -----------------------------------------------------------


@dataclass(slots=True)
class RegionReport:
    """Everything the inner and outer tests look at, in one place.

    ``margin`` is the downlink max-min value attained at ``argmax_dist``
    and ``upper`` a certified bound on it; the optimum lies between them.
    """

    sum_rates: tuple[Fraction, ...]
    uplink_bound: float
    margin: float
    upper: float
    argmax_dist: np.ndarray
    achievable: bool
    inside_outer: bool


class RegionEvaluator:
    """Caches the channel side of membership tests across many tuples."""

    def __init__(self, up: UplinkSpec, down: DownlinkSpec):
        if down.num_users < 2:
            raise ValueError("need at least two downlink users")
        self.up = up
        self.down = down
        self.bound = uplink_bound(up)

    def report(self, rates: RateTuple) -> RegionReport:
        """Verdicts that hold for the true optimum, not only for the iterate.

        Achievable needs the attained margin above the tolerance; outside
        needs the certified upper bound below minus the tolerance.  A
        tuple that is neither achievable nor outside is undetermined.
        """
        if rates.num_users != self.down.num_users:
            raise ValueError("rate tuple and downlink disagree on the user count")
        srs = rates._sum_rates
        lower, upper, dist = max_min_downlink(self.down, srs)
        ach = bool(all(s < self.bound for s in srs) and lower > MARGIN_TOL)
        outer = bool(all(s <= self.bound for s in srs) and upper >= -MARGIN_TOL)
        return RegionReport(srs, self.bound, lower, upper, dist, ach, outer)


# -- baseline feasibility (common messages split into private parts) -------------


@dataclass
class FdfpChain:
    """One derived contradiction: user ``user``'s required sum exceeds its cap.

    ``bound`` is the exact minimum of sum_{j != user} r_j over splits
    that satisfy the caps in ``using_caps``; since bound > cap, no split
    can satisfy user ``user``'s constraint.  ``cap_multipliers`` and
    ``eq_multipliers`` are the verified Farkas multipliers (the cap of
    ``user`` itself carries multiplier 1).
    """

    user: int
    using_caps: list[int]
    bound: Fraction
    cap: Fraction
    cap_multipliers: dict[int, Fraction]
    eq_multipliers: dict[MsgId, Fraction]


@dataclass
class FdfpCertificate:
    chains: list[FdfpChain]
    minimal_caps: list[int]


@dataclass
class FdfpResult:
    feasible: bool
    #: On success: split rate toward each member, keyed (pair, receiver).
    splits: dict[tuple[MsgId, int], Fraction] | None = None
    certificate: FdfpCertificate | None = None
    effective_private: list[Fraction] | None = None


class _SplitSystem:
    """The split-variable LP: variable 2i + s routes pair i to its member s."""

    def __init__(self, rates: RateTuple, caps):
        self.rates = rates
        self.num_users = rates.num_users
        self.caps = [Fraction(c) for c in caps]
        if len(self.caps) != self.num_users:
            raise ValueError("one cap per user required")
        self.pairs = [k for k in message_ids(self.num_users) if len(k) == 2]
        self.vars = [(pair, member) for pair in self.pairs for member in pair]
        self.n = len(self.vars)
        self.a_eq = [self._row([2 * i, 2 * i + 1]) for i in range(len(self.pairs))]
        self.b_eq = [rates.rate(pair) for pair in self.pairs]

    def _row(self, ones) -> list[Fraction]:
        return [Fraction(int(v in ones)) for v in range(self.n)]

    def cap_row(self, a: int) -> list[Fraction]:
        """Coefficients of sum_{j != a} r_j minus its constant part.

        The variable part is sum over pairs {a, j} of the split pointed
        at j; pairs not containing a contribute their full rate, which
        is constant and folded into the rhs.
        """
        return self._row([2 * i + (pair[0] == a) for i, pair in enumerate(self.pairs) if a in pair])

    def cap_rhs(self, a: int) -> Fraction:
        return self.caps[a - 1] - self.rates.sum_rate(a)

    def solve(self, objective, users) -> lp.LpResult:
        """Minimize ``objective`` over splits within the caps of ``users``."""
        a_ub = [self.cap_row(a) for a in users]
        b_ub = [self.cap_rhs(a) for a in users]
        return lp.solve_lp(objective, self.a_eq, self.b_eq, a_ub, b_ub)


def _gale_slack(rates: RateTuple, caps, users) -> Fraction | None:
    """Least supply minus demand over sets of the users in ``users`` that fall short.

    A split routes pair {i, j}'s rate R_{i,j} to i and to j.  With T the
    total rate, user a's cap holds iff its effective private rate reaches
    T - cap_a, so it needs demand d_a = T - cap_a - R_a from its pairs.  By
    Gale's supply-demand theorem (Gale, "A theorem on flows in networks",
    Pacific J. Math. 1957) the caps in ``users`` can all be met iff every
    set S of users with d_a > 0 has sum_{a in S} d_a <= sum of R_p over the
    pairs p meeting S.  Returns the least slack over those sets (None when
    no user falls short), scanned in integers scaled by the common
    denominator.
    """
    total = sum(rates.rates.values())
    need = {a: total - caps[a - 1] - rates.rate((a,)) for a in users}
    short = [a for a in users if need[a] > 0]
    if not short:
        return None
    bit = {a: 1 << i for i, a in enumerate(short)}
    pairs = [
        (bit.get(p[0], 0) | bit.get(p[1], 0), r)
        for p, r in rates.rates.items()
        if len(p) == 2 and r and (p[0] in bit or p[1] in bit)
    ]
    scale = math.lcm(*(need[a].denominator for a in short), *(r.denominator for _, r in pairs))
    demand = [int(need[a] * scale) for a in short]
    supply = [(mask, int(r * scale)) for mask, r in pairs]
    least = min(
        sum(r for mask, r in supply if mask & s) - sum(d for i, d in enumerate(demand) if s >> i & 1)
        for s in range(1, 1 << len(short))
    )
    return Fraction(least, scale)


def _gale_feasible(rates: RateTuple, caps, users) -> bool:
    """Whether some split meets the caps of ``users`` (see ``_gale_slack``)."""
    slack = _gale_slack(rates, caps, users)
    return slack is None or slack >= 0


def _minimal_caps(rates: RateTuple, caps) -> list[int]:
    """Deletion filter: drop each user's cap in turn while the rest stay infeasible."""
    minimal = list(range(1, rates.num_users + 1))
    for a in list(minimal):
        trial = [u for u in minimal if u != a]
        if not _gale_feasible(rates, caps, trial):
            minimal = trial
    return minimal


def fdfp_feasible(rates: RateTuple, caps) -> FdfpResult:
    """Can splitting common messages into private parts meet every cap?

    Each pair rate R_{i,j} is split into nonnegative parts routed to i
    and to j; user a's effective private load r_a = R_a + its incoming
    parts must satisfy sum_{j != a} r_j <= caps[a-1] for every a.

    Gale's supply-demand condition (Gale 1957; see ``_gale_slack``)
    decides, exactly, the verdict and each step of the deletion filter
    that finds a minimal infeasible cap set.  The exact simplex
    (``lp.solve_lp``) only writes what the answer shows: one solve for a
    feasible tuple's splits, and one per chain of an infeasible tuple's
    certificate, each chain deriving an explicit violated inequality and
    verified exactly.
    """
    sys = _SplitSystem(rates, caps)
    users = list(range(1, sys.num_users + 1))
    if _gale_feasible(rates, sys.caps, users):
        full = sys.solve([Fraction(0)] * sys.n, users)
        assert full.status == "optimal", "the split LP must agree with Gale's condition"
        splits = dict(zip(sys.vars, full.x))
        eff = [
            rates.rate((a,)) + sum((v for (_, to), v in splits.items() if to == a), Fraction(0))
            for a in users
        ]
        return FdfpResult(True, splits=splits, effective_private=eff)

    minimal = _minimal_caps(rates, sys.caps)
    chains = []
    for star in minimal:
        support = [u for u in minimal if u != star]
        res = sys.solve(sys.cap_row(star), support)
        assert res.status == "optimal", "deletion filter guarantees a feasible subsystem"
        bound = rates.sum_rate(star) + res.value
        cap = sys.caps[star - 1]
        assert bound > cap, "minimal infeasible subsystem must violate the removed cap"
        cap_mults = {star: Fraction(1), **{a: -d for a, d in zip(support, res.dual_ub)}}
        eq_mults = {pair: -d for pair, d in zip(sys.pairs, res.dual_eq)}
        _verify_farkas(sys, cap_mults, eq_mults)
        chains.append(FdfpChain(star, support, bound, cap, cap_mults, eq_mults))
    return FdfpResult(False, certificate=FdfpCertificate(chains, minimal))


def _verify_farkas(sys: _SplitSystem, cap_mults, eq_mults) -> None:
    """Exact check: multipliers combine the constraints into 0 <= negative."""
    combo = [Fraction(0)] * sys.n
    rhs = Fraction(0)
    for a, v in cap_mults.items():
        assert v >= 0, "cap multipliers must be nonnegative"
        row = sys.cap_row(a)
        combo = [ci + v * ri for ci, ri in zip(combo, row)]
        rhs += v * sys.cap_rhs(a)
    for pair, row, b in zip(sys.pairs, sys.a_eq, sys.b_eq):
        combo = [ci + eq_mults[pair] * ri for ci, ri in zip(combo, row)]
        rhs += eq_mults[pair] * b
    assert all(ci >= 0 for ci in combo), "combined coefficients must be nonnegative"
    assert rhs < 0, "combined rhs must be negative"


# -- region slices ----------------------------------------------------------------


@dataclass
class SliceRow:
    x: Fraction
    y: Fraction
    achievable: bool
    inside_outer: bool


def region_slice(
    rates: RateTuple,
    key_x,
    key_y,
    up: UplinkSpec,
    down: DownlinkSpec,
    step,
    max_value=None,
) -> list[SliceRow]:
    """Grid evaluation of the inner/outer tests over two rate coordinates."""
    step = Fraction(step)
    if step <= 0:
        raise ValueError("grid step must be positive")
    if max_value is None:
        # Largest step multiple not above the uplink alphabet ceiling.
        ceiling = Fraction(float(np.log2(up.field.order)))
        max_value = (ceiling // step) * step
    else:
        max_value = Fraction(max_value)
    if max_value < 0:
        raise ValueError(f"grid max {max_value} is below 0, so the grid is empty")
    evaluator = RegionEvaluator(up, down)
    rows = []
    x = Fraction(0)
    while x <= max_value:
        y = Fraction(0)
        while y <= max_value:
            r = rates.with_rate(key_x, x).with_rate(key_y, y)
            rep = evaluator.report(r)
            rows.append(SliceRow(x, y, rep.achievable, rep.inside_outer))
            y += step
        x += step
    return rows
