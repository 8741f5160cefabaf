"""Seeded benchmark workloads for mwrelay, each with an independent oracle.

A workload turns the benchmark seed into a fixed instance and an endless,
deterministic sequence of calls into the public entry points that the
CLI subcommands use.  ``call(i, workers)`` runs call ``i``; ``check(i,
out)`` returns ``None`` when the output passes the workload's oracle and
a reason otherwise.  Inputs come from numpy's own generators, never from
``mwrelay.rng``, so a change to how the package derives random values
does not change the benchmark's inputs.

Calls go through module attributes (``sim.run_trials``, ...), so the
traced run's wrappers see them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from mwrelay import capacity, cli, sim
from mwrelay.channel import DownlinkSpec, UplinkSpec
from mwrelay.gf import Field

# Calls i of a run use master seed seed * SEED_STRIDE + i.
SEED_STRIDE = 2**20

# Oracle tolerance for the generic-slice margin recomputation.
MARGIN_AGREE = 1e-9
# Least capacity, in bits, of the shared channel of the region workload.
CAP_FLOOR = 0.1
# Float slack for lo95 <= p_hat <= hi95: at zero failures the Wilson
# lower end comes out near 1e-17 rather than 0.
WILSON_SLACK = 1e-12


def _config(root: Path, name: str) -> dict:
    return json.loads((root / "configs" / name).read_text())


# -- oracles ------------------------------------------------------------------


def check_stats(st, trials: int):
    """Sanity of one Monte Carlo estimate (the noisy runs have no exact answer)."""
    if st.trials != trials:
        return f"{st.trials} trials reported for {trials} run"
    if not 0 <= st.failures <= st.trials:
        return f"failure count {st.failures} outside [0, {st.trials}]"
    if not st.lo95 - WILSON_SLACK <= st.p_hat <= st.hi95 + WILSON_SLACK:
        return f"p_hat {st.p_hat} outside its interval [{st.lo95}, {st.hi95}]"
    if st.redraws < 0:
        return f"negative redraw count {st.redraws}"
    return None


def check_zero_noise(st, trials: int):
    """A noiseless channel must never lose a block."""
    return check_stats(st, trials) or (
        f"{st.failures} failures at zero noise" if st.failures else None
    )


def check_identity_verdict(rep, rates) -> str | None:
    """Closed form for the bundled identity slice.

    Both the uplink ceiling (log2 4 minus one bit of noise) and the
    identity downlink's max-min value (1 bit minus the largest sum rate)
    equal 1 - max_a s_a, so the tuple is achievable iff max_a s_a < 1 and
    inside the outer bound iff max_a s_a <= 1, in exact arithmetic.
    """
    s = max(rates.sum_rates())
    want = (s < 1, s <= 1)
    got = (rep.achievable, rep.inside_outer)
    if got != want:
        return f"verdict (achievable, outer) {got} but max sum rate {s} gives {want}"
    return None


def mutual_info_bits(p, w) -> float:
    """I(X;Y) in bits, written out term by term in plain floats."""
    rows, cols = len(w), len(w[0])
    q = [sum(float(p[x]) * float(w[x][y]) for x in range(rows)) for y in range(cols)]
    total = 0.0
    for x in range(rows):
        for y in range(cols):
            pxy = float(p[x]) * float(w[x][y])
            if pxy > 0:
                total += pxy * math.log2(float(w[x][y]) / q[y])
    return total


def check_generic_report(rep, rates, channels) -> str | None:
    """Recompute min_a (I_a(argmax) - s_a) and the verdicts' consistency."""
    s = [float(v) for v in rates.sum_rates()]
    margin = min(mutual_info_bits(rep.argmax_dist, w) - s[a] for a, w in enumerate(channels))
    if not abs(margin - rep.margin) <= MARGIN_AGREE:
        return f"margin {rep.margin!r} but its argmax gives {margin!r}"
    if rep.achievable and not rep.inside_outer:
        return "achievable but outside the outer bound"
    return None


def _fdfp_rows(rates, caps):
    """The split LP in the convention the certificates are stated in.

    Variables are (pair, receiving member).  User a's cap row has a 1 on
    the split of each pair {a, j} pointed at j, with right-hand side
    cap_a - s_a; each pair's two splits sum to its rate.
    """
    users = range(1, rates.num_users + 1)
    s = {a: sum((r for m, r in rates.rates.items() if a not in m), Fraction(0)) for a in users}
    pairs = sorted(m for m in rates.rates if len(m) == 2)
    var = [(p, p[0]) for p in pairs] + [(p, p[1]) for p in pairs]
    cap_row = {
        a: ([Fraction(int(a in pair and to != a)) for pair, to in var], Fraction(caps[a - 1]) - s[a])
        for a in users
    }
    eq_row = {p: ([Fraction(int(q == p)) for q, _ in var], rates.rate(p)) for p in pairs}
    return cap_row, eq_row, len(var)


def check_fdfp(res, rates, caps) -> str | None:
    """Exact re-verification of a split (feasible) or each Farkas chain."""
    users = range(1, rates.num_users + 1)
    pairs = sorted(m for m in rates.rates if len(m) == 2)
    if res.feasible:
        load = {a: rates.rate((a,)) for a in users}
        for p in pairs:
            parts = [res.splits[(p, to)] for to in p]
            if min(parts) < 0 or sum(parts) != rates.rate(p):
                return f"split of {p} is {parts}, not a nonnegative split of {rates.rate(p)}"
            for to, part in zip(p, parts):
                load[to] += part
        for a in users:
            need = sum((load[j] for j in users if j != a), Fraction(0))
            if need > Fraction(caps[a - 1]):
                return f"user {a} must decode {need} > cap {caps[a - 1]}"
        if res.effective_private != [load[a] for a in users]:
            return "effective private rates disagree with the splits"
        return None
    if not res.certificate or not res.certificate.chains:
        return "infeasible without a certificate"
    cap_row, eq_row, width = _fdfp_rows(rates, caps)
    for ch in res.certificate.chains:
        lam, mu = ch.cap_multipliers, ch.eq_multipliers
        if set(lam) != {ch.user, *ch.using_caps} or lam.get(ch.user) != 1:
            return f"chain for user {ch.user}: cap multipliers {lam} do not match its caps"
        if any(v < 0 for v in lam.values()):
            return f"chain for user {ch.user}: negative cap multiplier"
        if ch.cap != Fraction(caps[ch.user - 1]):
            return f"chain for user {ch.user}: cap {ch.cap} is not the given cap"
        coef = [Fraction(0)] * width
        rhs = Fraction(0)
        for a, v in lam.items():
            row, b = cap_row[a]
            coef = [c + v * r for c, r in zip(coef, row)]
            rhs += v * b
        for p, u in mu.items():
            row, b = eq_row[p]
            coef = [c + u * r for c, r in zip(coef, row)]
            rhs += u * b
        if min(coef, default=0) < 0 or rhs >= 0:
            return f"chain for user {ch.user}: multipliers do not combine to 0 <= {rhs} < 0"
        # Without the starred cap the same combination bounds its sum from below.
        implied = ch.cap - rhs
        if not implied >= ch.bound > ch.cap:
            return f"chain for user {ch.user}: bound {ch.bound} not certified ({implied})"
    return None


# -- workloads ----------------------------------------------------------------


@dataclass
class FinalCheck:
    """An untimed oracle run after measurement; ``ops`` count as attempted."""

    name: str
    ops: int
    reason: str | None


class SimNoisy:
    """``simulate`` on the bundled noisy config, ``ops_per_call`` trials at a time."""

    name = "sim_noisy"
    parallel = "library"  # workers are run_trials threads
    ops_per_call = 10
    chunk_calls = 1

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.cfg = self._trial_config(_config(root, "noisy_uplink_small.json"))
        self.zero = self._trial_config(_config(root, "zero_noise_roundtrip.json"))

    @staticmethod
    def _trial_config(cfg):
        up, down = cli.parse_channel(cfg["channel"])
        return sim.TrialConfig(
            up, down, n=cfg["n"], n_dl=cfg["n_dl"], trials=cfg["trials"],
            master_seed=0, lengths=cli.parse_lengths(cfg["lengths"]),
        )

    def call(self, i: int, workers: int):
        cfg = replace(self.cfg, trials=self.ops_per_call, master_seed=self.seed * SEED_STRIDE + i)
        return sim.run_trials(cfg, threads=workers)

    def check(self, i, out):
        return check_stats(out, self.ops_per_call)

    def final_checks(self):
        trials = 50
        st = sim.run_trials(replace(self.zero, trials=trials, master_seed=self.seed))
        return [FinalCheck("zero_noise_roundtrip", trials, check_zero_noise(st, trials))]

    def summary(self, outs):
        return _mc_summary([st for _, st in outs])


class RelayGf4:
    """Relay-side sum decoding over GF(4), k=6, n=16: 4^6 candidates a trial."""

    name = "relay_gf4"
    parallel = "library"
    ops_per_call = 4
    chunk_calls = 3
    k, n = 6, 16

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        field = Field(4)
        self.up = UplinkSpec(field, np.array([0.8, 0.1, 0.05, 0.05]))
        self.zero = UplinkSpec(field, np.array([1.0, 0.0, 0.0, 0.0]))

    def call(self, i: int, workers: int):
        return sim.sum_decode_trials(
            self.up, self.k, self.n, self.ops_per_call, self.seed * SEED_STRIDE + i,
            threads=workers,
        )

    def check(self, i, out):
        return check_stats(out, self.ops_per_call)

    def final_checks(self):
        trials = 20
        st = sim.sum_decode_trials(self.zero, self.k, self.n, trials, self.seed)
        return [FinalCheck("zero_noise_sum_decode", trials, check_zero_noise(st, trials))]

    def summary(self, outs):
        return _mc_summary([st for _, st in outs])


def _mc_summary(outs):
    trials = sum(st.trials for st in outs)
    failures = sum(st.failures for st in outs)
    return {
        "trials": trials,
        "failures": failures,
        "p_hat": failures / trials if trials else None,
        "redraws": sum(st.redraws for st in outs),
    }


def _slice_points(base, step: Fraction, top: Fraction):
    """Rate tuples of a region-sweep grid over R_1 (x) and R_{1,2} (y)."""
    count = int(top / step) + 1
    return [
        base.with_rate((1,), step * i).with_rate((1, 2), step * j)
        for i in range(count)
        for j in range(count)
    ]


class Region:
    """``region-sweep`` style checks over two 13x13 slices, interleaved.

    Slice one is the bundled identity-downlink sweep.  Slice two gives all
    three users one 2-input, 3-output channel, with the rate grid scaled
    to that channel's capacity so both verdicts occur.  Distinct
    per-user channels are left out: where two users' margins cross at the
    optimum, today's optimizer runs all its iterations (seconds per check
    on whole grid columns), which a timed run cannot repeat steadily.

    The channel comes from a fixed stream, not from the seed: a channel
    drawn per seed set the cost of a pass anywhere from 3.0 to 6.0 s
    (seeds 40-79), more than any bound could absorb.  The seed orders
    each pass over the points after the first, which runs in point order
    so that the warm-up call is the same for every seed.

    There are two generic points per identity point, so the median
    latency falls inside the generic checks rather than between the two
    slices' latencies.  Throughput comes from each point's latency over
    the passes.
    """

    name = "region"
    parallel = "callers"  # workers are concurrent callers
    ops_per_call = 1
    passes = 40

    def __init__(self, root: Path, seed: int):
        cfg = _config(root, "region_sweep_f4.json")
        up, down = cli.parse_channel(cfg["channel"])
        base = cli.parse_rates(cfg["rates"])
        sweep = cfg["sweep"]
        if (sweep["x"], sweep["y"]) != ("1", "1,2"):
            raise ValueError("region workload expects the R_1 x R_{1,2} sweep")
        step, top = Fraction(sweep["step"]), Fraction(sweep["max"])
        identity = _slice_points(base, step, top)

        w, cap = self._draw_channel(np.random.default_rng(0x5E610))
        self.channels = (w, w, w)
        generic_down = DownlinkSpec(2, self.channels)
        scale = Fraction(cap).limit_denominator(1000)
        generic = _slice_points(base.scaled(scale), step * scale, top * scale)

        self.evaluators = (
            capacity.RegionEvaluator(up, down),
            capacity.RegionEvaluator(up, generic_down),
        )
        self.points = []
        for k in range(len(generic)):
            if k % 2 == 0:
                self.points.append((0, identity[k // 2]))
            self.points.append((1, generic[k]))
        rng = np.random.default_rng([seed, 0x5E610])
        count = len(self.points)
        self.order = list(range(count)) + [
            int(k) for _ in range(self.passes - 1) for k in rng.permutation(count)
        ]

    @staticmethod
    def _draw_channel(rng):
        """A 2x3 channel of capacity at least CAP_FLOOR bits, and that capacity.

        Nearly equal rows give a capacity near 0 (below 1e-4 bits for
        about 1 draw in 1,000), which would scale the rate grid to 0.
        Such draws are drawn again from the same generator.
        """
        grid = np.linspace(0.0, 1.0, 1001)
        while True:
            w = rng.dirichlet(np.ones(3), size=2)
            cap = max(mutual_info_bits([p, 1.0 - p], w) for p in grid)
            if cap >= CAP_FLOOR:
                return w, cap

    def instance(self, i: int) -> int:
        """The grid point that call ``i`` checks."""
        return self.order[i % len(self.order)]

    def call(self, i: int, workers: int):
        which, rates = self.points[self.instance(i)]
        return self.evaluators[which].report(rates)

    def check(self, i, out):
        which, rates = self.points[self.instance(i)]
        if which == 0:
            return check_identity_verdict(out, rates)
        return check_generic_report(out, rates, self.channels)

    def final_checks(self):
        return []

    def summary(self, outs):
        counts = {"identity": [0, 0, 0], "generic": [0, 0, 0]}  # achievable, outer only, outside
        for i, rep in outs:
            which = ("identity", "generic")[self.points[self.instance(i)][0]]
            slot = 0 if rep.achievable else 1 if rep.inside_outer else 2
            counts[which][slot] += 1
        return {"verdicts_achievable_outer_outside": counts}


class Fdfp:
    """``fdfp-check`` on a fixed set of tuples for L = 3..6 users, caps given.

    User counts cycle 3, 4, 5, 6, 5: the extra L = 5 keeps the median
    latency inside one user count rather than between two.

    Check costs are heavy-tailed: with tuples drawn per seed, the ten
    costliest of about 150 checks took 30-45% of a 10 s run, and
    relabeling users changed single checks up to fourfold, so runs moved
    by 20-45%.  The tuples therefore come from a fixed stream, and the
    seed orders each pass over them after the first; throughput comes
    from each tuple's latency over the passes.  The first pass runs in
    tuple order, so the warm-up call, part of set-up, costs the same for
    every seed (single checks take 2-300 ms).
    """

    name = "fdfp"
    parallel = "callers"
    ops_per_call = 1
    pool = 31  # odd, so the median latency is one tuple's
    passes = 200
    user_cycle = (3, 4, 5, 6, 5)

    def __init__(self, root: Path, seed: int):
        self.counterexample = _config(root, "f4_pairwise_counterexample.json")
        cycle = self.user_cycle
        self.tuples = [self._draw(np.random.default_rng([0xFD, b]), cycle[b % len(cycle)])
                       for b in range(self.pool)]
        rng = np.random.default_rng([seed, 0xFD])
        self.order = list(range(self.pool)) + [
            int(b) for _ in range(self.passes - 1) for b in rng.permutation(self.pool)
        ]

    def instance(self, i: int) -> int:
        """The tuple that call ``i`` checks."""
        return self.order[i % len(self.order)]

    @staticmethod
    def _draw(rng, num_users: int):
        """Caps near 1; rates scaled so the most loaded user sits at 96-104% of its cap.

        Beyond 100% one cap alone fails; below it the splits may still
        conflict, so most tuples are infeasible but not all trivially.
        """
        pairs = [(i, j) for i in range(1, num_users + 1) for j in range(i + 1, num_users + 1)]
        raw = capacity.RateTuple.from_lists(
            [int(v) for v in rng.integers(0, 9, num_users)],
            {p: int(v) for p, v in zip(pairs, rng.integers(0, 9, len(pairs)))},
        )
        caps = [Fraction(int(c), 20) for c in rng.integers(18, 23, num_users)]
        load = max(s / c for s, c in zip(raw.sum_rates(), caps))
        return raw.scaled(Fraction(int(rng.integers(96, 105)), 100) / load), caps

    def call(self, i: int, workers: int):
        rates, caps = self.tuples[self.instance(i)]
        return capacity.fdfp_feasible(rates, caps)

    def check(self, i, out):
        rates, caps = self.tuples[self.instance(i)]
        return check_fdfp(out, rates, caps)

    def final_checks(self):
        rates = cli.parse_rates(self.counterexample["rates"])
        caps = [Fraction(c) for c in self.counterexample["caps"]]
        res = capacity.fdfp_feasible(rates, caps)
        reason = check_fdfp(res, rates, caps)
        if reason is None and res.feasible:
            reason = "bundled counterexample reported feasible"
        if reason is None:
            bounds = {ch.user: ch.bound for ch in res.certificate.chains}
            if bounds.get(2) != Fraction(103, 100):
                reason = f"counterexample chain for user 2 is {bounds.get(2)}, not 103/100"
        return [FinalCheck("counterexample_103_100", 1, reason)]

    def summary(self, outs):
        feasible = sum(1 for _, r in outs if r.feasible)
        chains = sum(len(r.certificate.chains) for _, r in outs if not r.feasible)
        return {"feasible": feasible, "infeasible": len(outs) - feasible, "chains": chains}


WORKLOADS = {w.name: w for w in (SimNoisy, RelayGf4, Region, Fdfp)}


def same_output(a, b) -> bool:
    """Bitwise equality of two call outputs (used across worker counts)."""
    if isinstance(a, sim.ErrorStats):
        return a == b
    if isinstance(a, capacity.RegionReport):
        return (
            a.sum_rates == b.sum_rates
            and a.margin == b.margin
            and np.array_equal(a.argmax_dist, b.argmax_dist)
            and (a.achievable, a.inside_outer) == (b.achievable, b.inside_outer)
        )
    return a == b
