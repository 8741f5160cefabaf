"""Monte Carlo harness for end-to-end block error probability.

A trial is one draw from the random-coding ensemble: it runs the uplink,
broadcasts the relay's decoded word over the downlink, and counts a
failure when any user decodes any of its required messages wrongly.
Each trial draws everything from one Philox stream keyed by the master
seed and the trial index, in a fixed order: messages (in
``message_ids`` order), block codes (in block order, redraws included),
uplink noise (in block order), the codebook key, then the downlink
outputs of users 1..L.  Results therefore do not depend on thread count
or execution order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import codec, gf
from .capacity import RateTuple
from .channel import DownlinkSpec, UplinkSpec, sample_downlink
from .rng import stream
from .schedule import SymbolLengths, build_table, reindex_users
from .shuffle import run_shuffle, simplify


def _symbols(order: int, bits: Fraction) -> int:
    """The largest k with order^k <= 2^bits, decided in integers.

    lo 2^a <= order^(2^j) <= hi 2^b with lo, hi cut to ``width`` bits, so bit
    lengths bracket 2^j log2(order): exactly for a power of two, else the
    bracket narrows with j up to width / 2, then restarts at double width.
    """
    width = 64
    while True:
        lo, a, hi, b = order, 0, order, 0
        for j in range(width // 2):
            low, high = a + lo.bit_length() - 1, b + hi.bit_length() - (hi & (hi - 1) == 0)
            k = math.floor(bits * 2**j / high)
            if (k + 1) * low > bits * 2**j:
                return k
            lo, hi = lo * lo, hi * hi
            c, d = max(lo.bit_length() - width, 0), max(hi.bit_length() - width, 0)
            lo, a, hi, b = lo >> c, 2 * a + c, -(-hi >> d), 2 * b + d
        width *= 2


def quantize_lengths(rates: RateTuple, n: int, field_order: int) -> SymbolLengths:
    """Symbol lengths: k_I is the largest k with F^(k b) <= 2^(n a) for R_I = a/b."""
    k = {key: _symbols(field_order, n * r) for key, r in rates.rates.items()}
    return SymbolLengths(rates.num_users, k)


@dataclass
class TrialConfig:
    up: UplinkSpec
    down: DownlinkSpec
    n: int
    n_dl: int
    trials: int
    master_seed: int
    rates: RateTuple | None = None
    lengths: SymbolLengths | None = None

    def __post_init__(self):
        if (self.rates is None) == (self.lengths is None):
            raise ValueError("give exactly one of rates or lengths")
        if self.n <= 0 or self.n_dl <= 0:
            raise ValueError("block lengths must be positive")
        if self.trials <= 0:
            raise ValueError("trial count must be positive")

    def resolved_lengths(self) -> SymbolLengths:
        if self.lengths is not None:
            return self.lengths
        return quantize_lengths(self.rates, self.n, self.up.field.order)


@dataclass
class ErrorStats:
    trials: int
    failures: int
    p_hat: float
    lo95: float
    hi95: float
    redraws: int

    @classmethod
    def from_counts(cls, failures: int, trials: int, redraws: int = 0) -> "ErrorStats":
        lo, hi = wilson_interval(failures, trials)
        return cls(trials, failures, failures / trials, lo, hi, redraws)


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = 1.959963984540054  # two-sided 95% standard normal quantile
    p = failures / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    # At p = 0 (or 1) the end equals p in exact arithmetic; rounding can
    # leave it a few ulps inside, past p_hat.
    lo = 0.0 if failures == 0 else max(0.0, center - half)
    hi = 1.0 if failures == trials else min(1.0, center + half)
    return lo, hi


def _run_trial(
    cfg: TrialConfig, down: DownlinkSpec, scheme: codec.Scheme, t: int
) -> tuple[bool, int]:
    field = cfg.up.field
    lengths = scheme.table.lengths

    rng = stream(cfg.master_seed, "trial", t)
    messages = {m: gf.random_vec(field, lengths.k[m], rng) for m in scheme.ids}
    codes, redraws = codec.make_block_codes(scheme.table, cfg.n, field, rng)
    word_hat = codec.uplink_round(scheme, messages, codes, cfg.up, rng)

    key = rng.integers(0, 2**64, dtype=np.uint64)
    codebook = codec.DownlinkCodebook(np.full(down.input_size, 1 / down.input_size), cfg.n_dl, key)
    x0 = codebook.codeword(word_hat)

    for a in range(1, lengths.num_users + 1):
        known = {m: v for m, v in messages.items() if a in m}
        cands = codec.candidate_set(scheme, a, known)
        y_a = sample_downlink(down, a, x0, rng)
        word_a = codec.user_decode_word(y_a, codebook, cands, down, a)
        recovered = codec.recover_messages(scheme, a, word_a, known)
        for m, v in recovered.items():
            if not np.array_equal(v, messages[m]):
                return True, redraws
    return False, redraws


def _tally(job, trials: int, threads: int) -> ErrorStats:
    """Failures and redraws of ``job(t) -> (failed, redraws)`` over all trials.

    Runs on up to ``threads`` threads; each trial draws from its own
    stream, so the counts do not depend on the thread count.
    """
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(job, range(trials)))
    else:
        results = [job(t) for t in range(trials)]
    return ErrorStats.from_counts(sum(f for f, _ in results), trials, sum(r for _, r in results))


def run_trials(cfg: TrialConfig, threads: int = 1) -> ErrorStats:
    """Estimate the end-to-end block error probability."""
    order, lengths = reindex_users(cfg.resolved_lengths())
    if cfg.down.num_users != lengths.num_users:
        raise ValueError("downlink and rate tuple disagree on the user count")
    # Relabel the downlink to match the reindexed users.
    down = DownlinkSpec(
        cfg.down.input_size,
        tuple(cfg.down.channel(old) for old in order),
    )
    # The schedule and the relay map are deterministic in the lengths, so
    # build them once.
    table = build_table(lengths)
    cols, _ = run_shuffle(simplify(table))
    scheme = codec.compile_scheme(cfg.up.field, table, cols)

    return _tally(lambda t: _run_trial(cfg, down, scheme, t), cfg.trials, threads)


def at_axis_value(cfg: TrialConfig, axis: str, v) -> TrialConfig:
    """``cfg`` with block length ``n`` = v, or its rates scaled by v."""
    if axis == "n":
        if v != int(v):
            raise ValueError(f"block length n={v!r} is not an integer")
        return replace(cfg, n=int(v))
    if axis == "rate_scale":
        if cfg.rates is None:
            raise ValueError("rate_scale sweeps need a rate tuple")
        return replace(cfg, rates=cfg.rates.scaled(v))
    raise ValueError(f"unknown sweep axis {axis!r}")


def sweep(
    cfg: TrialConfig, axis: str, values, threads: int = 1, progress=None
) -> list[tuple[float, ErrorStats]]:
    """Run trials across an axis: block length ``n`` or ``rate_scale``.

    ``progress``, when given, is called with a text line after each
    axis value completes.
    """
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one axis value")
    rows = []
    for v in values:
        stats = run_trials(at_axis_value(cfg, axis, v), threads)
        rows.append((float(v), stats))
        if progress is not None:
            progress(f"{axis}={v}: {stats.failures}/{stats.trials} failures")
    return rows


def sum_decode_trials(
    up: UplinkSpec, k: int, n: int, trials: int, master_seed: int, threads: int = 1
) -> ErrorStats:
    """Relay-side experiment: one uplink block carrying a two-user sum.

    Per trial, ``codec.block_code`` draws a fresh full-rank code with
    dithers for transmitters 1 and 2 (rank-deficient draws are counted),
    two uniform messages go through ``codec.send_block``, and a failure
    is counted when the relay's ML estimate differs from their field sum.
    Code, messages and noise come from one stream per trial, in that order.
    """
    field = up.field
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}; no full-rank code exists")

    def job(t: int) -> tuple[bool, int]:
        rng = stream(master_seed, "sum-decode", t)
        code, redraws = codec.block_code(field, k, n, (1, 2), rng)
        u = {1: gf.random_vec(field, k, rng), 2: gf.random_vec(field, k, rng)}
        est = codec.send_block(code, u, up, rng)
        return not np.array_equal(est, field.add(u[1], u[2])), redraws

    return _tally(job, trials, threads)
