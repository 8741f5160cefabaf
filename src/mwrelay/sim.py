"""Monte Carlo harness for end-to-end block error probability.

A trial draws fresh messages, codes, and noise from named substreams of
the master seed, runs the uplink, broadcasts the relay's decoded word
over the downlink, and counts a failure when any user decodes any of
its required messages wrongly.  Substreams are keyed by trial index, so
results do not depend on thread count or execution order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import codec, gf
from .capacity import RateTuple
from .channel import DownlinkSpec, UplinkSpec, sample_downlink, sample_uplink_noise
from .rng import stream
from .schedule import SymbolLengths, build_table, reindex_users
from .shuffle import run_shuffle, simplify


def quantize_lengths(rates: RateTuple, n: int, field_order: int) -> SymbolLengths:
    """Integer symbol lengths k_I = floor(n R_I / log2 F).

    Exact when the field order is a power of two (integer log); float
    division otherwise.
    """
    k = {}
    if field_order & (field_order - 1) == 0:
        m = field_order.bit_length() - 1
        for key, r in rates.rates.items():
            k[key] = int(n * r / m)  # Fraction floor: int() truncates toward 0
    else:
        log2f = math.log2(field_order)
        for key, r in rates.rates.items():
            k[key] = int(math.floor(n * float(r) / log2f))
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
    #: Downlink codebook input distribution; uniform when omitted.
    input_dist: np.ndarray | None = None

    def __post_init__(self):
        if (self.rates is None) == (self.lengths is None):
            raise ValueError("give exactly one of rates or lengths")
        if self.n <= 0 or self.n_dl <= 0:
            raise ValueError("block lengths must be positive")
        if self.trials <= 0:
            raise ValueError("trial count must be positive")
        if self.input_dist is None:
            self.input_dist = np.full(self.down.input_size, 1.0 / self.down.input_size)

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


def wilson_interval(failures: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
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
    table = scheme.table
    lengths = table.lengths
    num_users = lengths.num_users

    msg_rng = stream(cfg.master_seed, "messages", t)
    messages = {m: gf.random_vec(field, lengths.k[m], msg_rng) for m in scheme.ids}

    codes, redraws = codec.make_block_codes(
        table, cfg.n, field, stream(cfg.master_seed, "codes", t)
    )
    word_hat = codec.uplink_round(
        scheme, messages, codes, cfg.up, stream(cfg.master_seed, "uplink-noise", t)
    )

    key = stream(cfg.master_seed, "codebook", t).integers(0, 2**64, dtype=np.uint64)
    codebook = codec.DownlinkCodebook(cfg.input_dist, cfg.n_dl, key)
    x0 = codebook.codeword(word_hat)

    for a in range(1, num_users + 1):
        known = {m: v for m, v in messages.items() if a in m}
        cands = codec.candidate_set(scheme, a, known)
        y_a = sample_downlink(down, a, x0, stream(cfg.master_seed, "downlink", t, a))
        word_a = codec.user_decode_word(y_a, codebook, cands, down, a)
        recovered = codec.recover_messages(scheme, a, word_a, known)
        for m, v in recovered.items():
            if not np.array_equal(v, messages[m]):
                return True, redraws
    return False, redraws


def _map(job, count: int, threads: int) -> list:
    """``job(t)`` for t in range(count), in order, on up to ``threads`` threads."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(job, range(count)))
    return [job(t) for t in range(count)]


def run_trials(cfg: TrialConfig, threads: int = 1) -> ErrorStats:
    """Estimate the end-to-end block error probability."""
    lengths_raw = cfg.resolved_lengths()
    order, lengths = reindex_users(lengths_raw)
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

    results = _map(lambda t: _run_trial(cfg, down, scheme, t), cfg.trials, threads)
    failures = sum(1 for fail, _ in results if fail)
    redraws = sum(r for _, r in results)
    return ErrorStats.from_counts(failures, cfg.trials, redraws)


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
        if axis == "n":
            if v != int(v):
                raise ValueError(f"block length n={v!r} is not an integer")
            sub = replace(cfg, n=int(v))
        elif axis == "rate_scale":
            if cfg.rates is None:
                raise ValueError("rate_scale sweeps need a rate tuple")
            sub = replace(cfg, rates=cfg.rates.scaled(v))
        else:
            raise ValueError(f"unknown sweep axis {axis!r}")
        stats = run_trials(sub, threads)
        rows.append((float(v), stats))
        if progress is not None:
            progress(f"{axis}={v}: {stats.failures}/{stats.trials} failures")
    return rows


def sum_decode_trials(
    up: UplinkSpec, k: int, n: int, trials: int, master_seed: int, threads: int = 1
) -> ErrorStats:
    """Relay-side experiment: ML decoding of a two-transmitter sum.

    Per trial, a fresh full-row-rank generator matrix and dithers are
    drawn (rank-deficient draws are expurgated and counted), two uniform
    messages are encoded and sent through the additive-noise uplink, and
    a failure is counted when the relay's ML estimate differs from the
    true field sum of the messages.
    """
    field = up.field
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}; no full-rank code exists")

    def job(t: int) -> tuple[bool, int]:
        rng = stream(master_seed, "sum-decode", t)
        g, redraws = codec.full_rank_generator(field, k, n, rng)
        q1 = gf.random_vec(field, n, rng)
        q2 = gf.random_vec(field, n, rng)
        u1 = gf.random_vec(field, k, rng)
        u2 = gf.random_vec(field, k, rng)
        code = codec.BlockCode(k, n, g, {1: q1, 2: q2})
        x1 = codec.encode_uplink(u1, code, 1, field)
        x2 = codec.encode_uplink(u2, code, 2, field)
        noise = stream(master_seed, "sum-decode-noise", t)
        y0 = field.add(field.add(x1, x2), sample_uplink_noise(up, n, noise))
        est = codec.relay_decode_sum(y0, code, field.add(q1, q2), up)
        return not np.array_equal(est, field.add(u1, u2)), redraws

    results = _map(job, trials, threads)
    fails = sum(1 for f, _ in results if f)
    redraws = sum(r for _, r in results)
    return ErrorStats.from_counts(fails, trials, redraws)
