"""Monte Carlo harness for end-to-end block error probability.

A trial is one draw from the random-coding ensemble: it runs the uplink,
broadcasts the relay's decoded word over the downlink, and counts a
failure when any user decodes any of its required messages wrongly.

Trials run in two phases.  The draw phase takes everything a trial needs
from one Philox stream keyed by the master seed and the trial index, in
a fixed order: messages (in ``message_ids`` order), block codes (in
block order, redraws included), uplink noise uniforms (in block order),
the codebook key, then the downlink uniforms of users 1..L.  No draw's
size depends on a decoded value (noise and outputs are uniforms mapped
through the noise law and the channel rows), so every draw can be made
before any decoding.  The decode phase then runs a chunk of trials
through the ``codec`` functions at once, with a leading trial axis.
Results therefore do not depend on chunk size or execution order.

Chunks run one after another on the calling thread: a thread pool over
them was slower than one thread on every measured workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import codec, gf
from .capacity import RateTuple
from .channel import DownlinkSpec, UplinkSpec, sample_downlink, sample_uplink_noise
from .rng import stream
from .schedule import MsgId, SymbolLengths, build_table, reindex_users
from .shuffle import run_shuffle, simplify

# Largest stacked array, in elements, one chunk of trials may build: the
# relay's candidate words (F^k x n a block) or a user's candidate codewords
# (C x n_dl).  Chunks share each call's fixed cost: noisy_uplink_small's
# 10-trial chunk (20,480 elements) ran 0.71 ms a trial against 0.78 in
# chunks of 8 and 1.43 in chunks of 2.  Large stacks gain nothing: GF(4),
# k=6, n=16 relay spans (65,536 elements each) ran 1.58 ms a trial two at a
# time against 1.30 one at a time (median CPU time, 2 vCPU Xeon, shared host).
_STACK_BUDGET = 2**15


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
    """Failures with their 95% interval, redraws and the error events seen.

    ``uplink_failures`` counts trials whose relay word differs from the
    noise-free one; ``downlink_failures`` trials where some user decoded
    a word other than the one broadcast.
    """

    trials: int
    failures: int
    p_hat: float
    lo95: float
    hi95: float
    redraws: int
    uplink_failures: int = 0
    downlink_failures: int = 0

    @classmethod
    def from_counts(
        cls, failures: int, trials: int, redraws: int = 0, uplink: int = 0, downlink: int = 0
    ) -> "ErrorStats":
        lo, hi = wilson_interval(failures, trials)
        return cls(trials, failures, failures / trials, lo, hi, redraws, uplink, downlink)


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


@dataclass
class _Draws:
    """Everything one trial takes from its stream, in the order it is drawn."""

    messages: codec.Messages
    codes: dict[MsgId, codec.BlockCode]
    redraws: int
    noise: np.ndarray  # the uplink noise uniforms, in block order
    key: np.uint64
    uniforms: np.ndarray  # (L, n_dl), users 1..L's downlink draws


def _draw_trial(cfg: TrialConfig, scheme: codec.Scheme, t: int) -> _Draws:
    field = cfg.up.field
    rng = stream(cfg.master_seed, "trial", t)
    messages = {m: gf.random_vec(field, scheme.table.lengths.k[m], rng) for m in scheme.ids}
    codes, redraws = codec.make_block_codes(scheme.table, cfg.n, field, rng)
    noise = rng.random(sum(c.n for c in codes.values()))
    key = rng.integers(0, 2**64, dtype=np.uint64)
    uniforms = rng.random((scheme.table.num_users, cfg.n_dl))
    return _Draws(messages, codes, redraws, noise, key, uniforms)


def _stack_codes(codes, field: gf.Field) -> codec.BlockCode:
    """One trial's code per entry, as a stack of codes with their spans."""
    first = codes[0]
    dithers = {t: np.array([c.dithers[t] for c in codes]) for t in first.dithers}
    generators = np.array([c.generator for c in codes])
    words = np.array([c.span(field) for c in codes])
    return codec.BlockCode(first.k, first.n, generators, dithers, words)


def _decode_trials(
    cfg: TrialConfig, down: DownlinkSpec, scheme: codec.Scheme, draws: list[_Draws]
) -> tuple[int, int, int, int]:
    """Failures, redraws, uplink and downlink events of a chunk of drawn trials."""
    messages = {m: np.array([d.messages[m] for d in draws]) for m in scheme.ids}
    codes = {b: _stack_codes([d.codes[b] for d in draws], cfg.up.field) for b in draws[0].codes}
    noise = sample_uplink_noise(cfg.up, np.array([d.noise for d in draws]))
    word_hat = codec.uplink_round(scheme, messages, codes, cfg.up, noise)
    uplink = np.any(word_hat != codec.relay_word(scheme, messages), axis=-1)

    keys = np.array([d.key for d in draws])
    codebook = codec.DownlinkCodebook(np.full(down.input_size, 1 / down.input_size), cfg.n_dl, keys)
    x0 = codebook.codeword(word_hat)
    uniforms = np.array([d.uniforms for d in draws])
    downlink = failed = np.zeros(len(draws), dtype=bool)
    for a in range(1, scheme.table.num_users + 1):
        known = {m: v for m, v in messages.items() if a in m}
        cands = codec.candidate_set(scheme, a, known)
        y_a = sample_downlink(down, a, x0, uniforms[:, a - 1])
        row = codec.user_decode_word(y_a, codebook, cands, down, a)
        word_a = np.take_along_axis(cands.words, row[:, None, None], axis=-2)[:, 0]
        downlink = downlink | np.any(word_a != word_hat, axis=-1)
        for m, v in codec.recover_messages(scheme, a, cands, row).items():
            failed = failed | np.any(v != messages[m], axis=-1)
    if np.any(failed & ~uplink & ~downlink):
        raise RuntimeError("every relay word decoded correctly, yet a message was recovered wrongly")
    return int(failed.sum()), sum(d.redraws for d in draws), int(uplink.sum()), int(downlink.sum())


def _tally(job, trials: int, per_trial: int) -> ErrorStats:
    """ErrorStats from ``job(chunk) -> (failures, redraws, uplink, downlink)`` over all trials.

    Trials go to ``job`` in contiguous chunks whose stacked arrays, at
    ``per_trial`` elements a trial, stay within ``_STACK_BUDGET``.  Each
    trial draws from its own stream, so the counts do not depend on the
    chunk size.
    """
    size = max(1, _STACK_BUDGET // per_trial)
    results = [job(range(s, min(s + size, trials))) for s in range(0, trials, size)]
    failures, redraws, uplink, downlink = (sum(col) for col in zip(*results))
    return ErrorStats.from_counts(failures, trials, redraws, uplink, downlink)


def run_trials(cfg: TrialConfig, threads: int = 1) -> ErrorStats:
    """Estimate the end-to-end block error probability.

    ``threads`` has no effect; trials run on the calling thread.
    """
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
    block_n = codec.allocate_block_lengths(table, cfg.n)
    per_trial = max(
        [cfg.up.field.order ** b.width * block_n[b.msg] for b in table.blocks]
        + [user.image.shape[0] * cfg.n_dl for user in scheme.users]
    )

    def job(chunk: range) -> tuple[int, int, int, int]:
        return _decode_trials(cfg, down, scheme, [_draw_trial(cfg, scheme, t) for t in chunk])

    return _tally(job, cfg.trials, per_trial)


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


def sweep(cfg: TrialConfig, axis: str, values, progress=None) -> list[tuple[float, ErrorStats]]:
    """Run trials across an axis: block length ``n`` or ``rate_scale``.

    ``progress``, when given, is called with a text line after each
    axis value completes.
    """
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one axis value")
    rows = []
    for v in values:
        stats = run_trials(at_axis_value(cfg, axis, v))
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
    then two uniform messages and the noise uniforms are drawn, and a
    failure (an uplink one) is counted when the relay's ML estimate
    differs from the messages' field sum.  Everything comes from one
    stream per trial, in that order; chunks of trials go through
    ``codec.send_block`` as stacks.  ``threads`` has no effect.
    """
    field = up.field
    for name, value, least in (("n", n, 1), ("k", k, 0), ("trials", trials, 1)):
        if value < least:
            raise ValueError(f"{name}={value} must be at least {least}")
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}; no full-rank code exists")

    def draw(t: int):
        rng = stream(master_seed, "sum-decode", t)
        code, redraws = codec.block_code(field, k, n, (1, 2), rng)
        u1, u2 = gf.random_vec(field, k, rng), gf.random_vec(field, k, rng)
        return code, redraws, u1, u2, rng.random(n)

    def job(chunk: range) -> tuple[int, int, int, int]:
        codes, redraws, u1, u2, noise = zip(*[draw(t) for t in chunk])
        u = {1: np.array(u1), 2: np.array(u2)}
        est = codec.send_block(_stack_codes(codes, field), u, up, sample_uplink_noise(up, np.array(noise)))
        failed = int(np.any(est != field.add(u[1], u[2]), axis=-1).sum())
        return failed, sum(redraws), failed, 0

    return _tally(job, trials, field.order**k * n)
