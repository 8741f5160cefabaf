"""Monte Carlo harness for end-to-end block error probability.

A trial is one draw from the random-coding ensemble: it runs the uplink,
broadcasts the relay's decoded word over the downlink, and counts a
failure when any user decodes any of its required messages wrongly.

Each call takes one 64-bit run key from ``rng.stream``.  Trial t's draws
are the ``rng.uniforms`` of its seed ``rng.seed(key, t)``, laid out once:
the messages (in ``message_ids`` order) and each block's generator and
owner's and user 1's dithers as uniform field symbols, then the n
uplink-noise uniforms and users 1..L's downlink uniforms.  The seed is also
the trial's codebook key.  A chunk of trials is drawn in one array
expression and decoded through ``codec`` with a leading trial axis, so no
result depends on chunk size or execution order.

Chunks run one after another on the calling thread: a thread pool over
them was slower than one thread on every measured workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial

import numpy as np

from . import codec, rng
from .capacity import RateTuple
from .channel import DownlinkSpec, UplinkSpec, sample_downlink, sample_uplink_noise
from .schedule import SymbolLengths, build_table, reindex_users
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


def _decode_trials(
    cfg: TrialConfig, down: DownlinkSpec, scheme: codec.Scheme, seeds: np.ndarray, u: np.ndarray
) -> tuple[int, int, int, int]:
    """Failures, redraws, uplink and downlink events of the trials with ``seeds`` and draws ``u``."""
    num_users, field, k = scheme.table.num_users, cfg.up.field, scheme.table.lengths.k
    tail = cfg.n + num_users * cfg.n_dl
    symbols = codec.uniform_symbols(field, u[:, :-tail])
    *parts, symbols = np.split(symbols, np.cumsum([k[m] for m in scheme.ids]), axis=1)
    messages = dict(zip(scheme.ids, parts))
    codes, redraws = codec.make_block_codes(scheme.table, cfg.n, field, symbols, seeds)
    noise, uniforms = np.split(u[:, -tail:], [cfg.n], axis=1)
    word_hat = codec.uplink_round(scheme, messages, codes, cfg.up, sample_uplink_noise(cfg.up, noise))
    uplink = np.any(word_hat != codec.relay_word(scheme, messages), axis=-1)

    codebook = codec.DownlinkCodebook(np.full(down.input_size, 1 / down.input_size), cfg.n_dl, seeds)
    x0 = codebook.codeword(word_hat)
    uniforms = uniforms.reshape(len(seeds), num_users, cfg.n_dl)
    downlink = failed = np.zeros(len(seeds), dtype=bool)
    for a in range(1, num_users + 1):
        known = {m: v for m, v in messages.items() if a in m}
        cands = codec.candidate_set(scheme, a, known)
        y_a = sample_downlink(down, a, x0, uniforms[:, a - 1])
        row = codec.user_decode_word(y_a, codebook, cands, down, a)
        word_a = np.take_along_axis(cands.words, row[:, None, None], axis=-2)[:, 0]
        downlink = downlink | np.any(word_a != word_hat, axis=-1)
        for m, v in codec.recover_messages(scheme, a, row).items():
            failed = failed | np.any(v != messages[m], axis=-1)
    if np.any(failed & ~uplink & ~downlink):
        raise RuntimeError("every relay word decoded correctly, yet a message was recovered wrongly")
    return int(failed.sum()), redraws, int(uplink.sum()), int(downlink.sum())


def _tally(job, source, trials: int, width: int, per_trial: int) -> ErrorStats:
    """ErrorStats from ``job(seeds, u) -> (failures, redraws, uplink, downlink)`` over all trials.

    Trial t's seed is ``rng.seed(key, t)``, key drawn from the stream ``source``, and u
    its ``width`` uniforms, drawn as many trials at a time as fit in ``_STACK_BUDGET``;
    ``job`` gets contiguous chunks whose arrays, at ``per_trial`` elements a trial, fit too.
    """
    key, size = source.integers(0, 2**64, dtype=np.uint64), max(1, _STACK_BUDGET // per_trial)
    step, results = size * max(1, _STACK_BUDGET // (size * width)), []
    for start in range(0, trials, step):
        seeds = rng.seed(key, np.arange(start, min(start + step, trials)))
        u = rng.uniforms(seeds, width)
        results += [job(seeds[i : i + size], u[i : i + size]) for i in range(0, len(seeds), size)]
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
    down = DownlinkSpec(cfg.down.input_size, tuple(cfg.down.channel(old) for old in order))
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
    code_symbols = sum((b.width + 2) * block_n[b.msg] for b in table.blocks)
    # The relay map has a row per message symbol.
    width = scheme.relay.shape[0] + code_symbols + cfg.n + lengths.num_users * cfg.n_dl
    job = partial(_decode_trials, cfg, down, scheme)
    return _tally(job, rng.stream(cfg.master_seed, "trial"), cfg.trials, width, per_trial)


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

    Trial t draws from ``rng.seed(key, t)``, under the call's run key, two
    messages, a k-by-n generator and the dithers of transmitters 1 and 2 as
    uniform symbols, then n noise uniforms.  ``codec.block_code`` redraws
    rank-deficient generators (counted); a failure, an uplink one, is a relay
    estimate other than the messages' field sum.  ``threads`` has no effect.
    """
    field = up.field
    for name, value, least in (("n", n, 1), ("k", k, 0), ("trials", trials, 1)):
        if value < least:
            raise ValueError(f"{name}={value} must be at least {least}")
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}; no full-rank code exists")

    def job(seeds: np.ndarray, u: np.ndarray) -> tuple[int, int, int, int]:
        symbols = codec.uniform_symbols(field, u[:, :-n])
        u1, u2, s = symbols[:, :k], symbols[:, k : 2 * k], symbols[:, 2 * k :].reshape(len(seeds), k + 2, n)
        code, redraws = codec.block_code(field, s[:, :k], {1: s[:, k], 2: s[:, k + 1]}, seeds, 0)
        est = codec.send_block(code, {1: u1, 2: u2}, up, sample_uplink_noise(up, u[:, -n:]))
        failed = int(np.any(est != field.add(u1, u2), axis=-1).sum())
        return failed, redraws, failed, 0

    width = 2 * k + (k + 3) * n
    return _tally(job, rng.stream(master_seed, "sum-decode"), trials, width, field.order**k * n)
