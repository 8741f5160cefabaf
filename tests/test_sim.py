import json
import threading
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mwrelay import cli, codec, gf, sim
from mwrelay.capacity import RateTuple
from mwrelay.channel import (
    DownlinkSpec, UplinkSpec, identity_downlink, sample_downlink, sample_uplink_noise,
)
from mwrelay.gf import Field
from mwrelay.rng import stream
from mwrelay.schedule import SymbolLengths, build_table, message_ids, reindex_users
from mwrelay.shuffle import run_shuffle, simplify
from mwrelay.sim import (
    ErrorStats,
    TrialConfig,
    quantize_lengths,
    run_trials,
    sum_decode_trials,
    sweep,
    wilson_interval,
)
from test_channel import ref_inverse_cdf
from test_codec import ref_redrawn
from test_rng import ref_seed, ref_uniforms


def zero_noise_cfg(trials=40, seed=5) -> TrialConfig:
    field = Field(2)
    up = UplinkSpec(field, np.array([1.0, 0.0]))
    lengths = SymbolLengths(3, {(1,): 2, (2,): 2, (3,): 2, (1, 2): 1, (1, 3): 1, (2, 3): 1})
    return TrialConfig(
        up, identity_downlink(3, 2), n=10, n_dl=48, trials=trials, master_seed=seed, lengths=lengths
    )


def test_quantize_lengths():
    r = RateTuple.from_lists([Fraction(39, 100)] * 3, {(1, 2): Fraction(19, 100)})
    k = quantize_lengths(r, 100, 4)
    # floor(100 * 0.39 / 2) = 19, floor(100 * 0.19 / 2) = 9
    assert k.k[(1,)] == 19 and k.k[(1, 2)] == 9 and k.k[(2, 3)] == 0
    k2 = quantize_lengths(r, 100, 2)
    assert k2.k[(1,)] == 39


def test_quantize_lengths_is_the_exact_integer_rule():
    # For R = a/b, k is the largest integer with F^(k b) <= 2^(n a).
    def brute(order, n, r):
        k = 0
        while order ** ((k + 1) * r.denominator) <= 2 ** (n * r.numerator):
            k += 1
        return k

    grid = [Fraction(i, d) for d in (1, 3, 10, 97) for i in range(0, 2 * d + 1, max(1, d // 10))]
    for order in (2, 4, 8, 3, 5, 9, 27):
        m = order.bit_length() - 1
        for n in (1, 7, 40):
            for r in grid:
                k = quantize_lengths(RateTuple.from_lists([r, 0]), n, order).k[(1,)]
                assert k == (int(n * r / m) if order == 2**m else brute(order, n, r)), (order, n, r)
    # log2 3 = 1.5849625007211561814..., between these two rates; a float
    # floor of n R / log2 3 gives one symbol for both.
    for text, want in (("1.584962500721156", 0), ("1.584962500721157", 1)):
        assert quantize_lengths(RateTuple.from_lists([Fraction(text), 0]), 1, 3).k[(1,)] == want


def test_trial_config_validation():
    field = Field(2)
    up = UplinkSpec(field, np.array([1.0, 0.0]))
    down = identity_downlink(2, 2)
    with pytest.raises(ValueError):
        TrialConfig(up, down, n=4, n_dl=4, trials=1, master_seed=0)
    lengths = SymbolLengths(2, {(1,): 1, (2,): 1})
    with pytest.raises(ValueError):
        TrialConfig(up, down, n=4, n_dl=4, trials=0, master_seed=0, lengths=lengths)
    rate = RateTuple.from_lists([0, 0])
    with pytest.raises(ValueError):
        TrialConfig(up, down, n=4, n_dl=4, trials=1, master_seed=0, lengths=lengths, rates=rate)


def test_zero_noise_no_failures():
    stats = run_trials(zero_noise_cfg())
    assert stats.failures == 0
    assert stats.trials == 40


def test_reproducible_across_thread_counts():
    cfg = zero_noise_cfg(trials=30)
    s1 = run_trials(cfg, threads=1)
    s2 = run_trials(cfg, threads=4)
    s3 = run_trials(cfg, threads=2)
    assert s1 == s2 == s3


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo <= 1e-12 and 0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        wilson_interval(0, 0)
    st = ErrorStats.from_counts(3, 10)
    assert st.lo95 <= st.p_hat <= st.hi95


def test_wilson_interval_endpoints_are_exact():
    for n in (1, 7, 50, 100, 12345):
        lo, hi = wilson_interval(0, n)
        assert lo == 0.0 and 0.0 < hi < 1.0
        lo, hi = wilson_interval(n, n)
        assert hi == 1.0 and 0.0 < lo < 1.0
        st = ErrorStats.from_counts(0, n)
        assert st.lo95 <= st.p_hat <= st.hi95
        st = ErrorStats.from_counts(n, n)
        assert st.lo95 <= st.p_hat <= st.hi95


def test_wilson_coverage_on_synthetic_bernoulli():
    p = 0.1
    n = 200
    rng = stream(4, "coverage")
    hits = 0
    reps = 1000
    draws = rng.binomial(n, p, size=reps)
    for f in draws:
        lo, hi = wilson_interval(int(f), n)
        hits += lo <= p <= hi
    assert hits / reps >= 0.93


def test_sweep_single_value_matches_run_trials():
    cfg = zero_noise_cfg(trials=20)
    rows = sweep(cfg, "n", [10])
    assert len(rows) == 1
    assert rows[0][1] == run_trials(cfg)
    with pytest.raises(ValueError):
        sweep(cfg, "n", [])
    with pytest.raises(ValueError):
        sweep(cfg, "frequency", [1])


def test_sweep_rejects_a_non_integral_block_length():
    cfg = zero_noise_cfg(trials=5)
    with pytest.raises(ValueError, match="10.7"):
        sweep(cfg, "n", [10.7])
    assert sweep(cfg, "n", [10, 10.0]) == [(10.0, run_trials(cfg))] * 2


@pytest.mark.parametrize("name", ["noisy_uplink_small.json", "noisy_uplink_f4.json"])
def test_trial_configs_refuse_a_block_below_the_table_columns(name, monkeypatch):
    cfg = bundled(name, 11)
    total = build_table(reindex_users(cfg.lengths)[1]).total_cols
    assert replace(cfg, n=total).n == total
    with pytest.raises(ValueError, match=f"n={total - 1} is below the {total} aligned"):
        replace(cfg, n=total - 1)
    monkeypatch.setattr(sim, "run_trials", lambda cfg: pytest.fail("a run started"))
    with pytest.raises(ValueError, match=f"n={total - 1} is below"):
        sweep(cfg, "n", [total, total - 1])  # every value is checked before any run


def test_sweep_rate_scale_requires_rates():
    cfg = zero_noise_cfg(trials=5)
    with pytest.raises(ValueError):
        sweep(cfg, "rate_scale", [0.5])


def test_sum_decode_zero_noise_never_fails():
    field = Field(2)
    up = UplinkSpec(field, np.array([1.0, 0.0]))
    st = sum_decode_trials(up, 4, 8, 50, 1)
    assert st.failures == 0


@pytest.mark.parametrize(
    "k, n, trials, name",
    [
        (0, 0, 5, "n=0"), (2, -1, 5, "n=-1"), (-1, 4, 5, "k=-1"),
        (2, 4, 0, "trials=0"), (2, 4, -3, "trials=-3"),
    ],
)
def test_sum_decode_refuses_bad_arguments_by_name(k, n, trials, name):
    up = UplinkSpec(Field(2), np.array([0.9, 0.1]))
    with pytest.raises(ValueError, match=rf"^{name} must be at least"):
        sum_decode_trials(up, k, n, trials, 1)


def test_sum_decode_threads_reproducible():
    field = Field(2)
    up = UplinkSpec(field, np.array([0.89, 0.11]))
    a = sum_decode_trials(up, 4, 8, 100, 7, threads=1)
    b = sum_decode_trials(up, 4, 8, 100, 7, threads=3)
    assert a == b
    assert a.failures > 0  # short noisy code does fail sometimes


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "order, pmf, k, n, failures, redraws",
    [
        (2, [0.9, 0.1], 6, 7, 19, 30),
        (3, [0.8, 0.1, 0.1], 4, 5, 22, 7),
        (4, [0.8, 0.1, 0.05, 0.05], 6, 16, 4, 0),
    ],
)
def test_sum_decode_realizations_are_pinned(order, pmf, k, n, failures, redraws, threads):
    # Seed 7, 40 trials: the draws of messages, codes, dithers and noise
    # must not move when the uplink block path is refactored.
    st = sum_decode_trials(UplinkSpec(Field(order), np.array(pmf)), k, n, 40, 7, threads=threads)
    assert (st.failures, st.redraws) == (failures, redraws)


@pytest.mark.parametrize("threads", [1, 2])
def test_each_trial_draws_from_one_stream(monkeypatch, threads):
    # A call takes its one run key from one stream; every trial's draws hash that key.
    paths = []

    def counting_stream(*path):
        paths.append(path)
        return stream(*path)

    monkeypatch.setattr(sim.rng, "stream", counting_stream)
    run_trials(zero_noise_cfg(trials=12), threads=threads)
    assert paths == [(5, "trial")]
    paths.clear()
    sum_decode_trials(UplinkSpec(Field(2), np.array([0.9, 0.1])), 4, 8, 9, 3, threads=threads)
    assert paths == [(3, "sum-decode")]


def test_noisy_uplink_errors_decrease_with_n():
    field = Field(2)
    up = UplinkSpec(field, np.array([0.89, 0.11]))
    lo = sum_decode_trials(up, 8, 16, 300, 2)
    hi = sum_decode_trials(up, 8, 64, 300, 2)
    assert lo.failures > hi.failures


def test_rates_below_bound_beat_rates_above_bound():
    # at equal n, half the uplink bound vs 1.5x the bound
    field = Field(2)
    up = UplinkSpec(field, np.array([0.89, 0.11]))
    below = sum_decode_trials(up, 4, 16, 300, 6)
    above = sum_decode_trials(up, 12, 16, 300, 6)
    assert below.p_hat < above.p_hat
    assert below.hi95 < above.lo95


def test_downlink_errors_shrink_with_codeword_length():
    # fixed candidate set, noisy downlink: longer codewords decode better
    import numpy as onp

    from mwrelay import codec
    from mwrelay.channel import DownlinkSpec, sample_downlink
    from mwrelay.schedule import build_table
    from mwrelay.shuffle import run_shuffle, simplify
    from mwrelay import gf as gflib

    field = Field(2)
    lengths = SymbolLengths(2, {(1,): 3, (2,): 3})
    table = build_table(lengths)
    cols, _ = run_shuffle(simplify(table))
    scheme = codec.compile_scheme(field, table, cols)
    q = 0.1
    down = DownlinkSpec(2, (onp.array([[1 - q, q], [q, 1 - q]]),) * 2)
    errors = {}
    for n_dl in (6, 40):
        wrong = 0
        for t in range(150):
            rng = stream(12, "dltrend", n_dl, t)
            msgs = {m: gflib.random_matrix(field, 1, lengths.k[m], rng)[0] for m in lengths.k}
            truth = codec.relay_word(scheme, msgs)
            cb = codec.DownlinkCodebook(onp.array([0.5, 0.5]), n_dl, int(rng.integers(0, 2**62)))
            x0 = cb.codeword(truth)
            known = {m: v for m, v in msgs.items() if 2 in m}
            cands = codec.candidate_set(scheme, 2, known)
            y = sample_downlink(down, 2, x0, stream(12, "dlnoise", n_dl, t).random(x0.shape))
            got = cands.words[codec.user_decode_word(y, cb.codeword(cands.words), down, 2)]
            wrong += not onp.array_equal(got, truth)
        errors[n_dl] = wrong
    # rate 3/40 is far below I(X0;Y) ~ 0.53, 3/6 is not
    assert errors[40] < errors[6]


def test_rate_scale_sweep_crosses_threshold():
    field = Field(2)
    up = UplinkSpec(field, np.array([0.89, 0.11]))
    rates = RateTuple.from_lists(["1/4", "1/4"])
    cfg = TrialConfig(
        up, identity_downlink(2, 2), n=12, n_dl=48, trials=100, master_seed=21, rates=rates
    )
    rows = dict(sweep(cfg, "rate_scale", [1, 3]))
    # scale 1: 0.25 bits/use per user, below the ~0.5 bound; scale 3: above
    assert rows[1.0].p_hat < rows[3.0].p_hat
    assert rows[1.0].hi95 < rows[3.0].lo95


def test_end_to_end_error_decreases_with_n():
    # three users at a rate far below the ~0.5 bits/use bound, where the
    # error exponent is strong enough to show through at desk scale
    field = Field(2)
    up = UplinkSpec(field, np.array([0.89, 0.11]))
    rates = RateTuple.from_lists(["1/16", "1/16", "1/16"])
    cfg = TrialConfig(
        up, identity_downlink(3, 2), n=16, n_dl=64, trials=1500, master_seed=31, rates=rates
    )
    rows = dict(sweep(cfg, "n", [16, 48]))
    assert rows[16.0].p_hat > rows[48.0].p_hat
    assert rows[48.0].hi95 < rows[16.0].lo95
    assert rows[16.0].failures >= 10  # short blocks genuinely fail


def test_end_to_end_noisy_uplink_runs():
    field = Field(2)
    up = UplinkSpec(field, np.array([0.95, 0.05]))
    lengths = SymbolLengths(3, {(1,): 1, (2,): 1, (3,): 1})
    cfg = TrialConfig(
        up, identity_downlink(3, 2), n=24, n_dl=32, trials=30, master_seed=9, lengths=lengths
    )
    st = run_trials(cfg)
    assert st.trials == 30
    assert 0 <= st.failures <= 30


# -- the trial-batched engine against the per-trial loop ---------------------------


def ref_symbols(field, u) -> np.ndarray:
    """Uniform field symbols from uniforms, by the inverse-CDF oracle on the uniform law."""
    return np.array([ref_inverse_cdf([1 / field.order] * field.order, x) for x in u], dtype=np.int64)


def ref_run_trial(cfg: TrialConfig, down, scheme, key: int, t: int) -> tuple[bool, int, bool, bool]:
    """One trial drawn in Python integers and decoded alone, the loop the batched engine replaced.

    Trial t's uniforms, from seed(key, t), are its messages, per block the
    generator and the owner's and user 1's dithers, n noise uniforms and
    users 1..L's downlink uniforms.  Returns (failed, redraws, uplink event,
    downlink event); every user is decoded, so the events are complete.
    """
    field, table = cfg.up.field, scheme.table
    lengths, block_n = table.lengths, codec.allocate_block_lengths(table, cfg.n)
    s = ref_seed(key, t)
    code_symbols = sum((b.width + 2) * block_n[b.msg] for b in table.blocks)
    width = sum(lengths.k[m] for m in scheme.ids) + code_symbols + cfg.n + lengths.num_users * cfg.n_dl
    u = iter(ref_uniforms(s, width))

    def take(count):
        return [next(u) for _ in range(count)]

    messages = {m: ref_symbols(field, take(lengths.k[m])) for m in scheme.ids}
    codes, redraws = {}, 0
    for i, b in enumerate(table.blocks):
        k, n = b.width, block_n[b.msg]
        g, r = ref_redrawn(field, ref_symbols(field, take(k * n)).reshape(k, n), s, i)
        dithers = {codec.block_owner(b.msg): ref_symbols(field, take(n)), 1: ref_symbols(field, take(n))}
        codes[b.msg], redraws = codec.BlockCode(k, n, g, dithers), redraws + r
    noise = sample_uplink_noise(cfg.up, np.array(take(cfg.n)))
    word_hat = codec.uplink_round(scheme, messages, codes, cfg.up, noise)
    codebook = codec.DownlinkCodebook(np.full(down.input_size, 1 / down.input_size), cfg.n_dl, s)
    x0 = codebook.codeword(word_hat)
    failed = downlink = False
    for a in range(1, lengths.num_users + 1):
        known = {m: v for m, v in messages.items() if a in m}
        cands = codec.candidate_set(scheme, a, known)
        y_a = sample_downlink(down, a, x0, np.array(take(cfg.n_dl)))
        row = codec.user_decode_word(y_a, codebook.codeword(cands.words), down, a)
        downlink |= not np.array_equal(cands.words[row], word_hat)
        recovered = codec.recover_messages(scheme, a, row)
        failed |= any(not np.array_equal(v, messages[m]) for m, v in recovered.items())
    uplink = not np.array_equal(word_hat, codec.relay_word(scheme, messages))
    assert next(u, None) is None  # every uniform of the layout was read
    return failed, redraws, uplink, downlink


def ref_trials(cfg: TrialConfig) -> list[tuple[bool, int, bool, bool]]:
    order, lengths = reindex_users(cfg.resolved_lengths())
    down = DownlinkSpec(cfg.down.input_size, tuple(cfg.down.channel(old) for old in order))
    table = build_table(lengths)
    cols, _ = run_shuffle(simplify(table))
    scheme = codec.compile_scheme(cfg.up.field, table, cols)
    key = int(stream(cfg.master_seed, "trial").integers(0, 2**64, dtype=np.uint64))
    return [ref_run_trial(cfg, down, scheme, key, t) for t in range(cfg.trials)]


def ref_sum_decode(up: UplinkSpec, k: int, n: int, trials: int, master_seed: int) -> tuple[int, int]:
    """sum_decode_trials one trial at a time, every draw in Python integers: (failures, redraws).

    Trial t's uniforms, from seed(key, t), are the two messages, the
    generator, the dithers of transmitters 1 and 2, then n noise uniforms.
    """
    field = up.field
    key = int(stream(master_seed, "sum-decode").integers(0, 2**64, dtype=np.uint64))
    failures = redraws = 0
    for t in range(trials):
        s = ref_seed(key, t)
        u = ref_uniforms(s, (k + 3) * n + 2 * k)
        symbols = ref_symbols(field, u[: -n])
        u1, u2, g = symbols[:k], symbols[k : 2 * k], symbols[2 * k : (n + 2) * k].reshape(k, n)
        g, r = ref_redrawn(field, g, s, 0)
        dithers = {1: symbols[(n + 2) * k : (n + 2) * k + n], 2: symbols[(n + 2) * k + n :]}
        noise = sample_uplink_noise(up, np.array(u[-n:]))
        est = codec.send_block(codec.BlockCode(k, n, g, dithers), {1: u1, 2: u2}, up, noise)
        failures += not np.array_equal(est, field.add(u1, u2))
        redraws += r
    return failures, redraws


def counts(st: ErrorStats) -> tuple[int, int, int, int]:
    return st.failures, st.redraws, st.uplink_failures, st.downlink_failures


def bsc(q):
    return np.array([[1 - q, q], [q, 1 - q]])


def oracle_cfg(order, num_users, n, n_dl, q, trials=20, seed=3) -> TrialConfig:
    rng = stream(seed, "oracle-lengths", order, num_users)
    while True:
        lengths = SymbolLengths(
            num_users, {m: int(rng.integers(0, 3)) for m in message_ids(num_users)}
        )
        if order ** max(lengths.k_sums()) <= 1024:
            break
    noise = np.array([0.8] + [0.2 / (order - 1)] * (order - 1))
    down = DownlinkSpec(2, tuple(bsc(q + 0.02 * a) for a in range(num_users)))
    return TrialConfig(
        UplinkSpec(Field(order), noise), down, n=n, n_dl=n_dl, trials=trials,
        master_seed=seed, lengths=lengths,
    )


ORACLE_CASES = [(2, 3, 24, 8, 0.2), (3, 3, 24, 8, 0.2), (4, 4, 30, 10, 0.2), (2, 4, 30, 12, 0.0)]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("order, num_users, n, n_dl, q", ORACLE_CASES)
def test_batched_engine_matches_the_per_trial_loop(order, num_users, n, n_dl, q, threads):
    cfg = oracle_cfg(order, num_users, n, n_dl, q)
    ref = ref_trials(cfg)
    want = tuple(sum(r[i] for r in ref) for i in range(4))
    assert counts(run_trials(cfg, threads=threads)) == want
    assert want[2] > 0  # relay errors occur
    if q > 0:
        assert want[3] > 0  # so do downlink word errors


def test_the_block_path_needs_no_product_and_no_rank(monkeypatch):
    # The block path enumerates each code's span by field additions and reads
    # codewords from it: gf.rank and gf.mat_mul raise inside it, yet nothing moves.
    cfg = oracle_cfg(4, 4, 30, 10, 0.2)
    up = UplinkSpec(Field(4), np.array([0.8, 0.1, 0.05, 0.05]))

    def results():
        return counts(run_trials(cfg)), counts(sum_decode_trials(up, 6, 16, 6, 7))

    want = results()
    inside, entered = [], []

    def track(name):
        original = getattr(codec, name)

        def call(*args, **kwargs):
            inside.append(name)
            entered.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(codec, name, call)

    def forbid(name):
        original = getattr(gf, name)

        def call(*args, **kwargs):
            if inside:
                raise AssertionError(f"gf.{name} called inside codec.{inside[-1]}")
            return original(*args, **kwargs)

        monkeypatch.setattr(gf, name, call)

    tracked = {"block_code", "send_block", "encode_uplink", "relay_decode_sum"}
    for name in tracked:
        track(name)
    for name in ("rank", "mat_mul"):
        forbid(name)
    assert results() == want
    assert set(entered) == tracked


@pytest.mark.parametrize("chunk, sizes", [(1, [1] * 20), (3, [3] * 6 + [2])])
def test_chunk_size_does_not_change_the_counts(monkeypatch, chunk, sizes):
    cfg = oracle_cfg(2, 3, 24, 8, 0.2, trials=20)
    up = UplinkSpec(Field(2), np.array([0.9, 0.1]))
    budget, chunks = [], []
    tally = sim._tally

    def spy_tally(job, source, trials, width, per_trial):
        if budget:
            monkeypatch.setattr(sim, "_STACK_BUDGET", budget[0] * per_trial)

        def spy_job(seeds, u):
            chunks.append(len(seeds))
            return job(seeds, u)

        return tally(spy_job, source, trials, width, per_trial)

    def results(threads=1):
        relay = sum_decode_trials(up, 4, 8, 20, 7, threads=threads)
        return counts(run_trials(cfg, threads=threads)), counts(relay)

    monkeypatch.setattr(sim, "_tally", spy_tally)
    want = results()
    assert chunks == [20, 20]  # the default budget takes each call's trials in one chunk
    budget.append(chunk)
    chunks.clear()
    for threads in (1, 2):
        assert results(threads) == want
    # 20 trials in chunks of 3 leave an uneven last chunk of 2.
    assert sorted(chunks) == sorted(sizes * 4)


def spy_chunks(monkeypatch) -> dict:
    """Record the ``per_trial`` bytes ``_tally`` gets and the trial count of each chunk."""
    seen, tally = {"per_trial": [], "chunks": []}, sim._tally

    def spy_tally(job, source, trials, width, per_trial):
        def spy_job(seeds, u):
            seen["chunks"].append(len(seeds))
            return job(seeds, u)

        seen["per_trial"].append(per_trial)
        return tally(spy_job, source, trials, width, per_trial)

    monkeypatch.setattr(sim, "_tally", spy_tally)
    return seen


def test_the_default_budget_decodes_a_relay_gf4_call_in_one_chunk(monkeypatch):
    # 4^6 candidate words of 16 uint8 symbols are 64 KiB a trial; over GF(257)
    # the span's symbols are uint16, two bytes each.
    seen = spy_chunks(monkeypatch)
    up = UplinkSpec(Field(4), np.array([0.8, 0.1, 0.05, 0.05]))
    assert sum_decode_trials(up, 6, 16, 4, 7).trials == 4
    assert seen == {"per_trial": [4**6 * 16], "chunks": [4]}
    sum_decode_trials(UplinkSpec(Field(257), np.array([0.9] + [0.1 / 256] * 256)), 1, 3, 2, 7)
    assert seen["per_trial"][1:] == [257 * 3 * 2]


@pytest.mark.parametrize(
    "name, per_trial",
    [
        # Each user's 4^5 candidate codewords of n_dl = 48 symbols, at the codebook
        # pass's 8 float bytes a symbol, 384 KiB a trial, outweigh the relay's widest
        # span, 4^2 words of 9 symbols: one trial a chunk.
        ("noisy_uplink_f4.json", 4**5 * 48 * 8),
        # 32 candidates of 64 symbols, 16 KiB a trial: 16 trials a chunk.
        ("noisy_uplink_small.json", 32 * 64 * 8),
    ],
)
def test_run_trials_chunks_the_bundled_configs_by_the_byte_rule(monkeypatch, name, per_trial):
    seen, trials = spy_chunks(monkeypatch), 200
    st = run_trials(replace(bundled(name, 11), trials=trials))
    size = max(1, sim._STACK_BUDGET // per_trial)
    assert st.trials == trials and seen["per_trial"] == [per_trial]
    assert seen["chunks"] == [size] * (trials // size) + [trials % size] * (trials % size > 0)


@pytest.mark.parametrize(
    "order, pmf, k, n",
    [(2, [0.9, 0.1], 6, 7), (3, [0.8, 0.1, 0.1], 4, 5), (4, [0.8, 0.1, 0.05, 0.05], 6, 16)],
)
def test_sum_decode_matches_a_per_trial_loop_in_python_integers(order, pmf, k, n):
    up = UplinkSpec(Field(order), np.array(pmf))
    st = sum_decode_trials(up, k, n, 40, 7)
    assert (st.failures, st.redraws) == ref_sum_decode(up, k, n, 40, 7)


def test_no_thread_starts_whatever_thread_count_is_passed(monkeypatch):
    # Several chunks each: 40 trials in chunks of 16 and 20 in chunks of 5.
    cfg = replace(bundled("noisy_uplink_small.json", 11), trials=40)
    up = UplinkSpec(Field(2), np.array([0.9, 0.1]))
    want = counts(run_trials(cfg)), counts(sum_decode_trials(up, 8, 24, 20, 7))

    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    got = counts(run_trials(cfg, threads=4)), counts(sum_decode_trials(up, 8, 24, 20, 7, threads=4))
    assert got == want


def test_sum_decode_counts_every_failure_as_an_uplink_event():
    st = sum_decode_trials(UplinkSpec(Field(2), np.array([0.9, 0.1])), 6, 7, 40, 7)
    assert (st.uplink_failures, st.downlink_failures) == (st.failures, 0) and st.failures > 0


def bundled(name: str, seed: int) -> TrialConfig:
    cfg = json.loads((Path(__file__).resolve().parent.parent / "configs" / name).read_text())
    up, down = cli.parse_channel(cfg["channel"])
    return TrialConfig(
        up, down, n=cfg["n"], n_dl=cfg["n_dl"], trials=cfg["trials"], master_seed=seed,
        lengths=cli.parse_lengths(cfg["lengths"]),
    )


def test_error_events_on_the_bundled_configs():
    zero = run_trials(bundled("zero_noise_roundtrip.json", 11))
    assert (zero.failures, zero.uplink_failures, zero.downlink_failures) == (0, 0, 0)
    noisy = bundled("noisy_uplink_small.json", 11)
    st = run_trials(noisy)
    either = sum(up or down for _, _, up, down in ref_trials(noisy))
    assert 0 < st.uplink_failures <= st.failures <= either


def test_a_wrong_recovery_from_right_words_is_an_internal_error(monkeypatch):
    recover = codec.recover_messages

    def corrupt(scheme, a, row):
        return {m: v ^ 1 for m, v in recover(scheme, a, row).items()}

    monkeypatch.setattr(codec, "recover_messages", corrupt)
    with pytest.raises(RuntimeError, match="recovered wrongly"):
        run_trials(zero_noise_cfg(trials=4))


@pytest.mark.parametrize(
    "name, distinct", [("noisy_uplink_small.json", 32), ("noisy_uplink_f4.json", 1024)]
)
def test_each_trial_hashes_each_distinct_relay_word_once(monkeypatch, name, distinct):
    # The broadcast word and the three users' candidates are 1 + 3 x 32 (GF(2))
    # or 1 + 3 x 1024 (GF(4)) words a trial, all of them relay words of length
    # 5, so 2^5 or 4^5 are distinct.  A generator redraw hashes one seed.
    cfg = replace(bundled(name, 11), trials=20)
    hashed, real = [], codec.uniforms

    def spy(seeds, count):
        hashed.append(np.size(seeds))
        return real(seeds, count)

    monkeypatch.setattr(codec, "uniforms", spy)
    st = run_trials(cfg)
    assert sum(hashed) - st.redraws == distinct * cfg.trials
