import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mwrelay import gf
from mwrelay.channel import (
    DownlinkSpec,
    UplinkSpec,
    identity_downlink,
    sample_downlink,
    sample_uplink_noise,
)
from mwrelay.codec import (
    BlockCode,
    CapabilityError,
    DownlinkCodebook,
    allocate_block_lengths,
    block_code,
    block_owner,
    build_v,
    candidate_set,
    compile_scheme,
    encode_uplink,
    make_block_codes,
    recover_messages,
    relay_decode_sum,
    relay_word,
    uplink_round,
    user_decode_word,
)
from mwrelay.gf import Field
from mwrelay.rng import stream
from mwrelay.schedule import SymbolLengths, build_table, message_ids, reindex_users
from mwrelay.shuffle import decode_matrix, run_shuffle, simplify
from test_channel import oracle_laws, ref_inverse_cdf
from test_rng import GAMMA, MASK, ref_seed, ref_uniforms, splitmix


def all_vectors(order, k):
    """Every length-k vector over [0, order), ascending big-endian, by itertools."""
    return np.array(list(itertools.product(range(order), repeat=k)), dtype=np.int64)


def lengths_l3() -> SymbolLengths:
    return SymbolLengths(3, {(1,): 2, (2,): 2, (3,): 2, (1, 2): 1, (1, 3): 1, (2, 3): 1})


def built(lengths):
    t = build_table(lengths)
    cols, _ = run_shuffle(simplify(t))
    return t, cols


def compiled(field, lengths):
    t, cols = built(lengths)
    return t, cols, compile_scheme(field, t, cols)


def block_part(t, vec, block):
    at = t.block_offsets()[block]
    return vec[at : at + t.lengths.k[block]]


# -- reference implementations: the per-column, per-candidate and elimination
# loops that the compiled scheme replaced, kept as oracles ----------------------


def ref_build_v(field, cols, block, messages):
    """User 1's function vector for a block, one symbol per column."""
    block_cols = [c for c in cols if c.block == block]
    out = np.zeros(len(block_cols), dtype=np.int64)
    for i, col in enumerate(block_cols):
        acc = 0
        for ref in col.entries():
            acc = field.add(acc, int(messages[ref.msg][ref.pos]))
        out[i] = acc
    return out


def ref_relay_word(field, messages, table, cols):
    parts = [np.zeros(0, dtype=np.int64)]
    for b in table.blocks:
        v = ref_build_v(field, cols, b.msg, messages)
        parts.append(field.add(np.asarray(messages[b.msg][: b.width]), v))
    return np.concatenate(parts)


def ref_recover_messages(field, a, word, known, table, cols):
    """Peel the function vectors; users a >= 2 solve their shuffled system."""
    offsets = table.block_offsets()
    if a == 1:
        return {
            b.msg: field.sub(word[offsets[b.msg] : offsets[b.msg] + b.width],
                             ref_build_v(field, cols, b.msg, known))
            for b in table.blocks
        }
    system = decode_matrix(cols, a, table)
    col_value = {}
    for b in table.blocks:
        if a in b.star_rows:
            seg = word[offsets[b.msg] : offsets[b.msg] + b.width]
            v_theta = field.sub(seg, np.asarray(known[b.msg][: b.width], dtype=np.int64))
            for i in range(b.width):
                col_value[offsets[b.msg] + i] = int(v_theta[i])
    rhs = np.zeros(len(system.col_indices), dtype=np.int64)
    for r, ci in enumerate(system.col_indices):
        val = col_value[ci]
        for ref in system.known_refs[r]:
            val = field.sub(val, int(known[ref.msg][ref.pos]))
        rhs[r] = val
    sol = gf.solve_linear(field, system.matrix, rhs)
    assert sol.status == "unique"
    full = dict(known)
    full[(1,)] = np.zeros(table.lengths.k[(1,)], dtype=np.int64)
    for j in range(2, table.num_users + 1):
        if j != a:
            full[(1, j)] = np.zeros(table.lengths.k[(1, j)], dtype=np.int64)
    for ref, val in zip(system.unknown_order, sol.x):
        full[ref.msg][ref.pos] = val
    out = {}
    for b in table.blocks:
        if a not in b.msg:
            seg = word[offsets[b.msg] : offsets[b.msg] + b.width]
            out[b.msg] = field.sub(seg, ref_build_v(field, cols, b.msg, full))
    for m in message_ids(table.num_users):
        if a not in m and m not in out:
            out[m] = full[m]
    return out


def ref_user_decode(y_a, codebook, words, w):
    """One codebook row per candidate; the first with the largest exact likelihood wins.

    A likelihood is the product of w[x_t, y_t], each float taken as a rational.
    """
    exact = [[Fraction(float(p)) for p in row] for row in w]
    y_a = np.asarray(y_a).tolist()
    likelihoods = [
        math.prod(exact[x][y] for x, y in zip(codebook.codeword(word).tolist(), y_a))
        for word in words
    ]
    return words[likelihoods.index(max(likelihoods))]


def random_messages(field, lengths, rng):
    ids = message_ids(lengths.num_users)
    return {m: gf.random_matrix(field, 1, lengths.k[m], rng)[0] for m in ids}


def test_encode_uplink_basics():
    field = Field(2)
    code = BlockCode(2, 2, np.eye(2, dtype=np.int64), {1: np.zeros(2, dtype=np.int64)})
    assert np.array_equal(encode_uplink(np.array([0, 0]), code, 1, field), [0, 0])
    assert np.array_equal(encode_uplink(np.array([1, 0]), code, 1, field), [1, 0])
    with pytest.raises(ValueError):
        encode_uplink(np.array([1, 0, 1]), code, 1, field)
    # The codeword is read from the span, which stops at the enumeration bound.
    wide = BlockCode(21, 1, np.zeros((21, 1), dtype=np.int64), {1: np.zeros(1, dtype=np.int64)})
    with pytest.raises(CapabilityError):
        encode_uplink(np.zeros(21, dtype=np.int64), wide, 1, field)


def ref_encode(field, u, g, dither):
    """Row loop of element products and sums, plus the dither, as an oracle."""
    word = []
    for j in range(g.shape[1]):
        acc = 0
        for i in range(g.shape[0]):
            acc = field.add(acc, field.mul(int(u[i]), int(g[i, j])))
        word.append(field.add(acc, int(dither[j])))
    return word


def unstacked(code, i):
    """Trial i's code of a stack, built by hand: its span is computed on first use."""
    return BlockCode(code.k, code.n, code.generator[i], {t: q[i] for t, q in code.dithers.items()})


def drawn_stack(field, trials, k, n, rng, transmitters=()):
    """A stack of codes drawn through ``block_code``, and each trial's code."""
    g = rng.integers(0, field.order, (trials, k, n))
    dithers = {t: rng.integers(0, field.order, (trials, n)) for t in transmitters}
    stacked, _ = block_code(field, g, dithers, rng.integers(0, 2**64, trials, dtype=np.uint64), 0)
    return stacked, [unstacked(stacked, i) for i in range(trials)]


def drawn_codes(table, n, field, rng, trials=1):
    """``make_block_codes`` on symbols and seeds from ``rng``: the stacks, and each trial's codes."""
    lengths = allocate_block_lengths(table, n)
    width = sum((b.width + 2) * lengths[b.msg] for b in table.blocks)
    symbols = rng.integers(0, field.order, (trials, width))
    codes, _ = make_block_codes(table, n, field, symbols, rng.integers(0, 2**64, trials, dtype=np.uint64))
    return codes, [{b: unstacked(c, i) for b, c in codes.items()} for i in range(trials)]


@pytest.mark.parametrize("order", [2, 3, 4, 8, 9])
def test_encode_uplink_matches_a_row_loop(order):
    field = Field(order)
    rng = stream(8, "enc-oracle", order)
    for k, n in ((0, 3), (1, 4), (3, 5)):
        drawn, singles = drawn_stack(field, 3, k, n, rng, (2, 1))
        # A hand-built code may be rank deficient and computes its span on first use.
        codes = singles + [BlockCode(k, n, gf.random_matrix(field, k, n, rng), singles[0].dithers)]
        us = gf.random_matrix(field, len(codes), k, rng)
        # A hand-built stack, whose span no call has computed yet.
        stacked = BlockCode(
            k, n, np.array([c.generator for c in codes]),
            {t: np.array([c.dithers[t] for c in codes]) for t in (2, 1)},
        )
        for t in (2, 1):
            want = [ref_encode(field, u, c.generator, c.dithers[t]) for u, c in zip(us, codes)]
            for u, c, w in zip(us, codes, want):
                assert encode_uplink(u, c, t, field).tolist() == w
            assert encode_uplink(us, stacked, t, field).tolist() == want
            assert encode_uplink(us[:3], drawn, t, field).tolist() == want[:3]


def test_encode_round_trip_with_dither():
    for order in (2, 4, 5):
        field = Field(order)
        rng = stream(8, "enc", order)
        done = 0
        while done < 10:
            k, n = 3, 5
            g = gf.random_matrix(field, k, n, rng)
            if gf.rank(field, g) < k:
                continue
            q = gf.random_matrix(field, 1, n, rng)[0]
            u = gf.random_matrix(field, 1, k, rng)[0]
            code = BlockCode(k, n, g, {1: q})
            x = encode_uplink(u, code, 1, field)
            sol = gf.solve_linear(field, g.T, field.sub(x, q))
            assert sol.status == "unique" and np.array_equal(sol.x, u)
            done += 1


def test_build_v_rules():
    field = Field(4)
    t, cols, scheme = compiled(field, SymbolLengths(3, {(1,): 1, (2, 3): 1}))
    msgs = {(1,): np.array([3]), (2, 3): np.array([2]), (2,): np.zeros(0, dtype=np.int64),
            (3,): np.zeros(0, dtype=np.int64), (1, 2): np.zeros(0, dtype=np.int64),
            (1, 3): np.zeros(0, dtype=np.int64)}
    # both starred cells hold W1[0]: a single copy is selected
    v = block_part(t, build_v(scheme, msgs), (2, 3))
    assert v.tolist() == [3]
    assert v.tolist() == ref_build_v(field, cols, (2, 3), msgs).tolist()

    t2, cols2, scheme2 = compiled(field, lengths_l3())
    msgs2 = {m: np.arange(1, lengths_l3().k[m] + 1, dtype=np.int64) for m in message_ids(3)}
    # the pair block pairs W1_3[0] (row 2) with W1_2[0] (row 3): field sum
    v2 = block_part(t2, build_v(scheme2, msgs2), (2, 3))
    expect = field.add(int(msgs2[(1, 3)][0]), int(msgs2[(1, 2)][0]))
    assert v2.tolist() == [expect]


def test_build_v_empty_column_is_zero():
    field = Field(2)
    t, cols, scheme = compiled(field, SymbolLengths(3, {(2,): 2}))
    msgs = {m: np.zeros(0, dtype=np.int64) for m in message_ids(3)}
    msgs[(2,)] = np.array([1, 1])
    assert block_part(t, build_v(scheme, msgs), (2,)).tolist() == [0, 0]


def brute_force_sum_decode(field, y0, g, dither_sum, pmf):
    """Independent ML oracle: every candidate's exact likelihood.

    Codewords are sums of row multiples read from the field's addition
    and multiplication tables, not from the span kernel.  A candidate's
    likelihood is the product of its noise probabilities, each float taken
    as its exact ratio of integers, so ties are exact.  Returns the first candidate in
    ascending big-endian order with the highest likelihood and the noise
    patterns of all candidates that reach it.
    """
    elems = np.arange(field.order)
    add = field.add(elems[:, None], elems[None, :])
    mul = field.mul(elems[:, None], elems[None, :])
    neg = field.sub(0, elems)
    ratios = [float(p).as_integer_ratio() for p in pmf]
    z = add[np.asarray(y0), neg[np.asarray(dither_sum)]]
    cands = all_vectors(field.order, g.shape[0])
    c = np.zeros((len(cands), g.shape[1]), dtype=np.int64)
    for i in range(g.shape[0]):
        c = add[c, mul[cands[:, i, None], g[i]]]
    noise = add[z, neg[c]].tolist()
    likelihoods = [
        Fraction(math.prod(ratios[s][0] for s in e), math.prod(ratios[s][1] for s in e))
        for e in noise
    ]
    top = max(likelihoods)
    return cands[likelihoods.index(top)], [e for e, p in zip(noise, likelihoods) if p == top]


def test_relay_decode_zero_noise_exact():
    field = Field(4)
    up = UplinkSpec(field, np.array([1.0, 0.0, 0.0, 0.0]))
    rng = stream(8, "zero")
    for _ in range(20):
        g = gf.random_matrix(field, 2, 4, rng)
        if gf.rank(field, g) < 2:
            continue
        q = gf.random_matrix(field, 1, 4, rng)[0]
        s = gf.random_matrix(field, 1, 2, rng)[0]
        y0 = field.add(gf.mat_mul(field, s, g), q)
        est = relay_decode_sum(y0, BlockCode(2, 4, g, {}), q, up)
        assert np.array_equal(est, s)


def test_relay_decode_matches_majority_vote():
    field = Field(2)
    up = UplinkSpec(field, np.array([0.8, 0.2]))
    g = np.ones((1, 3), dtype=np.int64)
    code = BlockCode(1, 3, g, {})
    zero = np.zeros(3, dtype=np.int64)
    for bits in itertools.product((0, 1), repeat=3):
        y0 = np.array(bits, dtype=np.int64)
        est = relay_decode_sum(y0, code, zero, up)
        assert est[0] == int(sum(bits) >= 2)


def test_relay_decode_excludes_zero_probability_candidates():
    field = Field(4)
    up = UplinkSpec(field, np.array([0.5, 0.5, 0.0, 0.0]))
    g = np.eye(1, dtype=np.int64)
    code = BlockCode(1, 1, g, {})
    zero = np.zeros(1, dtype=np.int64)
    # y0 = 2: only sums 2 (noise 0) and 3 (noise 1) have positive probability;
    # the tie breaks to the smaller encoding
    est = relay_decode_sum(np.array([2]), code, zero, up)
    assert est[0] == 2
    oracle, winners = brute_force_sum_decode(field, np.array([2]), g, zero, up.noise_pmf)
    assert est[0] == min(2, 3) and oracle[0] == 2 and len(winners) == 2


def test_relay_decode_agrees_with_brute_force_oracle():
    # The decoder returns the oracle's first exact maximum.  Noise uniform
    # on a subset of F gives every feasible candidate the same likelihood,
    # so the tie-break is checked too; GF(9)'s laws are not symmetric under
    # negation, so the sign of the noise is checked as well.
    # Entries are (order, k, draws, pmf); GF(8), GF(25) and GF(27) cover
    # m = 3, p = 5 and p = 3 with m = 3.
    rng = stream(8, "oracle")
    laws = [
        (2, 2, 15, [0.7, 0.3]),
        (4, 2, 15, [0.7, 0.3, 0, 0]),
        (4, 2, 15, [0.5, 0.5, 0, 0]),
        (9, 2, 15, [0.5, 0.2, 0, 0.3, 0, 0, 0, 0, 0]),
        (9, 2, 15, [0.25, 0.25, 0, 0, 0.25, 0, 0.25, 0, 0]),
        (8, 3, 4, [0.6, 0.1, 0, 0.2, 0, 0, 0.1, 0]),
        (8, 3, 4, [0.5, 0, 0, 0, 0, 0.5, 0, 0]),
        (25, 3, 2, [0.25, 0.25] + [0] * 5 + [0.25] + [0] * 12 + [0.25] + [0] * 4),
        (27, 3, 2, [0.4, 0.3] + [0] * 10 + [0.3] + [0] * 14),
        (27, 3, 2, [0.25, 0, 0, 0.25, 0.25] + [0] * 17 + [0.25] + [0] * 4),
    ]
    tied = 0
    for order, k, draws, pmf in laws:
        field = Field(order)
        up = UplinkSpec(field, np.array(pmf))
        for _ in range(draws):
            n = 4
            g = gf.random_matrix(field, k, n, rng)
            q = gf.random_matrix(field, 1, n, rng)[0]
            u = gf.random_matrix(field, 1, k, rng)[0]
            noise = sample_uplink_noise(up, rng.random(n))
            y0 = field.add(field.add(gf.mat_mul(field, u, g), q), noise)
            est = relay_decode_sum(y0, BlockCode(k, n, g, {}), q, up)
            oracle, winners = brute_force_sum_decode(field, y0, g, q, up.noise_pmf)
            assert np.array_equal(est, oracle), (order, pmf)
            tied += len(winners) > 1
    assert tied >= 10


@pytest.mark.parametrize("order", [2, 3, 4, 5, 8, 9, 16, 17])
def test_relay_law_index_scores_equal_the_offset_table(order):
    # The noise pattern z - c, by XOR over GF(2^m) and otherwise from the
    # difference table (through a uint8 index, uint16 from GF(17)), gives
    # the exact oracle's first maximum, ties and impossible candidates
    # included, for one code and for a stack of them.
    field = Field(order)
    rng = stream(17, "law-index", order)
    pmfs = [rng.dirichlet(np.ones(order)), np.full(order, 1 / order)]
    pmfs.append(np.where(np.arange(order) < 2, 0.5, 0.0))  # every feasible candidate ties
    for pmf in pmfs:
        up = UplinkSpec(field, pmf)
        for k, n, trials in ((1, 3, 1), (2, 5, 1), (3, 7, 4), (2, 12, 3)):
            drawn, codes = drawn_stack(field, trials, k, n, rng)
            y0 = rng.integers(0, order, (trials, n))
            dither = rng.integers(0, order, (trials, n))
            stacked = relay_decode_sum(y0, drawn, dither, up)
            for t, code in enumerate(codes):
                want, _ = brute_force_sum_decode(field, y0[t], code.generator, dither[t], pmf)
                single = relay_decode_sum(y0[t], code, dither[t], up)
                assert single.shape == (k,)
                assert np.array_equal(single, want)
                assert np.array_equal(stacked[t], want)


def test_relay_decode_breaks_ties_between_compositions_exactly():
    # The relay_gf4 law: 0.8 = 8 x 0.1 = 16 x 0.05 in floats, so a noise
    # pattern's likelihood is 0.05^n 16^N0 2^N1, and patterns of different
    # compositions tie whenever 4 N0 + N1 agree.  The decoder must return
    # the exact oracle's first maximum, stacked and single.
    field = Field(4)
    up = UplinkSpec(field, np.array([0.8, 0.1, 0.05, 0.05]))
    rng = stream(17, "composition-ties")
    tied = 0
    for _ in range(40):
        drawn, codes = drawn_stack(field, 4, 4, 9, rng)
        y0 = rng.integers(0, 4, (4, 9))
        dither = rng.integers(0, 4, (4, 9))
        stacked = relay_decode_sum(y0, drawn, dither, up)
        for t, code in enumerate(codes):
            want, winners = brute_force_sum_decode(
                field, y0[t], code.generator, dither[t], up.noise_pmf
            )
            assert np.array_equal(relay_decode_sum(y0[t], code, dither[t], up), want)
            assert np.array_equal(stacked[t], want)
            tied += len({tuple(sorted(e)) for e in winners}) > 1  # compositions, not orders
    assert tied >= 15


def test_relay_decode_returns_the_first_minimum_distance_word_on_a_bsc():
    # Over a BSC with p < 1/2, ML is minimum Hamming distance, so the exact
    # rule returns the first word at the minimum distance from y0.  k = 8,
    # n = 24, p = 0.11, 1,000 seeded draws, 100 codes a stack.
    field = Field(2)
    up = UplinkSpec(field, np.array([0.89, 0.11]))
    rng = stream(17, "bsc-first-minimum")
    messages = all_vectors(2, 8)
    tied = 0
    for _ in range(10):
        g = rng.integers(0, 2, (100, 8, 24))
        u = rng.integers(0, 2, (100, 8))
        y0 = (np.einsum("tk,tkn->tn", u, g) + (rng.random((100, 24)) < 0.11)) % 2
        est = relay_decode_sum(y0, BlockCode(8, 24, g, {}), np.zeros_like(y0), up)
        distance = ((np.einsum("ck,tkn->tcn", messages, g) % 2) != y0[:, None, :]).sum(axis=-1)
        assert np.array_equal(est, messages[distance.argmin(axis=-1)])
        at_minimum = distance == distance.min(axis=-1, keepdims=True)
        tied += int(np.count_nonzero(at_minimum.sum(axis=-1) > 1))
    assert tied >= 50


@pytest.mark.parametrize("order, k", [(4, 6), (9, 4)])
def test_relay_decode_builds_no_index_wider_than_the_span(order, k):
    # 4,096 or 6,561 x 16 candidates.  The index into the flat law stays
    # uint8 (an eighth of the float64 gather); an int64 index of the
    # candidates, or int64 digits of them over GF(9), would add at least
    # the gather's size again.
    field = Field(order)
    rng = stream(17, "relay-peak", order)
    up = UplinkSpec(field, rng.dirichlet(np.ones(order)))
    code = BlockCode(k, 16, gf.random_matrix(field, k, 16, rng), {})
    code.span(field)
    y0, dither = rng.integers(0, order, (2, 16))
    relay_decode_sum(y0, code, dither, up)
    tracemalloc.start()
    try:
        relay_decode_sum(y0, code, dither, up)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * order**k * 16 * 8  # 768 KiB over GF(4)


def test_relay_decode_capability_bound():
    field = Field(2)
    up = UplinkSpec(field, np.array([1.0, 0.0]))
    g = np.zeros((21, 30), dtype=np.int64)
    with pytest.raises(CapabilityError):
        relay_decode_sum(np.zeros(30, dtype=np.int64), BlockCode(21, 30, g, {}), np.zeros(30, dtype=np.int64), up)


def ref_redrawn(field, g, key, label):
    """A generator and its redraw count by gf.rank, redraws hashed in Python integers."""
    k, n = g.shape
    attempt, uniform = 0, [1 / field.order] * field.order
    while gf.rank(field, g) < k:
        attempt += 1
        u = ref_uniforms(ref_seed(key, label, attempt), k * n)
        g = np.array([ref_inverse_cdf(uniform, x) for x in u]).reshape(k, n)
    return g, attempt


def test_block_code_rank_test_matches_gf_rank():
    # block_code redraws a generator exactly when gf.rank finds it deficient,
    # and only that trial, from its seed under (label, attempt); a third of the
    # draws are forced deficient by a zero, repeated or scaled row.
    rng = stream(53, "full-rank")
    deficient = 0
    for i in range(60):
        field = Field([2, 3, 4, 5, 8, 9][i % 6])
        k = int(rng.integers(1, 5))
        n = k + int(rng.integers(0, 3))
        g = rng.integers(0, field.order, size=(20, k, n))
        for t in range(0, 20, 3) if k > 1 else ():
            a, b = rng.choice(k, size=2, replace=False)
            g[t, a] = [0, g[t, b], field.mul(int(rng.integers(0, field.order)), g[t, b])][t % 9 // 3]
        seeds = rng.integers(0, 2**64, 20, dtype=np.uint64)
        code, redraws = block_code(field, g, {}, seeds, i)
        want = [ref_redrawn(field, g[t], int(seeds[t]), i) for t in range(20)]
        assert np.array_equal(code.generator, [w for w, _ in want]), (field, g.tolist())
        assert redraws == sum(r for _, r in want)
        deficient += sum(r > 0 for _, r in want)
    assert 400 <= deficient < 1200


def test_allocate_block_lengths():
    t, _ = built(lengths_l3())
    alloc = allocate_block_lengths(t, 10)
    assert sum(alloc.values()) == 10
    assert alloc[(2,)] == 4 and alloc[(3,)] == 4 and alloc[(2, 3)] == 2
    alloc = allocate_block_lengths(t, 11)
    assert sum(alloc.values()) == 11
    assert alloc[(2, 3)] == 3  # remainder lands on the last nonempty block
    with pytest.raises(ValueError):
        allocate_block_lengths(t, 4)


def test_uplink_round_zero_noise_recovers_relay_word():
    field = Field(2)
    up = UplinkSpec(field, np.array([1.0, 0.0]))
    rng = stream(8, "round")
    for _ in range(20):
        lengths = SymbolLengths(3, {m: int(rng.integers(0, 3)) for m in message_ids(3)})
        _, lengths = reindex_users(lengths)
        t, cols, scheme = compiled(field, lengths)
        if t.total_cols == 0:
            continue
        msgs = random_messages(field, lengths, rng)
        codes = drawn_codes(t, 2 * t.total_cols, field, rng)[1][0]
        noise = sample_uplink_noise(up, rng.random(sum(c.n for c in codes.values())))
        est = uplink_round(scheme, msgs, codes, up, noise)
        assert np.array_equal(est, relay_word(scheme, msgs))
        assert np.array_equal(est, ref_relay_word(field, msgs, t, cols))


def test_uplink_round_l2_single_block():
    field = Field(2)
    up = UplinkSpec(field, np.array([1.0, 0.0]))
    lengths = SymbolLengths(2, {(1,): 1, (2,): 1})
    t, cols, scheme = compiled(field, lengths)
    msgs = {(1,): np.array([1]), (2,): np.array([1]), (1, 2): np.zeros(0, dtype=np.int64)}
    codes = drawn_codes(t, 2, field, stream(8, "l2"))[1][0]
    est = uplink_round(scheme, msgs, codes, up, sample_uplink_noise(up, stream(8, "l2n").random(2)))
    assert np.array_equal(est, field.add(msgs[(1,)], msgs[(2,)]))
    assert block_owner((2,)) == 2


def test_relay_word_linearity():
    # superposition: the message -> relay word map is additive
    for order in (2, 4):
        field = Field(order)
        rng = stream(8, "lin", order)
        for _ in range(15):
            lengths = SymbolLengths(3, {m: int(rng.integers(0, 3)) for m in message_ids(3)})
            _, lengths = reindex_users(lengths)
            t, cols, scheme = compiled(field, lengths)
            m1 = random_messages(field, lengths, rng)
            m2 = random_messages(field, lengths, rng)
            msum = {k: field.add(m1[k], m2[k]) for k in m1}
            lhs = ref_relay_word(field, msum, t, cols)
            rhs = field.add(ref_relay_word(field, m1, t, cols), ref_relay_word(field, m2, t, cols))
            assert np.array_equal(lhs, rhs)
            assert np.array_equal(relay_word(scheme, msum), lhs)


def brute_force_words(field, a, known, table, cols):
    """Oracle: every assignment of the unknown messages, in big-endian order,
    one by one through the pipeline; entry j is the word of assignment j."""
    lengths = table.lengths
    unknown_ids = [m for m in message_ids(table.num_users) if a not in m]
    words = []
    spans = [(m, lengths.k[m]) for m in unknown_ids]
    total = sum(s for _, s in spans)
    for assign in itertools.product(range(field.order), repeat=total):
        msgs = dict(known)
        at = 0
        for m, s in spans:
            msgs[m] = np.array(assign[at : at + s], dtype=np.int64)
            at += s
        words.append(tuple(ref_relay_word(field, msgs, table, cols).tolist()))
    return words


def row_of(cand, word):
    """The row of ``word`` among single-trial candidates."""
    (row,) = np.flatnonzero((cand.words == word).all(axis=-1))
    return int(row)


def check_candidate_sets(field, lengths, msgs, t, cols, scheme):
    """Row j of each user's candidate set is the word of the unknown messages'
    assignment with big-endian index j, through the per-column relay map."""
    for a in range(1, lengths.num_users + 1):
        known = {m: v for m, v in msgs.items() if a in m}
        cand = candidate_set(scheme, a, known)
        oracle = brute_force_words(field, a, known, t, cols)
        assert [tuple(w) for w in cand.words.tolist()] == oracle
        assert cand.words.shape[0] <= field.order ** lengths.k_sums()[a - 1]
        # rows recover the assignments of their words
        for i in range(cand.words.shape[0]):
            witness = {**known, **recover_messages(scheme, a, i)}
            w = ref_relay_word(field, witness, t, cols)
            assert np.array_equal(w, cand.words[i])
        # true word is always a candidate
        truth = ref_relay_word(field, msgs, t, cols)
        assert any(np.array_equal(truth, w) for w in cand.words)


def test_candidate_set_matches_brute_force_and_bound():
    rng = stream(8, "cand")
    for order in (2, 3):
        field = Field(order)
        for _ in range(10):
            lengths = SymbolLengths(3, {m: int(rng.integers(0, 2)) for m in message_ids(3)})
            _, lengths = reindex_users(lengths)
            t, cols, scheme = compiled(field, lengths)
            check_candidate_sets(field, lengths, random_messages(field, lengths, rng), t, cols, scheme)


def test_candidate_witnesses_index_the_assignments_of_their_words():
    # A row is its own witness: its index is the big-endian index of an
    # assignment of the unknown messages, over GF(2), GF(3), GF(4) and 2-4 users.
    rng = stream(8, "witness")
    for order in (2, 3, 4):
        field = Field(order)
        checked = 0
        while checked < 8:
            num_users = int(rng.integers(2, 5))
            lengths = SymbolLengths(
                num_users, {m: int(rng.integers(0, 3)) for m in message_ids(num_users)}
            )
            _, lengths = reindex_users(lengths)
            if order ** max(lengths.k_sums()) > 256:
                continue
            t, cols, scheme = compiled(field, lengths)
            check_candidate_sets(field, lengths, random_messages(field, lengths, rng), t, cols, scheme)
            checked += 1


def test_candidate_set_bound_on_200_random_instances():
    rng = stream(8, "bound200")
    checked = 0
    while checked < 200:
        order = (2, 3, 4)[int(rng.integers(0, 3))]
        field = Field(order)
        num_users = int(rng.integers(2, 5))
        lengths = SymbolLengths(
            num_users, {m: int(rng.integers(0, 3)) for m in message_ids(num_users)}
        )
        _, lengths = reindex_users(lengths)
        if order ** max(lengths.k_sums()) > 512:
            continue
        t, cols, scheme = compiled(field, lengths)
        msgs = random_messages(field, lengths, rng)
        a = int(rng.integers(1, num_users + 1))
        known = {m: v for m, v in msgs.items() if a in m}
        cand = candidate_set(scheme, a, known)
        assert cand.words.shape[0] <= order ** lengths.k_sums()[a - 1]
        checked += 1


def test_candidate_set_user1_injective():
    field = Field(2)
    lengths = lengths_l3()
    t, cols, scheme = compiled(field, lengths)
    rng = stream(8, "inj")
    msgs = random_messages(field, lengths, rng)
    known = {m: v for m, v in msgs.items() if 1 in m}
    cand = candidate_set(scheme, 1, known)
    assert cand.words.shape[0] == field.order ** lengths.k_sums()[0]


def test_candidate_set_capability_bound():
    field = Field(2)
    lengths = SymbolLengths(3, {(1,): 21, (2,): 21, (3,): 21})
    _, lengths = reindex_users(lengths)
    t, cols = built(lengths)
    with pytest.raises(CapabilityError):
        compile_scheme(field, t, cols)


def test_compile_scheme_keeps_no_table_of_enumerated_vectors():
    # User 1 has 2^20 unknown assignments.  The scheme keeps its image (20 MiB
    # of uint8) and no keys or witnesses (8 MiB of int64 each); a table of the
    # assignments themselves would add 160 MiB of int64.  Keying the image to
    # check injectivity must not widen it whole to int64 either, which would
    # be another 160 MiB at the peak.
    _, lengths = reindex_users(SymbolLengths(3, {(2,): 7, (3,): 7, (2, 3): 6}))
    t, cols = built(lengths)
    tracemalloc.start()
    try:
        scheme = compile_scheme(Field(2), t, cols)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scheme.users[0].image.shape == (2**20, 20)
    assert held < 24 * 2**20
    assert peak <= 1.6 * held


def test_codebook_lazy_and_deterministic():
    cb1 = DownlinkCodebook(np.array([0.5, 0.5]), 32, 99)
    cb2 = DownlinkCodebook(np.array([0.5, 0.5]), 32, 99)
    u = np.array([1, 0, 1])
    assert np.array_equal(cb1.codeword(u), cb2.codeword(u))
    assert not np.array_equal(cb1.codeword(u), cb1.codeword(np.array([0, 0, 1])))
    with pytest.raises(ValueError):
        DownlinkCodebook(np.array([[0.5, 0.5]]), 32, 99)


def test_user_decode_noiseless_identity():
    field = Field(2)
    lengths = lengths_l3()
    t, cols, scheme = compiled(field, lengths)
    down = identity_downlink(3, 2)
    rng = stream(8, "ud")
    msgs = random_messages(field, lengths, rng)
    truth = relay_word(scheme, msgs)
    cb = DownlinkCodebook(np.array([0.5, 0.5]), 64, 3)
    x0 = cb.codeword(truth)
    for a in (1, 2, 3):
        known = {m: v for m, v in msgs.items() if a in m}
        cand = candidate_set(scheme, a, known)
        got = user_decode_word(x0, cb, cand, down, a)
        assert np.array_equal(cand.words[got], truth)


def test_user_decode_ties_go_to_the_smallest_candidate():
    # With n_dl = 3 binary symbols, many candidate words share a codeword;
    # on the identity downlink they all score 0, and the decoder must
    # return the first of them in span order, as the per-candidate loop does.
    field = Field(2)
    lengths = lengths_l3()
    t, cols, scheme = compiled(field, lengths)
    down = identity_downlink(3, 2)
    rng = stream(8, "ud-ties")
    tied = 0
    for trial in range(10):
        msgs = random_messages(field, lengths, rng)
        cb = DownlinkCodebook(np.array([0.5, 0.5]), 3, trial)
        y = cb.codeword(relay_word(scheme, msgs))
        for a in (1, 2, 3):
            cand = candidate_set(scheme, a, {m: v for m, v in msgs.items() if a in m})
            got = user_decode_word(y, cb, cand, down, a)
            want = ref_user_decode(y, cb, cand.words, down.channel(a))
            assert np.array_equal(cand.words[got], want)
            tied += sum(np.array_equal(cb.codeword(w), y) for w in cand.words) > 1
    assert tied >= 10


def test_users_break_ties_to_the_first_span_row_as_the_relay_does():
    # Row j is the assignment with big-endian index j, so ties go to the
    # smallest assignment index, as at the relay, and not to the smallest word.
    field = Field(2)
    # Users 2 and 3 have 8 and 16 candidates of the 32 five-bit relay words.
    _, lengths = reindex_users(SymbolLengths(3, {(1,): 1, (2,): 2, (3,): 2, (1, 2): 1, (2, 3): 1}))
    t, cols, scheme = compiled(field, lengths)
    msgs = random_messages(field, lengths, stream(8, "tie-rule"))
    width = relay_word(scheme, msgs).size
    cb = DownlinkCodebook(np.array([0.5, 0.5]), 64, 5)
    down = identity_downlink(3, 2)
    not_smallest = 0
    for a in (2, 3):
        known = {m: v for m, v in msgs.items() if a in m}
        cand = candidate_set(scheme, a, known)
        members = {tuple(w) for w in cand.words.tolist()}
        assert len(members) < 2**width
        outside = next(w for w in all_vectors(2, width) if tuple(w.tolist()) not in members)
        # The broadcast word is no candidate: every row has probability 0.
        y = cb.codeword(outside)
        assert not np.any(np.all(cb.codeword(cand.words) == y, axis=-1))
        row = user_decode_word(y, cb, cand, down, a)
        assert row == 0
        rec = recover_messages(scheme, a, row)
        assert all(not v.any() for v in rec.values())
        zeros = {m: np.zeros(lengths.k[m], dtype=np.int64) for m in rec}
        assert np.array_equal(cand.words[0], ref_relay_word(field, {**known, **zeros}, t, cols))
        not_smallest += cand.words[0].tolist() != min(cand.words.tolist())
    assert not_smallest > 0  # the smallest-word rule would decide otherwise
    # On a BSC downlink, the row is the first exact maximum in assignment order.
    down = bsc_downlink(3, 0.2)
    lengths = lengths_l3()
    t, cols, scheme = compiled(field, lengths)
    rng = stream(8, "tie-rule-bsc")
    differs = 0
    for trial in range(10):
        msgs = random_messages(field, lengths, rng)
        cb = DownlinkCodebook(np.array([0.5, 0.5]), 3, trial)
        x0 = cb.codeword(relay_word(scheme, msgs))
        for a in (1, 2, 3):
            known = {m: v for m, v in msgs.items() if a in m}
            cand = candidate_set(scheme, a, known)
            y = sample_downlink(down, a, x0, rng.random(x0.shape))
            row = user_decode_word(y, cb, cand, down, a)
            oracle = brute_force_words(field, a, known, t, cols)
            want = ref_user_decode(y, cb, np.array(oracle), down.channel(a))
            assert row == oracle.index(tuple(want.tolist()))
            smallest = ref_user_decode(y, cb, np.array(sorted(oracle)), down.channel(a))
            differs += not np.array_equal(want, smallest)
    assert differs > 0  # the smallest-word rule would decide otherwise


def test_user_decode_breaks_joint_type_ties_exactly():
    # w's entries are 0.8 and 0.1, and 0.8 = 8 x 0.1 in floats, so codewords
    # with as many pairs (x, y) of probability 0.8 tie exactly, whatever
    # their joint types.  Stacked and single, the decoder returns the exact
    # oracle's first maximum.
    field = Field(2)
    t, cols, scheme = compiled(field, lengths_l3())
    w = np.array([[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])
    down = DownlinkSpec(2, (w,) * 3)
    rng = stream(8, "joint-type-ties")
    trials, n_dl, tied = 8, 7, 0
    for _ in range(5):
        msgs = [random_messages(field, lengths_l3(), rng) for _ in range(trials)]
        stacked = {m: np.stack([mm[m] for mm in msgs]) for m in msgs[0]}
        keys = rng.integers(0, 2**64, size=trials, dtype=np.uint64)
        cb = DownlinkCodebook(np.array([0.5, 0.5]), n_dl, keys)
        x0 = cb.codeword(relay_word(scheme, stacked))
        for a in (1, 2, 3):
            known = {m: v for m, v in stacked.items() if a in m}
            cand = candidate_set(scheme, a, known)
            y = sample_downlink(down, a, x0, rng.random(x0.shape))
            got = user_decode_word(y, cb, cand, down, a)
            for i in range(trials):
                cb_i = DownlinkCodebook(np.array([0.5, 0.5]), n_dl, keys[i])
                want = ref_user_decode(y[i], cb_i, cand.words[i], w)
                assert np.array_equal(cand.words[i, got[i]], want)
                single = candidate_set(scheme, a, {m: v[i] for m, v in known.items()})
                row = user_decode_word(y[i], cb_i, single, down, a)
                assert np.array_equal(single.words[row], want)
                # Likelihood 0.1^n_dl 8^N: the rows with the most 0.8 pairs
                # tie, and count when they have more than one joint type.
                rows = cb_i.codeword(cand.words[i])
                strong = np.sum(w[rows, y[i]] == 0.8, axis=-1)
                best = rows[strong == strong.max()].tolist()
                tied += len({tuple(sorted(zip(r, y[i].tolist()))) for r in best}) > 1
    assert tied >= 20


def test_user_decode_single_candidate():
    field = Field(2)
    lengths = SymbolLengths(2, {(1,): 1, (2,): 1})
    t, cols = built(lengths)
    down = identity_downlink(2, 2)
    msgs = {(1,): np.array([1]), (2,): np.array([0]), (1, 2): np.zeros(0, dtype=np.int64)}
    cb = DownlinkCodebook(np.array([0.5, 0.5]), 16, 4)
    # user 2 knows W2 and W12; with k1 = 1 there are two candidates, but
    # collapse the unknown by zeroing its length
    t1, cols1, scheme1 = compiled(field, SymbolLengths(2, {(2,): 1}))
    known = {(2,): np.array([1]), (1, 2): np.zeros(0, dtype=np.int64), (1,): np.zeros(0, dtype=np.int64)}
    cand = candidate_set(scheme1, 2, known)
    assert cand.words.shape[0] == 1
    assert user_decode_word(np.zeros(16, dtype=np.int64), cb, cand, down, 2) == 0
    wide = DownlinkCodebook(np.full(3, 1 / 3), 16, 4)
    with pytest.raises(ValueError):
        user_decode_word(np.zeros(16, dtype=np.int64), wide, cand, down, 2)


def test_recover_messages_round_trip_and_negative_control():
    rng = stream(8, "recover")
    for order in (2, 3, 4):
        field = Field(order)
        for _ in range(25):
            num_users = int(rng.integers(2, 5))
            lengths = SymbolLengths(
                num_users, {m: int(rng.integers(0, 3)) for m in message_ids(num_users)}
            )
            _, lengths = reindex_users(lengths)
            t, cols, scheme = compiled(field, lengths)
            msgs = random_messages(field, lengths, rng)
            truth = relay_word(scheme, msgs)
            for a in range(1, num_users + 1):
                known = {m: v for m, v in msgs.items() if a in m}
                cand = candidate_set(scheme, a, known)
                rec = recover_messages(scheme, a, row_of(cand, truth))
                assert set(rec) == {m for m in message_ids(num_users) if a not in m}
                for m, v in rec.items():
                    assert np.array_equal(v, msgs[m]), (a, m)
            if t.total_cols:
                corrupted = truth.copy()
                corrupted[0] = field.add(int(corrupted[0]), 1)
                cand = candidate_set(scheme, 1, {m: v for m, v in msgs.items() if 1 in m})
                rec = recover_messages(scheme, 1, row_of(cand, corrupted))
                assert any(not np.array_equal(rec[m], msgs[m]) for m in rec)


def test_l2_user2_subtracts_own_message():
    field = Field(2)
    lengths = SymbolLengths(2, {(1,): 2, (2,): 2})
    t, cols, scheme = compiled(field, lengths)
    msgs = {(1,): np.array([1, 0]), (2,): np.array([1, 1]), (1, 2): np.zeros(0, dtype=np.int64)}
    word = relay_word(scheme, msgs)
    assert np.array_equal(word, field.add(msgs[(1,)], msgs[(2,)]))
    cand = candidate_set(scheme, 2, {(2,): msgs[(2,)], (1, 2): msgs[(1, 2)]})
    rec = recover_messages(scheme, 2, row_of(cand, word))
    assert np.array_equal(rec[(1,)], msgs[(1,)])


def test_dither_invariance_of_zero_noise_result():
    field = Field(2)
    up = UplinkSpec(field, np.array([1.0, 0.0]))
    lengths = lengths_l3()
    t, cols, scheme = compiled(field, lengths)
    msgs = random_messages(field, lengths, stream(8, "dm"))
    outs = []
    for seed in (1, 2, 3):
        codes = drawn_codes(t, 2 * t.total_cols, field, stream(seed, "dith"))[1][0]
        noise = sample_uplink_noise(up, stream(seed, "n").random(2 * t.total_cols))
        outs.append(uplink_round(scheme, msgs, codes, up, noise))
    assert all(np.array_equal(o, outs[0]) for o in outs)


def bsc_downlink(num_users, q):
    w = np.array([[1 - q, q], [q, 1 - q]])
    return DownlinkSpec(2, (w,) * num_users)


def test_compiled_path_matches_reference_loops_on_bsc_downlinks():
    # Same codebook rows, noisy downlinks: the stacked type-count decoder and
    # recovery from the decoded row agree with the per-candidate loop and elimination.
    for order in (2, 3, 4):
        field = Field(order)
        rng = stream(8, "compiled-vs-reference", order)
        wrong = checked = 0
        while checked < 60:
            num_users = int(rng.integers(2, 5))
            lengths = SymbolLengths(
                num_users, {m: int(rng.integers(0, 3)) for m in message_ids(num_users)}
            )
            _, lengths = reindex_users(lengths)
            if order ** max(lengths.k_sums()) > 256:
                continue
            t, cols, scheme = compiled(field, lengths)
            msgs = random_messages(field, lengths, rng)
            truth = ref_relay_word(field, msgs, t, cols)
            assert np.array_equal(relay_word(scheme, msgs), truth)
            cb = DownlinkCodebook(np.array([0.5, 0.5]), 6, int(rng.integers(0, 2**62)))
            down = bsc_downlink(num_users, 0.2)
            x0 = cb.codeword(truth)
            for a in range(1, num_users + 1):
                known = {m: v for m, v in msgs.items() if a in m}
                cand = candidate_set(scheme, a, known)
                y = sample_downlink(down, a, x0, rng.random(x0.shape))
                row = user_decode_word(y, cb, cand, down, a)
                got = cand.words[row]
                assert np.array_equal(got, ref_user_decode(y, cb, cand.words, down.channel(a)))
                rec = recover_messages(scheme, a, row)
                ref = ref_recover_messages(field, a, got, known, t, cols)
                assert set(rec) == set(ref)
                for m in rec:
                    assert np.array_equal(rec[m], ref[m]), (order, a, m)
                wrong += not np.array_equal(got, truth)
                checked += 1
        assert wrong > 0  # the downlink is noisy enough to exercise wrong decodes


def test_codeword_stack_matches_single_rows():
    cb = DownlinkCodebook(np.array([0.25, 0.25, 0.5]), 40, 17)
    words = all_vectors(3, 3)
    rows = cb.codeword(words)
    assert rows.shape == (27, 40)
    for i, w in enumerate(words):
        assert np.array_equal(rows[i], cb.codeword(w))
    # distinct words, distinct rows; another seed, another codebook
    assert len({r.tobytes() for r in rows}) == 27
    other = DownlinkCodebook(np.array([0.25, 0.25, 0.5]), 40, 18).codeword(words)
    assert not np.array_equal(rows, other)
    assert cb.codeword(np.zeros(0, dtype=np.int64)).shape == (40,)


def test_codeword_symbol_frequencies_follow_a_nonuniform_input_dist():
    dist = np.array([0.55, 0.3, 0.0, 0.15])
    cb = DownlinkCodebook(dist, 400, 5)
    rows = cb.codeword(all_vectors(2, 8))
    counts = np.bincount(rows.ravel(), minlength=4)
    total = rows.size
    assert counts[2] == 0  # a zero-probability symbol is never drawn
    for x in (0, 1, 3):
        sigma = np.sqrt(total * dist[x] * (1 - dist[x]))
        assert abs(counts[x] - total * dist[x]) < 4 * sigma, (x, counts)
    # per position too: each column is its own counter
    col0 = np.bincount(rows[:, 0], minlength=4) / rows.shape[0]
    assert np.all(np.abs(col0 - dist) < 0.15)


def test_shared_arrays_are_read_only():
    field = Field(3)
    _, _, scheme = compiled(field, lengths_l3())
    drawn, (by_hand,) = drawn_stack(Field(9), 1, 2, 4, stream(8, "span"), (1,))
    shared = [drawn.words, by_hand.span(Field(9)), scheme.relay, scheme.func]
    for user in scheme.users:
        shared += [user.image, user.r_known]
    for arr in shared:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1
    # callers get copies they may write
    msgs = random_messages(field, lengths_l3(), stream(8, "ro"))
    cand = candidate_set(scheme, 2, {m: v for m, v in msgs.items() if 2 in m})
    rec = recover_messages(scheme, 2, row_of(cand, relay_word(scheme, msgs)))
    rec[(1,)][0] = 0


def test_stacked_calls_equal_per_trial_calls():
    # A leading trial axis on every input gives each trial's single-call result.
    trials = 5
    for order in (2, 3, 4):
        field = Field(order)
        up = UplinkSpec(field, np.array([0.7] + [0.3 / (order - 1)] * (order - 1)))
        down = bsc_downlink(3, 0.2)
        t, cols, scheme = compiled(field, lengths_l3())
        rng = stream(8, "stacked", order)
        msgs = [random_messages(field, lengths_l3(), rng) for _ in range(trials)]
        stacked_codes, codes = drawn_codes(t, 2 * t.total_cols, field, rng, trials)
        noise = [sample_uplink_noise(up, rng.random(2 * t.total_cols)) for _ in range(trials)]
        keys = rng.integers(0, 2**64, size=trials, dtype=np.uint64)
        uniforms = rng.random((trials, 6))
        stacked = {m: np.stack([mm[m] for mm in msgs]) for m in msgs[0]}
        words = uplink_round(scheme, stacked, stacked_codes, up, np.stack(noise))
        cb = DownlinkCodebook(np.array([0.5, 0.5]), 6, keys)
        x0 = cb.codeword(words)
        for i in range(trials):
            assert np.array_equal(words[i], uplink_round(scheme, msgs[i], codes[i], up, noise[i]))
            assert np.array_equal(
                x0[i], DownlinkCodebook(np.array([0.5, 0.5]), 6, keys[i]).codeword(words[i])
            )
        for a in range(1, 4):
            known = {m: v for m, v in stacked.items() if a in m}
            cand = candidate_set(scheme, a, known)
            y = sample_downlink(down, a, x0, uniforms)
            got = user_decode_word(y, cb, cand, down, a)
            rec = recover_messages(scheme, a, got)
            for i in range(trials):
                known_i = {m: v[i] for m, v in known.items()}
                cand_i = candidate_set(scheme, a, known_i)
                assert np.array_equal(cand.words[i], cand_i.words)
                cb_i = DownlinkCodebook(np.array([0.5, 0.5]), 6, keys[i])
                assert np.array_equal(cb.codeword(cand.words)[i], cb_i.codeword(cand_i.words))
                assert np.array_equal(y[i], sample_downlink(down, a, x0[i], uniforms[i]))
                got_i = user_decode_word(y[i], cb_i, cand_i, down, a)
                assert got[i] == got_i
                rec_i = recover_messages(scheme, a, got_i)
                assert all(np.array_equal(rec[m][i], rec_i[m]) for m in rec_i)


def ref_draws(n_dl, key, word):
    """The documented codebook hash in Python integers: position t's uniform m 2^-53."""
    mult = [splitmix((key + GAMMA * (j + 1)) & MASK) | 1 for j in range(len(word))]
    return ref_uniforms(splitmix((key + sum((int(w) + 1) * m for w, m in zip(word, mult))) & MASK), n_dl)


def ref_codeword(dist, n_dl, key, word):
    """The hash's uniforms through the inverse-CDF oracle."""
    return [ref_inverse_cdf(dist, u) for u in ref_draws(n_dl, key, word)]


def test_codeword_matches_the_hash_computed_in_python_integers():
    rng = stream(8, "codeword-ref")
    for dist in ([0.5, 0.5], [0.25, 0.25, 0.5], [0.55, 0.3, 0.0, 0.15], [0.2, 0.8, 0.0], [1.0, 0.0]):
        keys = rng.integers(0, 2**64, size=3, dtype=np.uint64)
        words = rng.integers(0, 4, size=(3, 4, 5))
        rows = DownlinkCodebook(np.array(dist), 24, keys).codeword(words)
        for i, key in enumerate(keys):
            for j, word in enumerate(words[i]):
                assert rows[i, j].tolist() == ref_codeword(dist, 24, int(key), word)


def test_codeword_matches_the_inverse_cdf_oracle_on_steps_and_short_rows():
    rng = stream(8, "codeword-oracle")
    key, word = int(rng.integers(0, 2**64, dtype=np.uint64)), rng.integers(0, 4, 5)
    draws = ref_draws(6, key, word)
    # A step set to a draw itself, or one ulp either side; zeros in the middle and at the end.
    for t, u in enumerate(draws):
        for c in (np.nextafter(u, 0.0), u, np.nextafter(u, 1.0)):
            dist = [c, 0.0, 1.0 - c, 0.0]
            rows = DownlinkCodebook(np.array(dist), 6, key).codeword(word)
            assert rows.tolist() == ref_codeword(dist, 6, key, word)
            assert rows[t] == (0 if u <= c else 2)
    # Rows summing to 1 - 1e-13, a stack of keys and words.
    keys = rng.integers(0, 2**64, size=3, dtype=np.uint64)
    words = rng.integers(0, 4, size=(3, 4, 5))
    for dist in oracle_laws(8).tolist():
        rows = DownlinkCodebook(np.array(dist), 24, keys).codeword(words)
        for i, key in enumerate(keys):
            for j, word in enumerate(words[i]):
                assert rows[i, j].tolist() == ref_codeword(dist, 24, int(key), word)
