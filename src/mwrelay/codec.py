"""Physical layer: uplink linear codes, relay sum decoding, downlink
random codebook with side-information decoding, and message recovery.

Uplink: per block, the block's owner transmits the block message and
user 1 transmits the block's function vector (built from the starred
cells); both use the same random generator matrix with independent
uniform dithers.  The relay decodes the field sum of the two message
vectors by exact maximum likelihood over all candidates, which is why
desk-scale bounds on F^k apply throughout.

The noise-free relay word is a fixed linear map of the message symbols.
``compile_scheme`` builds that map once per instance, together with
each user's enumerated image of the symbols it does not know.  Decoders
keep the index of a ``gf.span`` row, and ``gf.span_vectors`` turns it into digits.

Downlink: the relay indexes a counter-based random codebook by the
concatenated decoded sums and broadcasts the selected word; each user
restricts attention to the sum vectors consistent with its own
messages, kept in span order, and decodes a candidate row by exact
maximum likelihood.  The row is the witness: row j is the word of the
unknown messages' assignment with big-endian index j.  Ties go to the
first span row, as at the relay.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate

import numpy as np

from . import gf
from .channel import DownlinkSpec, UplinkSpec, cdf_steps, inverse_cdf, most_likely, validate_pmf
from .gf import ENUMERATION_LIMIT, CapabilityError, Field  # noqa: F401  (re-exported)
from .rng import _GAMMA, _splitmix, seed, stream, uniforms  # noqa: F401  (bench wraps codec.stream)
from .schedule import MessageTable, MsgId, message_ids
from .shuffle import ShuffleError, SimplifiedColumn

Messages = dict[MsgId, np.ndarray]


@dataclass
class BlockCode:
    """Shared generator matrix plus per-transmitter dithers for one block.

    A stack of codes, one per trial, holds a (T, k, n) generator and
    (T, n) dithers.  ``words`` caches the codewords, see ``span``.
    """

    k: int
    n: int
    generator: np.ndarray
    dithers: dict[int, np.ndarray]
    words: np.ndarray | None = None

    def span(self, field: Field) -> np.ndarray:
        """All F^k codewords, (..., n, F^k): column i is ``gf.span`` row i; made once, read-only."""
        if self.words is None:
            self.words = _frozen(gf.span(field, self.generator, positions_major=True))
        return self.words


def block_owner(block: MsgId) -> int:
    """The non-user-1 transmitter of a block: its smallest member."""
    return min(block)


def allocate_block_lengths(table: MessageTable, n: int) -> dict[MsgId, int]:
    """Channel uses per block, proportional to width, remainder to the last."""
    total = table.total_cols
    if total == 0:
        return {b.msg: 0 for b in table.blocks}
    if n < total:
        raise ValueError(f"n={n} is below the {total} aligned symbols to transmit")
    out = {}
    used = 0
    for b in table.blocks:
        out[b.msg] = n * b.width // total
        used += out[b.msg]
    last_positive = [b.msg for b in table.blocks if b.width > 0]
    if last_positive:
        out[last_positive[-1]] += n - used
    return out


def uniform_symbols(field: Field, u: np.ndarray) -> np.ndarray:
    """Uniform field symbols, int64: ``inverse_cdf`` on the uniform law, the one sampler of them.

    Exact to the 2^-53 grid of ``rng.uniforms``: each symbol has probability 1/F within a few 2^-53.
    """
    return inverse_cdf(np.cumsum(np.full(field.order - 1, 1 / field.order)), u)


def block_code(
    field: Field, generator: np.ndarray, dithers: dict[int, np.ndarray], seeds: np.ndarray, label: int
) -> tuple[BlockCode, int]:
    """A stack of rank-k codes from a (T, k, n) stack of uniform generators and (T, n) dithers.

    The stack is spanned in one ``gf.span``.  A generator whose span has a zero
    column besides 0 G (rank below k) is redrawn, and only those trials are: at
    attempt a, trial t's k n symbols come from ``rng.seed(seeds[t], label, a)``.
    Returns the code and the number of redraws.
    """
    generator, (_, k, n) = np.array(generator), generator.shape
    words, redraws, attempt = gf.span(field, generator, positions_major=True), 0, 0
    while (bad := np.flatnonzero(np.count_nonzero(~words.any(axis=-2), axis=-1) != 1)).size:
        attempt, redraws = attempt + 1, redraws + bad.size
        drawn = uniform_symbols(field, uniforms(seed(seeds[bad], label, attempt), k * n))
        generator[bad] = drawn.reshape(bad.size, k, n)
        words[bad] = gf.span(field, generator[bad], positions_major=True)
    return BlockCode(k, n, generator, dithers, _frozen(words)), redraws


def make_block_codes(
    table: MessageTable, n: int, field: Field, symbols: np.ndarray, seeds: np.ndarray
) -> tuple[dict[MsgId, BlockCode], int]:
    """Per-block rank-k codes for T trials, with dithers for the owner and user 1.

    ``symbols`` (T, .) holds each trial's uniform symbols, per block in block order
    a row-major (k + 2)-by-n array: the generator, the owner's and user 1's dithers.
    Block i redraws under label i.  Returns the codes and the redraw count.
    """
    lengths = allocate_block_lengths(table, n)
    codes, redraws, start = {}, 0, 0
    for i, b in enumerate(table.blocks):
        k, m = b.width, lengths[b.msg]
        s = symbols[:, start : start + (k + 2) * m].reshape(len(seeds), k + 2, m)
        dithers = {block_owner(b.msg): s[:, k], 1: s[:, k + 1]}
        codes[b.msg], r = block_code(field, s[:, :k], dithers, seeds, i)
        redraws, start = redraws + r, start + (k + 2) * m
    return codes, redraws


def encode_uplink(u: np.ndarray, code: BlockCode, transmitter: int, field: Field) -> np.ndarray:
    """Codeword u G plus the transmitter's dither; (T, k) messages for a stack of codes.

    The codeword is column index(u) of the code's span, so encoding needs no product.
    """
    u = np.asarray(u, dtype=np.int64)
    if u.shape[-1] != code.k:
        raise ValueError(f"message length {u.shape[-1]} != k={code.k}")
    keys = gf.span_index(field, u)
    # Column keys[t] of code t's span: an index for each leading axis, the positions, the key.
    word = code.span(field)[(*np.indices(keys.shape, sparse=True), slice(None), keys)]
    return field.add(word.astype(np.int64), code.dithers[transmitter])


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def relay_decode_sum(
    y0: np.ndarray, code: BlockCode, dither_sum: np.ndarray, up: UplinkSpec
) -> np.ndarray:
    """Exact ML estimate of the field sum of the two transmitted messages.

    The relay sees z = y0 minus the combined dither, so candidate codeword
    c has likelihood prod_t noise_pmf[e_t] for its noise pattern e = z - c,
    in the span's dtype and layout: XOR over GF(2^m), else the F x F
    difference table at z_t F + c_t.  ``most_likely`` scores the type of e
    and breaks ties exactly, to the smallest candidate in the big-endian
    integer encoding.  For a stack of codes, ``y0`` and ``dither_sum`` are
    (T, n) and the estimates (T, k).  The candidates are the code's span.
    """
    field = up.field
    y0 = np.asarray(y0, dtype=np.int64)
    if y0.shape[-1] != code.n:
        raise ValueError(f"received length {y0.shape[-1]} != n={code.n}")
    z = field.sub(y0, np.asarray(dither_sum, dtype=np.int64))[..., None]
    words = code.span(field)
    if field.p == 2:
        e = words ^ z.astype(words.dtype)
    else:
        diff = field.sub(*np.ogrid[: field.order, : field.order]).astype(words.dtype)
        index = (z * field.order).astype(np.min_scalar_type(field.order**2 - 1))
        e = np.take(diff, np.add(words, index, dtype=index.dtype))
    return gf.span_vectors(field, most_likely(up.noise_pmf, e.swapaxes(-1, -2)), code.k)


def send_block(
    code: BlockCode, inputs: dict[int, np.ndarray], up: UplinkSpec, noise: np.ndarray
) -> np.ndarray:
    """One block over the noisy uplink: the relay's estimate of the input sum.

    ``inputs`` maps each transmitter to its message; each sends its
    dithered codeword, the channel adds the drawn ``noise``, and the relay
    decodes with the transmitters' dither sum.  A stack of codes takes
    (T, k) messages and (T, n) noise.
    """
    field = up.field
    y0 = noise
    for t, u in inputs.items():
        y0 = field.add(y0, encode_uplink(u, code, t, field))
    return relay_decode_sum(y0, code, reduce(field.add, [code.dithers[t] for t in inputs]), up)


# -- the compiled relay map ------------------------------------------------------


@dataclass(frozen=True)
class UserMap:
    """User ``a``'s split of the relay map into known and unknown rows.

    ``image`` is the ``gf.span`` of the unknown symbols' rows (concatenated
    in ``unknown`` order), so row j is the word of the assignment with
    big-endian index j.  The arrays are shared by every trial and read-only.
    """

    known: tuple[MsgId, ...]
    unknown: tuple[MsgId, ...]
    r_known: np.ndarray
    image: np.ndarray


@dataclass(frozen=True)
class Scheme:
    """The relay word as one GF(p)-linear map of the message symbols.

    Message symbols are concatenated in ``ids`` order.  ``relay`` maps
    them to the noise-free relay word: per block, the block message plus
    user 1's function vector.  ``func`` maps them to the function vectors
    alone.  ``users[a - 1]`` is user ``a``'s view.
    """

    field: Field
    table: MessageTable
    ids: tuple[MsgId, ...]
    relay: np.ndarray
    func: np.ndarray
    users: tuple[UserMap, ...]


def _symbols(messages: Messages, ids) -> np.ndarray:
    """Message vectors, or (T, k) stacks of them, concatenated in ``ids`` order."""
    return np.concatenate([np.asarray(messages[m], dtype=np.int64) for m in ids], axis=-1)


def compile_scheme(field: Field, table: MessageTable, cols: list[SimplifiedColumn]) -> Scheme:
    """Build the relay map and every user's cached candidate image.

    A column with one starred symbol forwards that symbol; two equal
    symbols forward a single copy; two distinct symbols forward their
    field sum; an empty column forwards zero.  Raises ``CapabilityError``
    when a user's image exceeds the enumeration bound and
    ``ShuffleError`` when the word does not determine some user's
    unknown messages.
    """
    lengths = table.lengths
    ids = tuple(message_ids(table.num_users))
    first = dict(zip(ids, accumulate([lengths.k[m] for m in ids], initial=0)))

    def rows(msgs) -> list[int]:
        return [first[m] + i for m in msgs for i in range(lengths.k[m])]

    func = np.zeros((len(rows(ids)), table.total_cols), dtype=np.int64)
    for col in cols:
        for ref in col.entries():
            func[first[ref.msg] + ref.pos, col.index] = 1
    # Starred symbols all involve user 1 and block messages never do, so
    # the block messages' ones land on zeros.
    relay = func.copy()
    for b, at in table.block_offsets().items():
        relay[rows([b]), np.arange(at, at + lengths.k[b])] = 1
    users = []
    for a in range(1, table.num_users + 1):
        known = tuple(m for m in ids if a in m)
        unknown = tuple(m for m in ids if a not in m)
        image = gf.span(field, relay[rows(unknown)])
        keys = gf.span_index(field, image)
        keys.sort()
        if np.any(keys[1:] == keys[:-1]):
            raise ShuffleError(
                f"user {a}: the relay word does not determine its unknown messages;"
                f" shuffle guarantees violated"
            )
        users.append(UserMap(known, unknown, _frozen(relay[rows(known)]), _frozen(image)))
    return Scheme(field, table, ids, _frozen(relay), _frozen(func), tuple(users))


def relay_word(scheme: Scheme, messages: Messages) -> np.ndarray:
    """Noise-free relay word: per block, message plus function vector.

    Here and below, messages may be (T, k) stacks, one row per trial,
    and words are then (T, N).
    """
    return gf.mat_mul(scheme.field, _symbols(messages, scheme.ids), scheme.relay)


def build_v(scheme: Scheme, messages: Messages) -> np.ndarray:
    """User 1's function vectors, one symbol per column, in block order."""
    return gf.mat_mul(scheme.field, _symbols(messages, scheme.ids), scheme.func)


def uplink_round(
    scheme: Scheme,
    messages: Messages,
    codes: dict[MsgId, BlockCode],
    up: UplinkSpec,
    noise: np.ndarray,
) -> np.ndarray:
    """The relay's estimate of the concatenated block sums: one ``send_block`` a block.

    ``noise`` is the drawn uplink noise, (..., n): the blocks' noise
    concatenated in block order.
    """
    v = build_v(scheme, messages)
    out, start = [], 0
    for b, at in scheme.table.block_offsets().items():
        code = codes[b]
        inputs = {block_owner(b): messages[b], 1: v[..., at : at + code.k]}
        out.append(send_block(code, inputs, up, noise[..., start : start + code.n]))
        start += code.n
    return np.concatenate(out, axis=-1)


# -- downlink ---------------------------------------------------------------------


@dataclass
class CandidateSet:
    """Distinct relay words consistent with one user's prior messages.

    ``words`` is (C, N), or (T, C, N) for stacked messages, in span order:
    row j is the word of the unknown messages' assignment with big-endian
    index j, so a row is its own witness.
    """

    words: np.ndarray


def candidate_set(scheme: Scheme, a: int, known: Messages) -> CandidateSet:
    """The relay words user ``a`` cannot rule out a priori: u0 = known R_known plus its image."""
    user = scheme.users[a - 1]
    u0 = gf.mat_mul(scheme.field, _symbols(known, user.known), user.r_known)
    return CandidateSet(scheme.field.add(user.image, u0[..., None, :]))


class DownlinkCodebook:
    """Random codebook over the relay input alphabet, computed on demand.

    Entry ``u`` (a relay word) is an i.i.d. draw from the input
    distribution, deterministic in (key, u), where ``key`` is a 64-bit
    integer used as given.  A counter-based hash derives it (Salmon et
    al., SC'11).  A word's digits are absorbed as a sum of
    per-position odd multipliers, each a SplitMix64 output of the key and
    the position, and mixed into the word's seed; position t of the
    codeword is ``rng.uniforms`` of that seed at t, which
    ``channel.inverse_cdf`` maps to a symbol.
    Words that differ in one position never share a seed, and equal seeds
    give equal codewords, so a call hashes each distinct seed once.  A (T,)
    array of keys holds one codebook per trial.
    """

    def __init__(self, input_dist: np.ndarray, n_dl: int, key: int | np.ndarray):
        self.input_dist = validate_pmf(input_dist, "input distribution")
        if self.input_dist.ndim != 1:
            raise ValueError("input distribution must be 1-D")
        self.n_dl = int(n_dl)
        self.key = np.asarray(key, dtype=np.uint64)
        self._steps = cdf_steps(self.input_dist)
        self._dtype = np.min_scalar_type(self.input_dist.size - 1)

    def codeword(self, u: np.ndarray) -> np.ndarray:
        """The codeword of each word on the last axis of ``u``: (..., len) -> (..., n_dl).

        With T keys, the leading axis of ``u`` is the trial axis.  Symbols are
        of the narrowest unsigned type that holds the input alphabet.
        """
        words = np.asarray(u, dtype=np.int64).astype(np.uint64)
        # The key as an array of words.ndim axes keeps every uint64 product an
        # array operation, which wraps silently where a scalar one warns.
        key = self.key.reshape(self.key.shape + (1,) * (words.ndim - self.key.ndim))
        positions = np.arange(1, words.shape[-1] + 1, dtype=np.uint64)
        multipliers = _splitmix(key + _GAMMA * positions) | np.uint64(1)
        mixed = ((words + np.uint64(1)) * multipliers).sum(axis=-1, keepdims=True, dtype=np.uint64)
        seeds = _splitmix(key + mixed)[..., 0]
        # numpy 1.x returns the inverse flat, 2.x in the shape of seeds.
        distinct, inverse = np.unique(seeds, return_inverse=True)
        rows = inverse_cdf(self._steps, uniforms(distinct, self.n_dl)).astype(self._dtype)
        return rows[inverse.reshape(seeds.shape)]


def user_decode_word(
    y_a: np.ndarray, codewords: np.ndarray, down: DownlinkSpec, a: int
) -> int | np.ndarray:
    """The candidate row exact ML picks, by joint type with ``y_a``.

    ``codewords`` are the candidates' downlink codewords in span order, (C, n_dl),
    or (T, C, n_dl) with (T, n_dl) outputs.  Ties go to the first span row, the
    smallest assignment index, as at the relay.  An int, or a (T,) array of rows.
    """
    x, w = np.asarray(codewords), down.channel(a)
    if x.size and (x.min() < 0 or x.max() >= down.input_size):
        raise ValueError("a codeword symbol lies outside the downlink input alphabet")
    dtype = np.min_scalar_type(w.size - 1)
    index = np.multiply(x, w.shape[1], dtype=dtype, casting="unsafe")  # x |Y| + y, narrow
    np.add(index, np.asarray(y_a)[..., None, :], out=index, casting="unsafe")
    return most_likely(w.ravel(), index)


def recover_messages(scheme: Scheme, a: int, row: int | np.ndarray) -> Messages:
    """The messages user ``a`` lacks: the digits of its decoded candidate ``row``, per message."""
    user = scheme.users[a - 1]
    k = [scheme.table.lengths.k[m] for m in user.unknown]
    digits = gf.span_vectors(scheme.field, row, sum(k))
    return {m: digits[..., end - w : end] for m, w, end in zip(user.unknown, k, accumulate(k))}
