"""Channel models and information measures.

The uplink adds field-valued noise to the field sum of the user inputs;
the downlink is one discrete memoryless channel per user, described by
its row-stochastic transition matrix.  Only the per-user marginals enter
any rate expression or decoding rule, so the downlink is stored (and
sampled) as conditionally independent marginals given the relay input.

All logarithms are base 2; rates and entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .gf import Field

PMF_TOL = 1e-12


def validate_pmf(pmf: np.ndarray, what: str = "pmf") -> np.ndarray:
    """``pmf`` as a float array whose last axis holds probability vectors."""
    pmf = np.asarray(pmf, dtype=np.float64)
    if pmf.ndim == 0 or pmf.size == 0:
        raise ValueError(f"{what} must be a nonempty array")
    if (pmf < 0).any():
        raise ValueError(f"{what} has negative entries")
    sums = pmf.sum(axis=-1)
    if (abs(sums - 1.0) > PMF_TOL).any():
        raise ValueError(f"{what} sums to {sums.tolist()!r}, not 1")
    return pmf


@dataclass
class UplinkSpec:
    """Additive-noise uplink over a finite field."""

    field: Field
    noise_pmf: np.ndarray

    def __post_init__(self):
        self.noise_pmf = validate_pmf(self.noise_pmf, "noise_pmf")
        if self.noise_pmf.shape != (self.field.order,):
            raise ValueError(f"noise pmf shape {self.noise_pmf.shape} is not ({self.field.order},)")
        self._steps = cdf_steps(self.noise_pmf)


@dataclass
class DownlinkSpec:
    """Per-user DMCs from the relay input to each user's output."""

    input_size: int
    user_channels: tuple[np.ndarray, ...] = dc_field(default=())

    def __post_init__(self):
        if self.input_size < 1:
            raise ValueError("downlink input alphabet must be nonempty")
        chans = []
        for a, w in enumerate(self.user_channels, start=1):
            w = np.asarray(w, dtype=np.float64)
            if w.ndim != 2 or w.shape[0] != self.input_size:
                raise ValueError(f"user {a} channel matrix must have {self.input_size} rows")
            chans.append(validate_pmf(w, f"user {a} channel matrix"))
        self.user_channels = tuple(chans)
        self._steps = tuple(cdf_steps(w) for w in chans)

    @property
    def num_users(self) -> int:
        return len(self.user_channels)

    def channel(self, a: int) -> np.ndarray:
        """Transition matrix of user ``a`` (1-based)."""
        return self.user_channels[self._user(a)]

    def _user(self, a: int) -> int:
        if not 1 <= a <= self.num_users:
            raise ValueError(f"no such user {a}")
        return a - 1


def identity_downlink(num_users: int, alphabet: int = 2) -> DownlinkSpec:
    """Noiseless downlink where every user observes the relay input."""
    eye = np.eye(alphabet)
    return DownlinkSpec(alphabet, tuple(eye for _ in range(num_users)))


def neg_entropy(w: np.ndarray) -> np.ndarray:
    """sum w log2 w over the last axis, with 0*log(0) = 0."""
    w = np.asarray(w, dtype=np.float64)
    return (w * np.log2(w, out=np.zeros(w.shape), where=w > 0)).sum(axis=-1)


def entropy(pmf: np.ndarray) -> float:
    """Shannon entropy in bits of a 1-D pmf."""
    pmf = validate_pmf(pmf, "pmf")
    if pmf.ndim != 1:
        raise ValueError("pmf must be 1-D")
    return float(-neg_entropy(pmf))


def uplink_bound(up: UplinkSpec) -> float:
    """log2(F) minus the noise entropy: the uplink rate ceiling."""
    return float(np.log2(up.field.order)) - entropy(up.noise_pmf)


def mutual_info(dist: np.ndarray, w: np.ndarray) -> float:
    """I(X;Y) for input distribution ``dist`` and channel matrix ``w``."""
    dist = validate_pmf(dist, "input distribution")
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[:1] != dist.shape:
        raise ValueError(f"channel matrix shape {w.shape} does not match input size {dist.size}")
    out = dist @ w
    # np.sum, not a dot product: under 8 inputs it adds the terms in input order.
    return entropy(out / out.sum()) + float(np.sum(dist * neg_entropy(w)))


def most_likely(law: np.ndarray, index: np.ndarray) -> int | np.ndarray:
    """Exact ML: the first row of ``index`` maximizing prod_t law[index_t].

    ``law`` is a flat table of V probabilities, ``index`` a (C, n) integer
    array (giving an int) or a (..., C, n) stack (an index per stack).  A row
    scores s = sum_q N_q log q by its type, the count N_q of each probability
    q < 1 it holds (q = 0 scores -inf), one compare-and-sum over the positions
    per value, fastest on the swapaxes view of a positions-major array.

    Tie rule: every term is <= 0, so with u = 2^-53, rounded products and sum
    of at most V terms and log within 2^8 u, s is within rho |S| <=
    (V + 258) u |S| of the exact log-likelihood S.  An exact maximum a and the
    float maximum M = s_b have |S_a| <= |S_b|, so s_a >= M - 2 rho |M| / (1 - rho)
    >= M (1 + (V + 256) 2^-51).  Rows of one type score alike; where rows of
    several types reach that bound, the first with the largest prod_q q^N_q,
    the floats as exact rationals, wins, so impossible rows alone give row 0.
    """
    score, counts, dtype = np.zeros(index.shape[:-1]), {}, np.min_scalar_type(index.shape[-1])
    for v, p in enumerate(law.tolist()):
        if p < 1:  # a probability of 1 changes no likelihood; counts[q] holds each row's N_q
            c = np.add.reduce((index == v).view(np.uint8), -1, dtype)
            counts[p] = counts[p] + c if p in counts else c
    for p, c in counts.items():
        if p > 0:
            score += c * math.log(p)
        else:
            score[c > 0] = -np.inf
    best = score.argmax(axis=-1)
    near = score >= score.max(axis=-1, keepdims=True) * (1 + (law.size + 256) * 2.0**-51)
    if counts and np.count_nonzero(near) > best.size:  # some stack has two rows near its top
        best, near = np.asarray(best), near.reshape(-1, near.shape[-1])
        types = np.stack(list(counts.values()), axis=-1).reshape(*near.shape, len(counts))
        for s in np.flatnonzero(np.add.reduce(near, axis=-1) > 1):
            rows = np.flatnonzero(near[s])
            if (t := types[s, rows].tolist()).count(t[0]) < len(t):
                exact = [math.prod(Fraction(q) ** c for q, c in zip(counts, row)) for row in t]
                best.flat[s] = rows[exact.index(max(exact))]
    return int(best) if best.ndim == 0 else best


def sample_uplink_noise(up: UplinkSpec, u: np.ndarray) -> np.ndarray:
    """The noise symbols the drawn uniforms ``u`` in [0, 1) select, shaped like ``u``."""
    return inverse_cdf(up._steps, u)


def sample_downlink(down: DownlinkSpec, a: int, x0: np.ndarray, u: np.ndarray) -> np.ndarray:
    """User ``a``'s outputs for the relay inputs ``x0`` from drawn uniforms ``u`` of its shape."""
    return inverse_cdf(np.take(down._steps[down._user(a)], x0, axis=1), u)


def cdf_steps(w: np.ndarray) -> np.ndarray:
    """The CDF steps a uniform can pass, step axis first: (V,) -> (V - 1,), (X, V) -> (V - 1, X).

    Step j of a row is its running sum through symbol j; steps from its last positive-probability
    symbol on are +inf, so float roundoff in the sum never carries a draw past that symbol, and
    steps before its first one are -inf, so a draw of 0 never selects a symbol of probability 0.
    """
    w = w.T
    steps = np.cumsum(w[:-1], axis=0)
    steps[np.cumsum(w[:0:-1], axis=0)[::-1] == 0] = np.inf  # no probability after step j
    steps[steps == 0] = -np.inf  # none up to step j
    return steps


def inverse_cdf(steps: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The symbol each uniform in ``u`` selects: how many of its ``steps`` lie below it.

    Steps broadcast against ``u`` from the left, after the step axis; a
    uniform equal to a step selects that step's symbol.
    """
    steps = steps.reshape(steps.shape + (1,) * (np.ndim(u) + 1 - steps.ndim))
    return np.add.reduce(steps < u, axis=0, dtype=np.int64)
