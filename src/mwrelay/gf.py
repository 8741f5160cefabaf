"""Exact arithmetic and linear algebra over finite fields GF(p^m).

Field elements are plain integers in [0, F) whose base-p digits are the
coefficients of a polynomial over GF(p); multiplication is carried out
modulo a monic irreducible reduction polynomial of degree m.  A
:class:`Field` holds the reduction polynomial and, for every element e,
the m-by-m GF(p) matrix of multiplication by e, through which matrix
products and (for m > 1) element products go.  All arithmetic is exact
integer arithmetic on digits reduced mod p: ``mat_mul`` is one int64
product, and ``span``, the one enumerator, lists a code's F^k words by
additions alone, in big-endian index order, up to ``ENUMERATION_LIMIT``;
``span_index`` and ``span_vectors`` map a vector to that index and back.
Rank and linear solves eliminate over GF(p) on the digit expansion of a
matrix, where the statuses and solutions are those over GF(p^m).  Every
operation takes the field explicitly, so element values themselves stay
context-free ints (or numpy integer arrays).

Vectors are 1-D numpy arrays, matrices 2-D numpy arrays, both with
entries in [0, F).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


#: Largest candidate enumeration any exact-ML step will attempt.
ENUMERATION_LIMIT = 2**20


class FieldSpecError(ValueError):
    """Raised for an invalid field specification."""


class CapabilityError(RuntimeError):
    """A requested instance exceeds the desk-scale enumeration bounds."""


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    a = _poly_trim(list(a))
    dm = len(mod) - 1
    lead_inv = pow(mod[-1], -1, p)
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        factor = (a[-1] * lead_inv) % p
        for i, mi in enumerate(mod):
            a[shift + i] = (a[shift + i] - factor * mi) % p
        a = _poly_trim(a)
    return a


def _int_to_poly(v: int, p: int) -> list[int]:
    out = []
    while v:
        out.append(v % p)
        v //= p
    return out


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        # Monic degree-d polynomials enumerated by their low-coefficient part.
        for low in range(p**d):
            divisor = _int_to_poly(low, p) + [0] * d
            divisor = divisor[:d] + [1]
            if not _poly_mod(poly, divisor, p):
                return False
    return True


def default_reduction_poly(p: int, m: int) -> tuple[int, ...]:
    """Smallest monic irreducible degree-m polynomial over GF(p).

    "Smallest" orders polynomials by their packed integer value
    sum(c_i * p^i); coefficients are ascending, constant term first.
    """
    for low in range(p**m):
        cand = _int_to_poly(low, p) + [0] * m
        cand = cand[:m] + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise FieldSpecError(f"no irreducible polynomial of degree {m} over GF({p})")


@dataclass
class LinearSolution:
    """Outcome of solving A x = b over a field."""

    status: str  # "unique" | "inconsistent" | "underdetermined"
    x: np.ndarray | None = None


class Field:
    """The finite field GF(p^m) of order F = p^m.

    Parameters
    ----------
    order : int
        Field size F; must be a prime power.
    reduction_poly : sequence of int, optional
        m+1 base-p digits of a monic irreducible polynomial, constant
        term first.  Defaults to the smallest irreducible for m > 1 and
        is ignored for prime fields.
    """

    def __init__(self, order: int, reduction_poly=None):
        if order < 2:
            raise FieldSpecError("field order must be at least 2")
        p = _smallest_prime_factor(order)
        m = 0
        n = order
        while n > 1:
            if n % p:
                raise FieldSpecError(f"{order} is not a prime power")
            n //= p
            m += 1
        self.order = order
        self.p = p
        self.m = m
        if m == 1:
            self.reduction_poly = None
        else:
            if reduction_poly is None:
                self.reduction_poly = default_reduction_poly(p, m)
            else:
                poly = tuple(int(c) % p for c in reduction_poly)
                if len(poly) != m + 1 or poly[-1] != 1:
                    raise FieldSpecError(
                        f"reduction polynomial must be monic of degree {m} (got {poly})"
                    )
                if not _is_irreducible(list(poly), p):
                    raise FieldSpecError(f"reduction polynomial {poly} is reducible over GF({p})")
                self.reduction_poly = poly
        self._powers = p ** np.arange(m, dtype=np.int64)
        # reps[e] is the m-by-m GF(p) matrix M with digits(x*e) = digits(x) @ M
        # (mod p): row r holds the digits of e * x^r, the row before shifted
        # up one power and reduced by x^m = -(c_0 + ... + c_{m-1} x^(m-1)).
        rows = [self.digits(np.arange(order))]
        for _ in range(m - 1):
            prev = rows[-1]
            shifted = np.concatenate([np.zeros_like(prev[:, :1]), prev[:, :-1]], axis=1)
            rows.append((shifted - prev[:, -1:] * np.array(self.reduction_poly[:-1])) % p)
        self._reps = np.stack(rows, axis=1)
        self._reps.setflags(write=False)

    # -- element arithmetic ----------------------------------------------------

    def _element(self, d: np.ndarray, *operands):
        """Element(s) from digits ``d`` (over GF(p), the elements) mod p; int for scalar operands."""
        out = d % self.p if self.m == 1 else self.from_digits(d % self.p)
        return out if any(isinstance(x, np.ndarray) for x in operands) else int(out)

    def _digitwise(self, op, *operands):
        """``op`` digit by digit, mod p; over a prime field, on the elements widened to int64."""
        lift = self.digits if self.m > 1 else (lambda x: np.asarray(x, dtype=np.int64))
        return self._element(op(*map(lift, operands)), *operands)

    def add(self, a, b):
        """Digit-wise addition mod p (works on ints and integer arrays)."""
        return a ^ b if self.p == 2 else self._digitwise(np.add, a, b)

    def sub(self, a, b):
        return a ^ b if self.p == 2 else self._digitwise(np.subtract, a, b)

    def mul(self, a, b):
        """Product through b's multiplication matrix, digits(a) @ reps[b]; a * b mod p over GF(p)."""
        if self.m == 1:
            return self._digitwise(np.multiply, a, b)
        d = np.matmul(self.digits(a)[..., None, :], self._reps[np.asarray(b, dtype=np.int64)])
        return self._element(d[..., 0, :], a, b)

    # -- digit representation ---------------------------------------------------

    def digits(self, a) -> np.ndarray:
        """Base-p digits of element(s), ascending power, shape (..., m)."""
        a = np.asarray(a, dtype=np.int64)
        return (a[..., None] // self._powers) % self.p

    def from_digits(self, d: np.ndarray):
        """Element(s) from base-p digits in [0, p) on the last axis, by Horner's rule."""
        d = np.asarray(d, dtype=np.int64)
        out = d[..., -1].copy()
        for i in range(self.m - 2, -1, -1):
            out *= self.p
            out += d[..., i]
        return out

    def expand_matrix(self, a: np.ndarray) -> np.ndarray:
        """GF(p)-linear expansion of right multiplication by matrix ``a``.

        Returns a (rows*m, cols*m) integer matrix E with
        digit_rows(u @ a) = digit_rows(u) @ E (mod p); a (..., rows, cols)
        stack gives a stack of expansions.
        """
        a = np.asarray(a, dtype=np.int64)
        *lead, rows, cols = a.shape
        e = np.swapaxes(self._reps[a], -3, -2)
        return e.reshape(*lead, rows * self.m, cols * self.m)

    def digit_rows(self, v: np.ndarray) -> np.ndarray:
        """(..., k) elements -> (..., k*m) GF(p) digit rows."""
        v = np.asarray(v, dtype=np.int64)
        return self.digits(v).reshape(*v.shape[:-1], v.shape[-1] * self.m)

    def rows_from_digits(self, d: np.ndarray) -> np.ndarray:
        return self.from_digits(d.reshape(*d.shape[:-1], d.shape[-1] // self.m, self.m))

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and other.order == self.order
            and other.reduction_poly == self.reduction_poly
        )

    def __hash__(self):
        return hash((self.order, self.reduction_poly))

    def __repr__(self):
        if self.reduction_poly is None:
            return f"Field({self.order})"
        return f"Field({self.order}, reduction_poly={list(self.reduction_poly)})"


# -- linear algebra ------------------------------------------------------------


def mat_mul(field: Field, u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """u @ g over the field, with numpy's matmul shapes.

    ``u`` is a row vector or a (..., B, k) stack of row vectors, ``g`` a
    (k, n) matrix or a (..., k, n) stack of them; leading axes broadcast.
    One int64 product of the GF(p) digit expansions, reduced mod p (over a
    prime field, of the elements themselves).  Each dot product is at most
    k*m*(p-1)^2, so the product is exact while that is below 2^63; past it,
    ``ValueError``.
    """
    u = np.asarray(u, dtype=np.int64)
    g = np.asarray(g, dtype=np.int64)
    if u.ndim < 1 or g.ndim < 2 or u.shape[-1] != g.shape[-2]:
        raise ValueError(f"dimension mismatch: u has {u.shape}, G has {g.shape}")
    k = g.shape[-2]
    if k * field.m * (field.p - 1) ** 2 >= 2**63:
        raise ValueError(f"a length-{k} product over {field!r} can exceed int64")
    if field.m == 1:
        return (u @ g) % field.p
    return field.rows_from_digits((field.digit_rows(u) @ field.expand_matrix(g)) % field.p)


def span(field: Field, g: np.ndarray, positions_major: bool = False) -> np.ndarray:
    """All F^k words u g of a (..., k, n) generator stack, u big-endian: (..., F^k, n).

    Row i is u g for the u whose big-endian index is i; ``positions_major``
    returns them as the columns of an (..., n, F^k) array.  Past ``ENUMERATION_LIMIT``
    words it raises ``CapabilityError`` before allocating.  Rows last to first,
    W <- c g_r + W for each c in F adds in the smallest unsigned dtype holding F - 1,
    broadcast through a unit axis after c's and one before W's words, in either layout.
    """
    *lead, k, n = g.shape
    if field.order**k > ENUMERATION_LIMIT:
        raise CapabilityError(
            f"enumerating {field.order}^{k} candidates exceeds the 2^20 desk-scale bound;"
            f" shrink the message lengths"
        )
    dtype = np.min_scalar_type(field.order - 1)
    multiples = field.mul(g[..., None], np.arange(field.order)).astype(dtype)[..., None]
    multiples = multiples if positions_major else np.moveaxis(multiples, -3, -1)
    shape = (*lead, n, 1, -1) if positions_major else (*lead, 1, -1, n)
    words = np.zeros((*lead, n, 1, 1) if positions_major else (*lead, 1, 1, n), dtype=dtype)
    for r in range(k - 1, -1, -1):
        words = field.add(multiples[..., r, :, :, :], words).reshape(shape)
    return np.squeeze(words, -2 if positions_major else -3).astype(dtype, copy=False)


def span_index(field: Field, words: np.ndarray) -> np.ndarray:
    """Big-endian index of each vector u on the last axis; row index(u) of a span is u g.

    (..., n) -> (...).  Indices run to F^n - 1; past 2^63 - 1 they do not
    fit in int64, so ``ValueError``.  The sum runs in buffered blocks, so
    narrow words are never copied whole to int64.
    """
    if field.order ** words.shape[-1] - 1 > 2**63 - 1:
        raise ValueError(f"length-{words.shape[-1]} vectors over {field!r} overflow an int64 index")
    powers = field.order ** np.arange(words.shape[-1] - 1, -1, -1, dtype=np.int64)
    return np.einsum("...n,n->...", words, powers, dtype=np.int64)


def span_vectors(field: Field, index: np.ndarray, k: int) -> np.ndarray:
    """The length-k vectors with big-endian ``index``, (...) -> (..., k); inverts ``span_index``."""
    index = np.asarray(index, dtype=np.int64)[..., None]
    return index // field.order ** np.arange(k - 1, -1, -1, dtype=np.int64) % field.order


def _eliminate(p: int, m: np.ndarray) -> list[int]:
    """In-place reduced row echelon form over GF(p); returns the pivot columns."""
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hit = np.nonzero(m[r:, c])[0]
        if hit.size == 0:
            continue
        pr = r + int(hit[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        m[others] = (m[others] - m[others, c][:, None] * m[r]) % p
        pivots.append(c)
        r += 1
    return pivots


def rank(field: Field, a: np.ndarray) -> int:
    """Rank over GF(p^m): the GF(p) rank of the digit expansion, over m."""
    a = np.asarray(a, dtype=np.int64)
    if a.size == 0:
        return 0
    return len(_eliminate(field.p, field.expand_matrix(a))) // field.m


def solve_linear(field: Field, a: np.ndarray, b: np.ndarray) -> LinearSolution:
    """Solve a x = b by Gaussian elimination over GF(p).

    a x = b is digits(x) @ expand_matrix(a.T) = digits(b), a GF(p) system
    in bijection with the original, so its status and solution carry
    over.  Returns the unique solution when it exists, otherwise
    classifies the system as inconsistent or underdetermined.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: A has {a.shape}, b has {b.shape}")
    cols = a.shape[1] * field.m
    aug = np.concatenate([field.expand_matrix(a.T).T, field.digits(b).reshape(-1, 1)], axis=1)
    pivots = _eliminate(field.p, aug)
    if cols in pivots:
        return LinearSolution("inconsistent")
    if len(pivots) < cols:
        return LinearSolution("underdetermined")
    return LinearSolution("unique", field.from_digits(aug[:cols, cols].reshape(-1, field.m)))


def random_matrix(field: Field, rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Matrix with i.i.d. uniform field entries drawn from ``rng``."""
    return rng.integers(0, field.order, size=(rows, cols), dtype=np.int64)
