"""Walsh functions and the fast Walsh-Fourier transform (WFT).

Walsh functions are piecewise-constant +/-1 functions on dyadic
sub-intervals.  They are generated here by a multiplicative iteration:

    W(0, j) = 1
    W(1, j) = +1 for j < T2/2, -1 otherwise
    W(t, j) = W([t/2], 2j) * W(t - 2[t/2], j)

where [a] is the integer part and the doubled sequency argument 2j is
taken modulo T2 (the iteration does not define out-of-range sequencies;
the modulo interpretation yields an orthogonal +/-1 system, which the
test suite verifies exactly for T2 <= 256).

The transform of a length-T2 vector x (T2 a power of two) is

    d(j) = (1/sqrt(T2)) * sum_t x[t] * W(t, j),    j = 0..T2-1.

Write W_n for the table of order n and T2 = p*q with p and q powers of two.
Sylvester's construction H_T2 = H_p (x) H_q, read through the bit-reversed
sequency index, gives W_T2(a*q + b, e*p + c) = W_p(a, c) * W_q(b, e) for
a, c < p and b, e < q.  Both kernels of `fast_wft_batch`, the one
transform, read this identity; it takes series zero-padded to T2, one per
row, and the feature pipeline keeps each row's min and max only.

With q = 2 the identity is a butterfly of log2(T2) stages (Manz 1972): each
stage adds and subtracts neighbouring samples and stores every sum before
every difference, so the last stage leaves the row in sequency order with
no permutation.  Floats, and integers at or above the bound below, run it.

Integer input (category levels) whose bound max|x| * T2 is below 2**24
takes an exact path with p = 2**(n_bits // 2).  A row x reshaped to a (p, q)
matrix X has the coefficient e*p + c at [c, e] of W_p^T X W_q, and as every
Walsh table is symmetric, D = W_p X W_q holds it there: the transpose of D
is the row in sequency order.  W_p and W_q are the butterfly applied to
identity matrices.  Two float32 BLAS products per row block then write the
result with no gather.  Every product and partial sum is an integer of
magnitude at most max|x| * T2, which float32 holds exactly, so the
coefficients are exact whatever order BLAS adds in and equal the float64
butterfly's bit for bit; the division by sqrt(T2) that follows is the same
float64 division on both paths.  A zero sum is +0.0 on both paths: row 0
and column 0 of W are all +1, so each sum of either product holds a +0.0 or
a nonzero term.  `walsh_value` and `walsh_matrix` evaluate the iteration
itself: they are the test oracles of both kernels, and no package function
calls them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_BLOCK_ELEMENTS = 1 << 14  # levels per pair of matrix products in fast_wft_batch


def next_pow2(t: int) -> int:
    """Smallest power of two >= t (e.g. 1440 -> 2048)."""
    if t < 1:
        raise ValueError("length must be positive")
    return 1 << (int(t) - 1).bit_length()


def is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def walsh_value(t: int, j: int, t2: int) -> int:
    """Value in {-1, +1} of the t-th Walsh function at sequency index j.

    Literal evaluation of the generating iteration; the doubled sequency
    argument is reduced modulo t2.  Used as the ground truth for the
    butterfly implementation.
    """
    if not is_pow2(t2):
        raise ValueError("t2 must be a power of two")
    if not (0 <= t < t2 and 0 <= j < t2):
        raise IndexError("t and j must lie in [0, t2)")
    if t == 0:
        return 1
    if t == 1:
        return 1 if j < t2 // 2 else -1
    return walsh_value(t // 2, (2 * j) % t2, t2) * walsh_value(t - 2 * (t // 2), j, t2)


def walsh_matrix(t2: int) -> np.ndarray:
    """Full (t2, t2) table W[t, j] of Walsh function values.

    Built row by row from the same iteration as `walsh_value`, vectorized
    over j.  Returns an int64 matrix of +/-1 so orthogonality checks are
    exact integer arithmetic.
    """
    if not is_pow2(t2):
        raise ValueError("t2 must be a power of two")
    w = np.empty((t2, t2), dtype=np.int64)
    w[0] = 1
    if t2 == 1:
        return w
    w[1, : t2 // 2] = 1
    w[1, t2 // 2 :] = -1
    doubled = (2 * np.arange(t2)) % t2
    for t in range(2, t2):
        w[t] = w[t // 2][doubled] * w[t % 2]
    return w


def _butterfly(values: np.ndarray) -> np.ndarray:
    """Unnormalized float64 transform along the last axis, in sequency order
    and C-ordered: the identity of the module docstring with q = 2, once per bit."""
    a = np.asarray(values, dtype=np.float64)[..., None, :]  # (..., coefficients fixed, samples left)
    while (left := a.shape[-1]) > 1:
        pairs = a.reshape(a.shape[:-1] + (left // 2, 2))
        out = np.empty(a.shape[:-1] + (2, left // 2))
        np.add(pairs[..., 0], pairs[..., 1], out=out[..., 0, :])
        np.subtract(pairs[..., 0], pairs[..., 1], out=out[..., 1, :])
        a = out.reshape(a.shape[:-2] + (2 * a.shape[-2], left // 2))
    return a.reshape(a.shape[:-1])


@lru_cache(maxsize=32)
def _sequency_factors(n_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(W_p, W_q) for T2 = 2**n_bits = p * q with p = 2**(n_bits // 2): the
    Walsh tables of orders p and q (see the module docstring) as read-only,
    C-ordered float32 copies; every entry is +/-1, so float32 holds it."""
    p_bits = n_bits // 2
    left, right = (_butterfly(np.eye(1 << bits)).astype(np.float32) for bits in (p_bits, n_bits - p_bits))
    left.setflags(write=False)
    right.setflags(write=False)
    return left, right


def _float32_exact(matrix: np.ndarray) -> bool:
    """Whether float32 holds every partial sum of an integer matrix's transform exactly."""
    if not np.issubdtype(matrix.dtype, np.integer):
        return False
    # Python ints: np.abs of int64's minimum would overflow
    return max(-int(matrix.min(initial=0)), int(matrix.max(initial=0))) * matrix.shape[-1] < 2**24


def fast_wft_batch(matrix: np.ndarray) -> np.ndarray:
    """Row-wise transform of an (n, T2) matrix of zero-padded series:
    out[i, j] = (1/sqrt(T2)) * sum_t matrix[i, t] * W(t, j), T2 a power of
    two.  One series x is the row of x[None].

    An integer matrix whose bound max|x| * T2 is below 2**24 is transformed
    exactly as W_p X W_q by two float32 matrix products per block of at most
    _BLOCK_ELEMENTS levels (see the module docstring), bit-identical to the
    butterfly that every other matrix runs.
    """
    matrix = np.asarray(matrix)
    t2 = matrix.shape[-1]
    if not is_pow2(t2):
        raise ValueError(f"length {t2} is not a power of two")
    n_bits = t2.bit_length() - 1
    if not _float32_exact(matrix):
        return np.divide(_butterfly(matrix), np.sqrt(t2), dtype=np.float64)
    left, right = _sequency_factors(n_bits)
    p, q = len(left), len(right)
    rows = matrix.reshape(-1, t2)
    out = np.empty(rows.shape, dtype=np.float64)
    step, scale = max(1, _BLOCK_ELEMENTS // t2), np.sqrt(t2)
    for start in range(0, len(rows), step):
        x = rows[start : start + step].astype(np.float32).reshape(-1, p, q)
        d = np.matmul(np.matmul(left, x), right)
        # a contiguous row slice, so the reshape is a view the division writes through
        block = out[start : start + step].reshape(-1, q, p)
        np.divide(d.transpose(0, 2, 1), scale, out=block, dtype=np.float64)
        del x, d  # so the next block's temporaries are not allocated beside these
    return out.reshape(matrix.shape)

