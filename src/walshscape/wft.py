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

    d(j) = (1/sqrt(T2)) * sum_t x[t] * W(t, j),    j = 0..T2-1,

computed in O(T2 log T2) by a butterfly: the iteration above is exactly
the natural (Hadamard) ordered transform with bit-reversed sequency
indexing, so we run the standard in-place butterfly and then apply the
bit-reversal permutation.  The equivalence is validated against the
iteration itself in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class WftVector:
    """Walsh-Fourier transform of one (zero-padded) series.

    coeffs[j] is the coefficient at sequency j/T2.  T2 is the padded
    length (the least power of two >= t_original).
    """

    coeffs: np.ndarray
    T2: int
    t_original: int

    def __post_init__(self):
        if len(self.coeffs) != self.T2:
            raise ValueError("coefficient length does not match T2")
        if next_pow2(self.t_original) != self.T2:
            raise ValueError("T2 is not the least power of two >= t_original")


@dataclass(frozen=True)
class SeriesRange:
    """Componentwise minimum and maximum of one WFT vector."""

    d_min: float
    d_max: float

    def __post_init__(self):
        if self.d_min > self.d_max:
            raise ValueError("d_min must not exceed d_max")


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


@lru_cache(maxsize=32)
def _bit_reversal(n_bits: int) -> np.ndarray:
    idx = np.arange(1 << n_bits, dtype=np.int64)
    rev = np.zeros_like(idx)
    for b in range(n_bits):
        rev |= ((idx >> b) & 1) << (n_bits - 1 - b)
    rev.setflags(write=False)
    return rev


def _fwht_natural(values: np.ndarray) -> np.ndarray:
    """Unnormalized natural(Hadamard)-ordered transform along the last axis."""
    a = np.array(values, dtype=np.float64, copy=True)
    n = a.shape[-1]
    h = 1
    while h < n:
        a = a.reshape(a.shape[:-1] + (n // (2 * h), 2, h))
        x, y = a[..., 0, :], a[..., 1, :]
        a[..., 0, :], a[..., 1, :] = x + y, x - y  # both sums exist before either write
        a = a.reshape(a.shape[:-3] + (n,))
        h *= 2
    return a


def zero_pad(values, length: int | None = None) -> np.ndarray:
    """Zero-pad a series on the right to `length` (default: next power of two)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D series")
    if length is None:
        length = next_pow2(len(arr))
    if length < len(arr) or not is_pow2(length):
        raise ValueError("pad length must be a power of two >= series length")
    out = np.zeros(length, dtype=np.float64)
    out[: len(arr)] = arr
    return out


def fast_wft(values, t_original: int | None = None) -> WftVector:
    """Fast Walsh-Fourier transform of an already padded series.

    Args:
        values: real sequence whose length T2 is a power of two, with
            zero padding already applied beyond the original length.
        t_original: pre-padding length (defaults to T2).

    Returns:
        WftVector with coeffs[j] = (1/sqrt(T2)) * sum_t values[t] * W(t, j).
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D series")
    t2 = len(arr)
    if not is_pow2(t2):
        raise ValueError(f"length {t2} is not a power of two")
    coeffs = fast_wft_batch(arr[None, :])[0]
    return WftVector(coeffs=coeffs, T2=t2, t_original=t2 if t_original is None else t_original)


def fast_wft_batch(matrix: np.ndarray) -> np.ndarray:
    """Row-wise transform of an (n, T2) matrix; same math as `fast_wft`."""
    matrix = np.asarray(matrix, dtype=np.float64)
    t2 = matrix.shape[-1]
    if not is_pow2(t2):
        raise ValueError(f"length {t2} is not a power of two")
    n_bits = t2.bit_length() - 1
    transformed = _fwht_natural(matrix)
    return transformed[..., _bit_reversal(n_bits)] / np.sqrt(t2)


def series_range(v: WftVector) -> SeriesRange:
    """Componentwise min and max of the WFT coefficients."""
    return SeriesRange(d_min=float(np.min(v.coeffs)), d_max=float(np.max(v.coeffs)))
