"""Two-phase feature pipeline: per-series WFT ranges, a global range reduction,
then per-series first-order landscapes on the shared grid.

A series' range depends on that series alone, so one pass computes every
range whatever the sharding, but the landscape grid is defined by the
minimum and maximum transform values across ALL series, so an explicit
all-shards reduction sits between the two phases.  Without it, shards
would build features on inconsistent grids and the rows would not be
comparable.

A landscape depends only on the min and max of the series' transform, so
each series is transformed once: `build_features` turns the (mins, maxs)
arrays of `local_ranges` into the shard's features, a plain (n, L)
float64 array, with `tda.tent_rows`.  An (n, T) level matrix goes
to `fast_wft_batch` in zero-padded chunks of at most _CHUNK_ROWS series,
which it transforms exactly with two matrix products (see `wft`).  Both
phases work on arrays only; one series is a one-row level matrix.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .tda import landscape_grid, tent_rows
from .wft import fast_wft_batch, next_pow2

DEFAULT_LANDSCAPE_LENGTH = 100
_CHUNK_ROWS = 64  # series per transform call in local_ranges


def local_ranges(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mins, maxs) of the WFT coefficients of every row of an (n, T) level
    matrix, in row order.  A row's pair depends on that row alone, so the
    pass over a whole dataset, indexed by a shard's row indices, gives the
    shard's pairs.

    Rows are copied _CHUNK_ROWS at a time into one reused buffer of the
    levels' dtype whose zero padding is written once, and each chunk's
    coefficients are released before the next is transformed, so no
    (n, T2) matrix is built and one chunk's coefficients are live at a time.
    """
    levels = np.asarray(levels)
    if levels.ndim != 2 or not len(levels):
        raise ValueError("levels must be a non-empty (n, T) matrix")
    n, t = levels.shape
    buf = np.zeros((min(n, _CHUNK_ROWS), next_pow2(t)), dtype=levels.dtype)
    mins, maxs = np.empty(n), np.empty(n)
    for start in range(0, n, _CHUNK_ROWS):
        chunk = levels[start : start + _CHUNK_ROWS]
        buf[: len(chunk), :t] = chunk
        coeffs = fast_wft_batch(buf[: len(chunk)])
        coeffs.min(axis=1, out=mins[start : start + len(chunk)])
        coeffs.max(axis=1, out=maxs[start : start + len(chunk)])
        del coeffs  # so the next chunk's transform does not allocate beside it
    return mins, maxs


def reduce_global_range(pairs: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[float, float]:
    """Combine per-shard (mins, maxs) arrays into the global (d_min, d_max) floats."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no ranges to reduce")
    return float(min(mins.min() for mins, _ in pairs)), float(max(maxs.max() for _, maxs in pairs))


def build_features(
    ranges: tuple[np.ndarray, np.ndarray],
    bounds: tuple[float, float],
    length: int = DEFAULT_LANDSCAPE_LENGTH,
) -> np.ndarray:
    """Length-`length` landscape of every series on the global grid: the
    shard's (n, length) float64 feature matrix, rows in the shard's series
    order, as `tda.tent_rows` aligns it.

    ranges is the shard's `local_ranges` result and bounds the global
    (d_min, d_max); no transform runs here.  Raises ValueError if a series
    range falls outside bounds, which signals a stale reduction.
    """
    mins, maxs = ranges
    d_min, d_max = bounds
    if not len(mins):
        raise ValueError("shard must not be empty")
    grid = landscape_grid(d_min, d_max, length)
    if mins.min() < d_min or maxs.max() > d_max:
        raise ValueError("series range outside the global range; recompute the reduction")
    return tent_rows(grid, mins, maxs)
