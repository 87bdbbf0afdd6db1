"""Two-phase feature pipeline: per-shard WFT ranges, a global range reduction,
then per-series first-order landscapes on the shared grid.

Shards can compute their local ranges independently and in parallel, but
the landscape grid is defined by the minimum and maximum transform values
across ALL series, so an explicit all-shards reduction sits between the
two phases.  Without it, shards would build features on inconsistent
grids and the rows would not be comparable.

A landscape depends only on the min and max of the series' transform, so
each series is transformed once: `build_features` turns the (mins, maxs)
arrays of `local_ranges` into the shard's features, a plain (n, L)
float64 array, with `tda.tent_rows`.  A shard's (n, T) level matrix goes
to `fast_wft_batch` in zero-padded chunks of at most _CHUNK_ROWS series,
which it transforms exactly with two matrix products (see `wft`).  Both
phases work on arrays only; one series is a one-row level matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .tda import landscape_grid, tent_rows
from .wft import fast_wft_batch, next_pow2

DEFAULT_LANDSCAPE_LENGTH = 100
_CHUNK_ROWS = 64  # series per transform call in local_ranges


@dataclass(frozen=True)
class GlobalRange:
    """Minimum and maximum WFT values across all series of the dataset."""

    D_min: float
    D_max: float

    def __post_init__(self):
        if self.D_min > self.D_max:
            raise ValueError("D_min must not exceed D_max")


def local_ranges(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mins, maxs) of the WFT coefficients of every row of an (n, T) level
    matrix, in row order.

    Rows are copied _CHUNK_ROWS at a time into one reused buffer of the
    levels' dtype whose zero padding is written once, and each chunk's
    coefficients are released before the next is transformed, so no
    (n, T2) matrix is built and one chunk's coefficients are live at a time.
    """
    levels = np.asarray(levels)
    if levels.ndim != 2 or not len(levels):
        raise ValueError("shard must be a non-empty (n, T) level matrix")
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


def reduce_global_range(pairs: Iterable[tuple[np.ndarray, np.ndarray]]) -> GlobalRange:
    """Combine per-shard (mins, maxs) arrays into the global (D_min, D_max)."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no ranges to reduce")
    return GlobalRange(
        D_min=float(min(mins.min() for mins, _ in pairs)),
        D_max=float(max(maxs.max() for _, maxs in pairs)),
    )


def build_features(
    ranges: tuple[np.ndarray, np.ndarray],
    global_range: GlobalRange,
    length: int = DEFAULT_LANDSCAPE_LENGTH,
) -> np.ndarray:
    """Length-`length` landscape of every series on the global grid: the
    shard's (n, length) float64 feature matrix, rows in the shard's series
    order, as `tda.tent_rows` aligns it.

    ranges is the shard's `local_ranges` result; no transform runs here.
    Raises ValueError if any series range falls outside the global range,
    which signals a stale reduction.
    """
    mins, maxs = ranges
    if not len(mins):
        raise ValueError("shard must not be empty")
    grid = landscape_grid(global_range.D_min, global_range.D_max, length)
    if mins.min() < global_range.D_min or maxs.max() > global_range.D_max:
        raise ValueError("series range outside the global range; recompute the reduction")
    return tent_rows(grid, mins, maxs)
