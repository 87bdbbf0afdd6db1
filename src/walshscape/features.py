"""Two-phase feature pipeline: per-shard WFT ranges, a global range reduction,
then per-series first-order landscapes on the shared grid.

Shards can compute their local ranges independently and in parallel, but
the landscape grid is defined by the minimum and maximum transform values
across ALL series, so an explicit all-shards reduction sits between the
two phases.  Without it, shards would build features on inconsistent
grids and the rows would not be comparable.

A landscape depends only on the min and max of the series' transform, so
each series is transformed once: `build_features` turns the (mins, maxs)
arrays of `local_ranges` into rows with `tda.tent_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .series import CategoricalSeries
from .tda import landscape_grid, tent_rows
from .wft import fast_wft_batch, next_pow2

DEFAULT_LANDSCAPE_LENGTH = 100


@dataclass(frozen=True)
class GlobalRange:
    """Minimum and maximum WFT values across all series of the dataset."""

    D_min: float
    D_max: float

    def __post_init__(self):
        if self.D_min > self.D_max:
            raise ValueError("D_min must not exceed D_max")


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-series landscapes of one shard, rows in the shard's series order."""

    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=np.float64))
        if self.rows.ndim != 2:
            raise ValueError("rows must be a 2-D matrix")

    @property
    def L(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return len(self.rows)


def _padded_matrix(shard: Sequence[CategoricalSeries]) -> np.ndarray:
    t = len(shard[0].values)
    t2 = next_pow2(t)
    out = np.zeros((len(shard), t2), dtype=np.float64)
    for i, s in enumerate(shard):
        out[i, :t] = s.values
    return out


def local_ranges(shard: Sequence[CategoricalSeries]) -> tuple[np.ndarray, np.ndarray]:
    """(mins, maxs) of every series' WFT coefficients, in shard order."""
    if not len(shard):
        raise ValueError("shard must not be empty")
    coeffs = fast_wft_batch(_padded_matrix(shard))
    return coeffs.min(axis=1), coeffs.max(axis=1)


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
) -> FeatureMatrix:
    """Length-`length` landscape of every series on the global grid.

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
    return FeatureMatrix(rows=tent_rows(grid, mins, maxs))


def save_feature_csv(matrix: FeatureMatrix, path) -> None:
    """Dump landscape rows for audit; row order is the shard's series order."""
    np.savetxt(path, matrix.rows, fmt="%.17g", delimiter=",")
