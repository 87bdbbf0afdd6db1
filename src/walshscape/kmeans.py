"""Lloyd's K-means over landscape vectors with uniform-range initialization.

Used both by the shard workers (points are per-series landscapes) and by
the coordinator's consensus step (points are the workers' centroids).
Everything is deterministic given the seed: initial centroid components
are drawn independently from Uniform(columnwise min, columnwise max),
distance ties resolve to the lowest cluster index, and empty clusters are
reseeded to the point farthest from its current centroid.

Every point counts once.  Each assignment pass works one cluster at a
time: K distance columns of length n, then one mean per non-empty
cluster, so no (n, K, L) temporary is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .features import FeatureMatrix

DEFAULT_KMEANS_ITERS = 1000


@dataclass(frozen=True)
class CentroidSet:
    """K centroid vectors of a common length."""

    centroids: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.centroids, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("centroids must form a 2-D matrix")
        if not np.all(np.isfinite(arr)):
            raise ValueError("centroids must be finite")
        object.__setattr__(self, "centroids", arr)

    @property
    def K(self) -> int:
        return self.centroids.shape[0]

    @property
    def L(self) -> int:
        return self.centroids.shape[1]


@dataclass(frozen=True)
class Assignment:
    """Cluster labels in 1..K and the within-cluster sum of squares."""

    labels: np.ndarray
    wcss: float

    def __post_init__(self):
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))


def _as_points(points) -> np.ndarray:
    if isinstance(points, FeatureMatrix):
        return points.rows
    if isinstance(points, CentroidSet):
        return points.centroids
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("points must form a 2-D matrix")
    return arr


def init_uniform(points, k: int, seed: int) -> CentroidSet:
    """Draw K centroids componentwise uniform on [column min, column max]."""
    x = _as_points(points)
    if k < 1:
        raise ValueError("K must be at least 1")
    if not len(x):
        raise ValueError("points must not be empty")
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return CentroidSet(centroids=rng.uniform(lo, hi, size=(k, x.shape[1])))


def lloyd(
    points,
    init: CentroidSet,
    max_iters: int = DEFAULT_KMEANS_ITERS,
    on_iteration: Callable[[float], None] | None = None,
) -> tuple[Assignment, CentroidSet]:
    """Alternate nearest-centroid assignment and mean updates until labels stabilize.

    Args:
        points: (n, L) matrix (or FeatureMatrix) of feature vectors.
        init: starting centroids; K and L are taken from it.
        max_iters: assignment-pass budget.
        on_iteration: optional callback receiving the WCSS of every
            assignment pass (the sequence is non-increasing).

    Returns:
        (Assignment, CentroidSet): labels in 1..K plus the centroids the
        final assignment was computed against.  Squared-Euclidean ties
        resolve to the lowest cluster index; a cluster left empty by an
        update is reseeded to the point with maximum distance to its
        current centroid (distinct points when several clusters empty at
        once, lowest cluster index repaired first).

    A cluster's mean adds its rows in row order.  At L = 1 numpy sums the
    one contiguous column pairwise instead, so centroids may differ from
    a row-order sum in the last bits; feature rows always have L >= 2.
    """
    x = _as_points(points)
    c = np.array(init.centroids, dtype=np.float64, copy=True)
    if x.shape[1] != c.shape[1]:
        raise ValueError(f"dimension mismatch: points have {x.shape[1]}, centroids {c.shape[1]}")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")

    labels_prev: np.ndarray | None = None
    for it in range(max_iters):
        d2 = np.stack([((x - cj) ** 2).sum(axis=1) for cj in c], axis=1)
        labels = d2.argmin(axis=1)
        wcss = float(d2.min(axis=1).sum())
        if on_iteration is not None:
            on_iteration(wcss)
        if labels_prev is not None and np.array_equal(labels, labels_prev):
            break
        labels_prev = labels
        if it == max_iters - 1:
            break  # budget spent; keep centroids consistent with this assignment

        empty = []
        for j in range(len(c)):
            members = labels == j
            if members.any():
                c[j] = x[members].mean(axis=0)
            else:
                empty.append(j)
        if empty:
            dist_to_own = ((x - c[labels]) ** 2).sum(axis=1)
            for j in empty:
                far = int(dist_to_own.argmax())
                c[j] = x[far]
                dist_to_own[far] = -np.inf  # one reseed per point

    return Assignment(labels=labels + 1, wcss=wcss), CentroidSet(centroids=c)


def wcss_total(per_shard) -> float:
    """Total within-cluster sum of squares: the sum of per-shard values."""
    values = np.asarray(list(per_shard), dtype=np.float64)
    if len(values) and values.min() < 0:
        raise ValueError("per-shard WCSS values must be non-negative")
    return float(values.sum())
