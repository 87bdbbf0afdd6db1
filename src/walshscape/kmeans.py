"""Lloyd's K-means over landscape vectors with uniform-range initialization.

Used both by the shard workers (points are a shard's (n, L) float64
feature array, one landscape per series) and by the coordinator's
consensus step (points are the workers' centroids); it imports no other
module of the package.  Everything is deterministic given the seed:
initial centroid components are drawn independently from
Uniform(columnwise min, columnwise max), distance ties resolve to the
lowest cluster index, and empty clusters are reseeded to the point
farthest from its current centroid.

Every point counts once.  A pass assigns rows from the BLAS product
f_ij = |x_i|^2 + |c_j|^2 - 2 x_i.c_j, in row blocks of at most 2^18 terms,
which OpenBLAS runs on one thread (idle OpenBLAS threads spin, taking cores
from the socket transport's other workers).  Row i takes the argmin j* of
f only when every other f_ij exceeds f_ij* by m_i = 16 (L+4) 2^-53 (|x_i| +
max_j |c_j|)^2 + (L+4) 2^-1022.  f and the direct distance sum((x_i -
c_j)^2) each lie within gamma_{L+3} (|x_i| + |c_j|)^2 of the true squared
distance (Higham 2002, section 3.1), so a gap above four times that bound
gives both the same argmin; m_i is about four times larger again, and its
last term covers underflow.  Other rows (near-ties, non-finite f or m) take
their direct argmin, so labels never depend on the product's rounding or
threads.  Means are recomputed only for clusters whose members changed
(the same rows in the same order give the same bits), WCSS only when read,
and the whole periods of an exact pass cycle left in the budget are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    arr = np.asarray(points)  # an object that is no array, a CentroidSet say, is 0-D
    if arr.ndim != 2:
        raise ValueError("points must form a 2-D matrix")
    if not len(arr):
        raise ValueError("points must not be empty")
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("points must be finite")
    return arr


def init_uniform(points, k: int, seed: int) -> CentroidSet:
    """Draw K centroids componentwise uniform on [column min, column max]."""
    x = _as_points(points)
    if k < 1:
        raise ValueError("K must be at least 1")
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return CentroidSet(centroids=rng.uniform(lo, hi, size=(k, x.shape[1])))


def _nearest(x: np.ndarray, xx: np.ndarray, c: np.ndarray) -> np.ndarray:
    """0-based nearest centroid of every row, ties to the lowest index (see above)."""
    with np.errstate(over="ignore", invalid="ignore"):  # such rows go direct
        cc = np.einsum("ij,ij->i", c, c)
        rows = max(1, 2**18 // c.size)  # one OpenBLAS thread per product (see above)
        f = np.concatenate([(-2.0 * c) @ x[i:i + rows].T for i in range(0, len(x), rows)], axis=1)  # (K, n)
        f += xx + cc[:, None]
        labels = f.argmin(axis=0)
        margin = (x.shape[1] + 4) * (16 * 2.0**-53 * (np.sqrt(xx) + np.sqrt(cc.max())) ** 2 + 2.0**-1022)
        bound = f.min(axis=0) + margin
        f[labels, np.arange(len(x))] = np.inf
        unsure = np.flatnonzero(~(f.min(axis=0) > bound))  # the runner-up is not clear of the margin
    if len(unsure):
        xs = x[unsure]
        labels[unsure] = np.stack([((xs - cj) ** 2).sum(axis=1) for cj in c], axis=1).argmin(axis=1)
    return labels


def lloyd(
    points,
    init: CentroidSet,
    max_iters: int = DEFAULT_KMEANS_ITERS,
    on_iteration: Callable[[float], None] | None = None,
) -> tuple[Assignment, CentroidSet]:
    """Alternate nearest-centroid assignment and mean updates until labels stabilize.

    Args:
        points: (n, L) array of finite feature vectors (a shard's features), n >= 1.
        init: starting centroids; K >= 1 and L are taken from it.
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
    if not len(c):
        raise ValueError("K must be at least 1")

    xx = np.einsum("ij,ij->i", x, x)
    history: list[float] = []  # WCSS of every pass, kept only for the callback
    seen: dict[bytes, int] = {}  # raw bytes of (c, labels_prev) -> first pass
    labels_prev = np.full(len(x), -1)  # no cluster before the first pass
    it = 0
    while True:
        first = seen.setdefault(c.tobytes() + labels_prev.tobytes(), it)
        period = it - first  # > 0: an exact cycle; after one skip, none is left to skip
        skipped = (max_iters - 1 - it) // period * period if period else 0
        if on_iteration is not None:
            for s in range(skipped):
                on_iteration(history[first + s % period])
        it += skipped
        labels = _nearest(x, xx, c)
        moved = labels != labels_prev
        done = it == max_iters - 1 or not moved.any()
        if on_iteration is not None or done:  # the bits of the summed row minima of direct distances
            wcss = float(((x - c[labels]) ** 2).sum(axis=1).sum())
            if on_iteration is not None:
                history.append(wcss)
                on_iteration(wcss)
        if done:
            break  # converged, or budget spent: centroids stay consistent with this assignment

        # a cluster with the member set of its last update keeps its mean's bits
        counts = np.bincount(labels, minlength=len(c))
        for j in set(labels[moved].tolist()) | set(labels_prev[moved].tolist()):
            if j >= 0 and counts[j]:
                c[j] = np.add.reduce(x[labels == j], axis=0) / counts[j]  # the bits of .mean(axis=0)
        if not counts.all():
            dist_to_own = ((x - c[labels]) ** 2).sum(axis=1)
            for j in np.flatnonzero(counts == 0):
                far = int(dist_to_own.argmax())
                c[j] = x[far]
                dist_to_own[far] = -np.inf  # one reseed per point
        labels_prev = labels
        it += 1

    return Assignment(labels=labels + 1, wcss=wcss), CentroidSet(centroids=c)

