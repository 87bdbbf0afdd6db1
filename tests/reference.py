"""The reference pipeline: `run_dcc` rebuilt from the slow, plain oracles.

Each layer is the literal form of what the package computes fast: the
Walsh coefficients are exact int64 products with `walsh_matrix`, each
landscape comes from the series' `sublevel_persistence` diagram through
`landscape_from_diagram`, every K-means run is `oracle_lloyd` (an (n, K, L)
distance temporary, no product, no margin, no pass-cycle skip), and
`plain_run_rounds` runs every round of the budget, with no consensus-cycle
skip.  Only the shard plan, the seeds and the uniform starts are the
package's own.
`reference_run_dcc` must return what `run_dcc` returns bit for bit, the
two timers aside (`assert_equal_but_for_the_timers`).
"""

import dataclasses

import numpy as np

from walshscape import (
    Assignment,
    CentroidSet,
    ClusterResult,
    derive_seed,
    init_uniform,
    landscape_from_diagram,
    lloyd,
    make_shard_plan,
    next_pow2,
    sublevel_persistence,
    walsh_matrix,
)


def oracle_lloyd(points, init, max_iters=1000, on_iteration=None):
    """`lloyd` before the per-cluster pass, unweighted: the (n, K, L) distance
    temporary and `np.add.at` centroid sums.  Kept as the reference."""
    x = np.asarray(points, dtype=np.float64)
    c = np.array(init.centroids, dtype=np.float64, copy=True)
    k = len(c)
    n = len(x)
    labels_prev = None
    labels = np.zeros(n, dtype=np.int64)
    wcss = 0.0
    for it in range(max_iters):
        d2 = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        wcss = float(d2[np.arange(n), labels].sum())
        if on_iteration is not None:
            on_iteration(wcss)
        if labels_prev is not None and np.array_equal(labels, labels_prev):
            break
        labels_prev = labels
        if it == max_iters - 1:
            break

        sums = np.zeros_like(c)
        np.add.at(sums, labels, x)
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        filled = counts > 0
        c[filled] = sums[filled] / counts[filled, None]

        if not filled.all():
            dist_to_own = ((x - c[labels]) ** 2).sum(axis=1)
            for empty in np.flatnonzero(~filled):
                far = int(dist_to_own.argmax())
                c[empty] = x[far]
                dist_to_own[far] = -np.inf

    return Assignment(labels=labels + 1, wcss=wcss), CentroidSet(centroids=c)


def plain_run_rounds(matrices, k, seed, max_rounds, kmeans=lloyd):
    """The round loop with no cycle skip: every round of the budget runs until
    no worker's labels move.  Each worker and the coordinator cluster with
    `kmeans`; the coordinator orders its K centroids by the first stacked row
    each one takes.  The first repeat of two consecutive consensus sets is
    reported as (start, period), as `coordinate_rounds` finds it.  Returns
    what `dcc._run_rounds` returns, so it can stand in for it."""
    worker_seeds = [derive_seed(seed, wid) for wid in range(1, len(matrices) + 1)]
    master_seed = derive_seed(seed, 0)
    retained = [None] * len(matrices)
    consensus = None
    seen, cycle = {}, (None, None)
    for i in range(1, max_rounds + 1):
        reported, moved = [], False
        for w, x in enumerate(matrices):
            assignment, centroids = kmeans(x, init_uniform(x, k, worker_seeds[w]) if i == 1 else consensus)
            moved |= i == 1 or not np.array_equal(assignment.labels, retained[w].labels)
            retained[w] = assignment
            reported.append(centroids)
        if not moved:
            return retained, tuple(reported), consensus, i, True, *cycle
        stacked = np.vstack([c.centroids for c in reported])
        assignment, centroids = kmeans(stacked, init_uniform(stacked, k, master_seed))
        first_row = np.full(k, len(stacked))
        present, first = np.unique(assignment.labels, return_index=True)
        first_row[present - 1] = first
        previous, consensus = consensus, CentroidSet(centroids.centroids[np.argsort(first_row, kind="stable")])
        if previous is not None and cycle == (None, None):
            j = seen.setdefault(previous.centroids.tobytes() + consensus.centroids.tobytes(), i)
            if j < i:
                cycle = (j, i - j)
    return retained, tuple(reported), consensus, max_rounds, False, *cycle


def reference_features(dataset, s, length, seed):
    """The shards' index arrays and feature matrices: each series' landscape
    from its diagram, on the grid of all coefficients' min and max."""
    shards = make_shard_plan(dataset.N, s, seed)
    t2 = next_pow2(dataset.T)
    padded = np.zeros((dataset.N, t2), dtype=np.int64)
    padded[:, : dataset.T] = dataset.levels
    coefficients = (padded @ walsh_matrix(t2)) / np.sqrt(t2)  # exact integer sums, then one division
    bounds = float(coefficients.min()), float(coefficients.max())
    rows = np.array([landscape_from_diagram(sublevel_persistence(c), *bounds, length) for c in coefficients])
    return shards, [rows[ix] for ix in shards]


def reference_run_dcc(dataset, k, s, length, seed, max_rounds):
    """`run_dcc` from the oracles, with both timers 0.0."""
    shards, matrices = reference_features(dataset, s, length, seed)
    assignments, worker_centroids, consensus, rounds_used, converged, start, period = plain_run_rounds(
        matrices, k, seed, max_rounds, kmeans=oracle_lloyd)
    order = np.concatenate(shards)
    labels = np.empty(len(order), dtype=np.int64)
    labels[order] = np.concatenate([a.labels for a in assignments])
    per_shard = tuple(a.wcss for a in assignments)
    return ClusterResult(
        labels=labels, order=order, wcss=float(np.asarray(per_shard).sum()), centroids=consensus,
        rounds_used=rounds_used, converged=converged, worker_centroids=worker_centroids,
        wcss_per_shard=per_shard, feature_seconds=0.0, kmeans_seconds=0.0, cycle_start=start,
        cycle_period=period,
    )


def assert_equal_but_for_the_timers(a, b):
    """Every ClusterResult field bit for bit, the two timers aside."""
    for field in dataclasses.fields(a):
        if field.name in ("feature_seconds", "kmeans_seconds"):
            continue
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), field.name
        elif field.name == "centroids":
            assert (x.centroids.shape, x.centroids.tobytes()) == (y.centroids.shape, y.centroids.tobytes())
        elif field.name == "worker_centroids":
            assert [(c.centroids.shape, c.centroids.tobytes()) for c in x] == [
                (c.centroids.shape, c.centroids.tobytes()) for c in y
            ]
        else:
            assert x == y, field.name
