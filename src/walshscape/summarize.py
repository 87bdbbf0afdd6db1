"""Cluster summaries: per-minute category proportions and weighted composition.

Both summaries use the per-series survey weights.  Proportions describe a
cluster's minute-by-minute mix of levels; composition tables describe how
the series carrying a given attribute value distribute across clusters
(share within the attribute value) and how a cluster splits across the
attribute's values (share within the cluster).  Both normalizations are
emitted because either can be the quantity of interest.
"""

from __future__ import annotations

import numpy as np

from .series import Dataset


def _check_labels(dataset: Dataset, labels, k: int) -> np.ndarray:
    """labels as int64, one per series, each in 1..k; raises ValueError otherwise."""
    labels = np.asarray(labels)
    if len(labels) != dataset.N:
        raise ValueError(f"labels length {len(labels)} does not match dataset size {dataset.N}")
    if not np.issubdtype(labels.dtype, np.integer):  # bool is not an integer dtype
        raise ValueError("labels must be integers")
    labels = labels.astype(np.int64, copy=False)
    if len(labels) and labels.min() < 1:
        raise ValueError("labels must be 1-based cluster indices")
    if labels.max(initial=1) > k:
        raise ValueError("label exceeds K")
    return labels


def minute_proportions(dataset: Dataset, labels, k: int) -> dict[int, np.ndarray]:
    """Weighted per-minute level proportions per cluster.

    Returns a dict mapping each non-empty cluster in 1..k to a (T, J)
    matrix whose rows sum to 1.  Clusters with zero total weight are
    skipped.
    """
    labels = _check_labels(dataset, labels, k)
    out: dict[int, np.ndarray] = {}
    for cluster in sorted(set(labels.tolist())):  # the clusters present
        members = labels == cluster
        total = dataset.weights[members].sum()
        if total == 0.0:
            continue
        # bincount adds each minute's weights in row order, the summation
        # order that the proportions files depend on bit for bit
        minutes = np.ascontiguousarray(dataset.levels[members].T)
        w = dataset.weights[members]
        table = np.stack([np.bincount(column, weights=w, minlength=dataset.J) for column in minutes])
        out[cluster] = table / total
    return out


def composition_table(dataset: Dataset, labels, k: int, attribute: str) -> dict:
    """Weighted composition of clusters by one attribute, as five aligned columns.

    One entry per (cluster, value) pair that occurs, zero-weight pairs
    included, sorted by cluster and then by value: "clusters" (int64),
    "values" (a list of str), and the float64 "weighted_count",
    "share_within_value" and "share_within_cluster" (0.0 where the total
    is 0.0).  Series missing the attribute are excluded.  Raises
    ValueError if no series carries the attribute.
    """
    labels = _check_labels(dataset, labels, k)
    if attribute not in dataset.attributes:
        raise ValueError(f"unknown attribute {attribute!r}: no series carries it")
    column = dataset.attributes[attribute]
    values = sorted(set(column) - {None})  # as Python str: a numpy <U array would drop trailing NULs
    code = {value: i for i, value in enumerate(values)} | {None: -1}
    codes = np.fromiter(map(code.__getitem__, column), dtype=np.int64, count=len(column))
    present = codes >= 0
    value_codes, weights = codes[present], dataset.weights[present]
    clusters, cluster_codes = np.unique(labels[present], return_inverse=True)
    pairs, pair_codes = np.unique(cluster_codes * len(values) + value_codes, return_inverse=True)
    pair_clusters, pair_values = np.divmod(pairs, len(values))
    # bincount adds each bin's weights in row order from 0.0, the order
    # that the composition files depend on bit for bit
    count = np.bincount(pair_codes, weights=weights)
    value_total = np.bincount(value_codes, weights=weights)[pair_values]
    cluster_total = np.bincount(cluster_codes, weights=weights)[pair_clusters]
    return {
        "clusters": clusters[pair_clusters],
        "values": [values[i] for i in pair_values.tolist()],
        "weighted_count": count,
        "share_within_value": np.divide(count, value_total, out=np.zeros_like(count),
                                        where=value_total != 0),
        "share_within_cluster": np.divide(count, cluster_total, out=np.zeros_like(count),
                                          where=cluster_total != 0),
    }
