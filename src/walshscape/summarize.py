"""Cluster summaries: per-minute category proportions and weighted composition.

Both summaries use the per-series survey weights.  Proportions describe a
cluster's minute-by-minute mix of levels; composition tables describe how
the series carrying a given attribute value distribute across clusters
(share within the attribute value) and how a cluster splits across the
attribute's values (share within the cluster).  Both normalizations are
emitted because either can be the quantity of interest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import Dataset


@dataclass(frozen=True)
class CompositionRow:
    cluster: int
    value: str
    weighted_count: float
    share_within_value: float
    share_within_cluster: float


@dataclass(frozen=True)
class CompositionTable:
    """Weighted cross-tabulation of clusters against one attribute."""

    attribute: str
    rows: tuple[CompositionRow, ...]


def _check_labels(dataset: Dataset, labels, k: int) -> np.ndarray:
    """labels as int64, one per series, each in 1..k; raises ValueError otherwise."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != dataset.N:
        raise ValueError(f"labels length {len(labels)} does not match dataset size {dataset.N}")
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


def composition_table(dataset: Dataset, labels, k: int, attribute: str) -> CompositionTable:
    """Weighted composition of clusters by one attribute.

    Series missing the attribute are excluded.  Raises ValueError if no
    series carries the attribute.
    """
    labels = _check_labels(dataset, labels, k)
    if attribute not in dataset.attributes:
        raise ValueError(f"unknown attribute {attribute!r}: no series carries it")
    counts: dict[tuple[int, str], float] = {}
    value_totals: dict[str, float] = {}
    cluster_totals: dict[int, float] = {}
    column = dataset.attributes[attribute]
    for value, label, weight in zip(column, labels.tolist(), dataset.weights.tolist()):
        if value is None:
            continue
        key = (label, value)
        counts[key] = counts.get(key, 0.0) + weight
        value_totals[value] = value_totals.get(value, 0.0) + weight
        cluster_totals[label] = cluster_totals.get(label, 0.0) + weight
    rows = []
    for (cluster, value), count in sorted(counts.items()):
        rows.append(
            CompositionRow(
                cluster=cluster,
                value=value,
                weighted_count=count,
                share_within_value=count / value_totals[value] if value_totals[value] else 0.0,
                share_within_cluster=count / cluster_totals[cluster] if cluster_totals[cluster] else 0.0,
            )
        )
    return CompositionTable(attribute=attribute, rows=tuple(rows))
