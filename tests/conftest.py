import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from walshscape import ARCHETYPES, Dataset, build_features, local_ranges, make_shard_plan, reduce_global_range


def truth_labels(dataset) -> np.ndarray:
    """Planted archetype of every series as an integer in 1..3."""
    index = {arch: i + 1 for i, arch in enumerate(ARCHETYPES)}
    return np.array([index[truth] for truth in dataset.attributes["truth"]], dtype=np.int64)


def label_agreement(truth: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of points matched under the best cluster-to-truth relabeling,
    tried over every permutation of the K clusters (K is small)."""
    k = int(max(truth.max(), labels.max()))
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (truth - 1, labels - 1), 1)
    return max(confusion[range(k), perm].sum() for perm in itertools.permutations(range(k))) / len(truth)


def synthetic_runs(n_per_archetype, s, k_max: int):
    """(n per archetype, S, K) triples of a `generate_synthetic` run, K in 1..min(k_max, N // S)
    where N = 3n: every shard holds at least K series, as `run_dcc` requires."""
    return st.tuples(n_per_archetype, s).flatmap(
        lambda ns: st.tuples(st.just(ns[0]), st.just(ns[1]), st.integers(1, min(k_max, 3 * ns[0] // ns[1])))
    )


def toy_dataset(values_rows, weights=None, attrs=None, J=None) -> Dataset:
    """Small dataset from a list of level rows, with ids s0, s1, ...

    attrs is one dict per row; a row without an attribute holds None in
    its column.
    """
    n = len(values_rows)
    attrs = [{}] * n if attrs is None else attrs
    names = {name for row_attrs in attrs for name in row_attrs}
    return Dataset(
        levels=np.asarray(values_rows, dtype=np.int64),
        weights=np.ones(n) if weights is None else weights,
        ids=[f"s{i}" for i in range(n)],
        attributes={name: [row_attrs.get(name) for row_attrs in attrs] for name in names},
        J=J,
    )


def per_shard_features(dataset, s, length, seed):
    """The feature path that gathers each shard's level rows: its own range
    pass per shard, then the reduction of all shards' ranges and each
    shard's rows on the shared grid.  Returns (shards, matrices)."""
    shards = make_shard_plan(dataset.N, s, seed)
    ranges = [local_ranges(dataset.levels[ix]) for ix in shards]
    bounds = reduce_global_range(ranges)
    return shards, [build_features(r, bounds, length) for r in ranges]


def to_ingestion_order(shards, concatenated: np.ndarray) -> np.ndarray:
    """Values in shard-concatenation order, put back in ingestion order."""
    out = np.empty_like(concatenated)
    out[np.concatenate(shards)] = concatenated
    return out


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc sees allocated while fn(*args) runs, its
    result included, above what was allocated before the call."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
