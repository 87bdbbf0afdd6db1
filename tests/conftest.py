import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from walshscape import ARCHETYPES, Dataset


def truth_labels(dataset) -> np.ndarray:
    """Planted archetype of every series as an integer in 1..3."""
    index = {arch: i + 1 for i, arch in enumerate(ARCHETYPES)}
    return np.array([index[s.attributes["truth"]] for s in dataset.series], dtype=np.int64)


def label_agreement(truth: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of points matched under the best cluster-to-truth relabeling."""
    k = int(max(truth.max(), labels.max()))
    confusion = np.zeros((k, k), dtype=np.int64)
    for t, l in zip(truth, labels):
        confusion[t - 1, l - 1] += 1
    rows, cols = linear_sum_assignment(-confusion)
    return confusion[rows, cols].sum() / len(truth)


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
