"""The determinism harness: the whole pipeline against the reference built
from the oracles (`reference.py`).

On small datasets of every shape the pipeline meets (J from 2 to 12, T
from 1 to 200, rows repeated and constant), `run_dcc` must return the
reference's `ClusterResult` bit for bit, the timers aside, whatever the
range pass's chunk size and the transform's block size; so must the socket
transport on a fixed share of the examples, and each `elbow_sweep` point
must equal `run_dcc` for its K.  A hot-path change that moves a bit fails
here.
"""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import walshscape.features as features_module
import walshscape.wft as wft_module
from walshscape import Dataset, DatasetError, elbow_sweep, generate_synthetic, next_pow2, run_dcc

from reference import assert_equal_but_for_the_timers, reference_run_dcc


@st.composite
def small_runs(draw):
    """A small dataset and a run on it: (dataset, S, K, L, I, seed, chunk rows,
    block rows, K list of the sweep, whether the socket transport runs too).
    The N rows repeat D distinct rows, the first C of which hold one level
    throughout, so K may exceed the distinct rows."""
    J, T, N = draw(st.integers(2, 12)), draw(st.integers(1, 200)), draw(st.integers(2, 40))
    distinct = draw(st.integers(1, N))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, J, size=(distinct, T))
    constant = draw(st.integers(0, distinct))
    rows[:constant] = rng.integers(0, J, size=(constant, 1))
    levels = rows[rng.permutation(np.arange(N) % distinct)]
    s = draw(st.integers(1, min(N, 4)))
    k = draw(st.integers(1, min(N // s, 6)))
    sweep = draw(st.lists(st.integers(1, N // s), min_size=1, max_size=3, unique=True))
    dataset = Dataset(levels, np.ones(N), [f"s{i}" for i in range(N)], {}, J=J)
    return (dataset, s, k, draw(st.integers(2, 40)), draw(st.integers(1, 12)), draw(st.integers(0, 2**32 - 1)),
            draw(st.integers(1, 8) | st.just(64)), draw(st.integers(1, 4)), sweep, draw(st.booleans()))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(run=small_runs())
# consensus period 2 from round 3: rounds 4..8 are skipped or left over
@example(run=(generate_synthetic(20, 96, 0.05, 7), 2, 4, 20, 8, 3, 64, 4, [3, 4], True))
def test_the_pipeline_equals_the_reference_built_from_the_oracles(run):
    dataset, s, k, length, max_rounds, seed, chunk, block, sweep, socket = run
    args = dict(s=s, length=length, seed=seed, max_rounds=max_rounds)
    with mock.patch.object(features_module, "_CHUNK_ROWS", chunk), \
            mock.patch.object(wft_module, "_BLOCK_ELEMENTS", block * next_pow2(dataset.T)):
        try:
            expected = reference_run_dcc(dataset, k, **args)
        except ValueError:  # one Walsh range for every series: the reference's grid is empty
            with pytest.raises(DatasetError, match="same Walsh range"):
                run_dcc(dataset, k=k, **args)
            return
        actual = run_dcc(dataset, k=k, **args)
        assert_equal_but_for_the_timers(actual, expected)
        if socket and hasattr(os, "fork"):
            assert_equal_but_for_the_timers(run_dcc(dataset, k=k, transport="socket", **args), expected)
        for point, swept_k in zip(elbow_sweep(dataset, sweep, **args), sweep):
            assert_equal_but_for_the_timers(point, actual if swept_k == k else run_dcc(dataset, k=swept_k, **args))
