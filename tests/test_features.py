import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from walshscape import (
    DatasetError,
    GlobalRange,
    build_features,
    fast_wft_batch,
    generate_synthetic,
    landscape_from_diagram,
    landscape_grid,
    local_ranges,
    make_shard_plan,
    next_pow2,
    reduce_global_range,
    sublevel_persistence,
)
from walshscape.dcc import _prepare_features
from walshscape.tda import tent_rows

from conftest import toy_dataset, traced_peak


def transform(values) -> np.ndarray:
    """The WFT coefficients of one series, zero-padded to the next power of two."""
    padded = np.pad(np.asarray(values, dtype=np.float64), (0, next_pow2(len(values)) - len(values)))
    return fast_wft_batch(padded[None])[0]


class TestLocalRanges:
    def test_all_zero_series(self):
        ds = toy_dataset([[0, 0, 0, 0]], J=3)
        mins, maxs = local_ranges(ds.levels)
        assert np.array_equal(mins, [0.0]) and np.array_equal(maxs, [0.0])

    def test_single_minute_series(self):
        # T=1 pads to T2=1: the lone coefficient equals the value
        ds = toy_dataset([[2]], J=3)
        mins, maxs = local_ranges(ds.levels)
        assert np.array_equal(mins, [2.0]) and np.array_equal(maxs, [2.0])

    def test_matches_per_series_composition(self, rng):
        ds = toy_dataset(rng.integers(0, 3, size=(20, 24)).tolist(), J=3)
        expected = [transform(s.values) for s in ds.series]
        mins, maxs = local_ranges(ds.levels)
        assert np.array_equal(mins, [c.min() for c in expected])
        assert np.array_equal(maxs, [c.max() for c in expected])

    def test_shard_of_several_chunks_matches_the_per_series_oracle(self, rng):
        ds = toy_dataset(rng.integers(0, 4, size=(200, 50)).tolist(), J=4)
        oracle = [transform(s.values) for s in ds.series]
        mins, maxs = local_ranges(ds.levels)
        assert mins.tobytes() == np.array([c.min() for c in oracle]).tobytes()
        assert maxs.tobytes() == np.array([c.max() for c in oracle]).tobytes()

    def test_empty_shard_rejected(self):
        with pytest.raises(ValueError):
            local_ranges([])

    def test_one_chunk_of_coefficients_is_live_at_a_time(self):
        # a 64-row chunk's coefficients take 1 MiB at T2 = 2048; two would take 2
        levels = np.random.default_rng(0).integers(0, 3, size=(225, 1440)).astype(np.uint8)
        local_ranges(levels)  # the cached factors are not part of the working set
        assert traced_peak(local_ranges, levels) < 1.6 * 2**20


class TestReduceGlobalRange:
    def test_two_shards(self):
        combined = reduce_global_range(
            [(np.array([0.0]), np.array([3.0])), (np.array([-1.0]), np.array([2.0]))]
        )
        assert combined == GlobalRange(-1.0, 3.0)

    def test_single_range_identity(self):
        assert reduce_global_range([(np.array([-2.5]), np.array([4.5]))]) == GlobalRange(-2.5, 4.5)

    def test_matches_flat_scan(self, rng):
        shards = []
        flat = []
        for _ in range(100):
            shard = []
            for _ in range(int(rng.integers(1, 5))):
                lo, hi = np.sort(rng.normal(size=2))
                shard.append((float(lo), float(hi)))
            shards.append((np.array([lo for lo, _ in shard]), np.array([hi for _, hi in shard])))
            flat.extend(shard)
        combined = reduce_global_range(shards)
        assert combined.D_min == min(lo for lo, _ in flat)
        assert combined.D_max == max(hi for _, hi in flat)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reduce_global_range([])


class TestBuildFeatures:
    def test_rows_start_on_a_64_byte_boundary(self, rng):
        ds = toy_dataset(rng.integers(0, 3, size=(17, 24)).tolist(), J=3)
        for length in (2, 3, 40, 100):
            ranges = local_ranges(ds.levels)
            features = build_features(ranges, reduce_global_range([ranges]), length)
            assert features.ctypes.data % 64 == 0

    def test_extremal_series_gets_the_full_tent(self, rng):
        ds = toy_dataset(rng.integers(0, 3, size=(10, 32)).tolist(), J=3)
        ranges = local_ranges(ds.levels)
        global_range = reduce_global_range([ranges])
        fm = build_features(ranges, global_range, 101)
        spread = global_range.D_max - global_range.D_min
        # the widest-range series touches at most the midpoint peak
        assert fm.max() <= spread / 2 + 1e-12
        mins, maxs = ranges
        widest = int(np.argmax(maxs - mins))
        if (mins[widest], maxs[widest]) == (global_range.D_min, global_range.D_max):
            assert fm[widest].max() == pytest.approx(spread / 2, abs=1e-12)

    def test_degenerate_series_gives_zero_row(self):
        ds = toy_dataset([[0, 0, 0, 0], [0, 1, 2, 0]], J=3)
        fm = build_features(local_ranges(ds.levels), GlobalRange(-5.0, 5.0), 10)
        assert np.array_equal(fm[0], np.zeros(10))

    def test_rows_match_diagram_oracle(self, rng):
        ds = toy_dataset(rng.integers(0, 3, size=(8, 16)).tolist(), J=3)
        ranges = local_ranges(ds.levels)
        global_range = reduce_global_range([ranges])
        for length in (2, 7, 100):
            fm = build_features(ranges, global_range, length)
            for row, s in zip(fm, ds.series):
                diagram = sublevel_persistence(transform(s.values))
                oracle = landscape_from_diagram(
                    diagram, global_range.D_min, global_range.D_max, length
                )
                assert np.max(np.abs(row - oracle)) < 1e-12

    def test_stale_global_range_detected(self):
        ds = toy_dataset([[0, 2, 1, 2]], J=3)
        with pytest.raises(ValueError, match="stale|outside"):
            build_features(local_ranges(ds.levels), GlobalRange(0.0, 0.5), 10)

    def test_shard_split_does_not_change_features(self):
        ds = generate_synthetic(20, 64, noise=0.1, seed=11)
        matrices = {}
        for s_count in (1, 5):
            plan = make_shard_plan(ds.N, s_count, seed=4)
            shards = [ds.levels[plan.shard_indices(s)] for s in range(s_count)]
            ranges = [local_ranges(sh) for sh in shards]
            global_range = reduce_global_range(ranges)
            rows = np.vstack([build_features(r, global_range, 50) for r in ranges])
            restored = np.empty_like(rows)
            restored[plan.order] = rows
            matrices[s_count] = restored
        assert np.array_equal(matrices[1], matrices[5])

    def test_interior_series_does_not_disturb_existing_rows(self, rng):
        ds = toy_dataset(rng.integers(0, 3, size=(6, 32)).tolist(), J=3)
        ranges = local_ranges(ds.levels)
        global_range = reduce_global_range([ranges])
        base = build_features(ranges, global_range, 40)
        # the appended series barely moves, so its range is strictly interior
        quiet = np.array([[0] * 31 + [1]])
        (lo,), (hi,) = local_ranges(quiet)
        assert global_range.D_min < lo <= hi < global_range.D_max
        extended = build_features(local_ranges(np.vstack([ds.levels, quiet])), global_range, 40)
        assert np.array_equal(extended[:6], base)


level_matrices = st.tuples(st.integers(1, 12), st.integers(1, 40), st.integers(2, 5)).flatmap(
    lambda shape: arrays(np.int64, shape[:2], elements=st.integers(0, shape[2] - 1))
)


@settings(max_examples=60, deadline=None)
@given(level_matrices, st.data())
def test_rows_equal_the_per_series_oracle_for_any_shard_split(levels, data):
    s = data.draw(st.integers(1, len(levels)), label="S")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    length = data.draw(st.integers(2, 30), label="L")
    ds = toy_dataset(levels.tolist(), J=5)
    oracle = [transform(v) for v in levels]
    d_min = min(c.min() for c in oracle)
    d_max = max(c.max() for c in oracle)
    if d_min == d_max:
        with pytest.raises(DatasetError, match="same Walsh range"):
            _prepare_features(ds, s, length, seed)
        return
    plan, matrices, _ = _prepare_features(ds, s, length, seed)
    rows = np.vstack(matrices)
    for position, original in enumerate(plan.order):
        c = oracle[original]
        expected = tent_rows(landscape_grid(d_min, d_max, length), [c.min()], [c.max()])[0]
        assert np.array_equal(rows[position], expected)
