import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walshscape import wft as wft_module
from walshscape import (
    SeriesRange,
    fast_wft,
    fast_wft_batch,
    next_pow2,
    series_range,
    walsh_matrix,
    walsh_value,
    zero_pad,
)

from conftest import traced_peak

POW2_SIZES = (2, 4, 8, 16, 32, 64)


def naive_wft(values: np.ndarray) -> np.ndarray:
    """Independent oracle: direct matrix product against the iteration table."""
    t2 = len(values)
    w = walsh_matrix(t2).astype(np.float64)
    return values @ w / math.sqrt(t2)


class TestNextPow2:
    def test_day_of_minutes_pads_to_2048(self):
        assert next_pow2(1440) == 2048

    def test_one(self):
        assert next_pow2(1) == 1

    def test_exact_power_unchanged(self):
        assert next_pow2(1024) == 1024

    @given(st.integers(min_value=1, max_value=10**9))
    def test_smallest_enclosing_power(self, t):
        p = next_pow2(t)
        assert p >= t and p & (p - 1) == 0
        assert p == 1 or p // 2 < t

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            next_pow2(0)


class TestWalshValue:
    def test_row_zero_is_all_ones(self):
        assert all(walsh_value(0, j, 8) == 1 for j in range(8))

    def test_row_one_sign_split(self):
        assert walsh_value(1, 2, 4) == -1
        assert [walsh_value(1, j, 8) for j in range(8)] == [1, 1, 1, 1, -1, -1, -1, -1]

    def test_full_eight_table_is_orthogonal(self):
        w = walsh_matrix(8)
        assert np.array_equal(w @ w.T // 8, np.eye(8, dtype=np.int64))

    def test_matrix_matches_scalar_iteration(self, rng):
        for t2 in (4, 16, 64):
            w = walsh_matrix(t2)
            for _ in range(50):
                t = int(rng.integers(0, t2))
                j = int(rng.integers(0, t2))
                assert w[t, j] == walsh_value(t, j, t2)

    @pytest.mark.parametrize("t2", [1, 2, 4, 8, 16, 32, 64, 128, 256])
    def test_orthogonality_exact_both_ways(self, t2):
        w = walsh_matrix(t2)
        identity = t2 * np.eye(t2, dtype=np.int64)
        assert np.array_equal(w @ w.T, identity)
        assert np.array_equal(w.T @ w, identity)

    def test_values_are_plus_minus_one(self):
        w = walsh_matrix(32)
        assert set(np.unique(w)) == {-1, 1}

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            walsh_value(8, 0, 8)
        with pytest.raises(IndexError):
            walsh_value(0, -1, 8)


class TestFastWft:
    def test_constant_pair(self):
        c = 3.7
        v = fast_wft(np.array([c, c]))
        assert v.coeffs == pytest.approx([c * math.sqrt(2), 0.0], abs=1e-15)

    def test_zeros_stay_zeros(self):
        assert np.array_equal(fast_wft(np.zeros(16)).coeffs, np.zeros(16))

    @pytest.mark.parametrize("t2", POW2_SIZES)
    def test_matches_naive_matrix_product(self, t2, rng):
        for _ in range(50):
            x = rng.normal(size=t2)
            assert np.max(np.abs(fast_wft(x).coeffs - naive_wft(x))) < 1e-12

    def test_batch_matches_per_row(self, rng):
        m = rng.normal(size=(7, 64))
        batch = fast_wft_batch(m)
        for i in range(7):
            assert np.array_equal(batch[i], fast_wft(m[i]).coeffs)

    @pytest.mark.parametrize("t2", POW2_SIZES)
    def test_butterfly_result_is_c_ordered(self, t2, rng):
        # float input, and integers whose bound max|x| * T2 exceeds 2**53, run the butterfly
        rev = wft_module._bit_reversal(t2.bit_length() - 1)
        for rows in range(2, 9):
            for m in (rng.normal(size=(rows, t2)), rng.integers(2**52, 2**60, size=(rows, t2))):
                out = fast_wft_batch(m)
                gathered = wft_module._fwht_natural(m)[..., rev]  # the F-ordered gather it replaced
                assert out.flags.c_contiguous and out.shape == m.shape
                assert out.tobytes() == (gathered / math.sqrt(t2)).tobytes()

    def test_parseval_at_full_day_length(self, rng):
        for _ in range(20):
            x = rng.normal(size=2048)
            coeffs = fast_wft(x).coeffs
            assert np.sum(coeffs**2) == pytest.approx(np.sum(x**2), rel=1e-9)

    def test_linearity(self, rng):
        x, y = rng.normal(size=128), rng.normal(size=128)
        a, b = 2.5, -1.25
        combined = fast_wft(a * x + b * y).coeffs
        split = a * fast_wft(x).coeffs + b * fast_wft(y).coeffs
        assert np.max(np.abs(combined - split)) < 1e-9

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fast_wft(np.zeros(12))

    def test_t_original_recorded(self):
        v = fast_wft(zero_pad(np.ones(5)), t_original=5)
        assert v.T2 == 8 and v.t_original == 5

    def test_runtime_scales_subquadratically(self, rng):
        # O(n log n) smoke check: ~2.5x per doubling in aggregate across
        # 2^10..2^16; a quadratic implementation grows ~4x per doubling.
        sizes = list(range(10, 17))
        best = {}
        for p in sizes:
            x = rng.normal(size=1 << p)
            fast_wft(x)  # warm caches
            timings = []
            for _ in range(9):
                t0 = time.perf_counter()
                fast_wft(x)
                timings.append(time.perf_counter() - t0)
            best[p] = min(timings)
        assert best[16] / best[10] <= 2.5**6
        slope = np.polyfit(sizes, [math.log2(best[p]) for p in sizes], 1)[0]
        assert slope <= math.log2(2.5)


def _max_level(t2: int, pick: int, rng) -> int:
    """Largest |level| of a test matrix: picks 0-8 sit on both sides of the
    bounds max|x| * T2 = 2**24 and 2**53; larger picks draw at random."""
    edges = [1, 255] + [edge // t2 + d for edge in (2**24, 2**53) for d in (-1, 0, 1)] + [2**62]
    return edges[pick] if pick < len(edges) else int(rng.integers(1, 2**63 - 1))


class TestIntegerPath:
    @settings(max_examples=200, deadline=None)
    @given(
        n_bits=st.integers(0, 12),
        pick=st.integers(0, 12),
        rows=st.integers(1, 5),
        signed=st.booleans(),
        near_cap=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_bits=0, pick=0, rows=1, signed=False, near_cap=False, seed=0)
    @example(n_bits=0, pick=4, rows=2, signed=True, near_cap=False, seed=1)
    @example(n_bits=1, pick=2, rows=3, signed=True, near_cap=True, seed=2)
    @example(n_bits=1, pick=6, rows=1, signed=False, near_cap=True, seed=3)
    @example(n_bits=11, pick=4, rows=2, signed=False, near_cap=True, seed=4)
    @example(n_bits=11, pick=6, rows=2, signed=True, near_cap=True, seed=5)
    def test_bit_identical_to_the_float64_butterfly(self, n_bits, pick, rows, signed, near_cap, seed):
        t2 = 1 << n_bits
        rng = np.random.default_rng(seed)
        cap = _max_level(t2, pick, rng)
        if near_cap:  # rows of one sign near the cap: large, mostly odd partial sums
            m = rng.integers(max(cap - 3, 0), cap, size=(rows, t2), endpoint=True)
            if signed:
                m *= rng.choice([-1, 1], size=(rows, 1))
        else:
            m = rng.integers(-cap if signed else 0, cap, size=(rows, t2), endpoint=True)
        m[rng.integers(rows), rng.integers(t2)] = -cap if signed else cap  # the bound is exactly cap * T2
        assert fast_wft_batch(m).tobytes() == fast_wft_batch(m.astype(np.float64)).tobytes()

    def test_small_levels_skip_the_butterfly(self, monkeypatch, rng):
        monkeypatch.setattr(wft_module, "_fwht_natural", None)  # any butterfly call fails
        for t2 in (1, 2, 64, 2048):
            m = rng.integers(-3, 4, size=(5, t2))
            out = fast_wft_batch(m)
            assert out.dtype == np.float64
            assert np.array_equal(out, [naive_wft(row.astype(np.float64)) for row in m])

    def test_narrow_integer_dtypes(self, rng):
        m = rng.integers(0, 256, size=(4, 512))
        expected = fast_wft_batch(m.astype(np.float64)).tobytes()
        for dtype in (np.uint8, np.int16, np.int32, np.uint64):
            assert fast_wft_batch(m.astype(dtype)).tobytes() == expected

    def test_zero_sums_are_positive_zero(self):
        m = np.array([[0] * 8, [1, -1] * 4, [2, 0, 0, 2, -2, 0, 0, -2]])
        out = fast_wft_batch(m)
        assert not np.signbit(out).any()
        assert np.count_nonzero(out == 0.0) > 8

    @pytest.mark.parametrize("rows, t2, high", [(19, 2048, 3), (3, 8192, 256), (19, 2048, 2**20)])
    def test_rows_over_several_blocks(self, rows, t2, high, rng):
        # 8 rows of 2048 or 2 rows of 8192 levels make one block; 2**20 * 2048 takes float64
        m = rng.integers(0, high, size=(rows, t2))
        out = fast_wft_batch(m)
        assert out.dtype == np.float64 and out.shape == m.shape and out.flags.c_contiguous
        assert out.tobytes() == fast_wft_batch(m.astype(np.float64)).tobytes()

    def test_working_set_is_the_result_and_one_block(self):
        m = np.random.default_rng(0).integers(0, 3, size=(64, 2048)).astype(np.uint8)
        fast_wft_batch(m)  # the cached factors are not part of the working set
        assert traced_peak(fast_wft_batch, m) <= m.size * 8 + 256 * 1024

    def test_int64_minimum_takes_the_butterfly(self, monkeypatch):
        calls = []
        real = wft_module._fwht_natural
        monkeypatch.setattr(wft_module, "_fwht_natural", lambda v: calls.append(v.shape) or real(v))
        row = np.array([[np.iinfo(np.int64).min, 0, 1, -1]])
        out = fast_wft_batch(row)
        assert calls == [(1, 4)]
        # float64 butterfly: -2**63 absorbs the small levels, then / sqrt(4)
        assert out.tobytes() == np.full((1, 4), -(2.0**62)).tobytes()


class TestZeroPad:
    def test_pads_to_next_power(self):
        padded = zero_pad([1.0, 2.0, 3.0])
        assert np.array_equal(padded, [1.0, 2.0, 3.0, 0.0])

    def test_explicit_length(self):
        assert len(zero_pad([1.0], 8)) == 8

    def test_rejects_short_target(self):
        with pytest.raises(ValueError):
            zero_pad([1.0, 2.0, 3.0], 2)


class TestSeriesRange:
    def test_componentwise_extremes(self):
        v = fast_wft(np.zeros(4))
        object.__setattr__(v, "coeffs", np.array([3.0, 0.0, -1.0, 0.0]))
        assert series_range(v) == SeriesRange(-1.0, 3.0)

    def test_constant_series(self):
        c = 2.0
        r = series_range(fast_wft(np.array([c, c])))
        assert r.d_min == 0.0 and r.d_max == pytest.approx(c * math.sqrt(2))

    def test_all_zero(self):
        assert series_range(fast_wft(np.zeros(8))) == SeriesRange(0.0, 0.0)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            SeriesRange(1.0, 0.0)
