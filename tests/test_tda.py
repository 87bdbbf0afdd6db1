import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from walshscape import PersistenceDiagram, landscape_from_diagram, landscape_grid, sublevel_persistence
from walshscape.tda import tent_rows


def slow_sublevel_diagram(f):
    """Independent oracle: grow the sublevel set one threshold at a time and
    merge adjacent index runs with plain set bookkeeping (no union-find)."""
    f = [float(v) for v in f]
    # plateaus collapse to one sample
    vals = [f[0]] + [b for a, b in zip(f, f[1:]) if b != a]
    components = []  # [set of indices, (birth value, birth index)]
    points = []
    order = sorted(range(len(vals)), key=lambda i: (vals[i], i))
    for i in order:
        touching = [c for c in components if (i - 1) in c[0] or (i + 1) in c[0]]
        for c in touching:
            components.remove(c)
        if not touching:
            components.append([{i}, (vals[i], i)])
            continue
        touching.sort(key=lambda c: c[1])
        merged, birth = touching[0]
        merged.add(i)
        for other_set, other_birth in touching[1:]:
            points.append((other_birth[0], vals[i]))
            merged |= other_set
        components.append([merged, birth])
    points.append((min(vals), max(vals)))
    return sorted(points)


def diagram_points(d: PersistenceDiagram):
    return sorted(map(tuple, d.points))


class TestSublevelPersistence:
    def test_two_basins_walkthrough(self):
        # two shallow basins merging into the global pair (0, 2)
        d = sublevel_persistence([0, 1, 0.5, 1.5, 0.5, 2])
        assert diagram_points(d) == [(0.0, 2.0), (0.5, 1.0), (0.5, 1.5)]

    def test_single_sample(self):
        assert diagram_points(sublevel_persistence([3.0])) == [(3.0, 3.0)]

    def test_monotone_has_single_component(self):
        assert diagram_points(sublevel_persistence([1, 2, 3, 4])) == [(1.0, 4.0)]

    def test_plateaus_merge_without_noise_points(self):
        assert diagram_points(sublevel_persistence([0, 1, 1, 0])) == [(0.0, 1.0), (0.0, 1.0)]
        assert diagram_points(sublevel_persistence([2, 2, 2])) == [(2.0, 2.0)]

    def test_equal_births_resolved_by_index(self):
        # both basins born at 0; the left one (lower index) is older
        assert diagram_points(sublevel_persistence([0, 5, 0, 0])) == [(0.0, 5.0), (0.0, 5.0)]

    def test_matches_slow_set_merge_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 64))
            f = rng.normal(size=n)
            if rng.random() < 0.5:
                f = np.round(f, 1)  # force ties and plateaus
            assert diagram_points(sublevel_persistence(f)) == pytest.approx(
                slow_sublevel_diagram(f)
            )

    def test_extreme_point_always_present(self, rng):
        f = rng.normal(size=100)
        d = sublevel_persistence(f)
        assert (float(f.min()), float(f.max())) in map(tuple, d.points)

    def test_extreme_point_is_permutation_invariant(self, rng):
        f = rng.normal(size=50)
        base = sublevel_persistence(f)
        longest = max(map(tuple, base.points), key=lambda p: p[1] - p[0])
        for _ in range(5):
            shuffled = rng.permutation(f)
            d = sublevel_persistence(shuffled)
            assert max(map(tuple, d.points), key=lambda p: p[1] - p[0]) == longest

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            sublevel_persistence([])
        with pytest.raises(ValueError):
            sublevel_persistence([0.0, np.nan])

    def test_births_never_exceed_deaths(self):
        with pytest.raises(ValueError):
            PersistenceDiagram(points=np.array([[1.0, 0.5]]))


class TestLandscapeFromDiagram:
    def test_single_tent(self):
        d = PersistenceDiagram(points=np.array([[0.0, 2.0]]))
        assert np.array_equal(landscape_from_diagram(d, 0.0, 2.0, 5), [0.0, 0.5, 1.0, 0.5, 0.0])

    def test_zero_persistence_point_contributes_nothing(self):
        d = PersistenceDiagram(points=np.array([[1.0, 1.0]]))
        assert np.array_equal(landscape_from_diagram(d, 0.0, 2.0, 5), np.zeros(5))

    def test_dominated_point_is_invisible(self):
        inner = PersistenceDiagram(points=np.array([[0.0, 2.0], [0.5, 1.5]]))
        assert np.array_equal(landscape_from_diagram(inner, 0.0, 2.0, 5), [0.0, 0.5, 1.0, 0.5, 0.0])

    def test_empty_diagram_is_flat(self):
        samples = landscape_from_diagram(PersistenceDiagram(points=np.zeros((0, 2))), 0.0, 1.0, 4)
        assert samples.dtype == np.float64 and np.array_equal(samples, np.zeros(4))


def closed_form(d_min, d_max, lo, hi, length):
    """The one tent of the range [d_min, d_max] on the grid over [lo, hi]."""
    return tent_rows(landscape_grid(lo, hi, length), [d_min], [d_max])[0]


class TestLandscapeClosedForm:
    def test_matching_grid(self):
        assert np.array_equal(closed_form(0.0, 2.0, 0.0, 2.0, 5), [0.0, 0.5, 1.0, 0.5, 0.0])

    def test_degenerate_range_is_flat(self):
        assert np.array_equal(closed_form(1.5, 1.5, 0.0, 3.0, 7), np.zeros(7))

    def test_wider_grid(self):
        assert np.array_equal(closed_form(0.0, 2.0, -1.0, 3.0, 5), [0.0, 0.0, 1.0, 0.0, 0.0])

    def test_identity_against_diagram_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 512))
            f = rng.normal(size=n)
            if rng.random() < 0.3:
                f = np.round(f, 1)
            lo = float(f.min()) - float(rng.random())
            hi = float(f.max()) + float(rng.random())
            via_diagram = landscape_from_diagram(sublevel_persistence(f), lo, hi, 100)
            direct = closed_form(float(f.min()), float(f.max()), lo, hi, 100)
            assert np.max(np.abs(via_diagram - direct)) < 1e-12

    def test_closed_form_permutation_invariant(self, rng):
        f = rng.normal(size=64)
        shuffled = rng.permutation(f)
        a = closed_form(f.min(), f.max(), -5.0, 5.0, 50)
        b = closed_form(shuffled.min(), shuffled.max(), -5.0, 5.0, 50)
        assert np.array_equal(a, b)

    def test_doubling_everything_doubles_samples_exactly(self, rng):
        f = rng.normal(size=32)
        lo, hi = f.min() - 1.0, f.max() + 1.0
        base = closed_form(f.min(), f.max(), lo, hi, 33)
        doubled = closed_form(2 * f.min(), 2 * f.max(), 2 * lo, 2 * hi, 33)
        assert np.array_equal(doubled, 2 * base)


class TestTentRows:
    def test_aligned_rows_hold_the_plain_formula_bit_for_bit(self, rng):
        for n, length in ((1, 2), (7, 3), (64, 100), (333, 41)):
            mins = rng.normal(size=n) - 1.0
            maxs = mins + rng.random(n) * 3.0
            grid = landscape_grid(-4.0, 4.0, length)
            rows = tent_rows(grid, mins, maxs)
            plain = np.maximum(np.minimum(grid - mins[:, None], maxs[:, None] - grid), 0.0)
            assert rows.ctypes.data % 64 == 0 and rows.flags.c_contiguous
            assert rows.tobytes() == plain.tobytes()


class TestLandscapeInvariants:
    @settings(max_examples=50, deadline=None)
    @given(
        arrays(np.float64, st.integers(2, 40), elements=st.floats(-100, 100)),
        st.integers(3, 120),
    )
    def test_nonnegative_and_lipschitz(self, values, length):
        d = sublevel_persistence(values)
        lo, hi = float(values.min()) - 1.0, float(values.max()) + 1.0
        samples = landscape_from_diagram(d, lo, hi, length)
        spacing = (hi - lo) / (length - 1)
        assert (samples >= 0).all()
        assert np.max(np.abs(np.diff(samples))) <= spacing + 1e-12

    def test_grid_endpoints_and_spacing(self):
        g = landscape_grid(-1.0, 3.0, 5)
        assert np.array_equal(g, [-1.0, 0.0, 1.0, 2.0, 3.0])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            landscape_grid(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            landscape_grid(1.0, 1.0, 5)
