import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshscape import Assignment, CentroidSet, init_uniform, kmeans, lloyd

from reference import oracle_lloyd


def run_traced(kernel, points, init, max_iters):
    history = []
    assignment, centroids = kernel(points, init, max_iters, on_iteration=history.append)
    return assignment.labels.tolist(), assignment.wcss, centroids.centroids.tobytes(), history


def run_untraced(kernel, points, init, max_iters):
    """Without a callback `lloyd` computes the WCSS of the final pass only."""
    assignment, centroids = kernel(points, init, max_iters)
    return assignment.labels.tolist(), np.float64(assignment.wcss).tobytes(), centroids.centroids.tobytes()


# Three distinct points, three copies each, and K=4: a cluster always
# empties, and since a mean of three copies misses its point in the last
# bits, the reseed moves one point group between two clusters and back.
# From pass 1 on, the labels and centroids cycle with period 2.
CYCLING_POINTS = np.repeat([[0.8, 0.6], [0.5, 0.3], [0.3, 0.1]], 3, axis=0)


@st.composite
def lloyd_cases(draw):
    """Points of four kinds, a start and a pass budget.

    normal: generic floats; grid: small integers, so distances tie;
    clipped: normals cut at zero, like landscape rows; repeated: a few
    distinct rows many times over, so clusters empty and get reseeded.
    """
    n = draw(st.integers(1, 80))
    length = draw(st.one_of(st.integers(2, 12), st.just(100)))
    k = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["normal", "grid", "clipped", "repeated"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "normal":
        x = rng.normal(size=(n, length))
    elif kind == "grid":
        x = rng.integers(-2, 3, size=(n, length)).astype(np.float64)
    elif kind == "clipped":
        x = np.maximum(rng.normal(size=(n, length)), 0.0)
    else:
        distinct = draw(st.integers(1, 3))
        x = rng.normal(size=(distinct, length))[rng.integers(0, distinct, size=n)]
    if draw(st.booleans()):
        init = init_uniform(x, k, seed=draw(st.integers(0, 2**32 - 1)))
    else:
        init = CentroidSet(centroids=x[rng.integers(0, n, size=k)])  # starts on points: ties
    return x, init, draw(st.integers(1, 60))


class TestInitUniform:
    def test_identical_points_collapse_interval(self):
        points = np.tile([1.5, -2.0, 0.25], (6, 1))
        init = init_uniform(points, 4, seed=0)
        assert np.array_equal(init.centroids, np.tile([1.5, -2.0, 0.25], (4, 1)))

    def test_draws_average_to_column_midpoint(self):
        points = np.array([[0.0], [1.0]])
        init = init_uniform(points, 100_000, seed=19)
        assert 0.49 <= init.centroids.mean() <= 0.51

    def test_deterministic_given_seed(self, rng):
        points = rng.normal(size=(30, 5))
        a = init_uniform(points, 3, seed=7)
        b = init_uniform(points, 3, seed=7)
        assert np.array_equal(a.centroids, b.centroids)
        assert not np.array_equal(a.centroids, init_uniform(points, 3, seed=8).centroids)

    def test_draws_stay_in_column_ranges(self, rng):
        points = rng.normal(size=(50, 4))
        init = init_uniform(points, 10, seed=3)
        assert (init.centroids >= points.min(axis=0)).all()
        assert (init.centroids <= points.max(axis=0)).all()

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            init_uniform(np.zeros((3, 2)), 0, seed=0)


class TestLloyd:
    def test_two_separable_points(self):
        points = np.array([[0.0, 0.0], [10.0, 10.0]])
        init = CentroidSet(centroids=np.array([[1.0, 1.0], [9.0, 9.0]]))
        assignment, centroids = lloyd(points, init)
        assert sorted(assignment.labels) == [1, 2]
        assert assignment.wcss == 0.0
        assert sorted(map(tuple, centroids.centroids)) == [(0.0, 0.0), (10.0, 10.0)]

    def test_single_cluster_closed_form(self, rng):
        points = rng.normal(size=(40, 6))
        assignment, centroids = lloyd(points, init_uniform(points, 1, seed=2))
        mean = points.mean(axis=0)
        assert np.allclose(centroids.centroids[0], mean, atol=1e-12)
        assert assignment.wcss == pytest.approx(((points - mean) ** 2).sum(), rel=1e-12)
        assert (assignment.labels == 1).all()

    def test_long_rectangle_splits_along_long_axis(self):
        points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        init = CentroidSet(centroids=np.array([[0.0, 0.5], [10.0, 0.5]]))
        assignment, _ = lloyd(points, init)
        assert list(assignment.labels) == [1, 1, 2, 2]
        assert assignment.wcss == pytest.approx(2 * (0.5**2) * 2)

    def test_wcss_sequence_non_increasing(self, rng):
        points = rng.normal(size=(200, 8))
        history = []
        lloyd(points, init_uniform(points, 5, seed=1), on_iteration=history.append)
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_permuting_init_permutes_labels(self, rng):
        points = rng.normal(size=(60, 4))
        init = init_uniform(points, 3, seed=5)
        swapped = CentroidSet(centroids=init.centroids[[2, 0, 1]])
        a, _ = lloyd(points, init)
        b, _ = lloyd(points, swapped)
        relabel = {1: 2, 2: 3, 3: 1}  # old position -> new position
        assert [relabel[l] for l in a.labels] == list(b.labels)
        assert a.wcss == b.wcss

    def test_translation_invariance(self, rng):
        points = rng.random(size=(80, 3))
        init = init_uniform(points, 4, seed=9)
        shift = np.array([5.0, -3.0, 2.0])
        a, _ = lloyd(points, init)
        b, _ = lloyd(points + shift, CentroidSet(centroids=init.centroids + shift))
        assert np.array_equal(a.labels, b.labels)
        assert a.wcss == pytest.approx(b.wcss, abs=1e-9)

    def test_k_distinct_points_reach_zero_wcss(self, rng):
        points = rng.normal(size=(5, 3)) * 10
        assignment, _ = lloyd(points, init_uniform(points, 5, seed=3))
        assert assignment.wcss == 0.0
        assert sorted(assignment.labels) == [1, 2, 3, 4, 5]

    def test_empty_cluster_reseeded_to_far_point(self):
        # both centroids start on top of point 0, so cluster 2 empties out
        points = np.array([[0.0], [10.0]])
        init = CentroidSet(centroids=np.array([[0.0], [0.0]]))
        assignment, centroids = lloyd(points, init)
        assert sorted(assignment.labels) == [1, 2]
        assert assignment.wcss == 0.0
        assert sorted(centroids.centroids[:, 0]) == [0.0, 10.0]

    def test_iteration_budget_respected(self, rng):
        points = rng.normal(size=(100, 2))
        history = []
        lloyd(points, init_uniform(points, 4, seed=0), max_iters=3, on_iteration=history.append)
        assert len(history) <= 3
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            lloyd(points, init_uniform(points, 4, seed=0), max_iters=0)

    def test_returned_centroids_consistent_with_wcss(self, rng):
        points = rng.normal(size=(50, 2))
        assignment, centroids = lloyd(points, init_uniform(points, 3, seed=4), max_iters=2)
        recomputed = ((points - centroids.centroids[assignment.labels - 1]) ** 2).sum()
        assert assignment.wcss == pytest.approx(recomputed, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            lloyd(np.zeros((4, 3)), CentroidSet(centroids=np.zeros((2, 2))))

    def test_labels_are_one_based(self, rng):
        points = rng.normal(size=(30, 2))
        assignment, _ = lloyd(points, init_uniform(points, 3, seed=6))
        assert assignment.labels.min() >= 1 and assignment.labels.max() <= 3

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError, match="points must not be empty"):
            lloyd(np.zeros((0, 2)), CentroidSet(centroids=np.zeros((2, 2))))

    def test_zero_clusters_rejected(self):
        with pytest.raises(ValueError, match="K must be at least 1"):
            lloyd(np.zeros((3, 2)), CentroidSet(centroids=np.zeros((0, 2))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        points = np.zeros((3, 2))
        points[1, 0] = bad
        with pytest.raises(ValueError, match="points must be finite"):
            lloyd(points, CentroidSet(centroids=np.zeros((2, 2))))

    @pytest.mark.parametrize("call", [
        pytest.param(lambda c: lloyd(c, c), id="lloyd"),
        pytest.param(lambda c: init_uniform(c, 2, seed=0), id="init_uniform"),
    ])
    def test_a_centroid_set_is_not_points(self, call):
        # points are an array; the consensus step stacks the workers' centroid arrays
        with pytest.raises(ValueError, match="points must form a 2-D matrix"):
            call(CentroidSet(centroids=np.arange(6.0).reshape(3, 2)))


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(lloyd_cases())
    def test_equals_the_oracle_bit_for_bit(self, case):
        x, init, max_iters = case
        assert run_traced(lloyd, x, init, max_iters) == run_traced(oracle_lloyd, x, init, max_iters)

    @settings(max_examples=300, deadline=None)
    @given(lloyd_cases(), st.sampled_from([1.0, 1e-160, 1e-300, 1e150]), st.booleans())
    def test_scaled_points_equal_the_oracle(self, case, scale, traced):
        # 1e-160 and 1e-300 put squared distances into and below the
        # subnormal range; 1e150 puts them near the top of the range
        x, init, max_iters = case
        x, init = x * scale, CentroidSet(centroids=init.centroids * scale)
        run = run_traced if traced else run_untraced
        assert run(lloyd, x, init, max_iters) == run(oracle_lloyd, x, init, max_iters)

    def test_rows_the_product_form_misplaces_take_the_direct_distances(self):
        # at a 1e6 offset |x|^2 rounds by about 1e-4, far above the 1e-10
        # gap between the two centroids' distances, so the argmin of the
        # product form is noise for most rows
        x = 1e6 + 1e-3 * np.repeat(np.arange(50.0)[:, None], 2, axis=1)
        c = np.stack([x[25] + 5e-4, x[25] + 5e-4 + 1e-9])
        product = ((x * x).sum(axis=1)[:, None] + (c * c).sum(axis=1) - 2 * x @ c.T).argmin(axis=1)
        init = CentroidSet(centroids=c)
        first, _ = oracle_lloyd(x, init, max_iters=1)
        assert (product != first.labels - 1).sum() >= 10
        assert run_traced(lloyd, x, init, 1000) == run_traced(oracle_lloyd, x, init, 1000)
        assert run_untraced(lloyd, x, init, 1) == run_untraced(oracle_lloyd, x, init, 1)

    @pytest.mark.parametrize("max_iters", [*range(1, 8), 999, 1000, 1001])
    def test_a_skipped_pass_cycle_ends_where_the_full_run_does(self, max_iters):
        init = init_uniform(CYCLING_POINTS, 4, seed=0)
        full = run_traced(oracle_lloyd, CYCLING_POINTS, init, max_iters)
        assert len(full[3]) == max_iters  # it never converges
        assert run_traced(lloyd, CYCLING_POINTS, init, max_iters) == full
        assert run_untraced(lloyd, CYCLING_POINTS, init, max_iters) == run_untraced(
            oracle_lloyd, CYCLING_POINTS, init, max_iters)

    @pytest.mark.parametrize("budget, same_phase", [(10**5, 10), (10**5 + 1, 11)])
    def test_a_cycle_skips_its_whole_periods(self, monkeypatch, budget, same_phase):
        # the skipped run does a handful of passes and lands in the phase of
        # the period-2 cycle that a short oracle run ends in
        passes = []
        nearest = kmeans._nearest
        monkeypatch.setattr(kmeans, "_nearest", lambda *args: passes.append(1) or nearest(*args))
        init = init_uniform(CYCLING_POINTS, 4, seed=0)
        assert run_untraced(lloyd, CYCLING_POINTS, init, budget) == run_untraced(
            oracle_lloyd, CYCLING_POINTS, init, same_phase)
        assert len(passes) <= 5

    def test_one_column_means_may_differ_in_the_last_bits(self):
        # At L = 1 a cluster's rows form one contiguous column, which numpy
        # sums pairwise; the oracle adds them in row order.  Feature rows
        # never have L = 1 (a landscape grid has at least 2 points).
        x = np.array([0.6, 0.5, 0.3, 0.3, 0.1, 0.1, 0.1, 0.2, 0.8, 0.6, 0.9])[:, None]
        init = CentroidSet(centroids=np.array([[0.0]]))
        new_assignment, new = lloyd(x, init)
        old_assignment, old = oracle_lloyd(x, init)
        assert np.array_equal(new_assignment.labels, old_assignment.labels)
        assert new.centroids[0, 0] == x.mean()
        assert old.centroids[0, 0] == sum(x[:, 0]) / len(x)
        assert new.centroids[0, 0] != old.centroids[0, 0]
        assert new.centroids[0, 0] == pytest.approx(old.centroids[0, 0], rel=1e-15)


class TestCentroidSet:
    @pytest.mark.parametrize("centroids, message", [
        (np.array([[0.0, np.nan]]), "centroids must be finite"),
        (np.array([[np.inf, 0.0]]), "centroids must be finite"),
        (np.zeros(3), "centroids must form a 2-D matrix"),
        (np.zeros((1, 2, 2)), "centroids must form a 2-D matrix"),
    ])
    def test_a_non_finite_or_non_matrix_set_is_refused(self, centroids, message):
        with pytest.raises(ValueError, match=message):
            CentroidSet(centroids=centroids)


class TestAssignment:
    def test_assignment_is_immutable_dataclass(self):
        a = Assignment(labels=np.array([1, 2]), wcss=0.0)
        with pytest.raises(AttributeError):
            a.wcss = 1.0
