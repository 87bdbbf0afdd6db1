import numpy as np
import pytest

from walshscape import composition_table, minute_proportions

from conftest import toy_dataset


class TestMinuteProportions:
    def test_identical_cluster_is_deterministic(self):
        ds = toy_dataset([[0, 1, 2], [0, 1, 2]], J=3)
        tables = minute_proportions(ds, [1, 1], k=1)
        expected = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        assert np.array_equal(tables[1], expected)

    def test_unweighted_split_is_half_half(self):
        ds = toy_dataset([[0, 0, 0], [0, 0, 1]], J=3)
        tables = minute_proportions(ds, [1, 1], k=1)
        assert tables[1][2, 0] == 0.5 and tables[1][2, 1] == 0.5

    def test_weights_tilt_the_split(self):
        ds = toy_dataset([[0, 0, 0], [0, 0, 1]], weights=[3.0, 1.0], J=3)
        tables = minute_proportions(ds, [1, 1], k=1)
        assert tables[1][2, 0] == 0.75 and tables[1][2, 1] == 0.25

    def test_rows_sum_to_one(self, rng):
        ds = toy_dataset(
            rng.integers(0, 4, size=(20, 12)).tolist(),
            weights=rng.random(20).tolist(),
            J=4,
        )
        labels = rng.integers(1, 4, size=20)
        for table in minute_proportions(ds, labels, k=3).values():
            assert np.allclose(table.sum(axis=1), 1.0, atol=1e-9)

    def test_bits_match_the_per_level_reference(self, rng):
        # the per-level row-order sum that minute_proportions computed before
        # it counted by bincount; the shares must stay equal bit for bit
        n, t, j = 300, 40, 4
        ds = toy_dataset(rng.integers(0, j, size=(n, t)).tolist(),
                         weights=(rng.random(n) * 10.0 ** rng.uniform(-3, 3, n)).tolist(), J=j)
        labels = rng.integers(1, 4, size=n)
        for cluster, table in minute_proportions(ds, labels, k=3).items():
            members = labels == cluster
            block, w = ds.levels[members], ds.weights[members]
            reference = np.zeros((t, j))
            for level in range(j):
                reference[:, level] = (w[:, None] * (block == level)).sum(axis=0)
            assert table.tobytes() == (reference / w.sum()).tobytes()

    def test_empty_clusters_are_skipped(self):
        ds = toy_dataset([[0, 1]], J=3)
        tables = minute_proportions(ds, [2], k=3)
        assert sorted(tables) == [2]

    def test_cost_follows_the_clusters_present(self):
        ds = toy_dataset([[0, 1], [2, 2], [1, 0]], weights=[1.0, 0.0, 2.0], J=3)
        tables = minute_proportions(ds, [10**9, 5, 1], k=10**9)  # a walk over 1..K would take hours
        assert list(tables) == [1, 10**9]  # ascending; cluster 5 has zero weight
        assert all(type(cluster) is int for cluster in tables)
        assert np.array_equal(tables[10**9], [[1, 0, 0], [0, 1, 0]])

    def test_label_length_mismatch_rejected(self):
        ds = toy_dataset([[0, 1]], J=3)
        with pytest.raises(ValueError, match="length"):
            minute_proportions(ds, [1, 1], k=2)


class TestCompositionTable:
    @pytest.fixture
    def dataset(self):
        return toy_dataset(
            [[0], [0], [0], [0]],
            weights=[1.0, 2.0, 3.0, 4.0],
            attrs=[
                {"wave": "1995"},
                {"wave": "1995"},
                {"wave": "2017"},
                {"wave": "2017"},
            ],
        )

    def test_weighted_counts(self, dataset):
        table = composition_table(dataset, [1, 2, 1, 2], k=2, attribute="wave")
        counts = {(r.cluster, r.value): r.weighted_count for r in table.rows}
        assert counts == {(1, "1995"): 1.0, (2, "1995"): 2.0, (1, "2017"): 3.0, (2, "2017"): 4.0}

    def test_shares_within_value_sum_to_one(self, dataset):
        table = composition_table(dataset, [1, 2, 1, 2], k=2, attribute="wave")
        for value in ("1995", "2017"):
            total = sum(r.share_within_value for r in table.rows if r.value == value)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_shares_within_cluster_sum_to_one(self, dataset):
        table = composition_table(dataset, [1, 2, 1, 2], k=2, attribute="wave")
        for cluster in (1, 2):
            total = sum(r.share_within_cluster for r in table.rows if r.cluster == cluster)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_unknown_attribute_rejected(self, dataset):
        with pytest.raises(ValueError, match="unknown attribute"):
            composition_table(dataset, [1, 2, 1, 2], k=2, attribute="income")

    def test_series_missing_the_attribute_are_excluded(self):
        ds = toy_dataset(
            [[0], [1]],
            attrs=[{"wave": "1995"}, {}],
        )
        table = composition_table(ds, [1, 1], k=1, attribute="wave")
        assert len(table.rows) == 1
        assert table.rows[0].weighted_count == 1.0
