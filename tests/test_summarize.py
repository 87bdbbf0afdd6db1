import numpy as np
import pytest

from walshscape import Dataset, composition_table, load_dataset, minute_proportions, save_dataset

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


def composition_loop(dataset, labels, attribute):
    """The dict loop that composition_table ran before it counted by bincount:
    ((cluster, value), count, share within value, share within cluster) rows."""
    counts, value_totals, cluster_totals = {}, {}, {}
    for value, label, weight in zip(dataset.attributes[attribute], labels, dataset.weights.tolist()):
        if value is None:
            continue
        counts[label, value] = counts.get((label, value), 0.0) + weight
        value_totals[value] = value_totals.get(value, 0.0) + weight
        cluster_totals[label] = cluster_totals.get(label, 0.0) + weight
    return [((cluster, value), count,
             count / value_totals[value] if value_totals[value] else 0.0,
             count / cluster_totals[cluster] if cluster_totals[cluster] else 0.0)
            for (cluster, value), count in sorted(counts.items())]


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
        counts = dict(zip(zip(table["clusters"].tolist(), table["values"]), table["weighted_count"].tolist()))
        assert counts == {(1, "1995"): 1.0, (2, "1995"): 2.0, (1, "2017"): 3.0, (2, "2017"): 4.0}

    def test_shares_within_value_sum_to_one(self, dataset):
        table = composition_table(dataset, [1, 2, 1, 2], k=2, attribute="wave")
        for value in ("1995", "2017"):
            total = sum(share for v, share in zip(table["values"], table["share_within_value"]) if v == value)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_shares_within_cluster_sum_to_one(self, dataset):
        table = composition_table(dataset, [1, 2, 1, 2], k=2, attribute="wave")
        for cluster in (1, 2):
            total = table["share_within_cluster"][table["clusters"] == cluster].sum()
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
        assert len(table["values"]) == 1
        assert table["weighted_count"][0] == 1.0

    def test_columns_are_aligned_and_typed(self, dataset):
        table = composition_table(dataset, [1, 2, 1, 2], k=2, attribute="wave")
        assert list(table) == ["clusters", "values", "weighted_count", "share_within_value",
                               "share_within_cluster"]
        assert table["clusters"].dtype == np.int64 and all(type(v) is str for v in table["values"])
        assert all(table[key].dtype == np.float64 and len(table[key]) == 4
                   for key in ("weighted_count", "share_within_value", "share_within_cluster"))

    def test_bits_match_the_dict_loop(self, rng, tmp_path):
        # zero weights, missing, empty, non-ASCII and NUL-holding values, and a
        # huge label; the values pass through a binary file, which keeps NULs
        n = 3000
        values = [None, "", "a", "b", "b\x00", "\x00", "ü", "b\x00\x00", "1995", "Ω"]
        weights = rng.random(n) * 10.0 ** rng.uniform(-3, 3, n)
        weights[rng.random(n) < 0.2] = 0.0
        weights[:7] = 0.0  # rows 0-6 hold the only row of their (cluster, value) pair
        column = [values[i] for i in rng.integers(0, len(values), n)]
        column[:7] = ["zero-only"] * 7
        labels = rng.choice([1, 2, 3, 7, 10**12], n)
        labels[:7] = 5
        path = tmp_path / "data.bin"
        save_dataset(Dataset(np.zeros((n, 2), dtype=np.int64), weights, [f"s{i}" for i in range(n)],
                             {"wave": column}), path, format="binary")
        dataset = load_dataset(path, format="binary")
        assert dataset.attributes["wave"] == column
        table = composition_table(dataset, labels, k=10**12, attribute="wave")
        reference = composition_loop(dataset, labels.tolist(), "wave")
        assert list(zip(table["clusters"].tolist(), table["values"])) == [key for key, *_ in reference]
        for column_name, position in (("weighted_count", 1), ("share_within_value", 2),
                                      ("share_within_cluster", 3)):
            expected = np.array([row[position] for row in reference])
            assert table[column_name].tobytes() == expected.tobytes(), column_name
        zero_only = [k for k, key in enumerate(reference) if key[0] == (5, "zero-only")]
        assert table["weighted_count"][zero_only].tolist() == [0.0]


@pytest.mark.parametrize("labels", [[1.9, 1.2], [1.0, 2.0], [True, True]])
@pytest.mark.parametrize("summary", [minute_proportions, composition_table])
def test_labels_that_are_not_integers_are_rejected(summary, labels):
    ds = toy_dataset([[0, 1], [1, 0]], attrs=[{"wave": "1995"}, {"wave": "2017"}])
    args = (ds, labels, 2) if summary is minute_proportions else (ds, labels, 2, "wave")
    with pytest.raises(ValueError, match="labels must be integers"):
        summary(*args)
