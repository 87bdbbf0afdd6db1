import json
import os

import numpy as np
import pytest

from walshscape import load_dataset
from walshscape.cli import main

from conftest import label_agreement, truth_labels


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    code = run_cli(
        "synth", "--n", "40", "--T", "96", "--noise", "0.05", "--seed", "7",
        "--out", str(path),
    )
    assert code == 0
    return path


class TestSynth:
    def test_writes_expected_row_count(self, data_csv):
        ds = load_dataset(data_csv)
        assert ds.N == 120 and ds.T == 96 and ds.J == 3
        assert all("truth" in s.attributes for s in ds.series)

    def test_identical_flags_identical_files(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert run_cli(
                "synth", "--n", "5", "--T", "32", "--noise", "0.1", "--seed", "3",
                "--out", str(path),
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_binary_format_round_trips(self, tmp_path):
        path = tmp_path / "data.bin"
        assert run_cli(
            "synth", "--n", "4", "--T", "16", "--noise", "0.0", "--seed", "1",
            "--out", str(path), "--format", "binary",
        ) == 0
        assert load_dataset(path, format="binary").N == 12


class TestCluster:
    def test_end_to_end_recovery(self, data_csv, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "cluster", "--input", str(data_csv), "--out", str(out),
            "--K", "3", "--S", "4", "--seed", "3",
        )
        assert code == 0
        ds = load_dataset(data_csv)
        labels = np.array(
            [int(line.split(",")[1]) for line in (out / "labels.csv").read_text().splitlines()[1:]]
        )
        assert label_agreement(truth_labels(ds), labels) >= 0.95
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["converged"] is True
        assert metrics["wcss"] == pytest.approx(sum(metrics["wcss_per_shard"]))
        centroids = np.loadtxt(out / "centroids.csv", delimiter=",")
        assert centroids.shape == (3, 100)
        order = (out / "order.csv").read_text().splitlines()[1:]
        assert sorted(int(line.split(",")[1]) for line in order) == list(range(ds.N))

    def test_byte_identical_label_files(self, data_csv, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert run_cli(
                "cluster", "--input", str(data_csv), "--out", str(out),
                "--K", "3", "--S", "2", "--seed", "11",
            ) == 0
        assert (outs[0] / "labels.csv").read_bytes() == (outs[1] / "labels.csv").read_bytes()
        assert (outs[0] / "centroids.csv").read_bytes() == (outs[1] / "centroids.csv").read_bytes()

    def test_single_cluster_gets_grand_sse(self, data_csv, tmp_path):
        out = tmp_path / "k1"
        assert run_cli(
            "cluster", "--input", str(data_csv), "--out", str(out),
            "--K", "1", "--S", "1", "--seed", "0",
        ) == 0
        labels = [line.split(",")[1] for line in (out / "labels.csv").read_text().splitlines()[1:]]
        assert set(labels) == {"1"}
        from walshscape import build_features, local_ranges, reduce_global_range

        ds = load_dataset(data_csv)
        ranges = local_ranges(ds.series)
        fm = build_features(ranges, reduce_global_range([ranges]), 100)
        grand = ((fm.rows - fm.rows.mean(axis=0)) ** 2).sum()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["wcss"] == pytest.approx(grand, rel=1e-12)

    def test_shard_count_does_not_move_the_partition_on_separable_data(self, data_csv, tmp_path):
        # features are shard-invariant, so S=1 and S=8 find the same partition
        # (labels may permute); the reported WCSS itself uses per-worker
        # centroids and is only comparable under a common centroid convention
        from walshscape import build_features, local_ranges, reduce_global_range

        ds = load_dataset(data_csv)
        ranges = local_ranges(ds.series)
        rows = build_features(ranges, reduce_global_range([ranges]), 100).rows

        def global_mean_wcss(labels):
            return sum(
                ((rows[labels == k] - rows[labels == k].mean(axis=0)) ** 2).sum()
                for k in np.unique(labels)
            )

        labels = {}
        for s in (1, 8):
            out = tmp_path / f"s{s}"
            assert run_cli(
                "cluster", "--input", str(data_csv), "--out", str(out),
                "--K", "3", "--S", str(s), "--seed", "3",
            ) == 0
            labels[s] = np.array(
                [int(line.split(",")[1])
                 for line in (out / "labels.csv").read_text().splitlines()[1:]]
            )
        assert label_agreement(labels[1], labels[8]) == 1.0
        assert global_mean_wcss(labels[1]) == pytest.approx(global_mean_wcss(labels[8]), abs=1e-9)


class TestElbow:
    def test_table_shape_and_reuse(self, data_csv, tmp_path):
        out = tmp_path / "elbow"
        assert run_cli(
            "elbow", "--input", str(data_csv), "--out", str(out),
            "--K", "2-5", "--S", "2", "--seed", "3",
        ) == 0
        lines = (out / "elbow.csv").read_text().splitlines()
        assert lines[0] == "K,wcss,feature_seconds,kmeans_seconds"
        ks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ks == [2, 3, 4, 5]
        fe = {line.split(",")[2] for line in lines[1:]}
        assert len(fe) == 1  # features computed once
        long_lines = (out / "elbow_long.csv").read_text().splitlines()
        assert long_lines[0] == "K,metric,value"
        assert len(long_lines) == 1 + 3 * 4

    def test_comma_list_accepted(self, data_csv, tmp_path):
        out = tmp_path / "elbow2"
        assert run_cli(
            "elbow", "--input", str(data_csv), "--out", str(out),
            "--K", "2,3", "--S", "1", "--seed", "0",
        ) == 0


class TestSummarize:
    def test_writes_proportions_and_composition(self, data_csv, tmp_path):
        run = tmp_path / "run"
        assert run_cli(
            "cluster", "--input", str(data_csv), "--out", str(run),
            "--K", "3", "--S", "2", "--seed", "3",
        ) == 0
        out = tmp_path / "summary"
        assert run_cli(
            "summarize", "--input", str(data_csv), "--labels", str(run / "labels.csv"),
            "--attributes", "truth", "--out", str(out),
        ) == 0
        proportions = sorted(p.name for p in out.glob("proportions_*.csv"))
        assert len(proportions) == 3
        table = np.loadtxt(out / proportions[0], delimiter=",", skiprows=1)
        assert table.shape == (96, 4)  # minute column + 3 levels
        assert np.allclose(table[:, 1:].sum(axis=1), 1.0, atol=1e-9)
        composition = (out / "composition_truth.csv").read_text().splitlines()
        assert composition[0].startswith("cluster,cluster_name,value")
        shares = {}
        for line in composition[1:]:
            parts = line.split(",")
            shares.setdefault(parts[2], 0.0)
            shares[parts[2]] += float(parts[4])
        assert all(abs(total - 1.0) < 1e-9 for total in shares.values())

    def test_cluster_names_applied(self, data_csv, tmp_path):
        run = tmp_path / "run"
        run_cli("cluster", "--input", str(data_csv), "--out", str(run),
                "--K", "2", "--S", "1", "--seed", "0")
        out = tmp_path / "named"
        assert run_cli(
            "summarize", "--input", str(data_csv), "--labels", str(run / "labels.csv"),
            "--cluster-names", "1=in home,2=night owl", "--out", str(out),
        ) == 0
        assert (out / "proportions_in home.csv").exists()

    def test_unknown_attribute_leaves_no_partial_output(self, data_csv, tmp_path):
        run = tmp_path / "run"
        run_cli("cluster", "--input", str(data_csv), "--out", str(run),
                "--K", "3", "--S", "1", "--seed", "0")
        out = tmp_path / "broken"
        code = run_cli(
            "summarize", "--input", str(data_csv), "--labels", str(run / "labels.csv"),
            "--attributes", "no_such_attribute", "--out", str(out),
        )
        assert code == 2
        assert not out.exists() or not list(out.iterdir())

    def test_mismatched_labels_rejected(self, data_csv, tmp_path):
        bad = tmp_path / "bad_labels.csv"
        bad.write_text("id,label\nwrong-id,1\n")
        code = run_cli(
            "summarize", "--input", str(data_csv), "--labels", str(bad),
            "--out", str(tmp_path / "x"),
        )
        assert code == 2


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert run_cli("cluster", "--no-such-flag") == 1
        assert run_cli("no-such-command") == 1

    def test_bad_k_list_is_usage_error(self, data_csv, tmp_path):
        for bad in ("0", "2-x", "a,b"):
            assert run_cli(
                "elbow", "--input", str(data_csv), "--out", str(tmp_path / "x"), "--K", bad,
            ) == 1

    def test_round_budget_below_one_is_data_error(self, data_csv, tmp_path):
        out = tmp_path / "o"
        for command, k in (("cluster", "2"), ("elbow", "2,3")):
            for bad in ("0", "-1"):
                assert run_cli(
                    command, "--input", str(data_csv), "--out", str(out), "--K", k, f"--I={bad}",
                ) == 2
        assert not out.exists()

    def test_missing_input_is_data_error(self, tmp_path):
        assert run_cli(
            "cluster", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o"),
            "--K", "2",
        ) == 2

    def test_all_zero_dataset_is_data_error(self, tmp_path, capsys):
        zeros = tmp_path / "zeros.csv"
        zeros.write_text("id,t0,t1,t2,t3\n" + "".join(f"p{i},0,0,0,0\n" for i in range(4)))
        out = tmp_path / "o"
        assert run_cli("cluster", "--input", str(zeros), "--out", str(out), "--K", "2") == 2
        assert "every series has the same Walsh range" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_dataset_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,t0,t1\np1,0,1\np2,0\n")
        assert run_cli(
            "cluster", "--input", str(bad), "--out", str(tmp_path / "o"), "--K", "2",
        ) == 2

    def test_env_override_supplies_default_seed(self, data_csv, tmp_path, monkeypatch):
        outs = []
        for name, env in (("e1", "5"), ("e2", "5"), ("e3", "6")):
            monkeypatch.setenv("WALSHSCAPE_SEED", env)
            out = tmp_path / name
            assert run_cli(
                "cluster", "--input", str(data_csv), "--out", str(out),
                "--K", "3", "--S", "2",
            ) == 0
            outs.append((out / "labels.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_explicit_flag_beats_env(self, data_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("WALSHSCAPE_SEED", "5")
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        for out in (out1, out2):
            assert run_cli(
                "cluster", "--input", str(data_csv), "--out", str(out),
                "--K", "3", "--S", "2", "--seed", "9",
            ) == 0
        assert (out1 / "labels.csv").read_bytes() == (out2 / "labels.csv").read_bytes()
