import argparse
import builtins
import csv
import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import walshscape.cli as cli_module
import walshscape.dcc as dcc_module
from walshscape import (
    Dataset,
    generate_synthetic,
    load_dataset,
    make_shard_plan,
    save_dataset,
)
from walshscape.cli import UsageError, _check_titles, _proportions_csv, main

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
        assert None not in ds.attributes["truth"]

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

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        def writes_half(dataset, path, format):
            with open(path, "w") as fh:
                fh.write("id,w")
            raise OSError("disk full")

        monkeypatch.setattr(cli_module, "save_dataset", writes_half)
        assert run_cli("synth", "--n", "2", "--T", "8", "--out", str(tmp_path / "data.csv")) == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert list(tmp_path.iterdir()) == []


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
        assert (metrics["cycle_start"], metrics["cycle_period"]) == (None, None)
        assert metrics["wcss"] == pytest.approx(sum(metrics["wcss_per_shard"]))
        centroids = np.loadtxt(out / "centroids.csv", delimiter=",")
        assert centroids.shape == (3, 100)
        order = (out / "order.csv").read_text().splitlines()[1:]
        assert sorted(int(line.split(",")[1]) for line in order) == list(range(ds.N))

    def test_oscillating_run_says_so(self, data_csv, tmp_path, capsys):
        out = tmp_path / "cycle"
        assert run_cli(
            "cluster", "--input", str(data_csv), "--out", str(out),
            "--K", "4", "--S", "2", "--seed", "2",
        ) == 0
        assert "rounds=100 oscillating with period 2 from round 3 ->" in capsys.readouterr().out
        metrics = json.loads((out / "metrics.json").read_text())
        assert (metrics["rounds_used"], metrics["converged"]) == (100, False)
        assert (metrics["cycle_start"], metrics["cycle_period"]) == (3, 2)

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
        ranges = local_ranges(ds.levels)
        fm = build_features(ranges, reduce_global_range([ranges]), 100)
        grand = ((fm - fm.mean(axis=0)) ** 2).sum()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["wcss"] == pytest.approx(grand, rel=1e-12)

    def test_shard_count_does_not_move_the_partition_on_separable_data(self, data_csv, tmp_path):
        # features are shard-invariant, so S=1 and S=8 find the same partition
        # (labels may permute); the reported WCSS itself uses per-worker
        # centroids and is only comparable under a common centroid convention
        from walshscape import build_features, local_ranges, reduce_global_range

        ds = load_dataset(data_csv)
        ranges = local_ranges(ds.levels)
        rows = build_features(ranges, reduce_global_range([ranges]), 100)

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

    def test_a_write_that_fails_part_way_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        dataset = generate_synthetic(4, 16, 0.1, 2)
        dataset.ids[5] = "x€"  # latin-1 has no euro sign, so labels.csv fails after its first rows
        save_dataset(dataset, tmp_path / "data.csv")
        latin1 = lambda *args, **kw: builtins.open(*args, encoding="latin-1", **kw)  # noqa: E731
        monkeypatch.setattr(cli_module, "open", latin1, raising=False)
        out = tmp_path / "run"
        assert run_cli("cluster", "--input", str(tmp_path / "data.csv"), "--out", str(out), "--K", "2") == 2
        assert "'latin-1' codec can't encode" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestElbow:
    def test_table_shape_and_reuse(self, data_csv, tmp_path):
        out = tmp_path / "elbow"
        assert run_cli(
            "elbow", "--input", str(data_csv), "--out", str(out),
            "--K", "2-5", "--S", "2", "--seed", "3",
        ) == 0
        lines = (out / "elbow.csv").read_text().splitlines()
        assert lines[0] == "K,wcss,feature_seconds,kmeans_seconds,rounds_used,converged,cycle_period"
        ks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ks == [2, 3, 4, 5]
        fe = {line.split(",")[2] for line in lines[1:]}
        assert len(fe) == 1  # features computed once
        assert lines[3].endswith(",100,False,2")  # K=4 oscillates for the whole budget
        long_lines = (out / "elbow_long.csv").read_text().splitlines()
        assert long_lines[0] == "K,metric,value"
        assert len(long_lines) == 1 + 6 * 4
        k4 = lines[3].split(",")
        assert long_lines[13:19] == [
            f"4,{metric},{value}" for metric, value in zip(lines[0].split(",")[1:], k4[1:])
        ]

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

    def test_a_huge_label_costs_only_the_clusters_present(self, tmp_path):
        data = tmp_path / "small.csv"
        assert run_cli("synth", "--n", "4", "--T", "16", "--noise", "0.1", "--seed", "2",
                       "--out", str(data)) == 0
        ids = [s.id for s in load_dataset(data).series]
        labels = [1 + i % 3 for i in range(len(ids) - 1)] + [10**9]
        path = tmp_path / "labels.csv"
        path.write_text("id,label\n" + "".join(f"{i},{l}\n" for i, l in zip(ids, labels)))
        out = tmp_path / "summary"
        started = time.perf_counter()
        assert run_cli(
            "summarize", "--input", str(data), "--labels", str(path), "--attributes", "truth",
            "--cluster-names", "2=night", "--out", str(out),
        ) == 0
        assert time.perf_counter() - started < 5.0
        assert sorted(p.name for p in out.glob("proportions_*.csv")) == [
            "proportions_cluster1.csv", "proportions_cluster1000000000.csv",
            "proportions_cluster3.csv", "proportions_night.csv",
        ]
        composition = (out / "composition_truth.csv").read_text()
        assert "\n1000000000,cluster1000000000," in composition and "\n2,night," in composition

    def test_ids_and_values_with_commas_quotes_and_newlines_survive(self, tmp_path):
        awkward = ["a,1", 'b"2', "c\n3"]
        base = generate_synthetic(4, 32, noise=0.05, seed=1)
        data = tmp_path / "awkward.csv"
        save_dataset(Dataset(
            base.levels, np.ones(base.N), [f"{awkward[i % 3]}-{i}" for i in range(base.N)],
            {"wave": ["1995,x" if i % 2 else "2017" for i in range(base.N)]},
        ), data)
        run, out = tmp_path / "run", tmp_path / "summary"
        assert run_cli("cluster", "--input", str(data), "--out", str(run), "--K", "2", "--S", "1") == 0
        with open(run / "labels.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows[1:]] == load_dataset(data).ids
        assert run_cli("summarize", "--input", str(data), "--labels", str(run / "labels.csv"),
                       "--attributes", "wave", "--out", str(out)) == 0
        with open(out / "composition_wave.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {6}
        assert {row[2] for row in rows[1:]} == {"1995,x", "2017"}

    def test_mismatched_labels_rejected(self, data_csv, tmp_path):
        bad = tmp_path / "bad_labels.csv"
        bad.write_text("id,label\nwrong-id,1\n")
        code = run_cli(
            "summarize", "--input", str(data_csv), "--labels", str(bad),
            "--out", str(tmp_path / "x"),
        )
        assert code == 2


FORMATS, TRANSPORTS = ("csv", "binary"), ("inproc", "socket")
SHARED = {  # option: (type, default, choices, required, environment variable suffix)
    "--input": (None, None, None, True, None),
    "--out": (None, None, None, True, None),
    "--format": (None, "csv", FORMATS, False, "FORMAT"),
}
RUN = {
    "--S": ("int", 1, None, False, "S"),
    "--L": ("int", 100, None, False, "L"),
    "--I": ("int", 100, None, False, "I"),
    "--seed": ("int", 0, None, False, "SEED"),
}
PINNED_FLAGS = {
    "synth": {
        "--n": ("int", None, None, True, None),
        "--T": ("int", 1440, None, False, "T"),
        "--noise": ("float", 0.05, None, False, "NOISE"),
        "--out": SHARED["--out"], "--format": SHARED["--format"], "--seed": RUN["--seed"],
    },
    "cluster": {
        **SHARED, **RUN,
        "--K": ("int", None, None, True, None),
        "--transport": (None, "inproc", TRANSPORTS, False, "TRANSPORT"),
    },
    "elbow": {**SHARED, **RUN, "--K": (None, None, None, True, None)},
    "summarize": {
        **SHARED,
        "--labels": (None, None, None, True, None),
        "--attributes": (None, "", None, False, None),
        "--cluster-names": (None, "", None, False, None),
    },
}


def test_every_command_keeps_its_pinned_flags(monkeypatch):
    # an env-backed default reads as ("env", suffix, default), so the table pins the names too
    monkeypatch.setattr(cli_module, "_env", lambda name, default: ("env", name, default))
    commands = next(a for a in cli_module.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    built = {}
    for command, parser in commands.items():
        built[command] = {}
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            default, env = action.default, None
            if isinstance(default, tuple) and default[0] == "env":
                _, env, default = default
            (option,) = action.option_strings
            built[command][option] = (getattr(action.type, "__name__", None), default,
                                      None if action.choices is None else tuple(action.choices),
                                      action.required, env)
    assert built == PINNED_FLAGS


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert run_cli("cluster", "--no-such-flag") == 1
        assert run_cli("no-such-command") == 1

    def test_bad_k_list_is_usage_error(self, data_csv, tmp_path):
        for bad in ("0", "2-x", "a,b", "1_0,\u0663", "\u0663", "2-\u0665"):  # int() takes the last three
            assert run_cli(
                "elbow", "--input", str(data_csv), "--out", str(tmp_path / "x"), "--K", bad,
            ) == 1

    def test_repeated_k_is_usage_error_naming_it(self, data_csv, tmp_path, capsys):
        out = tmp_path / "x"
        for repeated in ("3,3", "2,3,4,3"):
            assert run_cli("elbow", "--input", str(data_csv), "--out", str(out), "--K", repeated) == 1
            assert f"K list '{repeated}' names K=3 twice" in capsys.readouterr().err
        # checked before the load: a missing input is not reached
        assert run_cli("elbow", "--input", str(tmp_path / "missing.csv"), "--out", str(out), "--K", "3,3") == 1
        assert not out.exists()

    def test_round_budget_below_one_is_data_error(self, data_csv, tmp_path):
        out = tmp_path / "o"
        for command, k in (("cluster", "2"), ("elbow", "2,3")):
            for bad in ("0", "-1"):
                assert run_cli(
                    command, "--input", str(data_csv), "--out", str(out), "--K", k, f"--I={bad}",
                ) == 2
        assert not out.exists()

    def test_out_of_memory_is_an_error_line(self, data_csv, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):  # as numpy raises it; nothing is allocated for real
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000000,)")

        monkeypatch.setattr(cli_module, "run_dcc", exhausted)
        out = tmp_path / "o"
        assert run_cli("cluster", "--input", str(data_csv), "--out", str(out), "--K", "2") == 2
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 74.5 GiB for an array with shape (10000000000,)\n")
        assert not out.exists()

    def test_out_of_memory_without_a_reason_is_a_bare_error_line(self, data_csv, tmp_path, monkeypatch, capsys):
        def exhausted(text):  # as a list too long to allocate raises it, with no text
            raise MemoryError()

        monkeypatch.setattr(cli_module, "_parse_k_list", exhausted)
        out = tmp_path / "o"
        assert run_cli("elbow", "--input", str(data_csv), "--out", str(out), "--K", "1-100000000000") == 2
        assert capsys.readouterr().err == "error: out of memory\n"
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

    def test_level_beyond_int64_is_data_error_naming_its_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,w,J,t0,t1\np1,1.0,3,0,1\np2,1.0,3,99999999999999999999,0\n")
        out = tmp_path / "o"
        assert run_cli("cluster", "--input", str(bad), "--out", str(out), "--K", "2") == 2
        assert capsys.readouterr().err == "error: level out of range at row 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, where", [
        ("id,t0,t1\np1,0,1\n{long},0,1\n", "malformed row 2"),
        ("id,t0,{long}\np1,0,1\n", "malformed header"),
    ])
    def test_a_field_beyond_the_csv_limit_is_data_error_naming_its_row(self, tmp_path, capsys,
                                                                        text, where):
        bad = tmp_path / "bad.csv"
        bad.write_text(text.format(long="x" * (csv.field_size_limit() + 1)))
        out = tmp_path / "o"
        assert run_cli("cluster", "--input", str(bad), "--out", str(out), "--K", "2") == 2
        assert capsys.readouterr().err == (
            f"error: {where}: field larger than field limit ({csv.field_size_limit()})\n")
        assert not out.exists()

    @staticmethod
    def _labels_lines(data_csv):
        ids = [s.id for s in load_dataset(data_csv).series]
        return ["id,label"] + [f"{ident},{1 + i % 2}" for i, ident in enumerate(ids)]

    def test_malformed_labels_file_is_data_error(self, data_csv, tmp_path, capsys):
        lines = self._labels_lines(data_csv)
        ident = lines[3].split(",")[0]
        for line, bad_row, message in (
            (0, "id,cluster", "bad labels file header 'id,cluster'"),
            (3, "wrong-id,1", f"labels file row 3: id 'wrong-id' does not match dataset id {ident!r}"),
            (3, ident, "labels file row 3 has 1 fields"),
            (3, f"{ident},2,extra", "labels file row 3 has 3 fields"),
            (3, f"{ident},two", "labels file row 3: label 'two' is not an integer"),
            # int() takes these, but cluster never writes them
            (3, f"{ident},1_0", "labels file row 3: label '1_0' is not an integer"),
            (3, f"{ident},\u0663", "labels file row 3: label '\u0663' is not an integer"),
            (3, f"{ident}, 2 ", "labels file row 3: label ' 2 ' is not an integer"),
            (3, f"{ident},+-1", "labels file row 3: label '+-1' is not an integer"),
            (3, f"{ident},-1", "labels must be 1-based cluster indices"),  # an integer, out of range
        ):
            path = tmp_path / "labels.csv"
            path.write_text("\n".join(lines[:line] + [bad_row] + lines[line + 1:]) + "\n")
            out = tmp_path / "o"
            assert run_cli(
                "summarize", "--input", str(data_csv), "--labels", str(path), "--out", str(out),
            ) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_a_labels_field_beyond_the_csv_limit_is_data_error_naming_its_row(self, data_csv,
                                                                               tmp_path, capsys):
        lines = self._labels_lines(data_csv)
        path = tmp_path / "labels.csv"
        long = "x" * (csv.field_size_limit() + 1)
        path.write_text("\n".join(lines[:3] + ["", f"{long},1"] + lines[4:]) + "\n")  # a blank line too
        out = tmp_path / "o"
        assert run_cli(
            "summarize", "--input", str(data_csv), "--labels", str(path), "--out", str(out),
        ) == 2
        assert capsys.readouterr().err == (
            f"error: labels file row 3: field larger than field limit ({csv.field_size_limit()})\n")
        assert not out.exists()

    @pytest.mark.parametrize("names", ["home", "x=home", "0=home", "1=a/b", "1=", "1=x,1=y",
                                       "1=x,2=x", "1=cluster2", "1_0=x", "\u0663=x"])
    def test_bad_cluster_names_are_usage_errors(self, data_csv, tmp_path, names, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("\n".join(self._labels_lines(data_csv)) + "\n")
        out = tmp_path / "o"
        assert run_cli(
            "summarize", "--input", str(data_csv), "--labels", str(labels),
            "--cluster-names", names, "--out", str(out),
        ) == 1
        assert "--cluster-names" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["a/b", "a\0b"])
    def test_an_attribute_that_cannot_title_a_file_is_a_usage_error(self, tmp_path, name, capsys):
        base = generate_synthetic(2, 16, noise=0.05, seed=1)
        data = tmp_path / "data.bin"  # the binary format keeps the name's NUL
        save_dataset(Dataset(base.levels, base.weights, base.ids, {name: ["x"] * base.N}), data,
                     format="binary")
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label\n" + "".join(f"{ident},1\n" for ident in base.ids))
        out = tmp_path / "o"
        assert run_cli(
            "summarize", "--input", str(data), "--format", "binary", "--labels", str(labels),
            "--attributes", f"truth,{name}", "--out", str(out),
        ) == 1
        assert capsys.readouterr().err == (
            f"usage error: bad --attributes entry {name!r}: a name is a non-empty file title without '/'\n")
        assert not out.exists()

    def test_a_name_may_not_take_an_empty_clusters_title(self, data_csv, tmp_path, capsys):
        ids = [s.id for s in load_dataset(data_csv).series]
        labels = tmp_path / "labels.csv"  # clusters 1 and 3; cluster 2 is empty
        labels.write_text("id,label\n" + "".join(f"{i},{3 if n == 0 else 1}\n" for n, i in enumerate(ids)))
        out = tmp_path / "o"
        assert run_cli(
            "summarize", "--input", str(data_csv), "--labels", str(labels),
            "--cluster-names", "1=cluster2", "--out", str(out),
        ) == 1
        assert "gives clusters 1 and 2 the same title 'cluster2'" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("name, value", [("SEED", "x"), ("S", "two"), ("I", "1.5")])
    def test_malformed_env_value_yields_to_an_explicit_flag(self, data_csv, tmp_path, monkeypatch, name, value):
        args = ("cluster", "--input", str(data_csv), "--K", "3", "--S", "2", "--I", "100", "--seed", "9")
        assert run_cli(*args, "--out", str(tmp_path / "plain")) == 0
        monkeypatch.setenv(f"WALSHSCAPE_{name}", value)
        assert run_cli(*args, "--out", str(tmp_path / "env")) == 0
        labels = [(tmp_path / out / "labels.csv").read_bytes() for out in ("plain", "env")]
        assert labels[0] == labels[1]

    def test_malformed_env_value_is_a_usage_error_naming_its_flag(self, data_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("WALSHSCAPE_SEED", "x")
        out = tmp_path / "o"
        assert run_cli("cluster", "--input", str(data_csv), "--out", str(out), "--K", "3") == 1
        assert capsys.readouterr().err == "usage error: argument --seed: invalid int value: 'x'\n"
        assert not out.exists()

    def test_malformed_env_seed_leaves_summarize_alone(self, data_csv, tmp_path, monkeypatch, capsys):
        run = tmp_path / "run"
        assert run_cli("cluster", "--input", str(data_csv), "--out", str(run), "--K", "3") == 0
        monkeypatch.setenv("WALSHSCAPE_SEED", "x")
        out = tmp_path / "summary"
        capsys.readouterr()
        assert run_cli(
            "summarize", "--input", str(data_csv), "--labels", str(run / "labels.csv"), "--out", str(out),
        ) == 0
        assert capsys.readouterr().err == ""
        assert len(list(out.glob("proportions_*.csv"))) == 3

    @pytest.mark.parametrize("command", ["synth", "cluster", "elbow"])
    @pytest.mark.parametrize("from_env", [False, True], ids=["flag", "environment"])
    def test_a_negative_seed_is_a_usage_error_before_any_load(
            self, data_csv, tmp_path, monkeypatch, capsys, command, from_env):
        def refuse(*args, **kwargs):
            raise AssertionError("the command ran")

        for name in ("load_dataset", "generate_synthetic"):
            monkeypatch.setattr(cli_module, name, refuse)
        args = {
            "synth": ("--n", "2", "--T", "8"),
            "cluster": ("--input", str(data_csv), "--K", "3"),
            "elbow": ("--input", str(data_csv), "--K", "2,3"),
        }[command]
        if from_env:
            monkeypatch.setenv("WALSHSCAPE_SEED", "-1")
        else:
            args += ("--seed", "-1")
        out = tmp_path / "o"
        assert run_cli(command, *args, "--out", str(out)) == 1
        assert capsys.readouterr().err == ("usage error: argument --seed: "
                                           "expected a non-negative integer, got -1\n")
        assert not out.exists()

    def test_a_negative_env_seed_leaves_summarize_alone(self, data_csv, tmp_path, monkeypatch, capsys):
        run = tmp_path / "run"
        assert run_cli("cluster", "--input", str(data_csv), "--out", str(run), "--K", "3") == 0
        monkeypatch.setenv("WALSHSCAPE_SEED", "-1")
        capsys.readouterr()
        out = tmp_path / "summary"
        assert run_cli(
            "summarize", "--input", str(data_csv), "--labels", str(run / "labels.csv"), "--out", str(out),
        ) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["synth", "cluster", "elbow", "summarize"])
    @pytest.mark.parametrize("name, value, allowed", [
        ("FORMAT", "xml", ("csv", "binary")), ("TRANSPORT", "tcp", ("inproc", "socket")),
    ])
    def test_env_value_outside_the_choices_is_a_usage_error(
            self, data_csv, tmp_path, monkeypatch, capsys, command, name, value, allowed):
        labels = tmp_path / "run" / "labels.csv"
        assert run_cli("cluster", "--input", str(data_csv), "--K", "3", "--out", str(labels.parent)) == 0
        args = {
            "synth": ("--n", "2", "--T", "8"),
            "cluster": ("--input", str(data_csv), "--K", "3"),
            "elbow": ("--input", str(data_csv), "--K", "2,3"),
            "summarize": ("--input", str(data_csv), "--labels", str(labels)),
        }[command]
        monkeypatch.setenv(f"WALSHSCAPE_{name}", value)
        capsys.readouterr()
        out = tmp_path / "o"
        code = run_cli(command, *args, "--out", str(out))
        if name == "TRANSPORT" and command != "cluster":  # a command without the flag ignores it
            assert code == 0 and capsys.readouterr().err == ""
            return
        flag = f"--{name.lower()}"
        assert code == 1
        assert capsys.readouterr().err == (f"usage error: argument {flag}: invalid choice from "
                                           f"WALSHSCAPE_{name}: {value!r} "
                                           f"(choose from {allowed[0]!r}, {allowed[1]!r})\n")
        assert not out.exists()
        # an explicit valid flag still wins over the environment's value
        assert run_cli(command, *args, "--out", str(out), flag, allowed[0]) == 0


def _fstring_proportions(table) -> str:
    """The proportions file as cmd_summarize formatted it value by value with f-strings."""
    header = "minute," + ",".join(f"level_{j}" for j in range(table.shape[1]))
    return header + "\n" + "".join(
        f"{minute}," + ",".join(f"{v:.17g}" for v in row) + "\n" for minute, row in enumerate(table)
    )


def test_proportions_csv_equals_the_fstring_formatting():
    # zeros, a third, subnormals, and values whose shortest repr needs 17 digits
    values = [0.0, 1.0, 1 / 3, 5e-324, 2.2250738585072009e-308, 0.1 + 0.2, 1 - 2**-53, 2 / 3,
              -0.0, 123456789.12345678]
    for j in (2, 3, 5, 10):
        table = np.array(values * j).reshape(-1, j)
        assert _proportions_csv(table) == _fstring_proportions(table)


def test_centroid_and_proportion_files_are_pinned(tmp_path, monkeypatch):
    # the exact text of both %.17g files for zero, one, a tenth, a third and
    # the smallest subnormal, with the minute column counting 0..T-1
    values = [0.0, 1.0, 0.1, 1 / 3, 5e-324]
    table = np.array([values[i:] + values[:i] for i in range(5)])
    result = SimpleNamespace(labels=np.ones(3, dtype=np.int64), order=np.arange(3),
                             centroids=SimpleNamespace(centroids=np.array([values, values[::-1]])),
                             wcss=0.0, wcss_per_shard=[0.0], rounds_used=1, converged=True,
                             cycle_start=None, cycle_period=None, feature_seconds=0.0, kmeans_seconds=0.0)
    monkeypatch.setattr(cli_module, "run_dcc", lambda *args, **kwargs: result)
    monkeypatch.setattr(cli_module, "minute_proportions", lambda *args: {1: table})
    data, run, summary = tmp_path / "data.csv", tmp_path / "run", tmp_path / "summary"
    save_dataset(generate_synthetic(1, 8, 0.0, 1), data)
    assert run_cli("cluster", "--input", str(data), "--K", "2", "--out", str(run)) == 0
    assert run_cli("summarize", "--input", str(data), "--labels", str(run / "labels.csv"),
                   "--out", str(summary)) == 0
    assert (run / "centroids.csv").read_text() == (
        "0,1,0.10000000000000001,0.33333333333333331,4.9406564584124654e-324\n"
        "4.9406564584124654e-324,0.33333333333333331,0.10000000000000001,1,0\n"
    )
    assert (summary / "proportions_cluster1.csv").read_text() == (
        "minute,level_0,level_1,level_2,level_3,level_4\n"
        "0,0,1,0.10000000000000001,0.33333333333333331,4.9406564584124654e-324\n"
        "1,1,0.10000000000000001,0.33333333333333331,4.9406564584124654e-324,0\n"
        "2,0.10000000000000001,0.33333333333333331,4.9406564584124654e-324,0,1\n"
        "3,0.33333333333333331,4.9406564584124654e-324,0,1,0.10000000000000001\n"
        "4,4.9406564584124654e-324,0,1,0.10000000000000001,0.33333333333333331\n"
    )


def test_order_csv_equals_the_numpy_scalar_formatting(data_csv, tmp_path):
    out = tmp_path / "run"
    assert run_cli("cluster", "--input", str(data_csv), "--K", "3", "--S", "4", "--seed", "2",
                   "--out", str(out)) == 0
    order = np.concatenate(make_shard_plan(120, 4, 2))
    expected = "position,original_index\n" + "".join(f"{pos},{orig}\n" for pos, orig in enumerate(order))
    assert (out / "order.csv").read_text() == expected


def test_a_cluster_run_draws_its_shard_order_once(data_csv, tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return make_shard_plan(*args)

    monkeypatch.setattr(dcc_module, "make_shard_plan", counted)
    monkeypatch.setattr(cli_module, "make_shard_plan", counted)
    assert run_cli("cluster", "--input", str(data_csv), "--K", "3", "--S", "4", "--seed", "2",
                   "--out", str(tmp_path / "run")) == 0
    assert calls == [(120, 4, 2)]


def test_outputs_do_not_depend_on_the_blas_kernel_or_its_threads(data_csv, tmp_path, record_property):
    # K=4 oscillates with period 2 on this data, so the cycle skip runs too;
    # OPENBLAS_VERBOSE=2 makes OpenBLAS name the kernel it picked on stderr
    script = (
        "import sys; from walshscape.cli import main; out, data = sys.argv[1:]; "
        "run = ['--input', data, '--S', '2', '--seed', '2']; "
        "sys.exit(main(['cluster', '--K', '4', *run, '--out', out + '/cluster'])"
        " or main(['elbow', '--K', '2-4', *run, '--out', out + '/elbow']))"
    )
    src = os.path.dirname(os.path.dirname(cli_module.__file__))
    outputs, cores = {}, {}
    for coretype in (None, "Prescott", "Sandybridge"):
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                       OPENBLAS_VERBOSE="2", OPENBLAS_NUM_THREADS=threads)
            env.pop("OPENBLAS_CORETYPE", None)
            if coretype is not None:
                env["OPENBLAS_CORETYPE"] = coretype
            out = tmp_path / f"{coretype}-{threads}"
            done = subprocess.run([sys.executable, "-c", script, str(out), str(data_csv)], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            cores[coretype, threads] = [line for line in done.stderr.splitlines() if line.startswith("Core:")]
            elbow = [row.split(",") for row in (out / "elbow" / "elbow.csv").read_text().splitlines()]
            outputs[coretype, threads] = (
                (out / "cluster" / "labels.csv").read_bytes(),
                (out / "cluster" / "centroids.csv").read_bytes(),
                [row[:2] + row[4:] for row in elbow],  # all but the two timer columns
            )
    record_property("openblas_cores", repr(cores))
    reference = outputs[None, "1"]
    assert (reference[2][-1][0], reference[2][-1][-1]) == ("4", "2")
    for config, files in outputs.items():
        assert files == reference, (config, cores[config])


def _walk_titles(names, k):
    """Oracle: title every cluster 1..k in turn and stop at the first repeat."""
    owner = {}
    for cluster in range(1, k + 1):
        title = names.get(cluster, f"cluster{cluster}")
        if title in owner:
            return f"--cluster-names gives clusters {owner[title]} and {cluster} the same title {title!r}"
        owner[title] = cluster
    return None


@given(
    st.dictionaries(
        st.integers(1, 12),
        st.sampled_from(["a", "b", "cluster", "cluster0", "cluster02", "cluster٣"])
        | st.integers(1, 14).map(lambda m: f"cluster{m}"),
        max_size=8,
    ),
    st.integers(1, 12),
)
def test_title_check_reports_the_clash_a_walk_would_meet(names, k):
    expected = _walk_titles(names, k)
    if expected is None:
        _check_titles(names, k)
    else:
        with pytest.raises(UsageError) as raised:
            _check_titles(names, k)
        assert str(raised.value) == expected


def test_title_check_takes_a_long_digit_name_as_a_plain_name():
    # int() refuses digit strings this long; no cluster <= K can own the title
    _check_titles({1: "cluster" + "9" * 5000, 2: "night"}, 10**9)


def test_title_check_walks_only_the_clusters_a_name_can_reach():
    # a walk over 1..k would take a billion steps to meet cluster 5
    with pytest.raises(UsageError) as raised:
        _check_titles({5: "cluster2"}, 10**9)
    assert str(raised.value) == "--cluster-names gives clusters 2 and 5 the same title 'cluster2'"
