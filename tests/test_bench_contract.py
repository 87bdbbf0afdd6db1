"""What the benchmark in perfbench/ relies on in the package.

perfbench/ is only read here.  Its tracer patches package functions by
(module, attribute) name, and its input set-up assigns ids and survey
weights through `Dataset.series[i].id` / `.weight` before saving.  A
rename, or a data model whose series are copies, breaks the benchmark,
and a CSV reader that sends the bench's own file layout to its row loop
takes survey-csv's ingest gain away; these tests say so without a bench
run.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from walshscape import load_dataset, series

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracer = _load("tracer")
    for module_name, attr, *_ in tracer.WRAPS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)


def test_lloyd_keeps_the_arguments_the_tracer_reads():
    # the tracer reads max_iters as the third positional argument and
    # passes on_iteration by keyword
    params = list(inspect.signature(importlib.import_module("walshscape.dcc").lloyd).parameters)
    assert params[2] == "max_iters"
    assert "on_iteration" in params


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_input_set_up_writes_the_ids_and_weights_it_assigns(tmp_path, monkeypatch, fmt):
    runner = _load("runner")
    generate, generated = series.generate_synthetic, []

    def capturing(*args):
        dataset = generate(*args)
        generated.append(dataset)
        return dataset

    monkeypatch.setattr(series, "generate_synthetic", capturing)
    out = tmp_path / f"input.{fmt}"
    runner.make_input(str(out), fmt, 3, 16, 0.05, 4, 1)
    [assigned] = generated
    written = load_dataset(out, format=fmt)
    plain = generate(3, 16, 0.05, 4)
    assert written.N == 9
    assert [s.id for s in written.series] == [s.id for s in assigned.series]
    assert [s.weight for s in written.series] == [s.weight for s in assigned.series]
    assert [s.id for s in written.series] != [s.id for s in plain.series]
    assert [s.weight for s in written.series] != [s.weight for s in plain.series]


def test_bench_csv_input_takes_the_bulk_reader(tmp_path, monkeypatch):
    runner = _load("runner")
    out = tmp_path / "input.csv"
    runner.make_input(str(out), "csv", 3, 16, 0.05, 4, 1)
    assert out.read_bytes().startswith(b"id,w,J,attr:truth,t0,")

    def refuse(path):
        raise AssertionError("the bench's CSV input went through the row loop")

    monkeypatch.setattr(series, "_load_csv_rows", refuse)
    assert load_dataset(out).N == 9


def _runner_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def test_traced_survey_csv_commands_record_one_load_span_each(tmp_path):
    # the traced survey-csv job at a small size: input set-up, cluster, summarize
    data, run, trace = tmp_path / "input.csv", tmp_path / "run", tmp_path / "trace"
    trace.mkdir()
    commands = {
        "setup": ["input", str(data), "csv", "10", "64", "0.05", "1", "1"],
        "c0": ["cli", "cluster", "--input", str(data), "--format", "csv", "--out", str(run),
               "--K", "3", "--S", "2", "--L", "20", "--I", "5", "--seed", "1"],
        "c1": ["cli", "summarize", "--input", str(data), "--format", "csv",
               "--labels", str(run / "labels.csv"), "--attributes", "truth",
               "--out", str(tmp_path / "summary")],
    }
    for tag, argv in commands.items():
        done = subprocess.run(
            [sys.executable, str(PERFBENCH / "runner.py"), "--trace", str(trace), "job", tag, *argv],
            env=_runner_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, (tag, done.stdout, done.stderr)
    for tag in ("c0", "c1"):
        spans = json.loads((trace / f"spans-{tag}-main.json").read_text())["spans"]
        loads = [attrs for _, _, name, _, _, attrs in spans if name == "series.load_dataset"]
        assert loads == [{"bytes": data.stat().st_size}], tag


def test_traced_cluster_records_the_wft_layer(tmp_path):
    # the tracer wraps `features.fast_wft_batch`; a range pass that calls
    # the transform under another name leaves the wft layer empty
    data = tmp_path / "data.bin"
    series.save_dataset(series.generate_synthetic(25, 40, 0.05, 3), data, format="binary")
    trace = tmp_path / "trace"
    trace.mkdir()
    subprocess.run(
        [sys.executable, str(PERFBENCH / "runner.py"), "--trace", str(trace), "job", "t", "cli",
         "cluster", "--input", str(data), "--format", "binary", "--out", str(tmp_path / "out"),
         "--K", "2", "--S", "2", "--I", "3"],
        env=_runner_env(), check=True, capture_output=True, timeout=120,
    )
    spans = json.loads((trace / "spans-t-main.json").read_text())["spans"]
    wft = [attrs for _, _, name, _, _, attrs in spans if name == "wft.fast_wft_batch"]
    assert wft and sum(attrs["rows"] for attrs in wft) == 75


def test_traced_elbow_reports_the_wcss_of_the_plain_run(tmp_path):
    # the tracer passes `on_iteration`, so a traced run computes the WCSS of
    # every Lloyd pass, while a plain run computes it for the final pass only
    data = tmp_path / "data.bin"
    series.save_dataset(series.generate_synthetic(20, 40, 0.05, 4), data, format="binary")
    trace = tmp_path / "trace"
    trace.mkdir()
    columns = []
    for name, prefix in [("plain", []), ("traced", ["--trace", str(trace), "job", "e"])]:
        out = tmp_path / name
        subprocess.run(
            [sys.executable, str(PERFBENCH / "runner.py"), *prefix, "cli", "elbow", "--input", str(data),
             "--format", "binary", "--out", str(out), "--K", "2-4", "--S", "2", "--L", "20", "--I", "5",
             "--seed", "4"],
            env=_runner_env(), check=True, capture_output=True, timeout=120,
        )
        columns.append([line.split(",")[:2] for line in (out / "elbow.csv").read_text().splitlines()])
    assert columns[0] == columns[1] and len(columns[0]) == 4
    spans = json.loads((trace / "spans-e-main.json").read_text())["spans"]
    lloyd = [attrs for _, _, name, _, _, attrs in spans if name == "kmeans.lloyd"]
    assert lloyd and all(attrs["passes"] >= 1 for attrs in lloyd)


def test_traced_elbow_records_one_round_loop_span_per_k(tmp_path):
    # the tracer replaces `dcc._run_rounds` in the module; a sweep that binds
    # the loop before that (a default argument, an alias) records no span
    data = tmp_path / "data.bin"
    series.save_dataset(series.generate_synthetic(20, 40, 0.05, 4), data, format="binary")
    trace = tmp_path / "trace"
    trace.mkdir()
    subprocess.run(
        [sys.executable, str(PERFBENCH / "runner.py"), "--trace", str(trace), "job", "e", "cli", "elbow",
         "--input", str(data), "--format", "binary", "--out", str(tmp_path / "out"), "--K", "2-4",
         "--S", "2", "--L", "20", "--I", "5", "--seed", "4"],
        env=_runner_env(), check=True, capture_output=True, timeout=120,
    )
    spans = json.loads((trace / "spans-e-main.json").read_text())["spans"]
    assert [attrs["k"] for _, _, name, _, _, attrs in spans if name == "dcc.run_rounds"] == [2, 3, 4]
