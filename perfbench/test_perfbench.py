"""Checks of the benchmark itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import layers
import run

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_every_workload_reports_every_metric():
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert done.stdout.rstrip().endswith("smoke: ok")


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "survey-csv",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in layers.METRICS]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(1000) == 99.0


def test_best_relabel_accuracy(tmp_path):
    labels = tmp_path / "labels.csv"
    labels.write_text("id,label\na,2\nb,2\nc,1\nd,1\n")
    truth = {"a": "C1", "b": "C1", "c": "C2", "d": "C1"}
    assert run.best_relabel_accuracy(labels, truth) == 0.75
