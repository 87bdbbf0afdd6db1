#!/usr/bin/env python3
"""Record one point of the bench trajectory: every workload, untraced and traced.

    python3 perfbench/record_baseline.py OUT.json [--seeds 1,2] [--seconds 30]

For each workload and seed this runs `perfbench/run.py` once with --trace 0
and once with --trace 1, and writes the end-to-end and per-layer metrics,
the output digests, the rounds each K used and the hot-layer verdict to
OUT.json, next to each workload's hot and predicted-flat layers and the
per-layer -> end-to-end mapping of layers.METRICS.  The first seed is the
default workload seed, the second the hold-out seed.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    record = {
        "recorded_with": f"python3 perfbench/record_baseline.py {args.out} --seeds {args.seeds} "
                         f"--seconds {args.seconds:g}",
        "default_seed": seeds[0],
        "hold_out_seeds": seeds[1:],
        "per_layer_mapping": [
            {"metric": name, "unit": unit, "moves": moves, "hot_on": hot.split(), "flat_on": flat.split()}
            for name, unit, _, moves, hot, flat in layers.METRICS],
        "workloads": {},
    }
    for w in run.WORKLOADS.values():
        entry = {"why": w.why, "hot_layers": list(w.hot), "predicted_flat_layers": list(w.flat),
                 "hot_check": f"{w.hot_metric} >= {w.hot_min}", "hot_spans": list(w.hot_spans),
                 "runs": {}}
        for seed in seeds:
            untraced, text = bench(w.name, seed, args.seconds, 0)
            traced, traced_text = bench(w.name, seed, args.seconds, 1)
            record.setdefault("env", json.loads(text[0][len("env "):]))
            entry["runs"][str(seed)] = {
                "correct": untraced["correct"] and traced["correct"],
                "end_to_end": {k: v["value"] for k, v in untraced["metrics"].items()},
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
                "digests": dict(re.findall(r"^  digest (\w+)\s+([0-9a-f]{64})", "\n".join(text), re.M)),
                "rounds_per_k": re.findall(r"dcc\.rounds (K=\d+: \d+ \(.*\))", "\n".join(traced_text)),
                "hot_prediction": next(line.strip() for line in traced_text
                                       if line.strip().startswith("hot-layer prediction")),
            }
            print(f"{w.name} seed {seed}: {entry['runs'][str(seed)]['end_to_end']}", flush=True)
        record["workloads"][w.name] = entry
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
