#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the walshscape CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

Run from the repository root.  Each run builds its workload's input from
the seed (timed as set-up, median of several repeats), runs one untimed
warm-up job, then runs jobs back to back for --seconds: a closed loop with
one client and one job at a time.  A job is the workload's walshscape
commands, each a fresh `python3 perfbench/runner.py cli ...` process, and
is timed from outside: wall clock around the processes, CPU time and peak
RSS from wait4() (the process plus every child it reaped, so socket
workers count).  Times are reported in calibrated seconds, which take out
drift in the host's CPU speed (see PROBE_REF_S).  Every job's outputs
are checked (see `run_job` and `measure`).

With --trace 1 the same loop runs, then one more job runs with the span
recorder of tracer.py installed, and the per-layer metrics of layers.py
are reported in place of the end-to-end ones.

The last line of standard output is one JSON object: correct, attempted,
failed (jobs) and metrics.  Lines before it are for people: each metric
with its unit and sample count, the output digests, and the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

NOISE = 0.05
# set-up runs at least SETUP_MIN times and until SETUP_BUDGET_S is spent
# (at most SETUP_MAX), so a cheap set-up gets enough samples for its median
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 1.5
COMMAND_TIMEOUT = 150.0
MIN_ACCURACY = 0.95  # gate C07's tolerance for planted-archetype recovery

# The level data of elbow-binary and socket-binary is pinned to this
# generate_synthetic seed, and their commands use it as --seed.  At N=900
# the seed makes K=4 and K=5 (S=4) and K=4 (S=2) oscillate for the whole
# 100-round budget.  Other level data changes how many rounds and Lloyd
# passes those jobs run: over data seeds 1-8 at this size the sweep's
# K-means time ranged from 0.6 s to 2.8 s, and K=4 converged within 6
# rounds for two of them.  --seed still draws their ids and weights.
PINNED_DATA_SEED = 4

# On the shared 2-vCPU Intel Xeon VM these workloads were sized on, CPU
# speed drifts: identical jobs took from 3.1 s to 4.4 s within a minute,
# with no steal time recorded, and 25-second medians of a fixed kernel
# moved by up to 50%.  So every timed process is bracketed by
# machine_probe(), a fixed mix of the two kinds of work the jobs do
# (parsing integers from text, small numpy reductions), and end-to-end
# times are reported in calibrated seconds: measured seconds x PROBE_REF_S
# / the mean of the two probes around them.  PROBE_REF_S is about the
# probe's median on that VM, so calibrated and measured seconds are close
# there.  Measured seconds are printed next to them.
PROBE_REF_S = 0.09
_PROBE_TEXT = ",".join(str(i % 3) for i in range(1440))
_PROBE_POINTS = np.random.default_rng(0).random((300, 100))
_PROBE_CENTROIDS = np.random.default_rng(1).random((5, 100))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_per_archetype: int
    format: str
    pinned: bool                 # level data and clustering seed fixed (see above)
    hot: tuple[str, ...]         # layers whose gains should move wall_s here
    flat: tuple[str, ...]        # layers predicted to leave wall_s unchanged here
    hot_spans: tuple[str, ...]   # spans whose union, over the traced wall time, is hot.share
    hot_metric: str              # the traced run confirms the hot layers if this metric
    hot_min: float               # is at least hot_min

    def commands(self, data: str, out: Path, seed: int, reference: bool = False):
        """(kind, walshscape argv, output directory) of each command of one job."""
        s = str(PINNED_DATA_SEED if self.pinned else seed)
        if self.name == "survey-csv":
            run, summary = out / "run", out / "summary"
            return [
                ("cluster", ["cluster", "--input", data, "--format", "csv", "--out", str(run),
                             "--K", "3", "--S", "4", "--L", "100", "--I", "100", "--seed", s], run),
                ("summarize", ["summarize", "--input", data, "--format", "csv",
                               "--labels", str(run / "labels.csv"), "--attributes", "truth",
                               "--out", str(summary)], summary),
            ]
        if self.name == "elbow-binary":
            return [("elbow", ["elbow", "--input", data, "--format", "binary", "--out", str(out),
                               "--K", "2-5", "--S", "4", "--L", "100", "--I", "100", "--seed", s], out)]
        transport = "inproc" if reference else "socket"
        return [("cluster", ["cluster", "--input", data, "--format", "binary", "--out", str(out),
                             "--K", "4", "--S", "2", "--L", "100", "--I", "100", "--seed", s,
                             "--transport", transport], out)]


WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="survey-csv",
            why="the survey use end to end: CSV ingest, features, a converging K=3 run and "
                "summaries, so series, features and cli dominate",
            n_per_archetype=1000, format="csv", pinned=False,
            hot=("series", "wft", "features", "summarize", "cli"), flat=("kmeans", "dcc", "wire"),
            hot_spans=("series.load_dataset", "features.local_ranges",
                       "features.reduce_global_range", "features.build_features"),
            hot_metric="hot.share", hot_min=0.75),
        Workload(
            name="elbow-binary",
            why="a model-selection sweep whose K=4 and K=5 runs use the whole round budget, "
                "so Lloyd passes and consensus dominate",
            n_per_archetype=300, format="binary", pinned=True,
            hot=("kmeans", "dcc"), flat=("series", "wft", "features", "wire", "summarize"),
            hot_spans=("kmeans.lloyd", "dcc.master_consensus"),
            hot_metric="hot.share", hot_min=0.80),
        Workload(
            name="socket-binary",
            why="the only job with worker processes and the wire protocol: K=4 over the socket "
                "transport for the whole round budget",
            n_per_archetype=300, format="binary", pinned=True,
            hot=("wire",), flat=("series", "features", "summarize"),
            hot_spans=("wire.run_socket_rounds",),
            hot_metric="wire.overhead_ratio", hot_min=1.0),
    ]
}

SMOKE_N = 30
SMOKE_T = 256
FULL_T = 1440

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("series_per_s", "1/s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB")]


def machine_probe() -> float:
    """Seconds the host takes for a fixed amount of work right now."""
    start = time.perf_counter()
    for _ in range(80):
        [int(v) for v in _PROBE_TEXT.split(",")]
    for _ in range(120):
        d2 = ((_PROBE_POINTS[:, None, :] - _PROBE_CENTROIDS[None, :, :]) ** 2).sum(axis=2)
        np.add.at(np.zeros_like(_PROBE_CENTROIDS), d2.argmin(axis=1), _PROBE_POINTS)
    return time.perf_counter() - start


class Clock:
    """Probes the machine between timed processes."""

    def __init__(self):
        self.last = machine_probe()

    def slowdown(self) -> float:
        """Machine slowness since the previous call: mean of the probes around it / PROBE_REF_S."""
        before, self.last = self.last, machine_probe()
        return (before + self.last) / 2 / PROBE_REF_S


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing source, failed set-up)."""


# ----- processes ------------------------------------------------------------

def _child_env() -> dict[str, str]:
    # WALSHSCAPE_* would change flag defaults; every flag is explicit, but drop them anyway
    env = {k: v for k, v in os.environ.items() if not k.startswith("WALSHSCAPE_")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Exit:
    code: int
    wall: float
    cpu: float
    maxrss_kb: int


def run_process(argv: list[str], log: Path, env: dict[str, str]) -> Exit:
    """Run one runner.py process to its end; kill its process group on timeout."""
    cmd = [sys.executable, str(HERE / "runner.py"), *argv]
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    if code != 0:
        _kill_group(proc.pid)  # a coordinator that died may leave socket workers behind
    return Exit(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def read_jiffies() -> tuple[int, int, int] | None:
    """(idle, steal, total) jiffies of the whole machine from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal guest guest_nice; guest is inside user
    return fields[3], fields[7] if len(fields) > 7 else 0, sum(fields[:8])


# ----- jobs -----------------------------------------------------------------

@dataclass
class Job:
    wall: float = 0.0
    cpu: float = 0.0
    maxrss_kb: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    accuracy: float | None = None
    jiffies: tuple[int, int, int] | None = None  # idle, steal, total during the job
    output_bytes: int = 0
    slowdown: float = 1.0  # Clock.slowdown() around the job

    @property
    def wall_cal(self) -> float:
        return self.wall / self.slowdown

    @property
    def cpu_cal(self) -> float:
        return self.cpu / self.slowdown

    @property
    def ok(self) -> bool:
        return not self.errors


def _digest_files(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def command_digest(kind: str, out: Path) -> str:
    """SHA-256 over the deterministic outputs of one command."""
    if kind == "cluster":
        return _digest_files([out / "labels.csv", out / "centroids.csv"])
    if kind == "elbow":
        lines = (out / "elbow.csv").read_text().splitlines()
        # K and wcss only: the timing columns differ from run to run
        kept = "\n".join(",".join(line.split(",")[:2]) for line in lines)
        return hashlib.sha256(kept.encode()).hexdigest()
    return _digest_files(sorted(p for p in out.iterdir() if p.is_file()))


def run_job(w: Workload, data: str, job_dir: Path, seed: int, env: dict[str, str],
            truth: dict[str, str] | None, trace: tuple[str, str] | None = None,
            reference: bool = False) -> Job:
    """Run one job's commands back to back; trace = (span directory, job id)."""
    job_dir.mkdir(parents=True)
    job = Job()
    before = read_jiffies()
    commands = w.commands(data, job_dir, seed, reference)
    for index, (kind, argv, _) in enumerate(commands):
        prefix = ["--trace", trace[0], trace[1], f"{trace[1]}-c{index}"] if trace else []
        done = run_process([*prefix, "cli", *argv], job_dir / f"{index}-{kind}.log", env)
        job.wall += done.wall
        job.cpu += done.cpu
        job.maxrss_kb = max(job.maxrss_kb, done.maxrss_kb)
        if done.code != 0:
            tail = (job_dir / f"{index}-{kind}.log").read_text(errors="replace")[-400:]
            job.errors.append(f"{kind} exited {done.code}: {tail.strip()}")
            break
    after = read_jiffies()
    if before and after:
        job.jiffies = tuple(b - a for a, b in zip(before, after))
    if job.ok:
        for kind, _, out in commands:
            job.digests[kind] = command_digest(kind, out)
            job.output_bytes += sum(p.stat().st_size for p in out.iterdir() if p.is_file())
        if truth is not None:
            job.accuracy = best_relabel_accuracy(job_dir / "run" / "labels.csv", truth)
            if job.accuracy < MIN_ACCURACY:
                job.errors.append(f"accuracy {job.accuracy:.4f} < {MIN_ACCURACY} against truth")
    return job


def read_truth(path: str) -> dict[str, str]:
    """id -> planted archetype, read from the dataset CSV without walshscape."""
    import csv

    csv.field_size_limit(1 << 24)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col = header.index("attr:truth")
        return {row[0]: row[col] for row in reader}


def best_relabel_accuracy(labels_csv: Path, truth: dict[str, str]) -> float:
    """Share of series whose cluster matches its archetype under the best one-to-one relabeling."""
    counts: dict[tuple[str, str], int] = {}
    n = 0
    with open(labels_csv) as fh:
        next(fh)
        for line in fh:
            ident, label = line.rstrip("\n").split(",")
            key = (label, truth[ident])
            counts[key] = counts.get(key, 0) + 1
            n += 1
    labels = sorted({k[0] for k in counts})
    classes = sorted(set(truth.values()))
    best = 0
    for perm in itertools.permutations(classes, min(len(classes), len(labels))):
        best = max(best, sum(counts.get((lab, cls), 0) for lab, cls in zip(labels, perm)))
    return best / n if n else 0.0


# ----- statistics and reporting ---------------------------------------------

def tail_percentile(n: int) -> float:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    permille = max(q for q in (500, 900, 990, 999) if q == 500 or n * (1000 - q) >= 10_000)
    return permille / 10


def percentile(values: list[float], p: float) -> float:
    if p == 50.0:
        return statistics.median(values)
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def describe(name: str, unit: str, values: list[float], measured: list[float] | None) -> str:
    n = len(values)
    p = tail_percentile(n)
    text = f"  {name:<14} {statistics.median(values):>14.6g} {unit:<5} median of n={n}"
    if p == 50.0:
        text += " (no tail percentile: fewer than 21 samples)"
    else:
        text += f", p{p:g} {percentile(values, p):.6g}"
    if measured is not None:
        text += f"; calibrated, measured median {statistics.median(measured):.6g}"
    return text


def source_commit() -> str:
    """The checkout's git commit, read from .git without running git; 'unknown' outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "walshscape").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"commit": source_commit(), "src_sha256": source_digest(),
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": seed}


# ----- one benchmark run ----------------------------------------------------

@dataclass
class RunResult:
    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int
    failed: int
    lines: list[str]
    layers_seen: set[str] = field(default_factory=set)


def measure(w: Workload, seed: int, seconds: float, trace: bool, work: Path,
            n_per_archetype: int, t: int) -> RunResult:
    env = _child_env()
    n_series = 3 * n_per_archetype
    data = str(work / f"input.{w.format}")
    spans_dir = work / "spans"
    spans_dir.mkdir()
    lines = [f"workload {w.name}: {w.why}",
             f"  N={n_series} T={t} seed={seed}"
             + (f" (level data and --seed pinned to {PINNED_DATA_SEED}; ids and weights from seed)"
                if w.pinned else ""),
             f"  hot layers {', '.join(w.hot)}; predicted flat {', '.join(w.flat)}"]

    data_seed = PINNED_DATA_SEED if w.pinned else seed
    clock = Clock()
    setup_walls, setup_cal, setup_digests = [], [], set()
    for i in range(SETUP_MAX):
        if i >= SETUP_MIN and sum(setup_walls) >= SETUP_BUDGET_S:
            break
        prefix = ["--trace", str(spans_dir), "setup", f"setup{i}"] if trace else []
        done = run_process([*prefix, "input", data, w.format, str(n_per_archetype), str(t),
                            str(NOISE), str(data_seed), str(seed)], work / f"setup{i}.log", env)
        if done.code != 0:
            raise BenchError(f"input set-up exited {done.code}: "
                             + (work / f"setup{i}.log").read_text(errors="replace")[-400:])
        setup_walls.append(done.wall)
        setup_cal.append(done.wall / clock.slowdown())
        setup_digests.add(hashlib.sha256(Path(data).read_bytes()).hexdigest())
    if len(setup_digests) != 1:
        raise BenchError("the same seed produced different inputs")
    truth = read_truth(data) if w.name == "survey-csv" else None

    def probed_job(name: str, trace_as: str | None = None, reference: bool = False) -> Job:
        job = run_job(w, data, work / name, seed, env, truth,
                      (str(spans_dir), trace_as) if trace_as else None, reference)
        job.slowdown = clock.slowdown()
        return job

    jobs: list[Job] = []
    warm = probed_job("warm")
    jobs.append(warm)
    timed: list[Job] = []
    start = time.perf_counter()
    while True:
        job = probed_job(f"job{len(timed)}")
        shutil.rmtree(work / f"job{len(timed)}")
        timed.append(job)
        elapsed = time.perf_counter() - start
        if elapsed + job.wall > seconds:
            break
    jobs += timed
    lines.append(f"  jobs: {len(timed)} timed in {elapsed:.1f} s, closed loop, 1 client")
    for job in timed:
        if job.ok and job.digests != warm.digests:
            job.errors.append("outputs differ from the warm-up job's")

    reference = None
    if w.name == "socket-binary":
        reference = probed_job("reference", "reference" if trace else None, reference=True)
        if reference.ok and reference.digests != warm.digests:
            reference.errors.append("in-process reference differs from the socket transport")
        jobs.append(reference)
    traced = None
    if trace:
        traced = probed_job("traced", "traced")
        if traced.ok and traced.digests != warm.digests:
            traced.errors.append("traced outputs differ from the untraced ones")
        jobs.append(traced)

    failed = sum(not j.ok for j in jobs)
    ok_timed = [j for j in timed if j.ok] or timed
    for kind, digest in warm.digests.items():
        lines.append(f"  digest {kind:<9} {digest}")
    if reference is not None:
        lines.append(f"  digest reference {reference.digests.get('cluster', '-')} (in-process, "
                     f"{'equal' if reference.ok else 'DIFFERENT'})")
    if truth is not None and warm.accuracy is not None:
        lines.append(f"  accuracy against planted truth {warm.accuracy:.4f} (gate {MIN_ACCURACY})")
    for j in jobs:
        for e in j.errors:
            lines.append(f"  FAILED: {e}")
    lines.append(f"  failed_ops     {failed}/{len(jobs)} = {failed / len(jobs):.4g} "
                 "(jobs failed / attempted, warm-up, reference and traced jobs included)")
    deltas = [j.jiffies for j in timed if j.jiffies]
    if deltas:
        idle_j = sum(x[0] for x in deltas)
        steal_j = sum(x[1] for x in deltas)
        total_j = sum(x[2] for x in deltas)
        worst = max(x[1] / (x[2] or 1) for x in deltas)
        lines.append(f"  machine during timed jobs: idle {idle_j} and steal {steal_j} of {total_j} "
                     f"jiffies; worst job steal share {worst:.4f}")

    if not trace:
        metrics: dict[str, float] = {}
        values = {
            "setup_s": setup_cal,
            "wall_s": [j.wall_cal for j in ok_timed],
            "series_per_s": [n_series / j.wall_cal for j in ok_timed],
            "cpu_s": [j.cpu_cal for j in ok_timed],
            "peak_rss_mb": [j.maxrss_kb / 1024 for j in ok_timed],
        }
        measured = {
            "setup_s": setup_walls,
            "wall_s": [j.wall for j in ok_timed],
            "series_per_s": [n_series / j.wall for j in ok_timed],
            "cpu_s": [j.cpu for j in ok_timed],
        }
        for name, unit in END_TO_END:
            metrics[name] = statistics.median(values[name])
            lines.append(describe(name, unit, values[name], measured.get(name)))
        lines.append(f"  machine slowdown (probe / {PROBE_REF_S} s) around timed jobs: median "
                     f"{statistics.median(j.slowdown for j in timed):.4g}, "
                     f"range {min(j.slowdown for j in timed):.4g}-{max(j.slowdown for j in timed):.4g}")
        return RunResult(metrics, dict(END_TO_END), len(jobs), failed, lines)

    job_procs = layers.load_processes(str(spans_dir), "traced-")
    metrics = layers.layer_metrics(
        job_procs,
        layers.load_processes(str(spans_dir), "setup"),
        layers.load_processes(str(spans_dir), "reference-") if reference else [],
        traced_wall=traced.wall,
        overhead=traced.wall_cal - statistics.median(j.wall_cal for j in ok_timed),
        output_bytes=traced.output_bytes,
        hot_spans=w.hot_spans,
    )
    for name, unit, *_ in layers.METRICS:
        lines.append(f"  {name:<26} {metrics[name]:>16.6g} {unit}")
    for k, rounds, converged in layers.rounds_per_k(job_procs):
        lines.append(f"  dcc.rounds K={k}: {rounds} ({'converged' if converged else 'hit the budget'})")
    holds = metrics[w.hot_metric] >= w.hot_min
    lines.append(f"  hot-layer prediction ({w.hot_metric} >= {w.hot_min} with hot spans "
                 f"{', '.join(w.hot_spans)}): {'holds' if holds else 'FAILS'}")
    return RunResult(metrics, dict(layers.UNITS), len(jobs), failed, lines,
                     layers.layers_seen(job_procs + layers.load_processes(str(spans_dir), "setup")))


def emit(result: RunResult) -> None:
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": result.units[k]} for k, v in result.metrics.items()},
    }))


def smoke(work: Path) -> int:
    """Each workload once at a tiny size, untraced and traced; asserts the report is complete."""
    problems = []
    seen: set[str] = set()
    for w in WORKLOADS.values():
        for trace in (False, True):
            run_dir = work / f"{w.name}-{int(trace)}"
            run_dir.mkdir()
            result = measure(w, 1, 0.0, trace, run_dir, SMOKE_N, SMOKE_T)
            print("\n".join(result.lines))
            expected = [n for n, _ in END_TO_END] if not trace else [m[0] for m in layers.METRICS]
            for name in expected:
                if name not in result.metrics or not result.units.get(name):
                    problems.append(f"{w.name}: metric {name} missing or without unit")
            if result.failed:
                problems.append(f"{w.name} trace={int(trace)}: {result.failed} job(s) failed")
            if trace:
                seen |= result.layers_seen
                missing = set(w.hot) - result.layers_seen
                if missing:
                    problems.append(f"{w.name}: no spans for hot layer(s) {sorted(missing)}")
    missing = set(layers.LAYERS) - seen
    if missing:
        problems.append(f"no workload produced spans for layer(s) {sorted(missing)}")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1; hold-out seed 2)")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, self-check")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "walshscape" / "cli.py").is_file():
        print(f"error: no walshscape source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    # a terminated run still stops its children and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if args.smoke:
            return smoke(work)
        w = WORKLOADS[args.workload]
        print("env " + json.dumps(environment(args.seed)))
        result = measure(w, args.seed, args.seconds, bool(args.trace), work, w.n_per_archetype, FULL_T)
        print("\n".join(result.lines))
        emit(result)
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
