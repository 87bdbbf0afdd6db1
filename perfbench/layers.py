"""Per-layer metrics computed from the span files of one traced job.

METRICS lists every per-layer metric with its unit, the end-to-end metric
a gain in it should move, and the workloads where that gain should show
("hot") or should not ("flat").  `layer_metrics` fills them from spans.

Span sums run over every process of the job, socket workers included, so
a layer that runs in parallel workers can sum to more than the wall time.
A metric of a layer the workload never calls reads 0.
"""

from __future__ import annotations

import json
import math
import os
import statistics

# name, unit, better, end-to-end metric it moves, hot on, predicted flat on
METRICS = [
    ("series.load_s", "s", "lower", "wall_s", "survey-csv", "elbow-binary socket-binary"),
    ("series.load_mb_per_s", "MB/s", "higher", "wall_s", "survey-csv", "elbow-binary socket-binary"),
    ("series.synth_s", "s", "lower", "setup_s", "survey-csv", ""),
    ("series.save_s", "s", "lower", "setup_s", "survey-csv", ""),
    ("series.shard_plan_s", "s", "lower", "wall_s", "", "survey-csv elbow-binary socket-binary"),
    ("features.ranges_s", "s", "lower", "wall_s", "survey-csv", "elbow-binary socket-binary"),
    ("features.reduce_s", "s", "lower", "wall_s", "survey-csv", "elbow-binary socket-binary"),
    ("features.landscapes_s", "s", "lower", "wall_s", "survey-csv", "elbow-binary socket-binary"),
    ("features.peak_alloc_mb", "MB", "lower", "peak_rss_mb", "survey-csv", ""),
    ("wft.rows_transformed", "count", "lower", "wall_s", "survey-csv", ""),
    ("wft.butterfly_ops", "count", "lower", "wall_s", "survey-csv", ""),
    ("kmeans.lloyd_calls", "count", "lower", "wall_s", "elbow-binary", "survey-csv"),
    ("kmeans.lloyd_iters", "count", "lower", "wall_s", "elbow-binary", "survey-csv"),
    ("kmeans.lloyd_s", "s", "lower", "wall_s", "elbow-binary", "survey-csv"),
    ("kmeans.s_per_iter", "s", "lower", "wall_s", "elbow-binary", "survey-csv"),
    ("kmeans.distance_flops", "count", "lower", "wall_s", "elbow-binary", "survey-csv"),
    ("kmeans.useful_iter_ratio", "ratio", "higher", "wall_s", "elbow-binary", "survey-csv"),
    ("kmeans.peak_alloc_mb", "MB", "lower", "peak_rss_mb", "elbow-binary", ""),
    ("dcc.rounds", "count", "lower", "wall_s", "elbow-binary", "survey-csv"),
    ("dcc.converged_ratio", "ratio", "higher", "wall_s", "elbow-binary", "survey-csv"),
    ("dcc.worker_round_s", "s", "lower", "wall_s", "elbow-binary", "survey-csv"),
    ("dcc.consensus_s", "s", "lower", "wall_s", "elbow-binary", "survey-csv"),
    ("dcc.round_s_p50", "s", "lower", "wall_s", "elbow-binary", "survey-csv"),
    ("dcc.round_s_p99", "s", "lower", "wall_s", "elbow-binary", "survey-csv"),
    ("dcc.labels_changed", "count", "lower", "wall_s", "elbow-binary", ""),
    ("wire.frames", "count", "lower", "wall_s", "socket-binary", "survey-csv elbow-binary"),
    ("wire.bytes", "bytes", "lower", "wall_s", "socket-binary", "survey-csv elbow-binary"),
    ("wire.rounds_s", "s", "lower", "wall_s", "socket-binary", "survey-csv elbow-binary"),
    ("wire.round_trip_s_p50", "s", "lower", "wall_s", "socket-binary", "survey-csv elbow-binary"),
    ("wire.round_trip_s_p99", "s", "lower", "wall_s", "socket-binary", "survey-csv elbow-binary"),
    ("wire.wait_s", "s", "lower", "wall_s", "socket-binary", "survey-csv elbow-binary"),
    ("wire.worker_cpu_s", "s", "lower", "cpu_s", "socket-binary", "survey-csv elbow-binary"),
    ("wire.worker_lloyd_s", "s", "lower", "cpu_s", "socket-binary", "survey-csv elbow-binary"),
    ("wire.overhead_ratio", "ratio", "lower", "wall_s", "socket-binary", ""),
    ("summarize.proportions_s", "s", "lower", "wall_s", "survey-csv", "elbow-binary socket-binary"),
    ("summarize.composition_s", "s", "lower", "wall_s", "survey-csv", "elbow-binary socket-binary"),
    ("cli.self_s", "s", "lower", "wall_s", "survey-csv", ""),
    ("cli.output_bytes", "bytes", "lower", "wall_s", "survey-csv", ""),
    ("trace.overhead_s", "s", "lower", "", "", ""),
    ("trace.spans", "count", "lower", "", "", ""),
    ("hot.share", "ratio", "lower", "wall_s", "", ""),
]

UNITS = {name: unit for name, unit, *_ in METRICS}

# the layer a span belongs to is the prefix of its name
LAYERS = ("series", "wft", "features", "kmeans", "dcc", "wire", "summarize", "cli")

_PACK_UNPACK = ("wire.pack_setup", "wire.pack_round", "wire.pack_result",
                "wire.unpack_setup", "wire.unpack_round", "wire.unpack_result")


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs", "children")

    def __init__(self, record):
        self.id, self.parent, self.name, start, end, self.attrs = record
        self.start = start / 1e9
        self.end = end / 1e9
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - _union(self.children)


class Process:
    """Spans of one process: a command's main process or a socket worker."""

    def __init__(self, record: dict, is_worker: bool):
        self.is_worker = is_worker
        self.spans = [Span(r) for r in record["spans"]]
        by_id = {s.id: s for s in self.spans}
        for s in self.spans:
            if s.parent in by_id:
                by_id[s.parent].children.append(s)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def load_processes(trace_dir: str, tag_prefix: str) -> list[Process]:
    """Read every span file a traced command (or set-up) left in trace_dir."""
    procs = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith(f"spans-{tag_prefix}") and name.endswith(".json"):
            with open(os.path.join(trace_dir, name)) as fh:
                record = json.load(fh)
            procs.append(Process(record, is_worker=not name.endswith("-main.json")))
    return procs


def _union(spans) -> float:
    """Length of the union of the spans' intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s in sorted(spans, key=lambda s: s.start):
        if cur_end is None or s.start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s.start, s.end
        else:
            cur_end = max(cur_end, s.end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _sum(spans) -> float:
    return sum(s.duration for s in spans)


def _peak_mb(spans) -> float:
    return max((s.attrs.get("peak_bytes", 0) for s in spans), default=0) / 2**20


def _pct(values, q: int) -> float:
    """q-th percentile by statistics.quantiles; the value itself for one sample."""
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _in_process_rounds(run_rounds: Span) -> list[float]:
    """Latency of each round of one in-process round loop."""
    by_round: dict[int, list[Span]] = {}
    for child in run_rounds.children:
        if child.name in ("dcc.worker_round", "dcc.master_consensus"):
            by_round.setdefault(child.attrs["round"], []).append(child)
    return [max(s.end for s in group) - min(s.start for s in group)
            for _, group in sorted(by_round.items())]


def _socket_rounds(socket_rounds: Span) -> tuple[list[float], list[float]]:
    """(round latency, gather round trip) of each round of one socket loop.

    Round 1 starts with the first SETUP frame, round i > 1 with the first
    ROUND broadcast for it; the round trip ends with the last report of the
    round gathered, the round with its consensus.
    """
    starts: dict[int, float] = {}
    gathered: dict[int, float] = {}
    consensus: dict[int, float] = {}
    for child in socket_rounds.children:
        if child.name == "wire.pack_setup":
            starts[1] = min(starts.get(1, child.start), child.start)
        elif child.name == "wire.pack_round":
            r = child.attrs["round"]
            starts[r] = min(starts.get(r, child.start), child.start)
        elif child.name == "wire.unpack_round":
            r = child.attrs["round"]
            gathered[r] = max(gathered.get(r, child.end), child.end)
        elif child.name == "dcc.master_consensus":
            consensus[child.attrs["round"]] = child.end
    rounds, trips = [], []
    for r in sorted(gathered):
        if r in starts:
            trips.append(gathered[r] - starts[r])
            rounds.append(consensus.get(r, gathered[r]) - starts[r])
    return rounds, trips


def layer_metrics(job: list[Process], setup: list[Process], reference: list[Process],
                  traced_wall: float, overhead: float, output_bytes: int,
                  hot_spans: tuple[str, ...]) -> dict[str, float]:
    """Every metric in METRICS for one traced job.

    job: the processes of the traced job's commands, socket workers included;
    setup: the traced input set-ups (medians over them);
    reference: the traced in-process reference run, if the workload has one;
    traced_wall: the traced job's measured wall time (the base of hot.share);
    overhead: traced minus untraced job time, both in calibrated seconds.
    """
    main = [p for p in job if not p.is_worker]
    workers = [p for p in job if p.is_worker]

    def spans(name, procs=job):
        return [s for p in procs for s in p.named(name)]

    m: dict[str, float] = {}
    load = spans("series.load_dataset")
    m["series.load_s"] = _sum(load)
    load_bytes = sum(s.attrs["bytes"] for s in load)
    m["series.load_mb_per_s"] = load_bytes / 1e6 / m["series.load_s"] if load else 0.0
    per_setup = [(_sum(p.named("series.generate_synthetic")), _sum(p.named("series.save_dataset")))
                 for p in setup]
    m["series.synth_s"] = statistics.median(x for x, _ in per_setup) if per_setup else 0.0
    m["series.save_s"] = statistics.median(y for _, y in per_setup) if per_setup else 0.0
    m["series.shard_plan_s"] = _sum(spans("series.make_shard_plan"))

    m["features.ranges_s"] = _sum(spans("features.local_ranges"))
    m["features.reduce_s"] = _sum(spans("features.reduce_global_range"))
    m["features.landscapes_s"] = _sum(spans("features.build_features"))
    feature_spans = spans("features.local_ranges") + spans("features.build_features")
    m["features.peak_alloc_mb"] = _peak_mb(feature_spans)
    wft = spans("wft.fast_wft_batch")
    m["wft.rows_transformed"] = sum(s.attrs["rows"] for s in wft)
    m["wft.butterfly_ops"] = sum(s.attrs["rows"] * s.attrs["t2"] * math.log2(s.attrs["t2"]) for s in wft)

    lloyd = spans("kmeans.lloyd")
    passes = sum(s.attrs["passes"] for s in lloyd)
    # a call that stopped before its budget ended on a pass that changed nothing
    useful = sum(s.attrs["passes"] - (s.attrs["passes"] < s.attrs["max_iters"]) for s in lloyd)
    m["kmeans.lloyd_calls"] = len(lloyd)
    m["kmeans.lloyd_iters"] = passes
    m["kmeans.lloyd_s"] = _sum(lloyd)
    m["kmeans.s_per_iter"] = m["kmeans.lloyd_s"] / passes if passes else 0.0
    m["kmeans.distance_flops"] = sum(3 * s.attrs["n"] * s.attrs["k"] * s.attrs["l"] * s.attrs["passes"]
                                     for s in lloyd)
    m["kmeans.useful_iter_ratio"] = useful / passes if passes else 0.0
    m["kmeans.peak_alloc_mb"] = _peak_mb(lloyd)

    loops = spans("dcc.run_rounds", main) + spans("wire.run_socket_rounds", main)
    m["dcc.rounds"] = sum(s.attrs["rounds"] for s in loops)
    m["dcc.converged_ratio"] = sum(s.attrs["converged"] for s in loops) / len(loops) if loops else 0.0
    m["dcc.worker_round_s"] = _sum(spans("dcc.worker_round"))
    m["dcc.consensus_s"] = _sum(spans("dcc.master_consensus"))
    round_latency = [r for s in spans("dcc.run_rounds", main) for r in _in_process_rounds(s)]
    socket_loops = spans("wire.run_socket_rounds", main)
    trips = []
    for s in socket_loops:
        rounds, loop_trips = _socket_rounds(s)
        round_latency += rounds
        trips += loop_trips
    m["dcc.round_s_p50"] = _pct(round_latency, 50)
    m["dcc.round_s_p99"] = _pct(round_latency, 99)
    m["dcc.labels_changed"] = sum(s.attrs.get("changed", 0) for s in spans("dcc.worker_round"))

    # frames seen from the coordinator; STOP is built inline (1-byte payload)
    coordinator_frames = [c for s in socket_loops for c in s.children if c.name in _PACK_UNPACK]
    stops = sum(1 for c in coordinator_frames if c.name == "wire.pack_setup")
    m["wire.frames"] = len(coordinator_frames) + stops
    m["wire.bytes"] = sum(c.attrs["bytes"] for c in coordinator_frames) + 5 * stops
    m["wire.rounds_s"] = _sum(socket_loops)
    m["wire.round_trip_s_p50"] = _pct(trips, 50)
    m["wire.round_trip_s_p99"] = _pct(trips, 99)
    coordinator_busy = sum(c.self_time for s in socket_loops for c in s.children
                           if c.name in _PACK_UNPACK) + sum(
        c.duration for s in socket_loops for c in s.children if c.name == "dcc.master_consensus")
    m["wire.wait_s"] = m["wire.rounds_s"] - coordinator_busy if socket_loops else 0.0
    m["wire.worker_cpu_s"] = sum(s.attrs["worker_cpu_s"] for s in socket_loops)
    m["wire.worker_lloyd_s"] = _sum(spans("kmeans.lloyd", workers))
    reference_loop = _sum(spans("dcc.run_rounds", reference))
    m["wire.overhead_ratio"] = m["wire.rounds_s"] / reference_loop if socket_loops and reference_loop else 0.0

    m["summarize.proportions_s"] = _sum(spans("summarize.minute_proportions"))
    m["summarize.composition_s"] = _sum(spans("summarize.composition_table"))
    m["cli.self_s"] = sum(s.self_time for s in spans("cli.main", main))
    m["cli.output_bytes"] = output_bytes

    m["trace.overhead_s"] = overhead
    m["trace.spans"] = sum(len(p.spans) for p in job)
    m["hot.share"] = _union([s for name in hot_spans for s in spans(name, main)]) / traced_wall
    return m


def layers_seen(procs: list[Process]) -> set[str]:
    return {s.name.split(".", 1)[0] for p in procs for s in p.spans}


def rounds_per_k(job: list[Process]) -> list[tuple[int, int, bool]]:
    """(K, rounds used, converged) of every round loop the job ran."""
    loops = [s for p in job if not p.is_worker for s in p.spans
             if s.name in ("dcc.run_rounds", "wire.run_socket_rounds")]
    return [(s.attrs["k"], s.attrs["rounds"], s.attrs["converged"]) for s in sorted(loops, key=lambda s: s.start)]
