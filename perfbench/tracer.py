"""Span recorder wrapped around walshscape's module-level functions.

`install()` replaces each function named in WRAPS, in the module namespace
that calls it, with a wrapper that records a span: name, start and end
(CLOCK_MONOTONIC nanoseconds, comparable across processes), parent span
and a few attributes.  Spans stay in memory and are written to one JSON
file per process when that process's work ends.

Functions are patched in every namespace that looks them up at call time,
because the package binds names with `from .x import y`: `dcc.lloyd` is
the name worker_round and master_consensus call, `wire.worker_round` is
the name a socket worker calls, and so on.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import time
import tracemalloc

import numpy as np

# (module, attribute, span name, records tracemalloc peak).  The peak is
# taken on the first call for each input shape only: it depends on the
# shape, and tracemalloc on every Lloyd call would double the traced time.
WRAPS = [
    ("walshscape.cli", "main", "cli.main", False),
    ("walshscape.cli", "load_dataset", "series.load_dataset", False),
    ("walshscape.cli", "make_shard_plan", "series.make_shard_plan", False),
    ("walshscape.cli", "run_dcc", "dcc.run_dcc", False),
    ("walshscape.cli", "elbow_sweep", "dcc.elbow_sweep", False),
    ("walshscape.cli", "minute_proportions", "summarize.minute_proportions", False),
    ("walshscape.cli", "composition_table", "summarize.composition_table", False),
    ("walshscape.series", "generate_synthetic", "series.generate_synthetic", False),
    ("walshscape.series", "save_dataset", "series.save_dataset", False),
    ("walshscape.dcc", "make_shard_plan", "series.make_shard_plan", False),
    ("walshscape.dcc", "local_ranges", "features.local_ranges", True),
    ("walshscape.dcc", "reduce_global_range", "features.reduce_global_range", False),
    ("walshscape.dcc", "build_features", "features.build_features", True),
    ("walshscape.features", "fast_wft_batch", "wft.fast_wft_batch", False),
    ("walshscape.dcc", "_run_rounds", "dcc.run_rounds", False),
    ("walshscape.dcc", "worker_round", "dcc.worker_round", False),
    ("walshscape.dcc", "master_consensus", "dcc.master_consensus", False),
    ("walshscape.dcc", "lloyd", "kmeans.lloyd", True),
    ("walshscape.wire", "run_socket_rounds", "wire.run_socket_rounds", False),
    ("walshscape.wire", "worker_entry", "wire.worker_entry", False),
    ("walshscape.wire", "worker_round", "dcc.worker_round", False),
    ("walshscape.wire", "master_consensus", "dcc.master_consensus", False),
    ("walshscape.wire", "pack_setup", "wire.pack_setup", False),
    ("walshscape.wire", "unpack_setup", "wire.unpack_setup", False),
    ("walshscape.wire", "pack_round", "wire.pack_round", False),
    ("walshscape.wire", "unpack_round", "wire.unpack_round", False),
    ("walshscape.wire", "pack_result", "wire.pack_result", False),
    ("walshscape.wire", "unpack_result", "wire.unpack_result", False),
]


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Recorder:
    """Spans of one process of one job, kept in memory until `dump`."""

    def __init__(self, out_dir: str, job_id: str, tag: str):
        self.out_dir = out_dir
        self.job_id = job_id
        self.tag = tag
        self.worker = 0
        self.in_worker = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._memory_shapes: set = set()

    def reset_for_worker(self) -> None:
        """Drop the spans a forked worker inherited from its coordinator."""
        self.in_worker = True
        self.spans = []
        self._stack = []

    def dump(self) -> None:
        if not self.in_worker:
            name = "main"
        else:  # keyed by the worker id that SETUP assigned, if it arrived
            name = f"w{self.worker}" if self.worker else f"pid{os.getpid()}"
        path = os.path.join(self.out_dir, f"spans-{self.tag}-{name}.json")
        with open(path, "w") as fh:
            json.dump({"job": self.job_id, "tag": self.tag, "worker": self.worker,
                       "spans": self.spans}, fh)

    def wrap(self, fn, name: str, trace_memory: bool):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs: dict = {}
            if before is not None:
                args, kwargs = before(self, args, kwargs, attrs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(span_id)
            started_tracing = False
            measure_memory = trace_memory and self._first_of_shape(name, args)
            if measure_memory:
                if not tracemalloc.is_tracing():
                    tracemalloc.start()
                    started_tracing = True
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                if measure_memory:
                    attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
                    if started_tracing:
                        tracemalloc.stop()
                self._stack.pop()
                if after is not None and result is not None:
                    after(self, args, kwargs, result, attrs)
                self.spans.append([span_id, parent, name, start, end, attrs])

        return wrapper

    def _first_of_shape(self, name: str, args) -> bool:
        points = getattr(args[0], "rows", args[0])  # lloyd's points, or a shard's series
        k = getattr(args[1], "K", None) if len(args) > 1 else None  # lloyd's init centroids
        key = (name, len(points), k)
        if key in self._memory_shapes:
            return False
        self._memory_shapes.add(key)
        return True


# ----- per-function attribute hooks ---------------------------------------

def _before_lloyd(rec, args, kwargs, attrs):
    points, init = args[0], _arg(args, kwargs, 1, "init")
    x = getattr(points, "rows", points)
    attrs.update(n=int(len(x)), k=int(init.K), l=int(init.L), passes=0,
                 max_iters=int(_arg(args, kwargs, 2, "max_iters", 1000)))
    user_callback = kwargs.get("on_iteration")

    def on_iteration(wcss):
        attrs["passes"] += 1
        if user_callback is not None:
            user_callback(wcss)

    kwargs = dict(kwargs, on_iteration=on_iteration)
    return args, kwargs


def _before_worker_entry(rec, args, kwargs, attrs):
    rec.reset_for_worker()
    return args, kwargs


def _before_socket_rounds(rec, args, kwargs, attrs):
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    attrs["children_cpu_before"] = usage.ru_utime + usage.ru_stime
    return args, kwargs


def _after_socket_rounds(rec, args, kwargs, result, attrs):
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    attrs["worker_cpu_s"] = usage.ru_utime + usage.ru_stime - attrs.pop("children_cpu_before")
    _after_run_rounds(rec, args, kwargs, result, attrs)


def _after_run_rounds(rec, args, kwargs, result, attrs):
    attrs.update(k=int(args[1]), rounds=int(result[3]), converged=bool(result[4]))


def _after_load(rec, args, kwargs, result, attrs):
    attrs["bytes"] = os.path.getsize(args[0])


def _after_wft(rec, args, kwargs, result, attrs):
    attrs.update(rows=int(args[0].shape[0]), t2=int(args[0].shape[1]))


def _after_worker_round(rec, args, kwargs, result, attrs):
    prev = _arg(args, kwargs, 6, "prev")
    assignment = result[1]
    attrs.update(round=int(args[4]), worker=int(_arg(args, kwargs, 5, "worker_id", 1)))
    if prev is not None:
        attrs["changed"] = int(np.count_nonzero(assignment.labels != prev.labels))


def _after_consensus(rec, args, kwargs, result, attrs):
    attrs["round"] = int(args[0][0].round)


def _after_pack(rec, args, kwargs, result, attrs):
    attrs["bytes"] = len(result) + 4


def _after_pack_round(rec, args, kwargs, result, attrs):
    attrs.update(bytes=len(result) + 4, round=int(args[0].round), worker=int(args[0].worker_id))


def _after_unpack(rec, args, kwargs, result, attrs):
    attrs["bytes"] = len(args[0]) + 4


def _after_unpack_round(rec, args, kwargs, result, attrs):
    attrs.update(bytes=len(args[0]) + 4, round=int(result.round), worker=int(result.worker_id))


def _after_unpack_setup(rec, args, kwargs, result, attrs):
    rec.worker = int(result[0])
    attrs.update(bytes=len(args[0]) + 4, worker=int(result[0]))


_BEFORE = {
    "kmeans.lloyd": _before_lloyd,
    "wire.worker_entry": _before_worker_entry,
    "wire.run_socket_rounds": _before_socket_rounds,
}

_AFTER = {
    "series.load_dataset": _after_load,
    "wft.fast_wft_batch": _after_wft,
    "dcc.run_rounds": _after_run_rounds,
    "wire.run_socket_rounds": _after_socket_rounds,
    "dcc.worker_round": _after_worker_round,
    "dcc.master_consensus": _after_consensus,
    "wire.pack_setup": _after_pack,
    "wire.pack_result": _after_pack,
    "wire.pack_round": _after_pack_round,
    "wire.unpack_setup": _after_unpack_setup,
    "wire.unpack_round": _after_unpack_round,
    "wire.unpack_result": _after_unpack,
}


def install(out_dir: str, job_id: str, tag: str) -> Recorder:
    """Patch every function in WRAPS; returns the process's recorder."""
    rec = Recorder(out_dir, job_id, tag)
    modules = {m: importlib.import_module(m) for m, _, _, _ in WRAPS}
    for module_name, attr, span_name, trace_memory in WRAPS:
        module = modules[module_name]
        setattr(module, attr, rec.wrap(getattr(module, attr), span_name, trace_memory))
    worker_entry = modules["walshscape.wire"].worker_entry

    @functools.wraps(worker_entry)
    def worker_entry_then_dump(*args, **kwargs):
        # a forked worker leaves through os._exit, which skips atexit handlers
        try:
            return worker_entry(*args, **kwargs)
        finally:
            rec.dump()

    modules["walshscape.wire"].worker_entry = worker_entry_then_dump
    return rec
