"""Divide-and-combine K-means: S shard workers, one coordinator.

A shard is an array of row indices (`make_shard_plan`).  A series' Walsh
range depends on that series alone, so one range pass in ingestion order
gives every shard's (mins, maxs), indexed by the shard's array.
Each round, every worker runs K-means on its shard's landscape features
(round 1 from a uniform-range initialization with a worker-specific seed,
later rounds from the consensus centroids broadcast by the coordinator)
and reports its K centroids plus a labels-changed flag.  The coordinator
clusters the S*K reported centroids into K consensus centroids and
broadcasts them; the loop ends when every worker reports unchanged labels
or after I rounds.  A run whose last two consensus sets repeat an earlier
pair bit for bit is in a cycle that never converges: the loop records
where the cycle started and its period, skips the whole periods left in
the budget and runs only the rounds left over, so it returns exactly what
running all I rounds would.  Final labels are the workers' last retained
assignments, put back through each shard's index array into the dataset's
ingestion order, and the total WCSS is the sum of the per-shard values.

Per-worker seeds derive deterministically from (seed, worker_id), so
results do not depend on execution order or transport.  One round loop,
`coordinate_rounds`, drives both transports: the in-process one calls the
workers directly, the socket one (see `wire`) runs them as separate
processes, and both must produce identical results.  Worker output is
checked once, where it reaches the coordinator: `coordinate_rounds` checks
every round's reports, the socket transport each RESULT's labels and
WCSS.  `run_dcc` runs one K; `elbow_sweep` computes the features once and
returns one `ClusterResult` per K, each equal to `run_dcc`'s for that K
but for the two timers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .features import DEFAULT_LANDSCAPE_LENGTH, build_features, local_ranges, reduce_global_range
from .kmeans import Assignment, CentroidSet, init_uniform, lloyd
from .series import Dataset, DatasetError, make_shard_plan

DEFAULT_MAX_ROUNDS = 100


class ProtocolError(RuntimeError):
    """A worker failed to report or a message was malformed."""


@dataclass(frozen=True)
class RoundMessage:
    """One worker's report for one round: centroids plus a labels-changed flag."""

    worker_id: int
    round: int
    centroids: CentroidSet
    flag: int

    def __post_init__(self):
        if self.flag not in (0, 1):
            raise ValueError("flag must be 0 or 1")
        if self.round == 1 and self.flag != 1:
            raise ValueError("round 1 always sets the flag")


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of one divide-and-combine run.

    labels are in 1..K and aligned to the dataset's ingestion order; order
    is the shards' index arrays concatenated, the sampling order the run
    drew (`make_shard_plan`), which `cluster` writes as order.csv; wcss is
    the sum over shards; centroids is the last consensus set the
    coordinator computed; worker_centroids/wcss_per_shard keep each
    worker's final state so the total is auditable.  A run that can never
    converge because its consensus sets repeat reports the round where the
    repeated pair of consecutive sets first appeared (cycle_start) and the
    period; both are None otherwise.
    """

    labels: np.ndarray
    order: np.ndarray
    wcss: float
    centroids: CentroidSet
    rounds_used: int
    converged: bool
    worker_centroids: tuple[CentroidSet, ...]
    wcss_per_shard: tuple[float, ...]
    feature_seconds: float
    kmeans_seconds: float
    cycle_start: int | None
    cycle_period: int | None

    @property
    def K(self) -> int:
        return self.centroids.K


def derive_seed(seed: int, stream: int) -> int:
    """Deterministic, platform-independent seed for one worker (coordinator = 0)."""
    ss = np.random.SeedSequence([int(seed), int(stream)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def worker_round(
    shard_features: np.ndarray,
    incoming: CentroidSet | None,
    k: int,
    seed: int,
    round_index: int,
    worker_id: int = 1,
    prev: Assignment | None = None,
) -> tuple[RoundMessage, Assignment]:
    """Run one worker's K-means pass for one round.

    shard_features is the shard's (n, L) float64 feature array, as
    `build_features` returns it.  Round 1 initializes centroids uniformly
    on the shard's feature ranges with the worker's derived seed and
    always raises the flag; later rounds start from the incoming consensus
    centroids and raise the flag only if any label differs from the
    previous round's assignment.

    Returns the message for the coordinator and the retained assignment.
    """
    if round_index < 1:
        raise ValueError("round_index starts at 1")
    if (incoming is None) != (round_index == 1):
        raise ValueError("consensus centroids are present exactly when round > 1")
    start = init_uniform(shard_features, k, seed) if incoming is None else incoming
    assignment, centroids = lloyd(shard_features, start)  # checks L
    if round_index == 1:
        flag = 1
    else:
        flag = 0 if prev is not None and np.array_equal(assignment.labels, prev.labels) else 1
    message = RoundMessage(worker_id=worker_id, round=round_index, centroids=centroids, flag=flag)
    return message, assignment


def master_consensus(messages: list[RoundMessage], k: int, seed: int) -> CentroidSet:
    """Cluster the S*K reported centroids into K consensus centroids.

    The reports arrive checked and in worker order: `coordinate_rounds`
    passes only reports of (wid, i, K, L) for workers 1..S, and stacking
    keeps that order.  The reported centroids are treated as points, each
    counting once, and clustered by the same K-means with a uniform-range
    initialization.  The K results are ordered by the smallest input row
    assigned to each cluster, with clusters left empty last in index
    order, so a coordinator fed an already-stable centroid set returns it
    unchanged.
    """
    stacked = np.vstack([m.centroids.centroids for m in messages])
    assignment, centroids = lloyd(stacked, init_uniform(stacked, k, seed))
    # canonical order: by first input row assigned to each cluster
    present, first = np.unique(assignment.labels, return_index=True)
    first_row = np.full(k, len(stacked), dtype=np.int64)
    first_row[present - 1] = first
    return CentroidSet(centroids=centroids.centroids[np.argsort(first_row, kind="stable")])


def _prepare_features(
    dataset: Dataset, s: int, length: int, seed: int
) -> tuple[list[np.ndarray], list[np.ndarray], float]:
    """The shards' index arrays, their feature matrices and the seconds spent."""
    t0 = time.perf_counter()
    shards = make_shard_plan(dataset.N, s, seed)
    mins, maxs = local_ranges(dataset.levels)
    d_min, d_max = bounds = reduce_global_range([(mins, maxs)])  # all-shards barrier
    if d_min == d_max:
        raise DatasetError(f"every series has the same Walsh range [{d_min}, {d_max}], "
                           "so there is nothing to cluster")
    matrices = [build_features((mins[ix], maxs[ix]), bounds, length) for ix in shards]
    return shards, matrices, time.perf_counter() - t0


def coordinate_rounds(
    matrices: list[np.ndarray], k: int, seed: int, max_rounds: int, exchange, finish
):
    """The coordinator's round loop, shared by both transports.

    exchange(i, consensus) runs round i on every worker (consensus is None
    in round 1) and returns the reports, whose (worker, round, K, L) must
    be (wid, i, k, the shard's L) for wid 1..S in order, else ProtocolError;
    finish() ends the workers and returns their retained assignments.

    From round 2 on, the last two consensus sets fix everything that
    follows, so once their bytes repeat an earlier pair the loop skips the
    whole periods left: round numbers jump ahead, results do not change.
    Returns (assignments, worker centroids, consensus, rounds used,
    converged, cycle start, cycle period); the last two are None unless
    a repeat was found.
    """
    if max_rounds < 1:
        raise ValueError("I must be at least 1")
    master_seed = derive_seed(seed, 0)
    consensus: CentroidSet | None = None
    seen: dict[bytes, int] = {}  # raw bytes of (c_{i-1}, c_i) -> first round i
    cycle_start = cycle_period = None
    i = 0
    while i < max_rounds:
        i += 1
        messages = exchange(i, consensus)
        reports = [(m.worker_id, m.round, m.centroids.K, m.centroids.L) for m in messages]
        if reports != [(wid, i, k, rows.shape[1]) for wid, rows in enumerate(matrices, start=1)]:
            raise ProtocolError(f"round {i} needs (worker, round, K, L) reports in worker order, got {reports}")
        converged = all(m.flag == 0 for m in messages)
        if converged:
            break
        previous = consensus
        consensus = master_consensus(messages, k, master_seed)
        if previous is not None and cycle_period is None:
            j = seen.setdefault(previous.centroids.tobytes() + consensus.centroids.tobytes(), i)
            if j < i:  # rounds j+1..i repeat forever without converging: skip whole periods
                cycle_start, cycle_period = j, i - j
                i += (max_rounds - i) // cycle_period * cycle_period
    worker_centroids = tuple(m.centroids for m in messages)
    return finish(), worker_centroids, consensus, i, converged, cycle_start, cycle_period


def _run_rounds(matrices: list[np.ndarray], k: int, seed: int, max_rounds: int):
    """Round loop over in-process workers; returns the combined final state."""
    worker_seeds = [derive_seed(seed, wid) for wid in range(1, len(matrices) + 1)]
    retained: list[Assignment | None] = [None] * len(matrices)

    def exchange(i: int, consensus: CentroidSet | None) -> list[RoundMessage]:
        messages = []
        for wid, features in enumerate(matrices, start=1):
            msg, retained[wid - 1] = worker_round(
                features, consensus, k, worker_seeds[wid - 1], i,
                worker_id=wid, prev=retained[wid - 1],
            )
            messages.append(msg)
        return messages

    return coordinate_rounds(matrices, k, seed, max_rounds, exchange, lambda: retained)


def _check_parameters(k_list: list[int], length: int, max_rounds: int) -> None:
    """Raise the ValueError that K, L or I would raise later, before the feature pass runs."""
    if min(k_list) < 1:
        raise ValueError("K must be at least 1")
    if length < 2:
        raise ValueError("grid needs at least two points")
    if max_rounds < 1:
        raise ValueError("I must be at least 1")


def _cluster(prepared, k: int, seed: int, max_rounds: int, run_rounds) -> ClusterResult:
    """Run and time the round loop on `_prepare_features`' output; labels go back to ingestion order."""
    shards, matrices, feature_seconds = prepared
    t0 = time.perf_counter()
    (assignments, worker_centroids, consensus, rounds_used, converged,
     cycle_start, cycle_period) = run_rounds(matrices, k, seed, max_rounds)
    kmeans_seconds = time.perf_counter() - t0
    per_shard = tuple(a.wcss for a in assignments)
    order = np.concatenate(shards)
    labels = np.empty(len(order), dtype=np.int64)  # Assignment's label dtype
    labels[order] = np.concatenate([a.labels for a in assignments])
    return ClusterResult(
        labels=labels,
        order=order,
        wcss=float(np.asarray(per_shard).sum()),  # numpy's pairwise order
        centroids=consensus,
        rounds_used=rounds_used,
        converged=converged,
        worker_centroids=worker_centroids,
        wcss_per_shard=per_shard,
        feature_seconds=feature_seconds,
        kmeans_seconds=kmeans_seconds,
        cycle_start=cycle_start,
        cycle_period=cycle_period,
    )


def run_dcc(
    dataset: Dataset,
    k: int,
    s: int,
    length: int = DEFAULT_LANDSCAPE_LENGTH,
    seed: int = 0,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    transport: str = "inproc",
) -> ClusterResult:
    """Full pipeline: shard, extract features, iterate the round loop, combine.

    Deterministic for fixed (dataset, k, s, length, seed, max_rounds).
    converged is False only when the loop hit max_rounds with some flag
    still raised; the last state is returned either way.  transport
    "socket" forks S worker processes (see `wire`), so it needs os.fork.
    """
    _check_parameters([k], length, max_rounds)
    if transport == "inproc":
        run_rounds = _run_rounds
    elif transport == "socket":
        from .wire import require_fork, run_socket_rounds as run_rounds
        require_fork()
    else:
        raise ValueError(f"unknown transport {transport!r}")
    return _cluster(_prepare_features(dataset, s, length, seed), k, seed, max_rounds, run_rounds)


def elbow_sweep(
    dataset: Dataset,
    k_list,
    s: int,
    length: int = DEFAULT_LANDSCAPE_LENGTH,
    seed: int = 0,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> list[ClusterResult]:
    """`run_dcc` in process once per K, with features computed once and reused."""
    k_list = list(k_list)
    if not k_list:
        raise ValueError("K list must not be empty")
    _check_parameters(k_list, length, max_rounds)
    prepared = _prepare_features(dataset, s, length, seed)
    return [_cluster(prepared, k, seed, max_rounds, _run_rounds) for k in k_list]
