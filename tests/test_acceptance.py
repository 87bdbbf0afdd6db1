"""Acceptance suite: one test per release gate, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` for a pass/fail line per
gate; add `-s` to see the measured values.
"""

import math
import time

import numpy as np
import pytest

from walshscape import (
    build_features,
    derive_seed,
    elbow_sweep,
    fast_wft_batch,
    generate_synthetic,
    init_uniform,
    landscape_from_diagram,
    landscape_grid,
    lloyd,
    local_ranges,
    make_shard_plan,
    next_pow2,
    reduce_global_range,
    run_dcc,
    sublevel_persistence,
    walsh_matrix,
)
from walshscape.cli import main as cli_main
from walshscape.tda import tent_rows

from conftest import label_agreement, to_ingestion_order, truth_labels


@pytest.fixture(scope="module")
def planted_dataset():
    return generate_synthetic(1000, 1440, noise=0.05, seed=7)


@pytest.fixture(scope="module")
def planted_run(planted_dataset):
    return run_dcc(planted_dataset, k=3, s=4, length=100, seed=7)


def test_c01_shard_arithmetic_at_survey_scale():
    t0 = time.perf_counter()
    shards = make_shard_plan(250882, 100, seed=0)
    elapsed = time.perf_counter() - t0
    assert tuple(map(len, shards)) == tuple([2508] * 99 + [2590])
    assert sum(map(len, shards)) == 250882
    # a 250882-element permutation costs ~3 ms in numpy on this hardware,
    # so "instant" is bounded at 100 ms rather than 1 ms
    assert elapsed < 0.1
    print(f"\n[acceptance] C01 shard arithmetic: 99x2508 + 2590, {elapsed * 1e3:.1f} ms")


def test_c02_padding_of_a_day_of_minutes():
    assert next_pow2(1440) == 2048
    print("\n[acceptance] C02 next_pow2(1440) = 2048")


def test_c03_fast_transform_matches_naive_product_and_parseval():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for t2 in (2, 4, 8, 16, 32, 64):
        w = walsh_matrix(t2).astype(np.float64)
        scale = 1.0 / math.sqrt(t2)
        for _ in range(200):
            x = rng.normal(size=t2)
            naive = x @ w * scale
            assert np.max(np.abs(fast_wft_batch(x[None])[0] - naive)) < 1e-12
    for _ in range(100):
        x = rng.normal(size=2048)
        coeffs = fast_wft_batch(x[None])[0]
        assert np.sum(coeffs**2) == pytest.approx(np.sum(x**2), rel=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\n[acceptance] C03 fast==naive (1200 cases) + Parseval at 2048: {elapsed:.2f} s")


def test_c04_iterated_walsh_system_is_orthogonal():
    for t2 in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        w = walsh_matrix(t2)
        identity = t2 * np.eye(t2, dtype=np.int64)
        assert np.array_equal(w @ w.T, identity)
        assert set(np.unique(w)) <= {-1, 1}
    print("\n[acceptance] C04 Walsh system orthogonal (exact) up to 256")


def test_c05_closed_form_equals_diagram_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    for case in range(1000):
        n = int(rng.integers(1, 2049))
        f = rng.normal(size=n)
        if case % 3 == 0:
            f = np.round(f, 1)  # piecewise with ties and plateaus
        lo = float(f.min()) - float(rng.random())
        hi = float(f.max()) + float(rng.random()) + 1e-9
        via_diagram = landscape_from_diagram(sublevel_persistence(f), lo, hi, 100)
        direct = tent_rows(landscape_grid(lo, hi, 100), [float(f.min())], [float(f.max())])[0]
        assert np.max(np.abs(via_diagram - direct)) < 1e-12

    # the two-basin walkthrough function and its diagram
    diagram = sublevel_persistence([0, 1, 0.5, 1.5, 0.5, 2])
    assert sorted(map(tuple, diagram.points)) == [(0.0, 2.0), (0.5, 1.0), (0.5, 1.5)]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\n[acceptance] C05 oracle identity over 1000 functions: {elapsed:.2f} s")


def test_c06_single_worker_protocol_degenerates_to_plain_lloyd():
    dataset = generate_synthetic(60, 96, noise=0.05, seed=7)
    result = run_dcc(dataset, k=3, s=1, length=100, seed=3)

    shards = make_shard_plan(dataset.N, 1, seed=3)
    shard = dataset.levels[shards[0]]
    ranges = local_ranges(shard)
    features = build_features(ranges, reduce_global_range([ranges]), 100)
    assignment, _ = lloyd(features, init_uniform(features, 3, derive_seed(3, 1)))

    assert np.array_equal(result.labels, to_ingestion_order(shards, assignment.labels))
    assert result.wcss == assignment.wcss
    print("\n[acceptance] C06 S=1 labels identical to one lloyd run (exact)")


def test_c07_planted_archetype_recovery_and_elbow(planted_dataset, planted_run):
    t0 = time.perf_counter()
    agreement = label_agreement(truth_labels(planted_dataset), planted_run.labels)
    assert agreement >= 0.95

    points = elbow_sweep(planted_dataset, [2, 3, 4, 5], s=4, length=100, seed=7)
    wcss = {p.K: p.wcss for p in points}
    drops = {k: wcss[k] - wcss[k + 1] for k in (2, 3, 4)}
    assert drops[2] >= 2 * drops[3]
    assert drops[2] == max(drops.values())
    elapsed = (time.perf_counter() - t0) + planted_run.feature_seconds + planted_run.kmeans_seconds
    assert elapsed < 60.0
    print(
        f"\n[acceptance] C07 recovery={agreement:.4f}, "
        f"drop(2->3)/drop(3->4)={drops[2] / drops[3]:.1f}, {elapsed:.1f} s"
    )


def test_c08_cluster_command_is_byte_deterministic(tmp_path):
    data = tmp_path / "data.csv"
    assert cli_main(["synth", "--n", "30", "--T", "96", "--noise", "0.05",
                     "--seed", "7", "--out", str(data)]) == 0
    outputs = []
    for name in ("runA", "runB"):
        out = tmp_path / name
        assert cli_main(["cluster", "--input", str(data), "--out", str(out),
                         "--K", "3", "--S", "4", "--seed", "7"]) == 0
        outputs.append((out / "labels.csv").read_bytes())
    assert outputs[0] == outputs[1]
    print("\n[acceptance] C08 identical flags -> byte-identical label files")


def test_c09_feature_extraction_speed_for_one_worker(rng):
    shard = rng.integers(0, 3, size=(2508, 1440))
    t0 = time.perf_counter()
    ranges = local_ranges(shard)
    global_range = reduce_global_range([ranges])
    features = build_features(ranges, global_range, 100)
    elapsed = time.perf_counter() - t0
    assert features.shape == (2508, 100)
    assert elapsed < 10.0
    print(f"\n[acceptance] C09 features for 2508 series at T2=2048: {elapsed:.2f} s")


def test_c10_total_wcss_is_additive_over_shards(planted_dataset, planted_run):
    shards = make_shard_plan(planted_dataset.N, 4, seed=7)
    ranges = [local_ranges(planted_dataset.levels[ix]) for ix in shards]
    global_range = reduce_global_range(ranges)
    matrices = [build_features(r, global_range, 100) for r in ranges]

    labels_shard_order = planted_run.labels[np.concatenate(shards)]
    bounds = np.cumsum([len(m) for m in matrices])[:-1]
    flat = 0.0
    for matrix, labels, centroids in zip(
        matrices, np.split(labels_shard_order, bounds), planted_run.worker_centroids
    ):
        flat += ((matrix - centroids.centroids[labels - 1]) ** 2).sum()
    assert planted_run.wcss == pytest.approx(flat, abs=1e-9)
    print(f"\n[acceptance] C10 wcss additivity: {planted_run.wcss:.6f} == flat {flat:.6f}")
