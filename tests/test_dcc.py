import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import walshscape.dcc as dcc_module
import walshscape.features as features_module
import walshscape.wire as wire_module
from walshscape import (
    Assignment,
    CentroidSet,
    DatasetError,
    ProtocolError,
    RoundMessage,
    derive_seed,
    elbow_sweep,
    generate_synthetic,
    init_uniform,
    lloyd,
    master_consensus,
    run_dcc,
    worker_round,
)

from conftest import label_agreement, per_shard_features, to_ingestion_order, toy_dataset, truth_labels


def feature_matrix(rows) -> np.ndarray:
    """A shard's features: an (n, L) float64 array."""
    return np.asarray(rows, dtype=np.float64)


CHUNK = features_module._CHUNK_ROWS


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(60, 96, noise=0.05, seed=7)


class TestPrepareFeatures:
    def test_each_shard_is_transformed_once(self, dataset, monkeypatch):
        rows_per_call = []
        real = features_module.fast_wft_batch

        def counting(matrix):
            rows_per_call.append(len(matrix))
            return real(matrix)

        monkeypatch.setattr(features_module, "fast_wft_batch", counting)
        dcc_module._prepare_features(dataset, 3, 40, 1)
        # one range pass in chunks of _CHUNK_ROWS: 180 rows take 3 calls whatever S is
        assert len(rows_per_call) == 3
        assert sum(rows_per_call) == dataset.N

    def test_shards_of_several_chunks_pass_every_row_once(self, monkeypatch):
        big = generate_synthetic(200, 96, noise=0.05, seed=3)  # 200 series per shard at S=3
        passed = []
        real = features_module.fast_wft_batch

        def recording(matrix):
            passed.append(matrix.copy())  # local_ranges refills one buffer
            return real(matrix)

        monkeypatch.setattr(features_module, "fast_wft_batch", recording)
        dcc_module._prepare_features(big, 3, 40, 1)
        assert len(passed) > 3
        assert sum(len(m) for m in passed) == big.N
        padded = np.vstack(passed)
        assert np.array_equal(padded[:, : big.T], big.levels)  # ingestion order, not shard order
        assert not padded[:, big.T :].any()

    @pytest.mark.parametrize("n, s", [
        (n, s) for n in (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1, 200)
        for s in (1, 2, 3, 7) if s <= n
    ])
    def test_features_equal_the_per_shard_path(self, n, s):
        levels = np.random.default_rng(n * 10 + s).integers(0, 4, size=(n, 50))
        levels[0] = 3  # so d_min < d_max, even at n = 1
        dataset = toy_dataset(levels.tolist(), J=4)
        shards, matrices, _ = dcc_module._prepare_features(dataset, s, 30, 11)
        expected_shards, expected = per_shard_features(dataset, s, 30, 11)
        assert [ix.tobytes() for ix in shards] == [ix.tobytes() for ix in expected_shards]
        assert [m.tobytes() for m in matrices] == [m.tobytes() for m in expected]

    @pytest.mark.parametrize("s", [1, 2, 3, 7])
    def test_features_equal_the_per_shard_path_through_the_butterfly(self, s):
        # max level * T2 = 19999 * 1024 passes 2**24, so these chunks take the butterfly; chunks
        # of only the rows below 16000 take the exact path, and each order mixes them differently
        rng = np.random.default_rng(s)
        levels = np.vstack([rng.integers(0, 20000, size=(70, 600)), rng.integers(0, 16000, size=(90, 600))])
        levels[0, 0] = 19999
        dataset = toy_dataset(levels.tolist(), J=20000)
        _, matrices, _ = dcc_module._prepare_features(dataset, s, 25, 5)
        _, expected = per_shard_features(dataset, s, 25, 5)
        assert [m.tobytes() for m in matrices] == [m.tobytes() for m in expected]

    @pytest.mark.parametrize("s", [1, 4, 9])
    def test_one_range_pass_whatever_s(self, dataset, monkeypatch, s):
        calls = []
        real = dcc_module.local_ranges

        def counting(levels):
            calls.append(len(levels))
            return real(levels)

        monkeypatch.setattr(dcc_module, "local_ranges", counting)
        run_dcc(dataset, k=3, s=s, length=30, seed=2, max_rounds=3)
        elbow_sweep(dataset, [2, 3], s=s, length=30, seed=2, max_rounds=3)
        assert calls == [dataset.N, dataset.N]

    def test_identical_walsh_ranges_leave_nothing_to_cluster(self):
        zeros = toy_dataset([[0] * 16] * 6, J=3)
        with pytest.raises(DatasetError, match="same Walsh range"):
            run_dcc(zeros, k=2, s=2)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)

    def test_workers_get_distinct_streams(self):
        seeds = {derive_seed(0, wid) for wid in range(0, 50)}
        assert len(seeds) == 50


class TestWorkerRound:
    def test_first_round_always_flags(self):
        fm = feature_matrix(np.random.default_rng(0).normal(size=(10, 4)))
        message, _ = worker_round(fm, None, 2, seed=1, round_index=1, worker_id=3)
        assert message.flag == 1 and message.worker_id == 3 and message.round == 1

    def test_fixed_point_round_keeps_centroids_and_clears_flag(self):
        fm = feature_matrix([[0.0, 0.0], [0.2, 0.0], [10.0, 0.0], [10.2, 0.0]])
        msg1, retained = worker_round(fm, None, 2, seed=5, round_index=1)
        incoming = msg1.centroids  # already optimal for this shard
        msg2, retained2 = worker_round(
            fm, incoming, 2, seed=5, round_index=2, prev=retained
        )
        assert msg2.flag == 0
        assert np.array_equal(msg2.centroids.centroids, incoming.centroids)
        assert np.array_equal(retained2.labels, retained.labels)

    def test_blob_labels_and_flag_depend_only_on_previous_labels(self):
        # six points in two tight blobs; round 2 from near-blob centroids
        rows = np.array([[0.0], [0.1], [0.2], [9.0], [9.1], [9.2]])
        fm = feature_matrix(rows)
        incoming = CentroidSet(centroids=np.array([[0.05], [9.05]]))
        blob_ids = np.array([1, 1, 1, 2, 2, 2])

        same_prev = Assignment(labels=blob_ids, wcss=0.0)
        msg_same, retained = worker_round(fm, incoming, 2, seed=0, round_index=2, prev=same_prev)
        assert np.array_equal(retained.labels, blob_ids)
        assert msg_same.flag == 0

        other_prev = Assignment(labels=np.array([2, 2, 2, 1, 1, 1]), wcss=0.0)
        msg_other, _ = worker_round(fm, incoming, 2, seed=0, round_index=2, prev=other_prev)
        assert msg_other.flag == 1

    def test_round_and_incoming_must_agree(self):
        fm = feature_matrix(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            worker_round(fm, None, 2, seed=0, round_index=2)
        with pytest.raises(ValueError):
            worker_round(fm, CentroidSet(centroids=np.zeros((2, 2))), 2, seed=0, round_index=1)

    def test_dimension_mismatch_rejected(self):
        fm = feature_matrix(np.zeros((3, 4)))
        bad = CentroidSet(centroids=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            worker_round(fm, bad, 2, seed=0, round_index=2)


class TestMasterConsensus:
    def _message(self, wid, centroids):
        return RoundMessage(
            worker_id=wid, round=1, centroids=CentroidSet(centroids=np.asarray(centroids, float)), flag=1
        )

    def test_two_workers_average_into_natural_groups(self):
        messages = [
            self._message(1, [[0.0], [10.0]]),
            self._message(2, [[0.2], [9.8]]),
        ]
        consensus = master_consensus(messages, 2, seed=3)
        assert consensus.centroids[:, 0] == pytest.approx([0.1, 9.9])

    def test_single_worker_returns_its_centroids_verbatim(self):
        centroids = np.array([[1.0, 2.0], [5.0, -1.0], [-3.0, 0.5]])
        consensus = master_consensus([self._message(1, centroids)], 3, seed=11)
        assert np.array_equal(consensus.centroids, centroids)

    def test_identical_workers_reproduce_the_shared_set(self):
        centroids = np.array([[0.0, 1.0], [4.0, 4.0]])
        messages = [self._message(wid, centroids) for wid in (1, 2, 3)]
        consensus = master_consensus(messages, 2, seed=2)
        assert np.array_equal(consensus.centroids, centroids)

    def test_missing_worker_is_a_protocol_fault(self, monkeypatch):
        # the round check in coordinate_rounds refuses it before consensus runs
        def refuse(messages, k, seed):
            raise AssertionError("master_consensus ran")

        monkeypatch.setattr(dcc_module, "master_consensus", refuse)
        matrices = [feature_matrix([[float(w)]]) for w in range(3)]
        reports = [self._message(1, [[0.0]]), self._message(3, [[1.0]])]
        with pytest.raises(ProtocolError, match="round 1"):
            dcc_module.coordinate_rounds(matrices, 1, 0, 5, lambda i, consensus: reports, list)

    @staticmethod
    def _oracle(messages, k, seed):
        """The first-row loop and lexsort that ordered consensus clusters
        before `np.unique`; kept as the reference."""
        stacked = np.vstack([m.centroids.centroids for m in sorted(messages, key=lambda m: m.worker_id)])
        assignment, centroids = lloyd(stacked, init_uniform(stacked, k, seed))
        first_row = np.full(k, len(stacked), dtype=np.int64)
        for row, label in enumerate(assignment.labels):
            if first_row[label - 1] == len(stacked):
                first_row[label - 1] = row
        order = np.lexsort((np.arange(k), first_row))
        return centroids.centroids[order]

    def test_empty_consensus_clusters_go_last_in_index_order(self):
        rows = np.array([[1.0, 2.0], [0.0, 3.0]])[[0, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1]]
        messages = [self._message(wid, rows[4 * (wid - 1) : 4 * wid]) for wid in (1, 2, 3)]
        assignment, centroids = lloyd(rows, init_uniform(rows, 4, 5))
        assert sorted(set(assignment.labels)) == [1, 3]  # clusters 2 and 4 end empty
        consensus = master_consensus(messages, 4, seed=5)
        assert np.array_equal(consensus.centroids, centroids.centroids[[0, 2, 1, 3]])
        assert consensus.centroids.tobytes() == self._oracle(messages, 4, 5).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4), st.integers(1, 6), st.integers(2, 5), st.integers(1, 3),
        st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
    )
    def test_order_equals_the_oracle(self, s, k, length, distinct, data_seed, seed):
        rng = np.random.default_rng(data_seed)
        rows = rng.integers(0, 4, size=(distinct, length)).astype(np.float64)
        rows = rows[rng.integers(0, distinct, size=s * k)]  # few distinct rows: clusters empty
        messages = [self._message(wid, rows[k * (wid - 1) : k * wid]) for wid in range(1, s + 1)]
        consensus = master_consensus(messages, k, seed)
        assert consensus.centroids.tobytes() == self._oracle(messages, k, seed).tobytes()


class TestRunDcc:
    def test_single_shard_equals_plain_lloyd(self, dataset):
        result = run_dcc(dataset, k=3, s=1, length=50, seed=3)
        shards, matrices = per_shard_features(dataset, 1, 50, 3)
        assignment, _ = lloyd(
            matrices[0], init_uniform(matrices[0], 3, derive_seed(3, 1))
        )
        assert np.array_equal(result.labels, to_ingestion_order(shards, assignment.labels))
        assert result.wcss == assignment.wcss
        assert result.converged

    def test_deterministic_given_seed(self, dataset):
        a = run_dcc(dataset, k=3, s=4, length=40, seed=5)
        b = run_dcc(dataset, k=3, s=4, length=40, seed=5)
        assert np.array_equal(a.labels, b.labels)
        assert a.wcss == b.wcss
        assert a.rounds_used == b.rounds_used
        assert np.array_equal(a.centroids.centroids, b.centroids.centroids)

    def test_recovers_planted_archetypes(self, dataset):
        result = run_dcc(dataset, k=3, s=4, length=50, seed=3)
        assert label_agreement(truth_labels(dataset), result.labels) >= 0.95

    def test_labels_realigned_to_ingestion_order(self, dataset):
        # members of one planted archetype share a label after realignment
        result = run_dcc(dataset, k=3, s=5, length=50, seed=9)
        truth = truth_labels(dataset)
        for archetype in (1, 2, 3):
            block = result.labels[truth == archetype]
            values, counts = np.unique(block, return_counts=True)
            assert counts.max() / counts.sum() >= 0.95

    def test_wcss_additive_over_shards(self, dataset):
        result = run_dcc(dataset, k=3, s=4, length=40, seed=5)
        shards, matrices = per_shard_features(dataset, 4, 40, 5)
        labels_by_shard = np.split(
            result.labels[np.concatenate(shards)], np.cumsum([len(m) for m in matrices])[:-1]
        )
        flat = 0.0
        for matrix, labels, centroids in zip(matrices, labels_by_shard, result.worker_centroids):
            flat += ((matrix - centroids.centroids[labels - 1]) ** 2).sum()
        assert result.wcss == pytest.approx(flat, abs=1e-9)
        assert result.wcss == pytest.approx(sum(result.wcss_per_shard), abs=1e-12)

    def test_wcss_is_numpys_pairwise_sum_over_shards(self):
        # from S = 8 on, numpy's pairwise order and Python's left-to-right sum give other bits
        result = run_dcc(generate_synthetic(30, 64, 0.05, 7), k=3, s=8, length=20, seed=1)
        assert result.wcss == float(np.asarray(result.wcss_per_shard).sum()) == 63.287825340489384
        assert sum(result.wcss_per_shard) == 63.28782534048939

    def test_round_budget_and_flag_soundness(self, dataset, monkeypatch):
        calls = []
        original = dcc_module.master_consensus

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(dcc_module, "master_consensus", counting)
        result = run_dcc(dataset, k=3, s=3, length=40, seed=1)
        assert result.converged
        assert result.rounds_used <= 100
        # one consensus per non-final round; none after every flag cleared
        assert len(calls) == result.rounds_used - 1

    def test_exhausted_budget_reports_unconverged(self, dataset):
        result = run_dcc(dataset, k=3, s=4, length=40, seed=5, max_rounds=1)
        assert result.rounds_used == 1
        assert not result.converged
        assert result.centroids.K == 3  # consensus still reported

    def test_rejects_bad_k(self, dataset):
        with pytest.raises(ValueError):
            run_dcc(dataset, k=0, s=2)

    def test_unknown_transport_raises_before_the_feature_pass(self, dataset, monkeypatch):
        def refuse(levels):
            raise AssertionError("the range pass ran")

        monkeypatch.setattr(dcc_module, "local_ranges", refuse)
        with pytest.raises(ValueError, match="unknown transport 'tcp'"):
            run_dcc(dataset, k=2, s=2, transport="tcp")

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda ds: run_dcc(ds, k=2, s=2, length=1), "grid needs at least two points", id="L"),
        pytest.param(lambda ds: run_dcc(ds, k=2, s=2, max_rounds=0), "I must be at least 1", id="I"),
        pytest.param(lambda ds: elbow_sweep(ds, [0, 2], s=2), "K must be at least 1", id="K-sweep"),
        pytest.param(lambda ds: elbow_sweep(ds, [2], s=2, length=1), "grid needs at least two points",
                     id="L-sweep"),
        pytest.param(lambda ds: elbow_sweep(ds, [2], s=2, max_rounds=0), "I must be at least 1",
                     id="I-sweep"),
    ])
    def test_bad_k_l_or_i_raises_before_the_feature_pass(self, dataset, monkeypatch, call, message):
        def refuse(levels):
            raise AssertionError("the range pass ran")

        monkeypatch.setattr(dcc_module, "local_ranges", refuse)
        with pytest.raises(ValueError, match=message):
            call(dataset)

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_rejects_round_budget_below_one(self, dataset, transport):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="I must be at least 1"):
                run_dcc(dataset, k=2, s=2, max_rounds=bad, transport=transport)

    def test_reports_out_of_worker_order_are_a_protocol_fault(self):
        def report(wid):
            centroids = CentroidSet(centroids=np.full((1, 2), float(wid)))
            return RoundMessage(worker_id=wid, round=1, centroids=centroids, flag=1)

        matrices = [feature_matrix([[0.0, 0.0]]), feature_matrix([[1.0, 1.0]])]
        with pytest.raises(ProtocolError, match="round 1"):
            dcc_module.coordinate_rounds(
                matrices, 1, 0, 5, lambda i, consensus: [report(2), report(1)], list
            )

    def test_a_report_of_the_wrong_k_is_a_protocol_fault(self):
        def report(wid, k):
            centroids = CentroidSet(centroids=np.full((k, 2), float(wid)))
            return RoundMessage(worker_id=wid, round=1, centroids=centroids, flag=1)

        matrices = [feature_matrix([[0.0, 0.0]]), feature_matrix([[1.0, 1.0]])]
        with pytest.raises(ProtocolError) as raised:
            dcc_module.coordinate_rounds(
                matrices, 1, 0, 5, lambda i, consensus: [report(1, 1), report(2, 2)], list
            )
        assert str(raised.value) == ("round 1 needs (worker, round, K, L) reports in worker order, "
                                     "got [(1, 1, 1, 2), (2, 1, 2, 2)]")


class TestElbowSweep:
    def test_single_cluster_single_shard_matches_grand_sse(self):
        dataset = generate_synthetic(20, 64, noise=0.1, seed=2)
        _, matrices = per_shard_features(dataset, 1, 30, 0)
        rows = matrices[0]
        grand = ((rows - rows.mean(axis=0)) ** 2).sum()
        points = elbow_sweep(dataset, [1], s=1, length=30, seed=0)
        assert points[0].wcss == pytest.approx(grand, rel=1e-12)

    def test_single_cluster_multi_shard_matches_per_shard_sse(self):
        dataset = generate_synthetic(20, 64, noise=0.1, seed=2)
        _, matrices = per_shard_features(dataset, 3, 30, 0)
        expected = sum(
            ((m - m.mean(axis=0)) ** 2).sum() for m in matrices
        )
        points = elbow_sweep(dataset, [1], s=3, length=30, seed=0)
        assert points[0].wcss == pytest.approx(expected, rel=1e-12)

    def test_features_computed_once(self):
        dataset = generate_synthetic(15, 64, noise=0.05, seed=4)
        points = elbow_sweep(dataset, [2, 3, 4], s=2, length=30, seed=1)
        assert len({p.feature_seconds for p in points}) == 1

    def test_wcss_decreases_with_k_on_separable_data(self):
        dataset = generate_synthetic(40, 96, noise=0.05, seed=6)
        points = elbow_sweep(dataset, [2, 3, 4, 5], s=2, length=40, seed=5)
        wcss = [p.wcss for p in points]
        assert wcss == sorted(wcss, reverse=True)
        drop_23 = wcss[0] - wcss[1]
        drop_34 = wcss[1] - wcss[2]
        assert drop_23 >= 2 * drop_34

    def test_empty_k_list_rejected(self):
        dataset = generate_synthetic(5, 32, noise=0.0, seed=0)
        with pytest.raises(ValueError):
            elbow_sweep(dataset, [], s=1)

    def test_each_result_equals_the_run_dcc_result_but_for_the_timers(self):
        dataset = generate_synthetic(20, 96, 0.05, 7)
        results = elbow_sweep(dataset, [3, 4], s=2, length=20, seed=3)
        assert [r.K for r in results] == [3, 4]
        assert results[1].cycle_period is not None  # both a converging and an oscillating run
        for swept in results:
            single = run_dcc(dataset, k=swept.K, s=2, length=20, seed=3)
            for field in dataclasses.fields(single):
                if field.name in ("feature_seconds", "kmeans_seconds"):
                    continue
                a, b = getattr(swept, field.name), getattr(single, field.name)
                if field.name in ("labels", "order"):
                    assert a.dtype == b.dtype and np.array_equal(a, b), field.name
                elif field.name == "centroids":
                    assert a.centroids.tobytes() == b.centroids.tobytes()
                elif field.name == "worker_centroids":
                    assert [c.centroids.tobytes() for c in a] == [c.centroids.tobytes() for c in b]
                else:
                    assert a == b, field.name


def plain_run_rounds(matrices, k, seed, max_rounds):
    """The in-process round loop without cycle skipping, kept as the oracle: every round runs."""
    worker_seeds = [derive_seed(seed, wid) for wid in range(1, len(matrices) + 1)]
    retained = [None] * len(matrices)
    master_seed = derive_seed(seed, 0)
    consensus = None
    for i in range(1, max_rounds + 1):
        messages = []
        for wid, features in enumerate(matrices, start=1):
            msg, retained[wid - 1] = worker_round(
                features, consensus, k, worker_seeds[wid - 1], i,
                worker_id=wid, prev=retained[wid - 1],
            )
            messages.append(msg)
        converged = all(m.flag == 0 for m in messages)
        if converged:
            break
        consensus = master_consensus(messages, k, master_seed)
    return retained, tuple(m.centroids for m in messages), consensus, i, converged, None, None


def assert_same_run(actual, expected):
    assert np.array_equal(actual.labels, expected.labels)
    assert actual.centroids.centroids.tobytes() == expected.centroids.centroids.tobytes()
    assert [c.centroids.tobytes() for c in actual.worker_centroids] == [
        c.centroids.tobytes() for c in expected.worker_centroids
    ]
    assert actual.wcss_per_shard == expected.wcss_per_shard
    assert actual.wcss == expected.wcss
    assert (actual.rounds_used, actual.converged) == (expected.rounds_used, expected.converged)


class TestCycleSkip:
    """Consensus cycles are skipped without changing a bit of the result."""

    # noise keeps points distinct: with more clusters than distinct points every
    # Lloyd call spends its whole 1000-pass budget, which only slows the test
    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(4, 20), t=st.sampled_from([32, 64, 96]), noise=st.floats(0.02, 0.2),
        data_seed=st.integers(0, 999), k=st.integers(1, 6), s=st.integers(1, 4),
        seed=st.integers(0, 999),
    )
    @example(n=20, t=96, noise=0.05, data_seed=7, k=4, s=2, seed=3)  # period 2 from round 3
    @example(n=15, t=96, noise=0.05, data_seed=3, k=5, s=2, seed=0)  # period 3 from round 4
    @example(n=15, t=96, noise=0.05, data_seed=3, k=5, s=3, seed=5)  # period 5 from round 7
    def test_every_budget_matches_the_plain_loop(self, n, t, noise, data_seed, k, s, seed):
        dataset = generate_synthetic(n, t, noise, data_seed)
        for budget in range(1, 41):
            actual = run_dcc(dataset, k=k, s=s, length=20, seed=seed, max_rounds=budget)
            with mock.patch.object(dcc_module, "_run_rounds", plain_run_rounds):
                expected = run_dcc(dataset, k=k, s=s, length=20, seed=seed, max_rounds=budget)
            assert_same_run(actual, expected)
            if actual.cycle_period is not None:
                assert not actual.converged
                assert 2 <= actual.cycle_start
                assert actual.cycle_start + actual.cycle_period <= budget

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_only_the_rounds_up_to_the_first_repeat_and_the_leftover_run(self, transport, monkeypatch):
        dataset = generate_synthetic(40, 96, 0.05, 7)
        executed = []
        real = dcc_module.coordinate_rounds

        def counting(matrices, k, seed, max_rounds, exchange, finish):
            def counted_exchange(i, consensus):
                executed.append(i)
                return exchange(i, consensus)

            return real(matrices, k, seed, max_rounds, counted_exchange, finish)

        monkeypatch.setattr(dcc_module, "coordinate_rounds", counting)
        monkeypatch.setattr(wire_module, "coordinate_rounds", counting)
        result = run_dcc(dataset, k=5, s=3, length=20, seed=2, max_rounds=100, transport=transport)
        start, period = result.cycle_start, result.cycle_period
        assert (start, period) == (5, 6)
        first_repeat = start + period
        leftover = (100 - first_repeat) % period
        assert executed == list(range(1, first_repeat + 1)) + list(range(101 - leftover, 101))
        assert len(executed) <= first_repeat + period
        assert (result.rounds_used, result.converged) == (100, False)

    def test_converging_run_reports_no_cycle(self, dataset):
        result = run_dcc(dataset, k=3, s=3, length=40, seed=1)
        assert result.converged
        assert (result.cycle_start, result.cycle_period) == (None, None)

    def test_elbow_points_keep_the_round_state(self):
        dataset = generate_synthetic(20, 96, 0.05, 7)
        points = elbow_sweep(dataset, [3, 4], s=2, length=20, seed=3)
        for p in points:
            result = run_dcc(dataset, k=p.K, s=2, length=20, seed=3)
            assert (p.rounds_used, p.converged, p.cycle_period) == (
                result.rounds_used, result.converged, result.cycle_period
            )
        assert points[1].cycle_period is not None and not points[1].converged
