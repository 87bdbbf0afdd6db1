import dataclasses
import os
import signal
import socket
import struct
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import walshscape.dcc as dcc_module
import walshscape.wire as wire
from walshscape import CentroidSet, ProtocolError, RoundMessage, generate_synthetic, run_dcc, save_dataset
from walshscape.cli import main
from walshscape.wire import (
    pack_result,
    pack_round,
    pack_setup,
    unpack_result,
    unpack_round,
    unpack_setup,
)

from conftest import traced_peak


class TestFrames:
    def test_setup_round_trip(self, rng):
        rows = rng.normal(size=(5, 7))
        payload = pack_setup(3, 2, 987654321012345, rows)
        worker_id, k, seed, back = unpack_setup(payload)
        assert (worker_id, k, seed) == (3, 2, 987654321012345)
        assert np.array_equal(back, rows)
        assert back.flags.aligned

    def test_round_trip_preserves_doubles_bit_exactly(self, rng):
        centroids = CentroidSet(centroids=rng.normal(size=(4, 6)))
        message = RoundMessage(worker_id=2, round=5, centroids=centroids, flag=0)
        back = unpack_round(pack_round(message))
        assert back.worker_id == 2 and back.round == 5 and back.flag == 0
        assert back.centroids.centroids.tobytes() == centroids.centroids.tobytes()

    def test_result_round_trip(self):
        labels = np.array([1, 3, 2, 2, 1], dtype=np.int64)
        worker_id, back, wcss = unpack_result(pack_result(9, labels, 12.5))
        assert worker_id == 9
        assert np.array_equal(back, labels)
        assert wcss == 12.5

    def test_frame_layout_is_pinned(self):
        # ROUND payload: kind, round u32, worker u32, K u32, L u32, K*L f64, flag u8
        message = RoundMessage(
            worker_id=1, round=2, centroids=CentroidSet(centroids=np.array([[1.0]])), flag=1
        )
        payload = pack_round(message)
        assert payload[0] == 2  # kind
        assert len(payload) == 1 + 16 + 8 + 1
        assert payload[-1] == 1  # flag byte


valid_frames = st.one_of(
    st.builds(
        lambda n, length: (unpack_setup, pack_setup(1, 2, 3, np.ones((n, length)))),
        st.integers(0, 4), st.integers(0, 4),
    ),
    st.builds(
        lambda k, length, flag: (unpack_round, pack_round(RoundMessage(
            worker_id=2, round=3, centroids=CentroidSet(centroids=np.ones((k, length))), flag=flag
        ))),
        st.integers(1, 4), st.integers(1, 4), st.integers(0, 1),
    ),
    st.builds(
        lambda n: (unpack_result, pack_result(5, np.arange(1, n + 1), 1.5)), st.integers(0, 6)
    ),
)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="socket workers are forked")


class TestMalformedFrames:
    @given(valid_frames, st.data())
    def test_truncated_or_extended_frame_is_a_protocol_fault(self, frame, data):
        unpack, payload = frame
        unpack(payload)
        if data.draw(st.booleans(), label="truncate"):
            bad = payload[: data.draw(st.integers(0, len(payload) - 1), label="keep")]
        else:
            bad = payload + data.draw(st.binary(min_size=1, max_size=16), label="extra")
        with pytest.raises(ProtocolError):
            unpack(bad)

    def test_a_length_prefix_allocates_only_the_bytes_that_arrive(self):
        ours, theirs = socket.socketpair()
        with ours, theirs:  # a 2**28-byte claim followed by 10 real bytes
            theirs.sendall(struct.pack("<I", 2**28) + bytes([wire.KIND_ROUND]) + bytes(9))
            theirs.shutdown(socket.SHUT_WR)

            def receive():
                with pytest.raises(ProtocolError, match="closed after 10 of 268435456 bytes"):
                    wire._recv_kind(ours, wire.KIND_ROUND)

            assert traced_peak(receive) < 2**20

    def test_a_frame_of_another_kind_is_a_protocol_fault(self):
        ours, theirs = socket.socketpair()
        with ours, theirs:  # a STOP where a ROUND is due
            wire._send_frame(theirs, struct.pack("<B", wire.KIND_STOP))
            with pytest.raises(ProtocolError, match=r"^expected frame kind \(2,\), got 3$"):
                wire._recv_kind(ours, wire.KIND_ROUND)

    @pytest.mark.parametrize("unpack", [unpack_setup, unpack_round, unpack_result])
    def test_empty_frame_is_a_protocol_fault(self, unpack):
        with pytest.raises(ProtocolError):
            unpack(b"")

    @pytest.mark.parametrize("round_index, flag", [(2, 2), (2, 255), (1, 0)])
    def test_bad_flag_byte_is_a_protocol_fault(self, round_index, flag):
        message = RoundMessage(
            worker_id=1, round=round_index, centroids=CentroidSet(centroids=np.ones((2, 3))), flag=1
        )
        payload = pack_round(message)[:-1] + bytes([flag])
        with pytest.raises(ProtocolError, match="flag"):
            unpack_round(payload)


class OversizePayload:
    """Claims a length without holding the bytes, so no 4 GiB is ever allocated."""

    def __init__(self, length):
        self.length = length

    def __len__(self):
        return self.length

    def __radd__(self, head):
        return head, self


class RecordingConnection:
    def __init__(self):
        self.sent = []

    def sendall(self, data):
        self.sent.append(data)


class TestOversizeFrame:
    def test_payload_over_the_u32_limit_is_a_protocol_fault(self):
        conn = RecordingConnection()
        with pytest.raises(ProtocolError, match="exceeds the u32 length limit"):
            wire._send_frame(conn, OversizePayload(2**32))
        assert conn.sent == []

    def test_payload_at_the_u32_limit_is_sent(self):
        conn = RecordingConnection()
        payload = OversizePayload(2**32 - 1)
        wire._send_frame(conn, payload)
        assert conn.sent == [(b"\xff\xff\xff\xff", payload)]

    def test_oversize_setup_exits_with_a_protocol_fault(self, monkeypatch, tmp_path, capsys):
        data = tmp_path / "data.bin"
        assert main(["synth", "--n", "4", "--T", "32", "--out", str(data), "--format", "binary"]) == 0
        monkeypatch.setattr(wire, "pack_setup", lambda *args: OversizePayload(2**32))
        out = tmp_path / "run"
        code = main(["cluster", "--input", str(data), "--format", "binary", "--out", str(out),
                     "--K", "2", "--S", "2", "--transport", "socket"])
        assert code == 3
        assert "protocol fault: worker 1: 4294967296-byte frame payload exceeds" in capsys.readouterr().err
        assert not out.exists()


class TestSocketTransport:
    def test_matches_in_process_results_exactly(self):
        dataset = generate_synthetic(25, 64, noise=0.05, seed=7)
        inproc = run_dcc(dataset, k=3, s=3, length=40, seed=5, transport="inproc")
        socketed = run_dcc(dataset, k=3, s=3, length=40, seed=5, transport="socket")
        assert np.array_equal(inproc.labels, socketed.labels)
        assert inproc.wcss == socketed.wcss
        assert inproc.rounds_used == socketed.rounds_used
        assert inproc.converged == socketed.converged
        assert np.array_equal(inproc.centroids.centroids, socketed.centroids.centroids)
        assert inproc.wcss_per_shard == socketed.wcss_per_shard
        for a, b in zip(inproc.worker_centroids, socketed.worker_centroids):
            assert np.array_equal(a.centroids, b.centroids)

    @pytest.mark.parametrize("budget", [7, 8, 100])
    def test_cycling_run_matches_in_process_results_exactly(self, budget):
        dataset = generate_synthetic(20, 96, noise=0.05, seed=7)  # K=4: period 2 from round 3
        inproc, socketed = (
            run_dcc(dataset, k=4, s=2, length=20, seed=3, max_rounds=budget, transport=transport)
            for transport in ("inproc", "socket")
        )
        assert (inproc.cycle_start, inproc.cycle_period) == (3, 2)
        assert (socketed.cycle_start, socketed.cycle_period) == (3, 2)
        assert (socketed.rounds_used, socketed.converged) == (budget, False)
        assert (inproc.rounds_used, inproc.converged) == (budget, False)
        assert np.array_equal(inproc.labels, socketed.labels)
        assert inproc.centroids.centroids.tobytes() == socketed.centroids.centroids.tobytes()
        assert inproc.wcss_per_shard == socketed.wcss_per_shard
        for a, b in zip(inproc.worker_centroids, socketed.worker_centroids):
            assert a.centroids.tobytes() == b.centroids.tobytes()

    @needs_fork
    def test_dead_worker_is_named_promptly(self, monkeypatch, capfd):
        real = wire.worker_round

        def dies_in_round_3(*args, **kwargs):
            if kwargs["worker_id"] == 2 and args[4] == 3:
                os._exit(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(wire, "worker_round", dies_in_round_3)
        dataset = generate_synthetic(25, 64, noise=0.05, seed=7)  # K=4 runs 5 rounds
        t0 = time.monotonic()
        with pytest.raises(ProtocolError, match=r"worker 2\b"):
            run_dcc(dataset, k=4, s=3, length=40, seed=5, transport="socket")
        assert time.monotonic() - t0 < wire._TIMEOUT / 10
        # the surviving workers leave one line each, not a traceback
        assert "Traceback" not in capfd.readouterr().err

    @needs_fork
    def test_worker_dead_before_reading_setup_is_named_promptly(self, monkeypatch):
        # only the first child dies: were both dead, either failed SETUP send could be named
        forks, real_fork, real_entry = [], wire._fork_worker, wire.worker_entry

        def counting_fork(conn, inherited):
            forks.append(conn)  # a child sees the count as it was when it was forked
            return real_fork(conn, inherited)

        def first_child_dies(conn):
            if len(forks) == 1:
                os._exit(1)
            real_entry(conn)

        monkeypatch.setattr(wire, "_fork_worker", counting_fork)
        monkeypatch.setattr(wire, "worker_entry", first_child_dies)
        dataset = generate_synthetic(5, 32, noise=0.05, seed=7)
        t0 = time.monotonic()
        with pytest.raises(ProtocolError, match=r"worker 1\b"):
            run_dcc(dataset, k=2, s=2, length=20, seed=5, transport="socket")
        assert time.monotonic() - t0 < 5.0

    @needs_fork
    def test_worker_that_raises_is_named_and_never_runs_the_callers_code(self, monkeypatch, tmp_path, capfd):
        def raises(conn):
            raise RuntimeError("worker entry failed")

        monkeypatch.setattr(wire, "worker_entry", raises)
        dataset = generate_synthetic(5, 32, noise=0.05, seed=7)
        marker = tmp_path / "pids"
        t0 = time.monotonic()
        try:
            with pytest.raises(ProtocolError, match=r"worker 1\b"):
                run_dcc(dataset, k=2, s=3, length=20, seed=5, transport="socket")
        finally:  # a child that unwound out of run_dcc would append its own pid here
            with open(marker, "a") as fh:
                fh.write(f"{os.getpid()}\n")
        assert time.monotonic() - t0 < 5.0
        assert marker.read_text().split() == [str(os.getpid())]
        err = capfd.readouterr().err
        assert err.count("worker: worker entry failed\n") == 3
        assert "Traceback" not in err

    @needs_fork
    def test_when_every_worker_dies_the_lowest_numbered_is_named(self, monkeypatch, capfd):
        # each SETUP goes out before any reply is read, and a failed send is raised at its
        # worker's turn, so which send the kernel refused first does not matter
        def raises(conn):
            raise RuntimeError("worker entry failed")

        monkeypatch.setattr(wire, "worker_entry", raises)
        dataset = generate_synthetic(5, 32, noise=0.05, seed=7)
        named = []
        for _ in range(25):
            with pytest.raises(ProtocolError) as caught:
                run_dcc(dataset, k=2, s=3, length=20, seed=5, transport="socket")
            named.append(str(caught.value).split(":")[0])
        assert named == ["worker 1"] * 25
        assert capfd.readouterr().err.count("worker: worker entry failed\n") == 75

    @needs_fork
    def test_worker_that_stops_answering_is_named_and_killed(self, monkeypatch, tmp_path):
        pids = tmp_path / "pids"

        def hangs(conn):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            time.sleep(60)  # never reads SETUP and never exits on its own

        monkeypatch.setattr(wire, "worker_entry", hangs)
        monkeypatch.setattr(wire, "_TIMEOUT", 1.0)
        monkeypatch.setattr(wire, "_REAP_GRACE", 0.5)
        dataset = generate_synthetic(5, 32, noise=0.05, seed=7)
        t0 = time.monotonic()
        with pytest.raises(ProtocolError, match=r"worker 1\b.*timed out"):
            run_dcc(dataset, k=2, s=2, length=20, seed=5, transport="socket")
        assert time.monotonic() - t0 < 5.0
        children = [int(pid) for pid in pids.read_text().split()]
        assert len(children) == 2
        for pid in children:  # already reaped: no zombie and no running child is left
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @needs_fork
    def test_workers_reaped_by_the_kernel_keep_the_result(self):
        dataset = generate_synthetic(10, 32, noise=0.05, seed=7)
        inproc = run_dcc(dataset, k=2, s=2, length=20, seed=5)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)  # exited children are reaped at once
        try:
            socketed = run_dcc(dataset, k=2, s=2, length=20, seed=5, transport="socket")
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert np.array_equal(inproc.labels, socketed.labels)
        assert inproc.centroids.centroids.tobytes() == socketed.centroids.centroids.tobytes()
        assert (inproc.wcss_per_shard, inproc.rounds_used) == (socketed.wcss_per_shard, socketed.rounds_used)

    def test_socket_transport_without_fork_raises_before_the_feature_pass(self, monkeypatch):
        def refuse(levels):
            raise AssertionError("the range pass ran")

        monkeypatch.setattr(dcc_module, "local_ranges", refuse)
        monkeypatch.delattr(os, "fork", raising=False)
        dataset = generate_synthetic(5, 32, noise=0.05, seed=7)
        with pytest.raises(ValueError, match="os.fork"):
            run_dcc(dataset, k=2, s=2, transport="socket")

    def test_unknown_transport_rejected(self):
        dataset = generate_synthetic(5, 32, noise=0.0, seed=0)
        with pytest.raises(ValueError, match="transport"):
            run_dcc(dataset, k=2, s=2, transport="carrier-pigeon")


class TestReplyChecks:
    """A reply that does not match its request is a protocol fault that names its worker."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_synthetic(30, 64, noise=0.05, seed=7)  # 90 series: two shards of 45 at S=2

    @staticmethod
    def second_worker_sends(fault):
        """A pack_result whose worker 2 sends fault(labels, wcss) in its RESULT."""
        real = wire.pack_result
        return lambda wid, labels, wcss: real(wid, *(fault(labels, wcss) if wid == 2 else (labels, wcss)))

    @needs_fork
    @pytest.mark.parametrize("fault, got", [
        (lambda labels, wcss: (labels[:-1], wcss), "got 44 labels [1, 2, 3], WCSS "),
        (lambda labels, wcss: (np.r_[0, labels[1:]], wcss), "got 45 labels [0, 1, 2, 3], WCSS "),
        (lambda labels, wcss: (np.r_[labels[:-1], 4], wcss), "got 45 labels [1, 2, 3, 4], WCSS "),
        (lambda labels, wcss: (labels, float("nan")), "got 45 labels [1, 2, 3], WCSS nan"),
        (lambda labels, wcss: (labels, -1.0), "got 45 labels [1, 2, 3], WCSS -1.0"),
    ], ids=["one label short", "label 0", "label K+1", "NaN WCSS", "negative WCSS"])
    def test_a_bad_result_names_its_worker(self, monkeypatch, dataset, fault, got):
        monkeypatch.setattr(wire, "pack_result", self.second_worker_sends(fault))
        with pytest.raises(ProtocolError) as raised:
            run_dcc(dataset, k=3, s=2, length=20, seed=5, transport="socket")
        assert str(raised.value).startswith(f"worker 2: RESULT needs 45 labels in 1..3, WCSS in [0, inf); "
                                            f"{got}")

    @needs_fork
    def test_a_result_that_names_another_worker_is_a_protocol_fault(self, monkeypatch, dataset):
        real = wire.pack_result
        monkeypatch.setattr(wire, "pack_result",
                            lambda wid, labels, wcss: real(1 if wid == 2 else wid, labels, wcss))
        with pytest.raises(ProtocolError, match=r"^worker 2: RESULT names worker 1$"):
            run_dcc(dataset, k=3, s=2, length=20, seed=5, transport="socket")

    @needs_fork
    @pytest.mark.parametrize("reshape, k, length", [
        (lambda c: np.vstack([c, c[:1]]), 4, 20),
        (lambda c: c[:, :-1], 3, 19),
    ], ids=["K+1 centroids", "L-1 columns"])
    def test_a_report_of_the_wrong_shape_names_its_worker(self, monkeypatch, dataset, reshape, k, length):
        real = wire.worker_round

        def reshaped(*args, **kwargs):
            message, kept = real(*args, **kwargs)
            if kwargs["worker_id"] == 2 and args[4] == 2:
                centroids = CentroidSet(reshape(message.centroids.centroids))
                message = dataclasses.replace(message, centroids=centroids)
            return message, kept

        monkeypatch.setattr(wire, "worker_round", reshaped)
        with pytest.raises(ProtocolError) as raised:
            run_dcc(dataset, k=3, s=2, length=20, seed=5, transport="socket")
        assert str(raised.value) == ("round 2 needs (worker, round, K, L) reports in worker order, "
                                     f"got [(1, 2, 3, 20), (2, 2, {k}, {length})]")

    @needs_fork
    def test_a_bad_result_exits_3_and_writes_nothing(self, monkeypatch, dataset, tmp_path, capsys):
        data, out = tmp_path / "data.csv", tmp_path / "out"
        save_dataset(dataset, str(data))
        labels_above_k = self.second_worker_sends(lambda labels, wcss: (labels + 3, wcss))
        monkeypatch.setattr(wire, "pack_result", labels_above_k)
        code = main(["cluster", "--input", str(data), "--out", str(out), "--K", "3", "--S", "2",
                     "--L", "20", "--transport", "socket"])
        assert code == 3
        assert capsys.readouterr().err.startswith("protocol fault: worker 2: RESULT needs 45 labels in 1..3, "
                                                  "WCSS in [0, inf); got 45 labels [4, 5, 6], WCSS ")
        assert not out.exists()


def assert_equal_but_for_the_timers(a, b):
    """Every ClusterResult field bit for bit, the two timers aside."""
    for field in dataclasses.fields(a):
        if field.name in ("feature_seconds", "kmeans_seconds"):
            continue
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), field.name
        elif field.name == "centroids":
            assert (x.centroids.shape, x.centroids.tobytes()) == (y.centroids.shape, y.centroids.tobytes())
        elif field.name == "worker_centroids":
            assert [(c.centroids.shape, c.centroids.tobytes()) for c in x] == [
                (c.centroids.shape, c.centroids.tobytes()) for c in y
            ]
        else:
            assert x == y, field.name


@needs_fork
@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(
    n=st.integers(2, 12), t=st.sampled_from([16, 32, 64, 96]), noise=st.floats(0.02, 0.3),
    data_seed=st.integers(0, 999), k=st.integers(1, 5), s=st.integers(1, 3),
    max_rounds=st.integers(1, 12), seed=st.integers(0, 2**32),
)
@example(n=20, t=96, noise=0.05, data_seed=7, k=4, s=2, max_rounds=8, seed=3)  # period 2 from round 3
def test_both_transports_return_the_same_result(n, t, noise, data_seed, k, s, max_rounds, seed):
    dataset = generate_synthetic(n, t, noise, data_seed)
    inproc, socketed = (
        run_dcc(dataset, k=k, s=s, length=20, seed=seed, max_rounds=max_rounds, transport=transport)
        for transport in ("inproc", "socket")
    )
    assert_equal_but_for_the_timers(socketed, inproc)
