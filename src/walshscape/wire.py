"""Socket transport for the divide-and-combine protocol.

Each worker is a child process forked by the coordinator, joined to it by
its own socket pair (so POSIX `os.fork` is required).  The two ends
exchange length-prefixed binary frames (all integers little endian):

    frame    := u32 payload_length, payload
    payload  := u8 kind, body

    kind 1 SETUP   (coordinator -> worker)
        u32 worker_id, u32 K, u64 seed, u32 kmeans_iters,
        u32 rows, u32 L, rows*L f64 feature matrix (row major)
    kind 2 ROUND   (both directions)
        u32 round, u32 worker_id, u32 K, u32 L,
        K*L f64 centroids (row major), u8 flag
    kind 3 STOP    (coordinator -> worker), empty body
    kind 4 RESULT  (worker -> coordinator)
        u32 worker_id, u32 n, n*u32 labels (1-based), f64 wcss

A worker computes its first round immediately after SETUP; afterwards it
answers every ROUND broadcast with its own ROUND report until STOP, then
sends RESULT; kmeans_iters is always `dcc.DEFAULT_KMEANS_ITERS`.  The
coordinator runs `dcc.coordinate_rounds`, as the in-process transport
does, and doubles travel bit-exactly, so both give identical results.  A
frame of the wrong kind or length, a payload over the u32 length prefix,
a flag byte other than 0 or 1, and a failed send or receive (a worker
that died, or was silent for `_TIMEOUT` s) raise ProtocolError naming the
worker: CLI exit 3.  A worker that fails or is given up on exits 1 with
one stderr line; one still running `_REAP_GRACE` s later is killed.
"""

from __future__ import annotations

import os
import signal
import socket
import struct
import sys
import time

import numpy as np

from .dcc import DEFAULT_KMEANS_ITERS, ProtocolError, RoundMessage, coordinate_rounds, derive_seed
from .dcc import worker_round
from .dcc import master_consensus  # noqa: F401  (perfbench/tracer.py wraps it by this name)
from .kmeans import Assignment, CentroidSet

KIND_SETUP = 1
KIND_ROUND = 2
KIND_STOP = 3
KIND_RESULT = 4

_SETUP_HEAD = struct.Struct("<BIIQIII")  # kind, worker_id, K, seed, kmeans_iters, rows, L
_ROUND_HEAD = struct.Struct("<BIIII")  # kind, round, worker_id, K, L
_RESULT_HEAD = struct.Struct("<BII")  # kind, worker_id, n

_TIMEOUT = 120.0
_REAP_GRACE = 10.0  # seconds a worker gets to exit once its end is closed
_MAX_PAYLOAD = 2**32 - 1  # the u32 length prefix


def _send_frame(conn: socket.socket, payload: bytes) -> None:
    if len(payload) > _MAX_PAYLOAD:
        raise ProtocolError(
            f"{len(payload)}-byte frame payload exceeds the u32 length limit of {_MAX_PAYLOAD} bytes"
        )
    conn.sendall(struct.pack("<I", len(payload)) + payload)


def _recv_exact(conn: socket.socket, n: int) -> bytearray:
    buf = memoryview(bytearray(n))
    got = 0
    while got < n:
        chunk = conn.recv_into(buf[got:])
        if not chunk:
            raise ProtocolError(f"connection closed after {got} of {n} bytes")
        got += chunk
    return buf.obj


def _recv_kind(conn: socket.socket, *kinds: int) -> bytearray:
    """Receive one frame; raises ProtocolError unless its kind is one of kinds."""
    (length,) = struct.unpack("<I", _recv_exact(conn, 4))
    payload = _recv_exact(conn, length)
    if not payload or payload[0] not in kinds:
        raise ProtocolError(f"expected frame kind {kinds}, got {payload[0] if payload else 'none'}")
    return payload


def _header(head: struct.Struct, payload: bytes) -> tuple:
    if len(payload) < head.size:
        raise ProtocolError(f"{len(payload)}-byte frame is shorter than its {head.size}-byte header")
    return head.unpack_from(payload)


def _check_size(payload: bytes, size: int) -> None:
    if len(payload) != size:
        raise ProtocolError(f"{len(payload)}-byte frame, its header implies {size} bytes")


def pack_setup(worker_id: int, k: int, seed: int, kmeans_iters: int, rows: np.ndarray) -> bytes:
    n, length = rows.shape
    head = _SETUP_HEAD.pack(KIND_SETUP, worker_id, k, seed, kmeans_iters, n, length)
    return head + rows.astype("<f8").tobytes()


def unpack_setup(payload: bytes):
    _, worker_id, k, seed, kmeans_iters, n, length = _header(_SETUP_HEAD, payload)
    _check_size(payload, _SETUP_HEAD.size + 8 * n * length)
    # copied: rows left at payload offset 29 are misaligned and slow every Lloyd pass
    rows = np.frombuffer(payload, dtype="<f8", count=n * length, offset=_SETUP_HEAD.size)
    return worker_id, k, seed, kmeans_iters, rows.reshape(n, length).astype(np.float64)


def pack_round(message: RoundMessage) -> bytes:
    c = message.centroids.centroids
    head = _ROUND_HEAD.pack(KIND_ROUND, message.round, message.worker_id, c.shape[0], c.shape[1])
    return head + c.astype("<f8").tobytes() + struct.pack("<B", message.flag)


def unpack_round(payload: bytes) -> RoundMessage:
    _, round_index, worker_id, k, length = _header(_ROUND_HEAD, payload)
    _check_size(payload, _ROUND_HEAD.size + 8 * k * length + 1)
    c = np.frombuffer(payload, dtype="<f8", count=k * length, offset=_ROUND_HEAD.size)
    try:  # RoundMessage checks the flag byte
        centroids = CentroidSet(centroids=c.reshape(k, length))
        return RoundMessage(worker_id=worker_id, round=round_index, centroids=centroids, flag=payload[-1])
    except ValueError as exc:
        raise ProtocolError(f"bad ROUND frame: {exc}") from exc


def pack_result(worker_id: int, labels: np.ndarray, wcss: float) -> bytes:
    head = _RESULT_HEAD.pack(KIND_RESULT, worker_id, len(labels))
    return head + labels.astype("<u4").tobytes() + struct.pack("<d", wcss)


def unpack_result(payload: bytes):
    _, worker_id, n = _header(_RESULT_HEAD, payload)
    _check_size(payload, _RESULT_HEAD.size + 4 * n + 8)
    labels = np.frombuffer(payload, dtype="<u4", count=n, offset=_RESULT_HEAD.size)
    (wcss,) = struct.unpack_from("<d", payload, _RESULT_HEAD.size + 4 * n)
    return worker_id, labels.astype(np.int64), wcss


def worker_entry(conn: socket.socket) -> None:
    """Worker process: SETUP, first round, then answer broadcasts until STOP."""
    worker_id, k, seed, kmeans_iters, features = unpack_setup(_recv_kind(conn, KIND_SETUP))
    round_index, incoming, prev = 1, None, None
    while True:
        message, prev = worker_round(features, incoming, k, seed, round_index,
                                     worker_id=worker_id, prev=prev, max_iters=kmeans_iters)
        _send_frame(conn, pack_round(message))
        payload = _recv_kind(conn, KIND_ROUND, KIND_STOP)
        if payload[0] == KIND_STOP:
            _send_frame(conn, pack_result(worker_id, prev.labels, prev.wcss))
            return
        broadcast = unpack_round(payload)
        incoming, round_index = broadcast.centroids, broadcast.round


def require_fork() -> None:
    """Raise ValueError where os.fork is missing, as every worker is a forked child."""
    if not hasattr(os, "fork"):
        raise ValueError("transport 'socket' forks its workers and needs os.fork")


def _fork_worker(conn: socket.socket, inherited: list[socket.socket]) -> int:
    """Fork a worker serving conn and return its pid; the child never returns."""
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        for end in inherited:  # coordinator ends: each worker must see EOF when the coordinator closes
            end.close()
        worker_entry(conn)  # looked up at call time, so a patched worker_entry runs
        code = 0
    except BaseException as exc:  # KeyboardInterrupt too: the child must not unwind into the caller
        print(f"worker: {str(exc) or type(exc).__name__}", file=sys.stderr, flush=True)
    finally:
        os._exit(code)


def _per_worker(conns: list[socket.socket], op) -> list:
    """op(wid, conn) for every connection in worker order; a failure names the worker."""
    out = []
    for wid, conn in enumerate(conns, start=1):
        try:
            out.append(op(wid, conn))
        except (OSError, ProtocolError) as exc:
            raise ProtocolError(f"worker {wid}: {exc}") from exc
    return out


def run_socket_rounds(matrices: list[np.ndarray], k: int, seed: int, max_rounds: int):
    """Coordinator side; same return shape and values as the in-process loop.

    Worker wid is a forked child on its own socket pair, of which the
    coordinator keeps conns[wid - 1]; every child is reaped before this returns.
    """
    conns: list[socket.socket] = []
    pids: list[int] = []

    def exchange(i: int, consensus: CentroidSet | None) -> list[RoundMessage]:
        if i == 1:  # start the workers; the child's end of each pair closes here at once
            for _ in matrices:
                ours, theirs = socket.socketpair()
                conns.append(ours)
                with theirs:
                    for end in (ours, theirs):
                        end.settimeout(_TIMEOUT)
                    pids.append(_fork_worker(theirs, conns))
            _per_worker(conns, lambda wid, conn: _send_frame(conn, pack_setup(
                wid, k, derive_seed(seed, wid), DEFAULT_KMEANS_ITERS, matrices[wid - 1])))
        else:
            _per_worker(conns, lambda wid, conn: _send_frame(conn, pack_round(
                RoundMessage(worker_id=wid, round=i, centroids=consensus, flag=1))))
        return _per_worker(conns, lambda wid, conn: unpack_round(_recv_kind(conn, KIND_ROUND)))

    def stop(wid: int, conn: socket.socket) -> Assignment:
        _send_frame(conn, struct.pack("<B", KIND_STOP))
        worker_id, labels, wcss = unpack_result(_recv_kind(conn, KIND_RESULT))
        if worker_id != wid:
            raise ProtocolError(f"RESULT names worker {worker_id}")
        return Assignment(labels=labels, wcss=wcss)

    try:
        return coordinate_rounds(matrices, k, seed, max_rounds, exchange, lambda: _per_worker(conns, stop))
    except (OSError, struct.error) as exc:
        raise ProtocolError(f"socket transport failed: {exc}") from exc
    finally:
        for conn in conns:  # a worker still waiting on its end sees EOF and exits
            conn.close()
        deadline = time.monotonic() + _REAP_GRACE
        for pid in pids:  # a worker still running at the deadline, hung or stopped, is killed
            try:
                while os.waitpid(pid, os.WNOHANG) == (0, 0):
                    if time.monotonic() > deadline:
                        os.kill(pid, signal.SIGKILL)
                    time.sleep(0.001)
            except (ChildProcessError, ProcessLookupError):  # reaped already: SIGCHLD is ignored
                pass
