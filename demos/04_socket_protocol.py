#!/usr/bin/env python3
"""The socket transport: worker processes exchanging binary frames.

Runs the same clustering twice, once with in-process workers and once
with forked worker processes, each talking length-prefixed frames to the
coordinator over its own socket pair, and verifies the results are
bit-identical.  Also shows the frame layout itself.
"""

import numpy as np

from walshscape import CentroidSet, RoundMessage, generate_synthetic, run_dcc
from walshscape.wire import pack_round, unpack_round

print("=== A round-message frame on the wire ===")
message = RoundMessage(
    worker_id=2,
    round=3,
    centroids=CentroidSet(centroids=np.array([[0.5, 1.5], [2.0, 0.25]])),
    flag=1,
)
payload = pack_round(message)
print(f"payload ({len(payload)} bytes): kind=0x{payload[0]:02x} "
      f"round/worker/K/L header, 4x f64 centroids, flag=0x{payload[-1]:02x}")
print("hex:", payload.hex())
back = unpack_round(payload)
print("decodes to: worker", back.worker_id, "round", back.round, "flag", back.flag)
print("centroids:", back.centroids.centroids.tolist())

print("\n=== In-process vs worker processes ===")
dataset = generate_synthetic(100, 1440, noise=0.05, seed=7)
in_process = run_dcc(dataset, k=3, s=4, length=100, seed=7, transport="inproc")
socketed = run_dcc(dataset, k=3, s=4, length=100, seed=7, transport="socket")

print(f"in-process: wcss={in_process.wcss:.6f} rounds={in_process.rounds_used}")
print(f"socket:     wcss={socketed.wcss:.6f} rounds={socketed.rounds_used}")
print("labels identical:   ", bool(np.array_equal(in_process.labels, socketed.labels)))
print("wcss identical:     ", in_process.wcss == socketed.wcss)
print("consensus identical:", bool(np.array_equal(
    in_process.centroids.centroids, socketed.centroids.centroids)))
print("""
Workers derive their seeds from (master seed, worker id) and doubles
cross the wire bit-exactly, so the transport cannot change the answer.
""")
