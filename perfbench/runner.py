"""Child process of the benchmark: one walshscape command or one input set-up.

    python3 runner.py [--trace DIR JOB TAG] cli <walshscape arguments...>
    python3 runner.py [--trace DIR JOB TAG] input OUT FORMAT N T NOISE DATA_SEED SEED

With --trace, the span recorder of tracer.py is installed before any
walshscape function runs, and its spans are written to DIR when the
command ends.  Without it, the command runs exactly as `walshscape` would.
"""

from __future__ import annotations

import os
import sys

import numpy as np


def make_input(out: str, fmt: str, n: int, t: int, noise: float, data_seed: int, seed: int) -> None:
    """Planted three-archetype data; ids and survey weights drawn from `seed`.

    Levels come from generate_synthetic(data_seed); the ids are a seeded
    permutation of s000000.. and the weights are uniform on [0.5, 2).  The
    file is written to a temporary name and renamed, as `walshscape synth`
    does.
    """
    from walshscape import series

    dataset = series.generate_synthetic(n, t, noise, data_seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1])))
    ids = rng.permutation(dataset.N)
    weights = rng.uniform(0.5, 2.0, dataset.N)
    for s, ident, weight in zip(dataset.series, ids, weights):
        s.id = f"s{ident:06d}"
        s.weight = float(weight)
    tmp = os.path.join(os.path.dirname(os.path.abspath(out)), f".tmp-{os.getpid()}-{os.path.basename(out)}")
    try:
        series.save_dataset(dataset, tmp, format=fmt)
        os.replace(tmp, out)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def main(argv: list[str]) -> int:
    recorder = None
    if argv[0] == "--trace":
        import tracer

        trace_dir, job_id, tag = argv[1:4]
        argv = argv[4:]
        recorder = tracer.install(trace_dir, job_id, tag)
    try:
        if argv[0] == "cli":
            import walshscape.cli

            return walshscape.cli.main(argv[1:])
        if argv[0] == "input":
            out, fmt, n, t, noise, data_seed, seed = argv[1:]
            make_input(out, fmt, int(n), int(t), float(noise), int(data_seed), int(seed))
            return 0
        raise SystemExit(f"unknown runner mode {argv[0]!r}")
    finally:
        if recorder is not None:
            recorder.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
