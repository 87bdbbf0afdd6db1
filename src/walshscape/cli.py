"""Command-line surface: synthesize data, cluster, sweep K, summarize clusters.

Every flag default can be overridden by an environment variable with the
WALSHSCAPE_ prefix (e.g. WALSHSCAPE_SEED=7 walshscape cluster ...), which
the flag's argparse type checks as it does the flag's own; an explicit flag
always wins.  Commands are deterministic given their flags, exit non-zero on
any error, and leave no partial output files behind.

Exit codes: 0 success, 1 usage error, 2 data error, 3 protocol fault.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from typing import Callable

import numpy as np

from .dcc import DEFAULT_MAX_ROUNDS, ProtocolError, elbow_sweep, run_dcc
from .features import DEFAULT_LANDSCAPE_LENGTH
from .series import DatasetError, generate_synthetic, load_dataset, save_dataset
from .series import make_shard_plan  # noqa: F401  (perfbench/tracer.py wraps it by this name)
from .summarize import composition_table, minute_proportions

ENV_PREFIX = "WALSHSCAPE_"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROTOCOL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        raise UsageError(message)


def _env(name: str, default):
    """A flag's default: the environment's string, else `default`.  argparse runs the
    flag's type on a string default too, so it checks this value as the flag's own."""
    return os.environ.get(ENV_PREFIX + name, default)


def _integer(text: str) -> int:
    """An optional sign, then ASCII digits: every integer the CLI reads; int() also takes '1_0', '٣', ' 2 '."""
    try:
        if re.fullmatch(r"[+-]?[0-9]+", text):
            return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _seed(text: str) -> int:
    """--seed, refused here if negative: before any load, as numpy's seeding would refuse it after."""
    if (seed := _integer(text)) < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {seed}")
    return seed


def _decimal(text: str) -> float:
    """An ASCII decimal such as 0.05, .5, 5e-2 or +0.1; float() alone also
    takes '0_05', '٠.٠٥', ' 0.05 ', 'nan' and 'inf'.  Keeps argparse's message for float."""
    if not re.fullmatch(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?", text):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    return float(text)


def _choices(*choices: str) -> dict:
    """add_argument's `choices` and a type that checks them: argparse checks a default by its type only."""
    def choice(text: str) -> str:
        if text in choices:
            return text
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})")
    return {"choices": choices, "type": choice}


def _add_files(p: _Parser, out_help: str, reads_input: bool = True) -> None:
    if reads_input:
        p.add_argument("--input", required=True, help="dataset file")
    p.add_argument("--out", required=True, help=out_help)
    p.add_argument("--format", **_choices("csv", "binary"), default=_env("FORMAT", "csv"))


def _add_run(p: _Parser, clusters: bool = True) -> None:
    if clusters:
        p.add_argument("--S", type=_integer, default=_env("S", 1), help="number of shards/workers")
        p.add_argument("--L", type=_integer, default=_env("L", DEFAULT_LANDSCAPE_LENGTH), help="landscape length")
        p.add_argument("--I", type=_integer, default=_env("I", DEFAULT_MAX_ROUNDS), help="max protocol rounds")
    p.add_argument("--seed", type=_seed, default=_env("SEED", 0), help="master seed (default 0)")


def build_parser() -> _Parser:
    parser = _Parser(prog="walshscape", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic three-archetype dataset")
    p.add_argument("--n", type=_integer, required=True, help="series per archetype")
    p.add_argument("--T", type=_integer, default=_env("T", 1440), help="minutes per series")
    p.add_argument("--noise", type=_decimal, default=_env("NOISE", 0.05))
    _add_files(p, "output dataset file", reads_input=False)
    _add_run(p, clusters=False)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("cluster", help="cluster a dataset and write labels/centroids/metrics")
    _add_files(p, "output directory")
    p.add_argument("--K", type=_integer, required=True)
    p.add_argument("--transport", **_choices("inproc", "socket"), default=_env("TRANSPORT", "inproc"))
    _add_run(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("elbow", help="sweep K and write the WCSS/timing table")
    _add_files(p, "output directory")
    p.add_argument("--K", type=_parse_k_list, required=True, help="K values: '2,3,4' or '2-5'")
    _add_run(p)
    p.set_defaults(func=cmd_elbow)

    p = sub.add_parser("summarize", help="per-minute proportions and composition tables")
    _add_files(p, "output directory")
    p.add_argument("--labels", required=True, help="labels.csv from the cluster command")
    p.add_argument("--attributes", default="", help="comma-separated attribute names")
    p.add_argument("--cluster-names", default="", help="optional display names, e.g. '1=in home,2=night'")
    p.set_defaults(func=cmd_summarize)

    return parser


def _parse_k_list(text: str) -> list[int] | range:
    text = text.strip()
    try:
        if "-" in text and "," not in text:
            lo, hi = text.split("-", 1)
            values = range(_integer(lo.strip()), _integer(hi.strip()) + 1)
            checked = values[:1]  # its least K, so a huge range costs nothing; it repeats none
        else:
            values = checked = [_integer(part.strip()) for part in text.split(",") if part.strip()]
    except argparse.ArgumentTypeError:
        raise UsageError(f"bad K list {text!r}") from None
    if not values or min(checked) < 1:
        raise UsageError(f"bad K list {text!r}")
    seen = set()
    for v in checked:  # each K would run again and repeat its rows
        if v in seen:
            raise UsageError(f"K list {text!r} names K={v} twice")
        seen.add(v)
    return values


def _write_outputs(out_dir: str, files: dict[str, str | Callable[[str], None]]) -> None:
    """Write all files or none: stage to temp names, then rename.

    A file's content is its text, or a callable that writes the file at the
    temp path it is given.
    """
    os.makedirs(out_dir, exist_ok=True)
    staged = []
    try:
        for name, content in files.items():
            tmp = os.path.join(out_dir, f".tmp-{os.getpid()}-{name}")
            staged.append((tmp, os.path.join(out_dir, name)))  # before the write, which may fail part way
            if callable(content):
                content(tmp)
                continue
            with open(tmp, "w") as fh:
                fh.write(content)
        for tmp, final in staged:
            os.replace(tmp, final)
    except BaseException:
        for tmp, _ in staged:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise


def _csv_text(rows) -> str:
    """Rows as CSV, quoting only fields that hold a comma, a quote or a newline."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _centroid_csv(matrix: np.ndarray) -> str:
    """A float matrix as CSV: one line per row, each value as %.17g."""
    row = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    return (row * len(matrix)) % tuple(matrix.ravel().tolist())


def _proportions_csv(table: np.ndarray) -> str:
    """A (T, J) proportions table as CSV: a minute column, then each level's share as %.17g."""
    t, j = table.shape
    header = "minute," + ",".join(f"level_{level}" for level in range(j)) + "\n"
    return header + _centroid_csv(np.column_stack((np.arange(t), table)))


def cmd_synth(args) -> None:
    dataset = generate_synthetic(args.n, args.T, args.noise, args.seed)
    _write_outputs(os.path.dirname(os.path.abspath(args.out)), {
        os.path.basename(args.out): lambda path: save_dataset(dataset, path, format=args.format),
    })
    print(f"wrote {dataset.N} series (T={dataset.T}, J={dataset.J}) to {args.out}")


def cmd_cluster(args) -> None:
    dataset = load_dataset(args.input, format=args.format)
    result = run_dcc(dataset, k=args.K, s=args.S, length=args.L, seed=args.seed,
                     max_rounds=args.I, transport=args.transport)

    labels_csv = _csv_text([("id", "label"), *zip(dataset.ids, result.labels.tolist())])
    order_csv = "position,original_index\n" + "".join(
        f"{pos},{orig}\n" for pos, orig in enumerate(result.order.tolist())
    )
    metrics = {
        "K": args.K, "S": args.S, "L": args.L, "I": args.I, "seed": args.seed,
        "transport": args.transport, "N": dataset.N,
        "wcss": result.wcss,
        "wcss_per_shard": list(result.wcss_per_shard),
        "rounds_used": result.rounds_used,
        "converged": result.converged,
        "cycle_start": result.cycle_start,
        "cycle_period": result.cycle_period,
        "feature_seconds": round(result.feature_seconds, 3),
        "kmeans_seconds": round(result.kmeans_seconds, 3),
    }
    _write_outputs(args.out, {
        "labels.csv": labels_csv,
        "order.csv": order_csv,
        "centroids.csv": _centroid_csv(result.centroids.centroids),
        "metrics.json": json.dumps(metrics, indent=2) + "\n",
    })
    if result.cycle_period is None:
        state = f"converged={result.converged}"
    else:
        state = f"oscillating with period {result.cycle_period} from round {result.cycle_start}"
    print(f"K={args.K} S={args.S} wcss={result.wcss:.6g} rounds={result.rounds_used} "
          f"{state} -> {args.out}")


def cmd_elbow(args) -> None:
    dataset = load_dataset(args.input, format=args.format)
    points = elbow_sweep(dataset, args.K, s=args.S, length=args.L, seed=args.seed, max_rounds=args.I)
    header = ("K", "wcss", "feature_seconds", "kmeans_seconds", "rounds_used", "converged", "cycle_period")
    rows = [(p.K, f"{p.wcss:.17g}", f"{p.feature_seconds:.3f}", f"{p.kmeans_seconds:.3f}",
             p.rounds_used, p.converged, p.cycle_period or "") for p in points]
    long_rows = [(row[0], metric, value) for row in rows for metric, value in zip(header[1:], row[1:])]
    _write_outputs(args.out, {"elbow.csv": _csv_text([header, *rows]),
                              "elbow_long.csv": _csv_text([("K", "metric", "value"), *long_rows])})
    for p in points:
        print(f"K={p.K} wcss={p.wcss:.6g} ({p.feature_seconds:.3f}s FE + {p.kmeans_seconds:.3f}s K-means)")


def _read_labels(path: str, dataset) -> np.ndarray:
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if header != "id,label":
            raise DatasetError(f"bad labels file header {header!r}")
        rows = []
        try:  # extend keeps the rows read before one that csv.reader cannot read
            rows.extend(row for row in csv.reader(fh) if row and (len(row) > 1 or row[0].strip()))
        except csv.Error as exc:  # a field beyond csv.field_size_limit(), say
            raise DatasetError(f"labels file row {len(rows) + 1}: {exc}") from None
    if len(rows) != dataset.N:
        raise DatasetError(f"labels file has {len(rows)} rows, dataset has {dataset.N}")
    labels = np.empty(dataset.N, dtype=np.int64)
    for i, (row, ident) in enumerate(zip(rows, dataset.ids)):
        where = f"labels file row {i + 1}"  # 1-based, after the header, blank lines skipped
        if len(row) != 2:
            raise DatasetError(f"{where} has {len(row)} fields, expected 2 (id,label)")
        if row[0] != ident:
            raise DatasetError(f"{where}: id {row[0]!r} does not match dataset id {ident!r}")
        try:
            labels[i] = _integer(row[1])
        except (argparse.ArgumentTypeError, OverflowError):
            raise DatasetError(f"{where}: label {row[1]!r} is not an integer") from None
        if labels[i] < 1:
            raise DatasetError(f"{where}: label {row[1]!r} is below 1; clusters are numbered from 1")
    return labels


def _check_title(flag: str, entry: str, title: str) -> None:
    """Raise UsageError naming a flag's entry whose title cannot name a file."""
    if not title or set(title) & {"/", "\0", os.sep, os.altsep}:
        raise UsageError(f"bad {flag} entry {entry!r}: a name is a non-empty file title without '/'")


def _parse_names(text: str) -> dict[int, str]:
    """--cluster-names as {cluster: name}: comma-separated `cluster=name` pairs."""
    names = {}
    for part in text.split(","):
        if not part.strip():
            continue
        idx, sep, name = part.partition("=")
        try:
            cluster = _integer(idx.strip()) if sep else 0
        except argparse.ArgumentTypeError:
            cluster = 0
        if cluster < 1:
            raise UsageError(f"bad --cluster-names entry {part!r}: expected <cluster>=<name>, cluster from 1")
        _check_title("--cluster-names", part, name)
        if cluster in names:
            raise UsageError(f"--cluster-names names cluster {cluster} twice")
        names[cluster] = name
    return names


def _title(names: dict[int, str], cluster: int) -> str:
    """A cluster's file title: its --cluster-names name, or cluster<c>."""
    return names.get(cluster, f"cluster{cluster}")


def _check_titles(names: dict[int, str], k: int) -> None:
    """Raise UsageError if two of clusters 1..k, empty or not, share a title.

    Only named clusters can clash: with each other, or with the unnamed
    cluster m whose default title cluster<m> one of them takes (no m whose
    digits outnumber k's).  Walking just these in increasing order meets
    the first repeat that a walk over 1..k would meet.
    """
    defaults = (re.fullmatch(r"cluster([1-9][0-9]*)", name) for name in names.values())
    reach = set(names) | {int(d[1]) for d in defaults if d and len(d[1]) <= len(str(k))}
    seen: dict[str, int] = {}
    for cluster in sorted(c for c in reach if c <= k):
        if (title := _title(names, cluster)) in seen:
            raise UsageError(f"--cluster-names gives clusters {seen[title]} and {cluster} "
                             f"the same title {title!r}")
        seen[title] = cluster


def cmd_summarize(args) -> None:
    names = _parse_names(args.cluster_names)
    attributes = [a for a in args.attributes.split(",") if a.strip()]
    for attribute in attributes:  # each titles a composition_<attribute>.csv
        _check_title("--attributes", attribute, attribute)
    dataset = load_dataset(args.input, format=args.format)
    labels = _read_labels(args.labels, dataset)
    k = int(labels.max(initial=1))
    _check_titles(names, k)

    files: dict[str, str] = {}
    for cluster, table in minute_proportions(dataset, labels, k).items():
        files[f"proportions_{_title(names, cluster)}.csv"] = _proportions_csv(table)

    for attribute in attributes:
        table = composition_table(dataset, labels, k, attribute)
        rows = zip(table["clusters"].tolist(), table["values"], table["weighted_count"].tolist(),
                   table["share_within_value"].tolist(), table["share_within_cluster"].tolist())
        files[f"composition_{attribute}.csv"] = _csv_text([
            ("cluster", "cluster_name", "value", "weighted_count", "share_within_value",
             "share_within_cluster"),
            *((cluster, _title(names, cluster), value, *(f"{x:.17g}" for x in shares))
              for cluster, value, *shares in rows),
        ])

    _write_outputs(args.out, files)
    print(f"wrote {len(files)} summary files to {args.out}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProtocolError as exc:
        print(f"protocol fault: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (DatasetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # e.g. a --T or --L too large to allocate; no output file is left
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
