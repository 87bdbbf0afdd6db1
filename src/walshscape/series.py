"""Categorical time series data model: ingestion, validation, synthesis, sharding.

A dataset holds N series of identical length T, each taking integer levels
in {0, ..., J-1}, with a non-negative survey weight and free-form string
attributes per series.  It is stored as columns: an (N, T) level matrix in
the smallest unsigned dtype that holds J-1 (uint8 for J <= 256), an (N,)
float64 weight vector, N ids, and one list of N values per attribute, with
None where a series lacks it.  A dataset is built only from these columns:
every producer (the loaders, the synthetic generator) fills them directly,
and the constructor validates them once.  Ingestion order is preserved and
is the reference ordering for cluster labels.

The CSV reader takes a file's bytes whole when every level cell is one
digit (`_load_csv_bulk`), and otherwise runs the csv.reader row loop
(`_load_csv_rows`).  The CSV writer writes blocks of rows as bytes, with
the level text built by numpy, and falls back to csv.writer rows for J > 10
(`_save_csv`); either way the file is what csv.writer writes row by row.

All randomness (sharding, synthesis) uses numpy's PCG64 generator seeded
through SeedSequence, so results are reproducible across platforms and
runs for a fixed seed.
"""

from __future__ import annotations

import array
import codecs
import csv
import struct
from dataclasses import dataclass
from itertools import repeat
from types import SimpleNamespace

import numpy as np


class DatasetError(ValueError):
    """Malformed or inconsistent dataset input."""


_MAGIC = b"CTS1"
_SYNTH_ROWS = 4096  # series per random draw in generate_synthetic
_CSV_ROWS = 1024  # series per block written by _save_csv

ARCHETYPES = ("C1", "C2", "C3")

# archetype shapes as (start fraction, level) breakpoints over [0, 1);
# C1 stays home except a short afternoon excursion, C2 stays out through
# the final minute, C3 is the home/travel/out/travel/home workday with
# transitions at the quarter marks
_TEMPLATE_SEGMENTS = {
    "C1": ((0.0, 0), (0.50, 1), (0.52, 2), (0.66, 1), (0.68, 0)),
    "C2": ((0.0, 0), (0.375, 1), (0.5, 2)),
    "C3": ((0.0, 0), (0.25, 1), (0.375, 2), (0.75, 1), (0.875, 0)),
}


class SeriesRow:
    """View of one dataset row; setting `id` or `weight` writes into the columns."""

    __slots__ = ("dataset", "row")

    def __init__(self, dataset: "Dataset", row: int):
        self.dataset, self.row = dataset, row

    id = property(lambda self: self.dataset.ids[self.row],
                  lambda self, value: self.dataset.ids.__setitem__(self.row, value))
    weight = property(lambda self: float(self.dataset.weights[self.row]),
                      lambda self, value: self.dataset.weights.__setitem__(self.row, value))
    values = property(lambda self: self.dataset.levels[self.row])

    @property
    def attributes(self) -> dict[str, str]:
        return {name: column[self.row] for name, column in self.dataset.attributes.items()
                if column[self.row] is not None}


class Dataset:
    """N categorical series sharing T and J, held as columns (see the module docstring).

    J is inferred as max(level) + 1, at least 2, when None.  Attribute names
    that no series carries are dropped.  Raises DatasetError naming the first
    1-based row with a level outside [0, J), a negative or non-finite weight,
    or a repeated id.
    """

    def __init__(self, levels, weights, ids, attributes: dict, J: int | None = None):
        try:
            levels = np.asarray(levels)
        except ValueError:  # rows of different lengths
            raise _row_error(levels, "series length differs from row 1",
                             lambda row: np.shape(row) != np.shape(levels[0])) from None
        if levels.ndim != 2 or not np.issubdtype(levels.dtype, np.integer):
            raise DatasetError("levels must be an integer (N, T) matrix")
        n, t = levels.shape
        if n == 0:
            raise DatasetError("dataset contains no rows")
        J = max(2, 1 + int(levels.max())) if J is None else int(J)
        if J < 2:
            raise DatasetError("J must be at least 2")
        if t == 0:
            raise DatasetError("series length T must be positive")
        try:
            weights = np.asarray(weights, dtype=np.float64)
        except (TypeError, ValueError):
            raise _row_error(weights, "non-numeric weight", lambda w: np.float64(w).ndim > 0) from None
        if weights.shape != (n,) or len(ids) != n or any(len(c) != n for c in attributes.values()):
            raise DatasetError(f"every column must hold one value per series ({n})")

        _check_rows(levels, weights, ids, J)
        self.levels = levels.astype(np.min_scalar_type(J - 1), copy=False)
        self.weights = weights
        self.ids = list(ids)
        self.attributes = {name: list(column) for name, column in attributes.items()
                           if any(v is not None for v in column)}
        self.J = J

    @property
    def N(self) -> int:
        return self.levels.shape[0]

    @property
    def T(self) -> int:
        return self.levels.shape[1]

    @property
    def series(self) -> list[SeriesRow]:
        """Row views in ingestion order."""
        return [SeriesRow(self, r) for r in range(self.N)]


def _row_error(column, message: str, is_bad) -> DatasetError:
    """DatasetError "message at row r" for the first 1-based row r of a
    column whose value is_bad holds for, or raises TypeError or ValueError on."""
    for r, value in enumerate(column, start=1):
        try:
            bad = is_bad(value)
        except (TypeError, ValueError):
            bad = True
        if bad:
            return DatasetError(f"{message} at row {r}")
    return DatasetError(message)


def _check_rows(levels: np.ndarray, weights: np.ndarray, ids: list[str], J: int) -> None:
    """Raise DatasetError naming the first 1-based row with a level outside
    [0, J), a negative or non-finite weight, or an id that is not a str or
    repeats one before it."""
    faults = []  # (0-based row, message) of the first fault of each kind
    out_of_range = levels.max(axis=1) >= J
    if np.issubdtype(levels.dtype, np.signedinteger):
        out_of_range |= levels.min(axis=1) < 0
    if out_of_range.any():
        faults.append((int(out_of_range.argmax()), "level out of range"))
    bad_weight = ~(np.isfinite(weights) & (weights >= 0))
    if bad_weight.any():
        r = int(bad_weight.argmax())
        faults.append((r, "negative weight" if np.isfinite(weights[r]) else "non-finite weight"))
    seen: set[str] = set()
    for r, ident in enumerate(ids):
        if not isinstance(ident, str):
            faults.append((r, f"series id {ident!r} is not a string"))
            break
        if ident in seen:
            faults.append((r, f"duplicate series id {ident!r}"))
            break
        seen.add(ident)
    if faults:
        r, message = min(faults)
        raise DatasetError(f"{message} at row {r + 1}")


@dataclass(frozen=True)
class ShardPlan:
    """Randomized assignment of N series to S shards.

    `order` is the without-replacement sampling order: order[k] is the
    0-based original index of the k-th sampled series.  The first
    shard_sizes[0] sampled series form shard 0, the next shard_sizes[1]
    shard 1, and so on; all shards but the last have floor(N/S) series
    and the last absorbs the remainder.
    """

    S: int
    order: np.ndarray
    shard_sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", np.asarray(self.order, dtype=np.int64))

    @property
    def N(self) -> int:
        return len(self.order)

    def shard_indices(self, s: int) -> np.ndarray:
        """Original indices of shard s, in sampled order."""
        start = int(sum(self.shard_sizes[:s]))
        return self.order[start : start + self.shard_sizes[s]]

    def restore(self, concatenated: np.ndarray) -> np.ndarray:
        """Realign values from shard-concatenation order back to ingestion order."""
        concatenated = np.asarray(concatenated)
        if len(concatenated) != self.N:
            raise ValueError("length does not match the plan")
        out = np.empty_like(concatenated)
        out[self.order] = concatenated
        return out


def make_shard_plan(n: int, s: int, seed: int) -> ShardPlan:
    """Sample the N series indices without replacement and split them into S shards.

    Deterministic for fixed (n, s, seed): the order is a PCG64 permutation
    of 0..n-1.  Shards 0..S-2 get floor(n/s) series each; the last shard
    gets the remainder.
    """
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= S <= N, got S={s}, N={n}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    order = rng.permutation(n)
    base = n // s
    sizes = tuple([base] * (s - 1) + [n - (s - 1) * base])
    return ShardPlan(S=s, order=order, shard_sizes=sizes)


def archetype_template(archetype: str, t: int) -> np.ndarray:
    """Noise-free level template of one synthetic archetype at length t."""
    if archetype not in _TEMPLATE_SEGMENTS:
        raise ValueError(f"unknown archetype {archetype!r}")
    if t < 2:
        raise ValueError("template length must be at least 2")
    out = np.zeros(t, dtype=np.int64)
    segments = _TEMPLATE_SEGMENTS[archetype]
    for (frac, level), nxt in zip(segments, segments[1:] + ((1.0, None),)):
        out[int(np.floor(frac * t)) : int(np.floor(nxt[0] * t))] = level
    return out


def generate_synthetic(n_per_archetype: int, t: int, noise: float, seed: int) -> Dataset:
    """Plant three archetypal daily patterns with per-minute flip noise.

    Produces 3 * n_per_archetype series (all C1, then C2, then C3), each a
    copy of its archetype template with every minute independently flipped
    to a uniformly random other level with probability `noise`.  The
    planted archetype is stored in attributes["truth"].  The random draws
    are taken _SYNTH_ROWS series at a time, which leaves the stream, and so
    the levels, as one draw per archetype would give them.
    """
    if n_per_archetype < 1:
        raise ValueError("n_per_archetype must be positive")
    if t < 2:
        raise ValueError("T must be at least 2")
    if not 0.0 <= noise < 0.5:
        raise ValueError("noise must lie in [0, 0.5)")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    j, n = 3, n_per_archetype
    chunks = [slice(start, min(start + _SYNTH_ROWS, n)) for start in range(0, n, _SYNTH_ROWS)]
    levels = np.empty((len(ARCHETYPES) * n, t), dtype=np.uint8)
    for a, arch in enumerate(ARCHETYPES):
        block = levels[a * n : (a + 1) * n]
        block[:] = archetype_template(arch, t)
        flips = np.empty((n, t), dtype=bool)
        for rows in chunks:  # every flip draw of the archetype precedes its shift draws
            flips[rows] = rng.random((rows.stop - rows.start, t)) < noise
        for rows in chunks:
            shifts = rng.integers(1, j, size=(rows.stop - rows.start, t))
            sub = block[rows].reshape(-1)  # a view: block's rows are contiguous
            cells = np.flatnonzero(flips[rows])  # only the flipped cells change
            sub[cells] = (sub[cells] + shifts.reshape(-1)[cells]) % j
    ids = [f"{arch.lower()}-{i:05d}" for arch in ARCHETYPES for i in range(n)]
    truth = [arch for arch in ARCHETYPES for _ in range(n)]
    return Dataset(levels, np.ones(len(levels)), ids, {"truth": truth}, J=j)


def save_dataset(dataset: Dataset, path, format: str = "csv") -> None:
    """Write a dataset in the canonical CSV or the length-prefixed binary format.

    The columns are validated first, so ids and weights set through
    `Dataset.series` cannot write a file that `load_dataset` rejects.
    """
    _check_rows(dataset.levels, dataset.weights, dataset.ids, dataset.J)
    if format == "csv":
        _save_csv(dataset, path)
    elif format == "binary":
        _save_binary(dataset, path)
    else:
        raise ValueError(f"unknown format {format!r}")


def load_dataset(path, format: str = "csv") -> Dataset:
    """Read a dataset written by `save_dataset`, validating every row.

    Raises DatasetError with the offending 1-based data row number on
    malformed rows, out-of-range levels, inconsistent lengths, and
    negative or non-finite weights.
    """
    if format == "csv":
        return _load_csv(path)
    if format == "binary":
        return _load_binary(path)
    raise ValueError(f"unknown format {format!r}")


def _save_csv(dataset: Dataset, path) -> None:
    r"""csv.writer rows, written in the locale's text encoding.

    For J <= 10 each block of _CSV_ROWS rows is one bytes write to the
    file's binary buffer: csv.writer's head row (id, w, J, attr:*) of each
    series, encoded, then that row's `,d,d,...,d\r\n` slice of a level text
    block built with numpy as ASCII, which every locale encoding writes as
    itself.  J > 10 takes plain csv.writer rows.
    """
    attr_names = sorted(dataset.attributes)
    columns = [dataset.attributes[a] for a in attr_names]
    header = ["id", "w", "J"] + [f"attr:{a}" for a in attr_names] + [
        f"t{k}" for k in range(dataset.T)
    ]
    weights = dataset.weights.tolist()

    def head_rows(rows: slice):  # csv.writer writes None, an attribute a series lacks, as an empty cell
        return zip(dataset.ids[rows], map(repr, weights[rows]), repeat(dataset.J),
                   *(column[rows] for column in columns))

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if dataset.J > 10:  # levels of several digits
            for r, row in enumerate(head_rows(slice(None))):
                writer.writerow((*row, *dataset.levels[r].tolist()))
            return
        fh.flush()  # the header precedes the blocks written below the text layer
        t, width = dataset.T, 2 * dataset.T + 2  # a level line: a comma before each digit, then \r\n
        heads: list[str] = []
        head_writer = csv.writer(SimpleNamespace(write=heads.append))  # one write per row
        for start in range(0, dataset.N, _CSV_ROWS):
            rows = slice(start, min(start + _CSV_ROWS, dataset.N))
            heads.clear()
            head_writer.writerows(head_rows(rows))
            text = np.empty((len(heads), width), dtype=np.uint8)
            text[:, : 2 * t : 2] = ord(",")
            np.add(dataset.levels[rows], ord("0"), out=text[:, 1 : 2 * t : 2])
            text[:, -2:] = (ord("\r"), ord("\n"))
            lines = memoryview(text).cast("B")
            parts = [b""] * (2 * len(heads))
            # a head row ends in csv.writer's \r\n; its level line carries that ending instead
            parts[::2] = [head[:-2].encode(fh.encoding, fh.errors) for head in heads]
            parts[1::2] = [lines[i : i + width] for i in range(0, len(lines), width)]
            fh.buffer.write(b"".join(parts))


class _CsvColumns:
    """A dataset CSV header's layout, and its head columns (id, w, J, attr:*) filled row by row."""

    def __init__(self, header: list[str]):
        if not header or header[0] != "id":
            raise DatasetError("first column must be 'id'")
        self.width = len(header)
        self.level_cols: list[int] = []
        head: dict[str, int] = {}  # w, J and attr:* columns, each at most once
        for k, name in enumerate(header[1:], start=1):
            if name not in ("w", "J") and not name.startswith("attr:"):
                self.level_cols.append(k)
            elif head.setdefault(name, k) != k:
                raise DatasetError(f"header repeats column {name!r}")
        self.w_col, self.j_col = head.pop("w", None), head.pop("J", None)
        self.attr_cols = {k: name[len("attr:") :] for name, k in head.items()}
        if not self.level_cols:
            raise DatasetError("no level columns declared in header")
        self.J: int | None = None
        self.ids, self.weights = [], []
        self.attributes: dict[str, list] = {name: [] for name in self.attr_cols.values()}

    def add(self, row: list[str], rownum: int) -> None:
        """Decode the id, weight, J and attribute fields of the 1-based data row `rownum`."""
        try:
            self.weights.append(float(row[self.w_col]) if self.w_col is not None else 1.0)
        except ValueError:
            raise DatasetError(f"malformed row {rownum}: bad weight {row[self.w_col]!r}") from None
        if self.j_col is not None:
            try:
                row_j = int(row[self.j_col])
            except ValueError:
                raise DatasetError(f"malformed row {rownum}: bad J {row[self.j_col]!r}") from None
            if self.J is None:
                self.J = row_j
            elif row_j != self.J:
                raise DatasetError(f"inconsistent J at row {rownum}")
        self.ids.append(row[0])
        for k, name in self.attr_cols.items():
            self.attributes[name].append(row[k] or None)  # an empty cell: the series lacks it

    def dataset(self, levels: np.ndarray) -> Dataset:
        return Dataset(levels, self.weights, self.ids, self.attributes, J=self.J)


def _load_csv(path) -> Dataset:
    dataset = _load_csv_bulk(path)
    return _load_csv_rows(path) if dataset is None else dataset


def _load_csv_rows(path) -> Dataset:
    """The reference reader: csv.reader, and int() on every level cell."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError("empty file") from None
        columns = _CsvColumns(header)
        levels = array.array("q")  # int64, row after row
        for rownum, row in enumerate(reader, start=1):
            if len(row) != columns.width:
                raise DatasetError(
                    f"malformed row {rownum}: expected {columns.width} fields, got {len(row)}"
                )
            columns.add(row, rownum)
            try:
                levels.fromlist([int(row[k]) for k in columns.level_cols])
            except ValueError:
                raise DatasetError(f"malformed row {rownum}: non-integer level") from None
            except OverflowError:  # beyond int64
                raise DatasetError(f"level out of range at row {rownum}") from None
    matrix = np.frombuffer(levels, dtype=np.int64).reshape(len(columns.ids), len(columns.level_cols))
    return columns.dataset(matrix)


def _line_spans(data: bytes):
    r"""(start, stop) of each line of data, without its \n or \r\n ending."""
    start = 0
    while start < len(data):
        end = data.find(b"\n", start)
        if end < 0:
            yield start, len(data)
            return
        yield start, end - 1 if end > start and data[end - 1] == ord("\r") else end
        start = end + 1


def _plain_fields(raw: bytes, limit: int) -> list[str] | None:
    """The fields of a line's head as csv.reader reads them, or None if it might read them otherwise."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return None
    # csv.reader fails on a field longer than limit, and on NUL before Python 3.11
    if len(text) > limit or '"' in text or "\r" in text or "\0" in text:
        return None
    return text.split(",")


def _load_csv_bulk(path) -> Dataset | None:
    r"""Read a CSV file of single-digit levels as bytes, or return None.

    None sends the file, whole, to `_load_csv_rows`.  A file is read here
    only if csv.reader would split each of its lines at every comma and the
    row loop would parse every line: the locale's text encoding, which the
    row loop reads with, is UTF-8; lines end in \r\n or \n (the last may
    end in neither); no other byte is '"', \r or NUL; the level columns are
    the header's trailing block; and each data line ends in that block as
    2T-1 bytes of single ASCII digits and commas.  The head fields go
    through the row loop's own `_CsvColumns.add`, and each line's digits
    are copied into an (N, T) uint8 matrix, so the columns, and any error
    the constructor raises on them, are the row loop's.
    """
    with open(path, newline="") as fh:  # opened as the row loop opens it, for its encoding
        if codecs.lookup(fh.encoding).name != "utf-8":
            return None
        data = fh.buffer.read()
    limit = csv.field_size_limit()
    lines = _line_spans(data)
    header = _plain_fields(data[slice(*next(lines, (0, 0)))], limit)
    if header is None:
        return None
    try:
        columns = _CsvColumns(header)
    except DatasetError:
        return None
    n_head, t = columns.level_cols[0], len(columns.level_cols)
    if n_head + t != columns.width:  # a head column among the level columns
        return None
    commas = b"," * (t - 1)
    levels = bytearray()
    for rownum, (start, stop) in enumerate(lines, start=1):
        cut = stop - (2 * t - 1)  # where the level block starts
        if cut <= start or data[cut - 1] != ord(",") or data[cut + 1 : stop : 2] != commas:
            return None
        digits = data[cut:stop:2]
        fields = _plain_fields(data[start : cut - 1], limit)
        if not digits.isdigit() or fields is None or len(fields) != n_head:
            return None
        try:
            columns.add(fields, rownum)
        except DatasetError:
            return None
        levels += digits
    if not levels:
        return None
    matrix = np.frombuffer(levels, dtype=np.uint8).reshape(-1, t)
    np.subtract(matrix, ord("0"), out=matrix)
    return columns.dataset(matrix)


def _write_text(fh, text: str) -> None:
    data = text.encode("utf-8")
    fh.write(struct.pack("<I", len(data)))
    fh.write(data)


def _save_binary(dataset: Dataset, path) -> None:
    if dataset.J > 256:
        raise DatasetError("binary format stores levels as single bytes (J <= 256)")
    names = sorted(dataset.attributes)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", dataset.N, dataset.T, dataset.J))
        for r, (ident, weight) in enumerate(zip(dataset.ids, dataset.weights.tolist())):
            _write_text(fh, ident)
            fh.write(struct.pack("<d", weight))
            carried = [(name, dataset.attributes[name][r]) for name in names
                       if dataset.attributes[name][r] is not None]
            fh.write(struct.pack("<I", len(carried)))
            for name, value in carried:
                _write_text(fh, name)
                _write_text(fh, value)
            fh.write(dataset.levels[r].tobytes())  # uint8, as J <= 256


def _read_exact(fh, n: int, rownum: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise DatasetError(f"malformed row {rownum}: truncated file")
    return buf


def _read_text(fh, rownum: int) -> str:
    (size,) = struct.unpack("<I", _read_exact(fh, 4, rownum))
    try:
        return _read_exact(fh, size, rownum).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"malformed row {rownum}: {exc}") from None


def _load_binary(path) -> Dataset:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise DatasetError("not a binary dataset file (bad magic)")
        n, t, j = struct.unpack("<III", _read_exact(fh, 12, 0))
        # sized by the rows actually read, never by the header's N * T
        levels, ids, weights = bytearray(), [], []
        cells: dict[str, dict[int, str]] = {}  # attribute -> {0-based row: value}
        for rownum in range(1, n + 1):
            ids.append(_read_text(fh, rownum))
            weights.append(struct.unpack("<d", _read_exact(fh, 8, rownum))[0])
            (n_attrs,) = struct.unpack("<I", _read_exact(fh, 4, rownum))
            for _ in range(n_attrs):
                key = _read_text(fh, rownum)
                column = cells.setdefault(key, {})
                if rownum - 1 in column:
                    raise DatasetError(f"malformed row {rownum}: repeated attribute {key!r}")
                column[rownum - 1] = _read_text(fh, rownum)
            levels += _read_exact(fh, t, rownum)
        if fh.read(1):
            raise DatasetError("trailing bytes after final series")
    attributes = {key: [column.get(r) for r in range(n)] for key, column in cells.items()}
    return Dataset(np.frombuffer(levels, dtype=np.uint8).reshape(n, t), weights, ids, attributes, J=j)
