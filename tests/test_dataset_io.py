"""One differential property over every dataset reader and writer.

For small CSV and binary files, well-formed or faulty:

* the bulk CSV reader, whenever it does not decline a file (None), gives
  the Dataset, or the DatasetError message, of the csv.reader row loop;
* `load_dataset` gives what that reference reader gives;
* a dataset that loads, saved as CSV and as binary, loads back equal;
* no reader or writer raises anything but DatasetError, and `cluster` and
  `summarize` print its message on a file that does not load and exit 2.

The files are UTF-8 text without NUL or a bare carriage return in an
unquoted field: inputs outside that are csv.reader's or the codec's
errors, pinned by tests/test_csv_io.py.
"""

import contextlib
import csv
import io
import json
import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from walshscape import DatasetError, generate_synthetic, load_dataset, save_dataset
from walshscape import series as series_module
from walshscape.cli import main

# a fixed profile: the same examples on every run, so tier-1 stays deterministic
DIFFERENTIAL = settings(derandomize=True, max_examples=400, deadline=None, database=None,
                        suppress_health_check=[HealthCheck.too_slow])

CSV_FAULTS = ["none", "quoted head", "quoted cell", "multi-digit level", "odd level", "bad weight",
              "bad J", "duplicate id", "row length", "mixed endings", "cut short", "field over limit"]
BINARY_FAULTS = ["none", "cut", "flip", "trailing byte", "huge N*T", "bad UTF-8", "repeated key",
                 "ids not a list", "missing key", "deep nesting", "non-string id", "duplicate id",
                 "level out of range", "bad weight", "bad J"]


def outcome(load, path):
    """Everything a reader yields for a file, None if it declines it, or its DatasetError text."""
    try:
        ds = load(path)
    except DatasetError as exc:
        return ("error", str(exc))
    if ds is None:
        return None
    return (ds.levels.tobytes(), ds.levels.dtype, ds.levels.shape, ds.ids,
            ds.weights.tobytes(), ds.attributes, ds.J)


@st.composite
def csv_files(draw, fault):
    """(fault, bytes) of a small dataset CSV: single-digit and unquoted, or with the one fault named."""
    cell = lambda pool: draw(st.sampled_from(pool))  # noqa: E731
    n, t = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    with_w, with_j = fault == "bad weight" or draw(st.booleans()), draw(st.booleans())
    attrs = draw(st.lists(st.sampled_from(["a", "b"]), max_size=2, unique=True))
    j = cell(["2", "300", "x"] if fault == "bad J" else ["3", "10"])
    header = ["id"] + ["w"] * with_w + ["J"] * with_j + [f"attr:{a}" for a in attrs]
    header += [f"t{k}" for k in range(t)]
    if fault == "quoted head":
        header = [f'"{name}"' if draw(st.booleans()) else name for name in header]
    rows = []
    for r in range(n):
        row = [f"p{r}"] + [cell(["1.0", "0.25", "2", "1e3", "-0.0"])] * with_w + [j] * with_j
        row += [cell(["", "f", "m", "é"]) for _ in attrs] + [cell(["0", "1", "2"]) for _ in range(t)]
        rows.append(row)
    r, k = draw(st.integers(0, n - 1)), draw(st.integers(0, len(header) - 1))
    if fault == "quoted cell":
        rows[r][k] = cell(['"q,1"', '"x""y"', '"l\nm"', '"l\r\nm"', '"1"'])
    elif fault == "multi-digit level":
        rows[r][-1] = cell(["10", "12", "255", "300"])
    elif fault == "odd level":
        rows[r][-1] = cell(["-1", "01", " 1", "+1", "1_0", "x", ""])
    elif fault == "bad weight":
        rows[r][1] = cell(["x", "-1", "nan", "inf", "", " 1"])
    elif fault == "duplicate id":
        rows[r][0] = rows[0][0]
    elif fault == "row length":
        rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["0"]
    elif fault == "field over limit":  # csv.reader refuses it, in the header or in a row
        (header if draw(st.booleans()) else rows[r])[k] = "x" * (csv.field_size_limit() + 1)
    lines = [",".join(line) for line in [header, *rows]]
    ending = cell(["\n", "\r\n"])
    ends = [cell(["\n", "\r\n"]) if fault == "mixed endings" else ending for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no final line ending
    text = "".join(line + end for line, end in zip(lines, ends))
    if fault == "cut short":  # between characters: a cut through é is the codec's error
        text = text[: draw(st.integers(0, len(text) - 1))]
    return fault, text.encode("utf-8")


@st.composite
def binary_files(draw, fault):
    """(fault, bytes) of a small binary dataset file: well-formed, or with the one fault named."""
    n, t = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    j = draw(st.sampled_from({"bad J": [0, 1], "level out of range": [3]}.get(fault, [3, 256])))
    bad = draw(st.integers(0, n - 1))  # the row a value fault is in
    ids = [f"p{r}é" for r in range(n)]
    if fault == "duplicate id":
        ids[bad] = ids[bad - 1]  # the last id for row 0; no fault when n is 1
    elif fault == "non-string id":
        ids[bad] = draw(st.sampled_from([5, 1.5, None, ["p"], {"p": 1}, True]))
    weights = [0.5] * n
    if fault == "bad weight":
        weights[bad] = draw(st.sampled_from([-1.0, float("nan"), float("inf")]))
    levels = [draw(st.lists(st.integers(0, 2), min_size=t, max_size=t)) for _ in range(n)]
    if fault == "level out of range":
        levels[bad][-1] = draw(st.sampled_from([3, 255]))
    keys = draw(st.lists(st.sampled_from(["a", "b"]), max_size=2, unique=True))
    columns = [(key, [draw(st.sampled_from(["x", "ü", None])) for _ in range(n)]) for key in keys]
    entries = [f'"{key}": {json.dumps(column)}' for key, column in columns]
    if fault == "repeated key" and entries and draw(st.booleans()):
        entries.append(entries[-1])  # an attribute twice; otherwise a top-level key twice, below
    block = {"ids": json.dumps(ids, ensure_ascii=False), "attributes": "{" + ", ".join(entries) + "}"}
    if fault == "ids not a list":
        block["ids"] = draw(st.sampled_from(['"p0"', "{}", "3", "null", '{"p0": 1}']))
    elif fault == "missing key":
        del block[draw(st.sampled_from(["ids", "attributes"]))]
    elif fault == "deep nesting":  # beyond the JSON decoder's recursion limit
        block[draw(st.sampled_from(["ids", "attributes"]))] = "[" * 10**5 + "]" * 10**5
    pairs = [f'"{name}": {value}' for name, value in block.items()]
    if fault == "repeated key" and len(entries) == len(keys):
        pairs.append(draw(st.sampled_from(pairs)))
    text = ("{" + ", ".join(pairs) + "}").encode("utf-8")
    if fault == "bad UTF-8":
        text = text.replace("é".encode(), "é".encode()[:1], 1)  # half of the first é
    header = [n, t]
    if fault == "huge N*T":  # more level bytes than the file holds
        header = draw(st.sampled_from([[n, t + 1], [n + 1, t], [n, 2**31], [2**32 - 1, 2**32 - 1]]))
    data = bytearray(struct.pack("<4sIIIQ", b"CTS2", *header, j, len(text)))
    data += bytes(sum(levels, [])) + struct.pack(f"<{n}d", *weights) + text
    at = len(data) - 1 - draw(st.integers(0, len(data) - 1))  # counted from the end
    if fault == "cut":
        del data[at:]
    elif fault == "flip":
        data[at] ^= 1 << draw(st.integers(0, 7))
    elif fault == "trailing byte":
        data += b"\0"
    return fault, bytes(data)


def check_round_trips(loaded, folder):
    """A loaded dataset saved in either format loads back equal; saving raises only DatasetError."""
    for fmt in ("csv", "binary"):
        path = folder / f"saved.{fmt}"
        try:
            save_dataset(loaded, path, format=fmt)
        except DatasetError as exc:  # the binary format stores levels as bytes
            assert fmt == "binary" and loaded.J > 256, exc
            continue
        assert outcome(lambda p: load_dataset(p, format=fmt), path) == outcome(lambda p: loaded, path)


def test_every_reader_and_writer_agree(tmp_path_factory):
    # derandomized draws are far from uniform: a property that drew the fault
    # could leave a fault undrawn in 400 examples, so each fault runs its share
    share = settings(DIFFERENTIAL, max_examples=-(-DIFFERENTIAL.max_examples // len(CSV_FAULTS + BINARY_FAULTS)))
    for fmt, files, faults in (("csv", csv_files, CSV_FAULTS), ("binary", binary_files, BINARY_FAULTS)):
        for fault in faults:
            share(given(files(fault))(readers_and_writers_agree))(tmp_path_factory, fmt)


def readers_and_writers_agree(tmp_path_factory, fmt, case):
    _fault, data = case  # the fault names the case in a failure report
    folder = tmp_path_factory.mktemp("io")
    path = folder / f"input.{fmt}"
    path.write_bytes(data)
    if fmt == "csv":
        expected = outcome(series_module._load_csv_rows, path)
        bulk = outcome(series_module._load_csv_bulk, path)
        assert bulk is None or bulk == expected
    else:
        expected = outcome(series_module._load_binary, path)
    assert outcome(lambda p: load_dataset(p, format=fmt), path) == expected
    if expected[0] != "error":
        check_round_trips(load_dataset(path, format=fmt), folder)
        return
    for command in (["cluster", "--K", "1"], ["summarize", "--labels", str(folder / "labels.csv")]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*command, "--input", str(path), "--format", fmt, "--out", str(folder / "out")])
        assert (code, err.getvalue()) == (2, f"error: {expected[1]}\n")
        assert not (folder / "out").exists()


def test_a_binary_load_gives_writable_columns(tmp_path):
    path = tmp_path / "data.bin"
    save_dataset(generate_synthetic(2, 8, 0.1, seed=1), path, format="binary")
    dataset = load_dataset(path, format="binary")
    dataset.series[0].weight = 2.0
    dataset.levels[0, 0] = 2
    assert dataset.weights[0] == 2.0 and dataset.levels[0, 0] == 2
