"""The dataset CSV reader and writer against their reference row code.

`series._load_csv_rows` (csv.reader and int() on every cell) is the
oracle of the bulk reader `series._load_csv_bulk`: a file the bulk reader
takes must give the same columns, and any other file goes through the row
loop whole.  The writer is checked against plain csv.writer rows, and
against `string_writer`, the text-mode writer its block bytes writes
replaced, byte for byte.
"""

import builtins
import csv
import io
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshscape import Dataset, DatasetError, generate_synthetic, load_dataset, save_dataset
from walshscape import series as series_module

PLAIN = "abcxyz09 .-_é"  # characters csv.reader never treats specially
SPECIAL = ',"\n'  # characters that make csv.writer quote a field
INT_ONLY = {" 1": 1, "+1": 1, "01": 1, "1_0": 10}  # cells int() reads but the bulk reader does not


def outcome(loader, path):
    """Everything a loader yields for a file, or the text of the DatasetError it raises."""
    try:
        ds = loader(path)
    except DatasetError as exc:
        return ("error", str(exc))
    return (ds.levels.tobytes(), ds.levels.dtype, ds.levels.shape, ds.ids,
            ds.weights.tobytes(), ds.attributes, ds.J)


@st.composite
def csv_files(draw):
    """(file bytes, whether the bulk reader must take it) of a valid dataset CSV."""
    n = draw(st.integers(1, 5))
    t = draw(st.integers(1, 6))
    J = draw(st.one_of(st.integers(2, 10), st.integers(11, 300)))
    text = st.text(st.sampled_from(draw(st.sampled_from([PLAIN, PLAIN + SPECIAL]))), max_size=6)
    ids = draw(st.lists(text, min_size=n, max_size=n, unique=True))
    n_attrs = draw(st.integers(0, 2))
    attrs = [draw(st.lists(st.one_of(st.just(""), text), min_size=n, max_size=n))
             for _ in range(n_attrs)]
    with_w, with_j = draw(st.booleans()), draw(st.booleans())
    weights = draw(st.lists(st.floats(0, 1e6), min_size=n, max_size=n))
    levels = draw(st.lists(st.lists(st.integers(0, J - 1), min_size=t, max_size=t),
                           min_size=n, max_size=n))
    int_only = draw(st.sets(st.sampled_from([k for k, v in INT_ONLY.items() if v < J]), max_size=1))
    cells = [[str(v) for v in row] for row in levels]
    for form in int_only:  # one cell in an int()-only form of the same value
        cells[draw(st.integers(0, n - 1))][draw(st.integers(0, t - 1))] = form
    # an attribute column among the level columns, or none
    between = draw(st.integers(1, t - 1)) if n_attrs and t > 1 and draw(st.booleans()) else None

    head = ["id"] + ["w"] * with_w + ["J"] * with_j
    attr_names = [f"attr:a{k}" for k in range(n_attrs)]
    level_names = [f"t{k}" for k in range(t)]
    if between is None:
        header = head + attr_names + level_names
    else:
        header = head + attr_names[1:] + level_names[:between] + attr_names[:1] + level_names[between:]
    order = [header.index(name) for name in head + attr_names + level_names]
    ending = draw(st.sampled_from(["\r\n", "\n"]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=ending)
    writer.writerow(header)
    for r in range(n):
        values = [ids[r]] + [repr(weights[r])] * with_w + [str(J)] * with_j
        values += [column[r] for column in attrs] + cells[r]
        row = [None] * len(header)
        for k, value in zip(order, values):
            row[k] = value
        writer.writerow(row)
    data = out.getvalue()
    if draw(st.booleans()):
        data = data[: -len(ending)]  # no final newline
    plain_text = not any(c in SPECIAL for v in ids + sum(attrs, []) for c in v)
    single_digits = all(len(cell) == 1 for row in cells for cell in row)
    plain = plain_text and between is None and single_digits
    return data.encode("utf-8"), plain


@settings(max_examples=300, deadline=None)
@given(csv_files())
def test_bulk_reader_equals_the_row_loop(tmp_path_factory, case):
    data, plain = case
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(data)
    expected = outcome(series_module._load_csv_rows, path)
    assert expected[0] != "error"
    assert outcome(load_dataset, path) == expected
    bulk = series_module._load_csv_bulk(path)
    assert (bulk is not None) == plain
    if plain:
        assert outcome(lambda p: bulk, path) == expected


HEAD = "id,w,J,t0,t1"
GOOD = "p1,1.0,3,0,1"

# (second data row, DatasetError text, whether the bulk reader reads the file)
CORRUPT_ROWS = [
    pytest.param("p2,1.0,3,0", "malformed row 2: expected 5 fields, got 4", False, id="short-row"),
    pytest.param("p2,x,3,0,1", "malformed row 2: bad weight 'x'", False, id="bad-weight"),
    pytest.param("p2,1.0,4,0,1", "inconsistent J at row 2", False, id="inconsistent-j"),
    pytest.param("p2,nan,3,0,1", "non-finite weight at row 2", True, id="nan-weight"),
    pytest.param("p2,1.0,3,0,x", "malformed row 2: non-integer level", False, id="non-digit"),
    pytest.param("p2,1.0,3,0;1", "malformed row 2: expected 5 fields, got 4", False,
                 id="no-comma-between-digits"),
    pytest.param("", "malformed row 2: expected 5 fields, got 0", False, id="blank-line"),
    pytest.param("p2,1.0,3,99999999999999999999,0", "level out of range at row 2", False,
                 id="overflow"),
    pytest.param("p2,1.0,3,0,3", "level out of range at row 2", True, id="level-out-of-range"),
    pytest.param("p1,1.0,3,0,1", "duplicate series id 'p1' at row 2", True, id="duplicate-id"),
]


@pytest.mark.parametrize("ending", ["\r\n", "\n"])
@pytest.mark.parametrize("row, message, bulk", CORRUPT_ROWS)
def test_corrupt_files_give_the_row_loop_error(tmp_path, ending, row, message, bulk):
    path = tmp_path / "bad.csv"
    path.write_bytes(ending.join([HEAD, GOOD, row, "p3,1.0,3,1,1", ""]).encode())
    expected = outcome(series_module._load_csv_rows, path)
    assert expected == ("error", message)
    assert outcome(load_dataset, path) == expected
    if bulk:
        assert outcome(series_module._load_csv_bulk, path) == expected
    else:
        assert series_module._load_csv_bulk(path) is None


@pytest.mark.parametrize("header, row, name", [
    pytest.param("id,w,w,J,t0,t1", "p1,-1,1.0,3,0,1", "w", id="w"),  # the first w is negative
    pytest.param("id,w,J,J,t0,t1", "p1,1.0,3,3,0,1", "J", id="J"),
    pytest.param("id,attr:a,w,attr:a,t0,t1", "p1,x,1.0,y,0,1", "attr:a", id="attr"),
])
def test_a_repeated_head_column_is_named_by_both_readers(tmp_path, header, row, name):
    path = tmp_path / "repeated.csv"
    path.write_text(f"{header}\n{row}\n")
    expected = ("error", f"header repeats column {name!r}")
    assert outcome(series_module._load_csv_rows, path) == expected
    assert series_module._load_csv_bulk(path) is None  # so load_dataset raises the row loop's error
    assert outcome(load_dataset, path) == expected


def test_repeated_level_column_names_stay_accepted(tmp_path):
    path = tmp_path / "levels.csv"
    path.write_text("id,t,t,t\np1,0,1,2\n")
    assert outcome(load_dataset, path) == outcome(series_module._load_csv_rows, path)
    assert load_dataset(path).levels.tolist() == [[0, 1, 2]]


@pytest.mark.parametrize("data", [
    pytest.param(b"", id="empty"),
    pytest.param(b"id,t0\r\n", id="header-only"),
    pytest.param(b"id,t0\rp1,1\r", id="bare-cr"),
    pytest.param(b"id,t0\r\np1,1\r\r\n", id="cr-before-crlf"),
    pytest.param(b"id,t0\r\np\r1,1\r\n", id="cr-in-id"),
    pytest.param(b"id,t0,attr:a,t1\r\np1,0,1\r\n", id="short-row-of-interleaved-header"),
    pytest.param(b"id,t0\r\np\x001,1\r\n", id="nul"),
    pytest.param(b"id,t0\r\np\xff,1\r\n", id="invalid-utf8"),
    pytest.param(b"\xef\xbb\xbfid,t0\r\np1,1\r\n", id="bom"),
])
def test_irregular_bytes_take_the_row_loop(tmp_path, data):
    path = tmp_path / "odd.csv"
    path.write_bytes(data)
    assert series_module._load_csv_bulk(path) is None
    try:
        expected = ("ok", outcome(series_module._load_csv_rows, path))
    except ValueError as exc:  # invalid UTF-8 fails in the text decoder
        expected = ("raised", type(exc), str(exc))
    try:
        got = ("ok", outcome(load_dataset, path))
    except ValueError as exc:
        got = ("raised", type(exc), str(exc))
    assert got == expected


def test_a_field_beyond_the_csv_limit_takes_the_row_loop(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("id,t0\n" + "x" * (csv.field_size_limit() + 1) + ",1\n")
    assert series_module._load_csv_bulk(path) is None
    with pytest.raises(csv.Error):
        load_dataset(path)


def test_a_locale_encoding_other_than_utf8_takes_the_row_loop(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_bytes("id,t0\r\né,1\r\n".encode("utf-8"))
    latin1 = lambda *args, **kw: builtins.open(*args, encoding="latin-1", **kw)  # noqa: E731
    monkeypatch.setattr(series_module, "open", latin1, raising=False)
    assert series_module._load_csv_bulk(path) is None
    assert load_dataset(path).ids == ["Ã©"]


def test_files_the_writer_saves_take_the_bulk_path(tmp_path):
    path = tmp_path / "data.csv"
    save_dataset(generate_synthetic(4, 32, 0.1, 2), path)
    ds = series_module._load_csv_bulk(path)
    assert ds.levels.dtype == np.uint8 and ds.levels.shape == (12, 32)
    assert outcome(lambda p: ds, path) == outcome(series_module._load_csv_rows, path)


def reference_csv(dataset: Dataset) -> bytes:
    """The CSV that csv.writer gives with every level cell written by str()."""
    names = sorted(dataset.attributes)
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["id", "w", "J"] + [f"attr:{a}" for a in names]
                    + [f"t{k}" for k in range(dataset.T)])
    for r in range(dataset.N):
        writer.writerow([dataset.ids[r], repr(float(dataset.weights[r])), dataset.J]
                        + [dataset.attributes[a][r] or "" for a in names]
                        + dataset.levels[r].tolist())
    return out.getvalue().encode("utf-8")


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 7))
    t = draw(st.integers(1, 6))
    J = draw(st.one_of(st.integers(2, 10), st.integers(11, 300)))
    text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)
    ids = draw(st.lists(text, min_size=n, max_size=n, unique=True))
    attributes = {name: draw(st.lists(st.one_of(st.none(), text), min_size=n, max_size=n))
                  for name in draw(st.sets(st.sampled_from(["a", "b,c", 'q"']), max_size=2))}
    weights = draw(st.lists(st.floats(0, 1e300), min_size=n, max_size=n))
    levels = draw(st.lists(st.lists(st.integers(0, J - 1), min_size=t, max_size=t),
                           min_size=n, max_size=n))
    return Dataset(np.array(levels), weights, ids, attributes, J=J)


@settings(max_examples=200, deadline=None)
@given(datasets(), st.integers(1, 4))
def test_writer_equals_csv_writer(tmp_path_factory, dataset, rows_per_block):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    with mock.patch.object(series_module, "_CSV_ROWS", rows_per_block):
        save_dataset(dataset, path)
    assert path.read_bytes() == reference_csv(dataset)


@pytest.mark.parametrize("fmt", ["csv", "binary"])
@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda rows: setattr(rows[1], "id", rows[0].id),
                 "duplicate series id 'c1-00000' at row 2", id="duplicate-id"),
    pytest.param(lambda rows: setattr(rows[3], "weight", -1.0), "negative weight at row 4",
                 id="negative-weight"),
    pytest.param(lambda rows: setattr(rows[2], "weight", float("nan")), "non-finite weight at row 3",
                 id="nan-weight"),
    pytest.param(lambda rows: setattr(rows[2], "id", 2), "series id 2 is not a string at row 3",
                 id="int-id"),
])
def test_save_rejects_columns_its_loader_would_reject(tmp_path, fmt, edit, message):
    dataset = generate_synthetic(2, 8, 0.0, 1)
    edit(dataset.series)
    path = tmp_path / f"data.{fmt}"
    with pytest.raises(DatasetError, match=message):
        save_dataset(dataset, path, format=fmt)
    assert not path.exists()


def string_writer(dataset: Dataset, path, encoding=None) -> None:
    """The text-mode writer that block bytes writes replaced: each block of
    head rows and numpy level text joined into one str and written through
    the text layer in `encoding` (the locale's by default)."""
    attr_names = sorted(dataset.attributes)
    columns = [dataset.attributes[a] for a in attr_names]
    header = ["id", "w", "J"] + [f"attr:{a}" for a in attr_names] + [f"t{k}" for k in range(dataset.T)]
    weights = dataset.weights.tolist()
    t, width = dataset.T, 2 * dataset.T + 1
    heads: list[str] = []
    head_writer = csv.writer(SimpleNamespace(write=heads.append))
    with open(path, "w", newline="", encoding=encoding) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, dataset.N, series_module._CSV_ROWS):
            rows = range(start, min(start + series_module._CSV_ROWS, dataset.N))
            head_rows = ([dataset.ids[r], repr(weights[r]), dataset.J]
                         + [column[r] or "" for column in columns]
                         for r in rows)
            if dataset.J > 10:
                for r, row in zip(rows, head_rows):
                    writer.writerow(row + dataset.levels[r].tolist())
                continue
            heads.clear()
            head_writer.writerows(head_rows)
            text = np.empty((len(rows), width), dtype=np.uint8)
            text[:, : 2 * t - 1 : 2] = dataset.levels[start : rows.stop] + ord("0")
            text[:, 1 : 2 * t - 1 : 2] = ord(",")
            text[:, -2:] = (ord("\r"), ord("\n"))
            lines = text.tobytes().decode("ascii")
            fh.write("".join(f"{head[:-2]},{lines[i * width : (i + 1) * width]}"
                             for i, head in enumerate(heads)))


FIELD_TEXT = st.text(st.sampled_from(PLAIN + ',"\r\n' + "ü€😀"), max_size=6)
LONG_WEIGHTS = [0.1 + 0.2, 1 / 3, 2 / 3, 1 - 2**-53, 5e-324, 123456789.12345678]  # 17 digits, a subnormal


@st.composite
def block_datasets(draw):
    """Datasets of one, several and part blocks of _CSV_ROWS rows, with awkward head fields."""
    n = draw(st.sampled_from([1, 1023, 1024, 1025, 2049]))
    t = draw(st.integers(1, 4))
    J = draw(st.sampled_from([2, 10, 11]))
    prefixes = draw(st.lists(FIELD_TEXT, min_size=1, max_size=4))
    ids = [f"{prefixes[i % len(prefixes)]}|{i}" for i in range(n)]  # '|' is in no prefix
    cells = st.lists(st.one_of(st.none(), st.just(""), FIELD_TEXT), min_size=1, max_size=4)
    attributes = {}
    for name in draw(st.sets(st.sampled_from(["a", "b,c", 'q"']), max_size=2)):
        pool = draw(cells)
        attributes[name] = [pool[i % len(pool)] for i in range(n)]
    pool = draw(st.lists(st.one_of(st.floats(0, 1e300), st.sampled_from(LONG_WEIGHTS)), min_size=1, max_size=4))
    weights = [pool[i % len(pool)] for i in range(n)]
    levels = np.random.default_rng(draw(st.integers(0, 2**32))).integers(0, J, size=(n, t))
    return Dataset(levels, weights, ids, attributes, J=J)


@settings(max_examples=40, deadline=None)
@given(block_datasets())
def test_block_writer_equals_the_string_writer(tmp_path_factory, dataset):
    folder = tmp_path_factory.mktemp("csv")
    path = folder / "data.csv"
    save_dataset(dataset, path)
    string_writer(dataset, folder / "oracle.csv")
    data = path.read_bytes()
    assert data == (folder / "oracle.csv").read_bytes()

    attributes = {name: [value or None for value in column] for name, column in dataset.attributes.items()}
    written = (dataset.levels.tobytes(), dataset.levels.dtype, dataset.levels.shape, dataset.ids,
               dataset.weights.tobytes(), {k: v for k, v in attributes.items() if any(v)}, dataset.J)
    assert outcome(series_module._load_csv_rows, path) == written
    bulk = series_module._load_csv_bulk(path)
    # the bulk reader declines levels of two digits, and the quotes csv.writer puts
    # round a field that holds a comma, a quote or a line break
    assert (bulk is None) == (dataset.levels.max() > 9 or b'"' in data)
    if bulk is not None:
        assert outcome(lambda p: bulk, path) == written


def with_encoding(encoding):
    return lambda *args, **kw: builtins.open(*args, encoding=encoding, **kw)


@pytest.mark.parametrize("encoding, ident", [
    ("latin-1", 'é, "ß"\r\n'), ("cp1252", '€, "é"\r\n'), ("shift_jis", '日本, "語"\r\n'),
])
def test_block_writer_equals_the_string_writer_in_other_locale_encodings(tmp_path, monkeypatch, encoding, ident):
    dataset = generate_synthetic(400, 5, 0.1, 3)
    dataset.ids[1] = ident
    monkeypatch.setattr(series_module, "open", with_encoding(encoding), raising=False)
    save_dataset(dataset, tmp_path / "data.csv")
    string_writer(dataset, tmp_path / "oracle.csv", encoding=encoding)
    assert (tmp_path / "data.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_a_head_field_the_encoding_cannot_hold_raises_as_the_string_writer_did(tmp_path, monkeypatch):
    dataset = generate_synthetic(700, 5, 0.1, 3)
    dataset.ids[1500] = "x€"  # in the second block; latin-1 has no euro sign
    monkeypatch.setattr(series_module, "open", with_encoding("latin-1"), raising=False)
    raised = []
    for write, path in ((lambda p: save_dataset(dataset, p), tmp_path / "data.csv"),
                        (lambda p: string_writer(dataset, p, encoding="latin-1"), tmp_path / "oracle.csv")):
        with pytest.raises(UnicodeEncodeError) as caught:
            write(path)
        exc = caught.value
        raised.append((exc.encoding, exc.reason, exc.object[exc.start : exc.end], path.read_bytes()))
    assert raised[0] == raised[1]
    assert raised[0][2] == "€" and raised[0][3].count(b"\r\n") == 1 + series_module._CSV_ROWS
