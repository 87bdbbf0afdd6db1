import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walshscape import (
    ARCHETYPES,
    Dataset,
    DatasetError,
    archetype_template,
    generate_synthetic,
    load_dataset,
    make_shard_plan,
    save_dataset,
)
from walshscape import series as series_module

from conftest import toy_dataset, traced_peak


HEADER = struct.Struct("<4sIIIQ")  # magic, N, T, J, bytes of the JSON block


def binary_file(rows, n=None, t=3, j=3, text=None) -> bytes:
    """A binary dataset file of rows (id, weight, {key: value}, levels).

    Ids, keys and values are bytes, and the JSON block is joined from them
    by hand with json.dumps's separators, so that invalid UTF-8 can be
    written; `text`, when given, is the JSON block instead.
    """
    quoted = lambda data: b'"' + data + b'"'  # noqa: E731
    if text is None:
        keys = sorted({key for _, _, attrs, _ in rows for key in attrs})
        column = lambda key: b", ".join(  # noqa: E731
            quoted(attrs[key]) if key in attrs else b"null" for _, _, attrs, _ in rows)
        text = (b'{"ids": [' + b", ".join(quoted(row[0]) for row in rows) + b'], "attributes": {'
                + b", ".join(quoted(key) + b": [" + column(key) + b"]" for key in keys) + b"}}")
    header = HEADER.pack(b"CTS2", len(rows) if n is None else n, t, j, len(text))
    return (header + b"".join(bytes(row[3]) for row in rows)
            + b"".join(struct.pack("<d", row[1]) for row in rows) + text)


TWO_ROWS = [(b"r1", 1.0, {b"ab": b"xy"}, [0, 1, 2]), (b"r2", 2.0, {b"cd": b"zw"}, [2, 1, 0])]
# Where each field of a row sits in the JSON block of TWO_ROWS's file,
# {"ids": ["r1", "r2"], "attributes": {"ab": ["xy", null], "cd": [null, "zw"]}}:
# an id, key or value, the delimiter that opens it (`*_len`), and the null
# slot of the attribute the row lacks (`n_attrs`).
ROW_TEXT = {
    1: {"id_len": b'["r1', "id": b"r1", "n_attrs": b"[null", "key_len": b'{"ab', "key": b"ab",
        "value_len": b'["xy', "value": b"xy"},
    2: {"id_len": b', "r2', "id": b"r2", "n_attrs": b", null", "key_len": b', "cd', "key": b"cd",
        "value_len": b', "zw', "value": b"zw"},
}


def _truncated_inside_each_field():
    """The file of TWO_ROWS cut inside each field of each row: its levels,
    its weight, and its parts of the JSON block."""
    data, cases = binary_file(TWO_ROWS), []
    for row, text in ROW_TEXT.items():
        cuts = {name: data.index(needle) + len(needle) // 2 for name, needle in text.items()}
        cuts["levels"] = HEADER.size + 3 * (row - 1) + 1
        cuts["weight"] = HEADER.size + 6 + 8 * (row - 1) + 4
        cases += [pytest.param(data[:cut], "^truncated file$", id=f"row{row}-{name}")
                  for name, cut in cuts.items()]
    return cases


BINARY_FAULTS = [
    pytest.param(b"XTS1" + binary_file(TWO_ROWS)[4:],
                 "^" + re.escape("not a binary dataset file (magic b'XTS1', expected b'CTS2')") + "$",
                 id="bad-magic"),
    # the earlier row-by-row layout: a header, then each row's length-prefixed id, weight and levels
    pytest.param(b"CTS1" + struct.pack("<IIII", 1, 3, 3, 2) + b"r1" + struct.pack("<dI", 1.0, 0) + bytes(3),
                 "^" + re.escape("not a binary dataset file (magic b'CTS1', expected b'CTS2')") + "$",
                 id="cts1-magic"),
    *_truncated_inside_each_field(),
    pytest.param(binary_file(TWO_ROWS) + b"\0", "trailing bytes after final series", id="trailing-byte"),
    pytest.param(binary_file(TWO_ROWS, text=b'{"ids": ["r1", "r2"], '
                                            b'"attributes": {"a": ["p", null], "a": [null, "q"]}}'),
                 "^malformed id and attribute block: repeated key 'a'$", id="repeated-attribute"),
    # 24 bytes whose header claims N = T = 2**32 - 1: refused by the file's size, before any allocation
    pytest.param(HEADER.pack(b"CTS2", 2**32 - 1, 2**32 - 1, 3, 0), "^truncated file$", id="huge-header"),
]


class TestDatasetValidation:
    def test_levels_must_fit_j(self):
        with pytest.raises(DatasetError, match="level out of range at row 2"):
            toy_dataset([[0, 1, 2], [0, 3, 1]], J=3)

    def test_negative_weight_rejected(self):
        with pytest.raises(DatasetError, match="negative weight at row 1"):
            Dataset([[0, 1]], [-1.0], ["x"], {})

    def test_j_inferred_from_levels(self):
        assert toy_dataset([[0, 1, 2]]).J == 3
        assert toy_dataset([[0, 0, 0]]).J == 2  # J is at least 2

    def test_levels_order(self):
        ds = toy_dataset([[0, 1], [2, 0]])
        assert np.array_equal(ds.levels, [[0, 1], [2, 0]])

    def test_levels_use_the_smallest_unsigned_dtype(self):
        assert toy_dataset([[0, 1], [2, 0]]).levels.dtype == np.uint8
        assert toy_dataset([[0, 1], [2, 0]], J=256).levels.dtype == np.uint8
        assert toy_dataset([[0, 1], [2, 0]], J=257).levels.dtype == np.uint16

    def test_first_faulty_row_is_reported_whatever_the_fault(self):
        with pytest.raises(DatasetError, match="level out of range at row 2"):
            toy_dataset([[0, 1], [0, 5], [1, 0]], weights=[1.0, 1.0, float("nan")], J=3)

    def test_row_views_write_into_the_columns(self):
        ds = toy_dataset([[0, 1], [2, 0]])
        row = ds.series[1]
        row.id, row.weight = "renamed", 0.5
        assert ds.ids == ["s0", "renamed"]
        assert ds.weights.tolist() == [1.0, 0.5]


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("source", ["csv", "binary", "columns"])
def test_non_finite_weight_is_rejected_with_its_row(tmp_path, source, weight):
    with pytest.raises(DatasetError, match="non-finite weight at row 2"):
        if source == "csv":
            path = tmp_path / "bad.csv"
            path.write_text(f"id,w,t0,t1\np1,1.0,0,1\np2,{weight},1,0\n")
            load_dataset(path)
        elif source == "binary":
            path = tmp_path / "bad.bin"
            path.write_bytes(binary_file([(b"p1", 1.0, {}, [0, 1]), (b"p2", weight, {}, [1, 0])], t=2))
            load_dataset(path, format="binary")
        else:
            Dataset([[0, 1], [1, 0]], [1.0, weight], ["p1", "p2"], {})


@pytest.mark.parametrize("levels, weights, ids, message", [
    pytest.param([[0, 1, 2], [0, 1]], [1.0, 1.0], ["a", "b"], "series length differs from row 1 at row 2",
                 id="short-row"),
    pytest.param([[0, 1], [1, 0], [0, [1]]], [1.0] * 3, ["a", "b", "c"],
                 "series length differs from row 1 at row 3", id="nested-row"),
    pytest.param([[0, 1], [1, 0]], ["x", 1.0], ["a", "b"], "non-numeric weight at row 1", id="text-weight"),
    pytest.param([[0, 1], [1, 0]], [1.0, [2.0]], ["a", "b"], "non-numeric weight at row 2", id="list-weight"),
    pytest.param([[0, 1], [1, 0]], [1.0, 1.0], ["a", 2], "series id 2 is not a string at row 2", id="int-id"),
    pytest.param([[0.0, 1.0]], [1.0], ["a"], "levels must be an integer (N, T) matrix", id="float-levels"),
    pytest.param([[0, 1], [1, 0]], [1.0, 1.0], ["a"], "every column must hold one value per series (2)",
                 id="short-ids"),
])
def test_malformed_columns_are_rejected_with_their_row(levels, weights, ids, message):
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        Dataset(levels, weights, ids, {})


@pytest.mark.parametrize("attributes, message", [
    pytest.param({"x": [1, "y"]}, "attribute 'x' value 1 is not a string at row 1", id="int-value"),
    pytest.param({"x": ["y", None, "z"], "w": [None, "v", b"u"]},
                 "attribute 'w' value b'u' is not a string at row 3", id="bytes-value"),
    pytest.param({"x": ["y", None, 2.5], "w": ["v", ["u"], None]},
                 "attribute 'w' value ['u'] is not a string at row 2", id="first-row-wins"),
    pytest.param({3: ["y", "z", None]}, "attribute name 3 is not a string", id="int-name"),
])
def test_non_string_attributes_are_rejected(attributes, message):
    n = len(next(iter(attributes.values())))
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        Dataset([[0, 1]] * n, [1.0] * n, [f"s{i}" for i in range(n)], attributes)


class TestRoundTrips:
    @pytest.fixture
    def dataset(self):
        return toy_dataset(
            [[0, 1, 2, 0], [2, 2, 1, 0], [1, 0, 0, 1]],
            weights=[0.1, 2.5, 1.0],
            attrs=[
                {"wave": "1995", "gender": "f"},
                {"wave": "2017"},
                {"gender": "m", "income": "25k-55k"},
            ],
        )

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_exact_round_trip(self, dataset, fmt, tmp_path):
        path = tmp_path / f"data.{fmt}"
        save_dataset(dataset, path, format=fmt)
        back = load_dataset(path, format=fmt)
        assert back.T == dataset.T and back.J == dataset.J and back.N == dataset.N
        assert back.ids == dataset.ids
        assert np.array_equal(back.levels, dataset.levels)
        assert back.weights.tolist() == dataset.weights.tolist()
        assert back.attributes == dataset.attributes

    def test_csv_level_out_of_range_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,J,t0,t1\np1,3,0,1\np2,3,0,3\n")
        with pytest.raises(DatasetError, match="level out of range at row 2"):
            load_dataset(path)

    def test_csv_malformed_row_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,t0,t1\np1,0,1\np2,0\n")
        with pytest.raises(DatasetError, match="malformed row 2"):
            load_dataset(path)

    def test_csv_negative_weight_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,w,t0\np1,1.0,0\np2,-2.0,1\n")
        with pytest.raises(DatasetError, match="negative weight at row 2"):
            load_dataset(path)

    def test_unknown_format_is_refused(self, dataset, tmp_path):
        path = tmp_path / "data.xml"
        with pytest.raises(ValueError, match="^unknown format 'xml'$"):
            save_dataset(dataset, path, format="xml")
        assert not path.exists()
        with pytest.raises(ValueError, match="^unknown format 'xml'$"):
            load_dataset(path, format="xml")

    def test_csv_weight_defaults_to_one(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("id,t0,t1,t2\np1,0,0,1\n")
        ds = load_dataset(path)
        assert ds.series[0].weight == 1.0
        assert np.array_equal(ds.levels[0], [0, 0, 1])

    def test_binary_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a dataset")
        with pytest.raises(DatasetError, match="magic"):
            load_dataset(path, format="binary")

    @pytest.mark.parametrize("content, message", BINARY_FAULTS)
    def test_binary_loader_faults(self, tmp_path, content, message):
        path = tmp_path / "bad.bin"
        path.write_bytes(content)
        with pytest.raises(DatasetError, match=message):
            load_dataset(path, format="binary")

    @pytest.mark.parametrize("content", [
        binary_file([(b"r1", 1.0, {}, [0, 1, 2, 0, 1, 2, 0, 1, 2, 0])], t=2**28),
        HEADER.pack(b"CTS2", 1, 3, 3, 2**28) + bytes(3) + struct.pack("<d", 1.0) + b'{"ids": ["r1"]',
        HEADER.pack(b"CTS2", 2**32 - 1, 2**32 - 1, 3, 0),
    ], ids=["T", "id-length", "N-and-T"])
    def test_a_length_prefix_allocates_only_what_the_file_holds(self, tmp_path, content):
        # a header claiming a block of 2**28 bytes or more, followed by a few real bytes
        path = tmp_path / "bad.bin"
        path.write_bytes(content)

        def load():
            with pytest.raises(DatasetError, match="^truncated file$"):
                load_dataset(path, format="binary")

        assert traced_peak(load) < 2**20

    @pytest.mark.parametrize("field", ["id", "key", "value"])
    def test_binary_invalid_utf8_names_its_row(self, tmp_path, field):
        # the JSON block is decoded whole, so the message names the block, not the row
        text = {"id": b"r2", "key": b"ab", "value": b"zw", field: b"\xff\xfe"}
        path = tmp_path / "bad.bin"
        path.write_bytes(binary_file([TWO_ROWS[0], (text["id"], 2.0, {text["key"]: text["value"]}, [2, 1, 0])]))
        with pytest.raises(DatasetError, match="^malformed id and attribute block: 'utf-8' codec can't decode"):
            load_dataset(path, format="binary")

    def test_binary_zero_length_series_rejected_at_load(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(binary_file([(b"r1", 1.0, {}, [])], t=0))
        with pytest.raises(DatasetError, match="T must be positive"):
            load_dataset(path, format="binary")

    def test_formats_are_pinned_bytes(self, dataset, tmp_path):
        save_dataset(dataset, tmp_path / "data.csv")
        save_dataset(dataset, tmp_path / "data.bin", format="binary")
        assert (tmp_path / "data.csv").read_bytes() == (
            b"id,w,J,attr:gender,attr:income,attr:wave,t0,t1,t2,t3\r\n"
            b"s0,0.1,3,f,,1995,0,1,2,0\r\n"
            b"s1,2.5,3,,,2017,2,2,1,0\r\n"
            b"s2,1.0,3,m,25k-55k,,1,0,0,1\r\n"
        )
        assert (tmp_path / "data.bin").read_bytes() == (
            b"CTS2\x03\x00\x00\x00\x04\x00\x00\x00\x03\x00\x00\x00\x8a\x00\x00\x00\x00\x00\x00\x00"
            b"\x00\x01\x02\x00\x02\x02\x01\x00\x01\x00\x00\x01"
            b"\x9a\x99\x99\x99\x99\x99\xb9?\x00\x00\x00\x00\x00\x00\x04@\x00\x00\x00\x00\x00\x00\xf0?"
            b'{"ids": ["s0", "s1", "s2"], "attributes": {"gender": ["f", null, "m"], '
            b'"income": [null, null, "25k-55k"], "wave": ["1995", "2017", null]}}'
        )


class TestSyntheticGeneration:
    def test_workday_template_at_length_eight(self):
        assert list(archetype_template("C3", 8)) == [0, 0, 1, 2, 2, 2, 1, 0]

    def test_zero_noise_returns_templates(self):
        ds = generate_synthetic(1, 8, noise=0.0, seed=42)
        for r, truth in enumerate(ds.attributes["truth"]):
            assert np.array_equal(ds.levels[r], archetype_template(truth, 8))

    def test_home_archetype_mostly_home(self):
        tpl = archetype_template("C1", 1440)
        assert (tpl == 0).mean() > 0.7
        assert (tpl[700:960] == 2).any()  # the afternoon excursion

    def test_night_archetype_out_through_final_minute(self):
        tpl = archetype_template("C2", 1440)
        assert tpl[-1] == 2 and (tpl[720:] == 2).all()

    def test_truth_matches_nearest_template(self):
        ds = generate_synthetic(5, 64, noise=0.0, seed=1)
        templates = {arch: archetype_template(arch, 64) for arch in ARCHETYPES}
        for r, truth in enumerate(ds.attributes["truth"]):
            nearest = min(templates, key=lambda a: int((ds.levels[r] != templates[a]).sum()))
            assert nearest == truth

    def test_flip_noise_concentrates_around_templates(self):
        # per-(minute, level) proportions stay near the template indicator;
        # the 5-sigma radius accounts for the max over 1440*3*3 binomial cells
        n, t, noise = 1000, 1440, 0.05
        ds = generate_synthetic(n, t, noise=noise, seed=7)
        values = ds.levels
        bound = noise + 5 * np.sqrt(noise / n)
        flip_rates = []
        off_level_rates = []
        for ai, arch in enumerate(ARCHETYPES):
            block = values[ai * n : (ai + 1) * n]
            template = archetype_template(arch, t)
            for level in range(3):
                proportions = (block == level).mean(axis=0)
                deviation = np.abs(proportions - (template == level))
                assert deviation.max() <= bound
            flips = block != template
            flip_rates.append(flips.mean())
            # flipped minutes split evenly between the two other levels
            other = (block + 3 - template) % 3
            off_level_rates.append((other == 1).mean())
        assert np.allclose(flip_rates, noise, atol=0.002)
        assert np.allclose(off_level_rates, noise / 2, atol=0.002)

    def test_draws_in_chunks_leave_the_levels_unchanged(self, monkeypatch):
        whole = generate_synthetic(7, 16, 0.3, seed=2)
        monkeypatch.setattr(series_module, "_SYNTH_ROWS", 3)
        assert np.array_equal(generate_synthetic(7, 16, 0.3, seed=2).levels, whole.levels)

    def test_deterministic_given_seed(self):
        a = generate_synthetic(10, 32, 0.1, seed=5)
        b = generate_synthetic(10, 32, 0.1, seed=5)
        assert np.array_equal(a.levels, b.levels)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, 8, 0.0, 1)
        with pytest.raises(ValueError):
            generate_synthetic(1, 1, 0.0, 1)
        with pytest.raises(ValueError):
            generate_synthetic(1, 8, 0.5, 1)


def where_levels(n: int, t: int, noise: float, seed: int) -> np.ndarray:
    """Oracle: `generate_synthetic`'s levels by its earlier formulation, the
    same draws with np.where over every cell of each chunk."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    rows = series_module._SYNTH_ROWS
    chunks = [slice(start, min(start + rows, n)) for start in range(0, n, rows)]
    levels = np.empty((len(ARCHETYPES) * n, t), dtype=np.uint8)
    for a, arch in enumerate(ARCHETYPES):
        block = levels[a * n : (a + 1) * n]
        block[:] = archetype_template(arch, t)
        flips = np.empty((n, t), dtype=bool)
        for chunk in chunks:
            flips[chunk] = rng.random((chunk.stop - chunk.start, t)) < noise
        for chunk in chunks:
            shifts = rng.integers(1, 3, size=(chunk.stop - chunk.start, t))
            block[chunk] = np.where(flips[chunk], (block[chunk] + shifts) % 3, block[chunk])
    return levels


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(2, 1440).flatmap(lambda t: st.tuples(st.integers(1, max(1, 40000 // t)), st.just(t))),
    noise=st.floats(0.0, 0.49),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=(series_module._SYNTH_ROWS + 3, 3), noise=0.3, seed=0)  # a short last chunk
@example(size=(2 * series_module._SYNTH_ROWS + 1, 2), noise=0.49, seed=1)
@example(size=(5, 1440), noise=0.0, seed=2)
def test_synthetic_levels_equal_the_where_oracle(size, noise, seed):
    n, t = size
    assert generate_synthetic(n, t, noise, seed).levels.tobytes() == where_levels(n, t, noise, seed).tobytes()


class TestShardPlan:
    def test_survey_scale_arithmetic(self):
        shards = make_shard_plan(250882, 100, seed=0)
        assert tuple(map(len, shards)) == tuple([2508] * 99 + [2590])
        assert sum(map(len, shards)) == 250882

    def test_single_shard(self):
        shards = make_shard_plan(10, 1, seed=3)
        assert tuple(map(len, shards)) == (10,)
        assert sorted(np.concatenate(shards)) == list(range(10))

    def test_remainder_goes_to_last_shard(self):
        assert tuple(map(len, make_shard_plan(7, 3, seed=0))) == (2, 2, 3)

    def test_deterministic_and_seed_sensitive(self):
        a = np.concatenate(make_shard_plan(50, 4, seed=9))
        b = np.concatenate(make_shard_plan(50, 4, seed=9))
        c = np.concatenate(make_shard_plan(50, 4, seed=10))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_order_is_a_permutation(self):
        shards = make_shard_plan(123, 7, seed=1)
        assert sorted(np.concatenate(shards)) == list(range(123))

    def test_restore_inverts_shard_concatenation(self, rng):
        shards = make_shard_plan(40, 6, seed=2)
        original = rng.normal(size=40)
        concatenated = np.concatenate([original[ix] for ix in shards])
        restored = np.empty_like(concatenated)
        restored[np.concatenate(shards)] = concatenated
        assert np.array_equal(restored, original)

    @pytest.mark.parametrize("n, s, seed", [(1, 1, 0), (7, 3, 0), (40, 6, 2), (250882, 100, 0)])
    def test_shards_concatenate_to_the_pcg64_permutation(self, n, s, seed):
        shards = make_shard_plan(n, s, seed)
        expected = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))).permutation(n)
        assert len(shards) == s and all(ix.dtype == np.int64 for ix in shards)
        assert np.array_equal(np.concatenate(shards), expected)

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            make_shard_plan(5, 6, seed=0)
        with pytest.raises(ValueError):
            make_shard_plan(5, 0, seed=0)
