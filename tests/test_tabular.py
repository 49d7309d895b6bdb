"""CSV ingestion, encoding, characteristics, and split tests."""

import csv
import hashlib
import io
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tabular
from fairfix import tabular
from fairfix.synth import biased_dataset
from fairfix.tabular import (
    DataError,
    Dataset,
    DegenerateSplit,
    EmptyAfterCleaning,
    MissingColumn,
    Schema,
    SingleClassLabel,
    SingleGroupProtected,
    characteristics,
    encode,
    load_csv,
    split,
)

TOY = """income,age,city,sex
>50K,39,york,female
<=50K,50,leeds,male
>50K,28,york,female
<=50K,41,york,male
"""

TOY_SCHEMA = Schema(
    label="income",
    favorable=">50K",
    protected="sex",
    unprivileged="female",
)


def write_toy(tmp_path, text=TOY):
    p = tmp_path / "toy.csv"
    p.write_text(text)
    return p


def test_load_csv_labels_and_groups(tmp_path):
    ds = load_csv(write_toy(tmp_path), TOY_SCHEMA)
    assert ds.y.tolist() == [1, 0, 1, 0]
    assert ds.z.tolist() == [0, 1, 0, 1]
    assert ds.feature_names == ("age", "city")
    assert characteristics(ds) == (4, 2)


def test_a_utf8_bom_is_not_part_of_the_first_header_name(tmp_path):
    # the label is the first column, so a BOM left in its name would make
    # the label column missing
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbf" + TOY.encode("utf-8"))
    ds = load_csv(p, TOY_SCHEMA)
    assert ds.y.tolist() == [1, 0, 1, 0]
    assert ds.feature_names == ("age", "city")
    assert ds.digest() == reference_tabular.load_csv(p, TOY_SCHEMA).digest()


def test_schema_from_json(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(
        json.dumps(
            {
                "label": "income",
                "favorable": ">50K",
                "protected": "sex",
                "unprivileged": "female",
                "drop": ["city"],
                "categorical": ["age"],
            }
        )
    )
    s = Schema.from_json(p)
    assert s.drop == ("city",)
    assert s.categorical == ("age",)
    ds = load_csv(write_toy(tmp_path), s)
    assert ds.feature_names == ("age",)
    assert characteristics(ds) == (4, 1)


def test_missing_column(tmp_path):
    bad = Schema(label="wage", favorable="1", protected="sex", unprivileged="female")
    with pytest.raises(MissingColumn):
        load_csv(write_toy(tmp_path), bad)


def test_single_group_protected(tmp_path):
    text = TOY.replace(",male", ",female")
    with pytest.raises(SingleGroupProtected):
        load_csv(write_toy(tmp_path, text), TOY_SCHEMA)


def test_single_class_label(tmp_path):
    text = TOY.replace("<=50K", ">50K")
    with pytest.raises(SingleClassLabel):
        load_csv(write_toy(tmp_path, text), TOY_SCHEMA)


def test_missing_cells_drop_rows(tmp_path):
    text = "income,age,city,sex\n>50K,39,york,female\n<=50K,,leeds,male\n>50K,28,,female\n<=50K,41,york,male\n"
    ds = load_csv(write_toy(tmp_path, text), TOY_SCHEMA)
    assert len(ds.y) == 2
    assert ds.provenance["dropped_rows"] == 2


def test_empty_after_cleaning(tmp_path):
    text = "income,age,city,sex\n>50K,,york,female\n<=50K,,leeds,male\n"
    with pytest.raises(EmptyAfterCleaning):
        load_csv(write_toy(tmp_path, text), TOY_SCHEMA)


def test_characteristics_row_order_invariant(tmp_path):
    lines = TOY.strip().split("\n")
    shuffled = "\n".join([lines[0]] + lines[:0:-1]) + "\n"
    a = characteristics(load_csv(write_toy(tmp_path, TOY), TOY_SCHEMA))
    b = characteristics(load_csv(write_toy(tmp_path, shuffled), TOY_SCHEMA))
    assert a == b


def make_dataset(n, seed=0, f=3):
    """Synthetic all-numeric dataset with both classes and groups."""
    rng = np.random.default_rng(seed)
    cells = rng.normal(size=(n, f)).astype(str)
    y = rng.integers(0, 2, n)
    z = rng.integers(0, 2, n)
    # pin one row of each class/group combination so invariants hold
    y[:4] = [0, 0, 1, 1]
    z[:4] = [0, 1, 0, 1]
    return Dataset(
        feature_names=tuple(f"x{i}" for i in range(f)),
        cells=cells,
        y=y,
        z=z,
        provenance={"source": "synthetic"},
    )


def test_split_cardinality_and_partition():
    ds = make_dataset(10)
    train, val = split(ds, 0.7, seed=1)
    assert len(train.y) == 7
    assert len(val.y) == 3
    ids = sorted(train.cells[:, 0].tolist() + val.cells[:, 0].tolist())
    assert ids == sorted(ds.cells[:, 0].tolist())


def test_split_deterministic():
    ds = make_dataset(50)
    a = split(ds, 0.7, seed=9)
    b = split(ds, 0.7, seed=9)
    assert a[0].y.tolist() == b[0].y.tolist()
    assert a[0].cells.tolist() == b[0].cells.tolist()
    c = split(ds, 0.7, seed=10)
    assert a[0].cells.tolist() != c[0].cells.tolist()


def test_split_partitions_for_many_seeds():
    ds = make_dataset(100)
    whole = sorted(map(tuple, ds.cells.tolist()))
    for seed in range(20):
        train, val = split(ds, 0.7, seed=seed)
        got = sorted(map(tuple, train.cells.tolist() + val.cells.tolist()))
        assert got == whole
        for part in (train, val):
            assert set(part.y.tolist()) == {0, 1}
            assert set(part.z.tolist()) == {0, 1}


def test_split_sides_keep_both_classes_or_raise():
    # 4 rows, one per (y,z) combo: a 50/50 split must place one class per side
    # sometimes; the re-draw loop has to find a valid draw or give up cleanly.
    ds = make_dataset(4)
    try:
        train, val = split(ds, 0.5, seed=3)
    except DegenerateSplit:
        return
    for part in (train, val):
        assert set(part.y.tolist()) == {0, 1}
        assert set(part.z.tolist()) == {0, 1}


def test_degenerate_split_raises():
    # both classes present but class 1 appears once: a 0.5 split cannot give
    # both sides a class-1 row
    ds = make_dataset(6)
    y = ds.y.copy()
    y[:] = 0
    y[0] = 1
    ds2 = Dataset(ds.feature_names, ds.cells, y, ds.z, ds.provenance)
    with pytest.raises(DegenerateSplit):
        split(ds2, 0.5, seed=0)


def test_encode_one_hot_first_appearance(tmp_path):
    text = "income,city,sex\n>50K,york,female\n<=50K,leeds,male\n>50K,york,female\n<=50K,paris,male\n"
    ds = load_csv(write_toy(tmp_path, text), TOY_SCHEMA)
    fm = encode(ds)
    assert fm.encoder.categories == {"city": ("york", "leeds", "paris")}
    assert fm.layout.fill().tolist() == [
        [1, 0, 0],
        [0, 1, 0],
        [1, 0, 0],
        [0, 0, 1],
    ]


def test_encode_numeric_passthrough():
    ds = make_dataset(8)
    fm = encode(ds)
    assert fm.layout.fill().shape == (8, 3)
    assert fm.layout.fill().tolist() == [[float(v) for v in row] for row in ds.cells]
    # idempotence: encoding the numeric matrix again changes nothing
    assert encode(ds).layout.fill().tolist() == fm.layout.fill().tolist()


def test_encode_mixed_width(tmp_path):
    text = (
        "income,a,b,city,sex\n"
        ">50K,1,2.5,york,female\n"
        "<=50K,2,3.5,leeds,male\n"
        ">50K,3,4.5,paris,female\n"
    )
    ds = load_csv(write_toy(tmp_path, text), TOY_SCHEMA)
    fm = encode(ds)
    assert fm.layout.fill().shape == (3, 5)  # 2 numeric + 3 one-hot


def test_unseen_category_maps_to_zero_block(tmp_path):
    text = "income,city,sex\n>50K,york,female\n<=50K,leeds,male\n>50K,york,female\n<=50K,leeds,male\n"
    ds = load_csv(write_toy(tmp_path, text), TOY_SCHEMA)
    fm = encode(ds)
    probe = Dataset(
        ds.feature_names,
        np.array([["tokyo"]], dtype=object),
        np.array([1]),
        np.array([0]),
        {"source": "probe"},
        allow_degenerate=True,
    )
    out = fm.encoder.transform(probe)
    assert out.fill().tolist() == [[0.0, 0.0]]


def test_categorical_override_forces_one_hot(tmp_path):
    text = "income,a,sex\n>50K,1,female\n<=50K,2,male\n>50K,1,female\n"
    schema = Schema(
        label="income",
        favorable=">50K",
        protected="sex",
        unprivileged="female",
        categorical=("a",),
    )
    ds = load_csv(write_toy(tmp_path, text), schema)
    fm = encode(ds)
    assert fm.encoder.categories == {"a": ("1", "2")}


def mixed_split():
    """A 300-row train split and a 100-row val split with numeric, one-hot
    and forced one-hot columns. Val holds categories train never saw, and
    numeric cells that do not parse or are not finite."""
    rng = np.random.default_rng(5)

    def side(n, cities, bad):
        age = [repr(round(float(v), 3)) for v in rng.normal(40, 12, n)]
        age[: len(bad)] = bad
        cols = [
            age,
            [str(int(v)) for v in rng.integers(10, 60, n)],
            [cities[int(i)] for i in rng.integers(0, len(cities), n)],
            [str(int(v)) for v in rng.integers(1, 4, n)],
            [f"job{int(v)}" for v in rng.integers(0, 20 if bad else 15, n)],
        ]
        return Dataset(
            ("age", "hours", "city", "grade", "job"),
            np.array(cols, dtype=object).T,
            rng.integers(0, 2, n),
            rng.integers(0, 2, n),
            {"source": "mixed"},
            categorical_override=("grade",),
        )

    train = side(300, ("york", "leeds", "hull"), [])
    val = side(100, ("york", "leeds", "hull", "bath"), ["n/a", "inf", "-nan", ""])
    return train, val


def test_digests_and_encoded_bytes_are_pinned():
    # values taken before the encoder filled one preallocated matrix
    train, val = mixed_split()
    fm = encode(train)
    out = fm.encoder.transform(val)
    assert fm.encoder.kinds == ("numeric", "numeric", "categorical", "categorical", "categorical")
    assert fm.layout.fill().shape == (300, 23) and out.shape == (100, 23)
    assert fm.layout.fill().dtype == out.fill().dtype == np.float64
    assert fm.layout.fill().flags.c_contiguous and out.fill().flags.c_contiguous
    sha = lambda a: hashlib.sha256(a.tobytes()).hexdigest()[:16]  # noqa: E731
    assert (train.digest(), val.digest()) == ("306df09a24e15056", "864ec3e83b9d6a1f")
    assert (sha(fm.layout.fill()), sha(out.fill())) == ("d272656e105e9866", "8a891d562b5b32be")


def one_shot_digest(ds):
    """Dataset.digest with every row in one string: the oracle of the hash
    that takes rows a block at a time."""
    h = hashlib.sha256()
    h.update(repr(ds.provenance.get("source", "")).encode())
    h.update(repr(ds.feature_names).encode())
    h.update(ds.y.tobytes())
    h.update(ds.z.tobytes())
    rows = "".join("\x1f".join(row) + "\x1e" for row in ds.cells.tolist())
    h.update(rows.encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("rows", [
    1, tabular._DIGEST_ROWS - 1, tabular._DIGEST_ROWS, 3 * tabular._DIGEST_ROWS + 17,
])
def test_digest_of_blocks_of_rows_is_the_one_shot_digest(rows):
    base = biased_dataset(max(rows, 4), 0.3, seed=rows)
    rng = np.random.default_rng(rows)
    words = np.array(["york", "zürich", "東京", "", "a\x1fb"], dtype=object)
    cells = np.column_stack([base.cells, rng.choice(words, len(base.y))])[:rows]
    ds = Dataset(("x1", "x2", "city"), cells, base.y[:rows], base.z[:rows],
                 {"source": "blocks"}, allow_degenerate=True)
    assert ds.digest() == one_shot_digest(ds)


# ---------------------------------------------------------------------------
# the streaming loader against the list-of-rows oracle

CELLS = st.sampled_from([
    "", " ", "0", "1", " 1 ", "1.5", "x", "x,y", 'say "hi"', "two\nlines",
    "cr\rend", "\xa0pad\t", "-inf", "NA",
])
LABELS = st.sampled_from(["1", "0", " 1 ", "", "yes"])
GROUPS = st.sampled_from(["0", "1", "0 ", " ", "m"])
PADS = st.sampled_from(["", "", " ", "\t", "\xa0"])
HEADER_NAMES = st.sampled_from(["y", "g", "a", "b", "d", " y", "a\t", "\ufeffb"])


@st.composite
def csv_texts(draw):
    """CSV texts with quoted commas, quotes and line breaks, padded cells,
    empty cells, ragged rows, blank lines and one of three line ends. The
    cells come from small pools, so values repeat across rows and columns.
    Most headers hold the schema's columns, padded and in any order."""
    if draw(st.integers(0, 4)):
        names = draw(st.lists(st.sampled_from(["b", "c"]), unique=True))
        names = draw(st.permutations(["y", "g", "a", "d", *names]))
        header = [draw(PADS) + n + draw(PADS) for n in names]
    else:
        header = draw(st.lists(HEADER_NAMES, min_size=1, max_size=6))
    pools = {"y": LABELS, "g": GROUPS}
    rows = [header]
    for _ in range(draw(st.integers(0, 14))):
        row = [draw(pools.get(name.strip(), CELLS)) for name in header]
        shape = draw(st.integers(0, 9))
        if shape == 0:
            row = []  # a blank line
        elif shape == 1:
            row = row[:-1]
        elif shape == 2:
            row.append(draw(CELLS))
        rows.append(row)
    buf = io.StringIO()
    csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"]))).writerows(rows)
    return buf.getvalue()


@st.composite
def schemas(draw):
    return Schema(
        label="y",
        favorable="1",
        protected="g",
        unprivileged="0",
        drop=draw(st.sampled_from([(), ("d",)])),
        categorical=draw(st.sampled_from([(), ("a",)])),
    )


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


def loaded(load, path, schema):
    try:
        return load(path, schema)
    except Exception as e:  # compared by type with the oracle's
        return type(e)


@settings(max_examples=300, deadline=None)
@given(text=csv_texts() | st.just(""), schema=schemas())
def test_load_csv_matches_the_list_of_rows_oracle(csv_dir, text, schema):
    path = csv_dir / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    want = loaded(reference_tabular.load_csv, path, schema)
    got = loaded(load_csv, path, schema)
    if isinstance(want, type):
        assert got is want
        return
    assert isinstance(got, Dataset), got
    assert got.feature_names == want.feature_names
    assert got.cells.dtype == object and got.cells.shape == want.cells.shape
    assert got.cells.tolist() == want.cells.tolist()
    assert got.y.tobytes() == want.y.tobytes() and got.z.tobytes() == want.z.tobytes()
    assert got.provenance == want.provenance
    assert got.categorical_override == want.categorical_override
    assert got.digest() == want.digest()
    cells = got.cells.ravel().tolist()
    assert len({id(c) for c in cells}) == len(set(cells))  # one object per value


def test_load_csv_shares_one_object_per_distinct_cell(tmp_path):
    text = "income,city,town,sex\n" + ">50K,york, york,female\n<=50K,york,leeds,male\n" * 50
    ds = load_csv(write_toy(tmp_path, text), TOY_SCHEMA)
    assert ds.cells.shape == (100, 2)
    assert len({id(c) for c in ds.cells.ravel().tolist()}) == 2  # york, leeds


# ---------------------------------------------------------------------------
# numeric columns: one parse per cell, and no one-hot of a stray cell


def test_each_numeric_train_cell_is_parsed_once(monkeypatch):
    train, val = mixed_split()
    floats = tabular._floats
    parsed = []

    def spy(col):
        out = floats(col)
        if out is not None and np.shares_memory(col, train.cells):
            parsed.append(out.tolist())
        return out

    monkeypatch.setattr(tabular, "_floats", spy)
    fm = encode(train)
    fm.encoder.transform(val)
    # age and hours, parsed in fit; the train transform reuses the floats
    assert parsed == [fm.layout.fill()[:, 0].tolist(), fm.layout.fill()[:, 1].tolist()]


def test_a_fitted_encoder_holds_no_cells():
    train, _ = mixed_split()
    ds = Dataset(train.feature_names, train.cells.copy(), train.y, train.z,
                 train.provenance, train.categorical_override)
    cells = weakref.ref(ds.cells)
    enc = tabular.Encoder.fit(ds)
    del ds
    assert cells() is None
    assert enc.kinds == ("numeric", "numeric", "categorical", "categorical", "categorical")


def with_cell(ds, row, col, value):
    cells = ds.cells.copy()
    cells[row, col] = value
    return Dataset(ds.feature_names, cells, ds.y, ds.z, ds.provenance)


def test_a_stray_cell_in_a_numeric_column_is_a_data_error():
    ds = biased_dataset(2000, 0.3, seed=0)
    assert encode(ds).layout.fill().shape == (2000, 2)
    stray = with_cell(ds, 1234, 0, "NA")
    with pytest.raises(DataError, match=r"column 'x1'.*'NA'.*'drop' or 'categorical'"):
        encode(stray)
    # forced categorical, the column one-hots as the schema asks
    forced = Dataset(
        stray.feature_names, stray.cells, stray.y, stray.z, stray.provenance,
        categorical_override=("x1",),
    )
    assert encode(forced).encoder.kinds == ("categorical", "numeric")


@pytest.mark.parametrize("numbers, kind", [(2, "categorical"), (3, "error"), (4, "numeric")])
def test_a_column_errs_only_when_more_than_half_its_cells_are_numbers(numbers, kind):
    cells = np.array([[str(i)] if i < numbers else ["inf" if i % 2 else "n/a"] for i in range(4)],
                     dtype=object)
    ds = Dataset(("a",), cells, [0, 1, 0, 1], [0, 0, 1, 1], {"source": "t"})
    if kind == "error":
        with pytest.raises(DataError, match="3 of 4"):
            encode(ds)
    else:
        assert encode(ds).encoder.kinds == (kind,)
