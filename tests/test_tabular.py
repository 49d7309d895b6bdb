"""CSV ingestion, encoding, characteristics, and split tests."""

import hashlib
import json

import numpy as np
import pytest

from fairfix.tabular import (
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
    assert fm.values.tolist() == [
        [1, 0, 0],
        [0, 1, 0],
        [1, 0, 0],
        [0, 0, 1],
    ]


def test_encode_numeric_passthrough():
    ds = make_dataset(8)
    fm = encode(ds)
    assert fm.values.shape == (8, 3)
    assert fm.values.tolist() == [[float(v) for v in row] for row in ds.cells]
    # idempotence: encoding the numeric matrix again changes nothing
    assert encode(ds).values.tolist() == fm.values.tolist()


def test_encode_mixed_width(tmp_path):
    text = (
        "income,a,b,city,sex\n"
        ">50K,1,2.5,york,female\n"
        "<=50K,2,3.5,leeds,male\n"
        ">50K,3,4.5,paris,female\n"
    )
    ds = load_csv(write_toy(tmp_path, text), TOY_SCHEMA)
    fm = encode(ds)
    assert fm.values.shape == (3, 5)  # 2 numeric + 3 one-hot


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
    assert out.tolist() == [[0.0, 0.0]]


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
    assert fm.values.shape == (300, 23) and out.shape == (100, 23)
    assert fm.values.dtype == out.dtype == np.float64
    assert fm.values.flags.c_contiguous and out.flags.c_contiguous
    sha = lambda a: hashlib.sha256(a.tobytes()).hexdigest()[:16]  # noqa: E731
    assert (train.digest(), val.digest()) == ("306df09a24e15056", "864ec3e83b9d6a1f")
    assert (sha(fm.values), sha(out)) == ("d272656e105e9866", "8a891d562b5b32be")
