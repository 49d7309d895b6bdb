"""Synthetic fixture generator sanity and round trip."""

import numpy as np
import pytest

from fairfix.metrics import MetricKind, bias_value
from fairfix.model_zoo import AlgorithmKind, default_config, predict, train
from fairfix.synth import biased_dataset, fixture_schema, write_fixture
from fairfix.tabular import Schema, encode, load_csv, split


def test_group_gap_tracks_requested_disparity():
    ds = biased_dataset(rows=4000, disparity=0.3, seed=1)
    r0 = float((ds.y[ds.z == 0] == 1).mean())
    r1 = float((ds.y[ds.z == 1] == 1).mean())
    assert r1 - r0 == pytest.approx(0.3, abs=0.05)
    flat = biased_dataset(rows=4000, disparity=0.0, seed=1)
    r0 = float((flat.y[flat.z == 0] == 1).mean())
    r1 = float((flat.y[flat.z == 1] == 1).mean())
    assert abs(r1 - r0) < 0.05


def test_default_tree_shows_repairable_bias():
    ds = biased_dataset()
    train_ds, val_ds = split(ds, 0.7, 0)
    train_fm = encode(train_ds)
    fp = train(default_config(AlgorithmKind.DECISION_TREE), train_fm, seed=0)
    yhat = predict(fp, encode(val_ds, train_fm.encoder))
    assert bias_value(MetricKind.SPD, val_ds.y, yhat, val_ds.z) >= 0.15


def test_generator_is_deterministic():
    a = biased_dataset(rows=300, seed=4)
    b = biased_dataset(rows=300, seed=4)
    c = biased_dataset(rows=300, seed=5)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_fixture_files_round_trip(tmp_path):
    data_path, schema_path = write_fixture(tmp_path, rows=250, seed=6)
    ds = load_csv(data_path, Schema.from_json(schema_path))
    mem = biased_dataset(rows=250, seed=6)
    assert ds.feature_names == mem.feature_names
    assert ds.y.tolist() == mem.y.tolist()
    assert ds.z.tolist() == mem.z.tolist()
    assert ds.cells.tolist() == mem.cells.tolist()


def test_parameter_validation():
    with pytest.raises(ValueError):
        biased_dataset(disparity=1.0)
    with pytest.raises(ValueError):
        biased_dataset(rows=2)


def test_schema_names():
    s = fixture_schema()
    assert s.label == "outcome" and s.protected == "group"
    assert s.favorable == "1" and s.unprivileged == "0"
