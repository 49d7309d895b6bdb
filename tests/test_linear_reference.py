"""Logistic regression that reads one-hot blocks by code, against the dense
fit it replaced (`reference_linear.py`).

Blocks come only from the encoder's codes (`tabular.Layout`). A plain
array, fitted as a layout of numeric columns, has none, so its 0/1 columns
stay dense and it must give the reference's weights bit for bit. A layout with blocks must give weights
within 1e-12 of the reference's, relative to their largest magnitude, and
the same predictions on held-out rows. Learning rates stay where gradient
descent is stable, since an unstable descent magnifies any last-bit
difference. A diverging fit must fail with the reference's message.
"""

import csv

import numpy as np
import pytest
import reference_components as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_linear import LogisticModel as ReferenceModel

from fairfix.metrics import MetricKind
from fairfix.model_zoo import AlgorithmKind, ComponentKind
from fairfix.model_zoo._components import fit_component
from fairfix.model_zoo._linear import MIN_BLOCK, LogisticModel, NumericOverflow, _Blocks
from fairfix.repair_core import RepairConfig, repair
from fairfix.synth import biased_dataset, fixture_schema
from fairfix.tabular import Coded, Dataset, Layout, encode, load_csv

# (kind, width, share of rows with no hot column) for one-hot parts
PARTS = st.one_of(
    st.just(("numeric", 1, 0.0)),
    st.just(("binary", 1, 0.0)),  # a 0/1 numeric column
    st.tuples(st.just("const"), st.just(1), st.sampled_from([0.0, 1.0, -2.5, 3.0])),
    st.tuples(st.just("onehot"), st.integers(1, 6), st.sampled_from([0.0, 0.0, 0.3])),
)


def build_case(parts, rows, seed):
    """(matrix, layout) with one column or one-hot block per part. A
    one-hot row with no hot column is an unseen category; a level no row
    holds is a zero column. The layout holds each one-hot part as codes."""
    rng = np.random.default_rng(seed)
    cols, numeric, coded = [], [], []
    for kind, width, share in parts:
        if kind == "numeric":
            cols.append(rng.normal(size=(rows, 1)))
        elif kind == "binary":
            cols.append(rng.integers(0, 2, (rows, 1)).astype(float))
        elif kind == "const":
            cols.append(np.full((rows, 1), share))
        else:
            hot = np.zeros((rows, width))
            seen = np.flatnonzero(rng.random(rows) >= share)
            level = rng.integers(0, width, len(seen))
            hot[seen, level] = 1.0
            codes = np.zeros(rows, dtype=np.intp)
            codes[seen] = 1 + level
            coded.append(Coded(sum(c.shape[1] for c in cols), codes, np.zeros(width), np.ones(width)))
            cols.append(hot)
            continue
        numeric.append(cols[-1])
    X = np.hstack(cols)
    layout = Layout(np.hstack(numeric) if numeric else np.empty((rows, 0)), coded)
    assert layout.fill().tobytes() == X.tobytes()
    return X, layout


@st.composite
def fit_cases(draw):
    parts = draw(st.lists(PARTS, min_size=1, max_size=6))
    rows = draw(st.integers(8, 150))
    seed = draw(st.integers(0, 2**32 - 1))
    y = draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows))
    params = (
        draw(st.floats(1e-3, 0.3)),
        draw(st.floats(1e-6, 1.0)),
        draw(st.integers(1, 40)),
    )
    return parts, rows, seed, np.array(y), params


def dense(X):
    """X's dense matrix, in the memory order the model multiplies it in
    when X has no block, for BLAS sets a product's last bits by it."""
    blocks = _Blocks(X)
    out = X.fill() if blocks.runs else blocks.X_dense
    assert np.array_equal(out, X.fill())
    return out


def fit_both(params, X, y):
    """Both models fitted on the layout X, the reference on its dense
    matrix, each with the message of the NumericOverflow it raised."""
    out = []
    for cls, inputs in ((ReferenceModel, dense(X)), (LogisticModel, X)):
        model = cls(*params)
        try:
            model.fit(inputs, y)
            out.append((model, None))
        except NumericOverflow as e:
            out.append((model, str(e)))
    return out


def assert_matches_reference(params, X, y, X_val):
    """Bit for bit unless layout X has a block, to 1e-12 if it has."""
    (ref_model, ref_error), (new, new_error) = fit_both(params, X, y)
    assert new_error == ref_error
    if ref_error is not None:
        return
    if not _Blocks(X).runs:
        assert np.array_equal(new.w, ref_model.w)
        assert new.b == ref_model.b
    else:
        scale = max(np.abs(ref_model.w).max(), abs(ref_model.b))
        assert np.abs(new.w - ref_model.w).max() <= 1e-12 * scale
        assert abs(new.b - ref_model.b) <= 1e-12 * scale
    assert new.predict(X_val).tobytes() == ref_model.predict(dense(X_val)).tobytes()


@settings(max_examples=150, deadline=None)
@given(case=fit_cases())
def test_plain_arrays_fit_bit_for_bit_after_every_component(case):
    parts, rows, seed, y, params = case
    X, _ = build_case(parts, rows + 25, seed)
    for kind in ComponentKind:
        fc, Xt, yt = ref.fit_component(kind, X[:rows], y, len(parts))
        # a plain array is a layout of numeric columns, with no block
        assert_matches_reference(params, Layout(Xt), yt, Layout(fc.apply(X[rows:])))


@settings(max_examples=150, deadline=None)
@given(case=fit_cases())
@example(
    case=([("onehot", 3, 0.0)], 12, 1, np.array([0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1]), (0.25, 1.0, 1))
).xfail(
    raises=AssertionError,
    reason="balanced labels cancel the true weights to 0: the reference gives -4.6e-18, "
    "so its largest weight is rounding noise and no scale for the tolerance",
)
def test_layouts_fit_like_the_reference_after_every_component(case):
    parts, rows, seed, y, params = case
    _, layout = build_case(parts, rows + 25, seed)
    for kind in ComponentKind:
        fc, Xt, yt = fit_component(kind, layout.rows(slice(0, rows)), y, len(parts))
        assert_matches_reference(params, Xt, yt, fc.apply(layout.rows(slice(rows, None))))


@settings(max_examples=40, deadline=None)
@given(case=fit_cases())
def test_a_diverging_fit_fails_with_the_reference_message(case):
    parts, rows, seed, y, _ = case
    # a numeric column keeps the first step's weights off zero, so the
    # second step's l2 term overflows them
    X, layout = build_case([("numeric", 1, 0.0), *parts], rows, seed)
    for kind in ComponentKind:
        _, Xt, yt = ref.fit_component(kind, X, y, len(parts) + 1)
        _, Lt, lt = fit_component(kind, layout, y, len(parts) + 1)
        for inputs, labels in ((Layout(Xt), yt), (Lt, lt)):
            (_, ref_error), (_, new_error) = fit_both((1e300, 1e10, 3), inputs, labels)
            assert ref_error == new_error == "weights overflowed during training"


def test_overflowing_logits_fail_with_the_reference_message():
    # the first step leaves every weight negative and finite; every logit
    # then sums same-signed terms past the largest float
    parts = [("const", 1, 3.0), ("onehot", 4, 0.0), ("onehot", 3, 0.0)]
    _, layout = build_case(parts, 60, 1)
    assert _Blocks(layout).runs == [(1, 5), (5, 8)]
    (_, ref_error), (_, new_error) = fit_both((1e308, 0.0, 3), layout, np.zeros(60))
    assert ref_error == new_error == "logits overflowed during training"


def mixed_ds(n, seed):
    """Two numeric columns, three categoricals of 4, 2 and 5 levels, one of
    1 level and one numeric 0/1 column."""
    base = biased_dataset(n, 0.3, seed=seed)
    rng = np.random.default_rng(seed)
    cats = [rng.choice([f"{name}{k}" for k in range(levels)], n)
            for name, levels in (("a", 4), ("b", 2), ("c", 5), ("d", 1))]
    flag = rng.integers(0, 2, n).astype(str)
    cells = np.column_stack([base.cells, *cats, flag]).astype(object)
    names = (*base.feature_names, "a", "b", "c", "d", "flag")
    return Dataset(names, cells, base.y, base.z, {"source": "test"})


@pytest.mark.parametrize("kind", list(ComponentKind))
def test_encoded_one_hot_blocks_are_kept_after_every_component(kind):
    fm = encode(mixed_ds(400, seed=2))
    # x1, x2, a0-a3, b0-b1, c0-c4, d0, flag: the 2-level categorical is
    # narrower than MIN_BLOCK, and the numeric 0/1 flag is no block
    assert fm.layout.shape[1] == 15 and MIN_BLOCK == 3
    y = fm.y.astype(np.int64)
    fc, Xt, yt = fit_component(kind, fm.layout, y, len(fm.encoder.feature_names))
    if kind is ComponentKind.VARIANCE_TOPK:
        assert _Blocks(Xt).runs == []  # keeps 4 of 15 columns, no block of 3
    else:
        assert _Blocks(Xt).runs == [(2, 6), (8, 13)]
    val = encode(mixed_ds(200, seed=3), fm.encoder).layout
    assert_matches_reference((0.05, 1e-3, 60), Xt, yt, fc.apply(val))


def test_a_plain_arrays_one_hot_columns_stay_dense():
    # columns 4-6 are one-hot and 0-2 nearly so, but a plain array holds
    # no codes: every column is dense, and the fit is the reference's
    rows = 4096
    rng = np.random.default_rng(5)
    X = np.zeros((rows, 8))
    X[np.arange(rows), rng.integers(0, 3, rows)] = 1.0
    X[np.arange(rows), 4 + rng.integers(0, 3, rows)] = 1.0
    X[1, 4:7] = 0.0
    X[1, 3] = 1.0
    X[:, 7] = rng.normal(size=rows)
    assert _Blocks(Layout(X)).runs == []
    y = (X[:, 7] + X[:, 0] > 0.5).astype(np.int64)
    assert_matches_reference((0.1, 1e-4, 30), Layout(X), y, Layout(X[:50]))


def test_a_block_whose_step_overflows_stays_dense():
    # hi - lo is inf here, so no table could hold the step; the block stays
    # dense and the fit is the reference's, bit for bit
    _, layout = build_case([("numeric", 1, 0.0), ("onehot", 4, 0.0)], 80, 3)
    (c,) = layout.coded
    wide = Layout(layout.numeric, [c._replace(lo=np.full(4, -1e308), hi=np.full(4, 1e308))])
    assert _Blocks(wide).runs == []
    y = (wide.numeric[:, 0] > 0).astype(np.int64)
    assert_matches_reference((1e-310, 0.0, 5), wide, y, wide.rows(slice(0, 10)))


# logreg on a CSV whose user one-hot encoded a 4-level column as four
# numeric 0/1 columns: they stay dense, as every numeric column does
OWN_ONE_HOT_DIGEST = "29e0b3592b286da9"


def test_a_csv_with_its_own_0_1_columns_repairs_to_its_pinned_digest(tmp_path):
    base = biased_dataset(1200, 0.3, seed=8)
    level = np.random.default_rng(8).integers(0, 4, 1200)
    path = tmp_path / "data.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["x1", "x2", "k0", "k1", "k2", "k3", "group", "outcome"])
        for i in range(1200):
            hot = ["1" if level[i] == k else "0" for k in range(4)]
            out.writerow([*base.cells[i], *hot, base.z[i], base.y[i]])
    ds = load_csv(path, fixture_schema())
    fm = encode(ds)
    assert fm.encoder.kinds == ("numeric",) * 6 and not fm.layout.coded
    cfg = RepairConfig(metric=MetricKind.EOD, trials=11, seed=3)
    log = repair(ds, AlgorithmKind.LOGISTIC_REGRESSION, cfg).log
    assert log.digest() == OWN_ONE_HOT_DIGEST
