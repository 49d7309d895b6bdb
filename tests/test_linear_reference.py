"""Logistic regression that reads one-hot blocks by code, against the dense
fit it replaced (`reference_linear.py`).

An input without blocks must give the reference's weights bit for bit. An
input with blocks must give weights within 1e-12 of the reference's,
relative to their largest magnitude, and the same predictions on held-out
rows. Learning rates stay where gradient descent is stable, since an
unstable descent magnifies any last-bit difference. A diverging fit must
fail with the reference's message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_linear import LogisticModel as ReferenceModel

from fairfix.model_zoo import ComponentKind
from fairfix.model_zoo._components import fit_component
from fairfix.model_zoo._linear import MIN_BLOCK, LogisticModel, NumericOverflow, _Blocks
from fairfix.synth import biased_dataset
from fairfix.tabular import Dataset, encode

# (kind, width, share of rows with no hot column) for one-hot parts
PARTS = st.one_of(
    st.just(("numeric", 1, 0.0)),
    st.just(("binary", 1, 0.0)),  # a 0/1 numeric column
    st.tuples(st.just("const"), st.just(1), st.sampled_from([0.0, 1.0, -2.5, 3.0])),
    st.tuples(st.just("onehot"), st.integers(1, 6), st.sampled_from([0.0, 0.0, 0.3])),
)


def build_matrix(parts, rows, seed):
    """One column or one-hot block per part. A one-hot row with no hot
    column is an unseen category; a level no row holds is a zero column."""
    rng = np.random.default_rng(seed)
    cols = []
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
            hot[seen, rng.integers(0, width, len(seen))] = 1.0
            cols.append(hot)
    return np.hstack(cols)


@st.composite
def fit_cases(draw):
    parts = draw(st.lists(PARTS, min_size=1, max_size=6))
    rows = draw(st.integers(8, 150))
    X = build_matrix(parts, rows + 25, draw(st.integers(0, 2**32 - 1)))
    y = draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows))
    params = (
        draw(st.floats(1e-3, 0.3)),
        draw(st.floats(1e-6, 1.0)),
        draw(st.integers(1, 40)),
    )
    return X[:rows], np.array(y), X[rows:], len(parts), params


def fit_both(params, X, y):
    """Both models fitted, each with the message of the NumericOverflow it raised."""
    out = []
    for cls in (ReferenceModel, LogisticModel):
        model = cls(*params)
        try:
            model.fit(X, y)
            out.append((model, None))
        except NumericOverflow as e:
            out.append((model, str(e)))
    return out


def assert_matches_reference(params, X, y, X_val):
    (ref, ref_error), (new, new_error) = fit_both(params, X, y)
    assert new_error == ref_error
    if ref_error is not None:
        return
    if _Blocks.find(X) is None:
        assert np.array_equal(new.w, ref.w)
        assert new.b == ref.b
        return
    scale = max(np.abs(ref.w).max(), abs(ref.b))
    assert np.abs(new.w - ref.w).max() <= 1e-12 * scale
    assert abs(new.b - ref.b) <= 1e-12 * scale
    assert new.predict(X_val).tobytes() == ref.predict(X_val).tobytes()


@settings(max_examples=150, deadline=None)
@given(case=fit_cases())
def test_fit_matches_the_dense_reference_after_every_component(case):
    X, y, X_val, f_pre, params = case
    for kind in ComponentKind:
        fc, Xt, yt = fit_component(kind, X, y, f_pre)
        assert_matches_reference(params, Xt, yt, fc.apply(X_val))


@settings(max_examples=40, deadline=None)
@given(case=fit_cases())
def test_a_diverging_fit_fails_with_the_reference_message(case):
    X, y, _, f_pre, _ = case
    # a numeric column keeps the first step's weights off zero, so the
    # second step's l2 term overflows them
    X = np.hstack([np.random.default_rng(0).normal(size=(len(X), 1)), X])
    for kind in ComponentKind:
        _, Xt, yt = fit_component(kind, X, y, f_pre + 1)
        (_, ref_error), (_, new_error) = fit_both((1e300, 1e10, 3), Xt, yt)
        assert ref_error == new_error == "weights overflowed during training"


def test_overflowing_logits_fail_with_the_reference_message():
    # the first step leaves every weight negative and finite; every logit
    # then sums same-signed terms past the largest float
    X = build_matrix([("const", 1, 3.0), ("onehot", 4, 0.0), ("onehot", 3, 0.0)], 60, 1)
    assert _Blocks.find(X) is not None
    (_, ref_error), (_, new_error) = fit_both((1e308, 0.0, 3), X, np.zeros(60))
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
def test_encoded_one_hot_blocks_are_found_after_every_component(kind):
    fm = encode(mixed_ds(400, seed=2))
    # x1, x2, a0-a3, b0-b1, c0-c4, d0, flag: adjacent categoricals split
    # apart, and the 2-level one is narrower than MIN_BLOCK
    assert fm.values.shape[1] == 15 and MIN_BLOCK == 3
    y = fm.y.astype(np.int64)
    fc, Xt, yt = fit_component(kind, fm.values, y, len(fm.encoder.feature_names))
    blocks = _Blocks.find(Xt)
    if kind is ComponentKind.VARIANCE_TOPK:
        assert blocks is None  # keeps 4 of 15 columns, no run of 3
    else:
        assert blocks.runs == [(2, 6), (8, 13)]
    val = encode(mixed_ds(200, seed=3), fm.encoder).values
    assert_matches_reference((0.05, 1e-3, 60), Xt, yt, fc.apply(val))


def test_a_run_the_row_sample_did_not_split_stays_dense():
    # 4,096 rows: runs are split on a sample of every 4th row. Column 3 is
    # at hi only in row 1, outside the sample, so the sample puts it in the
    # run of columns 0-2, which every row holds; the check of every row
    # then finds row 1 at hi twice and leaves that run dense
    rows = 4096
    rng = np.random.default_rng(5)
    X = np.zeros((rows, 8))
    X[np.arange(rows), rng.integers(0, 3, rows)] = 1.0
    X[np.arange(rows), 4 + rng.integers(0, 3, rows)] = 1.0
    X[1, 4:7] = 0.0
    X[1, 3] = 1.0
    X[:, 7] = rng.normal(size=rows)
    assert _Blocks.find(X).runs == [(4, 7)]
    y = (X[:, 7] + X[:, 0] > 0.5).astype(np.int64)
    assert_matches_reference((0.1, 1e-4, 30), X, y, X[:50])


def test_a_run_whose_step_overflows_stays_dense():
    # hi - lo is inf here, so no table could hold the step; the run stays
    # dense and the fit is the reference's, bit for bit
    X = build_matrix([("numeric", 1, 0.0), ("onehot", 4, 0.0)], 80, 3)
    X[:, 1:] = np.where(X[:, 1:] == 1.0, 1e308, -1e308)
    assert _Blocks.find(X) is None
    y = (X[:, 0] > 0).astype(np.int64)
    assert_matches_reference((1e-310, 0.0, 5), X, y, X[:10])
