"""Components on encoded layouts, against the dense components they
replaced (`reference_components.py`).

For every kind, the layout path's statistics and its dense results, train
and val, must equal the reference's bit for bit, memory order included:
BLAS sets the last bits of a product by memory order. Statistics come from
chunks of columns, and numpy sums a lone column pairwise but a wider
C-contiguous chunk row by row, so inputs include widths whose last chunk
would be one column wide.
"""

import numpy as np
import pytest
import reference_components as ref
from test_repair_core import categorical_ds
from test_tabular import mixed_split

from fairfix.model_zoo import ComponentKind
from fairfix.model_zoo._components import _STAT_COLUMNS, fit_component
from fairfix.synth import biased_dataset
from fairfix.tabular import Dataset, Layout, encode, split


def numeric_and_categoricals(n, seed, levels):
    """biased_dataset's x1 alone, then one categorical per entry of `levels`."""
    base = biased_dataset(n, 0.3, seed=seed)
    rng = np.random.default_rng(seed)
    cats = [rng.choice([f"c{j}l{k}" for k in range(m)], n) for j, m in enumerate(levels)]
    cells = np.column_stack([base.cells[:, :1], *cats]).astype(object)
    names = ("x1", *(f"c{j}" for j in range(len(levels))))
    return Dataset(names, cells, base.y, base.z, {"source": "test"})


def splits():
    """(name, train, val) inputs: numeric, one-hot and forced one-hot
    columns with unseen val levels; Adult-like categoricals; one numeric
    column beside categoricals, 1 + 4 + 3 and 1 + 32 columns wide (the
    last a chunk and a lone column); one numeric column alone."""
    yield ("mixed", *mixed_split())
    yield ("categorical", *split(categorical_ds(1500, seed=4), 0.7, seed=0))
    one = numeric_and_categoricals(900, 3, (4, 3))
    yield ("one-numeric", *split(one, 0.7, seed=1))
    wide = numeric_and_categoricals(900, 5, (2 * _STAT_COLUMNS,))
    yield ("one-numeric-33", *split(wide, 0.7, seed=2))
    yield ("x1-only", *split(numeric_and_categoricals(400, 6, ()), 0.7, seed=3))


SPLITS = {name: (train, val) for name, train, val in splits()}


def same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got.strides == want.strides  # memory order and row length


def same_statistics(fc, rfc):
    for name in ("shift", "scale", "keep"):
        got, want = getattr(fc, name), getattr(rfc, name)
        assert (got is None) == (want is None), name
        if want is not None:
            same_array(got, want)


@pytest.mark.parametrize("kind", list(ComponentKind))
@pytest.mark.parametrize("name", list(SPLITS))
def test_layout_components_equal_the_dense_reference(name, kind):
    train, val = SPLITS[name]
    fm = encode(train)
    val_fm = encode(val, fm.encoder)
    y = fm.y.astype(np.int64)
    f_pre = len(fm.encoder.feature_names)
    rfc, RX, ry = ref.fit_component(kind, fm.values, y, f_pre)
    fc, LX, ly = fit_component(kind, fm.layout, y, f_pre)
    same_statistics(fc, rfc)
    same_array(LX.dense, RX)
    same_array(ly, ry)
    same_array(fc.apply(val_fm.layout).dense, rfc.apply(val_fm.values))


@pytest.mark.parametrize("name", list(SPLITS))
def test_filled_columns_and_rows_equal_the_dense_matrix(name):
    train, _ = SPLITS[name]
    X = encode(train).layout
    A = X.dense
    rng = np.random.default_rng(0)
    cols = np.sort(rng.choice(X.shape[1], max(1, X.shape[1] // 2), replace=False))
    same_array(X.fill(cols), np.ascontiguousarray(A[:, cols]))
    same_array(X.select(cols).dense, A[:, cols])
    rows = rng.integers(0, len(A), 50)
    same_array(X.rows(rows).dense, A[rows])
    same_array(X.rows(slice(7, 40)).fill(), A[7:40])


def test_the_widths_cover_the_chunk_edges():
    widths = {name: encode(train).layout.shape[1] for name, (train, _) in SPLITS.items()}
    assert widths == {"mixed": 23, "categorical": 14, "one-numeric": 8,
                      "one-numeric-33": 2 * _STAT_COLUMNS + 1, "x1-only": 1}


def test_a_numeric_only_layout_is_its_own_dense_matrix():
    numeric = np.arange(12.0).reshape(6, 2)
    X = Layout(numeric)
    assert X.dense is numeric and X.fill() is numeric
    assert encode(biased_dataset(300, 0.3, seed=0)).values.flags.c_contiguous
