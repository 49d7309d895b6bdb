"""Components on encoded layouts, against the dense components they
replaced (`reference_components.py`).

For every kind, the layout path's statistics and its dense results, train
and val, must equal the reference's bit for bit. A filled matrix with coded
columns is C-contiguous; one without is the numeric matrix itself, in the
reference's memory order, for BLAS sets the last bits of a product by
memory order. Statistics come from blocks of rows, each continuing the
reduction of the blocks before it; numpy reduces a C-contiguous matrix at
least two columns wide row by row but a lone column pairwise, so the
blocks are checked at each edge (below one block, exactly one, one row
past one, several) and on one-column layouts, numeric and coded. Codes are one or two bytes wide, and every map
of a layout must give what the same layout with `intp` codes gives.
Statistics that overflow fail the trial with NumericOverflow.
"""

import tracemalloc

import numpy as np
import pytest
import reference_components as ref
from test_repair_core import categorical_ds
from test_tabular import mixed_split

from fairfix.model_zoo import ComponentKind, _components
from fairfix.model_zoo._components import fit_component
from fairfix.model_zoo._linear import NumericOverflow, _Blocks
from fairfix.synth import biased_dataset
from fairfix.tabular import Coded, Dataset, Layout, encode, split


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
    column beside categoricals, 1 + 4 + 3 columns wide; one numeric column
    alone."""
    yield ("mixed", *mixed_split())
    yield ("categorical", *split(categorical_ds(1500, seed=4), 0.7, seed=0))
    one = numeric_and_categoricals(900, 3, (4, 3))
    yield ("one-numeric", *split(one, 0.7, seed=1))
    yield ("x1-only", *split(numeric_and_categoricals(400, 6, ()), 0.7, seed=3))


SPLITS = {name: (train, val) for name, train, val in splits()}


def same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got.strides == want.strides  # memory order and row length


def same_fill(X, want):
    """X's dense matrix is `want` bit for bit: C-contiguous if X has coded
    columns, else the numeric matrix itself, in `want`'s memory order."""
    same_array(X.fill(), np.array(want, order="C") if X.coded else want)


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
    rfc, RX, ry = ref.fit_component(kind, fm.layout.fill(), y, f_pre)
    fc, LX, ly = fit_component(kind, fm.layout, y, f_pre)
    same_statistics(fc, rfc)
    same_fill(LX, RX)
    same_array(ly, ry)
    same_fill(fc.apply(val_fm.layout), rfc.apply(val_fm.layout.fill()))


@pytest.mark.parametrize("name", list(SPLITS))
def test_filled_columns_and_rows_equal_the_dense_matrix(name):
    train, _ = SPLITS[name]
    X = encode(train).layout
    A = X.fill()
    rng = np.random.default_rng(0)
    cols = np.sort(rng.choice(X.shape[1], max(1, X.shape[1] // 2), replace=False))
    same_fill(X.select(cols), A[:, cols])
    rows = rng.integers(0, len(A), 50)
    same_fill(X.rows(rows), A[rows])
    same_array(X.rows(slice(7, 40)).fill(), A[7:40])


def one_column_layouts(n=700, seed=8):
    """A lone numeric column of large and small values, and a lone coded
    column whose values, as after Standardize, are not 0 and 1; numpy sums
    either pairwise, so a row-by-row sum would miss."""
    rng = np.random.default_rng(seed)
    numeric = Layout(rng.normal(size=(n, 1)) * 10.0 ** rng.integers(-3, 4, (n, 1)))
    codes = rng.integers(0, 2, n).astype(np.uint8)
    coded = Layout(np.empty((n, 0)), [Coded(0, codes, np.array([-0.31]), np.array([2.17]))])
    return {"one-numeric-column": numeric, "one-coded-column": coded}


TRAIN_LAYOUTS = {name: encode(train).layout for name, (train, _) in SPLITS.items()}
TRAIN_LAYOUTS.update(one_column_layouts())

# rows per block, from the train rows n: the edge of one block and past it
BLOCK_EDGES = {
    "below-one-block": lambda n: n + 5,
    "exactly-one-block": lambda n: n,
    "one-row-past-a-block": lambda n: n - 1,
    "several-blocks": lambda n: 7,
}
STATISTICS = [ComponentKind.STANDARDIZE, ComponentKind.MINMAX, ComponentKind.VARIANCE_TOPK]


@pytest.mark.parametrize("kind", STATISTICS)
@pytest.mark.parametrize("edge", list(BLOCK_EDGES))
@pytest.mark.parametrize("name", list(TRAIN_LAYOUTS))
def test_statistics_from_row_blocks_equal_the_reference(monkeypatch, name, edge, kind):
    X = TRAIN_LAYOUTS[name]
    n, m = X.shape
    monkeypatch.setattr(_components, "_STAT_CELLS", BLOCK_EDGES[edge](n) * m)
    y = np.arange(n) % 2
    rfc, RX, _ = ref.fit_component(kind, X.fill(), y, 2)
    fc, LX, _ = fit_component(kind, X, y, 2)
    same_statistics(fc, rfc)
    same_fill(LX, RX)


def test_the_widths_cover_one_column_layouts():
    widths = {name: X.shape[1] for name, X in TRAIN_LAYOUTS.items()}
    assert widths == {"mixed": 23, "categorical": 14, "one-numeric": 8, "x1-only": 1,
                      "one-numeric-column": 1, "one-coded-column": 1}


def test_a_numeric_only_layout_is_its_own_dense_matrix():
    numeric = np.arange(12.0).reshape(6, 2)
    X = Layout(numeric)
    assert X.fill() is numeric
    assert encode(biased_dataset(300, 0.3, seed=0)).layout.fill().flags.c_contiguous


def adult_shaped_layout(n=31_500, seed=0):
    """Two numeric columns and Adult's six categoricals (91 one-hot
    columns), codes drawn at random, one byte wide as the encoder gives."""
    rng = np.random.default_rng(seed)
    numeric = np.column_stack([rng.normal(40, 12, n), rng.normal(size=n)])
    coded, at = [], 2
    for levels in (8, 16, 7, 14, 6, 40):
        codes = rng.integers(0, levels + 1, n).astype(np.uint8)
        coded.append(Coded(at, codes, np.zeros(levels), np.ones(levels)))
        at += levels
    return Layout(numeric, coded)


# a block of 131,072 cells is 1 MB; the whole dense matrix is 23.4 MB
FIT_PEAK_BUDGET = 2_500_000  # bytes


@pytest.mark.parametrize("kind", STATISTICS)
def test_a_statistics_fit_holds_a_row_block_not_the_dense_matrix(kind):
    X = adult_shaped_layout()
    assert X.shape == (31_500, 93)
    y = np.arange(31_500) % 2
    tracemalloc.start()
    try:
        fit_component(kind, X, y, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < FIT_PEAK_BUDGET, peak


def narrow_and_wide():
    """An encoded layout with a 300-level feature (two-byte codes) and a
    three-level one whose columns start past 255, beside 20- and 30-level
    features whose joint code passes 255; and the same layout with `intp`
    codes."""
    rng = np.random.default_rng(11)
    n, levels = 1200, (20, 30, 300, 3)
    cats = [[f"l{k}" for k in rng.permutation(np.arange(n) % m)] for m in levels]
    x = [repr(float(v)) for v in rng.normal(size=n)]
    cells = np.array([x, *cats], dtype=object).T
    names = ("x", *(f"c{m}" for m in levels))
    ds = Dataset(names, cells, np.arange(n) % 2, np.arange(n) // 2 % 2, {"source": "test"})
    narrow = encode(ds).layout
    wide = Layout(narrow.numeric, [c._replace(codes=c.codes.astype(np.intp)) for c in narrow.coded])
    return narrow, wide


def test_narrow_codes_map_and_fit_as_intp_codes_do():
    narrow, wide = narrow_and_wide()
    assert [c.codes.dtype for c in narrow.coded] == [np.uint8, np.uint8, np.uint16, np.uint8]
    assert narrow.coded[-1].start == 351
    rng = np.random.default_rng(0)
    cols = np.sort(rng.choice(narrow.width, 200, replace=False))
    cols = np.union1d(cols, [350, 352])  # the 300-level feature's last, a late one
    rows = rng.integers(0, narrow.shape[0], 500)
    same_array(narrow.fill(), wide.fill())
    same_array(narrow.select(cols).fill(), wide.select(cols).fill())
    assert [c.codes.dtype for c in narrow.select(cols).coded] == [np.uint8, np.uint8, np.uint16, np.uint8]
    same_array(narrow.rows(rows).fill(), wide.rows(rows).fill())
    w, err = rng.normal(size=narrow.width), rng.normal(size=narrow.shape[0])
    n = narrow.shape[0]
    same_array(_Blocks(narrow).logits(w, 0.25, np.empty(n)), _Blocks(wide).logits(w, 0.25, np.empty(n)))
    same_array(_Blocks(narrow).gradient(err), _Blocks(wide).gradient(err))


@pytest.mark.parametrize("kind", STATISTICS)
def test_statistics_that_overflow_fail_the_trial(kind):
    # a ±1e200 column: its squared deviations overflow, so a variance does;
    # its range 2e200 does not, and MinMax fits it. At ±1e308 the range
    # overflows too.
    n = 40
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    y = np.arange(n) % 3 == 0
    for big in (1e200, 1e308):
        X = Layout(np.column_stack([np.arange(n, dtype=np.float64), big * sign]))
        if kind is ComponentKind.MINMAX and big == 1e200:
            fc, _, _ = fit_component(kind, X, y, f_pre=2)
            assert fc.scale.tolist() == [n - 1.0, 2e200]
            continue
        with pytest.raises(NumericOverflow, match=f"{kind.value} statistics overflowed"):
            fit_component(kind, X, y, f_pre=2)
