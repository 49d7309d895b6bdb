"""The level-wise tree grower against the per-feature reference it replaced.

Every check is exact: the same nodes in the same depth-first order,
bitwise-equal thresholds and leaf values, and bitwise-equal `predict`
output.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_trees as ref
from fairfix.model_zoo import _trees
from fairfix.model_zoo._boosting import _LEAF_CLIP, GradientBoostingModel
from fairfix.model_zoo._linear import sigmoid
from fairfix.model_zoo._trees import (
    ClassificationTree,
    RandomForestModel,
    RegressionTree,
)

SETTINGS = settings(max_examples=150, deadline=None)
# cells per scoring block: one feature of one node at a time, a few, or the
# default
BLOCK_CELLS = st.sampled_from([1, 40, _trees._BLOCK_CELLS])


@st.composite
def tie_heavy_matrix(draw, max_rows=40, max_cols=5):
    """Small integer-valued columns, so most sorted neighbours tie; some
    columns are constant."""
    n = draw(st.integers(2, max_rows))
    d = draw(st.integers(1, max_cols))
    cols = []
    for _ in range(d):
        levels = draw(st.integers(1, 5))
        cols.append(draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n)))
    return np.array(cols, dtype=np.float64).T


def probe_rows(X):
    """Training rows, every threshold's neighbourhood and out-of-range points."""
    lo, hi = X.min(axis=0), X.max(axis=0)
    grid = np.arange(-1.0, X.max() + 2.0, 0.5)
    sweep = np.tile(grid[:, None], (1, X.shape[1]))
    return np.vstack([X, sweep, lo - 1.0, hi + 1.0, X[::-1]])


def structure(tree, root=0):
    """(feature, threshold, value) per node of the tree at `root`, depth
    first, left before right, as `reference_trees` lists them."""
    out, stack = [], [root]
    while stack:
        k = stack.pop()
        out.append((int(tree.feature[k]), tree.threshold[k], tree.value[k]))
        if tree.feature[k] >= 0:
            stack.extend((tree.right[k], tree.left[k]))
    return out


def assert_same_structure(got, want):
    assert [f for f, _, _ in got] == [f for f, _, _ in want]
    assert np.array([t for _, t, _ in got]).tobytes() == np.array([t for _, t, _ in want]).tobytes()
    assert np.array([v for _, _, v in got]).tobytes() == np.array([v for _, _, v in want]).tobytes()


def assert_same_tree(new, old, X, root=0):
    """`old` is tree `root` of the stacked fit `new`, bit for bit."""
    assert_same_structure(structure(new, root), old.structure())
    P = probe_rows(X)
    a, b = predict_tree(new, root, P), old.predict(P)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def predict_tree(stacked, t, X):
    """Tree t's predictions, of a fit of one or more trees."""
    return stacked.predict(X).reshape(stacked.n_trees, len(X))[t]


def forest_trees(forest):
    """(stacked fit, root) of each tree of a forest, in tree order."""
    return [(group, t) for group in forest.trees for t in range(group.n_trees)]


def fitted_trees(forest, d):
    """How many trees a forest fits on d columns: one when its trees draw
    neither rows nor features, as every tree would grow the same."""
    mf = forest._feature_count(d)
    return forest.n_trees if forest.bootstrap or (mf is not None and mf < d) else 1


def draw_targets(data, kind, n):
    if kind == "integer":
        values = st.integers(-3, 3).map(float)
    elif kind == "float":
        values = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    else:
        # overflowing squares and infinities give inf and NaN scores
        values = st.sampled_from([0.0, 1.0, -2.5, 1e200, -1e200, np.inf, -np.inf])
    return np.array(data.draw(st.lists(values, min_size=n, max_size=n)))


@SETTINGS
@given(
    X=tie_heavy_matrix(),
    data=st.data(),
    max_depth=st.integers(1, 6),
    min_leaf=st.integers(1, 4),
    criterion=st.sampled_from(["gini", "entropy"]),
    cells=BLOCK_CELLS,
)
def test_classification_tree_matches_reference(
    X, data, max_depth, min_leaf, criterion, cells
):
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X))))
    with mock.patch.object(_trees, "_BLOCK_CELLS", cells):
        new = ClassificationTree(max_depth, min_leaf, criterion).fit(X, y)
    old = ref.ClassificationTree(max_depth, min_leaf, criterion).fit(X, y)
    assert_same_tree(new, old, X)


@SETTINGS
@given(
    X=tie_heavy_matrix(),
    data=st.data(),
    max_depth=st.integers(1, 6),
    min_leaf=st.integers(1, 4),
    target=st.sampled_from(["integer", "float", "extreme"]),
    cells=BLOCK_CELLS,
)
def test_regression_tree_matches_reference(
    X, data, max_depth, min_leaf, target, cells
):
    y = draw_targets(data, target, len(X))
    with np.errstate(all="ignore"), mock.patch.object(_trees, "_BLOCK_CELLS", cells):
        new = RegressionTree(max_depth, min_leaf).fit(X, y)
        old = ref.RegressionTree(max_depth, min_leaf).fit(X, y)
    assert_same_tree(new, old, X)


@SETTINGS
@given(
    X=tie_heavy_matrix(max_cols=9),
    data=st.data(),
    max_features=st.sampled_from(["sqrt", "log2", "all"]),
    bootstrap=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_forest_matches_reference(X, data, max_features, bootstrap, seed):
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X))))
    args = (4, 5, max_features, data.draw(st.integers(1, 4)), bootstrap)
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    new = RandomForestModel(*args).fit(X, y, new_rng)
    old = ref.forest_fit(RandomForestModel(*args), X, y, old_rng)
    # the trial generator gave the trees' seeds and nothing else
    seeds_only = np.random.default_rng(seed)
    seeds_only.integers(2**63, size=4)
    assert new_rng.bit_generator.state == seeds_only.bit_generator.state
    trees = forest_trees(new)
    assert len(trees) == fitted_trees(new, X.shape[1])
    # a forest that draws nothing fits one tree, which each reference tree is
    for (group, t), b in zip(trees * (4 // len(trees)), old.trees, strict=True):
        assert_same_tree(group, b, X, root=t)
    P = probe_rows(X)
    assert new.predict(P).tobytes() == ref.forest_predict(old, P).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    X=tie_heavy_matrix(max_cols=9),
    data=st.data(),
    max_features=st.sampled_from(["sqrt", "log2", "all"]),
    bootstrap=st.booleans(),
    min_leaf=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_stacked_forest_equals_its_trees_fitted_one_at_a_time(
    X, data, max_features, bootstrap, min_leaf, seed
):
    """One stacked fit of every tree, and one fit per tree, grow the same
    forest bit for bit."""
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X))))
    args = (7, 5, max_features, min_leaf, bootstrap)
    forests = []
    for cells in (1, 1 << 30):  # a group of one tree, then of all seven
        with mock.patch.object(_trees, "_BLOCK_CELLS", cells):
            forests.append(RandomForestModel(*args).fit(X, y, np.random.default_rng(seed)))
    alone, stacked = forests
    n = fitted_trees(alone, X.shape[1])
    assert len(alone.trees) == n and len(stacked.trees) == 1 and stacked.trees[0].n_trees == n
    for (group, t), (tree, _) in zip(forest_trees(stacked), forest_trees(alone), strict=True):
        assert_same_structure(structure(group, t), structure(tree))
    P = probe_rows(X)
    assert stacked.trees[0].predict(P).tobytes() == np.array(
        [tree.predict(P) for tree in alone.trees]
    ).tobytes()
    assert stacked.predict(P).tobytes() == alone.predict(P).tobytes()


@pytest.mark.parametrize("bootstrap", [True, False])
@pytest.mark.parametrize("max_features", ["sqrt", "log2", "all"])
def test_a_forest_is_a_prefix_of_a_larger_one(max_features, bootstrap):
    """A k-tree forest is the first k trees of a 30-tree one with the same
    seed, though the 30 trees grow in groups of 13, 13 and 4."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(1000, 4))
    X[:, 2] = np.round(X[:, 2])
    y = (X[:, 0] + X[:, 2] + rng.normal(0.0, 1.0, 1000) > 0).astype(np.int8)
    args = (6, max_features, 2, bootstrap)
    full = RandomForestModel(30, *args).fit(X, y, np.random.default_rng(9))
    trees = forest_trees(full)
    # a forest that draws nothing fits one tree, which votes for all 30
    one = fitted_trees(full, 4) == 1
    assert [g.n_trees for g in full.trees] == ([1] if one else [13, 13, 4])
    P = rng.normal(size=(300, 4))
    votes = np.cumsum([predict_tree(g, t, P) for g, t in trees] * (30 // len(trees)), axis=0)
    for k in (1, 5, 12):
        part = RandomForestModel(k, *args).fit(X, y, np.random.default_rng(9))
        assert len(forest_trees(part)) == (1 if one else k)
        pairs = zip(forest_trees(part), trees[:k])
        for (group, t), (big, u) in pairs:
            assert_same_structure(structure(group, t), structure(big, u))
        assert part.predict(P).tobytes() == (2 * votes[k - 1] >= k).astype(np.int8).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    X=tie_heavy_matrix(),
    data=st.data(),
    stages=st.integers(1, 6),
    max_depth=st.integers(1, 4),
    subsample=st.sampled_from([0.5, 0.75, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_boosting_matches_reference(X, data, stages, max_depth, subsample, seed):
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X))))
    args = (stages, 0.3, max_depth, subsample)
    new = GradientBoostingModel(*args).fit(X, y, np.random.default_rng(seed))
    old = ref.boosting_fit(GradientBoostingModel(*args), X, y, np.random.default_rng(seed))
    for a, b in zip(new.trees, old.trees, strict=True):
        assert_same_tree(a, b, X)
    P = probe_rows(X)
    assert new.decision_function(P).tobytes() == old.decision_function(P).tobytes()


def test_boosting_on_continuous_data_matches_reference():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 3))
    X[:, 2] = np.round(X[:, 2])
    y = (X[:, 0] + X[:, 1] + rng.normal(0.0, 0.5, 300) > 0).astype(np.int8)
    args = (12, 0.1, 5, 0.75)
    new = GradientBoostingModel(*args).fit(X, y, np.random.default_rng(1))
    old = ref.boosting_fit(GradientBoostingModel(*args), X, y, np.random.default_rng(1))
    P = rng.normal(size=(200, 3))
    assert new.decision_function(P).tobytes() == old.decision_function(P).tobytes()


def test_boosting_clip_and_zero_hessian_guard_match_reference():
    """One 0 among nineteen 1s: stage 0's Newton step on the 0 is -20, so
    it is clipped, and later stages drive some leaf's Hessian sum below
    the 1e-12 floor."""
    X = np.arange(20.0)[:, None]
    y = np.array([1] * 19 + [0])
    args = (120, 0.5, 1, 1.0)
    new = GradientBoostingModel(*args).fit(X, y, np.random.default_rng(0))
    old = ref.boosting_fit(GradientBoostingModel(*args), X, y, np.random.default_rng(0))
    for a, b in zip(new.trees, old.trees, strict=True):
        assert_same_tree(a, b, X)
    P = probe_rows(X)
    assert new.decision_function(P).tobytes() == old.decision_function(P).tobytes()
    assert -_LEAF_CLIP in new.trees[0].value.tolist()
    # each stage's per-leaf Hessian sums, replayed on the reference trees
    F, h_min = np.full(len(y), old.f0), np.inf
    for tree in old.trees:
        prob = sigmoid(F)
        h_min = min(h_min, np.bincount(tree.apply(X), prob * (1.0 - prob)).min())
        F = F + old.learning_rate * tree.predict(X)
    assert 0.0 < h_min < 1e-12


def test_nodes_see_ascending_rows_and_the_reference_scores():
    """Every scored row of a block holds one node's rows sorted by one
    feature, equal values in ascending row order, as the reference's stable
    sort has them, and its scores are the reference's bit for bit."""
    rng = np.random.default_rng(3)
    X = rng.integers(0, 4, size=(300, 4)).astype(np.float64)
    X[:, 3] = rng.normal(size=300)
    y = rng.normal(size=300) * 1e3  # distinct, so a target names its row
    row_of = {v: r for r, v in enumerate(y.tolist())}
    blocks = []
    real_scores = _trees._cut_scores

    def scores_spy(V, T, m, *rest):
        scores = real_scores(V, T, m, *rest)
        blocks.append((V.copy(), T.copy(), m.copy(), scores))
        return scores

    with mock.patch.object(_trees, "_cut_scores", scores_spy):
        RegressionTree(6, 2).fit(X, y)
    nodes = 0
    for V, T, m, scores in blocks:
        # every feature of a node fits one block: 4 features of 300 rows
        assert V.shape[1] == X.shape[1]
        for k, size in enumerate(m.tolist()):
            nodes += 1
            node_rows = sorted(row_of[v] for v in T[k, 0, :size].tolist())
            for f in range(X.shape[1]):
                rows = np.array([row_of[v] for v in T[k, f, :size].tolist()])
                assert sorted(rows.tolist()) == node_rows
                order = np.array(node_rows)[np.argsort(X[node_rows, f], kind="stable")]
                assert rows.tolist() == order.tolist()
                assert V[k, f, :size].tobytes() == X[rows, f].tobytes()
                want, valid = ref._child_impurity(y[rows], size, 2, "variance")
                valid &= V[k, f, 1:size] != V[k, f, : size - 1]
                got = scores[k, f, : size - 1]
                assert np.where(valid, want, np.inf).tobytes() == got.tobytes()
                assert np.all(scores[k, f, size - 1 :] == np.inf)
    assert nodes > 10


@settings(max_examples=80, deadline=None)
@given(
    X=tie_heavy_matrix(max_rows=30),
    data=st.data(),
    max_depth=st.integers(1, 8),
    min_leaf=st.integers(1, 3),
    target=st.sampled_from(["integer", "float", "extreme"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_stacked_fit_equals_separate_fits(X, data, max_depth, min_leaf, target, seed):
    """Ten trees grown in one fit on stacked bootstrap draws, as the
    surrogate grows them, are the ten trees grown one at a time."""
    n = len(X)
    y = draw_targets(data, target, n)
    rng = np.random.default_rng(seed)
    idx = np.concatenate([rng.integers(0, n, n) for _ in range(10)])
    with np.errstate(all="ignore"):
        stacked = RegressionTree(max_depth, min_leaf).fit(X[idx], y[idx], trees=10)
        alone = [
            RegressionTree(max_depth, min_leaf).fit(X[part], y[part])
            for part in idx.reshape(10, n)
        ]
    P = probe_rows(X)
    preds = stacked.predict(P)
    assert preds.shape == (10, len(P))
    for t, tree in enumerate(alone):
        assert_same_structure(structure(stacked, root=t), structure(tree))
        assert preds[t].tobytes() == tree.predict(P).tobytes()


@pytest.mark.parametrize("pad", [0, _trees._PAD_CELLS, 1 << 30])
@pytest.mark.parametrize("cells", [1, 40, _trees._BLOCK_CELLS])
@pytest.mark.parametrize("kind", ["gini", "entropy", "variance"])
def test_levels_with_many_nodes_match_the_reference(cells, pad, kind):
    """Deep levels hold dozens of nodes of many sizes, which blocks pad (no
    padding, the default budget, or any) and sum one length at a time."""
    rng = np.random.default_rng(11)
    X = rng.normal(size=(400, 3))
    X[:, 1] = np.round(X[:, 1] * 2)
    if kind == "variance":
        y = rng.normal(size=400) * 10.0
        new_tree, old_tree = RegressionTree(9, 1), ref.RegressionTree(9, 1)
    else:
        y = (X[:, 0] + rng.normal(0.0, 1.0, 400) > 0).astype(np.float64)
        new_tree, old_tree = ClassificationTree(9, 1, kind), ref.ClassificationTree(9, 1, kind)
    with mock.patch.object(_trees, "_BLOCK_CELLS", cells), mock.patch.object(
        _trees, "_PAD_CELLS", pad
    ):
        new_tree.fit(X, y)
    old_tree.fit(X, y)
    assert new_tree.depth == 9 and len(new_tree.feature) > 80
    assert_same_tree(new_tree, old_tree, X)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 60),
    cols=st.integers(1, 4),
    trees=st.integers(1, 3),
    levels=st.sampled_from([2, 5, 1000]),
    seed=st.integers(0, 2**32 - 1),
)
def test_presort_is_a_stable_sort(rows, cols, trees, levels, seed):
    """Each feature's rows sorted within each tree's block, ties (including
    -0.0 against 0.0, and NaNs) in row order, then the rows ascending."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(rows * trees, cols)).astype(np.float64)
    X[rng.random(X.shape) < 0.1] = np.nan
    X[X == 0.0] = rng.choice([0.0, -0.0], size=int((X == 0.0).sum()))
    order = _trees._presort(X, trees)
    blocks = X.reshape(trees, rows, cols)
    want = [
        np.concatenate([t * rows + np.argsort(blocks[t, :, f], kind="stable") for t in range(trees)])
        for f in range(cols)
    ]
    assert order.tolist() == [w.tolist() for w in want] + [list(range(rows * trees))]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 80),
    cols=st.integers(1, 4),
    share=st.floats(0.0, 1.0),
    levels=st.sampled_from([2, 5, 1000]),
    max_depth=st.integers(1, 6),
    min_leaf=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
# a one-row matrix, and one row kept of many
@example(rows=1, cols=2, share=1.0, levels=2, max_depth=3, min_leaf=1, seed=0)
@example(rows=40, cols=3, share=0.0, levels=5, max_depth=3, min_leaf=1, seed=0)
def test_a_tree_grown_on_kept_rows_equals_one_grown_on_their_copy(
    rows, cols, share, levels, max_depth, min_leaf, seed
):
    """A boosting stage's tree: grown on the whole matrix from its presort
    kept to some rows, it is the tree grown on a copy of those rows. Ties
    (including -0.0 against 0.0, and NaNs) keep their order either way."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(rows, cols)).astype(np.float64)
    X[rng.random(X.shape) < 0.1] = np.nan
    X[X == 0.0] = rng.choice([0.0, -0.0], size=int((X == 0.0).sum()))
    target = rng.normal(size=rows)
    weight = rng.random(rows)
    taken = rng.random(rows) < share
    if not taken.any():
        taken[rng.integers(rows)] = True
    m = int(taken.sum())
    order = _trees._presort(X, 1)
    kept = order[taken[order]].reshape(len(order), m)
    got = RegressionTree(max_depth, min_leaf).fit(X, target, weight=weight, order=kept)
    want = RegressionTree(max_depth, min_leaf).fit(X[taken], target[taken], weight=weight[taken])
    for name in ("feature", "threshold", "value", "left", "right"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    P = np.vstack([probe_rows(np.nan_to_num(X)), X])
    assert got.predict(P).tobytes() == want.predict(P).tobytes()


@pytest.mark.parametrize("subsample", [0.6, 1.0])
@pytest.mark.parametrize("memory_order", ["C", "F"])
def test_every_stage_grows_on_the_models_matrix(subsample, memory_order):
    """Each stage fit gets the one C-contiguous matrix the model fits (the
    caller's own when it is one) and the presort of its m rows."""
    rng = np.random.default_rng(4)
    X = np.asarray(rng.normal(size=(150, 3)), order=memory_order)
    y = (X[:, 0] > 0).astype(np.int8)
    calls = []
    real_fit = RegressionTree.fit

    def fit_spy(tree, X, target, weight=None, order=None):
        calls.append((X, order.shape))
        return real_fit(tree, X, target, weight=weight, order=order)

    with mock.patch.object(RegressionTree, "fit", fit_spy):
        GradientBoostingModel(5, 0.3, 3, subsample).fit(X, y, np.random.default_rng(0))
    m = round(subsample * 150)
    assert len(calls) == 5
    assert all(seen is calls[0][0] and shape == (4, m) for seen, shape in calls)
    assert calls[0][0].flags.c_contiguous
    assert (calls[0][0] is X) == (memory_order == "C")


@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 300), min_size=1, max_size=40),
    rows=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    special=st.booleans(),
)
def test_row_sums_are_numpys(lengths, rows, seed, special):
    """Sums of a padded block's rows at their own lengths, against numpy
    summing each row alone."""
    n = np.array(sorted(lengths, reverse=True))
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(len(n), rows, n[0])) * 10.0 ** rng.integers(-8, 12, size=(len(n), rows, n[0]))
    if special:
        pick = rng.random(A.shape)
        A[pick < 0.1] = -0.0
        A[pick > 0.98] = rng.choice([np.inf, -np.inf, np.nan, 1e300])
    np.copyto(A, 0.0, where=np.arange(n[0]) >= n[:, None, None])
    want = np.array([[A[k, r, : n[k]].copy().sum() for r in range(rows)] for k in range(len(n))])
    with np.errstate(all="ignore"):
        got = _trees._row_sums(A, n)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(1, 300), min_size=1, max_size=40),
    arrays=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_sums_are_numpys(counts, arrays, seed):
    """Leaf sums over runs of a row order, against numpy summing each
    leaf's rows alone."""
    counts = np.array(counts)
    firsts = np.cumsum(counts) - counts
    rng = np.random.default_rng(seed)
    rows = rng.permutation(int(counts.sum()))
    vals = [rng.normal(size=len(rows)) * 10.0 ** rng.integers(-8, 12, size=len(rows)) for _ in range(arrays)]
    want = np.array([[v[rows[f : f + m]].sum() for f, m in zip(firsts, counts)] for v in vals])
    got = _trees._run_sums(vals, rows, firsts, counts)
    assert got.tobytes() == want.tobytes()


def test_single_leaf_tree_predicts_everywhere():
    X = np.zeros((5, 2))
    tree = RegressionTree(4, 1).fit(X, np.arange(5.0))
    assert tree.depth == 0 and tree.feature.tolist() == [-1]
    assert tree.predict(np.ones((3, 2))).tolist() == [2.0, 2.0, 2.0]


def test_leaves_with_zero_weight_divide_by_the_floor():
    X = np.arange(6.0)[:, None]
    t = np.array([1.0, 2.0, 0.5, -3.0, -3.0, -1.0])
    tree = RegressionTree(1, 1).fit(X, t, weight=np.zeros(6))
    leaves = tree.value[tree.feature < 0]
    assert np.isfinite(leaves).all()
    assert leaves.tolist() == [t[:3].sum() / 1e-12, t[3:].sum() / 1e-12]
