"""The 2-D tree grower against the per-feature reference it replaced.

Every check is exact: the same nodes in the same order, bitwise-equal
thresholds and leaf values, and bitwise-equal `predict` output.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_trees as ref
from fairfix.model_zoo import _trees
from fairfix.model_zoo._boosting import GradientBoostingModel
from fairfix.model_zoo._trees import (
    ClassificationTree,
    RandomForestModel,
    RegressionTree,
)

SETTINGS = settings(max_examples=150, deadline=None)
# values per scoring pass: one feature at a time, a few, or the default
PASS_VALUES = st.sampled_from([1, 40, _trees._PASS_VALUES])


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


def assert_same_tree(new, old, X):
    structure = old.structure()
    assert new.feature.tolist() == [f for f, _, _ in structure]
    assert new.threshold.tobytes() == np.array([t for _, t, _ in structure]).tobytes()
    assert new.value.tobytes() == np.array([v for _, _, v in structure]).tobytes()
    P = probe_rows(X)
    a, b = new.predict(P), old.predict(P)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@SETTINGS
@given(
    X=tie_heavy_matrix(),
    data=st.data(),
    max_depth=st.integers(1, 6),
    min_leaf=st.integers(1, 4),
    criterion=st.sampled_from(["gini", "entropy"]),
    pass_values=PASS_VALUES,
)
def test_classification_tree_matches_reference(
    X, data, max_depth, min_leaf, criterion, pass_values
):
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X))))
    with mock.patch.object(_trees, "_PASS_VALUES", pass_values):
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
    pass_values=PASS_VALUES,
)
def test_regression_tree_matches_reference(
    X, data, max_depth, min_leaf, target, pass_values
):
    n = len(X)
    if target == "integer":
        values = st.integers(-3, 3).map(float)
    elif target == "float":
        values = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    else:
        # overflowing squares and infinities give inf and NaN scores
        values = st.sampled_from([0.0, 1.0, -2.5, 1e200, -1e200, np.inf, -np.inf])
    y = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
    with np.errstate(all="ignore"), mock.patch.object(_trees, "_PASS_VALUES", pass_values):
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
    # the per-node feature draws consumed the same stream
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
    for a, b in zip(new.trees, old.trees, strict=True):
        assert_same_tree(a, b, X)
    P = probe_rows(X)
    assert np.array_equal(new.predict(P), old.predict(P))


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


def test_nodes_see_ascending_rows_and_the_reference_scores():
    """Every node's rows arrive in ascending order, so a stable sort breaks
    value ties by row as the reference does, and every scoring pass that
    fit runs gives each feature the reference's scores bit for bit."""
    rng = np.random.default_rng(3)
    X = rng.integers(0, 4, size=(300, 4)).astype(np.float64)
    X[:, 3] = rng.normal(size=300)
    y = rng.normal(size=300) * 1e3
    nodes, passes = [], []
    real_split, real_scores = _trees._best_split, _trees._cut_scores

    def split_spy(matrix, target, rows, *rest):
        nodes.append(rows.copy())
        return real_split(matrix, target, rows, *rest)

    def scores_spy(V, T, *rest):
        scores = real_scores(V, T, *rest)
        passes.append((V.copy(), T.copy(), scores))
        return scores

    with mock.patch.multiple(_trees, _best_split=split_spy, _cut_scores=scores_spy):
        RegressionTree(6, 2).fit(X, y)
    # one pass per node: four features of at most 300 rows fit in a pass
    assert len(nodes) > 10 and len(passes) == len(nodes)
    for rows, (V, T, scores) in zip(nodes, passes):
        assert np.all(np.diff(rows) > 0)
        for r in range(len(V)):
            order = rows[np.argsort(X[rows, r], kind="stable")]
            assert V[r].tobytes() == X[order, r].tobytes()
            assert T[r].tobytes() == y[order].tobytes()
            want, valid = ref._child_impurity(T[r].copy(), V.shape[1], 2, "variance")
            valid &= V[r, 1:] != V[r, :-1]
            assert np.where(valid, want, np.inf).tobytes() == scores[r].tobytes()


def test_single_leaf_tree_predicts_everywhere():
    X = np.zeros((5, 2))
    tree = RegressionTree(4, 1).fit(X, np.arange(5.0))
    assert tree.depth == 0 and tree.feature.tolist() == [-1]
    assert tree.predict(np.ones((3, 2))).tolist() == [2.0, 2.0, 2.0]
