"""Blocked k-NN prediction against the full-matrix brute force it replaced.

Features are small integers, so every squared distance is exact whatever
the summation order, and ties between neighbours are common; the two must
then agree bit for bit.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fairfix.model_zoo import _neighbors
from fairfix.model_zoo._neighbors import KNNModel
from fairfix.tabular import Layout


def brute_force_predict(X_train, y_train, X, k, weights):
    """One (n_query, n_train) distance matrix, fully argsorted."""
    X_train = np.asarray(X_train, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    k = min(k, len(y_train))
    d2 = (
        (X * X).sum(1)[:, None]
        + (X_train * X_train).sum(1)[None, :]
        - 2.0 * X @ X_train.T
    )
    np.maximum(d2, 0.0, out=d2)
    nbr = np.argsort(d2, axis=1, kind="stable")[:, :k]
    labels = y_train[nbr]
    if weights == "distance":
        d = np.sqrt(np.take_along_axis(d2, nbr, axis=1))
        w = 1.0 / np.maximum(d, 1e-12)
    else:
        w = np.ones_like(labels)
    s1 = (w * labels).sum(1)
    s0 = (w * (1.0 - labels)).sum(1)
    return (s1 >= s0).astype(np.int8)


def int_matrix(rows, cols):
    return st.lists(
        st.lists(st.integers(0, 3), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda m: np.array(m, dtype=np.float64).reshape(rows, cols))


@st.composite
def knn_case(draw):
    d = draw(st.integers(1, 4))
    n_train = draw(st.integers(1, 25))
    n_query = draw(st.integers(0, 30))
    X_train = draw(int_matrix(n_train, d))
    X = draw(int_matrix(n_query, d))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n_train, max_size=n_train)))
    k = draw(st.one_of(st.just(1), st.integers(1, n_train + 3)))
    weights = draw(st.sampled_from(["uniform", "distance"]))
    # a block of one row, a few rows, or the module default
    block = draw(st.sampled_from([1, n_train, 3 * n_train, _neighbors._BLOCK_VALUES]))
    return X_train, y, X, k, weights, block


@settings(max_examples=300, deadline=None)
@given(knn_case())
def test_blocked_predict_matches_brute_force(case):
    X_train, y, X, k, weights, block = case
    expected = brute_force_predict(X_train, y, X, k, weights)
    with mock.patch.object(_neighbors, "_BLOCK_VALUES", block):
        got = KNNModel(k, weights).fit(Layout(X_train), y).predict(Layout(X))
    assert got.dtype == np.int8
    assert got.tobytes() == expected.tobytes()


def test_block_rows_follow_the_training_size():
    X_train = np.arange(40, dtype=np.float64).reshape(20, 2) % 5
    y = np.arange(20) % 2
    X = np.arange(70, dtype=np.float64).reshape(35, 2) % 4
    model = KNNModel(3, "distance").fit(Layout(X_train), y)
    blocks = []
    vote = model._vote

    def spy(block, A, sq):
        blocks.append(len(block))
        return vote(block, A, sq)

    # 100 distances per block: 5 query rows against 20 training rows
    with mock.patch.object(_neighbors, "_BLOCK_VALUES", 100), mock.patch.object(
        model, "_vote", spy
    ):
        got = model.predict(Layout(X))
    assert blocks == [5] * 7
    assert got.tobytes() == brute_force_predict(X_train, y, X, 3, "distance").tobytes()


def test_overflowing_distances_sort_last_as_in_the_brute_force():
    # squares of 1e200 overflow, so these rows' distances are NaN, which a
    # stable sort puts last, in row order
    X_train = np.array([[0.0], [1e200], [1.0], [-1e200], [2.0], [1e200]])
    y = np.array([1, 0, 1, 0, 0, 1])
    X = np.array([[0.5], [1e200], [-3.0]])
    with np.errstate(all="ignore"):
        for k in range(1, 8):
            for weights in ("uniform", "distance"):
                got = KNNModel(k, weights).fit(Layout(X_train), y).predict(Layout(X))
                want = brute_force_predict(X_train, y, X, k, weights)
                assert got.tolist() == want.tolist()
