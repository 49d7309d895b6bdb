"""Brute-force k-nearest-neighbors, one block of query rows at a time.

The model keeps its training layout, not a dense copy; `predict` fills it
and the query layout for the one call. Each query row takes its k nearest
training rows with a partial sort, then orders them by distance, equal
distances by row, as a full stable sort would.
"""

from __future__ import annotations

import numpy as np

# most squared distances held at once: a block of query rows takes
# _BLOCK_VALUES // n_train rows (at least one), so its distance matrix holds
# at most 8.4 MB however many rows are queried. The block's partial sort,
# tie masks and their cumsum bring predict's peak beyond its filled
# matrices to about 3.3 times that, under 30 MB (tracemalloc: 27.3 MB for
# 400 query rows against 31,500 training rows)
_BLOCK_VALUES = 1 << 20


def _nearest(d2, k):
    """The k columns of each row of d2 that a stable argsort puts first:
    nearest first, equal distances by column. NaN sorts last."""
    rows, n = d2.shape
    kth = np.take_along_axis(d2, np.argpartition(d2, k - 1, axis=1)[:, k - 1 : k], axis=1)
    below = d2 < kth
    tied = d2 == kth
    nan = np.isnan(kth[:, 0])
    if nan.any():
        below[nan] = ~np.isnan(d2[nan])
        tied[nan] = ~below[nan]
    # of the columns at the k-th distance, the first ones by column
    tied &= np.cumsum(tied, axis=1) <= k - below.sum(axis=1, keepdims=True)
    chosen = np.flatnonzero(below | tied).reshape(rows, k) % n
    by_distance = np.argsort(np.take_along_axis(d2, chosen, axis=1), axis=1, kind="stable")
    return np.take_along_axis(chosen, by_distance, axis=1)


class KNNModel:
    def __init__(self, k, weights):
        self.k = k
        self.weights = weights  # "uniform" | "distance"
        self.X = None  # the training Layout
        self.y = None

    def fit(self, X, y):
        self.X = X
        self.y = np.asarray(y, dtype=np.float64)
        return self

    def predict(self, X):
        A = self.X.fill()
        X = X.fill()
        sq = (A * A).sum(1)
        rows = max(1, _BLOCK_VALUES // len(self.y))
        out = np.empty(len(X), dtype=np.int8)
        for start in range(0, len(X), rows):
            block = X[start : start + rows]
            out[start : start + rows] = self._vote(block, A, sq)
        return out

    def _vote(self, X, A, sq):
        k = min(self.k, len(self.y))
        d2 = (X * X).sum(1)[:, None] + sq[None, :] - 2.0 * X @ A.T
        np.maximum(d2, 0.0, out=d2)
        nbr = _nearest(d2, k)
        labels = self.y[nbr]
        if self.weights == "distance":
            d = np.sqrt(np.take_along_axis(d2, nbr, axis=1))
            w = 1.0 / np.maximum(d, 1e-12)
        else:
            w = np.ones_like(labels)
        s1 = (w * labels).sum(1)
        s0 = (w * (1.0 - labels)).sum(1)
        # ties to 1
        return s1 >= s0
