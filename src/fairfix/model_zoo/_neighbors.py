"""Brute-force k-nearest-neighbors, one block of query rows at a time."""

from __future__ import annotations

import numpy as np

# most squared distances held at once: a block of query rows takes
# _BLOCK_VALUES // n_train rows (at least one), so its distance matrix and
# argsort stay near 32 MB each however many rows are queried
_BLOCK_VALUES = 1 << 22


class KNNModel:
    def __init__(self, k, weights):
        self.k = k
        self.weights = weights  # "uniform" | "distance"
        self.X = None
        self.y = None

    def fit(self, X, y):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        sq = (self.X * self.X).sum(1)
        rows = max(1, _BLOCK_VALUES // len(self.y))
        out = np.empty(len(X), dtype=np.int8)
        for start in range(0, len(X), rows):
            block = X[start : start + rows]
            out[start : start + rows] = self._vote(block, sq)
        return out

    def _vote(self, X, sq):
        k = min(self.k, len(self.y))
        d2 = (X * X).sum(1)[:, None] + sq[None, :] - 2.0 * X @ self.X.T
        np.maximum(d2, 0.0, out=d2)
        nbr = np.argsort(d2, axis=1, kind="stable")[:, :k]
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
