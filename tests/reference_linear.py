"""`LogisticModel` as it was before one-hot blocks were read by code: two
dense BLAS products over every column, every epoch.

Test-only. `test_linear_reference.py` checks the package's fit against
it: bit for bit on inputs without blocks, and to 1e-12 on inputs with.
"""

from __future__ import annotations

import numpy as np

from fairfix.model_zoo._linear import NumericOverflow


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


class LogisticModel:
    def __init__(self, learning_rate, l2, epochs):
        self.learning_rate = learning_rate
        self.l2 = l2
        self.epochs = epochs
        self.w = None
        self.b = 0.0

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n, d = X.shape
        self.w = np.zeros(d)
        self.b = 0.0
        # overflow is detected and reported, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(self.epochs):
                z = X @ self.w + self.b
                if not np.isfinite(z).all():
                    raise NumericOverflow("logits overflowed during training")
                p = sigmoid(z)
                err = p - y
                gw = X.T @ err / n + self.l2 * self.w
                gb = err.mean()
                self.w -= self.learning_rate * gw
                self.b -= self.learning_rate * gb
                if not (np.isfinite(self.w).all() and np.isfinite(self.b)):
                    raise NumericOverflow("weights overflowed during training")
        return self

    def predict(self, X):
        z = np.asarray(X, dtype=np.float64) @ self.w + self.b
        if not np.isfinite(z).all():
            raise NumericOverflow("logits overflowed during prediction")
        return (sigmoid(z) >= 0.5).astype(np.int8)
