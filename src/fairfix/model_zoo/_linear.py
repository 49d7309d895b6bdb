"""Logistic regression via deterministic full-batch gradient descent.

One-hot blocks are read by code: a block is a categorical feature of at
least MIN_BLOCK columns that the encoder held as codes (`tabular.Layout`).
Each epoch reads a block's share of `X @ w` from a table by code and its
share of `X.T @ err` from a `bincount`, so the fit never multiplies the
block's zeros; the other columns stay dense and go through BLAS. On a block
input the weights can differ from a dense fit in the last bits, as they do
from one BLAS kernel to another. A layout of numeric columns only has no
blocks. Prediction reads the blocks by code as the fit does.
"""

from __future__ import annotations

import numpy as np

from ..tabular import Layout

# Narrower features stay dense. On 31.5k rows a lone width-2 block cost
# more per epoch than its two columns kept dense, and a width-1 block
# gained nothing even beside other blocks; from width 3 no block measured
# slower (BENCH_onehot_logreg.json).
MIN_BLOCK = 3
# Most values a code shared by consecutive blocks may take, so that its
# table and bincount stay within 64 KB; larger and smaller caps measured
# slower epochs (BENCH_onehot_logreg.json).
_JOINT_CODES = 8192


class NumericOverflow(ArithmeticError):
    """Training diverged to non-finite values; the trial fails, not the process."""


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-z)) with z clipped to +-500, written to `out` if given."""
    out = np.clip(z, -500.0, 500.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


class _Blocks:
    """The one-hot blocks of a layout and its dense columns.

    `codes[k]` holds each row's code in block k: 1 + the block column it
    holds at hi, or 0 for none. Block k's share of `X @ w` is
    `lo_k @ w_k + table_k[codes[k]]`, where `table_k = [0, *step_k * w_k]`
    and `step_k = hi_k - lo_k`. Its share of `X.T @ err` is
    `lo_k * err.sum() + step_k * bincount(codes[k], err)[1:]`.

    Consecutive blocks whose codes combine into at most _JOINT_CODES values
    share one code, the mixed-radix number of their codes. They then share
    one lookup in the outer sum of their tables, and one `bincount`, whose
    sums over the other blocks' axes give each block's own.
    """

    def __init__(self, X: Layout):
        # a block whose step is not finite stays dense: no table holds it
        with np.errstate(over="ignore", invalid="ignore"):
            wide = [c for c in X.coded if len(c.lo) >= MIN_BLOCK]
            blocks = [c for c in wide if np.isfinite(c.hi - c.lo).all()]
        self.runs = [(c.start, c.start + len(c.lo)) for c in blocks]
        dense = np.ones(X.width, dtype=bool)
        for s, e in self.runs:
            dense[s:e] = False
        # without blocks every column is dense, and w and g are used whole; a
        # filled tall, narrow matrix multiplies faster in Fortran order
        self.width, self.dense = X.width, np.flatnonzero(dense) if blocks else slice(None)
        if blocks:  # C order, which a fancy-indexed numeric matrix is not
            self.X_dense = np.ascontiguousarray(X.select(self.dense).fill())
        else:
            self.X_dense = X.fill(out=np.empty(X.shape, order="F") if X.coded else None)
        self.lo = [c.lo for c in blocks]
        self.step = [c.hi - c.lo for c in blocks]
        self.tables = [np.zeros(len(c.lo) + 1) for c in blocks]
        self.groups = []  # (block indices, code sizes, joint code)
        for k, c in enumerate(blocks):
            size = len(c.lo) + 1
            if self.groups and np.prod(self.groups[-1][1]) * size <= _JOINT_CODES:
                members, sizes, code = self.groups.pop()
                self.groups.append((members + [k], sizes + [size], code * size + c.codes))
            else:
                # intp once: numpy converts a narrow index on every use
                self.groups.append(([k], [size], c.codes.astype(np.intp)))

    def logits(self, w, b, out):
        """X @ w + b, into `out`."""
        np.matmul(self.X_dense, w[self.dense], out=out)
        const = b
        for (s, e), lo, step, table in zip(self.runs, self.lo, self.step, self.tables):
            np.multiply(step, w[s:e], out=table[1:])
            const += lo @ w[s:e]
        for members, _, code in self.groups:
            joint = self.tables[members[0]]
            for k in members[1:]:
                joint = np.add.outer(joint, self.tables[k]).ravel()
            out += joint[code]
        out += const
        return out

    def gradient(self, err):
        """X.T @ err."""
        if not self.runs:
            return self.X_dense.T @ err
        g = np.empty(self.width)
        g[self.dense] = self.X_dense.T @ err
        total = err.sum()
        for members, sizes, code in self.groups:
            sums = np.bincount(code, err, minlength=int(np.prod(sizes))).reshape(sizes)
            for axis, k in enumerate(members):
                others = tuple(a for a in range(len(sizes)) if a != axis)
                s, e = self.runs[k]
                g[s:e] = self.lo[k] * total + self.step[k] * sums.sum(others)[1:]
        return g


class LogisticModel:
    def __init__(self, learning_rate, l2, epochs):
        self.learning_rate = learning_rate
        self.l2 = l2
        self.epochs = epochs
        self.w = None
        self.b = 0.0

    def fit(self, X: Layout, y):
        y = np.asarray(y, dtype=np.float64)
        n, d = X.shape
        self.w = np.zeros(d)
        self.b = 0.0
        blocks = _Blocks(X)
        z, err = np.empty(n), np.empty(n)  # reused by every epoch
        # overflow is detected and reported, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(self.epochs):
                blocks.logits(self.w, self.b, out=z)
                if not np.isfinite(z).all():
                    raise NumericOverflow("logits overflowed during training")
                sigmoid(z, out=err)
                err -= y
                gw = blocks.gradient(err)
                gw /= n
                gw += self.l2 * self.w
                gb = err.mean()
                self.w -= self.learning_rate * gw
                self.b -= self.learning_rate * gb
                if not (np.isfinite(self.w).all() and np.isfinite(self.b)):
                    raise NumericOverflow("weights overflowed during training")
        return self

    def predict(self, X: Layout):
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            z = _Blocks(X).logits(self.w, self.b, out=np.empty(X.shape[0]))
        if not np.isfinite(z).all():
            raise NumericOverflow("logits overflowed during prediction")
        return (sigmoid(z) >= 0.5).astype(np.int8)
