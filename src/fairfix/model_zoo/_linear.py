"""Logistic regression via deterministic full-batch gradient descent.

One-hot blocks are read by code. A block is a run of at least MIN_BLOCK
consecutive columns, each holding exactly two finite values lo < hi over
the training rows, with no row at hi in two columns of the run. A row's
part of a block is then one code: the column it holds at hi, or none.
The encoder's one-hot columns form blocks, and still do after
Standardize, MinMax, Rebalance or VarianceTopK. Each epoch reads a
block's share of `X @ w` from a table by code and its share of
`X.T @ err` from a `bincount`, so the fit never multiplies the block's
zeros; the other columns stay dense and go through BLAS. On a block input
the weights can differ from a dense fit in the last bits, as they do from
one BLAS kernel to another. An input without blocks runs the dense
arithmetic unchanged.
"""

from __future__ import annotations

import numpy as np

# Narrower runs stay dense. On 31.5k rows a lone width-2 block cost more
# per epoch than its two columns kept dense, and a width-1 block gained
# nothing even beside other blocks; from width 3 no block measured slower
# (BENCH_onehot_logreg.json).
MIN_BLOCK = 3
# About this many rows, spread over X, split runs of two-valued columns
# into blocks. Every row is then checked, and a run that fails stays dense.
_SAMPLE_ROWS = 1024
# Rows per float32 indicator chunk when codes are computed.
_CHUNK_ROWS = 1024
# Rows reduced side by side in a column reduction.
_FOLD = 16
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


def _reduce_rows(ufunc, A: np.ndarray, initial) -> np.ndarray:
    """`ufunc.reduce(A, axis=0)`. Where A is C-contiguous, _FOLD rows at a
    time are reduced side by side, so numpy's inner loops run _FOLD times
    as long; the result is the same."""
    n, d = A.shape
    m = n - n % _FOLD if A.flags.c_contiguous else 0
    head = ufunc.reduce(A[:m].reshape(-1, _FOLD * d), axis=0, initial=initial)
    tail = ufunc.reduce(A[m:], axis=0, initial=initial)
    return ufunc(ufunc.reduce(head.reshape(_FOLD, d), axis=0), tail)


def _two_valued(X: np.ndarray):
    """(two, lo, hi, at_hi): `two` marks the columns whose values are all lo
    or hi, with lo < hi and hi - lo finite, and `at_hi` the entries at hi.
    Rows are compared a chunk at a time, so only `at_hi` is full size."""
    n, d = X.shape
    lo = _reduce_rows(np.minimum, X, np.inf)
    hi = _reduce_rows(np.maximum, X, -np.inf)
    at_hi = np.empty((n, d), dtype=bool)
    two = np.ones(d, dtype=bool)
    for r in range(0, n, _CHUNK_ROWS):
        rows = X[r : r + _CHUNK_ROWS]
        hot = np.equal(rows, hi, out=at_hi[r : r + _CHUNK_ROWS])
        two &= _reduce_rows(np.logical_and, hot | (rows == lo), True)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf step is not a block
        two &= (lo < hi) & np.isfinite(hi - lo)
    return two, lo, hi, at_hi


def _runs(two: np.ndarray, at_hi: np.ndarray) -> list:
    """Greedy (start, end) runs of at least MIN_BLOCK two-valued columns,
    no two of which are at hi in one row of `at_hi`."""
    d = len(two)
    rows, cols = np.nonzero(at_hi & two)
    pair = rows[1:] == rows[:-1]
    # for each column, the nearest column to its left at hi in a common row
    left = np.full(d, -1)
    np.maximum.at(left, cols[1:][pair], cols[:-1][pair])
    runs, start = [], None
    for j in range(d + 1):
        if j < d and two[j] and start is not None and left[j] < start:
            continue
        if start is not None and j - start >= MIN_BLOCK:
            runs.append((start, j))
        start = j if j < d and two[j] else None
    return runs


class _Blocks:
    """The one-hot blocks of a training matrix and its dense columns.

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

    def __init__(self, X, runs, lo, hi, codes):
        dense = np.ones(X.shape[1], dtype=bool)
        for s, e in runs:
            dense[s:e] = False
        self.width = len(dense)
        self.dense = np.flatnonzero(dense)
        self.X_dense = np.ascontiguousarray(X[:, self.dense])
        self.runs = runs
        self.lo = [lo[s:e] for s, e in runs]
        self.step = [hi[s:e] - lo[s:e] for s, e in runs]
        self.tables = [np.zeros(e - s + 1) for s, e in runs]
        self.groups = []  # (block indices, code sizes, joint code)
        for k, table in enumerate(self.tables):
            size = len(table)
            if self.groups and np.prod(self.groups[-1][1]) * size <= _JOINT_CODES:
                members, sizes, code = self.groups.pop()
                self.groups.append((members + [k], sizes + [size], code * size + codes[k]))
            else:
                self.groups.append(([k], [size], codes[k]))

    @classmethod
    def find(cls, X: np.ndarray):
        """X's blocks, or None when it has none."""
        n, d = X.shape
        if n == 0 or d < MIN_BLOCK:
            return None
        # rows spread over X; a column two-valued in X has at most two
        # values here, and most numeric columns have more
        every = max(1, n // _SAMPLE_ROWS)
        sample = X[::every]
        few = ((sample == sample.min(0)) | (sample == sample.max(0))).all(0)
        if few.sum() < MIN_BLOCK:
            return None
        two, lo, hi, at_hi = _two_valued(X)
        if two.sum() < MIN_BLOCK:
            return None
        runs = _runs(two, at_hi[::every])
        if not runs:
            return None
        # each row's code in each run, 1 + the run column it holds at hi or
        # 0, and how many run columns it holds at hi. Small integers are
        # exact in float32, so BLAS counts exactly
        nb = len(runs)
        weights = np.zeros((d, 2 * nb), dtype=np.float32)
        for k, (s, e) in enumerate(runs):
            weights[s:e, k] = np.arange(1, e - s + 1)
            weights[s:e, nb + k] = 1.0
        codes = np.empty((nb, n), dtype=np.intp)
        ok = np.ones(nb, dtype=bool)  # a run the sample did not split stays dense
        for r in range(0, n, _CHUNK_ROWS):
            res = at_hi[r : r + _CHUNK_ROWS].astype(np.float32) @ weights
            codes[:, r : r + _CHUNK_ROWS] = res[:, :nb].T
            ok &= (res[:, nb:] <= 1.0).all(0)
        del at_hi
        if not ok.all():
            runs, codes = [run for run, keep in zip(runs, ok) if keep], codes[ok]
        return cls(X, runs, lo, hi, codes) if runs else None

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

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n, d = X.shape
        self.w = np.zeros(d)
        self.b = 0.0
        blocks = _Blocks.find(X)
        z, err = np.empty(n), np.empty(n)  # reused by every epoch
        # overflow is detected and reported, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(self.epochs):
                if blocks is None:
                    np.matmul(X, self.w, out=z)
                    z += self.b
                else:
                    blocks.logits(self.w, self.b, out=z)
                if not np.isfinite(z).all():
                    raise NumericOverflow("logits overflowed during training")
                sigmoid(z, out=err)
                err -= y
                gw = X.T @ err if blocks is None else blocks.gradient(err)
                gw /= n
                gw += self.l2 * self.w
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
