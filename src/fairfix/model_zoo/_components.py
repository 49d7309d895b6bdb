"""Preprocessing components paired with classifiers inside a pipeline.

Components map encoded layouts, so one-hot columns stay coded. All fitting
happens on the training layout only; its statistics are reduced from row
blocks of the dense matrix, which is never built whole. Rebalance changes
the training rows (duplicating the minority class); at inference time it,
like None, leaves the layout untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..tabular import Layout
from ._spaces import ComponentKind

_STAT_CELLS = 1 << 17  # cells per row block of component statistics


@dataclass
class FittedComponent:
    kind: ComponentKind
    shift: np.ndarray = None  # Standardize: mean, MinMax: min
    scale: np.ndarray = None  # Standardize: std, MinMax: max - min; never 0
    keep: np.ndarray = None

    def apply(self, X: Layout) -> Layout:
        """Inference-time transform; row count is always preserved."""
        if self.kind in (ComponentKind.STANDARDIZE, ComponentKind.MINMAX):
            numeric = X.numeric - self.shift[X.numeric_at]
            numeric /= self.scale[X.numeric_at]  # in place: one array, not two
            span = [slice(c.start, c.start + len(c.lo)) for c in X.coded]
            coded = [c._replace(lo=(c.lo - self.shift[s]) / self.scale[s],
                                hi=(c.hi - self.shift[s]) / self.scale[s])
                     for c, s in zip(X.coded, span)]
            return Layout(numeric, coded)
        if self.kind is ComponentKind.VARIANCE_TOPK:
            return X.select(self.keep)
        return X  # NONE and REBALANCE


def top_k_count(f_pre: int) -> int:
    """How many encoded columns VarianceTopK keeps for f pre-expansion features."""
    return min(f_pre, max(2, math.ceil(f_pre / 2)))


def _per_column(X: Layout, ufunc, center=None) -> np.ndarray:
    """`ufunc.reduce(A, axis=0)` of X's dense matrix A, or of (A - center)**2,
    bit for bit as numpy reduces A whole, from blocks of _STAT_CELLS cells.

    numpy reduces axis 0 of a C-contiguous matrix at least two columns wide
    one row at a time, so a block whose first row holds the reduction so
    far continues it exactly. It reduces a lone column pairwise, so a
    one-column matrix is one block."""
    n, m = X.shape
    step = n if m == 1 else max(1, _STAT_CELLS // m)
    buf = np.empty((min(step, n) + 1, m))  # row 0: the reduction so far
    for a in range(0, n, step):
        k = min(step, n - a)
        block = X.rows(slice(a, a + k)).fill(out=buf[1 : k + 1])
        if center is not None:
            block -= center
            np.square(block, out=block)
        buf[0] = ufunc.reduce(block if a == 0 else buf[: k + 1], axis=0)
    return buf[0].copy()


def _mean_var(X: Layout):
    """X.fill().mean(0) and X.fill().var(0), as numpy gives them."""
    mean = _per_column(X, np.add) / X.shape[0]
    return mean, _per_column(X, np.add, mean) / X.shape[0]


def fit_component(kind: ComponentKind, X: Layout, y: np.ndarray, f_pre: int):
    """Fit on the training layout; returns (component, X_train, y_train)."""
    if kind is ComponentKind.NONE:
        return FittedComponent(kind), X, y
    if kind in (ComponentKind.STANDARDIZE, ComponentKind.MINMAX):
        if kind is ComponentKind.STANDARDIZE:
            shift, var = _mean_var(X)
            scale = np.sqrt(var)
        else:
            shift = _per_column(X, np.minimum)
            scale = _per_column(X, np.maximum) - shift
        fc = FittedComponent(kind, shift, np.where(scale == 0.0, 1.0, scale))
        return fc, fc.apply(X), y
    if kind is ComponentKind.VARIANCE_TOPK:
        k = min(top_k_count(f_pre), X.shape[1])
        # highest variance first, ties to the lower column index
        order = np.argsort(-_mean_var(X)[1], kind="stable")[:k]
        fc = FittedComponent(kind, keep=np.sort(order))
        return fc, fc.apply(X), y
    if kind is ComponentKind.REBALANCE:
        fc = FittedComponent(kind)
        ones = int((y == 1).sum())
        zeros = len(y) - ones
        if ones == zeros or ones == 0 or zeros == 0:
            return fc, X, y
        minority = 1 if ones < zeros else 0
        min_idx = np.flatnonzero(y == minority)
        extra = np.resize(min_idx, abs(ones - zeros))  # cycle minority rows
        rows = np.concatenate([np.arange(len(y)), extra])
        return fc, X.rows(rows), y[rows]
    raise ValueError(f"unknown component {kind!r}")
