"""Preprocessing components paired with classifiers inside a pipeline.

All fitting happens on the training matrix only. Rebalance changes the
training rows (duplicating the minority class); at inference time it, like
None, leaves the matrix untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._spaces import ComponentKind


@dataclass
class FittedComponent:
    kind: ComponentKind
    shift: np.ndarray = None  # Standardize: mean, MinMax: min
    scale: np.ndarray = None  # Standardize: std, MinMax: max - min; never 0
    keep: np.ndarray = None

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Inference-time transform; row count is always preserved."""
        if self.kind in (ComponentKind.STANDARDIZE, ComponentKind.MINMAX):
            out = X - self.shift
            out /= self.scale  # in place: one full-size array, not two
            return out
        if self.kind is ComponentKind.VARIANCE_TOPK:
            return X[:, self.keep]
        return X  # NONE and REBALANCE


def top_k_count(f_pre: int) -> int:
    """How many encoded columns VarianceTopK keeps for f pre-expansion features."""
    return min(f_pre, max(2, math.ceil(f_pre / 2)))


def fit_component(kind: ComponentKind, X: np.ndarray, y: np.ndarray, f_pre: int):
    """Fit on the training matrix; returns (component, X_train, y_train)."""
    if kind is ComponentKind.NONE:
        return FittedComponent(kind), X, y
    if kind in (ComponentKind.STANDARDIZE, ComponentKind.MINMAX):
        if kind is ComponentKind.STANDARDIZE:
            shift, scale = X.mean(0), X.std(0)
        else:
            shift = X.min(0)
            scale = X.max(0) - shift
        fc = FittedComponent(kind, shift, np.where(scale == 0.0, 1.0, scale))
        return fc, fc.apply(X), y
    if kind is ComponentKind.VARIANCE_TOPK:
        k = min(top_k_count(f_pre), X.shape[1])
        var = X.var(0)
        # highest variance first, ties to the lower column index
        order = np.argsort(-var, kind="stable")[:k]
        keep = np.sort(order)
        fc = FittedComponent(kind, keep=keep)
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
        X2 = np.vstack([X, X[extra]])
        y2 = np.concatenate([y, y[extra]])
        return fc, X2, y2
    raise ValueError(f"unknown component {kind!r}")
