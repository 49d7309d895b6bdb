"""The components as they were before they mapped layouts: dense
statistics of the whole training matrix, and transforms of dense
matrices.

Test-only. `test_components_reference.py` checks the package's layout
path against it, bit for bit: its dense results, their memory order and
its statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fairfix.model_zoo import ComponentKind, top_k_count


@dataclass
class FittedComponent:
    kind: ComponentKind
    shift: np.ndarray = None
    scale: np.ndarray = None
    keep: np.ndarray = None

    def apply(self, X: np.ndarray) -> np.ndarray:
        if self.kind in (ComponentKind.STANDARDIZE, ComponentKind.MINMAX):
            out = X - self.shift
            out /= self.scale
            return out
        if self.kind is ComponentKind.VARIANCE_TOPK:
            return X[:, self.keep]
        return X


def fit_component(kind: ComponentKind, X: np.ndarray, y: np.ndarray, f_pre: int):
    """(component, X_train, y_train), as the dense fit gave them."""
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
        order = np.argsort(-X.var(0), kind="stable")[:k]
        fc = FittedComponent(kind, keep=np.sort(order))
        return fc, fc.apply(X), y
    if kind is ComponentKind.REBALANCE:
        fc = FittedComponent(kind)
        ones = int((y == 1).sum())
        zeros = len(y) - ones
        if ones == zeros or ones == 0 or zeros == 0:
            return fc, X, y
        minority = 1 if ones < zeros else 0
        extra = np.resize(np.flatnonzero(y == minority), abs(ones - zeros))
        return fc, np.vstack([X, X[extra]]), np.concatenate([y, y[extra]])
    raise ValueError(f"unknown component {kind!r}")
