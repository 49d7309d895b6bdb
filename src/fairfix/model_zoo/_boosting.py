"""Gradient boosting with logistic loss over shallow regression trees."""

from __future__ import annotations

import math

import numpy as np

from ._linear import NumericOverflow, sigmoid
from ._trees import RegressionTree, _presort
from ..tabular import round_half_up

_LEAF_CLIP = 10.0


class GradientBoostingModel:
    def __init__(self, stages, learning_rate, max_depth, subsample):
        self.stages = stages
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.f0 = 0.0
        self.trees = []

    def fit(self, X, y, rng):
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n = len(y)
        prior = min(max(y.mean(), 1e-6), 1.0 - 1e-6)
        self.f0 = math.log(prior / (1.0 - prior))
        self.trees = []
        F = np.full(n, self.f0)
        m = max(1, round_half_up(self.subsample * n))
        # X is sorted once; each stage grows on X itself, from that order
        # kept to the stage's rows, as in XGBoost's exact greedy split finding
        order = _presort(X, 1)
        for _ in range(self.stages):
            prob = sigmoid(F)
            if self.subsample < 1.0:
                taken = np.zeros(n, dtype=bool)
                taken[rng.choice(n, size=m, replace=False)] = True
                stage = order[taken[order]].reshape(len(order), m)
            else:
                stage = order.copy()
            # each leaf takes one Newton step on the logistic loss over its
            # rows: the sum of their residuals over the sum of their Hessians
            tree = RegressionTree(self.max_depth, min_leaf=1).fit(
                X, y - prob, weight=prob * (1.0 - prob), order=stage
            )
            np.clip(tree.value, -_LEAF_CLIP, _LEAF_CLIP, out=tree.value)
            F = F + self.learning_rate * tree.predict(X)
            if not np.isfinite(F).all():
                raise NumericOverflow("boosting scores overflowed")
            self.trees.append(tree)
        return self

    def decision_function(self, X):
        X = np.asarray(X, dtype=np.float64)
        F = np.full(len(X), self.f0)
        for tree in self.trees:
            F += self.learning_rate * tree.predict(X)
        return F

    def predict(self, X):
        return (sigmoid(self.decision_function(X)) >= 0.5).astype(np.int8)
