"""The tree grower and gboost leaf loop as they were before the 2-D
grower: one argsort per node and feature, `_Node` objects, and Newton leaf
values set through `apply`. Nodes are grown breadth-first, level by level
and left to right; a tree that draws no features is the same in any order.
`forest_fit` grows each level in the grower's node order instead, the
order in which a forest's tree draws its per-node features.

Test-only. `test_trees_reference.py` checks the package's trees against
these bit for bit.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from fairfix.model_zoo._boosting import _LEAF_CLIP
from fairfix.model_zoo._linear import NumericOverflow, sigmoid
from fairfix.tabular import round_half_up


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value", "leaf_id")

    def __init__(self):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = 0.0
        self.leaf_id = -1

    @property
    def is_leaf(self):
        return self.left is None


def _child_impurity(ts, n, min_leaf, criterion):
    """Weighted child impurity at every cut position (cut i: left = 0..i).

    Returns (scores, valid_mask) over positions 0..n-2; the caller masks
    positions where the sorted values are equal.
    """
    ln = np.arange(1, n)
    rn = n - ln
    if criterion in ("gini", "entropy"):
        lp = np.cumsum(ts)[:-1]
        rp = ts.sum() - lp
        pl = lp / ln
        pr = rp / rn
        if criterion == "gini":
            il = 2.0 * pl * (1.0 - pl)
            ir = 2.0 * pr * (1.0 - pr)
        else:
            il = _binary_entropy(pl)
            ir = _binary_entropy(pr)
    else:  # variance
        ls = np.cumsum(ts)[:-1]
        lq = np.cumsum(ts * ts)[:-1]
        rs = ts.sum() - ls
        rq = (ts * ts).sum() - lq
        il = np.maximum(lq / ln - (ls / ln) ** 2, 0.0)
        ir = np.maximum(rq / rn - (rs / rn) ** 2, 0.0)
    scores = (ln * il + rn * ir) / n
    valid = (ln >= min_leaf) & (rn >= min_leaf)
    return scores, valid


def _binary_entropy(p):
    out = np.zeros_like(p)
    for q in (p, 1.0 - p):
        mask = q > 0
        out[mask] -= q[mask] * np.log2(q[mask])
    return out


def _best_split(X, target, idx, feats, min_leaf, criterion):
    """Best (feature, threshold) over feats for rows idx, or None.

    Ties resolve to the first feature in feats order and the first cut
    position, which keeps tree construction deterministic.
    """
    n = idx.size
    best_score = np.inf
    best = None
    for j in feats:
        v = X[idx, j]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        if vs[0] == vs[-1]:
            continue
        ts = target[idx[order]]
        scores, valid = _child_impurity(ts, n, min_leaf, criterion)
        valid &= vs[1:] != vs[:-1]
        if not valid.any():
            continue
        scores = np.where(valid, scores, np.inf)
        i = int(np.argmin(scores))
        if scores[i] < best_score:
            best_score = scores[i]
            best = (int(j), float((vs[i] + vs[i + 1]) / 2.0))
    return best


class _Tree:
    def __init__(self, max_depth, min_leaf, criterion):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.criterion = criterion
        self.root = None
        self.leaves = []
        self.n_features = 0

    def fit(self, X, target, rng=None, max_features=None):
        X = np.asarray(X, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        self.n_features = X.shape[1]
        self.leaves = []
        self.root = _Node()
        queue = deque([(self.root, np.arange(len(target)), 0)])
        while queue:
            node, idx, depth = queue.popleft()
            self._grow(node, X, target, idx, depth, rng, max_features, queue)
        return self

    def _grow(self, node, X, target, idx, depth, rng, max_features, queue):
        t = target[idx]
        if (
            depth >= self.max_depth
            or idx.size < 2 * self.min_leaf
            or t.min() == t.max()
        ):
            return self._make_leaf(node, t)
        d = X.shape[1]
        if max_features is None or max_features >= d:
            feats = range(d)
        else:
            feats = np.sort(rng.choice(d, size=max_features, replace=False))
        best = _best_split(X, target, idx, feats, self.min_leaf, self.criterion)
        if best is None:
            return self._make_leaf(node, t)
        node.feature, node.threshold = best
        mask = X[idx, node.feature] <= node.threshold
        node.left, node.right = _Node(), _Node()
        queue.append((node.left, idx[mask], depth + 1))
        queue.append((node.right, idx[~mask], depth + 1))

    def _make_leaf(self, node, t):
        node.value = self._leaf_value(t)
        node.leaf_id = len(self.leaves)
        self.leaves.append(node)
        return node

    def _walk(self, node, X, idx, out, attr):
        if node.is_leaf:
            out[idx] = getattr(node, attr)
            return
        mask = X[idx, node.feature] <= node.threshold
        self._walk(node.left, X, idx[mask], out, attr)
        self._walk(node.right, X, idx[~mask], out, attr)

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        out = np.zeros(len(X))
        self._walk(self.root, X, np.arange(len(X)), out, "value")
        return out

    def apply(self, X):
        X = np.asarray(X, dtype=np.float64)
        out = np.zeros(len(X), dtype=np.int64)
        self._walk(self.root, X, np.arange(len(X)), out, "leaf_id")
        return out

    def structure(self):
        """(feature, threshold, value) per node in depth-first order,
        left before right; leaves have feature -1."""
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append((node.feature, node.threshold, node.value))
            if not node.is_leaf:
                stack.extend((node.right, node.left))
        return out


class ClassificationTree(_Tree):
    def __init__(self, max_depth, min_leaf, criterion="gini"):
        super().__init__(max_depth, min_leaf, criterion)

    def _leaf_value(self, t):
        return 1.0 if t.mean() >= 0.5 else 0.0

    def predict(self, X):
        return super().predict(X).astype(np.int8)


class RegressionTree(_Tree):
    def __init__(self, max_depth, min_leaf):
        super().__init__(max_depth, min_leaf, "variance")

    def _leaf_value(self, t):
        return float(t.mean())


def forest_fit(model, X, y, rng):
    """`RandomForestModel.fit` with the reference trees, one at a time:
    tree t draws its bootstrap rows, then its per-node features, from a
    generator of its own, seeded by the t-th of `n_trees` seeds from `rng`."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    mf = model._feature_count(d)
    model.trees = []
    for seed in rng.integers(2**63, size=model.n_trees).tolist():
        tree_rng = np.random.default_rng(seed)
        idx = tree_rng.integers(0, n, n) if model.bootstrap else np.arange(n)
        tree = ClassificationTree(model.max_depth, model.min_leaf, "gini")
        model.trees.append(_fit_in_node_order(tree, X[idx], y[idx], tree_rng, mf))
    return model


def _fit_in_node_order(tree, X, target, rng, max_features):
    """`tree.fit`, with each level's nodes grown in the grower's node order:
    the left children of the level above's split nodes, in their order,
    before the right ones."""
    tree.n_features = X.shape[1]
    tree.leaves = []
    tree.root = _Node()
    level = [(tree.root, np.arange(len(target)), 0)]
    while level:
        children = []  # each split node's left child, then its right
        for node, idx, depth in level:
            tree._grow(node, X, target, idx, depth, rng, max_features, children)
        level = children[0::2] + children[1::2]
    return tree


def forest_predict(model, X):
    """`RandomForestModel.predict` as a vote of the reference trees."""
    votes = sum(tree.predict(X).astype(np.int64) for tree in model.trees)
    return (2 * votes >= model.n_trees).astype(np.int8)


def boosting_fit(model, X, y, rng):
    """`GradientBoostingModel.fit` with the reference trees and the leaf
    loop that set each Newton value through `apply` and a mask per leaf."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    prior = min(max(y.mean(), 1e-6), 1.0 - 1e-6)
    model.f0 = math.log(prior / (1.0 - prior))
    model.trees = []
    F = np.full(n, model.f0)
    m = max(1, round_half_up(model.subsample * n))
    for _ in range(model.stages):
        prob = sigmoid(F)
        resid = y - prob
        if model.subsample < 1.0:
            rows = np.sort(rng.choice(n, size=m, replace=False))
        else:
            rows = np.arange(n)
        tree = RegressionTree(model.max_depth, min_leaf=1)
        tree.fit(X[rows], resid[rows])
        ids = tree.apply(X[rows])
        hess = prob[rows] * (1.0 - prob[rows])
        for leaf in tree.leaves:
            mask = ids == leaf.leaf_id
            g = resid[rows][mask].sum()
            h = hess[mask].sum()
            v = g / max(h, 1e-12)
            leaf.value = float(np.clip(v, -_LEAF_CLIP, _LEAF_CLIP))
        F = F + model.learning_rate * tree.predict(X)
        if not np.isfinite(F).all():
            raise NumericOverflow("boosting scores overflowed")
        model.trees.append(tree)
    return model
