"""CART-style trees and a bagged forest.

Splits are exact: a node scores every cut between distinct sorted values of
every candidate feature, and ties go to the first feature in candidate
order, then to the first cut. One 2-D pass sorts a node's rows by all its
candidate features at once and scores every feature and cut. A fitted tree
is a set of flat per-node arrays that `predict` walks one depth level at a
time.
"""

from __future__ import annotations

import numpy as np

# one scoring pass takes at most this many sorted values; wider nodes are
# scored a group of features at a time, which bounds their working memory
_PASS_VALUES = 1 << 16


def _binary_entropy(p):
    out = np.zeros_like(p)
    for q in (p, 1.0 - p):
        mask = q > 0
        out[mask] -= q[mask] * np.log2(q[mask])
    return out


def _cut_scores(V, T, min_leaf, criterion):
    """Weighted child impurity at every cut of every row, inf where invalid.

    V and T are (k, m): a node's values and targets sorted by each row's
    feature. Cut i puts sorted positions 0..i left; it is valid when it
    falls between distinct values and leaves min_leaf rows on each side.
    """
    m = V.shape[1]
    ln = np.arange(1, m)
    rn = m - ln
    # in-place steps keep the arithmetic of the per-feature expressions
    # il = max(lq/ln - (ls/ln)**2, 0) and scores = (ln*il + rn*ir)/m
    if criterion == "variance":
        Q = T * T
        ls = np.cumsum(T, axis=1)[:, :-1]
        lq = np.cumsum(Q, axis=1)[:, :-1]
        rs = T.sum(axis=1, keepdims=True) - ls
        rq = Q.sum(axis=1, keepdims=True) - lq
        il, ir = lq / ln, rq / rn
        ls /= ln
        rs /= rn
        il -= ls * ls
        ir -= rs * rs
        np.maximum(il, 0.0, out=il)
        np.maximum(ir, 0.0, out=ir)
    else:
        lp = np.cumsum(T, axis=1)[:, :-1]
        rp = T.sum(axis=1, keepdims=True) - lp
        pl = lp / ln
        pr = rp / rn
        if criterion == "gini":
            il = 2.0 * pl * (1.0 - pl)
            ir = 2.0 * pr * (1.0 - pr)
        else:  # entropy
            il = _binary_entropy(pl)
            ir = _binary_entropy(pr)
    il *= ln
    ir *= rn
    il += ir
    il /= m
    il[V[:, 1:] == V[:, :-1]] = np.inf
    il[:, : min_leaf - 1] = np.inf
    il[:, m - min_leaf :] = np.inf
    return il


def _best_split(X, target, rows, feats, min_leaf, criterion):
    """Best (feature, threshold) over feats for one node, or None.

    X is the C-contiguous training matrix and rows lists the node's rows in
    ascending order. A pass gathers a group of features as a (k, m) array
    and sorts each row stably, so equal values keep row order. Ties resolve
    to the first feature in feats order and the first cut position, which
    keeps tree construction deterministic.
    """
    m, d = rows.size, X.shape[1]
    step = max(1, _PASS_VALUES // m)
    best, best_score = None, np.inf
    for lo in range(0, len(feats), step):
        part = feats[lo : lo + step, None]
        # row r of order lists the node's rows sorted by feature part[r]
        order = rows[np.argsort(X.ravel()[rows * d + part], axis=1, kind="stable")]
        # the gathers are C-contiguous, so each sum along the last axis is
        # numpy's pairwise sum, bit-equal to summing one feature's 1-D slice
        V = X.ravel()[order * d + part]
        scores = _cut_scores(V, target[order], min_leaf, criterion)
        # NaN scores come only from non-finite or overflowing targets, which
        # leave no finite score in any feature: a NaN pick loses to best_score
        r, i = divmod(int(np.argmin(scores)), m - 1)
        if scores[r, i] < best_score:  # strict, so an earlier feature keeps a tie
            best_score = scores[r, i]
            best = int(part[r, 0]), float((V[r, i] + V[r, i + 1]) / 2.0)
    return best


class _Tree:
    """Shared growth/prediction machinery; subclasses set leaf values.

    Node 0 is the root and nodes are numbered depth-first, left child
    first. A leaf has feature -1 and is its own left and right child, so a
    walk that reaches it stays there.
    """

    def __init__(self, max_depth, min_leaf, criterion):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.criterion = criterion
        self.n_features = 0
        self.depth = 0
        self.feature = self.threshold = self.left = self.right = self.value = None

    def _leaf_value(self, target, rows):
        """Value of a leaf from its training rows, given in ascending order."""
        raise NotImplementedError

    def fit(self, X, target, rng=None, max_features=None):
        """Grow the tree on (X, target); `rng` draws `max_features`
        candidate features at every split node."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        n, d = X.shape
        self.n_features = d
        every = np.arange(d)
        drawn = max_features is not None and max_features < d
        feature, threshold, left, right, value = [], [], [], [], []
        deepest = 0
        # depth-first, left child first; a right child sets right[parent].
        # A node holds its rows in ascending order, as do its children.
        stack = [(np.arange(n), 0, -1)]
        while stack:
            rows, depth, parent = stack.pop()
            node = len(feature)
            if parent >= 0:
                right[parent] = node
            deepest = max(deepest, depth)
            t = target[rows]
            best = None
            if not (
                depth >= self.max_depth
                or rows.size < 2 * self.min_leaf
                or t.min() == t.max()
            ):
                if drawn:
                    feats = np.sort(rng.choice(d, size=max_features, replace=False))
                else:
                    feats = every
                best = _best_split(X, target, rows, feats, self.min_leaf, self.criterion)
            if best is None:
                feature.append(-1)
                threshold.append(0.0)
                left.append(node)
                right.append(node)
                value.append(self._leaf_value(target, rows))
                continue
            j, thr = best
            feature.append(j)
            threshold.append(thr)
            left.append(node + 1)
            right.append(-1)
            value.append(0.0)
            goes_left = X[rows, j] <= thr
            stack.append((rows[~goes_left], depth + 1, node))
            stack.append((rows[goes_left], depth + 1, -1))
        self.depth = deepest
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=np.float64)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.value = np.array(value, dtype=np.float64)
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        r = np.arange(len(X))
        node = np.zeros(len(X), dtype=np.intp)
        for _ in range(self.depth):
            goes_left = X[r, self.feature[node]] <= self.threshold[node]
            node = np.where(goes_left, self.left[node], self.right[node])
        return self.value[node]


class ClassificationTree(_Tree):
    def __init__(self, max_depth, min_leaf, criterion="gini"):
        super().__init__(max_depth, min_leaf, criterion)

    def _leaf_value(self, target, rows):
        # majority label, ties to 1
        return 1.0 if target[rows].mean() >= 0.5 else 0.0

    def predict(self, X):
        return super().predict(X).astype(np.int8)


class RegressionTree(_Tree):
    def __init__(self, max_depth, min_leaf):
        super().__init__(max_depth, min_leaf, "variance")

    def _leaf_value(self, target, rows):
        return float(target[rows].mean())


class RandomForestModel:
    def __init__(self, trees, max_depth, max_features, min_leaf, bootstrap):
        self.n_trees = trees
        self.max_depth = max_depth
        self.max_features = max_features  # "sqrt" | "log2" | "all"
        self.min_leaf = min_leaf
        self.bootstrap = bootstrap
        self.trees = []

    def _feature_count(self, d):
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        if self.max_features == "log2":
            return max(1, int(np.log2(d)))
        return None

    def fit(self, X, y, rng):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n, d = X.shape
        mf = self._feature_count(d)
        self.trees = []
        for _ in range(self.n_trees):
            idx = rng.integers(0, n, n) if self.bootstrap else np.arange(n)
            tree = ClassificationTree(self.max_depth, self.min_leaf, "gini")
            tree.fit(X[idx], y[idx], rng=rng, max_features=mf)
            self.trees.append(tree)
        return self

    def predict(self, X):
        votes = np.zeros(len(X))
        for tree in self.trees:
            votes += tree.predict(X)
        # majority vote, ties to 1
        return (2 * votes >= self.n_trees).astype(np.int8)
